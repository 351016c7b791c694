"""Removal graphs: construction oracle, closed-form adjacency, cliques, DOT."""

import hashlib
import random

import pytest

from lsnc import (
    RemovalGraph,
    build_constraints,
    build_srg,
    enumerate_singular_fade_states,
    generic_complete,
    make_psk,
    make_square_qam,
    psk_constraints_closed_form,
    psk_representative,
    psk_representatives,
    qam_clique_certificate,
    row_clique,
    to_dot,
    vital_subgraph,
)
from lsnc import coloring, srg
from lsnc._numeric import MERGE_TOL
from lsnc.constraint import ConstraintPartition
from lsnc.errors import CertificateMismatchError
from lsnc.latin import Grid
from lsnc.srg import QAM_CLIQUE_STATES

from conftest import bits


# Oracles: the mask-by-mask construction the line-based graphs replaced.

def oracle_adj(partition):
    """Adjacency masks ORed row group by row group, member by member."""
    masks = [0] * len(partition.blocks)
    by_row, by_col = {}, {}
    for i, block in enumerate(partition.blocks):
        for r, c in block:
            by_row[r] = by_row.get(r, 0) | (1 << i)
            by_col[c] = by_col.get(c, 0) | (1 << i)
    for group in list(by_row.values()) + list(by_col.values()):
        for v in bits(group):
            masks[v] |= group & ~(1 << v)
    return tuple(masks)


def oracle_lines(partition):
    """Lines appended cell by cell, block by block, as `build_srg` built
    them before reading the label grid: each row's blocks, then each
    column's."""
    rows = [[] for _ in range(partition.m)]
    cols = [[] for _ in range(partition.m)]
    for i, block in enumerate(partition.blocks):
        for r, c in block:
            rows[r - 1].append(i)
            cols[c - 1].append(i)
    return tuple(tuple(line) for line in rows + cols)


def oracle_vital_adj(graph, partition):
    keep = [v for v in range(graph.n) if len(partition.blocks[graph.vertex_block[v]]) >= 2]
    pos = {v: i for i, v in enumerate(keep)}
    masks = [0] * len(keep)
    for v in keep:
        for u in bits(graph.adj[v]):
            if u in pos:
                masks[pos[v]] |= 1 << pos[u]
    return tuple(masks), tuple(graph.vertex_block[v] for v in keep)


def assert_matches_oracle(graph, adj, unpack=True):
    """`graph` has the adjacency `adj` and, when `unpack` is set, the
    edges that `bits` unpacks from it.  Unpacking costs about half a
    microsecond a neighbor, so the largest graphs are unpacked in a
    sample."""
    assert graph.n == len(adj)
    assert graph.adj == adj
    assert graph.edge_count == sum(bin(mask).count("1") for mask in adj) // 2
    if unpack:
        expected = tuple(tuple(bits(mask)) for mask in adj)
        assert graph.edges() == [(u, v) for u, ns in enumerate(expected) for v in ns if u < v]


def assert_degree_classes_match(graph):
    """`graph.degree_classes` are disjoint, nonempty, cover every vertex and
    each holds one degree, strictly decreasing from class to class: their
    set bits, class by class, are the vertices by (degree descending, index
    ascending)."""
    classes = graph.degree_classes
    covered = 0
    for cls in classes:
        assert cls and not covered & cls
        covered |= cls
    assert covered == (1 << graph.n) - 1
    degree = [mask.bit_count() for mask in graph.adj]
    degrees = [{degree[v] for v in bits(cls)} for cls in classes]
    assert all(len(d) == 1 for d in degrees)
    degrees = [d.pop() for d in degrees]
    assert all(a > b for a, b in zip(degrees, degrees[1:]))
    order = [v for cls in classes for v in bits(cls)]
    assert order == sorted(range(graph.n), key=lambda v: (-degree[v], v))


def oracle_psk_vital_adj(m, k, l):
    """Adjacency of the PSK vital subgraph, edge by edge from the closed-form
    formula in psk_constraints_closed_form's docstring."""
    half = m // 2
    edges = []
    if k == half or l == half:
        p = l if k == half else k
        for i in range(m):
            for j in ((i + p) % m, (i - p) % m, (i + half) % m):
                edges.append((i, j))
        n = m
    else:
        for i in range(m):
            offsets = (i, (i + k) % m, (i - k) % m, (half + i + l) % m, (half + i - l) % m, (i + half) % m)
            for j in ((i + k) % m, (i - k) % m, (i + l) % m, (i - l) % m):
                edges += [(i, j), (m + i, m + j)]
            for j in offsets:
                edges += [(i, m + j), (m + i, j)]
        n = 2 * m
    masks = [0] * n
    for u, v in edges:
        if u != v:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return tuple(masks)


def first_unshared_pair(graph, vertices):
    """The first pair (u, v), u < v, of sorted `vertices` that the
    adjacency masks leave apart, as the mask-based certificate named it."""
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if not graph.adj[u] >> v & 1:
                return u, v
    return None


def test_qam16_graphs_match_oracle(qam16):
    for fs in enumerate_singular_fade_states(qam16):
        part = build_constraints(qam16, fs)
        graph = build_srg(part)
        clique = row_clique(graph, part)
        vital = vital_subgraph(graph)
        # Certifying the row clique and cutting the vital subgraph read only
        # lines; the masks are built below, when they are first read.
        assert "adj" not in vars(graph) and "adj" not in vars(vital)
        assert_matches_oracle(graph, oracle_adj(part))
        assert vital.adj == oracle_vital_adj(graph, part)[0]
        assert first_unshared_pair(graph, clique) is None
        assert graph.lines == oracle_lines(part)
        assert_degree_classes_match(graph)
        assert_degree_classes_match(vital)


@pytest.mark.parametrize("m", [16, 32])
def test_psk_graphs_and_vital_subgraphs_match_oracle(m):
    signal = make_psk(m)
    for i, fs in enumerate(psk_representatives(m)):
        part = build_constraints(signal, fs)
        graph = build_srg(part)
        assert_matches_oracle(graph, oracle_adj(part), unpack=m == 16 or i % 8 == 0)
        assert graph.lines == oracle_lines(part)
        vital = vital_subgraph(graph)
        adj, vertex_block = oracle_vital_adj(graph, part)
        assert_matches_oracle(vital, adj)
        assert vital.vertex_block == vertex_block


def test_qam64_graphs_match_oracle_and_golden_hash(qam64_states, qam64_partition):
    # The hash was taken from the mask-by-mask construction; it pins every
    # adjacency mask of every 400th state.
    dump = []
    for i, fs in enumerate(qam64_states[::400]):
        part = qam64_partition(fs)
        graph = build_srg(part)
        assert_matches_oracle(graph, oracle_adj(part), unpack=i % 5 == 0)
        assert graph.lines == oracle_lines(part)
        dump.append(",".join(map(hex, graph.adj)) + "\n")
    assert hashlib.sha256("".join(dump).encode()).hexdigest() == (
        "fef6bd3f80d5ca89278ca9768263a986faab55ba2f4660aedead9f874c5b8817"
    )


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_rook_graph_matches_oracle(m, monkeypatch):
    graphs = []
    search = coloring._dsatur_search

    def spy(graph, *args):
        graphs.append(graph)
        return search(graph, *args)

    monkeypatch.setattr(coloring, "_dsatur_search", spy)
    assert generic_complete(Grid.from_lists([[0] * m] * m), m) is not None
    row, col = (1 << m) - 1, sum(1 << (m * r) for r in range(m))
    adj = tuple(
        ((row << (m * r)) | (col << c)) & ~(1 << (m * r + c)) for r in range(m) for c in range(m)
    )
    [graph] = graphs
    assert_matches_oracle(graph, adj)


@pytest.mark.parametrize("seed", range(12))
def test_from_edges_matches_oracle(seed):
    # An edge is a two-vertex line.
    rng = random.Random(seed)
    n = seed  # includes the empty graph and graphs with isolated vertices
    edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(2 * n + 1))] if n >= 2 else []
    graph = RemovalGraph.from_lines(n, edges)
    adj = [0] * n
    for u in range(n):
        for v in range(n):
            if (u, v) in edges or (v, u) in edges:
                adj[u] |= 1 << v
    assert_matches_oracle(graph, tuple(adj))
    assert_degree_classes_match(graph)


@pytest.mark.parametrize("seed", range(12))
def test_degree_classes_match_on_random_lines(seed):
    # Random cliques of random sizes, so degrees tie and cliques overlap.
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    sizes = [rng.randint(1, min(n, 8)) for _ in range(rng.randrange(3 * n))]
    lines = [tuple(rng.sample(range(n), k)) for k in sizes]
    graph = RemovalGraph.from_lines(n, lines)
    assert_degree_classes_match(graph)


def test_isolated_vertices_of_a_vital_subgraph():
    # The two-cell blocks {(1,1),(2,2)} and {(3,3),(4,4)} share no row or
    # column, so with the singletons gone both are isolated.
    pairs = (((1, 1), (2, 2)), ((3, 3), (4, 4)))
    singles = [((r, c),) for r in range(1, 5) for c in range(1, 5) if r != c]
    part = ConstraintPartition(m=4, blocks=(pairs[0], *singles[:6], pairs[1], *singles[6:]))
    graph = build_srg(part)
    assert_matches_oracle(graph, oracle_adj(part))
    assert graph.lines == oracle_lines(part)
    vital = vital_subgraph(graph)
    adj, vertex_block = oracle_vital_adj(graph, part)
    assert adj == (0, 0)
    assert_matches_oracle(vital, adj)
    assert vital.vertex_block == vertex_block == (0, 7)


def test_one_edge_set_given_as_different_lines_is_two_graphs():
    triangle = RemovalGraph.from_lines(3, [(0, 1), (1, 2), (0, 2)])
    clique = RemovalGraph.from_lines(3, [(0, 1, 2)])
    assert triangle.lines != clique.lines
    assert triangle != clique
    for graph in (triangle, clique):
        assert graph.adj == (0b110, 0b101, 0b011)
        assert graph.edges() == [(0, 1), (0, 2), (1, 2)]


def test_identity_comes_from_the_lines_without_building_masks(qam16):
    partition = build_constraints(qam16, -1 - 1j)
    graph, twin = build_srg(partition), build_srg(partition)
    assert graph is not twin
    assert graph == twin
    assert hash(graph) == hash(twin)
    assert repr(graph) == repr(twin)
    assert f"lines={graph.lines!r}" in repr(graph)
    assert "adj" not in vars(graph) and "adj" not in vars(twin)
    assert graph != RemovalGraph.from_lines(graph.n, graph.lines[::-1], graph.vertex_block)
    # Only the build_srg graph keeps a label grid, which is not part of its
    # identity: the same lines given to from_lines make an equal graph.
    rebuilt = RemovalGraph.from_lines(graph.n, graph.lines, graph.vertex_block)
    assert graph.labels == partition.labels and rebuilt.labels is None
    assert rebuilt == graph and graph == rebuilt
    assert hash(rebuilt) == hash(graph)
    assert repr(rebuilt) == repr(graph)
    assert "adj" not in vars(rebuilt) and "adj" not in vars(graph)


def shares_line(block_a, block_b):
    return any(
        a[0] == b[0] or a[1] == b[1] for a in block_a for b in block_b
    )


def test_edges_match_shared_row_or_column(qam4_partition, qam4_graph):
    g, part = qam4_graph, qam4_partition
    for u in range(g.n):
        for v in range(u + 1, g.n):
            expected = shares_line(part.blocks[u], part.blocks[v])
            assert bool(g.adj[u] >> v & 1) == expected


def test_qam4_graph_shape(qam4_graph):
    assert qam4_graph.n == 12
    assert qam4_graph.edge_count == 38


def test_documented_example_edge(qam4_partition, qam4_graph):
    # blocks {(1,3),(3,2)} and {(4,3)} share column 3
    u = qam4_partition.block_of((1, 3))
    v = qam4_partition.block_of((4, 3))
    assert qam4_graph.adj[u] >> v & 1


def test_vital_subgraph_keeps_multi_blocks(qam4_partition, qam4_graph):
    vital = vital_subgraph(qam4_graph)
    assert vital.n == 4
    assert vital.vertex_block == qam4_partition.multi_indices
    for i in range(vital.n):
        for j in range(i + 1, vital.n):
            bu = qam4_partition.blocks[vital.vertex_block[i]]
            bv = qam4_partition.blocks[vital.vertex_block[j]]
            assert bool(vital.adj[i] >> j & 1) == shares_line(bu, bv)


@pytest.mark.parametrize("m,k,l", [(8, 1, 3), (8, 2, 1), (8, 1, 4), (8, 2, 4), (16, 3, 5)])
def test_closed_form_adjacency_matches_brute(m, k, l, request):
    signal = request.getfixturevalue(f"psk{m}")
    part = build_constraints(signal, psk_representative(m, k, l).value)
    brute_vital = vital_subgraph(build_srg(part))
    cf_part = psk_constraints_closed_form(m, k, l)
    cf_graph = build_srg(cf_part)
    assert cf_graph.n == brute_vital.n

    def edge_keys(graph, blocks_of):
        return {
            frozenset((blocks_of(u), blocks_of(v))) for u, v in graph.edges()
        }

    brute_edges = edge_keys(
        brute_vital, lambda v: frozenset(part.blocks[brute_vital.vertex_block[v]])
    )
    cf_edges = edge_keys(cf_graph, lambda v: frozenset(cf_part.blocks[v]))
    assert cf_edges == brute_edges


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_psk_vital_adjacency_matches_edge_oracle(m):
    reps = psk_representatives(m)
    for fs in reps[::8] if m == 64 else reps:
        part = psk_constraints_closed_form(m, fs.k, fs.l)
        graph = build_srg(part)
        assert_matches_oracle(graph, oracle_psk_vital_adj(m, fs.k, fs.l))
        # Closed forms leave cells uncovered; their -1 labels are on no line.
        assert graph.lines == oracle_lines(part)
        assert graph.vertex_block == tuple(range(graph.n))


@pytest.mark.parametrize("m,k,l", [(4, 1, 2), (8, 3, 3), (12, 1, 2), (8, 0, 1), (8, 1, 5)])
def test_psk_vital_adjacency_rejects_bad_parameters(m, k, l):
    with pytest.raises(ValueError):
        build_srg(psk_constraints_closed_form(m, k, l))


@pytest.mark.parametrize(
    "blocks,where",
    [
        ((((1, 1), (1, 2)), ((2, 1),), ((2, 2),)), "row 1"),
        ((((1, 1), (2, 1)), ((1, 2),), ((2, 2),)), "column 1"),
        ((((1, 1),), ((2, 1),), ((1, 2), (2, 2))), "column 2"),
    ],
    ids=["row-1", "column-1", "column-2"],
)
def test_build_srg_rejects_a_block_meeting_one_line_twice(blocks, where):
    # No Latin square gives two cells of one line the block's one symbol.
    # Left through, the column cases get chi = 3 marked optimal.
    with pytest.raises(ValueError, match=f"^a constraint block holds two cells of {where},"):
        build_srg(ConstraintPartition(2, blocks))


class TestQamClique:
    def test_m4_size_five(self):
        assert len(qam_clique_certificate(4, -1 - 1j)) == 5

    def test_m16_size_seventeen(self):
        assert len(qam_clique_certificate(16, -1 - 1j)) == 17

    @pytest.mark.parametrize("s", QAM_CLIQUE_STATES)
    def test_all_eight_states(self, s, qam4, qam4_graph):
        part = build_constraints(qam4, s)
        graph = build_srg(part)
        vertices = qam_clique_certificate(4, s)
        for i, u in enumerate(vertices):
            for v in vertices[i + 1:]:
                assert graph.adj[u] >> v & 1

    def test_unknown_state_rejected(self):
        for s, text in [(0, "0"), (0.3j, "0.3j"), (float("nan"), "nan"), (2 + 3j, "(2+3j)")]:
            with pytest.raises(ValueError) as info:
                qam_clique_certificate(4, s)
            assert str(info.value) == f"no clique certificate at fade state {text}"

    @pytest.mark.parametrize("m", [4, 16, 64, 256])
    def test_exact_label_perms_match_the_float_lookup(self, m):
        # The clique moves by label permutations found on the integer
        # points; the lookup on the float points they replace is the oracle.
        s_set = make_square_qam(m)

        def float_perm(f):
            def label_of(point):
                [lab] = [i for i, p in enumerate(s_set.points, 1) if abs(p - point) <= MERGE_TOL]
                return lab

            return {lab: label_of(f(p)) for lab, p in enumerate(s_set.points, 1)}

        conj = srg._label_perm(s_set, lambda x, y: (x, -y))
        neg = srg._label_perm(s_set, lambda x, y: (-x, -y))
        assert conj == float_perm(complex.conjugate) and neg == float_perm(lambda p: -p)
        assert sorted(conj.values()) == sorted(neg.values()) == list(range(1, m + 1))

    def test_cliques_match_golden_hash(self):
        # Taken from the conj/neg/transpose chain the symmetry loop replaced.
        lines = [
            f"{m} {s} {' '.join(map(str, qam_clique_certificate(m, s)))}\n"
            for m in (4, 16, 64)
            for s in QAM_CLIQUE_STATES
        ]
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
            "04680954a66d08dcb8cfbf1827316b2359641148d973075cf2c61e9540559f65"
        )


def test_row_clique_certifies_psk_lower_bound(psk8):
    part = build_constraints(psk8, psk_representative(8, 1, 3).value)
    graph = build_srg(part)
    clique = row_clique(graph, part)
    assert len(clique) == 8


def test_qam_clique_certificate_builds_no_masks(monkeypatch):
    graphs = []

    def spy(partition):
        graphs.append(build_srg(partition))
        return graphs[-1]

    monkeypatch.setattr(srg, "build_srg", spy)
    clique = qam_clique_certificate(16, -1 - 1j)
    [graph] = graphs
    assert "adj" not in vars(graph)
    # The (M+1)-clique spans two lines, so it is certified pair by pair.
    assert not any(set(clique) <= set(line) for line in graph.lines)
    assert first_unshared_pair(graph, clique) is None


def test_certificate_with_one_vertex_off_the_line(qam16):
    # Row 1's blocks plus the block of (3, 1): that block shares column 1
    # with one of them and no line with some other, so the line check
    # names the pair the masks would.
    part = build_constraints(qam16, -1 - 1j)
    graph = build_srg(part)
    cells = [(1, c) for c in range(1, 17)] + [(3, 1)]
    vertices = sorted(part.block_of(cell) for cell in cells)
    u, v = first_unshared_pair(RemovalGraph.from_lines(graph.n, graph.lines), vertices)
    with pytest.raises(CertificateMismatchError, match=f"^blocks {u} and {v} are not adjacent$"):
        srg._certified_clique(graph, part, cells)
    assert "adj" not in vars(graph)


def test_row_clique_of_a_partition_that_misses_row_1():
    # The closed-form PSK partition leaves cell (1, 1) uncovered.
    part = psk_constraints_closed_form(8, 1, 3)
    with pytest.raises(CertificateMismatchError, match=r"^cell \(1, 1\) not in any block$"):
        row_clique(build_srg(part), part)


@pytest.mark.parametrize("lines,where", [
    ([(0, -1)], "line 0 names vertex -1"),
    ([(0, 1, 2), (0, 5)], "line 1 names vertex 5"),
])
def test_from_lines_rejects_a_vertex_outside_the_graph(lines, where):
    with pytest.raises(ValueError, match=rf"^{where}, not in range\(3\)$"):
        RemovalGraph.from_lines(3, lines)


@pytest.mark.parametrize("lines,where", [
    ([(0, 1, 0)], "line 0 names vertex 0 twice"),
    ([(0, 1), (2, 1, 2)], "line 1 names vertex 2 twice"),
    ([(0, 1), (1, 2, 1, 5)], "line 1 names vertex 1 twice"),
    ([(0, 0), (0, 5)], "line 0 names vertex 0 twice"),
])
def test_from_lines_rejects_a_vertex_named_twice(lines, where):
    # Every line is a set of distinct vertices, which the line-based
    # coloring check relies on; the first bad line is named, whichever way.
    with pytest.raises(ValueError, match=rf"^{where}$"):
        RemovalGraph.from_lines(3, lines)


def test_vital_subgraph_needs_a_label_grid(qam4_graph):
    for graph in (RemovalGraph.from_lines(qam4_graph.n, qam4_graph.lines), vital_subgraph(qam4_graph)):
        assert graph.labels is None
        with pytest.raises(ValueError, match="no label grid"):
            vital_subgraph(graph)


@pytest.mark.parametrize("label,span", [(12, "0..12"), (-2, "-2..11")])
def test_build_srg_rejects_a_label_naming_no_block(qam4_partition, label, span):
    # build_srg makes its graph without from_lines' checks: its lines are
    # sets of vertices in range as long as every label is -1 or a block.
    labels = list(qam4_partition.labels)
    labels[5] = label
    part = ConstraintPartition(m=4, blocks=qam4_partition.blocks, labels=tuple(labels))
    with pytest.raises(ValueError, match=rf"^label grid spans {span}, not within -1\.\.11$"):
        build_srg(part)


def test_certificate_names_the_first_non_adjacent_pair(qam4_partition, qam4_graph):
    c = row_clique(qam4_graph, qam4_partition)
    missing = ({c[2], c[3]}, {c[1], c[3]}, {c[1], c[2]})
    broken = RemovalGraph.from_lines(
        qam4_graph.n, [e for e in qam4_graph.edges() if set(e) not in missing]
    )
    with pytest.raises(CertificateMismatchError, match=f"^blocks {c[1]} and {c[2]} are not adjacent$"):
        row_clique(broken, qam4_partition)


def test_dot_export_roundtrip(qam4_graph):
    dot = to_dot(qam4_graph)
    assert dot.startswith("graph ")
    # every edge appears once, 1-indexed, in "vU -- vV" form
    edge_lines = [ln for ln in dot.splitlines() if "--" in ln]
    assert len(edge_lines) == qam4_graph.edge_count
    for u, v in qam4_graph.edges():
        assert f"v{u} -- v{v};" in dot
    assert f'v0 [label="1"];' in dot
