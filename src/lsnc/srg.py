"""Singularity removal graphs.

Vertices are the constraint blocks of a partition; two blocks are adjacent
when they share a row or a column label, so proper colorings are exactly
the symbol assignments a Latin Square may use.  The graph is therefore the
union of 2M cliques ("lines"), one per row label and one per column label,
each holding the blocks that meet it.  A graph keeps the lines it was built
from: adjacency is one bitmask per vertex, the OR of its lines' bitmaps
(the graphs are small, n <= M^2, and coloring searches hammer edge
queries).  Searches read these masks as they are and break ties by degree
through one mask per distinct degree, cached on the graph the first time
a search asks; neighbor and edge listings unpack the masks.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from lsnc.constraint import ConstraintPartition, build_constraints
from lsnc.errors import CertificateMismatchError
from lsnc.signal_set import SignalSet, make_square_qam

__all__ = [
    "RemovalGraph",
    "build_srg",
    "vital_subgraph",
    "qam_clique_certificate",
    "QAM_CLIQUE_STATES",
    "greedy_clique_lower_bound",
    "to_dot",
]


@dataclass(frozen=True)
class RemovalGraph:
    """Undirected graph over block indices: every two vertices of a line
    are adjacent.  `n`, `adj` and `vertex_block` define the graph; the
    lines it was built from are not part of equality or hashing."""

    n: int
    adj: tuple[int, ...]
    vertex_block: tuple[int, ...]  # vertex -> block index in the source partition
    lines: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @classmethod
    def from_lines(
        cls, n: int, lines: list[tuple[int, ...]], vertex_block: tuple[int, ...] | None = None
    ) -> RemovalGraph:
        """Graph whose cliques are `lines`."""
        vertex_block = tuple(range(n)) if vertex_block is None else vertex_block
        return cls(n, _line_masks(n, lines)[0], vertex_block, tuple(lines))

    @cached_property
    def degree_classes(self) -> tuple[int, ...]:
        """One mask per distinct degree, highest first, holding the vertices
        of that degree.  Built on first use, so a graph that is never
        searched never counts its degrees."""
        classes: dict[int, int] = {}
        for v, mask in enumerate(self.adj):
            d = mask.bit_count()
            classes[d] = classes.get(d, 0) | 1 << v
        return tuple(classes[d] for d in sorted(classes, reverse=True))

    def edges(self) -> list[tuple[int, int]]:
        """Edges (u, v), u < v, in ascending order."""
        return [(u, u + 1 + i) for u, mask in enumerate(self.adj) for i in _bits(mask >> (u + 1))]

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2


def _line_masks(
    n: int, lines: Iterable[Sequence[int]]
) -> tuple[tuple[int, ...], int | None]:
    """Adjacency masks of the union of the cliques `lines` on n vertices,
    and the index of the first line that names a vertex twice (its bitmap
    has fewer bits than it has entries), or None: each line's bitmap is
    built once and ORed into the mask of every vertex on it."""
    masks = [0] * n
    size = (n + 7) // 8
    short = None
    for i, line in enumerate(lines):
        buf = bytearray(size)
        for v in line:
            buf[v >> 3] |= 1 << (v & 7)
        bits = int.from_bytes(buf, "little")
        if short is None and bits.bit_count() < len(line):
            short = i
        for v in line:
            mask = masks[v]
            masks[v] = mask | bits if mask else bits
    # A vertex on any line has its own bit set; one on none has mask 0.
    # Cleared in place, so no second set of n masks is ever alive.
    for v, mask in enumerate(masks):
        if mask:
            masks[v] = mask ^ (1 << v)
    return tuple(masks), short


def _bits(mask: int) -> tuple[int, ...]:
    """Set bits of `mask`, ascending: the places of the 1s in its binary
    digits, least significant first, found by str.find."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return tuple(out)


def build_srg(partition: ConstraintPartition) -> RemovalGraph:
    """Graph on all blocks; its lines are the blocks meeting each row, then
    the blocks meeting each column, ascending.  Row r's line is the sorted
    labels of row r of the partition's label grid, and column c's line the
    sorted labels of its stride-M slice from c, less the -1 of cells no
    block covers.

    A block that holds two cells of one row or column (each block is a
    whole row at fade 0) raises ValueError naming the first such line: a
    Latin square cannot give both cells the block's one symbol."""
    m, labels = partition.m, partition.labels
    grid_lines = [labels[i:i + m] for i in range(0, m * m, m)] + [labels[c::m] for c in range(m)]
    lines = []
    for grid_line in grid_lines:
        line = sorted(grid_line)
        lines.append(tuple(line[line.count(-1):]))
    n = len(partition.blocks)
    masks, short = _line_masks(n, lines)
    if short is not None:
        where = f"row {short + 1}" if short < m else f"column {short + 1 - m}"
        raise ValueError(
            f"a constraint block holds two cells of {where}, so no Latin square removes"
            " this partition (each block is a whole row at fade 0)"
        )
    return RemovalGraph(n, masks, tuple(range(n)), tuple(lines))


def vital_subgraph(graph: RemovalGraph, partition: ConstraintPartition) -> RemovalGraph:
    """Induced subgraph on blocks with two or more cells: the graph's lines
    restricted to those blocks."""
    keep = [v for v in range(graph.n) if len(partition.blocks[graph.vertex_block[v]]) >= 2]
    pos = {v: i for i, v in enumerate(keep)}
    lines = []
    for line in graph.lines:
        kept = tuple(pos[v] for v in line if v in pos)
        if len(kept) >= 2:
            lines.append(kept)
    return RemovalGraph.from_lines(
        len(keep), lines, tuple(graph.vertex_block[v] for v in keep)
    )


# The eight singular fade states Theorem-1-style cliques cover, reachable
# from -1-j by conjugation, column negation, and transposition.
QAM_CLIQUE_STATES = (
    -1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j,
    -0.5 - 0.5j, -0.5 + 0.5j, 0.5 - 0.5j, 0.5 + 0.5j,
)


def _label_perm(s_set: SignalSet, f) -> dict[int, int]:
    """label -> label of the point that f maps its point to, f acting on
    the integer (x, y) coordinates of `s_set.exact_points`."""
    label = {p: lab for lab, p in enumerate(s_set.exact_points, 1)}
    return {lab: label[f(*p)] for lab, p in enumerate(s_set.exact_points, 1)}


def qam_clique_certificate(m: int, s: complex) -> tuple[int, ...]:
    """An (M+1)-clique in the removal graph of square M-QAM at s.

    For s = -1-j the clique is the M blocks meeting row sqrt(M)+2 plus the
    block of cell (2, (M-sqrt(M)+2)/2); the other seven states of
    QAM_CLIQUE_STATES reuse it through the symmetry that carries -1-j
    there, its labels permuted exactly on the integer points.  Pairwise
    adjacency is checked; a failure raises CertificateMismatchError.
    Certifies chi >= M+1, i.e. these states cost at least one extra symbol.
    """
    s_set = make_square_qam(m)
    side = math.isqrt(m)
    cells = [(side + 2, c) for c in range(1, m + 1)] + [(2, (m - side + 2) // 2)]

    # The eight (conjugate, negate column, transpose) choices, applied in
    # that order, carry -1-j onto the eight states; the cells move with it.
    conj = _label_perm(s_set, lambda x, y: (x, -y))
    neg = _label_perm(s_set, lambda x, y: (-x, -y))
    for do_conj, do_neg, do_transpose in itertools.product((False, True), repeat=3):
        t, moved = -1 - 1j, cells
        if do_conj:
            t, moved = t.conjugate(), [(conj[r], conj[c]) for r, c in moved]
        if do_neg:
            t, moved = -t, [(r, neg[c]) for r, c in moved]
        if do_transpose:
            t, moved = 1 / t, [(c, r) for r, c in moved]
        if abs(t - s) <= 1e-9:
            break
    else:
        raise ValueError(f"no clique certificate at fade state {s}")

    partition = build_constraints(s_set, s)
    return _certified_clique(build_srg(partition), partition, moved)


def row_clique(graph: RemovalGraph, partition: ConstraintPartition) -> tuple[int, ...]:
    """Vertices of the blocks meeting grid row 1 — a clique of size m.

    No constraint holds two cells of the same row (the superposition map is
    injective along rows), so a row meets m distinct blocks, and any two of
    them are adjacent through that shared row label.  The pairwise adjacency
    is re-checked here so the returned clique is a certificate that the
    chromatic number is at least m.
    """
    cells = [(1, c) for c in range(1, partition.m + 1)]
    return _certified_clique(graph, partition, cells)


def _certified_clique(
    graph: RemovalGraph, partition: ConstraintPartition, cells: list[tuple[int, int]]
) -> tuple[int, ...]:
    """The sorted blocks of `cells`, checked to be one per cell and pairwise
    adjacent in `graph`; a failure raises CertificateMismatchError."""
    vertices = sorted({partition.block_of(cell) for cell in cells})
    if len(vertices) != len(cells):
        raise CertificateMismatchError(f"cells span {len(vertices)} blocks, expected {len(cells)}")
    clique = sum(1 << v for v in vertices)
    for u in vertices:
        # Adjacency is symmetric, so at the first u that misses a member v,
        # v lies above u and (u, v) is the first non-adjacent pair.
        missing = clique & ~(1 << u) & ~graph.adj[u]
        if missing:
            v = (missing & -missing).bit_length() - 1
            raise CertificateMismatchError(f"blocks {u} and {v} are not adjacent")
    return tuple(vertices)


def greedy_clique_lower_bound(graph: RemovalGraph) -> int:
    """Size of a maximal clique grown greedily: from the vertex of highest
    degree, then lowest index, each step adds the candidate first in that
    order and keeps only its neighbors as candidates.  That candidate is the
    lowest set bit of the first degree class the candidates meet."""
    adj, classes = graph.adj, graph.degree_classes
    size, cand = 0, (1 << graph.n) - 1
    while cand:
        for b in classes:
            b &= cand
            if b:
                break
        size, cand = size + 1, cand & adj[(b & -b).bit_length() - 1]
    return size


def to_dot(graph: RemovalGraph) -> str:
    """DOT text; vertex labels are 1-indexed block indices."""
    lines = ["graph removal_graph {"]
    for v in range(graph.n):
        lines.append(f'  v{v} [label="{graph.vertex_block[v] + 1}"];')
    for u, v in graph.edges():
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
