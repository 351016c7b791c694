"""Coloring: DSATUR greedy, chromatic number by ascending decisions,
partial extension."""

import hashlib
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from lsnc import (
    Coloring,
    RemovalGraph,
    Grid,
    build_constraints,
    build_srg,
    enumerate_singular_fade_states,
    exact_chromatic,
    extend_coloring,
    from_coloring,
    from_spec,
    generic_complete,
    make_psk,
    psk_representatives,
    row_clique,
    verify_latin,
    verify_proper,
    vital_subgraph,
)
from lsnc import coloring
from lsnc.errors import SearchBudgetExceeded

from conftest import bits


def complete_graph(n):
    return RemovalGraph.from_lines(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return RemovalGraph.from_lines(n, [(i, (i + 1) % n) for i in range(n)])


PETERSEN = RemovalGraph.from_lines(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


def brute_chromatic(graph):
    for k in range(1, graph.n + 1):
        for colors in itertools.product(range(1, k + 1), repeat=graph.n):
            if verify_proper(graph, Coloring(colors)):
                return k
    return 0


def subset_chromatic(graph):
    """Chromatic number as the fewest independent sets covering the
    vertices, by dynamic programming over vertex subsets."""
    full = (1 << graph.n) - 1
    independent = [
        not any(graph.adj[v] & s for v in range(graph.n) if s >> v & 1) for s in range(full + 1)
    ]
    best = [0] + [graph.n] * full
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        sub = rest
        while True:  # every independent subset of s holding its lowest vertex
            if independent[sub | low]:
                best[s] = min(best[s], best[rest & ~sub] + 1)
            if not sub:
                break
            sub = (sub - 1) & rest
    return best[full]


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return RemovalGraph.from_lines(n, edges)


def greedy_from(graph, partial):
    """Greedy DSATUR keeping the nonzero colors of `partial`: the kernel
    at k = n, which never backtracks."""
    colors = list(partial)
    coloring._dsatur_search(graph, colors, graph.n, graph.n)
    return tuple(colors)


def test_verify_proper_detects_conflicts():
    g = cycle(4)
    assert verify_proper(g, Coloring((1, 2, 1, 2)))
    assert not verify_proper(g, Coloring((1, 1, 2, 2)))


def test_greedy_is_always_proper():
    for seed in range(10):
        g = random_graph(12, 0.4, seed)
        # With no nodes to spend, exact_chromatic's coloring is greedy DSATUR.
        col = exact_chromatic(g, node_budget=0).coloring
        assert verify_proper(g, col) and col.colors == greedy_from(g, [0] * g.n)
        # Started from part of that coloring, it keeps the part.
        partial = [c if v % 3 else 0 for v, c in enumerate(col.colors)]
        filled = greedy_from(g, partial)
        assert verify_proper(g, Coloring(filled))
        assert all(f == c for f, c in zip(filled, partial) if c)


def test_greedy_colorings_are_pinned(qam16):
    # Greedy DSATUR on every 16-QAM removal graph, and on seeded random
    # graphs from nothing and from part of that coloring with its colors
    # spread out: the colorings are those of the kernel's former greedy
    # mode with no color cap, which k = n replaced.
    def hashed(colorings):
        text = "".join(",".join(map(str, colors)) + "\n" for colors in colorings)
        return hashlib.sha256(text.encode()).hexdigest()

    states = enumerate_singular_fade_states(qam16)
    graphs = [build_srg(build_constraints(qam16, fs.value)) for fs in states]
    assert len(graphs) == 388
    assert hashed(greedy_from(g, [0] * g.n) for g in graphs) == (
        "edf438076314a39fadea9d5f50b77602906e74c05470d6ba510e81bfdb51db6c"
    )
    colorings = []
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(1, 40)
        g = random_graph(n, rng.random(), seed)
        colorings.append(greedy_from(g, [0] * n))
        partial = [c * 7 if rng.random() < 0.3 else 0 for c in colorings[-1]]
        colorings.append(greedy_from(g, partial))
    assert hashed(colorings) == "b0664131acee4b535b70b4dbdd91832283ce490a7ee45d0f2cf0fab5f4896bba"


def ladder_only(graph, **kwargs):
    """exact_chromatic with its first step, the vital coloring completed by
    matchings, switched off: the ascending ladder alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coloring, "_grid_coloring", lambda graph, k, budget: (None, 0, k))
        return exact_chromatic(graph, **kwargs)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_exact_on_complete_graphs(n):
    res = exact_chromatic(complete_graph(n))
    assert res.chi == n and res.optimal


def test_exact_on_odd_cycle_and_petersen():
    assert exact_chromatic(cycle(5)).chi == 3
    assert exact_chromatic(PETERSEN).chi == 3


def test_lower_above_chi_is_rejected():
    # The caller's lower bound is only checked: a coloring with fewer colors
    # raises, with or without a budget stop.
    g = cycle(4)
    with pytest.raises(ValueError, match="lower=3 is not a lower bound: the graph has a 2-coloring"):
        exact_chromatic(g, lower=3)
    with pytest.raises(ValueError, match="lower=3"):
        exact_chromatic(g, lower=3, node_budget=0)
    res = exact_chromatic(g, lower=2)
    assert (res.chi, res.lower, res.optimal) == (2, 2, True)


def test_lower_is_not_trusted_when_a_leaf_uses_exactly_that_many_colors():
    # Here a search for a 4-coloring would find one first, so starting the
    # ladder at the caller's lower=4 would report chi = 4 as optimal.  Cut
    # off by the budget, the run only brackets chi between its own bound,
    # the widest line (an edge, so 2), and the greedy fill.
    g = RemovalGraph.from_lines(
        10,
        [(0, 1), (0, 2), (0, 6), (1, 4), (1, 9), (2, 3), (2, 5), (2, 6),
         (3, 8), (3, 9), (4, 5), (4, 7), (4, 8), (5, 7), (7, 8), (8, 9)],
    )
    assert subset_chromatic(g) == 3
    with pytest.raises(ValueError, match="lower=4 is not a lower bound: the graph has a 3-coloring"):
        exact_chromatic(g, lower=4)
    res = exact_chromatic(g, lower=4, node_budget=0)
    assert (res.chi, res.lower, res.optimal) == (4, 2, False)
    for lower in (None, 2, 3):
        res = exact_chromatic(g, lower=lower)
        assert (res.chi, res.lower, res.optimal) == (3, 3, True)
        assert verify_proper(g, res.coloring)


def test_search_depth_is_not_bounded_by_recursion_limit():
    # Each search level colors one vertex: 2001 levels is deeper than
    # Python's default recursion limit of 1000.
    g = cycle(2001)
    assert verify_proper(g, exact_chromatic(g, node_budget=0).coloring)
    res = exact_chromatic(g)
    assert (res.chi, res.optimal) == (3, True)
    assert extend_coloring(g, {}, 2) is None


def test_exact_on_edgeless_graph():
    g = RemovalGraph.from_lines(4, [])
    assert exact_chromatic(g).chi == 1


@pytest.mark.parametrize("seed", range(8))
def test_exact_matches_exhaustive_oracle(seed):
    g = random_graph(7, 0.5, seed)
    res = exact_chromatic(g)
    assert res.optimal
    assert res.chi == brute_chromatic(g)
    assert verify_proper(g, res.coloring)
    assert res.coloring.k == res.chi


@pytest.mark.parametrize(
    "fade, budget, expected",
    [
        (0.5 - 2.5j, 200_000, ((16, True, 36), (16, True, 566))),
        (0.5 - 2.5j, 300, ((16, True, 36), (17, False, 301))),
        (2 + 0j, 300, ((16, True, 269), (16, True, 184))),
        (-1 - 1j, 300, ((17, True, 170), (17, True, 170))),
        (-1.2 + 0.6j, 300, ((16, True, 41), (16, True, 209))),
        (-3 + 0j, 300, ((16, True, 240), (16, True, 171))),
        (-3 - 2j, 300, ((16, True, 48), (16, True, 296))),
        (-0.5 - 0.5j, 300, ((17, True, 172), (17, True, 172))),
    ],
)
def test_exact_search_order_on_qam16(qam16, fade, budget, expected):
    # Pins vertex order, color order and node accounting, of the whole
    # search and then of the ladder alone: any drift in them changes the
    # bound reached within the budget or the node count.  Where the first
    # step fails (at 2 and -3), its nodes come on top of the ladder's.  At
    # the chi = 17 states -1-1j and -0.5-0.5j its vital search runs to
    # exhaustion in 21 nodes, refuting 16, and the ladder starts at 17.
    graph = build_srg(build_constraints(qam16, fade))
    results = exact_chromatic(graph, node_budget=budget), ladder_only(graph, node_budget=budget)
    assert tuple((r.chi, r.optimal, r.nodes) for r in results) == expected


def run_with_kernel(monkeypatch, kernel, fn, *args):
    """fn(*args) or the exception it raised, with every kernel run's
    (nodes, exhausted), all on `kernel`."""
    runs = []

    def spy(*kargs):
        runs.append(kernel(*kargs))
        return runs[-1]

    monkeypatch.setattr(coloring, "_dsatur_search", spy)
    try:
        out = fn(*args)
    except SearchBudgetExceeded as exc:
        out = str(exc)
    return out, runs


@pytest.mark.parametrize(
    "fade, expected",
    [
        (-3 + 0j, ("yes", 158)),
        (-3 - 3j, ("yes", 259)),
        (-1 - 1j, ("no", 0)),
        (-0.5 - 0.5j, ("no", 34)),
    ],
)
def test_extend_search_order_on_qam16(qam16, fade, expected, monkeypatch):
    # Pins the node count of 16-symbol extensions of row 1: 16-QAM states
    # whose chromatic number exceeds 16 are refuted by exhausted searches.
    part = build_constraints(qam16, fade)
    graph = build_srg(part)
    pre = {part.block_of((1, c)): c for c in range(1, 17)}
    col, runs = run_with_kernel(monkeypatch, coloring._dsatur_search, extend_coloring, graph, pre, 16, 300)
    assert ("no" if col is None else "yes", runs[0][0]) == expected


def test_exact_search_effort_on_qam16_states(qam16):
    # (chi, optimal, nodes) at a 300-node budget on every 8th 16-QAM state.
    lines = []
    for fs in enumerate_singular_fade_states(qam16)[::8]:
        res = exact_chromatic(build_srg(build_constraints(qam16, fs.value)), node_budget=300)
        lines.append(f"{res.chi} {res.optimal} {res.nodes}\n")
    assert len(lines) == 49
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "cc3bb93736be377371685952037fe1d0364cf32faffa38bdd8ef1544c7d3bf82"
    )


def test_full_answers_on_every_qam16_state(qam16):
    # Every answer on all 388 16-QAM states: (chi, optimal, nodes, coloring)
    # of exact_chromatic at 300 nodes, and the outcome and coloring of a
    # 16-symbol extension of row 1 at 300 nodes.
    def joined(colors):
        return ",".join(map(str, colors))

    chi_lines, extend_lines = [], []
    for fs in enumerate_singular_fade_states(qam16):
        part = build_constraints(qam16, fs.value)
        graph = build_srg(part)
        res = exact_chromatic(graph, node_budget=300)
        chi_lines.append(f"{res.chi} {res.optimal} {res.nodes} {joined(res.coloring.colors)}\n")
        pre = {part.block_of((1, c)): c for c in range(1, 17)}
        try:
            col = extend_coloring(graph, pre, 16, 300)
        except SearchBudgetExceeded:
            extend_lines.append("budget\n")
        else:
            extend_lines.append("no\n" if col is None else f"yes {joined(col.colors)}\n")
    assert len(chi_lines) == 388
    assert Counter(line.split()[0] for line in extend_lines) == {"yes": 242, "no": 8, "budget": 138}
    assert hashlib.sha256("".join(chi_lines).encode()).hexdigest() == (
        "58fb2cbe103a5996079fe7bf1c714064c7bbdab25c29010b4e3f364560320505"
    )
    assert hashlib.sha256("".join(extend_lines).encode()).hexdigest() == (
        "2387f693b13164f7f738ee493b06ba6adcb8c438a5502a94af1fbbbb86f1b8d7"
    )


def graphs_and_vital_subgraphs(spec):
    """(removal graph, vital subgraph) at every singular state of `spec`."""
    signal = from_spec(spec)
    for fs in enumerate_singular_fade_states(signal):
        part = build_constraints(signal, fs.value)
        graph = build_srg(part)
        yield graph, vital_subgraph(graph, part)


@pytest.mark.parametrize("signal", ["qam:4", "qam:16", "psk:8", "psk:12"])
def test_ladder_starts_at_the_widest_line(signal):
    # At budget 0 no k is refuted, so `lower` is the start bound itself: the
    # widest line, on full graphs and on the vital subgraphs, where other
    # cliques can be wider.
    for pair in graphs_and_vital_subgraphs(signal):
        for g in pair:
            widest = max(len(set(line)) for line in g.lines)
            assert exact_chromatic(g, node_budget=0).lower == max(1, widest)


def test_vital_answers_on_16qam_8psk_16psk_states():
    # (chi, optimal, lower) at 300 nodes on the vital subgraph of every
    # 16-QAM, 8-PSK and 16-PSK state, taken while the ladder could also
    # start at a greedy clique: starting at the widest line moves none.
    lines = []
    for signal in ("qam:16", "psk:8", "psk:16"):
        for _, vital in graphs_and_vital_subgraphs(signal):
            res = exact_chromatic(vital, node_budget=300)
            lines.append(f"{res.chi} {res.optimal} {res.lower}\n")
    assert len(lines) == 388 + 104 + 912
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "0309acc0f9a51fd1174eb63c9104e176857bfb91374eec53f44c9e3dcc3e2ad4"
    )


def test_exact_respects_budget():
    g = random_graph(24, 0.5, 99)
    res = exact_chromatic(g, node_budget=3)
    assert not res.optimal
    assert verify_proper(g, res.coloring)  # the greedy fill of the partial coloring


@pytest.mark.parametrize("budget", [0, 5, 60])
def test_exact_bounds_bracket_the_chromatic_number(budget):
    # Within any budget, `lower` is certified and `chi` is a proper
    # coloring's color count; they meet exactly when the result is optimal.
    for seed in range(60):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 8), rng.choice([0.3, 0.5, 0.7, 0.9]), seed)
        res = exact_chromatic(g, node_budget=budget)
        chi = subset_chromatic(g)
        assert res.lower <= chi <= res.chi
        assert (res.lower == res.chi == chi) == res.optimal
        assert verify_proper(g, res.coloring) and res.coloring.k == res.chi


def reference_descending_chromatic(graph, lower=None, node_budget=10**7):
    """The chromatic-number search before the ascending ladder: a greedy
    DSATUR coloring as the first upper bound, then branch and bound for
    colorings with fewer colors than the best found, on one shared kernel
    run.  Its `lower` is only the start bound."""
    if graph.n == 0:
        return coloring.ChromaticResult(0, Coloring(()), True, 0, 0)
    widest = max((len(set(line)) for line in graph.lines), default=0)
    lb = max(lower or 1, widest)
    best = exact_chromatic(graph, node_budget=0).coloring.colors
    best_k = max(best)
    if best_k <= lb:
        return coloring.ChromaticResult(best_k, Coloring(best), True, 0, lb)
    colors = [0] * graph.n

    def on_leaf(used):
        nonlocal best, best_k
        if used < best_k:
            best, best_k = tuple(colors), used
        return best_k <= lb

    nodes, exhausted = scan_dsatur_search(
        graph, colors, best_k - 1, lambda used, _: range(1, min(used + 1, best_k - 1) + 1), on_leaf,
        node_budget,
    )
    return coloring.ChromaticResult(best_k, Coloring(best), not exhausted, nodes, lb)


def test_ascending_ladder_dominates_descending_search_on_qam16(qam16):
    # All 388 16-QAM states at 300 nodes from the row clique: the ladder
    # decides every state the descending search decides, with the same
    # chromatic number, and its bounds are never looser in sum.
    ours, ref = [], []
    for fs in enumerate_singular_fade_states(qam16):
        part = build_constraints(qam16, fs.value)
        graph = build_srg(part)
        clique = len(row_clique(graph, part))
        ours.append(exact_chromatic(graph, lower=clique, node_budget=300))
        ref.append(reference_descending_chromatic(graph, lower=clique, node_budget=300))
    assert len(ours) == 388
    for new, old in zip(ours, ref):
        assert new.lower >= old.lower
        if old.optimal:
            assert new.optimal and new.chi == old.chi
        if new.optimal:
            assert old.lower <= new.chi <= old.chi
    assert sum(r.chi for r in ours) <= sum(r.chi for r in ref) == 6561
    assert sum(r.optimal for r in ours) > sum(r.optimal for r in ref) == 181


@pytest.mark.parametrize("m, chis", [(3, {3: 6}), (5, {5: 30}), (6, {6: 18, 7: 24}), (7, {7: 98})])
def test_psk_chromatic_numbers_off_the_powers_of_two(m, chis):
    # 3-, 5- and 7-PSK remove every singular state with M symbols; 6-PSK
    # needs a seventh on 24 of its 42 states.
    signal = make_psk(m)
    found = Counter()
    for fs in enumerate_singular_fade_states(signal):
        res = exact_chromatic(build_srg(build_constraints(signal, fs.value)), node_budget=2000)
        assert res.optimal
        found[res.chi] += 1
    assert found == chis


def brute_blocks(signal, fs):
    """The cells (r, c) grouped by the value x_r + s*x_c: by exact Gaussian
    integer keys when the points and the fade are exact, else by floats,
    each cell joining the first group whose first value lies within 1e-9."""
    m = len(signal.points)
    cells = [(r, c) for r in range(1, m + 1) for c in range(1, m + 1)]
    if signal.exact_points and fs.exact_value:
        a, b, q = fs.exact_value
        pts = signal.exact_points
        groups = {}
        for r, c in cells:
            (xr, xi), (yr, yi) = pts[r - 1], pts[c - 1]
            groups.setdefault((q * xr + a * yr - b * yi, q * xi + a * yi + b * yr), []).append((r, c))
        return list(groups.values())
    firsts, blocks = [], []
    for r, c in cells:
        value = signal.points[r - 1] + fs.value * signal.points[c - 1]
        i = next((i for i, first in enumerate(firsts) if abs(value - first) < 1e-9), len(firsts))
        if i == len(firsts):
            firsts.append(value)
            blocks.append([])
        blocks[i].append((r, c))
    return blocks


def assert_square_removes(part, res, signal, fs):
    """The result's square is a complete Latin square on exactly chi symbols
    that gives every brute-force block one symbol."""
    grid = from_coloring(part, res.coloring)
    assert grid.is_complete() and verify_latin(grid) and grid.symbol_count == res.chi
    for block in brute_blocks(signal, fs):
        assert len({grid.rows[r - 1][c - 1] for r, c in block}) == 1, (fs, block)


# spec: (node budget, states, the states the ladder alone leaves open, the
# states the first step and the ladder together leave open)
ORACLE_CASES = {
    "qam:4": (2000, 12, 0, 0),
    "pam:4": (2000, 14, 0, 0),
    "psk:6": (2000, 42, 0, 0),
    "psk:8": (2000, 12, 4, 4),
    "qam:16": (300, 388, 144, 93),
}


@pytest.mark.parametrize("spec", sorted(ORACLE_CASES))
def test_vital_first_step_agrees_with_the_ladder_and_the_brute_partition(spec):
    # Every coloring is proper, its square removes the brute-force partition
    # with exactly chi symbols, and wherever the ladder alone proves chi, the
    # first step gives the same chi.  8-PSK is its 12 representatives.
    budget, count, *expected_open = ORACLE_CASES[spec]
    signal = from_spec(spec)
    states = psk_representatives(8) if spec == "psk:8" else enumerate_singular_fade_states(signal)
    assert len(states) == count
    open_ladder = open_both = 0
    for fs in states:
        part = build_constraints(signal, fs)
        graph = build_srg(part)
        res = exact_chromatic(graph, node_budget=budget)
        ref = ladder_only(graph, node_budget=budget)
        for r in (res, ref):
            assert verify_proper(graph, r.coloring) and r.coloring.k == r.chi
            assert r.lower <= r.chi
        assert_square_removes(part, res, signal, fs)
        if ref.optimal and res.optimal:
            assert res.chi == ref.chi, fs
        open_ladder += not ref.optimal
        open_both += not res.optimal
    assert [open_ladder, open_both] == expected_open


def test_vital_first_step_never_certifies_six_on_psk6():
    # The 24 states of 6-PSK with chi = 7 have no 6-coloring: at any budget
    # the first step fails there, and the ladder proves 7.
    signal = make_psk(6)
    sevens = 0
    for fs in enumerate_singular_fade_states(signal):
        graph = build_srg(build_constraints(signal, fs))
        chi = ladder_only(graph, node_budget=2000).chi
        sevens += chi == 7
        for budget in (0, 5, 300, 2000):
            res = exact_chromatic(graph, node_budget=budget)
            assert verify_proper(graph, res.coloring)
            if chi == 7:
                assert res.chi >= 7 and not (res.optimal and res.lower == 6)
        assert res.optimal and res.chi == chi
    assert sevens == 24


def collided_grid():
    """Six lines of three vertices, three row lines then three column lines,
    built by hand with `from_lines`: the layout alone, no label grid."""
    rows = [(0, 1, 2), (3, 4, 9), (5, 6, 9)]
    cols = [(0, 1, 5), (3, 6, 9), (2, 4, 7)]
    return RemovalGraph.from_lines(10, rows + cols)


def test_vital_first_step_declines_off_the_grid_layout(qam16):
    # Only a `build_srg` graph keeps the label grid that gives its vertices
    # cells.  Vital subgraphs (the path of `lsnc chromatic --vital-only`),
    # edge graphs and graphs shaped like a grid but built from their lines,
    # rook graphs included, get exactly the ladder's answer: the first step
    # spends no node on them.
    graphs = [collided_grid()] + [coloring._rook_graph(m) for m in (3, 4, 8)]
    graphs += [random_graph(7, 0.5, seed) for seed in range(8)] + [random_graph(24, 0.5, 99)]
    for spec in ("qam:4", "psk:8"):
        graphs += [vital for _, vital in graphs_and_vital_subgraphs(spec)]
    for fs in enumerate_singular_fade_states(qam16)[::8]:
        part = build_constraints(qam16, fs)
        graphs.append(vital_subgraph(build_srg(part), part))
    for graph in graphs:
        assert graph.labels is None
        for budget in (0, 5, 300):
            assert exact_chromatic(graph, node_budget=budget) == ladder_only(graph, node_budget=budget)


def test_exhausted_vital_search_starts_the_ladder_above_k(qam16):
    # At -1-1j the 16-QAM vital subgraph has no 16-coloring: its search
    # runs to exhaustion in 21 nodes, which certifies chi > 16 for the whole
    # graph, so the ladder begins at 17 and finds a 17-coloring there.
    graph = build_srg(build_constraints(qam16, -1 - 1j))
    assert coloring._grid_coloring(graph, 16, 300) == (None, 21, 17)
    res = exact_chromatic(graph, node_budget=300)
    assert (res.chi, res.lower, res.optimal) == (17, 17, True)


def test_vital_first_step_certifies_most_of_a_qam64_sample(qam64, qam64_states, qam64_partition):
    # 30 seeded 64-QAM states at 5,000 nodes: the ladder alone, a node per
    # vertex over some 3,900 vertices, certifies none; the first step
    # certifies chi = 64 on at least 21, each square checked against the
    # brute-force partition.
    certified = 0
    for fs in random.Random(3).sample(qam64_states, 30):
        part = qam64_partition(fs)
        res = exact_chromatic(build_srg(part), node_budget=5000)
        assert res.lower == 64 and verify_proper(build_srg(part), res.coloring)
        if res.optimal:
            assert res.chi == 64
            assert_square_removes(part, res, qam64, fs)
            certified += 1
    assert certified >= 21


class TestExtendColoring:
    def test_feasible_extension_keeps_partial(self):
        g = cycle(6)
        partial = {0: 1, 3: 2}
        col = extend_coloring(g, partial, 2)
        assert col is not None
        assert verify_proper(g, col)
        for v, c in partial.items():
            assert col.colors[v] == c

    def test_improper_partial_is_rejected(self, monkeypatch):
        # Edges 0-5 and 1-2 both join one color: the message names the first
        # edge in row-major order, (0, 5), though the kernel's set-up, which
        # walks the vertices in order, meets 1-2 first.  The set-up raises
        # it, so the kernel returns no node count, whatever the budget.
        g = RemovalGraph.from_lines(6, [(0, 5), (1, 2), (3, 4)])
        calls = []
        kernel = coloring._dsatur_search

        def spy(*args):
            calls.append("entered")
            calls.append(kernel(*args))
            return calls[-1]

        monkeypatch.setattr(coloring, "_dsatur_search", spy)
        for budget in (0, 10**6):
            calls.clear()
            with pytest.raises(ValueError, match=r"^partial coloring is improper on edge \(0, 5\)$"):
                extend_coloring(g, {0: 1, 5: 1, 1: 2, 2: 2, 3: 1}, 3, node_budget=budget)
            assert calls == ["entered"]

    def test_range_errors_come_before_the_improper_check(self):
        g = cycle(4)
        with pytest.raises(ValueError, match=r"^color 9 outside 1\.\.3$"):
            extend_coloring(g, {0: 1, 1: 1, 2: 9}, 3, node_budget=0)
        with pytest.raises(ValueError, match=r"^vertex 7 out of range$"):
            extend_coloring(g, {0: 1, 1: 1, 7: 1}, 3, node_budget=0)

    @pytest.mark.parametrize("seed", range(30))
    def test_improper_partial_message_matches_the_first_edge(self, seed):
        # A random partial coloring with at least one monochromatic edge:
        # the message names the least such edge (u, v), u < v.
        rng = random.Random(seed)
        g = random_graph(rng.randint(4, 30), rng.choice([0.3, 0.5, 0.8]), seed)
        partial = {v: rng.randint(1, 3) for v in range(g.n) if rng.random() < 0.6}
        u, v = rng.choice(g.edges())
        partial[u] = partial[v] = 2
        first = min((a, b) for a, b in g.edges() if partial.get(a, 0) == partial.get(b, -1))
        with pytest.raises(ValueError) as info:
            extend_coloring(g, partial, 3, node_budget=0)
        assert str(info.value) == f"partial coloring is improper on edge {first}"

    def test_negative_k_is_rejected_before_the_kernel(self, monkeypatch):
        monkeypatch.setattr(coloring, "_dsatur_search", lambda *args: pytest.fail("kernel ran"))
        for g in (cycle(4), RemovalGraph.from_lines(0, [])):
            with pytest.raises(ValueError, match=r"^k = -1 is negative$"):
                extend_coloring(g, {}, -1)

    def test_too_few_colors_returns_none(self):
        assert extend_coloring(complete_graph(4), {0: 1}, 3) is None
        assert extend_coloring(cycle(4), {}, 0) is None

    def test_extension_can_be_blocked_by_choices(self):
        # A path 0-1-2 is 2-colorable, but pinning the ends to the two
        # different colors leaves nothing for the middle vertex.
        g = RemovalGraph.from_lines(3, [(0, 1), (1, 2)])
        assert extend_coloring(g, {0: 1, 2: 2}, 2) is None
        assert extend_coloring(g, {0: 1, 2: 1}, 2) is not None

    def test_budget_exhaustion_raises(self):
        # chi = 7 here, and a 7-coloring of the 25 free vertices takes at
        # least 25 nodes, so a budget of 10 always stops the search.
        g = random_graph(26, 0.5, 7)
        with pytest.raises(SearchBudgetExceeded, match="budget 10 exhausted after 11 nodes"):
            extend_coloring(g, {0: 1}, 7, node_budget=10)

    def test_a_coloring_finished_at_the_last_node_is_returned(self, qam16):
        # The kernel checks its budget on entering a vertex, so here the
        # 236th free vertex is colored as node 301 of a 300-node budget and
        # the search ends with a full coloring; one node less stops it.
        part = build_constraints(qam16, (3 + 15j) / 13)
        graph = build_srg(part)
        pre = {part.block_of((1, c)): c for c in range(1, 17)}
        col = extend_coloring(graph, pre, 16, 300)
        assert verify_proper(graph, col)
        assert all(col.colors[v] == c for v, c in pre.items())
        with pytest.raises(
            SearchBudgetExceeded, match="budget 299 exhausted after 300 nodes with 235 of 236 free"
        ):
            extend_coloring(graph, pre, 16, 299)

    def test_budget_message_says_how_far_the_search_got(self, qam16, monkeypatch):
        # The kernel stops on entering a vertex after 301 nodes; the
        # message counts the vertices colored on the path it was on, as the
        # scanning reference leaves them too.
        part = build_constraints(qam16, -3 - 1j)
        graph = build_srg(part)
        pre = {part.block_of((1, c)): c for c in range(1, 17)}
        args = (extend_coloring, graph, pre, 16, 300)
        message, _ = run_with_kernel(monkeypatch, coloring._dsatur_search, *args)
        assert message == (
            "extension budget 300 exhausted after 301 nodes with 94 of 168 free vertices colored"
        )
        assert run_with_kernel(monkeypatch, reference_search, *args)[0] == message

    @pytest.mark.parametrize("budget", [0, 10, 40])
    def test_budget_stop_carries_its_progress(self, budget):
        # The progress the message states is also on the exception.
        g = random_graph(26, 0.5, 7)
        with pytest.raises(SearchBudgetExceeded) as info:
            extend_coloring(g, {0: 1}, 7, node_budget=budget)
        exc = info.value
        assert str(exc) == (
            f"extension budget {budget} exhausted after {exc.nodes} nodes with "
            f"{exc.colored} of {exc.free} free vertices colored"
        )
        assert (exc.nodes, exc.free) == (budget + 1, 25) and 0 < exc.colored <= exc.nodes

    @pytest.mark.parametrize("seed", range(8))
    def test_huge_k_is_the_palette_n_plus_the_largest_given_color(self, seed):
        # Colors beyond the given ones plus the free vertices are never
        # opened: k = 10**9 gives what k = n + P gives, P the largest given
        # color, and every color a free vertex takes is given or among the
        # lowest that are not.
        rng = random.Random(seed)
        g = random_graph(rng.randint(2, 14), rng.choice([0.3, 0.6, 0.9]), seed)
        greedy = exact_chromatic(g, node_budget=0).coloring.colors
        pre = {v: c for v, c in enumerate(greedy) if rng.random() < 0.4}
        pre[0] = g.n + 3 + seed  # a given color above every degree, used nowhere else
        top = g.n + max(pre.values())
        col = extend_coloring(g, pre, 10**9)
        assert col == extend_coloring(g, pre, top) == extend_coloring(g, pre, top + 7)
        assert verify_proper(g, col) and all(col.colors[v] == c for v, c in pre.items())
        opened = [c for c in range(1, top + 1) if c not in pre.values()][: g.n - len(pre)]
        assert set(col.colors) <= set(pre.values()) | set(opened)

    def test_allocates_nothing_that_grows_with_k_or_a_given_color(self):
        # A given color of 10**6 and k = 10**9 keep every list the search
        # makes at the size of the graph; per-color lists indexed by color
        # value would take about 16 MB here.
        path3 = RemovalGraph.from_lines(3, [(0, 1), (1, 2)])
        grid = Grid.from_lists([[10**6, 0, 0], [0, 0, 0], [0, 0, 0]])
        runs = [
            (lambda: extend_coloring(path3, {0: 10**6}, 10**9), (10**6, 1, 10**6)),
            (lambda: greedy_from(path3, [10**6, 0, 0]), (10**6, 1, 10**6)),
            (lambda: generic_complete(grid, 10**9).rows[0], (10**6, 1, 2)),
        ]
        for run, first in runs:
            run()  # builds the cached rook graph and degree classes outside the count
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8192
            assert getattr(out, "colors", out) == first

    @pytest.mark.parametrize("seed", range(8))
    def test_sparse_given_colors_are_searched_by_rank(self, seed):
        # Given colors are searched as 1..g in ascending order, so spreading
        # them out changes the answer only by that relabelling.
        rng = random.Random(seed)
        g = random_graph(rng.randint(2, 12), rng.choice([0.3, 0.6]), seed)
        greedy = exact_chromatic(g, node_budget=0).coloring.colors
        pre = {v: c for v, c in enumerate(greedy) if rng.random() < 0.5}
        dense = {c: i for i, c in enumerate(sorted(set(pre.values())), 1)}
        k = len(dense) + g.n
        base = extend_coloring(g, {v: dense[c] for v, c in pre.items()}, k)
        for spread in (1, 5, 10**8):
            value = {i: 7 + i * spread for i in dense.values()}
            col = extend_coloring(g, {v: value[dense[c]] for v, c in pre.items()}, k + 7 + k * spread)
            fresh = iter(c for c in itertools.count(1) if c not in value.values())
            back = {**value, **{c: next(fresh) for c in range(len(dense) + 1, k + 1)}}
            assert col.colors == tuple(back[c] for c in base.colors)


# The 6-PSK states in enumeration order: the outcome of extend_coloring(g,
# {}, 6, node_budget=5000) before the kernel broke color symmetry (y yes,
# n no, b budget), and the SHA-256 of its answers on the decided ones.
PSK6_OUTCOMES = "ynnybybybbynynyyynbbnnbbnyyynynybbybybynny"
PSK6_DECIDED_SHA256 = "210b7fbf773fd0ad0b9558bdbcb37cd6f17ae2899913bd89652935fa0f526b5b"


def test_six_colors_are_decided_on_every_psk6_state():
    # Offering only the lowest unused color refutes the 24 states with
    # chi = 7 within 5000 nodes, which offering all six at every vertex did
    # not on 12 of them; every answer decided before is unchanged.
    signal = make_psk(6)
    lines, chis = [], []
    for fs in enumerate_singular_fade_states(signal):
        graph = build_srg(build_constraints(signal, fs.value))
        col = extend_coloring(graph, {}, 6, node_budget=5000)
        lines.append("no\n" if col is None else "yes " + ",".join(map(str, col.colors)) + "\n")
        chis.append(exact_chromatic(graph, node_budget=2000).chi)
    assert len(lines) == len(PSK6_OUTCOMES) == 42
    assert [line == "no\n" for line in lines] == [chi == 7 for chi in chis]
    assert Counter(line.split()[0] for line in lines) == {"yes": 18, "no": 24}
    decided = "".join(line for line, was in zip(lines, PSK6_OUTCOMES) if was != "b")
    assert hashlib.sha256(decided.encode()).hexdigest() == PSK6_DECIDED_SHA256


def scan_dsatur_search(graph, colors, palette, order, on_leaf, budget):
    """Reference search with hooks: the same vertex order as the kernel,
    each vertex chosen by a scan of every uncolored one.  At a vertex the
    colors of order(used, uses) are tried, `used` being the largest color
    placed and uses[c] the vertices colored c; at a full coloring
    on_leaf(used) says whether to stop.  A color above palette, given or
    offered, raises IndexError."""
    nbrs = [bits(mask) for mask in graph.adj]
    degree = [len(ns) for ns in nbrs]
    seen = [0] * graph.n
    uses = [0] * (palette + 1)
    for v, c in enumerate(colors):
        if c:
            uses[c] += 1
            for u in nbrs[v]:
                seen[u] |= 1 << c
    free = [v for v in range(graph.n) if not colors[v]]

    def tried(todo):
        for c in todo:
            if not 1 <= c <= palette:
                raise IndexError(f"color {c} outside 1..{palette}")
            yield c

    stack = []
    used = max(colors, default=0)
    nodes = 0
    while True:
        if not free:
            if on_leaf(used):
                return nodes, False
        elif nodes > budget:
            return nodes, True
        else:
            v = max(free, key=lambda u: (seen[u].bit_count(), degree[u], -u))
            free.remove(v)
            stack.append([v, iter(order(used, uses)), used, ()])
        while stack:
            frame = stack[-1]
            v, todo, used, added = frame
            if colors[v]:
                uses[colors[v]] -= 1
                bit = 1 << colors[v]
                colors[v] = 0
                for u in added:
                    seen[u] ^= bit
            c = next((c for c in tried(todo) if not seen[v] & 1 << c), 0)
            if c:
                break
            stack.pop()
            free.append(v)
        else:
            return nodes, False
        nodes += 1
        colors[v] = c
        uses[c] += 1
        bit = 1 << c
        frame[3] = [u for u in nbrs[v] if not seen[u] & bit]
        for u in frame[3]:
            seen[u] |= bit
        used = max(used, c)


def reference_search(graph, colors, k, budget):
    """The kernel's contract on the scanning reference: given colors
    renumbered 1..g in ascending order, colors 1..min(used + 1, cap) tried
    at each vertex, the first full coloring kept, and the opened colors
    handed back as the lowest positive numbers not given."""
    given = sorted(set(colors) - {0})
    g = len(given)
    free = colors.count(0)
    cap = g + min(free, k - g)
    inner = [given.index(c) + 1 if c else 0 for c in colors]
    nodes, stopped = scan_dsatur_search(
        graph, inner, cap, lambda used, _: range(1, min(used + 1, cap) + 1), lambda _: True, budget
    )
    back = [0, *given, *(c for c in range(1, g + len(colors) + 1) if c not in given)]
    colors[:] = [back[c] for c in inner]
    return nodes, stopped


def assert_matches_reference(graph, colors, ks, budgets):
    """The kernel and the scanning reference spend the same nodes and leave
    the same colors, at each k and budget."""
    for k in ks:
        # A k below the given colors is rejected by every caller.
        k = max(k, len(set(colors) - {0}))
        for budget in budgets:
            new, ref = list(colors), list(colors)
            assert (coloring._dsatur_search(graph, new, k, budget), new) == (
                reference_search(graph, ref, k, budget), ref
            )


# The color cap of each case: the vertex count (None, greedy), four, and
# five, at which the kernel's decision is also checked against a search that
# offers all five colors at every vertex, the least used first.
CAPS = {"greedy": None, "four": 4, "least-used": 5}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("order", sorted(CAPS))
def test_kernel_matches_scanning_reference(seed, order):
    rng = random.Random(seed)
    graph = random_graph(rng.randint(1, 16), rng.choice([0.2, 0.4, 0.6]), seed)
    precolored = [0] * graph.n
    if seed % 2:  # pin a proper partial coloring on about a third of the vertices
        greedy = exact_chromatic(graph, node_budget=0).coloring.colors
        precolored = [c if rng.random() < 0.35 else 0 for c in greedy]
    k = CAPS[order] or graph.n
    assert_matches_reference(graph, precolored, [k], (0, 3, 40, 3000, 10**6))
    if order == "least-used" and max(precolored, default=0) <= 5:
        # Offering all five colors at every vertex, the least used first,
        # breaks no symmetry and decides the same.
        colors, every = list(precolored), list(precolored)
        coloring._dsatur_search(graph, colors, 5, 10**6)
        least_used = lambda _, uses: sorted(range(1, 6), key=lambda c: (uses[c], c))
        scan_dsatur_search(graph, every, 5, least_used, lambda _: True, 10**7)
        assert all(colors) == all(every)


@pytest.mark.parametrize("row1", [False, True], ids=["empty", "row1"])
@pytest.mark.parametrize("fade", [0.5 - 2.5j, -1 - 1j, -3 + 0j, -0.5 - 0.5j])
def test_kernel_matches_scanning_reference_on_qam16(qam16, fade, row1):
    # Real-size graphs: up to 220 vertices, so masks wider than 200
    # bits, and degrees up to 64, so more than 16 saturation levels.
    part = build_constraints(qam16, fade)
    graph = build_srg(part)
    precolored = [0] * graph.n
    if row1:
        for c in range(1, 17):
            precolored[part.block_of((1, c))] = c
    assert_matches_reference(graph, precolored, (graph.n, 16, 17), (300,))


@pytest.mark.parametrize("pinned", [False, True], ids=["empty", "pinned"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33])
def test_kernel_matches_scanning_reference_across_plane_boundaries(n, pinned):
    # On K_n every uncolored vertex's saturation climbs by one per colored
    # vertex, up to n - 1, so the counters carry into every plane there is.
    # With n - 1 colors each vertex has one choice until the last has none;
    # the search then undoes every color, borrowing back down to where it
    # began.  Budgets of n // 2 stop it halfway up.
    graph = complete_graph(n)
    precolored = [v + 1 if pinned and v < n // 2 else 0 for v in range(n)]
    assert_matches_reference(graph, precolored, (n - 1, n), (n // 2, 10**6))


# Groetzsch's graph: C5 (0..4), a shadow 5 + i of each i joined to i's
# neighbors, and a hub 10 joined to every shadow.  It is triangle-free
# with chi = 4.
GROETZSCH = RemovalGraph.from_lines(
    11,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    + [(5 + i, 10) for i in range(5)],
)


@pytest.mark.parametrize(
    "graph, precolored, k",
    [
        (cycle(7), [0] * 7, 2),
        (RemovalGraph.from_lines(5, list(itertools.combinations(range(5), 2))[1:]), [0] * 5, 3),
        (PETERSEN, [0, 1, 0, 0, 1, 2, 0, 3, 3, 0], 3),
        (GROETZSCH, [0] * 11, 3),
    ],
    ids=["C7", "K5-minus-edge", "pinned-Petersen", "Groetzsch"],
)
def test_kernel_matches_scanning_reference_at_every_budget(graph, precolored, k):
    # Every search here is refuted after backing up from a dead end; on
    # Groetzsch's graph some vertices resume their scan at a later color.
    # Each budget from 0 up to one past the nodes of the exhausted search
    # stops at the same node, with the same colors on the path.
    colors = list(precolored)
    full, stopped = coloring._dsatur_search(graph, colors, k, 10**6)
    assert (colors, stopped) == (precolored, False)
    assert_matches_reference(graph, precolored, [k], range(full + 2))


@pytest.mark.parametrize("case", ["qam16", "random"])
def test_kernel_matches_scanning_reference_at_every_budget_on_many_degree_classes(qam16, case):
    # A saturation tie goes to the first degree class that meets it, and
    # these graphs have 11 and 12 classes where most 16-QAM states have 3.
    # Both searches are refuted after backing up, and each budget from 0 up
    # to one past their nodes stops at the same node as the reference.
    if case == "qam16":
        graph, k, classes = build_srg(build_constraints(qam16, 0.8 + 0.6j)), 15, 11
    else:
        graph, k, classes = random_graph(40, 0.5, 5), 8, 12
    assert len(graph.degree_classes) == classes
    full, stopped = coloring._dsatur_search(graph, [0] * graph.n, k, 10**6)
    assert not stopped and full > 20
    assert_matches_reference(graph, [0] * graph.n, [k], range(full + 2))


def test_kernel_caps_planes_at_the_palette():
    # A hub of degree 40 whose leaves are given colors 1..4 in turn: with
    # k = 4 the hub's saturation is 4, the top of 3 planes where the degree
    # alone would allow 6.  The hub then has no free color, and the
    # extension is refuted.
    graph = RemovalGraph.from_lines(42, [(0, v) for v in range(1, 41)] + [(0, 41)])
    precolored = [0] + [1 + v % 4 for v in range(40)] + [0]
    assert_matches_reference(graph, precolored, (4, 5, graph.n), (1, 10**6))
    assert extend_coloring(graph, dict(enumerate(precolored[1:41], 1)), 4) is None
    assert extend_coloring(graph, dict(enumerate(precolored[1:41], 1)), 5).colors[0] == 5


@pytest.mark.parametrize(
    "graph, partial, expected",
    [
        # one edge 0-1 and three isolated vertices
        (RemovalGraph.from_lines(5, [(0, 1)]), [0, 2, 0, 0, 0], (1, 2, 2, 2, 2)),
        (cycle(6), [9, 0, 0, 12, 0, 0], (9, 12, 9, 12, 9, 12)),
        (
            RemovalGraph.from_lines(12, [(2 * i, 2 * i + 1) for i in range(6)]),
            [0 if v % 2 else 40 + v for v in range(12)],
            (40, 42, 42, 40, 44, 40, 46, 40, 48, 40, 50, 40),
        ),
    ],
    ids=["edge", "cycle", "matching"],
)
def test_greedy_keeps_given_colors_above_the_max_degree(graph, partial, expected):
    # Given colors are searched as 1..g, so a free vertex takes the lowest
    # given color its neighbors leave free before it opens a new one.
    assert greedy_from(graph, partial) == expected
    ref = list(partial)
    reference_search(graph, ref, graph.n, graph.n)
    assert tuple(ref) == expected


def test_kernel_with_more_given_colors_than_levels():
    # Six disjoint edges, one end of each given its own color: six colors
    # reach uncolored vertices, but degree 1 allows only three levels.
    graph = RemovalGraph.from_lines(12, [(2 * i, 2 * i + 1) for i in range(6)])
    precolored = [0 if v % 2 else v // 2 + 1 for v in range(12)]
    assert_matches_reference(graph, precolored, (graph.n, 6, 7), (3, 10**6))


@pytest.mark.parametrize("budget", [0, 5, 60, 10**6])
def test_exact_chromatic_matches_scanning_reference(budget, monkeypatch, qam4):
    graphs = [random_graph(14, 0.5, seed) for seed in range(6)]
    graphs += [build_srg(build_constraints(qam4, fade)) for fade in (0.5 + 0.5j, 1 + 1j, -2 + 0j)]
    kernel = coloring._dsatur_search
    for graph in graphs:
        new = run_with_kernel(monkeypatch, kernel, exact_chromatic, graph, None, budget)
        ref = run_with_kernel(monkeypatch, reference_search, exact_chromatic, graph, None, budget)
        assert new == ref


def random_partial_latin(m, fill, seed):
    """Symbols placed in random cells without repeating one in a row or a
    column; such a grid may or may not complete."""
    rng = random.Random(seed)
    rows = [[0] * m for _ in range(m)]
    for r, c in itertools.product(range(m), repeat=2):
        if rng.random() < fill:
            taken = set(rows[r]) | {rows[i][c] for i in range(m)}
            free = [s for s in range(1, m + 1) if s not in taken]
            if free:
                rows[r][c] = rng.choice(free)
    return Grid.from_lists(rows)


@pytest.mark.parametrize("seed", range(10))
def test_generic_complete_matches_scanning_reference(seed, monkeypatch):
    m = 4 + seed % 3
    grid = random_partial_latin(m, 0.3 + 0.04 * seed, seed)
    kernel = coloring._dsatur_search
    for symbols, budget in ((m, 10**6), (m, 4), (m + 1, 10**6), (m + 1, 8)):
        new = run_with_kernel(monkeypatch, kernel, generic_complete, grid, symbols, budget)
        ref = run_with_kernel(monkeypatch, reference_search, generic_complete, grid, symbols, budget)
        assert new == ref


@pytest.mark.parametrize("seed", range(10))
def test_generic_complete_matches_offering_every_symbol(seed, monkeypatch):
    # Offering every unused symbol at each cell, not just the lowest, finds
    # the same completion when symbols are tried in the kernel's order: the
    # given ones ascending, then the others ascending.  Where that search
    # decides within the budget, the kernel decides the same in no more
    # nodes.
    m = 3 + seed % 4
    grid = random_partial_latin(m, 0.2 + 0.05 * seed, seed)
    given = sorted(grid.symbols())
    kernel = coloring._dsatur_search
    for symbols, budget in ((m, 10**6), (m + 2, 10**6), (m + 1, 20)):
        order = [*given, *(s for s in range(1, symbols + 1) if s not in given)]

        def every_symbol(graph, colors, _, budget):
            return scan_dsatur_search(graph, colors, symbols, lambda *_: order, lambda _: True, budget)

        new, [(nodes, _)] = run_with_kernel(monkeypatch, kernel, generic_complete, grid, symbols, budget)
        ref, [(ref_nodes, _)] = run_with_kernel(
            monkeypatch, every_symbol, generic_complete, grid, symbols, budget
        )
        if not isinstance(ref, str):  # decided: not a budget message
            assert new == ref and nodes <= ref_nodes
