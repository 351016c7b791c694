"""Coloring: DSATUR greedy, exact branch and bound, partial extension."""

import itertools
import random

import pytest

from lsnc import (
    Coloring,
    RemovalGraph,
    build_constraints,
    build_srg,
    exact_chromatic,
    extend_coloring,
    greedy_color,
    verify_proper,
)
from lsnc.errors import SearchBudgetExceeded


def complete_graph(n):
    return RemovalGraph.from_edges(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return RemovalGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


PETERSEN = RemovalGraph.from_edges(
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


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return RemovalGraph.from_edges(n, edges)


def test_verify_proper_detects_conflicts():
    g = cycle(4)
    assert verify_proper(g, Coloring((1, 2, 1, 2)))
    assert not verify_proper(g, Coloring((1, 1, 2, 2)))


def test_greedy_is_always_proper():
    for seed in range(10):
        g = random_graph(12, 0.4, seed)
        col = greedy_color(g)
        assert verify_proper(g, col)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_exact_on_complete_graphs(n):
    res = exact_chromatic(complete_graph(n))
    assert res.chi == n and res.optimal


def test_exact_on_odd_cycle_and_petersen():
    assert exact_chromatic(cycle(5)).chi == 3
    assert exact_chromatic(PETERSEN).chi == 3


def test_search_depth_is_not_bounded_by_recursion_limit():
    # Each search level colors one vertex: 2001 levels is deeper than
    # Python's default recursion limit of 1000.
    g = cycle(2001)
    assert verify_proper(g, greedy_color(g))
    res = exact_chromatic(g)
    assert (res.chi, res.optimal) == (3, True)
    assert extend_coloring(g, {}, 2) is None


def test_exact_on_edgeless_graph():
    g = RemovalGraph.from_edges(4, [])
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
        (0.5 - 2.5j, 200_000, (16, True, 566)),
        (0.5 - 2.5j, 300, (17, False, 301)),
        (2 + 0j, 300, (17, False, 301)),
        (-1 - 1j, 300, (19, False, 301)),
    ],
)
def test_exact_search_order_on_qam16(qam16, fade, budget, expected):
    # Pins vertex order, color order and node accounting: any drift in
    # them changes the bound reached within the budget or the node count.
    res = exact_chromatic(build_srg(build_constraints(qam16, fade)), node_budget=budget)
    assert (res.chi, res.optimal, res.nodes) == expected


def test_exact_respects_budget():
    g = random_graph(24, 0.5, 99)
    res = exact_chromatic(g, node_budget=3)
    assert not res.optimal
    assert verify_proper(g, res.coloring)  # still returns its best coloring


class TestExtendColoring:
    def test_feasible_extension_keeps_partial(self):
        g = cycle(6)
        partial = {0: 1, 3: 2}
        col = extend_coloring(g, partial, 2)
        assert col is not None
        assert verify_proper(g, col)
        for v, c in partial.items():
            assert col.colors[v] == c

    def test_improper_partial_is_rejected(self):
        # both endpoints of one edge pinned to the same color
        g = cycle(4)
        with pytest.raises(ValueError):
            extend_coloring(g, {0: 1, 1: 1}, 3)

    def test_too_few_colors_returns_none(self):
        assert extend_coloring(complete_graph(4), {0: 1}, 3) is None

    def test_extension_can_be_blocked_by_choices(self):
        # A path 0-1-2 is 2-colorable, but pinning the ends to the two
        # different colors leaves nothing for the middle vertex.
        g = RemovalGraph.from_edges(3, [(0, 1), (1, 2)])
        assert extend_coloring(g, {0: 1, 2: 2}, 2) is None
        assert extend_coloring(g, {0: 1, 2: 1}, 2) is not None

    def test_budget_exhaustion_raises(self):
        g = random_graph(26, 0.5, 7)
        with pytest.raises(SearchBudgetExceeded):
            extend_coloring(g, {0: 1}, 3, node_budget=2)
