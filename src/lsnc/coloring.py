"""Vertex coloring: DSATUR greedy, exact branch-and-bound, and extension.

Proper colorings of a removal graph are exactly the valid symbol
assignments, so the chromatic number is the minimum symbol count of a
Latin Square removing the fade state.

Every search here, and Latin completion in `lsnc.latin`, runs one
backtracking kernel over the graph's bitmask adjacency with a bitmask of
neighbor colors per vertex.  It colors next the uncolored vertex with the
most distinct neighbor colors, then the highest degree, then the lowest
index; the caller sets which colors to try there, in what order, and what
to do at a full coloring.  Greedy DSATUR is the kernel's first full
coloring, the chromatic number its best one, and an extension its first
one that keeps the given colors.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from lsnc.errors import SearchBudgetExceeded
from lsnc.latin import DEFAULT_BUDGET
from lsnc.srg import RemovalGraph, greedy_clique_lower_bound

__all__ = [
    "Coloring",
    "ChromaticResult",
    "verify_proper",
    "greedy_color",
    "exact_chromatic",
    "extend_coloring",
]


@dataclass(frozen=True)
class Coloring:
    """Total assignment vertex -> color; colors are 1-indexed."""

    colors: tuple[int, ...]

    @property
    def k(self) -> int:
        return max(self.colors, default=0)


@dataclass(frozen=True)
class ChromaticResult:
    chi: int
    coloring: Coloring
    optimal: bool
    nodes: int


def verify_proper(graph: RemovalGraph, coloring: Coloring) -> bool:
    """Total assignment with no monochromatic edge."""
    cols = coloring.colors
    if len(cols) != graph.n or any(c < 1 for c in cols):
        return False
    return all(cols[u] != cols[v] for u, v in graph.edges())


def _dsatur_search(
    graph: RemovalGraph,
    colors: list[int],
    order: Callable[[int, Counter], Iterable[int]],
    on_leaf: Callable[[int], bool],
    budget: int,
) -> tuple[int, bool]:
    """Color every 0 entry of `colors` by most-constrained-first backtracking.

    On entering a vertex, order(used, uses) gives the colors to try there:
    `used` is the largest color placed so far and uses[c] the number of
    vertices colored c.  Colors already on a neighbor are skipped, and each
    color tried is one node.  At a full coloring on_leaf(used) is called;
    True stops the search and leaves that coloring in `colors`.  Entering an
    uncolored vertex after more than `budget` nodes also stops it.  Returns
    (nodes, whether the budget stopped the search).
    """
    nbrs = [graph.neighbors(v) for v in range(graph.n)]
    degree = [len(ns) for ns in nbrs]
    seen = [0] * graph.n  # bit c set: a neighbor has color c
    uses: Counter = Counter()
    for v, c in enumerate(colors):
        if c:
            uses[c] += 1
            for u in nbrs[v]:
                seen[u] |= 1 << c
    free = [v for v in range(graph.n) if not colors[v]]
    # An explicit stack, so depth is not bounded by the recursion limit.  One
    # frame per vertex the search has colored, deepest last: [vertex, colors
    # left to try, `used` before it, neighbors its color was added to].
    stack: list[list] = []
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
        # Move to the next untried color of the deepest vertex that has one.
        while stack:
            frame = stack[-1]
            v, todo, used, added = frame
            if colors[v]:
                uses[colors[v]] -= 1
                bit = 1 << colors[v]
                colors[v] = 0
                for u in added:
                    seen[u] ^= bit
            c = next((c for c in todo if not seen[v] & 1 << c), 0)
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


def greedy_color(graph: RemovalGraph) -> Coloring:
    """DSATUR greedy coloring: the first leaf of the search, each vertex
    taking its smallest free color.  Uses at most max-degree + 1 colors."""
    colors = [0] * graph.n
    # Color used + 1 is always free, so the search never backtracks and
    # spends one node per vertex.
    _dsatur_search(graph, colors, lambda used, _: range(1, used + 2), lambda _: True, graph.n)
    return Coloring(tuple(colors))


def exact_chromatic(
    graph: RemovalGraph,
    lower: int | None = None,
    node_budget: int = DEFAULT_BUDGET,
) -> ChromaticResult:
    """Chromatic number by DSATUR branch and bound.

    `lower` seeds the lower bound (a greedy clique tightens it) and the
    DSATUR greedy coloring the upper one.  If the node budget runs out, the
    best coloring found so far is returned with optimal=False.
    """
    if graph.n == 0:
        return ChromaticResult(0, Coloring(()), True, 0)
    lb = max(lower or 1, greedy_clique_lower_bound(graph))
    best = greedy_color(graph).colors
    best_k = max(best)
    if best_k <= lb:
        return ChromaticResult(best_k, Coloring(best), True, 0)

    colors = [0] * graph.n

    def on_leaf(used: int) -> bool:
        nonlocal best, best_k
        if used < best_k:
            best, best_k = tuple(colors), used
        return best_k <= lb

    # Only colorings better than best_k are worth extending.
    nodes, exhausted = _dsatur_search(
        graph, colors, lambda used, _: range(1, min(used + 1, best_k - 1) + 1), on_leaf, node_budget
    )
    return ChromaticResult(best_k, Coloring(best), not exhausted, nodes)


def extend_coloring(
    graph: RemovalGraph,
    partial: dict[int, int],
    k: int,
    node_budget: int = DEFAULT_BUDGET,
) -> Coloring | None:
    """Extend a partial coloring to all vertices with colors 1..k.

    Returns the extension, or None when the search space is exhausted
    (proof of infeasibility).  Raises on an improper or out-of-range
    partial, and SearchBudgetExceeded if the budget ends the search early.
    """
    colors = [0] * graph.n
    for v, c in partial.items():
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
        if not 1 <= c <= k:
            raise ValueError(f"color {c} outside 1..{k}")
        colors[v] = c
    for u, v in graph.edges():
        if colors[u] and colors[u] == colors[v]:
            raise ValueError(f"partial coloring is improper on edge ({u}, {v})")

    nodes, _ = _dsatur_search(
        graph, colors, lambda *_: range(1, k + 1), lambda _: True, node_budget
    )
    if nodes > node_budget:
        raise SearchBudgetExceeded(f"extension budget {node_budget} exhausted")
    return Coloring(tuple(colors)) if all(colors) else None
