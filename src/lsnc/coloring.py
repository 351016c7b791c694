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
from typing import Callable, Iterable, Sequence

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
    return _first_conflict(graph, cols) is None


def _first_conflict(graph: RemovalGraph, colors: Sequence[int]) -> tuple[int, int] | None:
    """The first edge (u, v), u < v in row-major order, whose ends share a
    nonzero color, or None.  Each colored vertex's adjacency mask is tested
    against the mask of the vertices of its color."""
    members: dict[int, int] = {}
    for v, c in enumerate(colors):
        if c:
            members[c] = members.get(c, 0) | 1 << v
    for u, c in enumerate(colors):
        if c:
            later = graph.adj[u] & members[c] & -(2 << u)  # neighbors above u
            if later:
                return u, (later & -later).bit_length() - 1
    return None


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

    The vertex entered is the uncolored one with the most distinct neighbor
    colors (its saturation), then the highest degree, then the lowest index.
    It is found without scanning the uncolored vertices.  The vertices are
    numbered once by (degree descending, index ascending), and level[s] is a
    bitmask, in that numbering, of the uncolored vertices of saturation s,
    so the vertex entered is the lowest set bit of the highest nonempty
    level.  Coloring a vertex moves each uncolored neighbor that gains a
    color up one level, and undoing the color moves the same neighbors back
    down, so a step costs O(degree) rather than O(n).
    """
    nbrs = graph.neighbor_lists
    by_rank = sorted(range(graph.n), key=lambda v: (-len(nbrs[v]), v))
    rank_bit = [0] * graph.n
    for r, v in enumerate(by_rank):
        rank_bit[v] = 1 << r
    seen = [0] * graph.n  # bit c set: a colored neighbor has color c
    uses: Counter = Counter()
    for v, c in enumerate(colors):
        if c:
            uses[c] += 1
            for u in nbrs[v]:
                seen[u] |= 1 << c
    sat = [mask.bit_count() for mask in seen]  # saturation of each vertex
    # Saturation is at most the degree, and `top` may run one level above
    # the highest nonempty one.
    level = [0] * (max(map(len, nbrs), default=0) + 2)
    free = 0  # number of uncolored vertices not on the stack
    for v, c in enumerate(colors):
        if not c:
            level[sat[v]] |= rank_bit[v]
            free += 1
    top = len(level) - 1  # no nonempty level lies above it
    # An explicit stack, so depth is not bounded by the recursion limit.  One
    # frame per vertex the search has colored, deepest last: [vertex, colors
    # left to try, `used` before it, uncolored neighbors its color raised].
    # A colored vertex's `seen` and saturation stay as they were when it was
    # entered, since no vertex entered later changes them.
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
            while not level[top]:
                top -= 1
            low = level[top] & -level[top]
            level[top] ^= low
            free -= 1
            stack.append([by_rank[low.bit_length() - 1], iter(order(used, uses)), used, ()])
        # Move to the next untried color of the deepest vertex that has one.
        while stack:
            frame = stack[-1]
            v, todo, used, raised = frame
            if colors[v]:
                uses[colors[v]] -= 1
                bit = 1 << colors[v]
                colors[v] = 0
                for u in raised:
                    seen[u] ^= bit
                    s = sat[u]
                    sat[u] = s - 1
                    level[s] ^= rank_bit[u]
                    level[s - 1] |= rank_bit[u]
            c = next((c for c in todo if not seen[v] & 1 << c), 0)
            if c:
                break
            stack.pop()
            level[sat[v]] |= rank_bit[v]
            free += 1
        else:
            return nodes, False
        nodes += 1
        colors[v] = c
        uses[c] += 1
        bit = 1 << c
        frame[3] = raised = [u for u in nbrs[v] if not (colors[u] or seen[u] & bit)]
        for u in raised:
            seen[u] |= bit
            s = sat[u]
            sat[u] = s + 1
            level[s] ^= rank_bit[u]
            level[s + 1] |= rank_bit[u]
        # v was entered from the highest nonempty level, sat[v]; a coloring
        # step raises a saturation by at most one.
        top = sat[v] + 1
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

    `lower` seeds the lower bound, and the largest line of the graph and a
    greedy clique tighten it; the DSATUR greedy coloring seeds the upper
    one.  If the node budget runs out, the best coloring found so far is
    returned with optimal=False.
    """
    if graph.n == 0:
        return ChromaticResult(0, Coloring(()), True, 0)
    widest = max((len(set(line)) for line in graph.lines), default=0)
    lb = max(lower or 1, widest, greedy_clique_lower_bound(graph))
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
    conflict = _first_conflict(graph, colors)
    if conflict:
        raise ValueError(f"partial coloring is improper on edge {conflict}")

    nodes, _ = _dsatur_search(
        graph, colors, lambda *_: range(1, k + 1), lambda _: True, node_budget
    )
    if nodes > node_budget:
        raise SearchBudgetExceeded(f"extension budget {node_budget} exhausted")
    return Coloring(tuple(colors)) if all(colors) else None
