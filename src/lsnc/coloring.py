"""Vertex coloring: the chromatic number, extension, and Latin completion.

Proper colorings of a removal graph are exactly the valid symbol
assignments, so the chromatic number is the minimum symbol count of a
Latin Square removing the fade state.  A coloring is certified on the
graph's lines: it is proper when no line repeats a color.

Every search here, Latin completion included, runs one backtracking
kernel.  It colors next the uncolored vertex with the most distinct
neighbor colors, then the highest degree, then the lowest index, and tries
there the colors in use, then the lowest unused one while fewer than k are
in use: unused colors are interchangeable, so the others would only repeat
its subtree.  Greedy DSATUR is the kernel's first full coloring at
k = n, where it never backs up, and an extension its first one at k that
keeps the given colors; completing a partial Latin square is extension on
the rook graph.  The chromatic number is the first k, counting up from a
lower bound, at which the kernel finds a k-coloring: each k below it is
refuted by an exhausted search.

Before the ladder searches, `exact_chromatic` tries to certify chi = k at
its start bound k, the widest line, by the paper's split of a removal
square into its multi-cell blocks and the rest.  On a graph that keeps
the k x k label grid of its partition, as `build_srg` returns it, the
kernel colors the vital vertices (those whose label fills two or more
cells) on their `vital_subgraph`, within as many nodes as there are
vital vertices and never more than the caller's budget.  Their colors
are written into their cells and `latin.extend_symbols`, the one
matching per symbol that completes the 2^n-PSK squares, fills the rest.
A completed square proves chi = k, the widest line being a k-clique; a
vital search that runs to exhaustion proves chi > k, the vital subgraph
being induced, and the ladder starts at k + 1.  Any other failure falls
through to the ladder at k.  The nodes spent are taken from the ladder's
budget, so a "no" still comes only from an exhausted search.

The kernel numbers colors by first use: the given colors in ascending
order, then the colors it opens, handed back in order as the lowest
positive numbers not given.  So its per-color state is sized by the given
colors plus the free vertices, whatever k or the given colors' values.

The kernel's state is bitmasks over the graph's own vertex numbering: the
uncolored vertices, for each color the vertices next to it, and one mask
per bit of the saturation counters, which the number of colors and the
max degree both bound.  Ties in saturation go to the first of the graph's
degree classes they meet, then to the lowest index.  Coloring a vertex
adds one to the newly saturated part of its neighborhood by a ripple carry
through those masks; no step walks a neighbor list.  A forward move is one
straight path: pick the vertex, take the first free color offered, place
it and push an immutable frame.  Only a vertex with no free color backs
up, popping and undoing frames until one has a later color free.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count, islice
from typing import Sequence

from lsnc.errors import CompletionError, SearchBudgetExceeded
from lsnc.latin import Grid, extend_symbols, verify_latin
from lsnc.srg import RemovalGraph, vital_subgraph

__all__ = [
    "Coloring",
    "ChromaticResult",
    "verify_proper",
    "exact_chromatic",
    "extend_coloring",
    "generic_complete",
    "DEFAULT_BUDGET",
]


# Search node budget of every backtracking search unless the caller sets one.
DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Coloring:
    """Total assignment vertex -> color; colors are 1-indexed."""

    colors: tuple[int, ...]

    @property
    def k(self) -> int:
        return max(self.colors, default=0)


@dataclass(frozen=True)
class ChromaticResult:
    """A proper coloring and its color count `chi`.  `lower` is a certified
    lower bound: the bound the search started from, raised by one for each
    k it refuted.  When `optimal`, lower == chi; otherwise the chromatic
    number lies in [lower, chi]."""

    chi: int
    coloring: Coloring
    optimal: bool
    nodes: int
    lower: int


def verify_proper(graph: RemovalGraph, coloring: Coloring) -> bool:
    """Total assignment of colors >= 1, all distinct along every line."""
    cols = coloring.colors
    return len(cols) == graph.n and min(cols, default=1) >= 1 and _first_conflict(graph, cols) is None


def _first_conflict(graph: RemovalGraph, colors: Sequence[int]) -> tuple[int, int] | None:
    """The first edge (u, v), u < v in row-major order, whose ends share a
    nonzero color, or None.  Read off the lines, each a clique of distinct
    vertices: a line whose colors are all distinct holds no such edge, and
    the first one is the least, over every line and color, of the line's
    two lowest vertices of that color."""
    pairs = []
    for line in graph.lines:
        if len(set(map(colors.__getitem__, line))) < len(line):
            lowest: dict[int, int] = {}  # color -> the line's lowest vertex of it
            for v in sorted(line):
                u = lowest.setdefault(colors[v], v)
                if u != v and colors[v]:
                    pairs.append((u, v))
    return min(pairs, default=None)


def _dsatur_search(
    graph: RemovalGraph, colors: list[int], k: int, budget: int
) -> tuple[int, bool]:
    """Color every 0 entry of `colors` by most-constrained-first backtracking.

    The search runs on its own color numbering.  The g distinct given colors,
    in ascending order, are 1..g, and the colors it opens follow in order:
    at each vertex it tries the colors 1..min(used + 1, cap) that are not on
    a neighbor, `used` being the largest placed so far.  So of the unused
    colors, which are interchangeable, only the lowest is tried, and no
    coloring is lost.  `cap` is g + the fewer of the free vertices and
    k - g (k is at least g); at k = n it is g + the free vertices, and the
    search is greedy DSATUR, which never backs up.  Each color tried is one
    node.  The first full coloring ends the search; entering an uncolored
    vertex after more than `budget` nodes also ends it, leaving the partial
    coloring of the path searched; an exhausted search leaves the free
    vertices 0.  On return the colors are numbered back: 1..g to the given
    colors, g + i to the i-th lowest positive number that is not given,
    which is at most k.  Given colors that are already 1..g are searched as
    they are.  Returns (nodes, whether the budget stopped the search).  Two
    adjacent given vertices of one color raise ValueError, naming the first
    such edge, before any node.

    The vertex entered is the uncolored one with the most distinct neighbor
    colors (its saturation), then the highest degree, then the lowest index.
    All state is bitmasks over the vertices, read with `graph.adj`:
    - near[c] holds the vertices with a neighbor colored c, so c is free at
      v iff v's bit is clear in near[c];
    - plane[p] holds bit p of the saturation of every uncolored vertex.  A
      saturation is at most the degree and at most `cap`, so there are
      min(cap, max degree).bit_length() planes.
    Narrowing the uncolored vertices through the planes from the highest,
    keeping those with bit p set if any have it, leaves the most saturated
    ones; a tie among them narrows again to the first degree class that
    meets them, and the vertex entered is the lowest index left.  Coloring
    v with c adds one to R = adj[v] & uncolored & ~near[c] by a carry
    rippling up the planes; undoing it restores near[c] and subtracts one
    from R with a borrow.  No step visits a neighbor on its own, and no
    state grows with k or with the given colors' values.

    A forward move scans the colors offered for the first free one, places
    it and pushes a tuple frame that it never reads back.  A vertex entered
    with no free color is a dead end, and only there does the search back
    up: it pops the deepest frame, undoes its color and carry, and resumes
    that vertex's scan at the colors above the one it had, popping further
    while none is free.  With no given color every vertex starts uncolored
    and the set-up reads no vertex.
    """
    graph_adj, classes = graph.adj, graph.degree_classes
    max_degree = graph_adj[classes[0].bit_length() - 1].bit_count() if classes else 0
    given = sorted(set(colors) - {0})
    g = len(given)
    relabel = g and given[-1] != g
    if relabel:
        number = {c: i for i, c in enumerate(given, 1)}
        colors[:] = [number.get(c, 0) for c in colors]
    free = colors.count(0)
    cap = g + min(free, k - g)
    # offers[used]: the colors tried at a vertex entered with `used` placed.
    offers = [range(1, min(used + 1, cap) + 1) for used in range(cap + 1)]
    near = [0] * (cap + 1)
    plane = [0] * min(cap, max_degree).bit_length()
    uncolored = (1 << graph.n) - 1
    if g:
        for v, c in enumerate(colors):
            if c:
                if near[c] >> v & 1:  # a lower vertex of color c is a neighbor
                    conflict = _first_conflict(graph, colors)
                    raise ValueError(f"partial coloring is improper on edge {conflict}")
                near[c] |= graph_adj[v]
                uncolored ^= 1 << v
        # Each color of the partial coloring adds one to the vertices it is near.
        for carry in near:
            p = 0
            while carry:
                plane[p], carry = plane[p] ^ carry, plane[p] & carry
                p += 1
    # An explicit stack, so depth is not bounded by the recursion limit.  One
    # immutable frame per vertex the search has colored, deepest last:
    # (vertex, its bit, its adjacency, its color, the colors offered there,
    # `used` before it, the vertices its color raised, near[color] before
    # it).  Forward moves only push; a dead end pops.
    stack: list[tuple] = []
    used = g
    nodes = 0
    stopped = False
    while uncolored:
        if nodes > budget:
            stopped = True
            break
        cand = uncolored
        for b in reversed(plane):
            b &= cand
            if b:
                cand = b
        if cand & (cand - 1):
            for b in classes:
                if b & cand:
                    cand &= b
                    break
        vbit = cand & -cand
        offer = offers[used]
        for c in offer:
            if not near[c] & vbit:
                v = vbit.bit_length() - 1
                adj = graph_adj[v]
                break
        else:  # a dead end: back up to the deepest vertex with a color left
            while stack:
                v, vbit, adj, c, offer, used, raised, old = stack.pop()
                colors[v] = 0
                near[c] = old
                uncolored |= vbit
                p = 0
                while raised:  # subtract one, borrowing where a bit was 0
                    plane[p], raised = plane[p] ^ raised, raised & ~plane[p]
                    p += 1
                for c in offer[c:]:  # offer[i] is i + 1: the colors above c
                    if not near[c] & vbit:
                        break
                else:
                    continue
                break
            else:
                break  # exhausted
        nodes += 1
        colors[v] = c
        uncolored ^= vbit
        old = near[c]
        near[c] = old | adj
        raised = adj & uncolored & ~old
        stack.append((v, vbit, adj, c, offer, used, raised, old))
        p = 0
        while raised:  # add one, carrying where a bit was 1
            plane[p], raised = plane[p] ^ raised, plane[p] & raised
            p += 1
        if c > used:
            used = c
    if relabel:
        fresh = (c for c in count(1) if c not in number)
        back = [0, *given, *islice(fresh, max(colors) - g)]
        colors[:] = [back[c] for c in colors]
    return nodes, stopped


def _grid_coloring(graph: RemovalGraph, k: int, budget: int) -> tuple[list[int] | None, int, int]:
    """A k-coloring of a graph built on a k x k label grid, by coloring its
    vital vertices and completing the square, or None; the nodes spent;
    and the lower bound the attempt certifies, k, or k + 1 when it refutes k.

    The kernel colors the `vital_subgraph`, the vertices whose label fills
    two or more cells of `graph.labels`, at k within min(budget, their
    number) nodes, their colors are written into their cells, and
    `latin.extend_symbols` completes the square; each vertex takes the
    symbol of its cells, a proper coloring since the square is Latin.
    None when the graph has no k x k label grid, the budget stops the
    vital coloring, no k-coloring of it exists or a symbol has no perfect
    matching.  Only an exhausted vital search refutes k: a k-coloring of
    the graph would color its induced vital subgraph too.
    """
    labels = graph.labels
    if labels is None or len(labels) != k * k:
        return None, 0, k
    vital = vital_subgraph(graph)
    sub_colors = [0] * vital.n
    nodes, stopped = _dsatur_search(vital, sub_colors, k, min(budget, vital.n))
    if not all(sub_colors):
        return None, nodes, k if stopped else k + 1
    color_of = dict(zip(vital.vertex_block, sub_colors))  # vertex i is block i
    flat = [color_of.get(v, 0) for v in labels]
    rows = [flat[i:i + k] for i in range(0, k * k, k)]
    try:
        extend_symbols(rows)
    except CompletionError:
        return None, nodes, k
    symbol_of = dict(zip(labels, chain.from_iterable(rows)))  # vertex -> its cells' symbol
    return [symbol_of[v] for v in range(graph.n)], nodes, k


def exact_chromatic(
    graph: RemovalGraph,
    lower: int | None = None,
    node_budget: int = DEFAULT_BUDGET,
) -> ChromaticResult:
    """Chromatic number: a vital coloring completed by matchings, then
    ascending k-colorability decisions.

    The start bound k is the widest line of the graph, a clique.  First,
    on a graph that keeps a k x k label grid (as `build_srg` builds it),
    the kernel colors the vital vertices at k within the fewer of
    `node_budget` and their number of nodes, and one matching per symbol
    completes the square; a result certifies chi = k, and a vital search
    that runs to exhaustion refutes k.  Otherwise, for k, k + 1, ... from
    the bound reached, the kernel searches the whole graph for a
    k-coloring.  The first k with a coloring is the chromatic number, every
    smaller k having been refuted by an exhausted search.  The first step
    and every decision share `node_budget`; if it runs out, the partial
    coloring of the current decision is filled by greedy DSATUR, which is
    optimal only if it needs no more than k colors.

    `lower`, a bound the caller claims, is only checked: a coloring with
    fewer than `lower` colors raises ValueError.
    """
    if graph.n == 0:
        return ChromaticResult(0, Coloring(()), True, 0, 0)
    widest = max(map(len, graph.lines), default=0)
    colors, nodes, k = _grid_coloring(graph, max(1, widest), node_budget)
    while colors is None:
        colors = [0] * graph.n
        spent, stopped = _dsatur_search(graph, colors, k, node_budget - nodes)
        nodes += spent
        if stopped:  # greedy DSATUR from the proper partial coloring
            _dsatur_search(graph, colors, graph.n, graph.n)
        elif not all(colors):
            colors = None
            k += 1  # exhausted: no k-coloring
    chi = max(colors)
    if lower and chi < lower:
        raise ValueError(f"lower={lower} is not a lower bound: the graph has a {chi}-coloring")
    return ChromaticResult(chi, Coloring(tuple(colors)), chi == k, nodes, k)


def extend_coloring(
    graph: RemovalGraph,
    partial: dict[int, int],
    k: int,
    node_budget: int = DEFAULT_BUDGET,
) -> Coloring | None:
    """Extend a partial coloring to all vertices with colors 1..k.

    Returns the extension, or None when the search space is exhausted
    (proof of infeasibility).  Raises ValueError on an out-of-range
    partial or a negative k, and on an improper partial, which the kernel's
    set-up finds before any node; SearchBudgetExceeded, saying how far the
    search got, if the budget ends the search early.  A free vertex takes a given color or one
    of the lowest colors that are not given, which the kernel opens in
    ascending order, so k beyond the given colors plus the free vertices
    changes nothing and allocates nothing.
    """
    colors = [0] * graph.n
    for v, c in partial.items():
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} out of range")
        if not 1 <= c <= k:
            raise ValueError(f"color {c} outside 1..{k}")
        colors[v] = c
    if k < 0:
        raise ValueError(f"k = {k} is negative")

    free = colors.count(0)
    nodes, stopped = _dsatur_search(graph, colors, k, node_budget)
    if stopped:
        colored = free - colors.count(0)
        raise SearchBudgetExceeded(
            f"extension budget {node_budget} exhausted after {nodes} nodes with "
            f"{colored} of {free} free vertices colored",
            nodes=nodes,
            colored=colored,
            free=free,
        )
    return Coloring(tuple(colors)) if all(colors) else None


@lru_cache(maxsize=8)
def _rook_graph(m: int) -> RemovalGraph:
    """The graph completion colors, vertex r*m + c being cell (r, c) and its
    lines the rows and the columns; kept with its degree classes."""
    return RemovalGraph.from_lines(
        m * m,
        [tuple(range(r * m, (r + 1) * m)) for r in range(m)]
        + [tuple(range(c, m * m, m)) for c in range(m)],
    )


def generic_complete(
    grid: Grid, max_symbols: int, node_budget: int = DEFAULT_BUDGET
) -> Grid | None:
    """Backtracking completion of a partial Latin grid with symbols
    1..max_symbols.

    Completion is coloring extension on the rook graph: cell (r, c) is
    vertex r*M + c and a symbol is a color, so this is `extend_coloring`
    with k = max_symbols.  Each empty cell is offered the symbols in use,
    then the lowest one that is not, so a new symbol is opened only at a
    cell where every symbol in use is blocked.  Returns the completed grid,
    or None when completion is impossible.  Raises ValueError on a symbol
    outside 1..max_symbols or a grid that is not Latin, and
    SearchBudgetExceeded, saying how far the search got, when the node
    budget runs out undecided.
    """
    m = grid.m
    cells = [v for row in grid.rows for v in row]
    if max(cells, default=0) > max_symbols:
        raise ValueError(f"symbol {max(cells)} outside 1..{max_symbols}")
    if not verify_latin(grid):
        raise ValueError("input grid violates row/column exclusion")
    if max_symbols < m:
        return None  # a complete M x M Latin grid needs at least M symbols
    given = {v: s for v, s in enumerate(cells) if s}
    done = extend_coloring(_rook_graph(m), given, max_symbols, node_budget)
    if done is None:
        return None
    return Grid.from_lists([done.colors[r * m:(r + 1) * m] for r in range(m)])
