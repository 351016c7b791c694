"""Partial Latin grids: verification, transforms, and matchings.

A grid is an M x M array over symbols 1..t with 0 marking empty cells.
Rows of a Latin (partial) grid never repeat a symbol, nor do columns; a
grid "removes" a fade state when every multi-cell constraint block of that
state's partition is filled with a single common symbol.  Grids complete
here by matchings; completion by search is coloring extension on the rook
graph, `lsnc.coloring.generic_complete`.

`extend_symbols`, one matching per symbol, completes a square whose
vital blocks are filled: `lsnc.psk_construct` runs it on the plain rows
of its closed-form vital fill, and `lsnc.coloring.exact_chromatic` on
the label grid of a removal graph whose vital blocks the search kernel
has colored.  `complete_rows_hall` runs it between two interchanges.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import not_
from typing import TYPE_CHECKING, Hashable, Sequence

from lsnc.errors import CompletionError

if TYPE_CHECKING:
    from lsnc.constraint import ConstraintPartition
    from lsnc.coloring import Coloring

__all__ = [
    "Grid",
    "SdrResult",
    "from_coloring",
    "verify_latin",
    "verify_removes",
    "interchange_symbol_row",
    "complete_rows_hall",
    "find_sdr",
    "transpose",
    "column_rotate",
    "candidate_cells",
]


@dataclass(frozen=True)
class Grid:
    """Immutable M x M grid; 0 is an empty cell, symbols are 1-indexed."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.rows)
        for row in self.rows:
            if len(row) != m:
                raise ValueError("grid must be square")
            for v in row:
                # `type(v) is int` also keeps out bools (JSON true/false)
                if type(v) is not int or v < 0:
                    raise ValueError(f"bad cell value {v!r}")

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[int]]) -> Grid:
        return cls(tuple(map(tuple, rows)))

    @property
    def m(self) -> int:
        return len(self.rows)

    def symbols(self) -> set[int]:
        return {v for row in self.rows for v in row if v}

    @property
    def symbol_count(self) -> int:
        return len(self.symbols())

    def is_complete(self) -> bool:
        return all(all(row) for row in self.rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]


def verify_latin(grid: Grid) -> bool:
    """Row/column exclusion among filled cells; empty grids pass."""
    for line in chain(grid.rows, zip(*grid.rows)):
        seen = set(line)
        if len(seen) - (0 in seen) != len(line) - line.count(0):
            return False
    return True


def verify_removes(grid: Grid, partition: ConstraintPartition) -> bool:
    """True when every multi-cell block is filled with one common symbol."""
    if grid.m != partition.m:
        return False
    rows = grid.rows
    for block in partition.multi_blocks():
        sym = rows[block[0][0] - 1][block[0][1] - 1]
        for r, c in block:
            if not sym or rows[r - 1][c - 1] != sym:
                return False
    return True


def from_coloring(partition: ConstraintPartition, coloring: Coloring) -> Grid:
    """Latin Square with block i filled by coloring color of vertex i.

    The coloring must cover every block of the partition; an improper
    coloring surfaces as a row/column violation.
    """
    if len(coloring.colors) != len(partition.blocks):
        raise ValueError(
            f"coloring covers {len(coloring.colors)} vertices, "
            f"partition has {len(partition.blocks)} blocks"
        )
    grid = partition.fill(coloring.colors)
    if not grid.is_complete() or not verify_latin(grid):
        raise ValueError("coloring is not a proper coloring of the removal graph")
    return grid


def transpose(grid: Grid) -> Grid:
    """Swap rows and columns; a removal map for s becomes one for 1/s."""
    return Grid(tuple(zip(*grid.rows)))


def column_rotate(grid: Grid, steps: int) -> Grid:
    """Cyclic column relabel: output column c shows input column c+steps.

    For M-PSK this turns a removal map for s into one for s*e^{j*2pi*steps/M}.
    """
    s = steps % (grid.m or 1)
    return Grid(tuple(row[s:] + row[:s] for row in grid.rows))


def interchange_symbol_row(grid: Grid) -> Grid:
    """Exchange the roles of symbol and row: output (s, c) = r iff input (r, c) = s.

    Requires each symbol to appear at most once per column (true for any
    Latin grid with symbols <= M), and is an involution on complete Latin
    Squares.
    """
    return Grid.from_lists(interchange_rows(grid.rows))


def interchange_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """`interchange_symbol_row` on plain rows, into new lists."""
    m = len(rows)
    out = [[0] * m for _ in range(m)]
    for r, row in enumerate(rows, 1):
        for c, s in enumerate(row):
            if not s:
                continue
            if s > m:
                raise ValueError(f"symbol {s} exceeds grid order {m}")
            if out[s - 1][c]:
                raise ValueError(f"symbol {s} repeats in column {c + 1}")
            out[s - 1][c] = r
    return out


def candidate_cells(grid: Grid, symbol: int) -> list[tuple[int, int]]:
    """Empty cells whose row and column are both free of `symbol`."""
    free_cols = [c for c, col in enumerate(zip(*grid.rows)) if symbol not in col]
    return [
        (r, c + 1)
        for r, row in enumerate(grid.rows, 1)
        if symbol not in row
        for c in free_cols
        if not row[c]
    ]


def _kuhn(nbrs: Sequence[int], n_right: int) -> list[int]:
    """Maximum bipartite matching by Kuhn's augmenting paths.

    Left vertex u may take right vertex v when bit v of nbrs[u] is set.
    A greedy pass seeds the matching: in index order, u takes the lowest
    free right vertex numbered u or above, else the lowest free one.  Then
    an augmenting-path search runs from each left vertex the pass left
    unmatched, in index order, trying the lowest unvisited right vertex
    first.  Augmenting from any start reaches a maximum matching (Berge),
    and the matching is a fixed function of the adjacency.  Returns, per
    right vertex, its left vertex or -1.
    """
    match = [-1] * n_right
    taken = 0
    roots: list[int] = []  # left vertices the seed leaves unmatched
    for u, nb in enumerate(nbrs):
        cand = nb & ~taken
        if not cand:
            roots.append(u)
            continue
        # On a cyclic rectangle (column c holds c, c+1, ..., c+r-1 mod M)
        # this gives every column c + r mod M at once.  On the PSK vital
        # grids `extend_symbols` finishes it leaves about 2.7 left vertices
        # a matching to augment at M = 32 and 64; taking the lowest free
        # vertex alone leaves 6.1 and 10.7, and each square then takes
        # about 2x and 3.5x as long to complete.
        top = cand >> u << u
        if top:
            cand = top
        low = cand & -cand
        taken |= low
        match[low.bit_length() - 1] = u
    for root in roots:
        avail = -1  # right vertices this search has not visited
        path = [root]  # left vertices of the alternating path
        via: list[int] = []  # via[i]: right vertex path[i] takes, matched to path[i+1]
        u = root
        while True:
            free = nbrs[u] & avail
            if free:
                low = free & -free
                avail ^= low
                v = low.bit_length() - 1
                via.append(v)
                owner = match[v]
                if owner < 0:
                    for w, x in zip(path, via):
                        match[x] = w
                    break
                path.append(owner)
                u = owner
            else:
                path.pop()
                if not path:
                    break
                via.pop()
                u = path[-1]
    return match


@dataclass(frozen=True)
class SdrResult:
    """Either a full system of distinct representatives or a Hall violator."""

    representatives: tuple[Hashable, ...] | None
    violating: tuple[int, ...] | None

    @property
    def ok(self) -> bool:
        return self.representatives is not None


def find_sdr(family: Sequence[Sequence[Hashable]]) -> SdrResult:
    """Distinct representatives, one per set, or a subfamily violating
    Hall's condition (indices S with |union of S's sets| < |S|).

    Elements are numbered from 0 by first appearance, and the sets are
    matched by `_kuhn`: set i (from 0) first takes its lowest free element
    numbered i or above, else its lowest free one, and augmenting paths
    finish the matching.  The violator is read off that maximum matching."""
    elements: list[Hashable] = []
    index: dict[Hashable, int] = {}
    nbrs: list[int] = []
    for s in family:
        mask = 0
        for x in s:
            if x not in index:
                index[x] = len(elements)
                elements.append(x)
            mask |= 1 << index[x]
        nbrs.append(mask)
    match = _kuhn(nbrs, len(elements))
    match_l = [-1] * len(family)
    for v, u in enumerate(match):
        if u >= 0:
            match_l[u] = v
    if -1 not in match_l:
        reps = tuple(elements[v] for v in match_l)
        return SdrResult(representatives=reps, violating=None)
    # Alternating BFS from an unmatched set: the reachable sets overflow
    # their combined neighborhood.
    start = match_l.index(-1)
    reach_l = {start}
    reach_r = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            new = nbrs[u] & ~reach_r
            reach_r |= new
            while new:
                low = new & -new
                new ^= low
                w = match[low.bit_length() - 1]
                if w >= 0 and w not in reach_l:
                    reach_l.add(w)
                    nxt.append(w)
        frontier = nxt
    return SdrResult(representatives=None, violating=tuple(sorted(reach_l)))


def complete_rows_hall(grid: Grid) -> Grid:
    """Extend a Latin rectangle (r complete rows, other rows empty) to a
    full Latin Square on symbols 1..M, row by row via perfect matchings:
    `extend_symbols` on the symbol/row interchange, interchanged back.
    Input that is not a Latin rectangle raises ValueError."""
    rows = grid.rows
    m = len(rows)
    r = 0
    full = set(range(1, m + 1))
    while r < m and set(rows[r]) == full:
        r += 1
    for i in range(r, m):
        if any(rows[i]):
            raise ValueError(f"row {i + 1} is neither complete nor empty")
    work = interchange_rows(rows)
    extend_symbols(work)
    return Grid.from_lists(interchange_rows(work))


def extend_symbols(rows: list[list[int]]) -> None:
    """Place every symbol 1..M that a row of `rows` lacks, in place, by one
    `_kuhn` matching per symbol s in increasing order: the columns that
    lack s are matched to their empty cells in the rows that lack s, and a
    matched cell is written.  Column c first takes its lowest such row
    numbered c or above, else its lowest one, and augmenting paths match
    the rest.

    A symbol outside 0..M, a symbol repeated in a row or a column, a symbol
    with no perfect matching and a cell left empty at the end raise
    CompletionError.  On the symbol/row interchange of an r-row Latin
    rectangle every line holds 1..r, so only r+1..M are placed, and every
    matching exists (Hall)."""
    m = len(rows)
    # in_rows[s], in_cols[s]: bit j is set when row (column) j, from 0, holds s
    # before the matchings
    in_rows, in_cols = [0] * (m + 1), [0] * (m + 1)
    cols = list(zip(*rows))
    for name, lines, holds in (("row", rows, in_rows), ("column", cols, in_cols)):
        for j, line in enumerate(lines):
            syms = set(line)
            syms.discard(0)
            for s in syms:
                if not 0 < s <= m:
                    raise CompletionError(f"symbol {s} in {name} {j + 1} is outside 0..{m}")
                holds[s] |= 1 << j
            if len(syms) + line.count(0) != m:
                s = next(s for s in syms if line.count(s) > 1)
                raise CompletionError(f"symbol {s} repeats in {name} {j + 1}")
    # free[c]: bit j is set while row j is empty at column c
    free = [sum(map((1).__lshift__, compress(range(m), map(not_, col)))) for col in cols]
    full = (1 << m) - 1
    for s in range(1, m + 1):
        need = full ^ in_rows[s]  # the rows that lack s
        if not need:
            continue
        held = in_cols[s]
        # A symbol no column holds yet matches on the empty cells as they are.
        nbrs = [0 if held >> c & 1 else f & need for c, f in enumerate(free)] if held else free
        match = _kuhn(nbrs, m)
        if match.count(-1) != m - need.bit_count():
            raise CompletionError(f"symbol {s} has no perfect matching of columns to rows")
        for j, (row, c) in enumerate(zip(rows, match)):
            if c >= 0:
                row[c] = s
                free[c] ^= 1 << j
    # A matching that wrote a filled cell leaves an empty one in its row.
    for r, row in enumerate(rows, 1):
        if 0 in row:
            raise CompletionError(f"cell {(r, row.index(0) + 1)} is still empty")
