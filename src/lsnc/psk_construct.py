"""Closed-form M-symbol Latin Squares for every M-PSK representative.

Each representative fade state (k, l) classifies into one of six cases by
the 2-adic structure of k and l.  `removal_square` builds the square on one
working grid, whose row and column symbol masks answer each write's checks
in O(1), starting from the vital subgraph's fixed 4- or 8-coloring written
block by block.  BothOdd and SamePower fill the empty diagonals with fresh
symbols.  The other cases top up one (Sin) or two (DiffPower, Mixed) cells
per row, each with the one symbol of 1..4, or 5..8 for the second cell of
a pair, that its row and column lack, then take the paper's SDR + Latin
rectangle route without its symbol/row interchanges.  Only the finished
square becomes a `Grid`: 240 in an M = 32 sweep (cProfile).  The case is
dispatched once, so the steps do not re-check it.  Every step checks the
claims the construction relies on and raises CompletionError when one fails.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from lsnc.coloring import Coloring
from lsnc.constraint import (
    ConstraintPartition,
    _psk_blocks,
    build_constraints,
    psk_column_offsets,
    psk_constraints_closed_form,
)
from lsnc.errors import CompletionError
from lsnc.fade_state import check_closed_form, check_construction_order, psk_representatives
from lsnc.latin import Grid, extend_symbols, find_sdr, verify_latin, verify_removes
# Not called here: perfbench looks these names up on this module to trace them.
from lsnc.latin import candidate_cells, complete_rows_hall, interchange_symbol_row  # noqa: F401
from lsnc.signal_set import make_psk

__all__ = [
    "PskCase",
    "classify",
    "vital_coloring",
    "vital_pfls",
    "removal_square",
    "remove_all_psk",
]

BOTH_ODD = "BothOdd"
SAME_POWER = "SamePower"
DIFF_POWER = "DiffPower"
MIXED = "Mixed"
SIN_ODD = "SinOdd"
SIN_EVEN = "SinEven"


def _val2(n: int) -> int:
    """2-adic valuation."""
    return (n & -n).bit_length() - 1


@dataclass(frozen=True)
class PskCase:
    """Construction plan for one representative.

    The square is built for parameters (bk, bl); when `transposed` is set
    that is the swapped pair and the finished square must be transposed to
    remove the original (k, l) state, then column-rotated by `rotate` when k
    and l have opposite parity (the swap keeps the e^{j*pi/M} phase).
    """

    m: int
    k: int
    l: int
    tag: str
    bk: int
    bl: int

    @property
    def transposed(self) -> bool:
        return (self.bk, self.bl) != (self.k, self.l)

    @property
    def rotate(self) -> int:
        return (self.k - self.l) % 2 if self.transposed else 0


def classify(m: int, k: int, l: int) -> PskCase:
    """Pick the construction case for the (k, l) representative of M-PSK."""
    check_closed_form(m, k, l)
    half = m // 2
    if l == half:
        return PskCase(m, k, l, SIN_ODD if k % 2 else SIN_EVEN, bk=k, bl=l)
    if k == half:
        # 1/sin form: build the sin form for (l, M/2) and transpose.
        return PskCase(m, k, l, SIN_ODD if l % 2 else SIN_EVEN, bk=l, bl=k)
    if k % 2 and l % 2:
        return PskCase(m, k, l, BOTH_ODD, bk=k, bl=l)
    if k % 2 != l % 2:
        if k % 2:
            return PskCase(m, k, l, MIXED, bk=k, bl=l)
        # The mixed-parity completion assumes the odd parameter comes first;
        # build the swapped square and transpose.
        return PskCase(m, k, l, MIXED, bk=l, bl=k)
    m1, m2 = _val2(k), _val2(l)
    if m1 == m2:
        return PskCase(m, k, l, SAME_POWER, bk=k, bl=l)
    if m1 < m2:
        return PskCase(m, k, l, DIFF_POWER, bk=k, bl=l)
    return PskCase(m, k, l, DIFF_POWER, bk=l, bl=k)


def vital_coloring(case: PskCase) -> Coloring:
    """The fixed coloring of the vital subgraph for (bk, bl): four colors
    for BothOdd/SamePower and the single-family Sin cases, eight for
    DiffPower/Mixed.  `vital_pfls` checks it on the grid it fills."""
    m, k, l = case.m, case.bk, case.bl
    tag = case.tag

    def four_block_color(v: int, blk: int, upper_split: int | None) -> int:
        # v is 0-indexed within a family; blocks of width 2^blk alternate
        # two colors, optionally re-split into a lower and an upper half.
        i = v // (1 << blk) + 1
        c = 1 if i % 2 else 2
        if upper_split is not None and i > upper_split:
            c += 2
        return c

    if tag in (SIN_ODD, SIN_EVEN):
        blk = 0 if tag == SIN_ODD else _val2(k)
        split = (m >> blk) // 2
        colors = [four_block_color(v, blk, split) for v in range(m)]
    elif tag in (BOTH_ODD, SAME_POWER):
        blk = _val2(k)  # 0 when both odd; equal valuations otherwise
        part = [four_block_color(v, blk, None) for v in range(m)]
        colors = part + [c + 2 for c in part]
    elif tag == MIXED:
        mv = _val2(k if k % 2 == 0 else l)
        part = []
        for v in range(m):
            i = v // (1 << mv) + 1
            c = (1 if i % 2 else 2) if (v + 1) % 2 else (3 if i % 2 else 4)
            part.append(c)
        colors = part + [c + 4 for c in part]
    elif tag == DIFF_POWER:
        m1, m2 = _val2(k), _val2(l)
        part = []
        for v in range(m):
            off = v % (1 << (m2 + 1))
            i = off // (1 << m1) + 1
            c = (1 if i % 2 else 2) + (2 if i > (1 << (m2 - m1)) else 0)
            part.append(c)
        colors = part + [c + 4 for c in part]
    else:  # pragma: no cover - classify only emits the tags above
        raise ValueError(f"unknown case tag {tag}")
    return Coloring(tuple(colors))


def vital_pfls(case: PskCase) -> tuple[Grid, ConstraintPartition, Coloring]:
    """Partial grid with every closed-form constraint filled by its color
    (`_vital_fill`), its partition and the coloring."""
    part = psk_constraints_closed_form(case.m, case.bk, case.bl)
    coloring = vital_coloring(case)
    return Grid.from_lists(_vital_fill(case.m, part.blocks, coloring.colors)[0]), part, coloring


# A working grid: rows, and a symbol bitmask per row and per column with bit s
# set while s is in the line (bit 0 is never set).
Working = tuple[list[list[int]], list[int], list[int]]


def _vital_fill(m: int, blocks: Sequence[Sequence[tuple[int, int]]], colors: Sequence[int]) -> Working:
    """An empty M x M working grid with every cell of block i written in
    colors[i].  Each write checks its cell and lines, so two blocks sharing
    a cell, or a color met twice in a line, raise CompletionError: a Latin
    fill is a proper coloring that also rejects a block meeting one line
    twice."""
    work = [[0] * m for _ in range(m)], [0] * m, [0] * m
    for block, color in zip(blocks, colors, strict=True):
        for r, c in block:
            _fill_cell(work, r, c, color)
    return work


def _fill_cell(work: Working, r: int, c: int, sym: int) -> None:
    rows, row_syms, col_syms = work
    if rows[r - 1][c - 1]:
        raise CompletionError(f"fill target {(r, c)} is not empty")
    bit = 1 << sym
    if (row_syms[r - 1] | col_syms[c - 1]) & bit:
        raise CompletionError(f"symbol {sym} conflicts at {(r, c)}")
    rows[r - 1][c - 1] = sym
    row_syms[r - 1] |= bit
    col_syms[c - 1] |= bit


def _diagonal_complete(rows: list[list[int]]) -> None:
    """Fill the M-4 empty wrap-around diagonals of a 4-symbol partial grid
    with fresh symbols, in place, and check the finished square.

    The empty cells must be invariant under the shift (r, c) -> (r+1, c+1):
    the diagonal through (1, c) is filled with one new symbol.  Anything else
    raises CompletionError.
    """
    m = len(rows)
    if {v for row in rows for v in row} - set(range(5)):
        raise CompletionError("diagonal completion expects symbols 1..4")
    for r, row in enumerate(rows, 1):
        if m - row.count(0) != 4:
            raise CompletionError(f"row {r} does not have exactly 4 filled cells")
    empty_cols = [c for c, v in enumerate(rows[0]) if not v]
    for sym, c in enumerate(empty_cols, 5):
        for r, row in enumerate(rows):
            cc = (c + r) % m
            if row[cc]:
                raise CompletionError(
                    f"empty cells are not diagonal-shift invariant at {(r + 1, cc + 1)}"
                )
            row[cc] = sym
    full = set(range(1, m + 1))
    if any(set(line) != full for line in chain(rows, zip(*rows))):
        raise CompletionError("diagonal completion produced an invalid square")


def _rectangle_complete(work: Working, n_rect: int) -> None:
    """Finish symbols 1..n_rect via an SDR, then extend the working grid to
    a Latin Square in place (`extend_symbols`).

    Cell (r, c) of the paper's symbol/row-interchanged rectangle holds j
    exactly when working cell (j, c) holds r, so the SDR family is read off
    the working grid's masks and each rectangle fill is written there.
    """
    rows, row_syms, col_syms = work
    family: list[list[tuple[int, int]]] = []
    fill_syms: list[int] = []
    for j, (row, have) in enumerate(zip(rows, row_syms), 1):
        empty = [c for c, v in enumerate(row, 1) if not v]
        for r in range(1, n_rect + 1):
            if have >> r & 1:
                continue
            cells = [(r, c) for c in empty if not col_syms[c - 1] >> r & 1]
            if not cells:
                raise CompletionError(
                    f"symbol {j} has no admissible cell in a row that lacks it"
                )
            family.append(cells)
            fill_syms.append(j)
    sdr = find_sdr(family)
    if not sdr.ok:
        raise CompletionError(f"no SDR; Hall violator {sdr.violating}")
    for (r, c), j in zip(sdr.representatives, fill_syms):
        # Rectangle cell (r, c) is filled while column c holds r; rectangle
        # row r holds j while row j holds r, and column c while (j, c) is filled.
        if col_syms[c - 1] >> r & 1:
            raise CompletionError(f"fill target {(r, c)} is not empty")
        if row_syms[j - 1] >> r & 1 or rows[j - 1][c - 1]:
            raise CompletionError(f"symbol {j} conflicts at {(r, c)}")
        _fill_cell(work, j, c, r)
    extend_symbols(rows, n_rect)


def _top_up(work: Working, case: PskCase) -> int:
    """Fill the closed-form top-up cells of a Sin, DiffPower or Mixed
    partial grid in place and return the rectangle height, 4 or 8.

    Appendix A tops up one cell per row of a Sin grid (M constraints, 4
    symbols), Appendix B two per row of a DiffPower/Mixed grid (2M
    constraints, 8 symbols).  Each cell takes the one symbol of 1..4, or of
    5..8 for the second cell of a pair, that its row and column lack.
    """
    m, k = case.m, case.bk
    _, row_syms, col_syms = work
    if case.tag in (SIN_ODD, SIN_EVEN):
        d = m // 4 + ((k - 1) // 2 if k % 2 else k // 2 - (1 << _val2(k)))
        cells = [(i + 1, (i - d) % m + 1, range(1, 5)) for i in range(m)]
    else:
        d1, d2 = psk_column_offsets(k, case.bl)
        cells = [(i + 1, (i - d1) % m + 1, range(1, 5)) for i in range(m)]
        cells += [(i + 1, (i + m // 2 - d2) % m + 1, range(5, 9)) for i in range(m)]
    for r, c, syms in cells:
        present = row_syms[r - 1] | col_syms[c - 1]
        absent = [s for s in syms if not present >> s & 1]
        if len(absent) != 1:
            raise CompletionError(
                f"cell {(r, c)} admits {len(absent)} symbols of {syms}, expected 1"
            )
        _fill_cell(work, r, c, absent[0])
    return syms.stop - 1  # the largest symbol placed


def removal_square(m: int, k: int, l: int) -> Grid:
    """M-symbol Latin Square removing the (k, l) representative of M-PSK."""
    case = classify(m, k, l)
    work = _vital_fill(m, _psk_blocks(m, case.bk, case.bl), vital_coloring(case).colors)
    rows = work[0]
    if case.tag in (BOTH_ODD, SAME_POWER):
        _diagonal_complete(rows)
    else:
        _rectangle_complete(work, _top_up(work, case))
    if case.transposed:
        rows = list(zip(*rows))
    if case.rotate:
        rows = [row[case.rotate:] + row[:case.rotate] for row in rows]
    return Grid.from_lists(rows)


def remove_all_psk(m: int) -> dict[tuple[int, int], Grid]:
    """Certified M-symbol removal squares for every representative of M-PSK,
    keyed by (k, l) in `psk_representatives` order.

    Row 1 of each state's brute-force label grid must hold M distinct
    blocks, pairwise adjacent by that shared row, so chi >= M; the square
    is then checked against the partition (complete, Latin, M symbols,
    removing it), so chi = M is certified.  A failure raises
    CompletionError naming (k, l).
    """
    check_construction_order(m)
    s_set = make_psk(m)
    out: dict[tuple[int, int], Grid] = {}
    for fs in psk_representatives(m):
        k, l = fs.k, fs.l
        square = removal_square(m, k, l)
        partition = build_constraints(s_set, fs)
        row1 = partition.labels[:m]
        if -1 in row1 or len(set(row1)) != m:
            raise CompletionError(f"({k},{l}): row 1 does not meet {m} blocks")
        if not (square.is_complete() and verify_latin(square)):
            raise CompletionError(f"({k},{l}): constructed grid is not Latin")
        if square.symbol_count != m:
            raise CompletionError(f"({k},{l}): {square.symbol_count} symbols, expected {m}")
        if not verify_removes(square, partition):
            raise CompletionError(f"({k},{l}): square does not remove the state")
        out[(k, l)] = square
    return out
