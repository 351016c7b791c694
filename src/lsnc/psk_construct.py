"""Closed-form M-symbol Latin Squares for every M-PSK representative.

Each representative fade state (k, l) classifies into one of six cases by
the 2-adic structure of k and l.  The vital subgraph gets a fixed 4- or
8-coloring, the resulting partial grid is topped up with one or two
closed-form cells per row, and the rest is completed either along empty
diagonals or through the symbol/row interchange + SDR + Latin-rectangle
route.  Runtime asserts back every "cannot happen" claim the construction
relies on.
"""
from __future__ import annotations

from dataclasses import dataclass

from lsnc.coloring import Coloring, verify_proper
from lsnc.constraint import ConstraintPartition, build_constraints, psk_constraints_closed_form
from lsnc.errors import CertificateMismatchError, CompletionError, PatternMismatchError
from lsnc.fade_state import check_closed_form, psk_representative
from lsnc.latin import (
    Grid,
    candidate_cells,
    column_rotate,
    complete_rows_hall,
    find_sdr,
    interchange_symbol_row,
    transpose,
    verify_latin,
    verify_removes,
)
from lsnc.signal_set import make_psk
from lsnc.srg import psk_vital_adjacency

__all__ = [
    "PskCase",
    "classify",
    "vital_coloring",
    "vital_pfls",
    "diagonal_complete",
    "appendix_a_complete",
    "appendix_b_complete",
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
    """The fixed proper coloring of the vital subgraph for (bk, bl).

    Four colors for BothOdd/SamePower and the single-family Sin cases,
    eight for DiffPower/Mixed.  Properness against the closed-form
    adjacency is checked before returning.
    """
    m, k, l = case.m, case.bk, case.bl
    half = m // 2
    tag = case.tag

    def four_block_color(v: int, blk: int, upper_split: int | None) -> int:
        # v is 0-indexed within a family; blocks of width 2^blk alternate
        # two colors, optionally re-split into a lower and an upper half.
        i = v // (1 << blk) + 1
        c = 1 if i % 2 else 2
        if upper_split is not None and i > upper_split:
            c += 2
        return c

    colors: list[int] = []
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

    coloring = Coloring(tuple(colors))
    if not verify_proper(psk_vital_adjacency(m, k, l), coloring):
        raise CertificateMismatchError(
            f"vital coloring for M={m} (k,l)=({k},{l}) [{tag}] is not proper"
        )
    return coloring


def vital_pfls(case: PskCase) -> tuple[Grid, ConstraintPartition, Coloring]:
    """Partial grid with every closed-form constraint filled by its color."""
    part = psk_constraints_closed_form(case.m, case.bk, case.bl)
    coloring = vital_coloring(case)
    rows = [[0] * case.m for _ in range(case.m)]
    for i, block in enumerate(part.blocks):
        for r, c in block:
            if rows[r - 1][c - 1]:
                raise CompletionError(f"constraint cells overlap at {(r, c)}")
            rows[r - 1][c - 1] = coloring.colors[i]
    grid = Grid.from_lists(rows)
    if not verify_latin(grid):
        raise CompletionError("vital coloring produced a non-Latin partial grid")
    return grid, part, coloring


def diagonal_complete(grid: Grid) -> Grid:
    """Fill the M-4 empty wrap-around diagonals with fresh symbols.

    Works for the 4-symbol partial grids whose empty cells are invariant
    under the shift (r, c) -> (r+1, c+1): the diagonal through (1, c) is
    filled with one new symbol.  Anything else raises PatternMismatchError.
    """
    m = grid.m
    if grid.symbols() - set(range(1, 5)):
        raise PatternMismatchError("diagonal completion expects symbols 1..4")
    for r in range(1, m + 1):
        if sum(1 for c in range(1, m + 1) if grid.at(r, c)) != 4:
            raise PatternMismatchError(f"row {r} does not have exactly 4 filled cells")
    empty_cols = [c for c in range(1, m + 1) if not grid.at(1, c)]
    rows = [list(row) for row in grid.rows]
    for idx, c in enumerate(empty_cols):
        sym = 5 + idx
        for b in range(m):
            r, cc = 1 + b, (c - 1 + b) % m + 1
            if rows[r - 1][cc - 1]:
                raise PatternMismatchError(
                    f"empty cells are not diagonal-shift invariant at {(r, cc)}"
                )
            rows[r - 1][cc - 1] = sym
    out = Grid.from_lists(rows)
    if not out.is_complete() or not verify_latin(out):
        raise CompletionError("diagonal completion produced an invalid square")
    return out


def _fill_cell(rows: list[list[int]], r: int, c: int, sym: int) -> None:
    if rows[r - 1][c - 1]:
        raise CompletionError(f"fill target {(r, c)} is not empty")
    if sym in rows[r - 1] or any(rows[i][c - 1] == sym for i in range(len(rows))):
        raise CompletionError(f"symbol {sym} conflicts at {(r, c)}")
    rows[r - 1][c - 1] = sym


def _rectangle_complete(l1: Grid, n_rect: int) -> Grid:
    """Interchange symbol/row, finish the n_rect-row rectangle via an SDR,
    extend to a Latin Square, and interchange back."""
    m = l1.m
    rect = interchange_symbol_row(l1)
    # Rectangle row r may take symbol j at (r, c) exactly when cell (j, c)
    # of l1 may take symbol r, so only the n_rect rectangle rows are scanned.
    by_sym: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(m + 1)]
    for r in range(1, n_rect + 1):
        for j, c in candidate_cells(l1, r):
            by_sym[j].setdefault(r, []).append((r, c))
    family: list[list[tuple[int, int]]] = []
    fill_syms: list[int] = []
    for j in range(1, m + 1):
        by_row = by_sym[j]
        missing = [r for r in range(1, n_rect + 1) if j not in rect.rows[r - 1]]
        if sorted(by_row) != missing:
            raise CompletionError(
                f"symbol {j} has no admissible cell in a row that lacks it"
            )
        for r in missing:
            family.append(by_row[r])
            fill_syms.append(j)
    sdr = find_sdr(family)
    if not sdr.ok:
        raise CompletionError(f"no SDR; Hall violator {sdr.violating}")
    rows = [list(row) for row in rect.rows]
    for (r, c), j in zip(sdr.representatives, fill_syms):
        _fill_cell(rows, r, c, j)
    filled = Grid.from_lists(rows)
    for r in range(n_rect):
        if 0 in filled.rows[r]:
            raise CompletionError(f"rectangle row {r + 1} still has empty cells")
    full = complete_rows_hall(filled)
    return interchange_symbol_row(full)


def appendix_a_complete(grid: Grid, case: PskCase, coloring: Coloring) -> Grid:
    """Complete a Sin-case partial grid (M constraints, 4 symbols) to an
    M-symbol Latin Square.

    `coloring` is the vital coloring the grid was filled from.  One
    closed-form cell per row is filled with the symbol of the constraint
    half a turn away, then the grid goes through the
    interchange/SDR/rectangle route.
    """
    if case.tag not in (SIN_ODD, SIN_EVEN):
        raise ValueError(f"appendix A handles Sin cases only, got {case.tag}")
    m, k, half = case.m, case.bk, case.m // 2
    rows = [list(row) for row in grid.rows]
    for i in range(m):
        if k % 2:
            col = (i - m // 4 - (k - 1) // 2) % m + 1
        else:
            col = (i - m // 4 - k // 2 + (1 << _val2(k))) % m + 1
        _fill_cell(rows, i + 1, col, coloring.colors[(i + half) % m])
    return _rectangle_complete(Grid.from_lists(rows), 4)


def appendix_b_complete(grid: Grid, case: PskCase) -> Grid:
    """Complete a DiffPower/Mixed partial grid (2M constraints, 8 symbols)
    to an M-symbol Latin Square.

    Two closed-form cells per row are filled: one with the unique symbol of
    {1..4} absent from the cell's row and column, one likewise from {5..8};
    then the interchange/SDR/rectangle route finishes the job.
    """
    if case.tag not in (DIFF_POWER, MIXED):
        raise ValueError(f"appendix B handles DiffPower/Mixed only, got {case.tag}")
    m, k, l, half = case.m, case.bk, case.bl, case.m // 2
    if case.tag == MIXED:
        d1, d2 = (k + 1 - l) // 2, (k + 1 + l) // 2
    else:
        d1, d2 = (k - l) // 2, (k + l) // 2
    rows = [list(row) for row in grid.rows]

    def zeta_fill(r: int, c: int, sym_range: range) -> None:
        present = set(rows[r - 1]) | {rows[i][c - 1] for i in range(m)}
        absent = [s for s in sym_range if s not in present]
        if len(absent) != 1:
            raise CompletionError(
                f"cell {(r, c)} admits {len(absent)} symbols of {sym_range}, expected 1"
            )
        _fill_cell(rows, r, c, absent[0])

    for i in range(m):
        zeta_fill(i + 1, (i - d1) % m + 1, range(1, 5))
    for i in range(m):
        zeta_fill(i + 1, (i + half - d2) % m + 1, range(5, 9))
    return _rectangle_complete(Grid.from_lists(rows), 8)


def removal_square(m: int, k: int, l: int) -> Grid:
    """M-symbol Latin Square removing the (k, l) representative of M-PSK."""
    case = classify(m, k, l)
    pfls, _, coloring = vital_pfls(case)
    if case.tag in (BOTH_ODD, SAME_POWER):
        square = diagonal_complete(pfls)
    elif case.tag in (SIN_ODD, SIN_EVEN):
        square = appendix_a_complete(pfls, case, coloring)
    else:
        square = appendix_b_complete(pfls, case)
    if case.transposed:
        square = transpose(square)
    if case.rotate:
        square = column_rotate(square, case.rotate)
    return square


def remove_all_psk(m: int) -> dict[tuple[int, int], Grid]:
    """Verified M-symbol removal squares for every representative of M-PSK.

    Each square is checked against the brute-force constraint partition of
    its fade state before being returned.
    """
    s_set = make_psk(m)
    out: dict[tuple[int, int], Grid] = {}
    for k in range(1, m // 2 + 1):
        for l in range(1, m // 2 + 1):
            if k == l:
                continue
            square = removal_square(m, k, l)
            partition = build_constraints(s_set, psk_representative(m, k, l))
            if not (square.is_complete() and verify_latin(square)):
                raise CompletionError(f"({k},{l}): constructed grid is not Latin")
            if square.symbol_count != m:
                raise CompletionError(
                    f"({k},{l}): {square.symbol_count} symbols, expected {m}"
                )
            if not verify_removes(square, partition):
                raise CompletionError(f"({k},{l}): square does not remove the state")
            out[(k, l)] = square
    return out
