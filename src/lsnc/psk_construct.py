"""Closed-form M-symbol Latin Squares for every 2^n-PSK representative.

This module owns the whole 2^n-PSK construction: its range checks, the
closed-form constraint blocks (`psk_constraints_closed_form`), the vital
coloring, and the completion.  Each representative fade state (k, l)
classifies into one of six cases by the 2-adic structure of k and l, and
its square is built for (k, l) itself: the vital coloring picks its roles
by 2-adic valuation, not by position, so no state is built from its
(l, k) partner by a transpose and a rotation, as in the paper.
`removal_square` writes the vital subgraph's fixed 4- or 8-coloring
block by block into plain rows, checking only that no cell is written
twice; the completion reads every line, so it checks that no color meets
a line twice.  One completion serves all six cases and skips the paper's
top-up, SDR and Latin rectangle steps: `latin.extend_symbols` places each
symbol 1..M that a row lacks by one Kuhn matching of the columns that
lack it to their empty cells in those rows, the vital colours first.
Only the finished square becomes a `Grid`.  The case is dispatched once,
so the steps do not re-check it.  Every step checks the claims the
construction relies on and raises CompletionError when one fails.
"""
from __future__ import annotations

from dataclasses import dataclass

from lsnc.coloring import Coloring
from lsnc.constraint import Cell, ConstraintPartition, build_constraints
from lsnc.errors import CompletionError
from lsnc.fade_state import psk_representatives
from lsnc.latin import Grid, extend_symbols, verify_latin, verify_removes
# Not called here: perfbench looks these names up on this module to trace them.
from lsnc.latin import candidate_cells, complete_rows_hall, find_sdr, interchange_symbol_row  # noqa: F401
from lsnc.signal_set import make_psk

__all__ = [
    "PskCase",
    "classify",
    "psk_constraints_closed_form",
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


def check_construction_order(m: int) -> None:
    """Reject an M the PSK constructions do not cover: they need a power of
    two >= 8."""
    if m < 8 or m & (m - 1):
        raise ValueError(f"constructions need M a power of two >= 8, got {m}")


def check_closed_form(m: int, k: int, l: int) -> None:
    """Reject parameters outside the PSK closed forms: M a power of two
    >= 8, 1 <= k, l <= M/2 and k != l."""
    check_construction_order(m)
    if not (1 <= k <= m // 2 and 1 <= l <= m // 2) or k == l:
        raise ValueError(f"need 1 <= k,l <= M/2 and k != l, got ({k},{l})")


@dataclass(frozen=True)
class PskCase:
    """Construction plan for one representative: the square is built for
    (k, l) itself, in the case `tag` names, with the roles of k and l in
    the vital coloring picked by 2-adic valuation.  `bk` and `bl` are
    read-only aliases of `k` and `l`, kept while perfbench reads them."""

    m: int
    k: int
    l: int
    tag: str

    @property
    def bk(self) -> int:
        return self.k

    @property
    def bl(self) -> int:
        return self.l


def classify(m: int, k: int, l: int) -> PskCase:
    """Pick the construction case for the (k, l) representative of M-PSK."""
    check_closed_form(m, k, l)
    half = m // 2
    if half in (k, l):
        p = k + l - half  # the parameter that is not M/2
        return PskCase(m, k, l, SIN_ODD if p % 2 else SIN_EVEN)
    if k % 2 and l % 2:
        return PskCase(m, k, l, BOTH_ODD)
    if k % 2 != l % 2:
        return PskCase(m, k, l, MIXED)
    return PskCase(m, k, l, SAME_POWER if _val2(k) == _val2(l) else DIFF_POWER)


def psk_column_offsets(k: int, l: int) -> tuple[int, int]:
    """The column offsets (d1, d2) of the closed-form PSK constraints:
    ((k-l)/2, (k+l)/2) when k and l share parity, and ((k+1-l)/2,
    (k+1+l)/2) when they do not."""
    j = k + (k - l) % 2
    return (j - l) // 2, (j + l) // 2


def psk_constraints_closed_form(m: int, k: int, l: int) -> ConstraintPartition:
    """Closed-form multi-cell constraints for the (k, l) representative of
    M-PSK, in their natural c_1, c_2, ... order.

    Same parity of k and l gives (for 0 <= i <= M-1, all mod M):
      c_{i+1}   = {(i+1, i-M/2-(k-l)/2 +1), (i-k+1, i+M/2-(k+l)/2 +1)}
      c_{M+i+1} = {(i+1, i-(k+l)/2 +1),     (i-k+1, i-(k-l)/2 +1)}
    and opposite parity substitutes k+1-l and k+1+l for k-l and k+l in the
    column offsets.  When k or l equals M/2 the two families coincide and
    only c_1..c_M are distinct.

    Its removal graph (`build_srg`) is the vital subgraph of the state,
    vertex i being c_{i+1}.  With k, l != M/2 there are 2M vertices: vertex
    i (0-indexed, i < M) is adjacent to i+-k, i+-l, M+i, M+(i+-k),
    M+(M/2+i+-l), M+(i+M/2), all mod M in the offset part; the second family
    mirrors it.  With k or l = M/2 only M constraints exist and vertex i is
    adjacent to i+-p and i+M/2 for the non-M/2 parameter p.
    """
    check_closed_form(m, k, l)
    return ConstraintPartition(m=m, blocks=tuple(_psk_blocks(m, k, l)))


def _psk_blocks(m: int, k: int, l: int) -> list[tuple[Cell, Cell]]:
    """The blocks of `psk_constraints_closed_form`, for checked (m, k, l)."""
    half = m // 2
    d1, d2 = psk_column_offsets(k, l)

    def fam1(i: int) -> tuple[Cell, Cell]:
        return (
            (i + 1, (i - half - d1) % m + 1),
            ((i - k) % m + 1, (i + half - d2) % m + 1),
        )

    def fam2(i: int) -> tuple[Cell, Cell]:
        return (
            (i + 1, (i - d2) % m + 1),
            ((i - k) % m + 1, (i - d1) % m + 1),
        )

    blocks = [fam1(i) for i in range(m)]
    if k != half and l != half:
        blocks += [fam2(i) for i in range(m)]
    return blocks


def vital_coloring(case: PskCase) -> Coloring:
    """The fixed coloring of the vital subgraph for (k, l): four colors
    for BothOdd/SamePower and the single-family Sin cases, eight for
    DiffPower/Mixed.  `vital_pfls` checks it on the grid it fills.

    One rule covers every case.  Vertex v < M takes 1 + (v // w) % 2, plus
    2 on the upper vertices, v mod P >= P/2; vertex M + v of the second
    family, where there is one, takes v's color plus `shift`.  The roles
    go by 2-adic valuation, not by position: of lo <= hi, the 2-parts of k
    and l, w is lo, or hi (the even one's) for Mixed.  P is M for Sin
    (v >= M/2), 2M for BothOdd/SamePower (no upper vertex), 2 for Mixed
    (odd v) and 2hi for DiffPower.
    """
    m = case.m
    lo, hi = sorted((case.k & -case.k, case.l & -case.l))
    try:
        w, p, shift = {
            SIN_ODD: (lo, m, 0),
            SIN_EVEN: (lo, m, 0),
            BOTH_ODD: (lo, 2 * m, 2),
            SAME_POWER: (lo, 2 * m, 2),
            MIXED: (hi, 2, 4),
            DIFF_POWER: (lo, 2 * hi, 4),
        }[case.tag]
    except KeyError:
        raise ValueError(f"unknown case tag {case.tag}") from None
    part = [1 + (v // w) % 2 + 2 * (v % p >= p // 2) for v in range(m)]
    return Coloring(tuple(part + [c + shift for c in part] if shift else part))


def vital_pfls(case: PskCase) -> tuple[Grid, ConstraintPartition, Coloring]:
    """Partial grid with every closed-form constraint filled by its color,
    its partition and the coloring.  The partition rejects two blocks
    sharing a cell (ValueError); a color met twice in a line raises
    CompletionError: a Latin fill is a proper coloring that also rejects a
    block meeting one line twice."""
    part = psk_constraints_closed_form(case.m, case.k, case.l)
    coloring = vital_coloring(case)
    grid = part.fill(coloring.colors)
    if not verify_latin(grid):
        raise CompletionError("vital fill repeats a symbol in a line")
    return grid, part, coloring


def _base_rows(case: PskCase) -> list[list[int]]:
    """The finished square for (k, l): the vital colors written block by
    block into empty rows, completed by one matching per symbol
    (`extend_symbols`).  A cell written twice raises CompletionError here;
    a color met twice in a line raises in the completion, which reads every
    line."""
    m = case.m
    rows = [[0] * m for _ in range(m)]
    for block, color in zip(_psk_blocks(m, case.k, case.l), vital_coloring(case).colors, strict=True):
        for r, c in block:
            if rows[r - 1][c - 1]:
                raise CompletionError(f"fill target {(r, c)} is not empty")
            rows[r - 1][c - 1] = color
    extend_symbols(rows)
    return rows


def removal_square(m: int, k: int, l: int) -> Grid:
    """M-symbol Latin Square removing the (k, l) representative of M-PSK."""
    return Grid.from_lists(_base_rows(classify(m, k, l)))


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
