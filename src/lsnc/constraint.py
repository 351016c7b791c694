"""Singularity removal constraints: the partition of S x S by superposed value.

At a singular fade state s several (x_A, x_B) pairs produce the same
x_A + s*x_B.  Each group of colliding cells is a constraint block: a valid
relay map must give all of its cells one symbol.  Cells are (row, column)
pairs of 1-indexed labels.  The same grouping gives the relay's effective
constellation, which collapses below M^2 points exactly at the singular
states.  The closed-form 2^n-PSK partition is built with the rest of
that construction, in `lsnc.psk_construct`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Sequence

from lsnc._numeric import canon_complex, cluster_complex, complex_sort_key, zeta_powers
from lsnc.fade_state import FadeState, as_exact_ratio, as_psk_ratio
from lsnc.latin import Grid
from lsnc.signal_set import SignalSet, make_psk

__all__ = ["ConstraintPartition", "build_constraints", "constrained_pls", "effective_constellation"]

Cell = tuple[int, int]


@dataclass(frozen=True)
class ConstraintPartition:
    """Blocks of cells sharing a superposed value, in deterministic order.

    build_constraints orders blocks by their (sorted) first cell; the PSK
    closed form (`lsnc.psk_construct.psk_constraints_closed_form`) keeps its
    own c_1, c_2, ... indexing, which downstream constructions rely on.

    `labels` is the label grid: the block index of every cell, row-major
    (cell (r, c) at (r-1)*M + c-1), -1 where no block covers the cell, as
    in the closed form, which holds only the multi-cell blocks.
    `superpose` emits it with the blocks; otherwise it is filled from the
    blocks, and a cell outside 1..M or in two blocks raises ValueError.  It
    takes no part in equality.
    """

    m: int
    blocks: tuple[tuple[Cell, ...], ...]
    labels: tuple[int, ...] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(_label_grid(self.m, self.blocks)))

    @cached_property
    def multi_indices(self) -> tuple[int, ...]:
        """Indices of blocks with at least two cells, found once."""
        return tuple(i for i, b in enumerate(self.blocks) if len(b) >= 2)

    def multi_blocks(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(self.blocks[i] for i in self.multi_indices)

    def block_of(self, cell: Cell) -> int:
        """Index of the block holding `cell`, read off the label grid."""
        r, c = cell
        m = self.m
        if 1 <= r <= m and 1 <= c <= m:
            i = self.labels[(r - 1) * m + c - 1]
            if i >= 0:
                return i
        raise KeyError(f"cell {cell} not in any block")

    def fill(self, values: Sequence[int]) -> Grid:
        """Grid with every cell of block i set to values[i]; cells no block
        covers stay empty.  Raises ValueError unless there is one value per
        block."""
        if len(values) != len(self.blocks):
            raise ValueError(f"{len(values)} values for {len(self.blocks)} blocks")
        m, by_label = self.m, [*values, 0]  # label -1 picks the trailing 0
        flat = [by_label[i] for i in self.labels]
        return Grid.from_lists([flat[i:i + m] for i in range(0, m * m, m)])


def _label_grid(m: int, blocks: Sequence[Sequence[Cell]]) -> list[int]:
    """Block index of every cell, row-major; -1 on cells in no block.
    Raises ValueError on a cell outside 1..M or in two blocks."""
    labels = [-1] * (m * m)
    for i, block in enumerate(blocks):
        for r, c in block:
            if not (1 <= r <= m and 1 <= c <= m):
                raise ValueError(f"cell {(r, c)} of block {i} is outside 1..{m}")
            at = (r - 1) * m + c - 1
            if labels[at] >= 0:
                raise ValueError(f"cell {(r, c)} is in blocks {labels[at]} and {i}")
            labels[at] = i
    return labels


@lru_cache(maxsize=8)
def _cells(m: int) -> tuple[Cell, ...]:
    """The cells of S x S in row-major order, shared by every grouping at
    one of the last few M used."""
    return tuple((r, c) for r in range(1, m + 1) for c in range(1, m + 1))


def _group(m: int, rows: list[int], cols: list[int]) -> tuple[list[tuple[Cell, ...]], list[int]]:
    """Blocks and labels of the cells keyed rows[r-1] + cols[c-1]: equal
    keys in one block, blocks in order of their first cell.

    Each block grows as a tuple, one cell at a time.  The keys of one
    column's cells differ (their x_A differ, at any fade), so a block holds
    at most M cells and the growth copies at most M^3/2 cells in all, even
    at fade 0, where every block is a whole row."""
    index: dict[int, int] = {}
    labels = [index.setdefault(rk + ck, len(index)) for rk in rows for ck in cols]
    blocks: list[tuple[Cell, ...]] = [()] * len(index)
    for cell, i in zip(_cells(m), labels):
        blocks[i] += (cell,)
    return blocks, labels


def _gaussian_parts(
    pts: Sequence[tuple[int, int]], g: tuple[int, int, int]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The integer (re, im) parts of d*x_A per row and of (a + bj)*x_B per
    column, for integer points and g = (a + bj)/d.  A row's part plus a
    column's part is x_A + g*x_B scaled by d."""
    a, b, d = g
    rows = [(d * xr, d * xi) for xr, xi in pts]
    cols = [(a * yr - b * yi, a * yi + b * yr) for yr, yi in pts]
    return rows, cols


def superpose(
    s_set: SignalSet, s: complex | FadeState
) -> tuple[list[tuple[Cell, ...]], list[int], tuple[int, int, int] | None]:
    """Cells of S x S grouped by the value of x_A + s*x_B.

    Returns (blocks, labels, g).  Blocks are tuples of cells, in order of
    their first cell, each holding its cells in row-major order; labels is
    the block index of every cell, row-major (see
    ConstraintPartition.labels).  Grouping is exact in two cases, on one
    int key per cell, the sum of a row's int and a column's int, and both
    go through one grouping loop (`_group`: at most M^3/2 cells copied):

    - The signal set lives on the integer grid and s denotes a small
      rational g = (a + bj)/d, returned as the triple (a, b, d).  The key
      is the integer pair d*x_A + (a + bj)*x_B packed as two signed digits.
    - The signal set is `psk:M` and s denotes a ratio of two binomials
      zeta^a - zeta^b, zeta = e^{j*pi/M} (see `as_psk_ratio`; every
      singular state does).  Keys are packed elements of Z[zeta]
      (`zeta_powers`) and g is None.

    Otherwise grouping is by floating-point clustering and g is None: the
    cells of a block match its first cell's value within MERGE_TOL.
    """
    m = s_set.size
    g = as_exact_ratio(s) if s_set.exact_points is not None else None
    if g is not None:
        # With integer points and g = (a + bj)/d, the key d*x_A + (a + bj)*x_B
        # is x_A + g*x_B scaled by d: cells share a key exactly when they
        # share a value.  The pair is an element of Z[zeta] for zeta = j,
        # packed as in `zeta_powers`: re + im * 2^w.  Both parts of a row's
        # pair plus a column's pair are at most `bound` < 2^(w-1) in size, so
        # their balanced digits are unique and equal ints are equal pairs.
        rows, cols = _gaussian_parts(s_set.exact_points, g)
        bound = max(map(abs, chain(*rows)), default=0) + max(map(abs, chain(*cols)), default=0)
        w = bound.bit_length() + 1
        blocks, labels = _group(
            m, [x + (y << w) for x, y in rows], [x + (y << w) for x, y in cols]
        )
        return blocks, labels, g
    is_psk = s_set.kind == "psk" and s_set.points == make_psk(m).points
    ratio = as_psk_ratio(m, s) if is_psk else None
    if ratio is not None:
        # s = zeta^e * d_u / d_t with d_k = zeta^k - zeta^-k, and point i is
        # zeta^(2i-1), so the key d_t*x_A + zeta^e*d_u*x_B is x_A + s*x_B
        # scaled by d_t.  A row's part plus a column's part is a signed sum
        # of four powers of zeta, which `zeta_powers` keys exactly.
        e, u, t = ratio
        pw, n = zeta_powers(m), 2 * m
        rows = [pw[(i + t) % n] - pw[(i - t) % n] for i in range(1, n, 2)]
        cols = [pw[(i + e + u) % n] - pw[(i + e - u) % n] for i in range(1, n, 2)]
        blocks, labels = _group(m, rows, cols)
        return blocks, labels, None
    sv, cells = complex(s), _cells(m)
    supers = [s_set.points[r - 1] + sv * s_set.points[c - 1] for r, c in cells]
    blocks = [tuple(cells[idx] for idx in grp) for grp in cluster_complex(supers)]
    return blocks, _label_grid(m, blocks), None


def effective_constellation(
    s_set: SignalSet, s: complex | FadeState
) -> tuple[tuple[complex, ...], float]:
    """Distinct values of x_A + s*x_B and the minimum distance between the
    raw (unclustered) superpositions — 0 whenever any two coincide."""
    blocks, _, g = superpose(s_set, s)
    firsts = [block[0] for block in blocks]
    if g is not None:
        # A group's value is its first cell's d*x_A + (a + bj)*x_B over
        # den = d, in integers.
        rows, cols = _gaussian_parts(s_set.exact_points, g)
        den = g[2]
        groups = dict.fromkeys(
            (xr + yr, xi + yi)
            for (xr, xi), (yr, yi) in ((rows[r - 1], cols[c - 1]) for r, c in firsts)
        )
    else:
        # Exact PSK keys and float clusters: a group's value is its first
        # cell's, in floats.  Two exact groups may round to one float.
        sv, pts, den = complex(s), s_set.points, 1
        groups = dict.fromkeys(
            (v.real, v.imag) for v in (pts[r - 1] + sv * pts[c - 1] for r, c in firsts)
        )
    # Exact keys can lie beyond the float range; their quotients cannot.
    try:
        pts = sorted(
            (canon_complex(complex(kr / den, ki / den)) for kr, ki in groups), key=complex_sort_key
        )
        if len(groups) < s_set.size**2:
            return tuple(pts), 0.0
        # No two superpositions coincide, so the group keys are all of them.
        # Closest pair by a sweep in real-part order.  A pair's distance is at
        # least its real-part gap (abs(complex(x, y)) >= abs(x) in floats too),
        # and the gap only grows along the sweep, so a point's scan stops once
        # the gap reaches the best distance so far.  Distances come from the
        # same correctly rounded differences an all-pairs minimum takes, so the
        # result is the same float.
        vals = sorted(groups)
        dmin = math.inf
        for i, (xr, xi) in enumerate(vals):
            for j in range(i + 1, len(vals)):
                yr, yi = vals[j]
                dr = (yr - xr) / den
                if dr >= dmin:
                    break
                dmin = min(dmin, abs(complex(dr, (yi - xi) / den)))
        return tuple(pts), dmin
    except OverflowError:
        raise ValueError(f"cannot cluster x_A + s*x_B at s={s!r}: too large for a float") from None


def build_constraints(s_set: SignalSet, s: complex | FadeState) -> ConstraintPartition:
    """Partition of S x S by the value of x_A + s*x_B, one block per
    `superpose` group, with its label grid."""
    blocks, labels, _ = superpose(s_set, s)
    return ConstraintPartition(m=s_set.size, blocks=tuple(blocks), labels=tuple(labels))


def constrained_pls(partition: ConstraintPartition) -> Grid:
    """The constrained partial Latin Square: multi-cell block i (in block
    order) is pre-filled with symbol i+1; singleton cells stay empty."""
    symbols = [0] * len(partition.blocks)
    for sym, bi in enumerate(partition.multi_indices, 1):
        symbols[bi] = sym
    return partition.fill(symbols)

