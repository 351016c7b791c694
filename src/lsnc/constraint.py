"""Singularity removal constraints: the partition of S x S by superposed value.

At a singular fade state s several (x_A, x_B) pairs produce the same
x_A + s*x_B.  Each group of colliding cells is a constraint block: a valid
relay map must give all of its cells one symbol.  Cells are (row, column)
pairs of 1-indexed labels.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from lsnc._numeric import cluster_complex, zeta_powers
from lsnc.fade_state import FadeState, as_exact_ratio, as_psk_ratio, check_closed_form
from lsnc.latin import Grid
from lsnc.signal_set import SignalSet, make_psk

__all__ = ["ConstraintPartition", "build_constraints", "constrained_pls", "psk_constraints_closed_form"]

Cell = tuple[int, int]


@dataclass(frozen=True)
class ConstraintPartition:
    """Blocks of cells sharing a superposed value, in deterministic order.

    build_constraints orders blocks by their (sorted) first cell; the PSK
    closed form keeps its own c_1, c_2, ... indexing, which downstream
    constructions rely on.
    """

    m: int
    blocks: tuple[tuple[Cell, ...], ...]

    @cached_property
    def multi_indices(self) -> tuple[int, ...]:
        """Indices of blocks with at least two cells, found once."""
        return tuple(i for i, b in enumerate(self.blocks) if len(b) >= 2)

    def multi_blocks(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(self.blocks[i] for i in self.multi_indices)

    def block_of(self, cell: Cell) -> int:
        for i, b in enumerate(self.blocks):
            if cell in b:
                return i
        raise KeyError(f"cell {cell} not in any block")


def superpose(
    s_set: SignalSet, s: complex | FadeState
) -> tuple[dict[object, list[Cell]], int | None]:
    """Cells of S x S grouped by the value of x_A + s*x_B.

    Returns (groups, den).  Groups come in order of their first cell and
    hold their cells in row-major order.  Grouping is exact in two cases:

    - The signal set lives on the integer grid and s denotes a small
      rational.  The cells of the group keyed (re, im) share the value
      complex(re / den, im / den).
    - The signal set is `psk:M` and s denotes a ratio of two binomials
      zeta^a - zeta^b, zeta = e^{j*pi/M} (see `as_psk_ratio`; every
      singular state does).  Keys are packed elements of Z[zeta]
      (`zeta_powers`) and den is None.

    Otherwise grouping is by floating-point clustering, den is 1 and a key
    is its group's first value, which the others match within MERGE_TOL.
    """
    m = s_set.size
    g = as_exact_ratio(s) if s_set.exact_points is not None else None
    groups: dict[object, list[Cell]] = {}
    if g is not None:
        # With integer points and g = (a + bj)/d, the key d*x_A + (a + bj)*x_B
        # is x_A + g*x_B scaled by d: cells share a key exactly when they
        # share a value.
        a, b, d = g
        pts = s_set.exact_points
        g_col = [(a * yr - b * yi, a * yi + b * yr) for yr, yi in pts]
        for r, (xr, xi) in enumerate(pts, 1):
            dxr, dxi = d * xr, d * xi
            for c, (ur, ui) in enumerate(g_col, 1):
                groups.setdefault((dxr + ur, dxi + ui), []).append((r, c))
        return groups, d
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
        for r, rk in enumerate(rows, 1):
            for c, ck in enumerate(cols, 1):
                groups.setdefault(rk + ck, []).append((r, c))
        return groups, None
    sv = complex(s)
    cells = [(r, c) for r in range(1, m + 1) for c in range(1, m + 1)]
    supers = [s_set.points[r - 1] + sv * s_set.points[c - 1] for r, c in cells]
    for grp in cluster_complex(supers):
        v = supers[grp[0]]
        groups[v.real, v.imag] = [cells[i] for i in grp]
    return groups, 1


def build_constraints(s_set: SignalSet, s: complex | FadeState) -> ConstraintPartition:
    """Partition of S x S by the value of x_A + s*x_B, one block per
    `superpose` group."""
    groups, _ = superpose(s_set, s)
    blocks = tuple(map(tuple, groups.values()))
    return ConstraintPartition(m=s_set.size, blocks=blocks)


def constrained_pls(partition: ConstraintPartition) -> Grid:
    """The constrained partial Latin Square: multi-cell block i (in block
    order) is pre-filled with symbol i+1; singleton cells stay empty."""
    m = partition.m
    rows = [[0] * m for _ in range(m)]
    for sym, bi in enumerate(partition.multi_indices, 1):
        for r, c in partition.blocks[bi]:
            rows[r - 1][c - 1] = sym
    return Grid.from_lists(rows)


def psk_constraints_closed_form(m: int, k: int, l: int) -> ConstraintPartition:
    """Closed-form multi-cell constraints for the (k, l) representative of
    M-PSK, in their natural c_1, c_2, ... order.

    Same parity of k and l gives (for 0 <= i <= M-1, all mod M):
      c_{i+1}   = {(i+1, i-M/2-(k-l)/2 +1), (i-k+1, i+M/2-(k+l)/2 +1)}
      c_{M+i+1} = {(i+1, i-(k+l)/2 +1),     (i-k+1, i-(k-l)/2 +1)}
    and opposite parity substitutes k+1-l and k+1+l for k-l and k+l in the
    column offsets.  When k or l equals M/2 the two families coincide and
    only c_1..c_M are distinct.
    """
    check_closed_form(m, k, l)
    half = m // 2
    if (k - l) % 2 == 0:
        d1, d2 = (k - l) // 2, (k + l) // 2
    else:
        d1, d2 = (k + 1 - l) // 2, (k + 1 + l) // 2

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
    return ConstraintPartition(m=m, blocks=tuple(blocks))
