"""Exact cyclotomic integers, and tolerance-based clustering of complex values.

Square-QAM and PAM constellations live on the Gaussian integers, Z[zeta]
for zeta = j, so at a rational fade state their superposed values are
grouped exactly, on integer pairs packed as two signed digits
(`lsnc.constraint.superpose`).  M-PSK points are powers of
zeta = e^{j*pi/M} and live in Z[zeta]; at a fade that denotes a ratio of
two binomials zeta^a - zeta^b (every singular state does) their values are
grouped exactly too, on the packed vectors of `zeta_powers`.  Custom sets
off the integer grid, and fades that denote no such number, go through
the floating-point clustering of `cluster_complex`.
"""
from __future__ import annotations

from functools import cache

from lsnc.errors import AmbiguousGroupingError

MERGE_TOL = 1e-9
GUARD_TOL = 1e-6


def canon_complex(v: complex) -> complex:
    """`v` with +0.0 in place of negative zeros, so serialized output is stable."""
    return complex(v.real + 0.0, v.imag + 0.0)


def complex_sort_key(v: complex) -> tuple[float, float]:
    """The canonical order of complex values: by real part, then imaginary
    part, each rounded to 12 places."""
    return (round(v.real, 12) + 0.0, round(v.imag, 12) + 0.0)


def cluster_complex(values: list[complex]) -> list[list[int]]:
    """Group indices of `values` that coincide within MERGE_TOL.

    Groups keep first-occurrence order; each group's representative is its
    first member.  Raises AmbiguousGroupingError if two representatives end
    up closer than GUARD_TOL without having been merged — that means the
    input does not separate cleanly at these tolerances.  Raises ValueError
    on a value that is not finite, or too large to index at GUARD_TOL.
    """
    merge_tol, guard_tol = MERGE_TOL, GUARD_TOL
    # Spatial hash with cells twice the guard width, indexed through
    # half-cells: a value in the lower half of its cell along an axis has
    # every point within guard_tol in that cell or the one below, and
    # likewise above for the upper half.  So the value's cell and its three
    # neighbours on the nearer sides hold every representative it can be
    # within guard_tol of.  Float `//` floors exactly while |value| /
    # guard_tol stays below 2**52, and a point outside those cells is more
    # than guard_tol away along one axis, which no rounding of `abs` brings
    # below guard_tol.
    cells: dict[tuple[int, int], list[int]] = {}
    reps: list[complex] = []
    groups: list[list[int]] = []
    empty: list[int] = []  # never appended to
    for idx, v in enumerate(values):
        try:
            hx, hy = int(v.real // guard_tol), int(v.imag // guard_tol)
        except (OverflowError, ValueError):
            raise ValueError(
                f"cannot cluster {v!r}: too large or not finite for guard_tol={guard_tol}"
            ) from None
        cx, cy = hx >> 1, hy >> 1
        nx, ny = cx + (hx & 1) * 2 - 1, cy + (hy & 1) * 2 - 1
        near = (
            cells.get((cx, cy), empty) + cells.get((nx, cy), empty)
            + cells.get((cx, ny), empty) + cells.get((nx, ny), empty)
        )
        for g in near:
            if abs(v - reps[g]) <= merge_tol:
                groups[g].append(idx)
                break
        else:
            for g in near:
                if abs(v - reps[g]) < guard_tol:
                    raise AmbiguousGroupingError(
                        f"values {v!r} and {reps[g]!r} are separated by less than "
                        f"{guard_tol} but more than {merge_tol}"
                    )
            cells.setdefault((cx, cy), []).append(len(reps))
            reps.append(v)
            groups.append([idx])
    return groups


@cache
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first:
    x^n - 1 divided by the cyclotomic polynomials of n's proper divisors."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = _cyclotomic(d)
            # long division by the monic `div`; the remainder is zero
            quot = [0] * (len(poly) - len(div) + 1)
            for i in reversed(range(len(quot))):
                quot[i] = c = poly[i + len(div) - 1]
                for j, dj in enumerate(div):
                    poly[i + j] -= c * dj
            poly = quot
    return tuple(poly)


@cache
def zeta_powers(m: int) -> tuple[int, ...]:
    """zeta^e for e = 0..2M-1, zeta = e^{j*pi/M}, each packed into one int.

    zeta^e is an integer vector over 1, zeta, ..., zeta^{phi(2M)-1}, reduced
    mod the cyclotomic polynomial Phi_2M (x^M + 1 when M is a power of two).
    Its coefficients are packed as signed digits of `width` bits, the sum of
    c_i * 2^(width*i), so adding packed ints adds the vectors.  The width
    leaves room for any signed sum of four powers: with every |c_i| <= h,
    such a sum has digits of size at most 4h < 2^(width-1), and balanced
    digits that small are unique, so two such sums are equal ints exactly
    when they are equal elements of Z[zeta].
    """
    phi = _cyclotomic(2 * m)
    vec = [1] + [0] * (len(phi) - 2)
    vecs = []
    for _ in range(2 * m):
        vecs.append(vec)
        # times zeta: shift up, then replace zeta^deg by -(phi - zeta^deg)
        top, vec = vec[-1], [0] + vec[:-1]
        vec = [c - top * p for c, p in zip(vec, phi)]
    width = (8 * max(abs(c) for v in vecs for c in v)).bit_length()
    return tuple(sum(c << (width * i) for i, c in enumerate(v)) for v in vecs)
