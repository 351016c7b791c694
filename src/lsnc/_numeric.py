"""Exact Gaussian-rational arithmetic and tolerance-based complex clustering.

Square-QAM and PAM constellations live on the Gaussian integers, so grouping
by complex value can (and should) be done exactly; the hot loops do it on
integer pairs over one common denominator (`integer_pairs`) rather than on
Fractions.  PSK points are irrational; those go through the floating-point
clustering path instead.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from lsnc.errors import AmbiguousGroupingError

MERGE_TOL = 1e-9
GUARD_TOL = 1e-6


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __add__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: GaussianRational) -> GaussianRational:
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


def integer_pairs(values: Sequence[GaussianRational]) -> tuple[list[tuple[int, int]], int]:
    """Exact values as integer pairs over one common positive denominator.

    Returns (pairs, den) with values[i] == (pairs[i][0] + pairs[i][1]*j) / den,
    so integer arithmetic on the pairs stands in for Fraction arithmetic.
    """
    den = math.lcm(*(f.denominator for v in values for f in (v.re, v.im)))
    return [
        (v.re.numerator * (den // v.re.denominator), v.im.numerator * (den // v.im.denominator))
        for v in values
    ], den


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
