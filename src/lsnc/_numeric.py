"""Exact Gaussian-rational arithmetic and tolerance-based complex clustering.

Square-QAM and PAM constellations live on the Gaussian integers, so grouping
by complex value can (and should) be done exactly.  PSK points are
irrational; those go through the floating-point clustering path instead.
"""
from __future__ import annotations

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


def cluster_complex(
    values: list[complex],
    merge_tol: float = MERGE_TOL,
    guard_tol: float = GUARD_TOL,
) -> list[list[int]]:
    """Group indices of `values` that coincide within `merge_tol`.

    Groups keep first-occurrence order; each group's representative is its
    first member.  Raises AmbiguousGroupingError if two representatives end
    up closer than `guard_tol` without having been merged — that means the
    input does not separate cleanly at these tolerances.
    """
    # Spatial hash with guard-sized cells: any value within guard_tol of a
    # representative lies in the 3x3 cell neighbourhood.
    cells: dict[tuple[int, int], list[int]] = {}
    reps: list[complex] = []
    groups: list[list[int]] = []

    def cell_of(v: complex) -> tuple[int, int]:
        return (int(v.real // guard_tol), int(v.imag // guard_tol))

    for idx, v in enumerate(values):
        cx, cy = cell_of(v)
        near: list[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                near.extend(cells.get((cx + dx, cy + dy), ()))
        target = None
        for g in near:
            if abs(v - reps[g]) <= merge_tol:
                target = g
                break
        if target is None:
            for g in near:
                if abs(v - reps[g]) < guard_tol:
                    raise AmbiguousGroupingError(
                        f"values {v!r} and {reps[g]!r} are separated by less than "
                        f"{guard_tol} but more than {merge_tol}"
                    )
            target = len(reps)
            reps.append(v)
            groups.append([])
            cells.setdefault((cx, cy), []).append(target)
        groups[target].append(idx)
    return groups
