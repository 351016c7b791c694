"""Complex signal sets (constellations) used at the two end nodes.

Square QAM and PAM live on the Gaussian integers and carry exact
coordinates alongside the float ones, so everything downstream can group
superposed values without tolerances.  M-PSK points are irrational and
keep only float coordinates; point i is zeta^(2i-1), zeta = e^{j*pi/M},
which `lsnc.constraint.superpose` uses to group their superposed values
exactly in Z[zeta].
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from lsnc._numeric import GUARD_TOL

__all__ = ["SignalSet", "make_psk", "make_square_qam", "make_pam", "make_custom", "from_spec"]


@dataclass(frozen=True)
class SignalSet:
    """An ordered constellation; the point at index i carries label i+1."""

    points: tuple[complex, ...]
    kind: str
    # integer (re, im) coordinates when the set lies on the integer grid
    exact_points: tuple[tuple[int, int], ...] | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.points)


def _check_distinct(points: tuple[complex, ...]) -> None:
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if abs(points[i] - points[j]) <= GUARD_TOL:
                raise ValueError(f"custom points {i + 1} and {j + 1} coincide")


def make_psk(m: int) -> SignalSet:
    """Symmetric M-PSK: unit-circle points e^{j(2i-1)pi/M}, i = 1..M."""
    if m < 2:
        raise ValueError("PSK needs at least 2 points")
    pts = tuple(cmath.exp(1j * (2 * i - 1) * math.pi / m) for i in range(1, m + 1))
    return SignalSet(pts, "psk")


def make_square_qam(m: int) -> SignalSet:
    """Square M-QAM on the odd-integer grid.

    The point (-sqrt(M)+1+2l) + (-sqrt(M)+1+2k)j gets label k + l*sqrt(M) + 1,
    i.e. labels run up the imaginary axis first.
    """
    side = math.isqrt(max(m, 0))
    if m < 4 or side * side != m or side % 2:
        raise ValueError("square QAM needs M a square of an even side")
    pts = []
    for l in range(side):
        for k in range(side):
            pts.append(complex(-side + 1 + 2 * l, -side + 1 + 2 * k))
    # label = k + l*side + 1 means k varies fastest, matching the loop above
    exact = tuple((int(p.real), int(p.imag)) for p in pts)
    return SignalSet(tuple(pts), "qam", exact)


def make_pam(m: int) -> SignalSet:
    """M-PAM {-M+1, -M+3, ..., M-1}, labelled in increasing order."""
    if m < 2:
        raise ValueError("PAM needs at least 2 points")
    pts = tuple(complex(-m + 1 + 2 * i, 0) for i in range(m))
    exact = tuple((int(p.real), int(p.imag)) for p in pts)
    return SignalSet(pts, "pam", exact)


def make_custom(points: list[complex]) -> SignalSet:
    """Custom constellation; labels follow list order.

    Exact coordinates are kept when every point lies on the integer grid
    (the useful case for non-square QAM); anything else stays float-only.
    """
    pts = tuple(complex(p) for p in points)
    if len(pts) < 2:
        raise ValueError("a signal set needs at least 2 points")
    _check_distinct(pts)
    exact = None
    if all(p.real.is_integer() and p.imag.is_integer() for p in pts):
        exact = tuple((int(p.real), int(p.imag)) for p in pts)
    return SignalSet(pts, "custom", exact)


def from_spec(spec: str) -> SignalSet:
    """Build a signal set from CLI syntax: psk:8, qam:16, pam:4, custom:@file.json.

    A custom file is a JSON list of {"re": f, "im": f} records.
    """
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ValueError(f"malformed signal spec {spec!r} (expected kind:arg)")
    if kind == "psk":
        return make_psk(int(arg))
    if kind == "qam":
        return make_square_qam(int(arg))
    if kind == "pam":
        return make_pam(int(arg))
    if kind == "custom":
        if not arg.startswith("@"):
            raise ValueError("custom signal spec must reference a file: custom:@file.json")
        records = json.loads(Path(arg[1:]).read_text())
        try:
            points = [complex(r["re"], r["im"]) for r in records]
        except (KeyError, TypeError, OverflowError):
            raise ValueError(
                f'{arg[1:]}: expected a JSON list of {{"re": number, "im": number}}'
            ) from None
        return make_custom(points)
    raise ValueError(f"unknown signal kind {kind!r}")
