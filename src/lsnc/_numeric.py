"""Tolerance-based clustering of complex values.

Square-QAM and PAM constellations live on the Gaussian integers, so at a
rational fade state their superposed values are grouped exactly, on
integer keys (`lsnc.constraint.superpose`).  PSK points are irrational;
those, and any irrational fade, go through this floating-point clustering
instead.
"""
from __future__ import annotations

from lsnc.errors import AmbiguousGroupingError

MERGE_TOL = 1e-9
GUARD_TOL = 1e-6


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
