"""Singular fade states: enumeration, the PSK closed forms, and exact values.

During the multiple-access phase the relay sees x_A + s*x_B, where s is the
channel-gain ratio.  Fade states for which two of these superpositions
coincide (fewer than M^2 distinct values) are singular; they are exactly
the ratios -(x_A - x_A')/(x_B - x_B') over pairs of constellation points.
The effective constellation, x_A + s*x_B grouped by value, is in
`lsnc.constraint`.  The PSK closed forms here are the fade states alone;
the 2^n-PSK squares that remove them, and the range checks of that
construction, are in `lsnc.psk_construct`.
"""
from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import Iterator

from lsnc._numeric import canon_complex, cluster_complex, complex_sort_key, zeta_powers
from lsnc.signal_set import SignalSet

__all__ = [
    "FadeState",
    "enumerate_singular_fade_states",
    "psk_singular_fade_states",
    "psk_representatives",
]

# A float that sits within RECONSTRUCT_TOL of a rational with denominator
# <= RECONSTRUCT_DEN denotes that rational unambiguously (two such rationals
# differ by more than 1/RECONSTRUCT_DEN^2 >> RECONSTRUCT_TOL).
RECONSTRUCT_DEN = 10**6
RECONSTRUCT_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class FadeState:
    """A channel-gain ratio, optionally tagged with its PSK circle (k, l)."""

    value: complex
    k: int | None = None
    l: int | None = None
    # (re, im, q): the value is (re + im*j)/q, with q > 0 and
    # gcd(re, im, q) == 1, so equal values have equal triples
    exact_value: tuple[int, int, int] | None = None

    @property
    def radius(self) -> float:
        return abs(self.value)

    def __complex__(self) -> complex:
        return self.value


def as_exact_ratio(s: complex | FadeState) -> tuple[int, int, int] | None:
    """Exact rational value of a fade state as its reduced (re, im, q)
    triple (see FadeState.exact_value), when it denotes one.

    FadeStates produced by exact enumeration carry it already; plain floats
    are accepted when both parts reconstruct to small rationals.
    """
    if isinstance(s, FadeState):
        if s.exact_value is not None:
            return s.exact_value
        s = s.value
    s = complex(s)
    parts = []
    for x in (s.real, s.imag):
        if not math.isfinite(x):
            return None
        f = Fraction(x).limit_denominator(RECONSTRUCT_DEN)
        if abs(float(f) - x) > RECONSTRUCT_TOL:
            return None
        parts.append(f)
    fr, fi = parts
    # Both fractions are in lowest terms, so over the lcm of their
    # denominators the triple is already reduced.
    q = math.lcm(fr.denominator, fi.denominator)
    return fr.numerator * (q // fr.denominator), fi.numerator * (q // fi.denominator), q


@cache
def _psk_radii(m: int) -> tuple[tuple[float, ...], tuple[tuple[int, int], ...]]:
    """The radii sin(u*pi/M)/sin(t*pi/M), u, t = 1..M/2, in increasing order,
    and their (u, t) pairs.

    Radii closer than 1e-9 are checked to be one number, exactly: with
    d_k = zeta^k - zeta^-k = 2j*sin(k*pi/M), the radii of (u, t) and
    (u', t') are equal when d_u*d_t' == d_u'*d_t in Z[zeta].  So a value
    within RECONSTRUCT_TOL of one radius denotes that radius.
    """
    entries = sorted(
        (math.sin(u * math.pi / m) / math.sin(t * math.pi / m), u, t)
        for u in range(1, m // 2 + 1)
        for t in range(1, m // 2 + 1)
    )
    pw, n = zeta_powers(m), 2 * m

    def d_times_d(u: int, t: int) -> int:
        return pw[(u + t) % n] - pw[(u - t) % n] - pw[(t - u) % n] + pw[(-u - t) % n]

    for (r0, u0, t0), (r1, u1, t1) in zip(entries, entries[1:]):
        if r1 - r0 < 1e-9 and d_times_d(u0, t1) != d_times_d(u1, t0):
            raise AssertionError(f"radii of {(u0, t0)} and {(u1, t1)} are too close to tell apart")
    return tuple(r for r, _, _ in entries), tuple((u, t) for _, u, t in entries)


def as_psk_ratio(m: int, s: complex | FadeState) -> tuple[int, int, int] | None:
    """(e, u, t) with s = zeta^e * sin(u*pi/M)/sin(t*pi/M), zeta = e^{j*pi/M},
    when the fade lies within RECONSTRUCT_TOL of such a number.

    That number is -n/d for the binomials n = zeta^(e-u) - zeta^(e+u) and
    d = zeta^t - zeta^-t.  Every singular state of M-PSK is one: with point
    i at zeta^(2i-1), a difference of two points is zeta^(i+i'-1) * d_(i-i'),
    so a ratio of two differences is a power of zeta times d_k/d_k', and
    d_k = -d_-k = d_(M-k) brings k and k' into 1..M/2.
    """
    s = complex(s)
    radii, pairs = _psk_radii(m)
    # A part past every radius (or inf, or nan) denotes nothing; checking
    # the parts first also keeps a huge fade away from abs, which overflows.
    if not (abs(s.real) <= radii[-1] + 1 and abs(s.imag) <= radii[-1] + 1):
        return None
    r = abs(s)
    # the nearest radius is one of the two that r falls between
    i = bisect.bisect_left(radii, r)
    if i == len(radii) or (i > 0 and r - radii[i - 1] < radii[i] - r):
        i -= 1
    e = round(cmath.phase(s) * m / math.pi) % (2 * m)
    if abs(s - cmath.rect(radii[i], e * math.pi / m)) > RECONSTRUCT_TOL:
        return None
    return (e, *pairs[i])


def enumerate_singular_fade_states(s_set: SignalSet) -> tuple[FadeState, ...]:
    """All nonzero singular fade states of a signal set, by brute force.

    Ratios with x_A = x_A' are zero (the no-signal degenerate case) and are
    excluded; everything else is deduplicated and sorted canonically.
    """
    n = s_set.size
    if s_set.exact_points is not None:
        ints = s_set.exact_points
        diffs = dict.fromkeys(
            (xr - x2r, xi - x2i)
            for a, (xr, xi) in enumerate(ints)
            for a2, (x2r, x2i) in enumerate(ints)
            if a != a2
        )
        # For a unit u, -n/(u*d) = -(conj(u)*n)/d, and the differences are
        # closed under conj(u) whenever they are closed under u, so one d per
        # unit orbit gives every ratio.  The differences are always closed
        # under negation; under multiplication by j (square QAM, say), keep
        # the d with re > 0 and im >= 0, else one of each pair +-d.
        if all((-di, dr) in diffs for dr, di in diffs):
            dens = [(dr, di) for dr, di in diffs if dr > 0 and di >= 0]
        else:
            dens = [(dr, di) for dr, di in diffs if (dr, di) > (0, 0)]
        # -n/d = -(n * conj d) / |d|^2.  With the denominator positive, the
        # triple reduced by the gcd of all three parts is canonical, so it
        # keys the deduplication and is the state's exact value.
        seen: dict[tuple[int, int, int], None] = {}
        for nr, ni in diffs:
            for dr, di in dens:
                re, im, q = -(nr * dr + ni * di), nr * di - ni * dr, dr * dr + di * di
                k = math.gcd(re, im, q)
                seen[re // k, im // k, q // k] = None
        states = [
            FadeState(value=canon_complex(complex(re / q, im / q)), exact_value=(re, im, q))
            for re, im, q in seen
        ]
    else:
        pts = s_set.points
        fdiffs: dict[tuple[float, float], complex] = {}
        for a in range(n):
            for a2 in range(n):
                if a != a2:
                    d = pts[a] - pts[a2]
                    fdiffs.setdefault((d.real, d.imag), d)
        ratios = [-num / den for num in fdiffs.values() for den in fdiffs.values()]
        groups = cluster_complex(ratios)
        states = [FadeState(value=canon_complex(ratios[g[0]])) for g in groups]
    return tuple(sorted(states, key=lambda fs: complex_sort_key(fs.value)))


def _check_power_of_two(m: int) -> None:
    if m < 4 or m & (m - 1):
        raise ValueError(f"PSK closed forms need M a power of two >= 4, got {m}")


def psk_singular_fade_states(m: int) -> tuple[FadeState, ...]:
    """Closed-form singular fade states of M-PSK.

    They lie on circles of radius sin(k*pi/M)/sin(l*pi/M), k, l in 1..M/2,
    with M states per circle: phases 2n*pi/M when k and l share parity and
    (2n+1)*pi/M otherwise.  All k = l circles coincide at radius 1, tagged
    (1, 1); every k != l pair is a circle of its own.
    """
    _check_power_of_two(m)
    states = [
        fs for k, l in [(1, 1), *permutations(range(1, m // 2 + 1), 2)] for fs in _circle(m, k, l)
    ]
    return tuple(sorted(states, key=lambda fs: complex_sort_key(fs.value)))


def _circle(m: int, k: int, l: int) -> Iterator[FadeState]:
    """The states n = 0, 1, ..., M-1 of the (k, l) circle: radius
    sin(k*pi/M)/sin(l*pi/M), phase (2n + (k - l) mod 2)*pi/M."""
    r = math.sin(k * math.pi / m) / math.sin(l * math.pi / m)
    for n in range(m):
        theta = (2 * n + (k - l) % 2) * math.pi / m
        value = canon_complex(r * complex(math.cos(theta), math.sin(theta)))
        yield FadeState(value=value, k=k, l=l)


def psk_representative(m: int, k: int, l: int) -> FadeState:
    """The per-circle representative, the n = 0 state of the (k, l) circle:
    sin(k*pi/M)/sin(l*pi/M), rotated by e^{j*pi/M} when k - l is odd."""
    _check_power_of_two(m)
    if not (1 <= k <= m // 2 and 1 <= l <= m // 2):
        raise ValueError(f"need 1 <= k,l <= M/2, got ({k},{l})")
    if k == l:
        raise ValueError("the k = l circle has no representative (radius-1 circle)")
    return next(_circle(m, k, l))


def psk_representatives(m: int) -> tuple[FadeState, ...]:
    """One representative per non-unit circle: all (k, l) with k != l.

    The radius-1 circle (k = l) is left out: `psk_construct` has no
    construction for its states yet.
    """
    _check_power_of_two(m)
    return tuple(next(_circle(m, k, l)) for k, l in permutations(range(1, m // 2 + 1), 2))
