"""Singular fade-state enumeration against brute-force ratio oracles."""

import cmath
import hashlib
import math
import random
from fractions import Fraction

import pytest

from lsnc import (
    build_constraints,
    effective_constellation,
    enumerate_singular_fade_states,
    make_custom,
    make_pam,
    make_psk,
    make_square_qam,
    psk_representative,
    psk_representatives,
    psk_singular_fade_states,
    verify_removes,
)
from lsnc._numeric import canon_complex, cluster_complex, complex_sort_key
from lsnc.errors import AmbiguousGroupingError
from lsnc.fade_state import RECONSTRUCT_TOL, FadeState, as_exact_ratio

from conftest import SKEW_POINTS, gadd, gdiv, gmul, gq, gsub, to_triple, xor_square


def brute_ratio_set(signal):
    """All distinct values of -(xa - xa')/(xb - xb'), clustered."""
    pts = signal.points
    vals = [
        -(a - a2) / (b - b2)
        for a in pts for a2 in pts if a != a2
        for b in pts for b2 in pts if b != b2
    ]
    return [vals[g[0]] for g in cluster_complex(vals)]


@pytest.mark.parametrize("make", ["qam4", "pam4", "psk8"])
def test_enumeration_matches_brute_ratios(make, request):
    signal = request.getfixturevalue(make)
    states = enumerate_singular_fade_states(signal)
    oracle = brute_ratio_set(signal)
    assert len(states) == len(oracle)
    for fs in states:
        assert any(abs(fs.value - v) < 1e-9 for v in oracle)


def test_qam4_has_twelve_states(qam4):
    states = enumerate_singular_fade_states(qam4)
    assert len(states) == 12
    values = {(round(fs.value.real, 9), round(fs.value.imag, 9)) for fs in states}
    expected = {1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j,
                0.5 + 0.5j, 0.5 - 0.5j, -0.5 + 0.5j, -0.5 - 0.5j}
    assert values == {(v.real, v.imag) for v in map(complex, expected)}


def test_psk_count_formula():
    # (M^2/4 - M/2 + 1)M nonzero states
    for m in (8, 16):
        expected = (m * m // 4 - m // 2 + 1) * m
        assert len(psk_singular_fade_states(m)) == expected


def test_psk8_closed_form_equals_brute():
    # M = 8, and the smallest and next power of two: M^2/4 - M/2 + 1
    # circles of M states each
    for m, count in ((4, 12), (8, 104), (16, 912)):
        brute = enumerate_singular_fade_states(make_psk(m))
        closed = psk_singular_fade_states(m)
        assert len(brute) == len(closed) == count, m
        unmatched = [
            c for c in closed
            if not any(abs(c.value - b.value) < 1e-9 for b in brute)
        ]
        assert unmatched == [], m


def test_psk8_circle_structure():
    radii = sorted({round(fs.radius, 9) for fs in psk_singular_fade_states(8)})
    assert len(radii) == 13
    # radii pair up as r and 1/r around the unit circle
    assert radii[6] == 1
    for lo, hi in zip(radii[:6], reversed(radii[7:])):
        assert lo * hi == pytest.approx(1)


def test_representative_value(psk8):
    # |s_{k,l}| = sin(pi k/M)/sin(pi l/M); off-axis phase pi/M iff k,l differ in parity
    import math
    for k, l in ((1, 3), (2, 4), (1, 2)):
        fs = psk_representative(8, k, l)
        assert fs.radius == pytest.approx(math.sin(math.pi * k / 8) / math.sin(math.pi * l / 8))
        phase = cmath.phase(fs.value) % (2 * cmath.pi)
        expected_phase = cmath.pi / 8 if (k - l) % 2 else 0.0
        assert phase == pytest.approx(expected_phase, abs=1e-12)


def test_representatives_are_singular(psk8):
    reps = psk_representatives(8)
    assert len(reps) == 12
    assert all(fs.k is not None and fs.l is not None for fs in reps)
    for fs in reps:
        assert len(build_constraints(psk8, fs).blocks) < 64


@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_xor_square_removes_two_unit_circle_states(m):
    # psk_representatives leaves out the radius-1 (k = l) circle.  Of its M
    # states, the bitwise-XOR Latin Square removes only s = 1 and s = -1.
    signal, square = make_psk(m), xor_square(m)
    unit = [fs for fs in psk_singular_fade_states(m) if (fs.k, fs.l) == (1, 1)]
    removed = [fs.value for fs in unit if verify_removes(square, build_constraints(signal, fs))]
    assert len(unit) == m
    assert removed == [pytest.approx(-1), pytest.approx(1)]


def test_effective_constellation_singular_vs_regular(qam4):
    pts, dmin = effective_constellation(qam4, 0.5 + 0.5j)
    assert len(pts) == 12 and dmin == 0
    pts, dmin = effective_constellation(qam4, 0.3 + 0.1j)
    assert len(pts) == 16 and dmin > 0


def test_exact_ratio_detection():
    assert as_exact_ratio(0.5 + 0.5j) == (1, 1, 2)
    assert as_exact_ratio(psk_representative(8, 1, 3).value) is None


def test_is_singular_boundary(qam4):
    assert len(build_constraints(qam4, -2 + 0j).blocks) == 16
    assert len(build_constraints(qam4, 1 + 0j).blocks) < 16


# Reference implementations: the Fraction and all-pairs algorithms the
# integer-key kernel and the closest-pair sweep replace.

def ref_exact_states(s_set):
    pts = [gq(p) for p in s_set.exact_points]
    diffs = {gsub(x, x2): None for x in pts for x2 in pts if x != x2}
    # -(x - x')/(y - y') over all nonzero differences
    seen = {gdiv(gsub((0, 0), num), den): None for num in diffs for den in diffs}
    states = [FadeState(value=canon_complex(complex(*g)), exact_value=to_triple(g)) for g in seen]
    return tuple(sorted(states, key=lambda fs: complex_sort_key(fs.value)))


def ref_effective_constellation(s_set, s):
    g = as_exact_ratio(s) if s_set.exact_points is not None else None
    if g is not None:
        xs = [gq(p) for p in s_set.exact_points]
        vals = [gadd(xa, gmul(gq(g), xb)) for xa in xs for xb in xs]
        distinct = dict.fromkeys(vals)
        pts = sorted((canon_complex(complex(*v)) for v in distinct), key=complex_sort_key)
        if len(pts) < len(vals):
            return tuple(pts), 0.0
        return tuple(pts), min(
            abs(complex(*gsub(a, b))) for i, a in enumerate(vals) for b in vals[i + 1 :]
        )
    sv = complex(s)
    vals_f = [xa + sv * xb for xa in s_set.points for xb in s_set.points]
    firsts = (canon_complex(vals_f[grp[0]]) for grp in cluster_complex(vals_f))
    pts = sorted(firsts, key=complex_sort_key)
    if len(pts) < len(vals_f):
        return tuple(pts), 0.0
    return tuple(pts), min(abs(a - b) for i, a in enumerate(vals_f) for b in vals_f[i + 1 :])


# The enumeration divides by one difference per unit orbit: per orbit of
# {1, j, -1, -j} when the differences are closed under j (square QAM and
# "cross", a set mapped to itself by j that is not square QAM), per +-pair
# otherwise (PAM and "skew").
EXACT_SIGNALS = {
    "qam4": make_square_qam(4),
    "qam16": make_square_qam(16),
    "pam8": make_pam(8),
    "skew": make_custom(SKEW_POINTS),
    "cross": make_custom([2, -2, 2j, -2j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]),
}


@pytest.mark.parametrize("name", EXACT_SIGNALS)
def test_exact_enumeration_matches_reference(name):
    s_set = EXACT_SIGNALS[name]
    states, ref = enumerate_singular_fade_states(s_set), ref_exact_states(s_set)
    assert [(repr(fs.value), fs.exact_value) for fs in states] == [
        (repr(fs.value), fs.exact_value) for fs in ref
    ]
    assert all(_is_canonical(fs.exact_value) for fs in states)


def test_qam64_enumeration_matches_golden_hash():
    # Taken from the Gaussian-rational enumeration; pins values, exact
    # values (printed as the two Fractions re/q and im/q) and order.
    dump = "".join(
        f"{fs.value!r} {Fraction(re, q)} {Fraction(im, q)}\n"
        for fs in enumerate_singular_fade_states(make_square_qam(64))
        for re, im, q in [fs.exact_value]
    )
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "f3c0222e6c939e5285752ac6c3c882b6045cdf4125103f64ab7e91d0ee57f606"
    )


def _is_canonical(triple):
    re, im, q = triple
    return q > 0 and math.gcd(re, im, q) == 1


@pytest.mark.parametrize("m,step", [(16, 1), (64, 400)])
def test_exact_value_is_canonical_and_matches_float(m, step):
    # a state has one triple, whether it comes from the enumeration or is
    # reconstructed from the state's float value
    for fs in enumerate_singular_fade_states(make_square_qam(m))[::step]:
        assert _is_canonical(fs.exact_value), fs
        assert as_exact_ratio(fs.value) == fs.exact_value, fs


@pytest.mark.parametrize("seed", range(4))
def test_reconstructed_triple_is_reduced(seed):
    rng = random.Random(seed)
    for _ in range(200):
        a, b = rng.randint(-300, 300), rng.randint(1, 999)
        c, d = rng.randint(-300, 300), rng.randint(1, 999)
        s = complex(a / b, c / d)
        triple = as_exact_ratio(s)
        assert triple == to_triple((Fraction(a, b), Fraction(c, d))), s
        assert _is_canonical(triple), s
        re, im, q = triple
        assert abs(complex(re / q, im / q) - s) <= RECONSTRUCT_TOL, s


def _random_fade(rng):
    return complex(rng.randint(-40, 40) / rng.randint(1, 31), rng.randint(-40, 40) / rng.randint(1, 29))


@pytest.mark.parametrize("seed", range(8))
def test_sweep_matches_all_pairs_on_integer_points(seed):
    rng = random.Random(seed)
    # few distinct coordinates, so many superposed values share a real part
    pts = list({complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(9)})
    s_set = make_custom(pts)
    assert s_set.exact_points is not None
    fades = [_random_fade(rng) for _ in range(4)] + [
        complex(0, rng.randint(1, 9) / 7), complex(rng.randint(1, 9) / 5, 0), 1 / 3, 0.1 + 0.2j
    ]
    for s in fades:
        assert repr(effective_constellation(s_set, s)) == repr(
            ref_effective_constellation(s_set, s)
        ), s


@pytest.mark.parametrize("seed", range(8))
def test_sweep_matches_all_pairs_on_float_points(seed):
    rng = random.Random(seed)
    # shared real parts across points, irrational-looking imaginary parts
    reals = [0.5, 1.25, -2.75]
    pts = [complex(rng.choice(reals), rng.uniform(-3, 3)) for _ in range(8)]
    s_set = make_custom(pts)
    assert s_set.exact_points is None
    for s in [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)] + [
        complex(0, rng.uniform(0.1, 2)), 0.5 + 0j
    ]:
        try:
            expected = ref_effective_constellation(s_set, s)
        except AmbiguousGroupingError:
            with pytest.raises(AmbiguousGroupingError):
                effective_constellation(s_set, s)
            continue
        assert repr(effective_constellation(s_set, s)) == repr(expected), s


def test_sweep_on_regular_psk_and_qam_states(psk8, qam16):
    for s_set, s in ((psk8, 0.37 + 0.11j), (psk8, 0.2 + 0.9j), (qam16, 0.37 + 0.11j),
                     (qam16, 1 / 3 + 0.1j)):
        assert repr(effective_constellation(s_set, s)) == repr(
            ref_effective_constellation(s_set, s)
        )
