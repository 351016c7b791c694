"""Shared fixtures: small signal sets and their worked-out fade states."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest

from lsnc import (
    Grid,
    build_constraints,
    build_srg,
    enumerate_singular_fade_states,
    make_custom,
    make_pam,
    make_psk,
    make_square_qam,
    psk_construct,
)

# The rectangular 8-point grid used throughout the cross-constellation tests.
QAM8_POINTS = [-3 - 1j, -3 + 1j, -1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j, 3 - 1j, 3 + 1j]

# An integer set with no symmetry under negation, conjugation or rotation.
SKEW_POINTS = [0, 1, 3j, 2 + 1j, -1 + 2j, 4, -3 - 1j]


# Exact arithmetic for the oracles, independent of lsnc's integer keys:
# a Gaussian rational is a (Fraction, Fraction) pair.

def gq(z):
    """The pair for an integer point (re, im) or an exact triple (re, im, q)."""
    q = z[2] if len(z) == 3 else 1
    return Fraction(z[0], q), Fraction(z[1], q)


def gadd(x, y):
    return x[0] + y[0], x[1] + y[1]


def gsub(x, y):
    return x[0] - y[0], x[1] - y[1]


def gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def gdiv(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def bits(mask):
    """Set bits of `mask`, ascending, one per loop turn."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def xor_square(m):
    """The bitwise-XOR Latin Square: cell (a, b) = (a-1) xor (b-1), plus 1."""
    return Grid.from_lists([[(r ^ c) + 1 for c in range(m)] for r in range(m)])


def random_latin_square(m, rng):
    """Row-, column- and symbol-permuted XOR square, drawn from `rng`."""
    rp = rng.sample(range(m), m)
    cp = rng.sample(range(m), m)
    sp = rng.sample(range(1, m + 1), m)
    base = xor_square(m)
    return Grid.from_lists(
        [[sp[base.rows[rp[r]][cp[c]] - 1] for c in range(m)] for r in range(m)]
    )


def with_cell(grid, r, c, sym):
    """A copy of `grid` with 1-indexed cell (r, c) set to sym."""
    rows = grid.to_lists()
    rows[r - 1][c - 1] = sym
    return Grid.from_lists(rows)


def swap_first_cells(monkeypatch, key):
    """Make the PSK construction swap cells (1, 1) and (1, 2) of the (k, l)
    = key square, which repeats a symbol in both columns."""
    build = psk_construct.removal_square

    def swapped(m, k, l):
        grid = build(m, k, l)
        if (k, l) != key:
            return grid
        rows = grid.to_lists()
        rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
        return Grid.from_lists(rows)

    monkeypatch.setattr(psk_construct, "removal_square", swapped)


def to_triple(x):
    """The reduced (re, im, q) triple of a pair: q > 0, gcd(re, im, q) = 1."""
    q = x[0].denominator * x[1].denominator
    re, im = int(x[0] * q), int(x[1] * q)
    k = math.gcd(re, im, q)
    return re // k, im // k, q // k


@pytest.fixture(scope="session")
def qam4():
    """4-QAM: {-1-j, -1+j, 1-j, 1+j} labelled in list order."""
    return make_square_qam(4)


@pytest.fixture(scope="session")
def qam16():
    return make_square_qam(16)


@pytest.fixture(scope="session")
def qam64():
    return make_square_qam(64)


@pytest.fixture(scope="session")
def qam64_states(qam64):
    """The 8,324 singular fade states of 64-QAM."""
    return enumerate_singular_fade_states(qam64)


@pytest.fixture(scope="session")
def qam64_partition(qam64):
    """The partition of 64-QAM at a fade state, each built once a session
    while it is one of the last 64 asked for (a partition holds some 4,000
    blocks, so the cache is bounded)."""
    return lru_cache(maxsize=64)(lambda fs: build_constraints(qam64, fs))


@pytest.fixture(scope="session")
def psk8():
    return make_psk(8)


@pytest.fixture(scope="session")
def psk16():
    return make_psk(16)


@pytest.fixture(scope="session")
def pam4():
    return make_pam(4)


@pytest.fixture(scope="session")
def qam8():
    """Rectangular 8-point constellation with -0.5-0.5j singular."""
    return make_custom(QAM8_POINTS)


@pytest.fixture(scope="session")
def qam4_partition(qam4):
    """Constraint partition of 4-QAM at the fade state (1+j)/2."""
    return build_constraints(qam4, 0.5 + 0.5j)


@pytest.fixture(scope="session")
def qam4_graph(qam4_partition):
    return build_srg(qam4_partition)
