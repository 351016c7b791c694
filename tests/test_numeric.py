"""Tolerance-aware clustering of complex values, and packed cyclotomic integers."""

import cmath
import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsnc._numeric import (
    GUARD_TOL,
    MERGE_TOL,
    AmbiguousGroupingError,
    _cyclotomic,
    cluster_complex,
    zeta_powers,
)


class TestClusterComplex:
    def test_groups_near_duplicates(self):
        vals = [1 + 1j, 1 + 1j + 1e-12, 2 + 0j, 2 + 1e-11j]
        groups = cluster_complex(vals)
        assert sorted(sorted(g) for g in groups) == [[0, 1], [2, 3]]

    def test_distinct_points_stay_apart(self):
        vals = [0j, 1 + 0j, 0 + 1j, 1 + 1j]
        assert len(cluster_complex(vals)) == 4

    def test_ambiguous_gap_raises(self):
        # 3e-8 sits between merge (1e-9) and guard (1e-6): refuse to guess
        with pytest.raises(AmbiguousGroupingError):
            cluster_complex([0j, 3e-8 + 0j])

    def test_chain_merges_transitively(self):
        vals = [0j, 5e-10 + 0j, 1e-9 + 0j]
        assert len(cluster_complex(vals)) == 1

    @pytest.mark.parametrize(
        "bad", [complex("nan"), complex("inf"), complex(1, float("nan")), 1e308 + 0j]
    )
    def test_unclusterable_value_raises_value_error(self, bad):
        # 1e308 is finite, but its guard-cell index is not
        with pytest.raises(ValueError, match="cannot cluster") as info:
            cluster_complex([0j, bad])
        assert not isinstance(info.value, AmbiguousGroupingError)


def brute_force_cluster(values):
    """Reference grouping: compare each value with every representative."""
    reps: list[complex] = []
    groups: list[list[int]] = []
    for idx, v in enumerate(values):
        for g, rep in enumerate(reps):
            if abs(v - rep) <= MERGE_TOL:
                groups[g].append(idx)
                break
        else:
            if any(abs(v - rep) < GUARD_TOL for rep in reps):
                raise AmbiguousGroupingError("")
            reps.append(v)
            groups.append([idx])
    return groups


def grouping_or_error(cluster, values):
    try:
        return cluster(values)
    except AmbiguousGroupingError:
        return "ambiguous"


# Lattice points half a guard width apart sit on cell and half-cell edges;
# the offsets fall at 0, under the merge tolerance, between merge and guard,
# at the guard and over it.
OFFSETS = [0.0, 4e-10, 1e-9, 3e-8, 4.9e-7, 9.99e-7, 1e-6, 1.01e-6, 2.5e-6]
near_edges = st.builds(
    lambda a, b, scale, r, phi: complex(a, b) * scale + cmath.rect(r, phi),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.sampled_from([GUARD_TOL / 2, GUARD_TOL, 0.75, 1e3]),
    st.sampled_from(OFFSETS),
    st.sampled_from([0.0, cmath.pi / 2, cmath.pi, -cmath.pi / 2, 0.3, 2.0]),
)


@given(st.lists(near_edges, min_size=1, max_size=25))
@settings(max_examples=400, deadline=None)
def test_cluster_matches_brute_force(values):
    assert grouping_or_error(cluster_complex, values) == grouping_or_error(
        brute_force_cluster, values
    )


@pytest.mark.parametrize(
    "n,coeffs",
    [(1, (-1, 1)), (2, (1, 1)), (4, (1, 0, 1)), (6, (1, -1, 1)), (12, (1, 0, -1, 0, 1)),
     (16, (1, 0, 0, 0, 0, 0, 0, 0, 1)), (18, (1, 0, 0, -1, 0, 0, 1)),
     (30, (1, 1, 0, -1, -1, -1, 0, 1, 1))],
)
def test_cyclotomic_polynomials(n, coeffs):
    assert _cyclotomic(n) == coeffs


@pytest.mark.parametrize("m", range(2, 25))
def test_cyclotomic_roots_and_degree(m):
    phi = _cyclotomic(2 * m)
    assert len(phi) - 1 == sum(math.gcd(k, 2 * m) == 1 for k in range(1, 2 * m + 1))
    zeta = cmath.exp(1j * math.pi / m)
    assert abs(sum(c * zeta**i for i, c in enumerate(phi))) < 1e-9


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9])
def test_packed_sums_of_four_powers_are_equal_exactly_when_their_values_are(m):
    # Every signed sum zeta^a - zeta^b + zeta^c - zeta^d, the shape of a
    # PSK cell key: equal ints must mean equal values, and distinct ints
    # values that no tolerance confuses.
    pw = zeta_powers(m)
    z = [cmath.exp(1j * math.pi * e / m) for e in range(2 * m)]
    value_of = {}
    for a, b, c, d in product(range(2 * m), repeat=4):
        v = z[a] - z[b] + z[c] - z[d]
        assert abs(value_of.setdefault(pw[a] - pw[b] + pw[c] - pw[d], v) - v) < 1e-9
    values = list(value_of.values())
    assert len(cluster_complex(values)) == len(values)
