"""Exact Gaussian-rational arithmetic and tolerance-aware clustering."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsnc._numeric import (
    AmbiguousGroupingError,
    GaussianRational,
    cluster_complex,
)


def gr(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
gaussians = st.builds(GaussianRational, small_rationals, small_rationals)


class TestGaussianRational:
    def test_field_ops_match_complex(self):
        a, b = gr(3, -2), gr(Fraction(1, 2), 5)
        assert complex(a + b) == complex(a) + complex(b)
        assert complex(a - b) == complex(a) - complex(b)
        assert complex(a * b) == complex(a) * complex(b)
        assert complex(a / b) == pytest.approx(complex(a) / complex(b))

    def test_division_is_exact(self):
        # (1+j)/(1-j) = j with no rounding
        assert gr(1, 1) / gr(1, -1) == gr(0, 1)

    def test_zero_division_raises(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / gr(0)

    @given(gaussians, gaussians)
    def test_mul_div_roundtrip(self, a, b):
        if not b:
            return
        assert (a * b) / b == a

    @given(gaussians)
    def test_conjugate_involution(self, a):
        assert a.conjugate().conjugate() == a


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
