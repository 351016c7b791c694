"""Closed-form PSK constructions: case routing, vital colorings, completions."""

import hashlib

import pytest

from lsnc import (
    build_constraints,
    psk_representative,
    psk_representatives,
    psk_vital_adjacency,
    verify_latin,
    verify_proper,
    verify_removes,
)
from lsnc.fixtures import load_grid
from lsnc.gridio import dumps_grid
from lsnc.psk_construct import (
    BOTH_ODD,
    DIFF_POWER,
    MIXED,
    SAME_POWER,
    SIN_EVEN,
    SIN_ODD,
    classify,
    remove_all_psk,
    removal_square,
    vital_pfls,
)


@pytest.mark.parametrize(
    "m,k,l,tag",
    [
        (8, 1, 3, BOTH_ODD),
        (8, 3, 1, BOTH_ODD),
        (8, 1, 4, SIN_ODD),
        (8, 2, 4, SIN_EVEN),
        (8, 4, 2, SIN_EVEN),
        (8, 1, 2, MIXED),
        (8, 2, 1, MIXED),
        (16, 2, 6, SAME_POWER),
        (16, 2, 4, DIFF_POWER),
        (16, 4, 2, DIFF_POWER),
    ],
)
def test_classify_routes_cases(m, k, l, tag):
    assert classify(m, k, l).tag == tag


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify(8, 2, 2)
    with pytest.raises(ValueError):
        classify(10, 1, 2)
    with pytest.raises(ValueError):
        classify(8, 0, 3)


def test_swapped_parameters_route_through_transpose():
    direct = classify(16, 2, 4)
    swapped = classify(16, 4, 2)
    assert not direct.transposed and swapped.transposed
    assert (swapped.bk, swapped.bl) == (2, 4)


@pytest.mark.parametrize(
    "m,k,l,colors",
    [
        # parity-split colorings use 4 classes; the two-symbol-per-row
        # b-cell constructions start from 8
        (8, 1, 3, 4),
        (8, 1, 2, 8),
        (16, 2, 6, 4),
        (16, 1, 4, 8),
        (16, 2, 4, 8),
    ],
)
def test_vital_coloring_is_proper(m, k, l, colors):
    case = classify(m, k, l)
    _, _, coloring = vital_pfls(case)
    assert verify_proper(psk_vital_adjacency(m, case.bk, case.bl), coloring)
    assert coloring.k == colors


def test_vital_pfls_matches_worked_example():
    grid, _, _ = vital_pfls(classify(8, 1, 3))
    assert grid == load_grid("psk8_k1_l3_pfls")


@pytest.mark.parametrize(
    "m,k,l",
    [(8, 1, 3), (8, 2, 1), (8, 1, 4), (8, 2, 4), (16, 2, 6), (16, 2, 4), (16, 1, 2), (16, 5, 8)],
)
def test_removal_square_verifies(m, k, l, request):
    signal = request.getfixturevalue(f"psk{m}")
    grid = removal_square(m, k, l)
    part = build_constraints(signal, psk_representative(m, k, l).value)
    assert grid.is_complete()
    assert verify_latin(grid)
    assert verify_removes(grid, part)
    assert grid.symbol_count == m


def test_deterministic_cases_reproduce_printed_squares():
    # diagonal-style completions are canonical; Hall-matching ones need not be
    assert removal_square(8, 1, 3) == load_grid("psk8_k1_l3_ls")
    assert removal_square(16, 2, 6) == load_grid("psk16_k2_l6_ls")


def test_remove_all_covers_every_representative():
    squares = remove_all_psk(8)
    reps = psk_representatives(8)
    assert set(squares) == {(fs.k, fs.l) for fs in reps}
    assert len(squares) == 12
    for grid in squares.values():
        assert grid.symbol_count == 8


def test_sixteen_psk_sweep_is_clean():
    squares = remove_all_psk(16)
    assert len(squares) == 56


@pytest.mark.parametrize(
    "m,sha256",
    [
        (8, "ea0b5e0c6e93b3945d148201e60a5426fa5f106e4b67b8632604357614edeb76"),
        (16, "25d33c87da7089527fd9ee57bfe27baa7a733aa522f82fb22f5c17210ac9de55"),
        (32, "9fd4cb34da2b894c55ad0caa94e108db98e95955ab663af57f426174290c6cba"),
    ],
)
def test_sweep_matches_golden_dump(m, sha256):
    # Pins every square byte for byte, so a change in matching or SDR order
    # shows even where the squares still verify.
    dump = "".join(f"{key}\n{dumps_grid(g)}" for key, g in sorted(remove_all_psk(m).items()))
    assert hashlib.sha256(dump.encode()).hexdigest() == sha256
