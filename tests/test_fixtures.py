"""The bundled worked-example grids stay mutually consistent.

Each construction family ships its intermediate stages; these tests pin the
relations between stages (extension, symbol/row exchange) and re-verify every
final square against its fade state, so an accidental edit of any fixture
file fails loudly.
"""

import pytest

from lsnc import (
    build_constraints,
    constrained_pls,
    interchange_symbol_row,
    make_custom,
    make_pam,
    make_psk,
    make_square_qam,
    psk_representative,
    verify_latin,
    verify_removes,
)
from lsnc.fixtures import available, load_grid, load_points


def extends(base, bigger):
    """Every filled cell of `base` appears unchanged in `bigger`."""
    return all(
        b == a for row, big in zip(base.rows, bigger.rows) for a, b in zip(row, big) if a
    )


def test_every_fixture_loads():
    names = available()
    assert len(names) == 33
    for name in names:
        if name.endswith("_points"):
            assert len(load_points(name)) >= 2
        else:
            grid = load_grid(name)
            assert verify_latin(grid)


FINALS = [
    ("qam4_half1j_ls", "qam:4", 0.5 + 0.5j, 5),
    ("pam4_neg2_ls", "pam:4", -2 + 0j, 4),
    ("qam8_rect_ls", "qam8", -0.5 - 0.5j, 8),
    ("psk8_k1_l3_ls", "psk:8", (8, 1, 3), 8),
    ("psk8_k2_l4_ls", "psk:8", (8, 2, 4), 8),
    ("psk16_k2_l6_ls", "psk:16", (16, 2, 6), 16),
    ("psk16_k1_l2_ls", "psk:16", (16, 1, 2), 16),
]


def signal_for(spec):
    if spec == "qam8":
        return make_custom(load_points("qam8_rect_points"))
    kind, _, size = spec.partition(":")
    return {"qam": make_square_qam, "pam": make_pam, "psk": make_psk}[kind](int(size))


@pytest.mark.parametrize("name,spec,fade,symbols", FINALS, ids=[f[0] for f in FINALS])
def test_final_squares_verify(name, spec, fade, symbols):
    grid = load_grid(name)
    fade_value = psk_representative(*fade).value if isinstance(fade, tuple) else fade
    part = build_constraints(signal_for(spec), fade_value)
    assert grid.is_complete()
    assert verify_latin(grid)
    assert verify_removes(grid, part)
    assert grid.symbol_count == symbols


@pytest.mark.parametrize(
    "name,spec,fade",
    [
        ("qam4_half1j_cpls", "qam:4", 0.5 + 0.5j),
        ("pam4_neg2_cpls", "pam:4", -2 + 0j),
        ("qam8_rect_cpls", "qam8", -0.5 - 0.5j),
    ],
)
def test_constrained_grids_match_library(name, spec, fade):
    part = build_constraints(signal_for(spec), fade)
    assert load_grid(name) == constrained_pls(part)


def test_pam_stage_chain():
    # the merged partial square uses 4 symbols and completes to the final
    pfls, ls = load_grid("pam4_neg2_pfls"), load_grid("pam4_neg2_ls")
    assert pfls.symbol_count == 4
    assert extends(pfls, ls)


def test_qam8_stage_chain():
    pfls, ls = load_grid("qam8_rect_pfls"), load_grid("qam8_rect_ls")
    assert pfls.symbol_count == 8
    # the worked failure case: this 8-symbol partial is NOT contained in the
    # printed final square (the final comes from recoloring from scratch)
    assert not extends(pfls, ls)


@pytest.mark.parametrize("family", ["psk8_k2_l4", "psk16_k1_l2"])
def test_rectangle_completion_chain(family):
    pfls = load_grid(f"{family}_pfls")
    pfls_b = load_grid(f"{family}_pfls_b")
    rect = load_grid(f"{family}_rect")
    rect_filled = load_grid(f"{family}_rect_filled")
    ls_rect = load_grid(f"{family}_ls_rect")
    ls = load_grid(f"{family}_ls")
    assert extends(pfls, pfls_b)
    assert interchange_symbol_row(pfls_b) == rect
    assert extends(rect, rect_filled)
    assert extends(rect_filled, ls_rect)
    assert interchange_symbol_row(ls_rect) == ls


def test_qam8_points_fixture():
    pts = load_points("qam8_rect_points")
    assert pts == [-3 - 1j, -3 + 1j, -1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j, 3 - 1j, 3 + 1j]


def test_unknown_fixture_raises():
    with pytest.raises(FileNotFoundError):
        load_grid("no_such_grid")
