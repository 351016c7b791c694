"""Constellation constructors and the CLI signal-spec syntax."""

import cmath
import json

import pytest

from lsnc import from_spec, make_custom, make_pam, make_psk, make_square_qam

from conftest import QAM8_POINTS


def test_psk_points_on_unit_circle(psk8):
    assert psk8.size == 8
    for p in psk8.points:
        assert abs(abs(p) - 1) < 1e-12
    # symmetric convention: labels start at e^{j pi/M} and step by 2pi/M
    assert psk8.points[0] == pytest.approx(cmath.exp(1j * cmath.pi / 8))
    assert psk8.points[1] == pytest.approx(cmath.exp(3j * cmath.pi / 8))


def test_psk_rejects_too_few_points():
    with pytest.raises(ValueError):
        make_psk(1)


def test_qam4_is_unit_square(qam4):
    assert sorted(qam4.points, key=lambda p: (p.real, p.imag)) == [
        -1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j,
    ]
    assert qam4.exact_points is not None


def test_qam16_grid(qam16):
    res = {p.real for p in qam16.points}
    ims = {p.imag for p in qam16.points}
    assert res == ims == {-3.0, -1.0, 1.0, 3.0}


def test_pam_is_real(pam4):
    assert [p.imag for p in pam4.points] == [0.0] * 4
    assert len({p.real for p in pam4.points}) == 4


def test_label_roundtrip(qam4):
    # Label i names the same point in the float and the exact coordinates.
    label = {p: lab for lab, p in enumerate(qam4.exact_points, 1)}
    for lab, p in enumerate(qam4.points, 1):
        assert label[int(p.real), int(p.imag)] == lab


def test_custom_rejects_duplicates():
    with pytest.raises(ValueError):
        make_custom([1 + 0j, 1 + 0j])


def test_custom_integer_grid_is_exact(qam8):
    assert qam8.exact_points is not None
    assert make_custom([0.25 + 0j, 1 + 0j]).exact_points is None


def test_from_spec_kinds():
    assert from_spec("psk:16").size == 16
    assert from_spec("qam:4").kind == "qam"
    assert from_spec("pam:8").size == 8
    with pytest.raises(ValueError):
        from_spec("psk")
    with pytest.raises(ValueError):
        from_spec("hexagonal:7")


def test_from_spec_custom_file(tmp_path):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps([{"re": p.real, "im": p.imag} for p in QAM8_POINTS]))
    sig = from_spec(f"custom:@{f}")
    assert sig.size == 8
    assert sig.points == tuple(QAM8_POINTS)


def test_psk_points_are_odd_roots_of_unity(psk16):
    for lab in range(1, 17):
        expected = cmath.exp(1j * (2 * lab - 1) * cmath.pi / 16)
        assert psk16.points[lab - 1] == pytest.approx(expected)
