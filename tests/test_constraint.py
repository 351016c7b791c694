"""Constraint partitions against a brute-force grouping oracle."""

import hashlib

import pytest

from lsnc import (
    build_constraints,
    constrained_pls,
    enumerate_singular_fade_states,
    make_custom,
    make_pam,
    make_psk,
    make_square_qam,
    psk_constraints_closed_form,
    psk_representative,
    psk_representatives,
)
from lsnc._numeric import cluster_complex
from lsnc.fade_state import as_exact_ratio
from lsnc.fixtures import load_grid

from conftest import SKEW_POINTS, gadd, gmul, gq


def brute_blocks(signal, s):
    """Group S x S cells by the clustered value of x_A + s*x_B."""
    m = signal.size
    cells = [(r, c) for r in range(1, m + 1) for c in range(1, m + 1)]
    vals = [signal.point(r) + s * signal.point(c) for r, c in cells]
    return {
        frozenset(cells[i] for i in grp) for grp in cluster_complex(vals)
    }


@pytest.mark.parametrize(
    "sig,fade",
    [
        ("qam4", 0.5 + 0.5j),
        ("qam4", -1 - 1j),
        ("pam4", -2 + 0j),
        ("qam8", -0.5 - 0.5j),
        ("psk8", psk_representative(8, 1, 3).value),
        ("psk8", psk_representative(8, 2, 4).value),
    ],
)
def test_partition_matches_brute_grouping(sig, fade, request):
    signal = request.getfixturevalue(sig)
    part = build_constraints(signal, fade)
    assert {frozenset(b) for b in part.blocks} == brute_blocks(signal, fade)


def test_partition_covers_all_cells(qam4_partition):
    cells = [c for b in qam4_partition.blocks for c in b]
    assert len(cells) == 16
    assert len(set(cells)) == 16


def test_nonsingular_state_gives_only_singletons(qam4):
    part = build_constraints(qam4, 0.3 + 0.1j)
    assert all(len(b) == 1 for b in part.blocks)
    assert part.multi_indices == ()


def test_blocks_sorted_by_first_cell(qam4_partition):
    firsts = [min(b) for b in qam4_partition.blocks]
    assert firsts == sorted(firsts)


def test_block_lookup(qam4_partition):
    bi = qam4_partition.block_of((1, 3))
    assert (3, 2) in qam4_partition.blocks[bi]
    with pytest.raises(KeyError):
        qam4_partition.block_of((9, 9))


def test_constrained_pls_matches_figure(qam4_partition):
    assert constrained_pls(qam4_partition) == load_grid("qam4_half1j_cpls")


def test_exact_and_float_paths_agree(qam8):
    # -0.5-0.5j reconstructs exactly; a tiny off-grid shift forces floats
    # (big enough to defeat rational reconstruction, far below the merge tol)
    exact_part = build_constraints(qam8, -0.5 - 0.5j)
    shifted = build_constraints(qam8, complex(-0.5, -0.5 - 1e-10))
    assert {frozenset(b) for b in exact_part.blocks} == {
        frozenset(b) for b in shifted.blocks
    }


class TestClosedForm:
    def test_blocks_are_paired_cells(self):
        part = psk_constraints_closed_form(8, 1, 3)
        assert len(part.blocks) == 16
        assert all(len(b) == 2 for b in part.blocks)

    def test_single_family_when_half(self):
        part = psk_constraints_closed_form(8, 1, 4)
        assert len(part.blocks) == 8

    @pytest.mark.parametrize("m,k,l", [(8, 1, 3), (8, 2, 1), (8, 1, 4), (16, 2, 6)])
    def test_matches_brute_multi_blocks(self, m, k, l, request):
        signal = request.getfixturevalue(f"psk{m}")
        rep = psk_representative(m, k, l)
        brute = build_constraints(signal, rep.value)
        cf = psk_constraints_closed_form(m, k, l)
        assert {frozenset(b) for b in cf.blocks} == {
            frozenset(b) for b in brute.multi_blocks()
        }

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            psk_constraints_closed_form(8, 3, 3)
        with pytest.raises(ValueError):
            psk_constraints_closed_form(12, 1, 2)


def ref_exact_blocks(signal, s):
    """The Fraction grouping that the integer-key kernel replaces."""
    g = gq(as_exact_ratio(s))
    pts = [gq(p) for p in signal.exact_points]
    m = signal.size
    by_val = {}
    for r in range(1, m + 1):
        for c in range(1, m + 1):
            v = gadd(pts[r - 1], gmul(g, pts[c - 1]))
            by_val.setdefault(v, []).append((r, c))
    return tuple(sorted((tuple(sorted(b)) for b in by_val.values()), key=lambda b: b[0]))


EXACT_SIGNALS = {
    "qam4": make_square_qam(4),
    "qam16": make_square_qam(16),
    "pam8": make_pam(8),
    "skew": make_custom(SKEW_POINTS),
    "qam64": make_square_qam(64),
}


# Plain-complex fades whose reconstruction has non-trivial denominators.
PLAIN_FADES = [0.1 + 0.2j, 1 / 3 + 0j, 0.37 + 0.11j, 1 / 7 - 2j / 9, -2.5 + 0.75j]


@pytest.mark.parametrize("name", ["qam4", "qam16", "pam8", "skew"])
def test_exact_kernel_matches_reference(name):
    signal = EXACT_SIGNALS[name]
    for fs in enumerate_singular_fade_states(signal):
        expected = ref_exact_blocks(signal, fs)
        assert build_constraints(signal, fs).blocks == expected
        assert build_constraints(signal, fs.value).blocks == expected
    for s in PLAIN_FADES:
        assert build_constraints(signal, s).blocks == ref_exact_blocks(signal, s)


@pytest.mark.parametrize(
    "name,step,sha256",
    [
        ("qam16", 1, "c38cb7fa62bcc14abde0a68f9d41db9f24e4df1c309375391c87784a6e7e4056"),
        ("qam64", 400, "b5b37d74a76af06af9f0e22954c45d486598426f3a8bd41145be1a99d6e890cf"),
        ("psk16", 1, "b155734f829c708dd6ea1549eb08579da9bd8b0e0f0cc68b24e26d4fe1a7fafd"),
        ("psk32", 1, "adb624461778e24e2f2460301554d2bb6bf1e14057f688a5f092a2c8e1f72340"),
    ],
    ids=["qam16-all", "qam64-every-400th", "psk16-representatives", "psk32-representatives"],
)
def test_partitions_match_golden_hash(name, step, sha256):
    # QAM hashes were taken from the Gaussian-rational grouping, PSK ones
    # from the float clustering of the representatives; they pin every
    # block in order.
    if name.startswith("psk"):
        m = int(name[3:])
        signal, states = make_psk(m), psk_representatives(m)
    else:
        signal = EXACT_SIGNALS[name]
        states = enumerate_singular_fade_states(signal)[::step]
    dump = "".join(f"{build_constraints(signal, fs).blocks!r}\n" for fs in states)
    assert hashlib.sha256(dump.encode()).hexdigest() == sha256
