"""Constraint partitions against a brute-force grouping oracle."""

import cmath
import hashlib
import math
import random
import re
from functools import cache, partial

import pytest

import lsnc.constraint
from lsnc import (
    Coloring,
    ConstraintPartition,
    build_constraints,
    constrained_pls,
    effective_constellation,
    enumerate_singular_fade_states,
    from_coloring,
    from_spec,
    make_custom,
    make_pam,
    make_psk,
    make_square_qam,
    psk_constraints_closed_form,
    psk_representative,
    psk_representatives,
    psk_singular_fade_states,
)
from lsnc._numeric import canon_complex, cluster_complex, complex_sort_key
from lsnc.errors import AmbiguousGroupingError
from lsnc.signal_set import SignalSet
from lsnc.fade_state import (
    RECONSTRUCT_DEN,
    FadeState,
    _psk_radii,
    as_exact_ratio,
    as_psk_ratio,
)
from lsnc.fixtures import load_grid

from conftest import SKEW_POINTS, gadd, gmul, gq


def float_grouping(signal, s, effective=True):
    """Blocks and (if asked) effective constellation of x_A + s*x_B by float
    clustering of the S x S cells: the brute-force grouping, as `superpose`
    grouped every PSK fade before exact keys."""
    m = signal.size
    sv = complex(s)
    cells = [(r, c) for r in range(1, m + 1) for c in range(1, m + 1)]
    vals = [signal.points[r - 1] + sv * signal.points[c - 1] for r, c in cells]
    groups = cluster_complex(vals)
    blocks = tuple(tuple(cells[i] for i in g) for g in groups)
    if not effective:
        return blocks, None
    pts = tuple(sorted((canon_complex(vals[g[0]]) for g in groups), key=complex_sort_key))
    if len(groups) < len(vals):
        return blocks, (pts, 0.0)
    dmin = min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])
    return blocks, (pts, dmin)


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
    blocks, _ = float_grouping(signal, fade, effective=False)
    assert {frozenset(b) for b in part.blocks} == {frozenset(b) for b in blocks}


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
    # Off the grid: no index of the label grid may wrap round or be read.
    for cell in [(9, 9), (0, 1), (1, 0), (-1, 2), (5, 1), (1, 5)]:
        with pytest.raises(KeyError):
            qam4_partition.block_of(cell)
    # A closed form covers only its multi-cell blocks; label -1 is no block.
    part = psk_constraints_closed_form(8, 1, 4)
    covered = {cell for block in part.blocks for cell in block}
    uncovered = [(r, c) for r in range(1, 9) for c in range(1, 9) if (r, c) not in covered]
    assert len(uncovered) == 48
    for cell in uncovered:
        with pytest.raises(KeyError):
            part.block_of(cell)
    assert [part.block_of(cell) for block in part.blocks for cell in block] == [
        i for i, block in enumerate(part.blocks) for _ in block
    ]


@pytest.mark.parametrize(
    "blocks,message",
    [
        # (0, 1) would land at index -2, the label of (2, 1)
        ((((0, 1), (1, 2)), ((2, 2),), ((1, 1),)), "cell (0, 1) of block 0 is outside 1..2"),
        ((((1, 1),), ((2, 1), (2, 3))), "cell (2, 3) of block 1 is outside 1..2"),
        # the later block would take the cell without a word
        ((((1, 1), (1, 2)), ((2, 1),), ((1, 2), (2, 2))), "cell (1, 2) is in blocks 0 and 2"),
    ],
    ids=["row-0", "column-3", "in-two-blocks"],
)
def test_partition_rejects_a_bad_cell(blocks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ConstraintPartition(2, blocks)


@pytest.mark.parametrize("count", [14, 15, 17])
def test_fill_rejects_a_wrong_value_count(count):
    # 16 blocks: 15 values would leave the last block empty, 14 would index
    # past the values, and a 17th would be ignored.
    part = psk_constraints_closed_form(8, 1, 3)
    with pytest.raises(ValueError, match=f"^{count} values for 16 blocks$"):
        part.fill(list(range(1, count + 1)))
    assert sum(row.count(0) for row in part.fill(list(range(1, 17))).rows) == 32


def test_from_coloring_names_both_counts():
    part = psk_constraints_closed_form(8, 1, 3)
    message = "coloring covers 15 vertices, partition has 16 blocks"
    with pytest.raises(ValueError, match=f"^{message}$"):
        from_coloring(part, Coloring(tuple(range(1, 16))))


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


# Packed Z[i] keys and the label grid against the tuple keys they replace.

def tuple_key_blocks(signal, s):
    """Blocks keyed by the (re, im) pair d*x_A + (a + bj)*x_B, as `superpose`
    grouped integer-grid sets before packed keys."""
    a, b, d = as_exact_ratio(s)
    pts = signal.exact_points
    g_col = [(a * yr - b * yi, a * yi + b * yr) for yr, yi in pts]
    groups = {}
    for r, (xr, xi) in enumerate(pts, 1):
        for c, (ur, ui) in enumerate(g_col, 1):
            groups.setdefault((d * xr + ur, d * xi + ui), []).append((r, c))
    return tuple(map(tuple, groups.values()))


def assert_labels(part):
    """Cell (r, c) of block i has label i at (r-1)*M + c-1; every other cell
    has -1."""
    m, labels = part.m, part.labels
    assert len(labels) == m * m
    for i, block in enumerate(part.blocks):
        for r, c in block:
            assert labels[(r - 1) * m + c - 1] == i, (i, r, c)
    assert sum(lab >= 0 for lab in labels) == sum(map(len, part.blocks))
    assert min(labels, default=-1) >= -1


def exact_fade(a, b, q):
    """The fade (a + bj)/q with its exact triple, reduced."""
    g = math.gcd(a, b, q)
    a, b, q = a // g, b // g, q // g
    return FadeState(value=complex(a / q, b / q), exact_value=(a, b, q))


def random_fades(seed, count):
    """Exact fades (a + bj)/q with q up to RECONSTRUCT_DEN."""
    rng = random.Random(seed)
    fades = []
    for _ in range(count):
        q = rng.choice([rng.randint(1, 60), rng.randint(1, RECONSTRUCT_DEN)])
        fades.append(exact_fade(rng.randint(-4 * q, 4 * q), rng.randint(-4 * q, 4 * q), q))
    return fades


# Large q: the digits of the packed pair run to tens of bits.
LARGE_Q_FADES = [
    exact_fade(-29, 22, 53),
    exact_fade(29, -22, 53),
    exact_fade(-999_983, 1, RECONSTRUCT_DEN),
    exact_fade(3, 7 * RECONSTRUCT_DEN, RECONSTRUCT_DEN - 1),
    exact_fade(-(10**30) - 1, 10**30, 10**30 + 7),
]


@pytest.mark.parametrize(
    "name,step", [("qam4", 1), ("qam16", 1), ("pam4", 1), ("qam64", 7), ("skew", 1)],
    ids=["qam4-all", "qam16-all", "pam4-all", "qam64-every-7th", "skew-all"],
)
def test_packed_keys_match_tuple_keys(name, step, request):
    # Square QAM and PAM points have odd coordinates, so two keys differ by
    # even amounts and would stay apart with a digit one bit narrower; the
    # skew set's states are where a digit at its bound matters.  64-QAM's
    # states and partitions come from the session's fixtures.
    signal = make_pam(4) if name == "pam4" else EXACT_SIGNALS[name]
    if name == "qam64":
        states = request.getfixturevalue("qam64_states")[::step]
        partition = request.getfixturevalue("qam64_partition")
    else:
        states = enumerate_singular_fade_states(signal)[::step]
        partition = partial(build_constraints, signal)
    stride = 1 + len(states) // 40  # labels of a sample
    for i, fs in enumerate(states):
        part = partition(fs)
        assert part.blocks == tuple_key_blocks(signal, fs), fs
        if i % stride == 0:
            assert_labels(part)


@pytest.mark.parametrize("name", ["qam4", "qam16", "pam4", "pam8", "skew", "qam64"])
def test_packed_keys_at_large_q_and_random_rationals(name):
    signal = make_pam(4) if name == "pam4" else EXACT_SIGNALS[name]
    fades = LARGE_Q_FADES + random_fades(name, 20 if name == "qam64" else 200)
    for fs in fades:
        part = build_constraints(signal, fs)
        assert part.blocks == tuple_key_blocks(signal, fs), fs.exact_value
        assert_labels(part)
        if max(map(abs, fs.exact_value)) <= 8 * RECONSTRUCT_DEN:
            # The same number as a plain complex reconstructs to the triple.
            assert build_constraints(signal, fs.value).blocks == part.blocks


@pytest.mark.parametrize(
    "spec,s",
    [("qam:16", 0), ("qam:16", -1 - 1j), ("qam:64", exact_fade(-29, 22, 53)),
     ("psk:8", psk_representative(8, 1, 3)), ("psk:8", 0.3 + 0.1j)],
    ids=["qam16-fade-0", "qam16-keys", "qam64-keys", "psk8-keys", "psk8-float"],
)
def test_superpose_returns_tuple_blocks(spec, s):
    # Packed Z[i] keys, Z[zeta] keys and float clustering all hand
    # build_constraints the tuples it keeps.
    signal = from_spec(spec)
    blocks, labels, _ = lsnc.constraint.superpose(signal, s)
    assert all(type(block) is tuple for block in blocks)
    part = build_constraints(signal, s)
    assert part.blocks == tuple(blocks) and part.labels == tuple(labels)
    if signal.exact_points is not None:
        assert part.blocks == tuple_key_blocks(signal, s)
    if s == 0:
        # Every block is a whole row: the largest blocks, M cells each.
        m = signal.size
        assert part.blocks == tuple(tuple((r, c) for c in range(1, m + 1)) for r in range(1, m + 1))


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_labels_of_closed_forms_and_float_groupings(m):
    # Closed forms hold only their multi-cell blocks: every other cell is -1.
    for k in range(1, m // 2 + 1):
        for l in range(1, m // 2 + 1):
            if k != l:
                assert_labels(psk_constraints_closed_form(m, k, l))
    signal = make_psk(m)
    for fs in psk_representatives(m)[:: m // 2]:
        assert_labels(build_constraints(signal, fs))
    assert_labels(build_constraints(signal, 0.3 + 0.1j))  # float clustering


# Exact Z[zeta] keys for M-PSK against the float grouping they replace.

@cache
def psk_states(name):
    """(signal, fade states) of one built-in PSK state family."""
    kind, m = name.rsplit("-", 1)
    m = int(m)
    if kind == "brute":
        states = enumerate_singular_fade_states(make_psk(m))
    elif kind == "closed":
        states = psk_singular_fade_states(m)
    else:
        states = psk_representatives(m)[:: 8 if m == 64 else 1]
    return make_psk(m), states


PSK_FAMILIES = (
    [f"brute-{m}" for m in range(2, 13)]
    + ["closed-8", "closed-16", "reps-32", "reps-64"]
)


def refuse_float_clustering(monkeypatch):
    """Make `superpose` fail if it falls back to float clustering."""

    def refuse(values):
        raise AssertionError(f"float clustering of {len(values)} values")

    monkeypatch.setattr(lsnc.constraint, "cluster_complex", refuse)


@pytest.mark.parametrize("name", PSK_FAMILIES)
def test_psk_exact_keys_match_float_grouping(name, monkeypatch):
    # brute-N: every brute-force state of N-PSK; closed-N: every closed-form
    # state; reps-32: every representative; reps-64: every 8th one.  The
    # reference clusters through its own import of cluster_complex; lsnc
    # must not cluster at all.
    signal, states = psk_states(name)
    refuse_float_clustering(monkeypatch)
    for fs in states:
        assert as_psk_ratio(signal.size, fs) is not None, fs
        blocks, expected = float_grouping(signal, fs.value, effective=signal.size <= 32)
        assert build_constraints(signal, fs.value).blocks == blocks, fs
        assert len(build_constraints(signal, fs).blocks) < signal.size**2, fs
        if expected is not None:
            assert expected[1] == 0.0
            assert effective_constellation(signal, fs) == expected, fs


def test_float_clustering_spy_is_live(monkeypatch, psk8):
    refuse_float_clustering(monkeypatch)
    build_constraints(psk8, psk_representative(8, 1, 3).value)
    for s in (0.3 + 0.1j, psk_representative(8, 1, 3).value + 1e-8):
        with pytest.raises(AssertionError, match="float clustering of 64 values"):
            build_constraints(psk8, s)


@pytest.mark.parametrize("m", [4, 6, 8, 12, 16])
def test_psk_effective_constellation_at_regular_fades(m):
    # Random fades take the float path; the zeta^e*sin(u*pi/M)/sin(t*pi/M)
    # that are not singular take the exact one and have every cell apart.
    signal = make_psk(m)
    rng = random.Random(m)
    fades = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)]
    radii, _ = _psk_radii(m)
    exact = (cmath.rect(r, e * math.pi / m) for r in radii for e in range(2 * m))
    regular = (s for s in exact if len(build_constraints(signal, s).blocks) == m * m)
    regular_exact = list(regular)[:: 4 * m][:5]
    assert regular_exact and all(as_psk_ratio(m, s) is not None for s in regular_exact)
    for s in fades + regular_exact:
        blocks, expected = float_grouping(signal, s)
        assert expected[1] > 0, s
        assert effective_constellation(signal, s) == expected, s
        assert build_constraints(signal, s).blocks == blocks, s


def test_psk_kind_with_other_points_keeps_the_float_path(psk8):
    # Exact keys assume point i is zeta^(2i-1); a set merely tagged "psk"
    # with its points in another order is grouped by its own values.
    reordered = SignalSet(psk8.points[::-1], "psk")
    for fs in psk_representatives(8):
        assert build_constraints(reordered, fs.value).blocks == float_grouping(reordered, fs.value)[0]


def radius(m, u, t):
    return math.sin(u * math.pi / m) / math.sin(t * math.pi / m)


def _near(s, eps):
    return [s + eps, s - eps, s + eps * 1j, s - eps * 1j]


@pytest.mark.parametrize("m", [8, 16])
def test_psk_fade_a_hair_from_a_state_keeps_its_partition(m):
    signal = make_psk(m)
    for fs in psk_representatives(m) + psk_singular_fade_states(m)[::7]:
        expected = build_constraints(signal, fs.value).blocks
        e, u, t = as_psk_ratio(m, fs.value)
        for s in _near(fs.value, 1e-13):
            e2, u2, t2 = as_psk_ratio(m, s)
            assert e2 == e and radius(m, u2, t2) == pytest.approx(radius(m, u, t), abs=1e-12)
            assert build_constraints(signal, s).blocks == expected, s


def test_psk_fade_1e8_off_a_state_is_ambiguous(psk8):
    s = psk_representative(8, 1, 3).value
    assert complex(0.4142135723730951) == s + 1e-8
    for fs in psk_representatives(8):
        for near in _near(fs.value, 1e-8):
            assert as_psk_ratio(8, near) is None
            with pytest.raises(AmbiguousGroupingError):
                build_constraints(psk8, near)


@pytest.mark.parametrize(
    "s",
    [0j, complex("nan"), complex("inf"), 1e308 + 1e308j, complex(1e308, 0), complex(0, -1e308),
     complex(1.5e308, -1.5e308), complex(float("nan"), 1), complex(1, float("-inf")), 1e300 + 0j],
    ids=repr,
)
def test_psk_fade_that_denotes_nothing_keeps_the_float_path(s, psk8):
    assert as_psk_ratio(8, s) is None  # and no OverflowError from abs or round
    try:
        blocks, expected = float_grouping(psk8, s)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            effective_constellation(psk8, s)
        assert str(info.value) == str(exc)
        with pytest.raises(ValueError) as info:
            build_constraints(psk8, s)
        assert str(info.value) == str(exc)
        return
    assert build_constraints(psk8, s).blocks == blocks
    assert effective_constellation(psk8, s) == expected


@pytest.mark.parametrize("m", [3, 8, 12, 16, 64])
def test_psk_ratio_lookup_on_either_side_of_a_table_entry(m):
    # A fade just below a tabled radius falls before it in the sorted table,
    # one just above falls after it; both must find it.  A fade on the
    # negative real axis sits on the phase cut at +-pi.
    radii, _ = _psk_radii(m)
    for r in radii:
        for e in {0, 1, m - 1, m, m + 1, 2 * m - 1}:
            for dr in (-1e-13, 0.0, 1e-13):
                s = cmath.rect(r + dr, e * math.pi / m)
                found = as_psk_ratio(m, s)
                assert found is not None, (r, dr, e)
                e2, u, t = found
                assert e2 == e and radius(m, u, t) == pytest.approx(r, abs=1e-12)
        for im in (0.0, -0.0, 1e-13, -1e-13):
            assert as_psk_ratio(m, complex(-r, im))[0] == m
