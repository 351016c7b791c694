"""Acceptance gate: eight end-to-end criteria, one test (and one report
line) each.  Run with -v to get the per-criterion pass/fail listing; each
test also prints `criterion N: PASS (t)` for -s runs.

Every criterion carries a wall-clock ceiling, asserted at the end of the
test so a pathological slowdown fails loudly rather than silently.
"""

import cmath
import itertools
import json
import random
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

from lsnc import (
    Coloring,
    Grid,
    build_constraints,
    build_srg,
    column_rotate,
    complete_rows_hall,
    constrained_pls,
    effective_constellation,
    enumerate_singular_fade_states,
    exact_chromatic,
    extend_coloring,
    find_sdr,
    from_coloring,
    make_custom,
    make_psk,
    make_square_qam,
    psk_constraints_closed_form,
    psk_representative,
    psk_representatives,
    psk_singular_fade_states,
    qam_clique_certificate,
    row_clique,
    transpose,
    verify_latin,
    verify_proper,
    verify_removes,
    vital_subgraph,
)
from lsnc.fixtures import load_grid, load_points
from lsnc.psk_construct import remove_all_psk
from lsnc.srg import QAM_CLIQUE_STATES

from conftest import random_latin_square


# criterion 8's four parts share one 120 s budget
_C8_TIMES: dict[str, float] = {}


@contextmanager
def criterion(number, limit_s):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    if isinstance(number, str) and number.startswith("8"):
        _C8_TIMES[number] = elapsed
        elapsed = sum(_C8_TIMES.values())
    print(f"criterion {number}: PASS ({elapsed:.2f}s, limit {limit_s}s)")
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s (limit {limit_s}s)"


@lru_cache(maxsize=None)
def psk_signal(m):
    return make_psk(m)


@lru_cache(maxsize=None)
def psk_partition(m, k, l):
    return build_constraints(psk_signal(m), psk_representative(m, k, l).value)


@lru_cache(maxsize=None)
def psk_squares(m):
    return remove_all_psk(m)


def fully_verified(grid, part, m):
    return (
        grid.is_complete()
        and verify_latin(grid)
        and verify_removes(grid, part)
        and grid.symbol_count == m
    )


# --- 1: the 4-QAM worked example, end to end, exactly -----------------------

EXAMPLE_BLOCKS = [
    {(1, 3), (3, 2)}, {(1, 4), (2, 1)}, {(2, 3), (4, 2)}, {(3, 4), (4, 1)},
    {(1, 1)}, {(1, 2)}, {(2, 2)}, {(2, 4)},
    {(3, 1)}, {(3, 3)}, {(4, 3)}, {(4, 4)},
]


def test_criterion_1_qam4_pipeline_exact():
    with criterion(1, 1.0):
        qam4 = make_square_qam(4)
        part = build_constraints(qam4, 0.5 + 0.5j)
        assert {frozenset(b) for b in part.blocks} == {
            frozenset(b) for b in EXAMPLE_BLOCKS
        }
        assert constrained_pls(part) == load_grid("qam4_half1j_cpls")
        graph = build_srg(part)
        result = exact_chromatic(graph)
        assert result.optimal and result.chi == 5
        emitted = from_coloring(part, result.coloring)
        assert verify_latin(emitted) and verify_removes(emitted, part)
        assert emitted.symbol_count == 5
        printed = load_grid("qam4_half1j_ls")
        assert verify_latin(printed) and verify_removes(printed, part)
        assert printed.symbol_count == 5


# --- 2: effective constellation of 4-QAM at (1+j)/2 -------------------------

def test_criterion_2_effective_constellation():
    with criterion(2, 0.1):
        expected = [
            1, -1, 1j, -1j,
            2 + 1j, 2 - 1j, -2 + 1j, -2 - 1j,
            1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j,
        ]
        points, dmin = effective_constellation(make_square_qam(4), 0.5 + 0.5j)
        assert len(points) == 12
        assert dmin == 0
        # superset-free: a bijection within 1e-9
        for e in expected:
            assert sum(abs(p - e) < 1e-9 for p in points) == 1


# --- 3: 8-PSK singular fade states, brute force vs closed form --------------

def test_criterion_3_psk8_fade_states():
    with criterion(3, 1.0):
        brute = enumerate_singular_fade_states(psk_signal(8))
        closed = psk_singular_fade_states(8)
        assert len(brute) == 104
        assert len(closed) == (8 * 8 // 4 - 8 // 2 + 1) * 8 == 104
        assert len({round(fs.radius, 9) for fs in closed}) == 13
        for c in closed:
            assert sum(abs(c.value - b.value) < 1e-9 for b in brute) == 1
        for b in brute:
            assert sum(abs(c.value - b.value) < 1e-9 for c in closed) == 1


# --- 4: 8-PSK sweep with chromatic-number certificates -----------------------

def test_criterion_4_psk8_sweep_certified():
    with criterion(4, 10.0):
        reps = psk_representatives(8)
        squares = psk_squares(8)
        assert len(reps) == len(squares) == 12
        for fs in reps:
            part = psk_partition(8, fs.k, fs.l)
            assert fully_verified(squares[(fs.k, fs.l)], part, 8)
            clique = row_clique(build_srg(part), part)
            assert len(clique) == 8  # chi >= 8; the 8-symbol square closes it


# --- 5: 16-PSK sweep plus the transcribed final squares ---------------------

def test_criterion_5_psk16_sweep_and_transcriptions():
    with criterion(5, 60.0):
        squares = psk_squares(16)
        assert len(squares) == 56
        for (k, l), grid in squares.items():
            assert fully_verified(grid, psk_partition(16, k, l), 16)
        finals = [
            (8, 1, 3, "psk8_k1_l3_ls"),
            (16, 2, 6, "psk16_k2_l6_ls"),
            (8, 2, 4, "psk8_k2_l4_ls"),
            (16, 1, 2, "psk16_k1_l2_ls"),
        ]
        for m, k, l, name in finals:
            assert fully_verified(load_grid(name), psk_partition(m, k, l), m)


# --- 6: square-QAM clique certificates and the extra-symbol cost ------------

def test_criterion_6_qam_cliques():
    with criterion(6, 30.0):
        for s in QAM_CLIQUE_STATES:
            assert len(qam_clique_certificate(4, s)) == 5
            assert len(qam_clique_certificate(16, s)) == 17
        qam4 = make_square_qam(4)
        for s in QAM_CLIQUE_STATES:
            part = build_constraints(qam4, s)
            result = exact_chromatic(build_srg(part))
            assert result.optimal and result.chi == 5


# --- 7: the two-step coloring dead end on the 8-point cross set --------------

QAM8_POINTS = [-3 - 1j, -3 + 1j, -1 - 1j, -1 + 1j, 1 - 1j, 1 + 1j, 3 - 1j, 3 + 1j]

# Merge classes of the worked example: vital block i (1-indexed, in block
# order) gets the class's color.  This was proposed as an 8-symbol start.
STATED_CLASSES = [
    (1, 9), (2, 15), (3, 18), (4, 16, 17),
    (5, 11, 12), (6, 13), (7, 10), (8, 14),
]


def test_criterion_7_two_step_dead_end():
    with criterion(7, 10.0):
        signal = make_custom(QAM8_POINTS)
        part = build_constraints(signal, -0.5 - 0.5j)
        graph = build_srg(part)
        assert len(part.multi_indices) == 18
        partial = {
            part.multi_indices[sym - 1]: color
            for color, members in enumerate(STATED_CLASSES, 1)
            for sym in members
        }
        vital = vital_subgraph(graph, part)
        stated = Coloring(
            tuple(partial[vital.vertex_block[i]] for i in range(vital.n))
        )
        assert verify_proper(vital, stated)  # the start itself is proper...
        assert extend_coloring(graph, partial, 8) is None  # ...but a dead end
        direct = load_grid("qam8_rect_ls")  # an 8-symbol square does exist
        assert fully_verified(direct, part, 8)


# --- 8: property suites ------------------------------------------------------

def test_criterion_8a_hall_rectangles():
    with criterion("8a", 120.0):
        rng = random.Random(20260818)
        cases = [4] * 34 + [8] * 33 + [16] * 33
        for m in cases:
            r = rng.randrange(1, m)
            square = random_latin_square(m, rng)
            rect = Grid.from_lists(
                [list(row) for row in square.rows[:r]] + [[0] * m] * (m - r)
            )
            done = complete_rows_hall(rect)
            assert verify_latin(done) and done.is_complete()
            assert done.rows[:r] == rect.rows[:r]


def test_criterion_8b_sdr_vs_exhaustive_hall():
    with criterion("8b", 120.0):
        rng = random.Random(8181)
        for _ in range(200):
            n = rng.randint(1, 12)
            universe = range(rng.randint(1, 14))
            family = [
                sorted(rng.sample(universe, rng.randint(0, min(4, len(universe)))))
                for _ in range(n)
            ]
            res = find_sdr(family)
            hall_ok = all(
                len(set().union(*(family[i] for i in sub))) >= len(sub)
                for r in range(1, n + 1)
                for sub in itertools.combinations(range(n), r)
            )
            assert res.ok == hall_ok
            if res.ok:
                assert len(set(res.representatives)) == n
                for rep, s in zip(res.representatives, family):
                    assert rep in s
            else:
                union = set().union(*(family[i] for i in res.violating))
                assert len(union) < len(res.violating)


def test_criterion_8c_transform_laws_on_pipeline_outputs():
    with criterion("8c", 120.0):
        # the emitted 4-QAM square: transposing removes the inverse state
        qam4 = make_square_qam(4)
        s = 0.5 + 0.5j
        part = build_constraints(qam4, s)
        emitted = from_coloring(part, exact_chromatic(build_srg(part)).coloring)
        assert verify_removes(transpose(emitted), build_constraints(qam4, 1 / s))
        # every PSK sweep output: transpose and one column rotation
        for m in (8, 16):
            rot = cmath.exp(2j * cmath.pi / m)
            for (k, l), grid in psk_squares(m).items():
                sv = psk_representative(m, k, l).value
                assert verify_removes(
                    transpose(grid), build_constraints(psk_signal(m), 1 / sv)
                )
                assert verify_removes(
                    column_rotate(grid, 1),
                    build_constraints(psk_signal(m), sv * rot),
                )


def test_criterion_8d_closed_forms_vs_brute_oracles():
    with criterion("8d", 120.0):
        for m in (8, 16):
            for fs in psk_representatives(m):
                k, l = fs.k, fs.l
                brute = psk_partition(m, k, l)
                cf = psk_constraints_closed_form(m, k, l)
                assert {frozenset(b) for b in cf.blocks} == {
                    frozenset(b) for b in brute.multi_blocks()
                }
                brute_vital = vital_subgraph(build_srg(brute), brute)
                cf_graph = build_srg(cf)
                assert cf_graph.n == brute_vital.n
                brute_edges = {
                    frozenset(
                        (
                            frozenset(brute.blocks[brute_vital.vertex_block[u]]),
                            frozenset(brute.blocks[brute_vital.vertex_block[v]]),
                        )
                    )
                    for u, v in brute_vital.edges()
                }
                cf_edges = {
                    frozenset((frozenset(cf.blocks[u]), frozenset(cf.blocks[v])))
                    for u, v in cf_graph.edges()
                }
                assert cf_edges == brute_edges
