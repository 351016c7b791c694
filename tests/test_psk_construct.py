"""Closed-form PSK constructions: case routing, vital colorings, completions."""

import hashlib
import re

import pytest

from lsnc import (
    Coloring,
    build_constraints,
    build_srg,
    constrained_pls,
    exact_chromatic,
    from_coloring,
    make_psk,
    psk_constraints_closed_form,
    psk_representative,
    psk_representatives,
    psk_singular_fade_states,
    verify_latin,
    verify_proper,
    verify_removes,
)
from lsnc import latin, psk_construct
from lsnc.constraint import ConstraintPartition
from lsnc.errors import CompletionError
from lsnc.fixtures import load_grid
from lsnc.gridio import dumps_grid
from lsnc.latin import Grid, SdrResult, extend_symbols
from lsnc.psk_construct import (
    BOTH_ODD,
    DIFF_POWER,
    MIXED,
    SAME_POWER,
    SIN_EVEN,
    SIN_ODD,
    _base_rows,
    _oriented,
    classify,
    psk_column_offsets,
    remove_all_psk,
    removal_square,
    vital_coloring,
    vital_pfls,
)

from conftest import swap_first_cells


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


# Parity-split colorings use 4 classes; the two-symbol-per-row b-cell
# constructions start from 8.
VITAL_COLORS = {BOTH_ODD: 4, SAME_POWER: 4, SIN_ODD: 4, SIN_EVEN: 4, MIXED: 8, DIFF_POWER: 8}


@pytest.mark.parametrize(
    "m,k,l,colors",
    [
        (m, fs.k, fs.l, VITAL_COLORS[classify(m, fs.k, fs.l).tag])
        for m in (8, 16, 32)
        for fs in psk_representatives(m)
    ],
)
def test_vital_coloring_is_proper(m, k, l, colors):
    # The library certifies the vital coloring by the Latin grid it fills;
    # the removal graph of the closed-form constraints is the oracle.
    case = classify(m, k, l)
    _, _, coloring = vital_pfls(case)
    assert verify_proper(build_srg(psk_constraints_closed_form(m, case.bk, case.bl)), coloring)
    assert coloring.k == colors


def paper_vital_coloring(case):
    """The vital coloring by the paper's four per-case formulas."""
    m, k, l = case.m, case.bk, case.bl

    def val2(n):
        return (n & -n).bit_length() - 1

    def four_block_color(v, blk, upper_split):
        # blocks of width 2^blk alternate two colors, optionally re-split
        # into a lower and an upper half
        i = v // (1 << blk) + 1
        c = 1 if i % 2 else 2
        if upper_split is not None and i > upper_split:
            c += 2
        return c

    if case.tag in (SIN_ODD, SIN_EVEN):
        blk = 0 if case.tag == SIN_ODD else val2(k)
        return [four_block_color(v, blk, (m >> blk) // 2) for v in range(m)]
    if case.tag in (BOTH_ODD, SAME_POWER):
        part = [four_block_color(v, val2(k), None) for v in range(m)]
        return part + [c + 2 for c in part]
    part = []
    if case.tag == MIXED:
        mv = val2(k if k % 2 == 0 else l)
        for v in range(m):
            i = v // (1 << mv) + 1
            part.append((1 if i % 2 else 2) if (v + 1) % 2 else (3 if i % 2 else 4))
    else:
        assert case.tag == DIFF_POWER
        m1, m2 = val2(k), val2(l)
        for v in range(m):
            i = v % (1 << (m2 + 1)) // (1 << m1) + 1
            part.append((1 if i % 2 else 2) + (2 if i > (1 << (m2 - m1)) else 0))
    return part + [c + 4 for c in part]


@pytest.mark.parametrize("m", [8, 16, 32, 64, 128])
def test_vital_coloring_matches_the_paper_formulas(m):
    for fs in psk_representatives(m):
        case = classify(m, fs.k, fs.l)
        assert list(vital_coloring(case).colors) == paper_vital_coloring(case), (fs.k, fs.l)


def test_vital_coloring_rejects_an_unknown_tag():
    case = psk_construct.PskCase(8, 1, 3, "Unknown", bk=1, bl=3)
    with pytest.raises(ValueError, match="unknown case tag Unknown"):
        vital_coloring(case)


def test_vital_pfls_matches_worked_example():
    grid, _, _ = vital_pfls(classify(8, 1, 3))
    assert grid == load_grid("psk8_k1_l3_pfls")


def working(rows):
    """`rows` as a working grid: its rows and each line's symbol mask."""
    def symbols(line):
        return sum(1 << s for s in set(line) - {0})

    return rows, list(map(symbols, rows)), list(map(symbols, zip(*rows)))


def put(work, r, c, sym):
    """Write sym into working cell (r, c) and its row and column masks."""
    rows, row_syms, col_syms = work
    rows[r - 1][c - 1] = sym
    row_syms[r - 1] |= 1 << sym
    col_syms[c - 1] |= 1 << sym


def top_up(work, case):
    """Fill the closed-form top-up cells of a Sin, DiffPower or Mixed
    working grid in place and return the rectangle height, 4 or 8.

    Appendix A tops up one cell per row of a Sin grid (M constraints, 4
    symbols), Appendix B two per row of a DiffPower/Mixed grid (2M
    constraints, 8 symbols).  Each cell takes the one symbol of 1..4, or of
    5..8 for the second cell of a pair, that its row and column lack.
    """
    m, k = case.m, case.bk
    _, row_syms, col_syms = work
    if case.tag in (SIN_ODD, SIN_EVEN):
        d = m // 4 + ((k - 1) // 2 if k % 2 else k // 2 - (k & -k))
        cells = [(i + 1, (i - d) % m + 1, range(1, 5)) for i in range(m)]
    else:
        d1, d2 = psk_column_offsets(k, case.bl)
        cells = [(i + 1, (i - d1) % m + 1, range(1, 5)) for i in range(m)]
        cells += [(i + 1, (i + m // 2 - d2) % m + 1, range(5, 9)) for i in range(m)]
    for r, c, syms in cells:
        present = row_syms[r - 1] | col_syms[c - 1]
        absent = [s for s in syms if not present >> s & 1]
        if len(absent) != 1:
            raise CompletionError(
                f"cell {(r, c)} admits {len(absent)} symbols of {syms}, expected 1"
            )
        put(work, r, c, absent[0])
    return syms.stop - 1  # the largest symbol placed


def rectangle_complete(work, n_rect):
    """Finish symbols 1..n_rect via an SDR, then extend the working grid to
    a Latin Square in place (`extend_symbols`, which then places only the
    fresh symbols n_rect+1..M).

    Cell (r, c) of the paper's symbol/row-interchanged rectangle holds j
    exactly when working cell (j, c) holds r, so the SDR family is read off
    the working grid's masks and each rectangle fill is written there.  The
    writes are not checked: a bad SDR leaves a column without one of the
    symbols 1..n_rect, or a line that `extend_symbols` finds repeated.
    """
    rows, row_syms, col_syms = work
    family, fill_syms = [], []
    for j, (row, have) in enumerate(zip(rows, row_syms), 1):
        empty = [c for c, v in enumerate(row, 1) if not v]
        for r in range(1, n_rect + 1):
            if have >> r & 1:
                continue
            cells = [(r, c) for c in empty if not col_syms[c - 1] >> r & 1]
            if not cells:
                raise CompletionError(
                    f"symbol {j} has no admissible cell in a row that lacks it"
                )
            family.append(cells)
            fill_syms.append(j)
    sdr = latin.find_sdr(family)
    if not sdr.ok:
        raise CompletionError(f"no SDR; Hall violator {sdr.violating}")
    for (r, c), j in zip(sdr.representatives, fill_syms):
        put(work, j, c, r)
    # Interchanged, the rows 1..n_rect are a Latin rectangle.
    for c, col in enumerate(zip(*rows), 1):
        if {0, *col} != set(range(n_rect + 1)):
            raise CompletionError(f"column {c} does not hold exactly the symbols 1..{n_rect}")
    extend_symbols(rows)


def diagonal_fill(rows):
    """Fill each empty wrap-around diagonal of a BothOdd or SamePower vital
    grid in place with a fresh symbol: 5, 6, ... for the empty cells of row
    1 from left to right, each shifted one column right per row."""
    m = len(rows)
    for sym, c in enumerate([c for c, v in enumerate(rows[0]) if not v], 5):
        for r, row in enumerate(rows):
            row[(c + r) % m] = sym


def paper_complete(case):
    """The (bk, bl) square by the paper's completion of the vital grid: the
    diagonal fill for BothOdd and SamePower, else top-up, SDR and Latin
    rectangle extension."""
    rows = vital_pfls(case)[0].to_lists()
    if case.tag in (BOTH_ODD, SAME_POWER):
        diagonal_fill(rows)
    else:
        work = working(rows)
        rectangle_complete(work, top_up(work, case))
    return rows


def topped_up(case):
    """The vital partial grid of `case` after its closed-form top-up."""
    rows = vital_pfls(case)[0].to_lists()
    top_up(working(rows), case)
    return Grid.from_lists(rows)


# The paper's Mixed figure numbers the vital colours with 2 <-> 3 and 6 <-> 7
# exchanged against the library's.
FIGURE_COLOURS = {"psk16_k1_l2": {2: 3, 3: 2, 6: 7, 7: 6}}


@pytest.mark.parametrize(
    "name",
    ["psk8_k1_l3_cpls", "psk8_k2_l4_cpls", "psk16_k1_l2_cpls", "psk16_k2_l6_cpls",
     "psk8_k2_l4_pfls", "psk16_k2_l6_pfls", "psk16_k1_l2_pfls",
     "psk8_k2_l4_pfls_b", "psk16_k1_l2_pfls_b"],
)
def test_psk_stage_fixtures_match_the_library(name):
    family, m, k, l, stage = re.fullmatch(r"(psk(\d+)_k(\d+)_l(\d+))_(\w+)", name).groups()
    m, k, l = int(m), int(k), int(l)
    if stage == "cpls":
        grid = constrained_pls(psk_constraints_closed_form(m, k, l))
    else:
        case = classify(m, k, l)
        grid = vital_pfls(case)[0] if stage == "pfls" else topped_up(case)
        swap = FIGURE_COLOURS.get(family, {})
        grid = Grid.from_lists([[swap.get(v, v) for v in row] for row in grid.to_lists()])
    assert grid == load_grid(name)


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_sin_top_up_is_the_colour_half_a_turn_away(m):
    # Appendix A's own rule: row i's top-up cell takes the vital colour of
    # the constraint half a turn away.  The forced-symbol rule must agree.
    for fs in psk_representatives(m):
        case = classify(m, fs.k, fs.l)
        if case.tag not in (SIN_ODD, SIN_EVEN):
            continue
        grid, _, coloring = vital_pfls(case)
        filled = topped_up(case)
        new = [
            (r, sym)
            for r, (row, was) in enumerate(zip(filled.rows, grid.rows), 1)
            for sym, old in zip(row, was)
            if sym and not old
        ]
        assert [r for r, _ in new] == list(range(1, m + 1))
        for r, sym in new:
            assert sym == coloring.colors[(r - 1 + m // 2) % m], (fs.k, fs.l, r)


def sweep_sha256(squares):
    """SHA-256 of each square's grid JSON after its "(k, l)" line, by (k, l)."""
    dump = "".join(f"{key}\n{dumps_grid(g)}" for key, g in sorted(squares.items()))
    return hashlib.sha256(dump.encode()).hexdigest()


# The golden dumps of the sweep whose squares all came from the paper's
# completion (`paper_complete`), before one matching per symbol replaced it.
PAPER_SWEEP_SHA256 = {
    8: "ea0b5e0c6e93b3945d148201e60a5426fa5f106e4b67b8632604357614edeb76",
    16: "25d33c87da7089527fd9ee57bfe27baa7a733aa522f82fb22f5c17210ac9de55",
    32: "9fd4cb34da2b894c55ad0caa94e108db98e95955ab663af57f426174290c6cba",
}


@pytest.mark.parametrize("m", [8, 16, 32])
def test_paper_completion_removes_every_state(m):
    # The paper's completion (diagonal fill; top-up, SDR and rectangle)
    # completes every state the library now finishes by one matching per
    # symbol, each square verifies against its brute-force partition, and
    # the sweep it gives is the one the library pinned before.
    signal = make_psk(m)
    squares = {}
    for fs in psk_representatives(m):
        case = classify(m, fs.k, fs.l)
        grid = _oriented(paper_complete(case), case)
        assert grid.is_complete() and verify_latin(grid) and grid.symbol_count == m
        assert verify_removes(grid, build_constraints(signal, fs)), (fs.k, fs.l)
        squares[fs.k, fs.l] = grid
    assert sweep_sha256(squares) == PAPER_SWEEP_SHA256[m]


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


def test_removal_square_validates_one_grid(monkeypatch):
    # The finished square; every step before it works on plain rows.
    built = []
    validate = Grid.__post_init__
    monkeypatch.setattr(Grid, "__post_init__", lambda grid: built.append(validate(grid)))
    reps = psk_representatives(16)
    for fs in reps:
        removal_square(16, fs.k, fs.l)
    assert len(built) == len(reps) == 56


@pytest.mark.parametrize("m", [8, 16, 32])
def test_removal_square_starts_from_the_closed_form_fill(m):
    # The finished (bk, bl) square keeps every cell of the closed-form
    # partition filled by the vital colouring.
    for fs in psk_representatives(m):
        case = classify(m, fs.k, fs.l)
        for row, vital in zip(_base_rows(case), vital_pfls(case)[0].rows):
            assert all(v == sym for v, sym in zip(vital, row) if v), (fs.k, fs.l)


def test_deterministic_cases_reproduce_printed_squares():
    # The paper's diagonal fill gives the printed squares.  The matchings
    # give each BothOdd/SamePower square with its fresh symbols relabelled:
    # one permutation of the symbols maps it onto the diagonal fill's and
    # fixes the vital colours 1..4.
    assert Grid.from_lists(paper_complete(classify(8, 1, 3))) == load_grid("psk8_k1_l3_ls")
    assert Grid.from_lists(paper_complete(classify(16, 2, 6))) == load_grid("psk16_k2_l6_ls")
    for m in (8, 16, 32):
        for fs in psk_representatives(m):
            case = classify(m, fs.k, fs.l)
            if case.tag not in (BOTH_ODD, SAME_POWER):
                continue
            relabel = {}
            for row, paper in zip(removal_square(m, fs.k, fs.l).rows, paper_complete(case)):
                for sym, want in zip(row, paper):
                    assert relabel.setdefault(sym, want) == want, (fs.k, fs.l)
            assert sorted(relabel.values()) == list(range(1, m + 1)), (fs.k, fs.l)
            assert all(relabel[s] == s for s in range(1, 5)), (fs.k, fs.l)


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


def test_sweep_builds_each_base_square_once(monkeypatch):
    # (k, l) and (l, k) share one (bk, bl) square when one of them is built
    # transposed: 21 of the 56 states at M = 16.  The sweep's squares are
    # still `removal_square`'s.
    built = []
    base_rows = psk_construct._base_rows
    monkeypatch.setattr(
        psk_construct, "_base_rows", lambda case: built.append(case) or base_rows(case)
    )
    squares = remove_all_psk(16)
    assert len(built) == len({(case.bk, case.bl) for case in built}) == 56 - 21
    for (k, l), grid in squares.items():
        assert grid == removal_square(16, k, l)


@pytest.mark.parametrize("m", [8, 16])
def test_unit_circle_states_are_settled_by_search(m, request):
    # No closed form covers the k = l circle; a small search proves chi = M
    # at each of its M states.
    signal = request.getfixturevalue(f"psk{m}")
    circle = [fs for fs in psk_singular_fade_states(m) if fs.k == fs.l]
    assert len(circle) == m
    for fs in circle:
        part = build_constraints(signal, fs)
        result = exact_chromatic(build_srg(part), node_budget=20_000)
        assert result.optimal and result.chi == m, fs
        grid = from_coloring(part, result.coloring)
        assert grid.is_complete() and verify_latin(grid) and grid.symbol_count == m
        assert verify_removes(grid, part)


@pytest.mark.parametrize("m", [3, 4])
def test_sweep_rejects_orders_outside_the_constructions(m):
    with pytest.raises(ValueError, match=f"constructions need M a power of two >= 8, got {m}"):
        remove_all_psk(m)


def test_sweep_raises_on_a_square_that_does_not_verify(monkeypatch):
    swap_first_cells(monkeypatch, (2, 1))
    with pytest.raises(CompletionError, match=re.escape("(2,1): constructed grid is not Latin")):
        remove_all_psk(8)


def test_sweep_raises_when_row_one_repeats_a_block(monkeypatch):
    # Merge the blocks of cells (1, 1) and (1, 2) of the (2, 1) state: row 1
    # then meets M - 1 blocks, so the row no longer bounds chi below by M.
    built = psk_construct.build_constraints

    def merged(s_set, fs):
        part = built(s_set, fs)
        if (fs.k, fs.l) != (2, 1):
            return part
        a, b = part.block_of((1, 1)), part.block_of((1, 2))
        blocks = list(part.blocks)
        blocks[a] = tuple(sorted(blocks[a] + blocks[b]))
        del blocks[b]
        return ConstraintPartition(part.m, tuple(blocks))

    monkeypatch.setattr(psk_construct, "build_constraints", merged)
    with pytest.raises(CompletionError, match=re.escape("(2,1): row 1 does not meet 8 blocks")):
        remove_all_psk(8)


SWEEP_SHA256 = {
    8: "bfd10e655c5e34f079e1d086a719daa130b444e82b612267a759875224a26dab",
    16: "71871920175deaed7faeb1c499e5a5f78744f68b23e0f8b71b42e10b921f9bd5",
    32: "7038b85c0dc10d9327fbbbe48c330a3df037601d8625b0f815e417b7145bda85",
}


@pytest.mark.parametrize("m", [8, 16, 32])
def test_sweep_matches_golden_dump(m):
    # Pins every square byte for byte, so a change in matching order shows
    # even where the squares still verify.
    assert sweep_sha256(remove_all_psk(m)) == SWEEP_SHA256[m]


@pytest.mark.parametrize("row0,admits", [([0, 1, 2, 0, 0, 0, 0, 0], 2), ([0, 1, 2, 3, 4, 0, 0, 0], 0)])
def test_pair_top_up_needs_one_absent_symbol(row0, admits):
    case = classify(8, 1, 2)  # Mixed: row i's first top-up cell is (i+1, i+1)
    rows = [row0] + [[0] * 8 for _ in range(7)]
    with pytest.raises(CompletionError, match=re.escape(f"cell (1, 1) admits {admits} symbols")):
        top_up(working(rows), case)


def test_sin_top_up_needs_one_absent_symbol():
    case = classify(8, 1, 4)  # SinOdd: row 1's top-up cell is (1, 7)
    rows = [[0] * 8 for _ in range(8)]
    with pytest.raises(CompletionError, match=re.escape("cell (1, 7) admits 4 symbols")):
        top_up(working(rows), case)


@pytest.mark.parametrize(
    "rows,message",
    [
        # symbol 1 can go nowhere in row 1, and row 1 lacks it
        ([[2, 3, 4, 0], [0, 0, 0, 1], [0] * 4, [0] * 4],
         "symbol 1 has no admissible cell in a row that lacks it"),
        # rows 1 and 2 both need symbol 1 in their one empty cell, column 4
        ([[2, 3, 4, 0], [3, 4, 2, 0], [0] * 4, [0] * 4], "no SDR; Hall violator (0, 1)"),
        # row 1 holds 2, which no column of a 1-row rectangle may hold
        ([[1, 2, 0, 0], [0] * 4, [0] * 4, [0] * 4],
         "column 2 does not hold exactly the symbols 1..1"),
    ],
)
def test_rectangle_completion_guards(rows, message):
    with pytest.raises(CompletionError, match=re.escape(message)):
        rectangle_complete(working(rows), 1)


@pytest.mark.parametrize(
    "planted",
    [
        # rectangle cell (1, 1) already took symbol 1
        [(1, 1), (1, 1)],
        # rectangle row 1 already holds symbol 1
        [(1, 1), (1, 2)],
        # rectangle column 1 already holds symbol 1: working cell (1, 1) is filled
        [(1, 1), (2, 1)],
    ],
)
def test_rectangle_fill_guards(monkeypatch, planted):
    # The first two sets of the family ask for symbol 1 in rectangle rows 1
    # and 2; a planted SDR puts both where the second one conflicts, so
    # working column 1 misses symbol 2.
    monkeypatch.setattr(latin, "find_sdr", lambda family: SdrResult(tuple(planted), None))
    with pytest.raises(CompletionError, match=re.escape("column 1 does not hold exactly the symbols 1..2")):
        rectangle_complete(working([[0] * 4 for _ in range(4)]), 2)


@pytest.mark.parametrize(
    "m,k,l,message",
    [
        # Mixed, SinOdd and BothOdd: the matchings' set-up reads the clash
        (8, 1, 2, "symbol 1 repeats in row 1"),
        (16, 1, 8, "symbol 1 repeats in row 1"),
        (8, 1, 3, "symbol 1 repeats in row 1"),
    ],
)
def test_vital_fill_guards(monkeypatch, m, k, l, message):
    blocks, coloring = psk_construct._psk_blocks, psk_construct.vital_coloring

    def overlapping(*args):  # blocks 0 and 1 both take cell (2, 2)
        out = blocks(*args)
        for i in (0, 1):
            out[i] = ((2, 2),) + out[i][1:]
        return out

    def clashing(case):  # block bk meets row 1, as block 0 does, in its colour
        colors = list(coloring(case).colors)
        colors[case.bk] = colors[0]
        return Coloring(tuple(colors))

    with monkeypatch.context() as patch:
        patch.setattr(psk_construct, "_psk_blocks", overlapping)
        with pytest.raises(CompletionError, match=re.escape("fill target (2, 2) is not empty")):
            removal_square(m, k, l)
        with pytest.raises(ValueError, match=re.escape("cell (2, 2) is in blocks 0 and 1")):
            vital_pfls(classify(m, k, l))
    monkeypatch.setattr(psk_construct, "vital_coloring", clashing)
    with pytest.raises(CompletionError, match=re.escape(message)):
        removal_square(m, k, l)
    with pytest.raises(CompletionError, match=re.escape("vital fill repeats a symbol in a line")):
        vital_pfls(classify(m, k, l))
