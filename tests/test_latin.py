"""Grids, verification, transforms, SDR/Hall machinery, completion search."""

import dataclasses
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsnc import (
    Grid,
    build_constraints,
    candidate_cells,
    column_rotate,
    complete_rows_hall,
    find_sdr,
    from_coloring,
    exact_chromatic,
    build_srg,
    generic_complete,
    interchange_symbol_row,
    transpose,
    verify_latin,
    verify_removes,
)
from lsnc import coloring, latin
from lsnc.errors import CompletionError, SearchBudgetExceeded
from lsnc.fixtures import load_grid
from lsnc.latin import _kuhn, extend_symbols, interchange_rows

from conftest import random_latin_square, with_cell, xor_square
from test_coloring import reference_search


def random_partial(m, seed, keep=0.5):
    rng = random.Random(seed)
    g = random_latin_square(m, random.Random(seed))
    return Grid.from_lists(
        [[v if rng.random() < keep else 0 for v in row] for row in g.rows]
    )


class TestGrid:
    def test_construction_and_accessors(self):
        g = Grid.from_lists([[1, 2], [2, 0]])
        assert g.m == 2
        assert g.rows == ((1, 2), (2, 0))
        assert not g.is_complete()
        assert g.symbols() == {1, 2}
        assert g.symbol_count == 2

    def test_set_returns_new_grid(self):
        # A grid is frozen: a cell is set on its `to_lists` copy, which
        # builds a new grid and leaves the old one as it was.
        g = Grid.from_lists([[0, 0], [0, 0]])
        h = with_cell(g, 1, 1, 2)
        assert g.rows == ((0, 0), (0, 0)) and h.rows == ((2, 0), (0, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.rows = h.rows

    def test_rejects_ragged_and_negative(self):
        with pytest.raises(ValueError):
            Grid.from_lists([[1, 2], [1]])
        with pytest.raises(ValueError):
            Grid.from_lists([[1, -1], [0, 0]])

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([[1, True], [0, 0]], "bad cell value True"),
            ([[1, 2], [0, -3]], "bad cell value -3"),
            ([[1, 2.0], [0, 0]], "bad cell value 2.0"),
            ([[1, 2], [1]], "grid must be square"),
            ([[1, 2], [1, 2], [1, 2]], "grid must be square"),
            # the first bad row or cell is named, as the rows are read
            ([[False, 2], [1]], "bad cell value False"),
            ([[1, 2, 3], [-1, 0]], "grid must be square"),
        ],
    )
    def test_rejection_messages(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Grid.from_lists(rows)


class TestVerify:
    def test_xor_square_is_latin(self):
        for m in (2, 4, 8, 16):
            assert verify_latin(xor_square(m))

    def test_detects_row_and_column_repeats(self):
        assert not verify_latin(Grid.from_lists([[1, 1], [0, 0]]))
        assert not verify_latin(Grid.from_lists([[1, 0], [1, 0]]))

    def test_partial_grids_verify_cellwise(self):
        assert verify_latin(Grid.from_lists([[1, 0], [0, 1]]))

    def test_removes_requires_constant_blocks(self, qam4, qam4_partition):
        good = Grid.from_lists([[3, 5, 1, 2], [2, 4, 3, 5], [5, 1, 2, 4], [4, 3, 5, 1]])
        assert verify_removes(good, qam4_partition)
        # break one cell of the block {(1,3),(3,2)}
        assert not verify_removes(with_cell(good, 3, 2, 3), qam4_partition)
        # two symbols where the first cell is the odd one out, and a block
        # holding 0: in one cell, or in both
        assert not verify_removes(with_cell(good, 1, 3, 4), qam4_partition)
        assert not verify_removes(with_cell(good, 3, 2, 0), qam4_partition)
        assert not verify_removes(with_cell(good, 1, 3, 0), qam4_partition)
        assert not verify_removes(with_cell(with_cell(good, 1, 3, 0), 3, 2, 0), qam4_partition)

    @pytest.mark.parametrize("seed", range(6))
    def test_removes_matches_one_symbol_per_block_oracle(self, seed, qam16):
        # Blocks filled with 1 or 2, then up to two cells overwritten with
        # 0, 1 or 2, against the set-per-block rule: each multi-cell block
        # holds one symbol, and it is not 0.
        rng = random.Random(seed)
        part = build_constraints(qam16, [0.5 - 2.5j, -1 - 1j, -3 + 0j][seed % 3])
        outcomes = set()
        for _ in range(60):
            rows = [[0] * 16 for _ in range(16)]
            for block in part.blocks:
                sym = rng.choice((1, 2))
                for r, c in block:
                    rows[r - 1][c - 1] = sym
            for _ in range(rng.randrange(3)):
                rows[rng.randrange(16)][rng.randrange(16)] = rng.choice((0, 1, 2))
            grid = Grid.from_lists(rows)
            multi = (block for block in part.blocks if len(block) > 1)
            expected = all(
                len(syms) == 1 and 0 not in syms
                for syms in ({grid.rows[r - 1][c - 1] for r, c in block} for block in multi)
            )
            assert verify_removes(grid, part) == expected
            outcomes.add(expected)
        assert outcomes == {False, True}


class TestTransforms:
    def test_transpose_removes_inverse_state(self, qam4):
        s = 0.5 + 0.5j
        part = build_constraints(qam4, s)
        grid = from_coloring(part, exact_chromatic(build_srg(part)).coloring)
        flipped = transpose(grid)
        assert verify_latin(flipped)
        assert verify_removes(flipped, build_constraints(qam4, 1 / s))

    def test_column_rotate_shifts_psk_state(self, psk8):
        import cmath
        from lsnc import psk_representative
        from lsnc.psk_construct import removal_square

        s = psk_representative(8, 1, 3).value
        grid = removal_square(8, 1, 3)
        rotated = column_rotate(grid, 1)
        target = s * cmath.exp(2j * cmath.pi / 8)
        assert verify_removes(rotated, build_constraints(psk8, target))

    def test_column_rotate_full_cycle_is_identity(self):
        g = xor_square(8)
        assert column_rotate(g, 8) == g

    @pytest.mark.parametrize("steps", [-9, -1, 0, 3, 8, 11, 2**70])
    def test_column_rotate_takes_any_int_steps(self, steps):
        g = random_latin_square(8, random.Random(steps))
        assert column_rotate(g, steps).rows == tuple(
            tuple(row[(c + steps) % 8] for c in range(8)) for row in g.rows
        )
        assert column_rotate(Grid(()), steps) == Grid(())

    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_interchange_is_involution_on_partials(self, seed, m):
        g = random_partial(m, seed)
        assert interchange_symbol_row(interchange_symbol_row(g)) == g

    def test_interchange_fixture_pairs(self):
        # the worked exchange examples map onto the Hall-completion pair
        assert interchange_symbol_row(load_grid("interchange_pls")) == load_grid("hall_rect")
        assert interchange_symbol_row(load_grid("interchange_ls")) == load_grid("hall_ls")

    def test_interchange_rejects_oversized_symbols(self):
        with pytest.raises(ValueError):
            interchange_symbol_row(Grid.from_lists([[3, 0], [0, 0]]))

    @pytest.mark.parametrize(
        "rows,message",
        [([[1, 0], [1, 0]], "symbol 1 repeats in column 1"),
         ([[0, 0], [0, 3]], "symbol 3 exceeds grid order 2")],
    )
    def test_interchange_rows_rejects_what_no_rectangle_holds(self, rows, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            interchange_rows(rows)


class TestSdr:
    def test_finds_representatives(self):
        res = find_sdr([[1, 2], [2, 3], [1, 3]])
        assert res.ok
        assert len(set(res.representatives)) == 3
        for rep, s in zip(res.representatives, [[1, 2], [2, 3], [1, 3]]):
            assert rep in s

    def test_reports_hall_violator(self):
        res = find_sdr([[1], [1], [2, 3]])
        assert not res.ok
        assert set(res.violating) == {0, 1}

    @given(
        st.lists(
            st.frozensets(st.integers(0, 9), min_size=0, max_size=4),
            min_size=1,
            max_size=9,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_exhaustive_hall(self, family):
        family = [sorted(s) for s in family]
        res = find_sdr(family)
        hall_ok = all(
            len(set().union(*(family[i] for i in sub))) >= len(sub)
            for r in range(1, len(family) + 1)
            for sub in itertools.combinations(range(len(family)), r)
        )
        assert res.ok == hall_ok
        if res.ok:
            assert len(set(res.representatives)) == len(family)
            for rep, s in zip(res.representatives, family):
                assert rep in s
        else:
            union = set().union(*(family[i] for i in res.violating))
            assert len(union) < len(res.violating)


class TestHallCompletion:
    @pytest.mark.parametrize("m,r,seed", [(4, 2, 0), (8, 3, 1), (8, 7, 2), (16, 5, 3)])
    def test_extends_rectangles(self, m, r, seed):
        rect = Grid.from_lists(
            [list(row) for row in random_latin_square(m, random.Random(seed)).rows[:r]]
            + [[0] * m for _ in range(m - r)]
        )
        done = complete_rows_hall(rect)
        assert verify_latin(done) and done.is_complete()
        assert done.rows[:r] == rect.rows[:r]
        assert done.symbols() == set(range(1, m + 1))

    def test_rejects_partial_rows(self):
        with pytest.raises(ValueError):
            complete_rows_hall(Grid.from_lists([[1, 2, 0, 4], [0] * 4, [0] * 4, [0] * 4]))

    def test_rejects_foreign_symbols(self):
        bad = Grid.from_lists([[5, 2, 3, 4], [0] * 4, [0] * 4, [0] * 4])
        with pytest.raises(ValueError):
            complete_rows_hall(bad)

    @pytest.mark.parametrize("rows", [[[1, 2, 3], [1, 3, 2], [0, 0, 0]], [[1, 2], [1, 2]]])
    def test_rejects_column_repeats(self, rows):
        # complete rows that are not a Latin rectangle are bad input, not
        # a failed completion
        with pytest.raises(ValueError, match="symbol 1 repeats in column 1"):
            complete_rows_hall(Grid.from_lists(rows))

    def test_completes_the_hall_fixture(self):
        assert complete_rows_hall(load_grid("hall_rect")) == load_grid("hall_ls")

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([[0, 3], [0, 0]], "symbol 3 in row 1 is outside 0..2"),
            ([[0, 0], [-1, 0]], "symbol -1 in row 2 is outside 0..2"),
            ([[1, 1, 0], [0, 0, 1], [0, 0, 0]], "symbol 1 repeats in row 1"),
            ([[1, 0], [1, 0]], "symbol 1 repeats in column 1"),
            # row 2 lacks 1, and its one cell in column 2, which lacks 1, is filled
            ([[1, 0], [0, 2]], "symbol 1 has no perfect matching of columns to rows"),
        ],
    )
    def test_extend_symbols_guards(self, rows, message):
        with pytest.raises(CompletionError, match=f"^{re.escape(message)}$"):
            extend_symbols(rows)

    def test_extend_symbols_places_the_symbols_each_row_lacks(self):
        # 1 goes to (2, 2) and (3, 3), the columns that lack it each taking
        # their lowest row at or above their own index; 2 goes to (3, 1) and
        # (1, 2); fresh 3 fills what is left.
        rows = [[1, 0, 0], [0, 0, 2], [0, 0, 0]]
        extend_symbols(rows)
        assert rows == [[1, 2, 3], [3, 1, 2], [2, 3, 1]]

    def test_extend_symbols_rejects_a_matching_that_writes_a_filled_cell(self, monkeypatch):
        # Symbol 2 is written at (1, 1), over the 1 there, and at (2, 1).
        monkeypatch.setattr(latin, "_kuhn", lambda nbrs, n_right: [0] * n_right)
        with pytest.raises(CompletionError, match=f"^{re.escape('cell (1, 2) is still empty')}$"):
            extend_symbols([[1, 0], [0, 1]])


def brute_max_matching(nbrs, u=0, used=0):
    """Size of a maximum matching of left vertices u.. avoiding `used`."""
    if u == len(nbrs):
        return 0
    best = brute_max_matching(nbrs, u + 1, used)
    free = nbrs[u] & ~used
    while free:
        low = free & -free
        free ^= low
        best = max(best, 1 + brute_max_matching(nbrs, u + 1, used | low))
    return best


class TestKuhn:
    @given(st.integers(0, 7), st.integers(0, 7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_returns_a_maximum_matching(self, n_left, n_right, data):
        # any shape: imperfect graphs, more left than right, more right than left
        nbrs = data.draw(st.lists(st.integers(0, 2**n_right - 1), min_size=n_left, max_size=n_left))
        match = _kuhn(nbrs, n_right)
        assert len(match) == n_right
        pairs = [(u, v) for v, u in enumerate(match) if u >= 0]
        assert len({u for u, _ in pairs}) == len(pairs)
        assert all(nbrs[u] >> v & 1 for u, v in pairs)
        assert len(pairs) == brute_max_matching(nbrs)

    def test_augmenting_path_reroutes_the_seed(self):
        # The seed gives 0 -> 0 and 1 -> 1, leaving 2 (which can only take 1)
        # unmatched; the path 2 -> 1 ~ 1 -> 0 ~ 0 -> 2 reroutes both.
        assert _kuhn([0b111, 0b011, 0b010], 3) == [1, 2, 0]

    def test_seed_prefers_right_vertices_at_or_above_the_left_index(self):
        # 1 skips free 0 for 1; 2 has nothing at or above 2 and takes 0
        assert _kuhn([0b100, 0b011, 0b011], 3) == [2, 1, 0]


class TestGenericComplete:
    def test_completes_partial_square(self):
        g = random_partial(8, 11, keep=0.4)
        done = generic_complete(g, 8)
        assert done is not None
        assert verify_latin(done) and done.is_complete()
        for row, done_row in zip(g.rows, done.rows):
            assert all(d == v for v, d in zip(row, done_row) if v)

    def test_infeasible_returns_none(self):
        # 2x2 with forced diagonal cannot close with 2 symbols
        g = Grid.from_lists([[1, 0], [0, 2]])
        assert generic_complete(g, 2) is None
        assert generic_complete(g, 3) is not None

    def test_candidate_cells_respects_lines(self):
        g = Grid.from_lists([[1, 0], [0, 0]])
        assert candidate_cells(g, 1) == [(2, 2)]
        assert candidate_cells(g, 2) == [(1, 2), (2, 1), (2, 2)]

    def test_budget_exhaustion_raises(self):
        g = Grid.from_lists([[0] * 9] * 9)
        with pytest.raises(SearchBudgetExceeded) as info:
            generic_complete(g, 9, node_budget=5)
        assert str(info.value) == (
            "extension budget 5 exhausted after 6 nodes with 6 of 81 free vertices colored"
        )

    def test_symbol_budget_below_order_returns_none(self):
        assert generic_complete(Grid.from_lists([[0] * 4] * 4), 3) is None

    def test_offers_only_the_lowest_unused_symbol(self, monkeypatch):
        # Unused symbols are interchangeable: a cell is offered the symbols
        # in use and then the lowest unused one, as the scanning reference
        # does with that rule written out.  So 9000 symbols on an empty 9x9
        # grid fill it in 81 nodes, opening one symbol beyond 9.
        runs = []
        search = coloring._dsatur_search

        def spy(graph, colors, k, budget):
            ref = list(colors)
            runs.append((k, search(graph, colors, k, budget)))
            assert reference_search(graph, ref, k, budget) == runs[-1][1] and ref == colors
            return runs[-1][1]

        monkeypatch.setattr(coloring, "_dsatur_search", spy)
        done = generic_complete(Grid.from_lists([[0] * 9] * 9), 9000)
        assert done is not None and verify_latin(done) and done.is_complete()
        assert runs == [(9000, (81, False))]
        assert done.symbols() == set(range(1, 11))

    def test_huge_given_symbol_and_symbol_count(self):
        # A given symbol of 10**9 is searched as the first color and mapped
        # back: the square is the one a given 5 gives, with 10**9 for 5.
        g = Grid.from_lists([[10**9, 0, 0], [0, 0, 0], [0, 0, 0]])
        done = generic_complete(g, 10**9)
        assert done.rows == ((10**9, 1, 2), (1, 2, 10**9), (2, 10**9, 1))
        assert generic_complete(Grid.from_lists([[5, 0, 0], [0, 0, 0], [0, 0, 0]]), 10**9).rows == (
            (5, 1, 2), (1, 2, 5), (2, 5, 1)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_large_given_symbols_are_searched_in_their_order(self, seed):
        # Given symbols are searched as 1..g in ascending order, so spreading
        # them out changes nothing but their values: symbol s given as
        # M^2 + s completes as M^2 + s*K does, opened symbols (the lowest
        # ones not given, here at most M^2) being the same.
        m = (2, 4, 8)[seed % 3]
        base = random_partial(m, seed, keep=0.35)
        results = []
        for spread in (1, 7, 10**8):
            shift = {s: m * m + s * spread for s in range(1, m + 1)}
            grid = Grid.from_lists([[shift.get(v, 0) for v in row] for row in base.rows])
            done = generic_complete(grid, 10**9)
            back = {t: s for s, t in shift.items()}
            results.append([[back.get(v, -v) for v in row] for row in done.rows])
        assert results[0] == results[1] == results[2]

    def test_symbol_above_symbol_count_is_rejected(self):
        g = Grid.from_lists([[5, 0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="outside 1..3"):
            generic_complete(g, 3)
        with pytest.raises(ValueError, match="outside 1..2"):
            generic_complete(g, 2)  # checked before the symbol count

    def test_grid_that_is_not_latin_is_rejected(self):
        g = Grid.from_lists([[1, 1], [0, 0]])
        for symbols in (1, 2):  # checked before the symbol count too
            with pytest.raises(ValueError, match="violates row/column exclusion"):
                generic_complete(g, symbols)


# Reference implementations for the matching and candidate-cell kernels:
# plain lists and sets, in the seed and visiting order the kernels promise.


def reference_matching(nbrs):
    """Kuhn's augmenting paths over neighbour lists: right -> left.

    A greedy pass first gives u the first free v >= u in its list, else
    its first free v; then Kuhn runs from the vertices it left unmatched.
    On sorted lists this is the kernels' order."""
    match = {}
    for u, vs in enumerate(nbrs):
        free = [v for v in vs if v not in match]
        if free:
            match[next((v for v in free if v >= u), free[0])] = u

    def augment(u, seen):
        for v in nbrs[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match or augment(match[v], seen):
                match[v] = u
                return True
        return False

    seeded = set(match.values())
    for u in range(len(nbrs)):
        if u not in seeded:
            augment(u, set())
    return match


def reference_sdr(family):
    elements = list(dict.fromkeys(x for s in family for x in s))
    index = {x: i for i, x in enumerate(elements)}
    match = reference_matching([sorted({index[x] for x in s}) for s in family])
    by_set = {u: elements[v] for v, u in match.items()}
    if len(by_set) < len(family):
        return None
    return tuple(by_set[u] for u in range(len(family)))


def reference_complete_rows(rect, r):
    m = rect.m
    rows = [list(row) for row in rect.rows]
    for i in range(r, m):
        nbrs = [sorted(set(range(m)) - {rows[j][c] - 1 for j in range(i)}) for c in range(m)]
        for v, c in reference_matching(nbrs).items():
            rows[i][c] = v + 1
    return rows


def random_rectangle(m, r, seed):
    """r rows of a Latin rectangle, each a random perfect matching of the
    free symbols, then empty rows."""
    rng = random.Random(seed)
    rows = []
    for _ in range(r):
        nbrs = [
            rng.sample(sorted(set(range(m)) - {row[c] - 1 for row in rows}), m - len(rows))
            for c in range(m)
        ]
        row = [0] * m
        for v, c in reference_matching(nbrs).items():
            row[c] = v + 1
        rows.append(row)
    return Grid.from_lists(rows + [[0] * m for _ in range(m - r)])


class TestKernelsAgainstReference:
    @given(st.integers(1, 12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_complete_rows_hall(self, m, data):
        r = data.draw(st.integers(0, m - 1))
        rect = random_rectangle(m, r, data.draw(st.integers(0, 2**32 - 1)))
        assert complete_rows_hall(rect).to_lists() == reference_complete_rows(rect, r)

    @given(
        st.lists(
            st.lists(st.integers(0, 11), max_size=5, unique=True),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_find_sdr(self, family):
        assert find_sdr(family).representatives == reference_sdr(family)

    @given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_candidate_cells(self, m, seed, latin):
        rng = random.Random(seed)
        if latin:
            keep = rng.random()
            square = random_rectangle(m, m, seed)
            grid = Grid.from_lists(
                [[v if rng.random() < keep else 0 for v in row] for row in square.rows]
            )
        else:
            grid = Grid.from_lists([[rng.randint(0, m) for _ in range(m)] for _ in range(m)])
        for symbol in range(1, m + 1):
            expected = [
                (r, c)
                for r in range(1, m + 1)
                for c in range(1, m + 1)
                if not grid.rows[r - 1][c - 1]
                and symbol not in grid.rows[r - 1]
                and all(row[c - 1] != symbol for row in grid.rows)
            ]
            assert candidate_cells(grid, symbol) == expected
