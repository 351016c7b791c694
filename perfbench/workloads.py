"""The benchmark's workloads: each is a set-up and a pass over its items.

`setup(seed)` makes the inputs (the seed fixes the order, and the sample
where there is one); `items(inputs)` yields one call per item.  An item call
runs the program on one input, checks every output and returns a digest
record and whether the answer is certified.  A failed check raises
CheckFailed.  Every search gets its node budget passed explicitly.

The benchmark calls lsnc through the names imported below, so a traced run
can time those calls by replacing the names in this module (see
`trace_targets`).
"""
from __future__ import annotations

import random
import sys
from functools import partial

import lsnc.constraint
import lsnc.latin
import lsnc.psk_construct
from lsnc import (
    build_constraints,
    build_srg,
    classify,
    enumerate_singular_fade_states,
    exact_chromatic,
    extend_coloring,
    from_coloring,
    generic_complete,
    make_psk,
    make_square_qam,
    psk_representative,
    psk_representatives,
    removal_square,
    row_clique,
    verify_latin,
    verify_proper,
    verify_removes,
)
from lsnc.constraint import constrained_pls
from lsnc.errors import SearchBudgetExceeded
from lsnc.gridio import dumps_grid
from lsnc.psk_construct import vital_pfls

# Singular fade states of square QAM, from exact enumeration.
QAM_STATES = {16: 388, 64: 8324}
# Node budgets of the 16-QAM searches.
CHI_BUDGET = 300
EXTEND_BUDGET = 300


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_partition(part) -> None:
    m = part.m
    cells = sorted(cell for block in part.blocks for cell in block)
    check(
        cells == [(r, c) for r in range(1, m + 1) for c in range(1, m + 1)],
        "partition does not cover every cell exactly once",
    )


def check_square(grid, part, symbols: int) -> None:
    check(grid.is_complete(), "square has empty cells")
    check(verify_latin(grid), "square is not Latin")
    check(verify_removes(grid, part), "square does not remove its partition")
    check(grid.symbol_count == symbols, f"square has {grid.symbol_count} symbols, expected {symbols}")


class PskSweep:
    """Every representative of M-PSK through the calls `lsnc psk-sweep` makes.

    Closed-form construction and completion with no search; the brute-force
    float partition re-verifies each square.  The seed sets the order only.
    """

    def __init__(self, m: int = 32) -> None:
        self.m = m

    def setup(self, seed: int):
        reps = list(psk_representatives(self.m))
        random.Random(seed).shuffle(reps)
        return make_psk(self.m), reps

    def items(self, inputs):
        signal, reps = inputs
        for fs in reps:
            yield partial(self.item, signal, fs)

    def item(self, signal, fs) -> tuple[str, bool]:
        m = self.m
        case = classify(m, fs.k, fs.l)
        grid = removal_square(m, fs.k, fs.l)
        part = build_constraints(signal, fs.value)
        check_partition(part)
        clique = row_clique(build_srg(part), part)
        check_square(grid, part, m)
        check(len(clique) == m, f"row clique has {len(clique)} vertices, expected {m}")
        # chi = M is certified: the row clique bounds it below, the square above.
        return f"{fs.k},{fs.l} {case.tag}\n{dumps_grid(grid)}", True


class Qam16Chi:
    """Chromatic number of the removal graph of singular 16-QAM states.

    Exact partition, removal graph, row clique as the lower bound, then
    branch and bound within CHI_BUDGET nodes; the colouring becomes a
    square that is re-verified.  `sample=None` takes all 388 states, in an
    order the seed sets.
    """

    def __init__(self, sample: int | None = None) -> None:
        self.sample = sample

    def setup(self, seed: int):
        signal = make_square_qam(16)
        states = enumerate_singular_fade_states(signal)
        check(len(states) == QAM_STATES[16], f"{len(states)} singular states of 16-QAM")
        return signal, random.Random(seed).sample(states, self.sample or len(states))

    def items(self, inputs):
        signal, states = inputs
        for fs in states:
            yield partial(self.item, signal, fs)

    def item(self, signal, fs) -> tuple[str, bool]:
        part = build_constraints(signal, fs)
        check_partition(part)
        graph = build_srg(part)
        clique = row_clique(graph, part)
        res = exact_chromatic(graph, lower=len(clique), node_budget=CHI_BUDGET)
        check(verify_proper(graph, res.coloring), "chi colouring is not proper")
        check(res.coloring.k == res.chi >= len(clique), f"chi {res.chi} below the row clique")
        check_square(from_coloring(part, res.coloring), part, res.chi)
        return f"{fs.value!r} chi={res.chi} optimal={res.optimal}", res.optimal


class Decide:
    """First-feasible M-symbol decisions with the same search layers.

    `extend_coloring(k=16)` on the removal graph of every singular 16-QAM
    state, pre-coloured 1..16 along row 1 (a clique, so any 16-colouring
    can be relabelled to agree), and `generic_complete` to M symbols on
    each distinct `vital_pfls` partial square of M-PSK, in an order the
    seed sets.  Each outcome is yes, no or budget; every yes becomes a
    re-verified square.  `sample` limits the 16-QAM states.
    """

    def __init__(self, sample: int | None = None, psk_m: int = 16,
                 complete_budget: int = 500) -> None:
        self.sample = sample
        self.psk_m = psk_m
        self.complete_budget = complete_budget

    def setup(self, seed: int):
        rng = random.Random(seed)
        qam = make_square_qam(16)
        states = enumerate_singular_fade_states(qam)
        check(len(states) == QAM_STATES[16], f"{len(states)} singular states of 16-QAM")
        items = [partial(self.extend, qam, fs) for fs in states[: self.sample]]
        m = self.psk_m
        psk = make_psk(m)
        # The square and its partition depend only on (bk, bl); a transposed
        # representative shares them with its swapped one.
        cases = {}
        for fs in psk_representatives(m):
            case = classify(m, fs.k, fs.l)
            cases.setdefault((case.bk, case.bl), case)
        for (bk, bl), case in cases.items():
            pfls, _, _ = vital_pfls(case)
            part = build_constraints(psk, psk_representative(m, bk, bl))
            items.append(partial(self.complete, f"{bk},{bl}", pfls, part))
        rng.shuffle(items)
        return items

    def items(self, inputs):
        return iter(inputs)

    def extend(self, qam, fs) -> tuple[str, bool]:
        part = build_constraints(qam, fs)
        check_partition(part)
        graph = build_srg(part)
        pre = {part.block_of((1, c)): c for c in range(1, 17)}
        check(sorted(pre) == list(row_clique(graph, part)), "row 1 is not the row clique")
        try:
            col = extend_coloring(graph, pre, 16, node_budget=EXTEND_BUDGET)
        except SearchBudgetExceeded:
            return f"extend {fs.value!r} budget", False
        if col is None:
            return f"extend {fs.value!r} no", True
        check(verify_proper(graph, col), "extension is not proper")
        check(all(col.colors[v] == c for v, c in pre.items()), "extension recoloured the row clique")
        grid = from_coloring(part, col)
        check_square(grid, part, 16)
        return f"extend {fs.value!r} yes\n{dumps_grid(grid)}", True

    def complete(self, key, pfls, part) -> tuple[str, bool]:
        m = self.psk_m
        try:
            grid = generic_complete(pfls, m, node_budget=self.complete_budget)
        except SearchBudgetExceeded:
            return f"complete {key} budget", False
        if grid is None:
            return f"complete {key} no", True
        check(
            all(v == w or not w for row, pre in zip(grid.rows, pfls.rows) for v, w in zip(row, pre)),
            "completion changed a filled cell",
        )
        check_square(grid, part, m)
        return f"complete {key} yes\n{dumps_grid(grid)}", True


class QamPartition:
    """Exact enumeration of the singular states of square M-QAM, then the
    partition, removal graph and row clique of a seeded sample of them.

    No search: each item's answer is exact and needs no budget, so every
    verified item counts as certified.
    """

    def __init__(self, m: int = 64, sample: int = 100) -> None:
        self.m = m
        self.sample = sample

    def setup(self, seed: int):
        return make_square_qam(self.m), seed

    def items(self, inputs):
        signal, seed = inputs
        states = enumerate_singular_fade_states(signal)
        check(len(states) == QAM_STATES[self.m], f"{len(states)} singular states of {self.m}-QAM")
        for i in random.Random(seed).sample(range(len(states)), self.sample):
            yield partial(self.item, signal, states[i])

    def item(self, signal, fs) -> tuple[str, bool]:
        part = build_constraints(signal, fs)
        check_partition(part)
        graph = build_srg(part)
        clique = row_clique(graph, part)
        check(len(clique) == self.m, f"row clique has {len(clique)} vertices")
        check(verify_latin(constrained_pls(part)), "a block repeats a row or column label")
        return (
            f"{fs.value!r} blocks={len(part.blocks)} multi={len(part.multi_indices)} "
            f"edges={graph.edge_count} clique={clique}",
            True,
        )


WORKLOADS = {
    "psk-sweep": PskSweep,
    "qam16-chi": Qam16Chi,
    "decide": Decide,
    "qam64-partition": QamPartition,
}


def _outcome(prefix: str):
    def hook(counts, args, result, exc):
        if isinstance(exc, SearchBudgetExceeded):
            counts[prefix + "_budget"] += 1
        elif exc is None:
            counts[prefix + ("_no" if result is None else "_yes")] += 1
    return hook


def _on_result(fn):
    def hook(counts, args, result, exc):
        if exc is None:
            fn(counts, args, result)
    return hook


def _add_graph(counts, args, g):
    counts["srg.vertices"] += g.n
    counts["srg.edges"] += g.edge_count


def _add_chromatic(counts, args, res):
    counts["coloring.chromatic_nodes"] += res.nodes
    counts["coloring.chromatic_optimal"] += res.optimal


def trace_targets():
    """(module, name, span, hook) for every call a traced run times.

    Calls the benchmark makes are looked up in this module; calls lsnc
    makes internally are looked up in the lsnc module that makes them.
    """
    here = sys.modules[__name__]
    verify = [
        (mod, fn, "latin.verify", None)
        for mod in (here, lsnc.psk_construct, lsnc.latin)
        for fn in ("verify_latin", "verify_removes")
    ]
    return verify + [
        (here, "enumerate_singular_fade_states", "fade_state.enumerate",
         _on_result(lambda c, a, r: c.update({"fade_state.states": len(r)}))),
        (here, "build_constraints", "constraint.build",
         _on_result(lambda c, a, r: c.update({"constraint.multi_blocks": len(r.multi_indices)}))),
        (here, "build_srg", "srg.build", _on_result(_add_graph)),
        (here, "row_clique", "srg.clique", None),
        (here, "exact_chromatic", "coloring.chromatic", _on_result(_add_chromatic)),
        (here, "extend_coloring", "coloring.extend", _outcome("coloring.extend")),
        (here, "generic_complete", "latin.complete", _outcome("latin.complete")),
        (here, "from_coloring", "latin.from_coloring", None),
        (here, "removal_square", "psk_construct.removal_square", None),
        (here, "dumps_grid", "gridio.dumps",
         _on_result(lambda c, a, r: c.update({"gridio.bytes": len(r.encode())}))),
        (lsnc.psk_construct, "candidate_cells", "latin.candidate_cells", None),
        (lsnc.psk_construct, "complete_rows_hall", "latin.hall", None),
        (lsnc.psk_construct, "find_sdr", "latin.sdr", None),
        (lsnc.psk_construct, "interchange_symbol_row", "latin.interchange", None),
        (lsnc.psk_construct, "vital_coloring", "psk_construct.vital_coloring", None),
        (lsnc.constraint, "cluster_complex", "numeric.cluster",
         lambda c, a, r, e: c.update({"numeric.cluster_values": len(a[0])})),
    ]
