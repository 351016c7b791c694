#!/usr/bin/env python3
"""Stage benchmark for lsnc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with a single caller: each
item starts only after the previous item's result has been verified.  The
run imports lsnc IMPORT_REPS times and sets up its inputs SETUP_REPS
times, then repeats whole passes over the same items until --seconds have
elapsed.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
A failed output check makes the run exit 1.  See perfbench/README.md.

Times are reported at reference speed.  A machine whose cores are shared
with other tenants can drift in speed by tens of percent from minute to
minute.  So the run times a reference chunk after every item and after
every import and set-up: a fixed pure-Python loop of Fraction arithmetic
and dict inserts, like the work lsnc does but none of its code, timed with
the garbage collector off.  A pass time is scaled by REF_CHUNK_S / (mean
chunk time) over that pass's chunks, and an item's time by the same factor
over the ITEM_WINDOW chunks on either side of it; the import and set-up
times are scaled by the chunks of their own phase.  A time then reads as
seconds on a machine where one chunk takes REF_CHUNK_S.  The raw pass time
and the mean chunk time are printed on the summary line.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
IMPORT_REPS = 15
SETUP_REPS = 9
REF_LOOPS = 100
REF_CHUNK_S = 0.001  # nominal time of one reference chunk
SETUP_CHUNKS = 20  # reference chunks after each import and each set-up
ITEM_WINDOW = 5  # chunks on either side that scale one item's time

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "decided_frac": "ratio",
    "peak_rss_mib": "MiB",
}

# Per-layer metric -> unit.  A `_s` metric is the self time of the span of
# the same stem; `_calls` and `constraint.calls` count spans; the rest are
# counts the trace hooks add up (see workloads.trace_targets).
PER_LAYER = {
    "coloring.chromatic_s": "s",
    "coloring.chromatic_nodes": "count",
    "coloring.nodes_per_s": "1/s",
    "coloring.decided_ratio": "ratio",
    "coloring.extend_s": "s",
    "coloring.extend_calls": "count",
    "coloring.extend_yes": "count",
    "coloring.extend_no": "count",
    "coloring.extend_budget": "count",
    "latin.complete_s": "s",
    "latin.complete_yes": "count",
    "latin.complete_no": "count",
    "latin.complete_budget": "count",
    "latin.candidate_cells_s": "s",
    "latin.candidate_cells_calls": "count",
    "latin.hall_s": "s",
    "latin.sdr_s": "s",
    "latin.interchange_s": "s",
    "latin.from_coloring_s": "s",
    "latin.verify_s": "s",
    "latin.verify_calls": "count",
    "psk_construct.removal_square_s": "s",
    "psk_construct.vital_coloring_calls": "count",
    "constraint.build_s": "s",
    "constraint.calls": "count",
    "constraint.multi_blocks": "count",
    "numeric.cluster_s": "s",
    "numeric.cluster_values": "count",
    "fade_state.enumerate_s": "s",
    "fade_state.states": "count",
    "srg.build_s": "s",
    "srg.vertices": "count",
    "srg.edges": "count",
    "srg.clique_s": "s",
    "gridio.dumps_s": "s",
    "gridio.bytes": "bytes",
    "trace.overhead_s": "s",
}

# Span name -> metric counting its calls, where the name is not the stem.
CALL_COUNTS = {"constraint.build": "constraint.calls"}


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    item_ms: list[tuple[int, float]] = field(default_factory=list)  # (item index, raw ms)
    records: list[str] = field(default_factory=list)
    decided: int = 0
    failures: list[str] = field(default_factory=list)
    chunk_s: list[float] = field(default_factory=list)  # one after each item

    @property
    def scale(self) -> float:
        return speed_scale(sum(self.chunk_s), len(self.chunk_s))

    def scaled_item_ms(self) -> list[float]:
        """Item times, each scaled by the reference chunks around it.

        Chunk i follows item i; items that failed have a chunk but no time.
        """
        c, w, out = self.chunk_s, ITEM_WINDOW, []
        for i, ms in self.item_ms:
            near = c[max(0, i - w): i + w + 1]
            out.append(ms * speed_scale(sum(near), len(near)))
        return out

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n\0".join(sorted(self.records)).encode()).hexdigest()


def reference_chunks(n: int) -> float:
    """Time n runs of a fixed loop that does not touch lsnc.

    The garbage collector is off while it runs, so the loop never pays for
    a collection of the program's objects.
    """
    gc.disable()
    try:
        t = perf_counter()
        for _ in range(n):
            acc, seen = Fraction(0), {}
            for i in range(1, REF_LOOPS):
                f = Fraction(i, 7) * Fraction(3, i + 2) + acc / 5
                acc = f if f.denominator < 1000 else Fraction(1, 3)
                seen[f.numerator, f.denominator] = i
            sorted(seen)
        return perf_counter() - t
    finally:
        gc.enable()


def speed_scale(ref_s: float, chunks: int) -> float:
    """Factor that turns a time measured next to `chunks` reference chunks
    taking `ref_s` in all into a time at reference speed."""
    return REF_CHUNK_S * chunks / ref_s if ref_s else 1.0


def import_lsnc() -> float:
    """Import lsnc afresh, dropping any copy already loaded, and return the
    time taken.  Only the first import in a process also loads the standard
    modules lsnc uses."""
    for name in [n for n in sys.modules if n == "lsnc" or n.startswith("lsnc.")]:
        del sys.modules[name]
    t = perf_counter()
    importlib.import_module("lsnc")
    return perf_counter() - t


def run_pass(workload, inputs, traced: bool) -> Pass:
    """One pass over the items; each item is timed up to its verified result."""
    from workloads import CheckFailed

    out = Pass(traced)
    start = perf_counter()
    items = workload.items(inputs)
    while True:
        try:
            item = next(items)
        except StopIteration:
            break
        except CheckFailed as exc:  # the pass's own work (enumeration) failed a check
            out.failures.append(f"pass: {exc}")
            break
        t = perf_counter()
        try:
            record, decided = item()
        except CheckFailed as exc:
            out.failures.append(f"check failed: {exc}")
        except Exception:  # an unexpected error is a failed item; keep measuring
            out.failures.append(traceback.format_exc())
        else:
            out.item_ms.append((len(out.chunk_s), (perf_counter() - t) * 1000.0))
            out.records.append(record)
            out.decided += decided
        out.chunk_s.append(reference_chunks(1))
    out.wall_s = perf_counter() - start - sum(out.chunk_s)
    return out


def layer_values(seg, scale: float) -> dict[str, float]:
    """Per-layer metrics of one segment, before the derived ratios."""
    self_s, counts = seg.summary()
    values = dict.fromkeys([*PER_LAYER, "coloring.chromatic_calls", "coloring.chromatic_optimal"], 0.0)
    for span, secs in self_s.items():
        values[span + "_s"] = secs * scale
    for key, n in counts.items():
        if key.endswith(".calls"):
            span = key[: -len(".calls")]
            key = CALL_COUNTS.get(span, span + "_calls")
        values[key] = n
    return values


def per_layer_metrics(tracer, setup_scale: float, passes: list[Pass], failures: list[str]):
    """Median over set-ups plus median over traced passes, for each metric."""
    items = len(passes[0].records) + len(passes[0].failures)
    traced = [p for p in passes if p.traced]
    total: dict[str, float] = {}
    for kind, scales in (("setup", [setup_scale] * SETUP_REPS), ("pass", [p.scale for p in traced])):
        segs = [layer_values(s, k) for s, k in zip((s for s in tracer.segments if s.kind == kind), scales)]
        for name in segs[0]:
            if not name.endswith("_s"):
                if any(v.get(name) != segs[0][name] for v in segs):
                    failures.append(f"count {name} differs between {kind} segments")
                if kind == "pass" and name == "latin.verify_calls" and segs[0][name] < items:
                    failures.append(f"{segs[0][name]} verify calls for {items} items")
            total[name] = total.get(name, 0.0) + statistics.median(v.get(name, 0.0) for v in segs)
    chrom_s, calls = total["coloring.chromatic_s"], total["coloring.chromatic_calls"]
    total["coloring.nodes_per_s"] = total["coloring.chromatic_nodes"] / chrom_s if chrom_s else 0.0
    total["coloring.decided_ratio"] = total["coloring.chromatic_optimal"] / calls if calls else 0.0
    total["trace.overhead_s"] = (
        statistics.median(p.wall_s * p.scale for p in traced)
        - statistics.median(p.wall_s * p.scale for p in passes if not p.traced)
    )
    return {name: total[name] for name in PER_LAYER}


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0):
    """Set up, run passes for `seconds` and check them.  Returns the result
    object, a summary for people (with the answer digest) and the tracer
    (None when untraced).  `import_s` is the import time at reference
    speed, which `setup_s` includes."""
    from tracer import Tracer
    from workloads import trace_targets

    tracer = Tracer(trace_targets()) if trace else None
    setup_s, setup_ref = [], 0.0
    for _ in range(SETUP_REPS):
        with tracer.segment("setup") if trace else nullcontext():
            t = perf_counter()
            inputs = workload.setup(seed)
            setup_s.append(perf_counter() - t)
        setup_ref += reference_chunks(SETUP_CHUNKS)
    setup_scale = speed_scale(setup_ref, SETUP_CHUNKS * SETUP_REPS)

    passes: list[Pass] = []
    start = perf_counter()
    # A traced run alternates untraced and traced passes and needs one of each.
    while not passes or perf_counter() - start < seconds or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        with tracer.segment("pass") if traced else nullcontext():
            passes.append(run_pass(workload, inputs, traced))

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.records) + len(p.failures) for p in passes)
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        failures.append(f"passes gave {len(digests)} different digests")
    # Each item's time is its median over the passes; p50/p90 are taken
    # over the items.
    by_item: dict[int, list[float]] = {}
    for p in passes:
        for (i, _), ms in zip(p.item_ms, p.scaled_item_ms()):
            by_item.setdefault(i, []).append(ms)
    if trace:
        metrics = per_layer_metrics(tracer, setup_scale, passes, failures)
        units = PER_LAYER
    else:
        item_ms = [statistics.median(v) for v in by_item.values()] or [0.0, 0.0]  # all failed
        metrics = {
            "setup_s": import_s + statistics.median(setup_s) * setup_scale,
            "wall_s": statistics.median(p.wall_s * p.scale for p in passes),
            "item_ms_p50": statistics.median(item_ms),
            "item_ms_p90": statistics.quantiles(item_ms, n=10)[-1],
            "decided_frac": sum(p.decided for p in passes) / attempted,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    summary = {
        "passes": len(passes),
        "items_per_pass": len(passes[0].records) + len(passes[0].failures),
        "items_timed": len(by_item),
        "failed_frac": len(failures) / attempted,
        "raw_wall_s": statistics.median(p.wall_s for p in passes),
        "chunk_ms": statistics.median(1000.0 * REF_CHUNK_S / p.scale for p in passes),
        "digest": passes[0].digest,
        "failures": failures,
    }
    return result, summary, tracer


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lsnc" / "__init__.py").is_file():
        print(f"perfbench: no lsnc sources under {src}", file=sys.stderr)
        return 2
    # The searches get explicit budgets; keep the environment from changing
    # any default the program might still read.
    os.environ.pop("LSNC_BUDGET", None)
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    # The median of several imports, each followed by reference chunks: one
    # import is too short a sample of a machine whose speed drifts.
    imports, ref = [], 0.0
    for _ in range(IMPORT_REPS):
        imports.append(import_lsnc())
        ref += reference_chunks(SETUP_CHUNKS)
    import_s = statistics.median(imports) * speed_scale(ref, SETUP_CHUNKS * IMPORT_REPS)
    import lsnc
    import workloads

    if Path(lsnc.__file__).resolve().parent != src / "lsnc":
        print(f"perfbench: imported lsnc from {lsnc.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result, summary, tracer = measure(
        workloads.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), import_s
    )
    for failure in summary.pop("failures"):
        print(failure, file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in summary.items()))
    if tracer is not None:
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(path, t0)
        print(f"spans={path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
