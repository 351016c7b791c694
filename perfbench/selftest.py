#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny version of each workload, in seconds.

    python3 perfbench/selftest.py

For every workload it runs the tiny version twice untraced and twice traced
and checks that each run is correct, prints exactly the metric names and
units that BENCHMARK.json declares, gives the same answer digest every
time, and repeats every count metric exactly.  Exits 1 on any mismatch.
"""
from __future__ import annotations

import json
import sys

import run

TINY = {
    "psk-sweep": {"m": 8},
    "qam16-chi": {"sample": 12},
    "decide": {"sample": 6, "psk_m": 8, "complete_budget": 100},
    "qam64-partition": {"m": 16, "sample": 6},
}
# Units of the metrics that are counts, or ratios of counts: they must repeat
# exactly between two runs of the same code.
EXACT_UNITS = ("count", "bytes", "ratio")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for trace in (0, 0, 1, 1):
            wl = workloads.WORKLOADS[name](**TINY[name])
            result, summary, _ = run.measure(wl, seed=7, seconds=0.0, trace=bool(trace))
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(printed)} "
                                f"differ from BENCHMARK.json {sorted(declared[trace])}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: incorrect: {summary['failures']}")
            runs.append((trace, result["metrics"], summary["digest"]))
        if len({d for _, _, d in runs}) != 1:
            problems.append(f"{name}: digests differ between runs")
        for trace in (0, 1):
            a, b = (m for t, m, _ in runs if t == trace)
            for key in a:
                if a[key]["unit"] in EXACT_UNITS and a[key]["value"] != b[key]["value"]:
                    problems.append(f"{name}: {key} {a[key]['value']} != {b[key]['value']}")
        print(f"{name}: digest {runs[0][2][:16]}")
    for p in problems:
        print(p, file=sys.stderr)
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
