"""Command-line front end.

Exit codes: 0 success, 1 verification failed / infeasible, 2 usage error,
3 search budget exhausted.  All output is deterministic: identical
invocations produce byte-identical streams and files.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from .constraint import ConstraintPartition, build_constraints, constrained_pls, effective_constellation
from .coloring import DEFAULT_BUDGET, ChromaticResult, exact_chromatic, generic_complete
from .errors import (
    AmbiguousGroupingError,
    CertificateMismatchError,
    CompletionError,
    SearchBudgetExceeded,
)
from .fade_state import enumerate_singular_fade_states, psk_representative, psk_singular_fade_states
from .gridio import dumps_grid, loads_grid
from .latin import Grid, from_coloring, verify_latin, verify_removes
from .psk_construct import classify, remove_all_psk
from .signal_set import SignalSet, from_spec
from .srg import RemovalGraph, build_srg, qam_clique_certificate, to_dot, vital_subgraph

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _fmt_num(x: float) -> str:
    """Render an integral float below 2**53 without its ".0" (0.0 as 0) and
    anything else by repr, so 1e308 stays 1e+308, not 309 digits."""
    if abs(x) < 2**53 and x == int(x):
        return str(int(x))
    return repr(x)


def render_grid(grid: Grid) -> str:
    """ASCII boxed table in the style of the printed figures."""
    w = max(len(str(s)) for row in grid.rows for s in row)
    sep = "+" + ("-" * (w + 2) + "+") * grid.m
    lines = [sep]
    for row in grid.rows:
        cells = " | ".join(str(s).rjust(w) if s else " " * w for s in row)
        lines.append(f"| {cells} |")
        lines.append(sep)
    return "\n".join(lines)


def parse_fade(text: str, signal: SignalSet | None) -> complex:
    """Parse --fade: a+bj, polar:r,theta, or psk:k,l (PSK signal required)."""
    if text.startswith("psk:"):
        if signal is None or signal.kind != "psk":
            raise ValueError("psk:k,l fade states need --signal psk:M")
        parts = text[len("psk:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected psk:k,l, got {text!r}")
        k, l = (int(p) for p in parts)
        return psk_representative(signal.size, k, l).value
    if text.startswith("polar:"):
        parts = text[len("polar:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected polar:r,theta, got {text!r}")
        r, theta = (float(p) for p in parts)
        return r * cmath.exp(1j * theta)
    return complex(text.replace(" ", ""))


def _partition(args: argparse.Namespace) -> ConstraintPartition:
    """The constraint partition of --signal at --fade."""
    signal = from_spec(args.signal)
    return build_constraints(signal, parse_fade(args.fade, signal))


def _chromatic(graph: RemovalGraph, budget: int) -> ChromaticResult | None:
    """exact_chromatic within `budget`; None, after reporting its bounds, if not optimal."""
    result = exact_chromatic(graph, node_budget=budget)
    if not result.optimal:
        print(
            f"budget exhausted; chi in [{result.lower}, {result.chi}] after {result.nodes} nodes",
            file=sys.stderr,
        )
        return None
    return result


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type for a count of at least `low`: --budget (nodes, 0 or
    more) and --symbols (1 or more)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {low} or more, got {value}")
        return value

    return parse


def _dump_json(obj: Any) -> str:
    if isinstance(obj, list):  # one record per line
        body = ",\n ".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in obj)
        return "[\n " + body + "\n]\n" if obj else "[]\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_fade_states(args: argparse.Namespace) -> int:
    signal = from_spec(args.signal)
    m = signal.size
    if signal.kind == "psk" and m >= 4 and not m & (m - 1):  # the closed form's range
        states = psk_singular_fade_states(m)
    else:
        states = enumerate_singular_fade_states(signal)
    records = [
        {
            "re": fs.value.real,
            "im": fs.value.imag,
            "k": fs.k,
            "l": fs.l,
            "radius": fs.radius,
        }
        for fs in states
    ]
    if args.json:
        Path(args.json).write_text(_dump_json(records))
        print(f"{len(records)} singular fade states -> {args.json}")
    else:
        print(f"{len(records)} singular fade states")
        for r in records:
            kl = f" k={r['k']} l={r['l']}" if r["k"] is not None else ""
            print(f"  {_fmt_num(r['re'])}{'+' if r['im'] >= 0 else ''}{_fmt_num(r['im'])}j"
                  f"  radius={_fmt_num(r['radius'])}{kl}")
    return EXIT_OK


def cmd_constraints(args: argparse.Namespace) -> int:
    part = _partition(args)
    if args.json:
        print(_dump_json({"blocks": [[[r, c] for (r, c) in blk] for blk in part.blocks]}), end="")
    else:
        print(render_grid(constrained_pls(part)))
        print(f"{len(part.blocks)} blocks, {len(part.multi_indices)} with two or more cells")
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    part = _partition(args)
    graph = build_srg(part)
    if args.vital:
        graph = vital_subgraph(graph, part)
    if args.dot:
        Path(args.dot).write_text(to_dot(graph))
    if args.json:
        Path(args.json).write_text(_dump_json({
            "n": graph.n,
            "vertex_blocks": [b + 1 for b in graph.vertex_block],
            "edges": [[u + 1, v + 1] for (u, v) in graph.edges()],
        }))
    print(f"vertices={graph.n} edges={graph.edge_count}")
    return EXIT_OK


def cmd_chromatic(args: argparse.Namespace) -> int:
    part = _partition(args)
    graph = build_srg(part)
    if args.vital_only:
        graph = vital_subgraph(graph, part)
    result = _chromatic(graph, args.budget)
    if result is None:
        return EXIT_BUDGET
    print(f"chi={result.chi}")
    print(json.dumps({"colors": list(result.coloring.colors)}, separators=(",", ":")))
    return EXIT_OK


def cmd_latin(args: argparse.Namespace) -> int:
    part = _partition(args)
    result = _chromatic(build_srg(part), args.budget)
    if result is None:
        return EXIT_BUDGET
    grid = from_coloring(part, result.coloring)
    if not (verify_latin(grid) and verify_removes(grid, part)):
        print("internal check failed: emitted square does not verify", file=sys.stderr)
        return EXIT_FAILED
    if args.json:
        Path(args.json).write_text(dumps_grid(grid))
    else:
        print(render_grid(grid))
    print(f"symbols={grid.symbol_count} chi={result.chi}")
    return EXIT_OK


def _load_grid(path: str) -> Grid | None:
    """The grid in a JSON file, or None once the reason it cannot be read
    is on stderr."""
    try:
        return loads_grid(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        print(f"cannot load grid: {exc}", file=sys.stderr)
        return None


def cmd_verify(args: argparse.Namespace) -> int:
    signal = from_spec(args.signal)
    fade = parse_fade(args.fade, signal)
    grid = _load_grid(args.latin)
    if grid is None:
        return EXIT_USAGE
    if grid.m != signal.size:
        raise ValueError(f"grid is {grid.m}x{grid.m}, but {args.signal} needs {signal.size}x{signal.size}")
    part = build_constraints(signal, fade)
    complete = grid.is_complete()
    latin = verify_latin(grid)
    removes = verify_removes(grid, part)
    print(f"latin={'ok' if latin else 'FAIL'} removes={'ok' if removes else 'FAIL'} "
          f"complete={'yes' if complete else 'no'} symbols={grid.symbol_count}")
    ok = latin and removes and (complete or args.allow_partial)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_complete(args: argparse.Namespace) -> int:
    grid = _load_grid(args.partial)
    if grid is None:
        return EXIT_USAGE
    done = generic_complete(grid, args.symbols, node_budget=args.budget)
    if done is None:
        print(f"no completion with {args.symbols} symbols exists", file=sys.stderr)
        return EXIT_FAILED
    if args.json:
        Path(args.json).write_text(dumps_grid(done))
    else:
        print(render_grid(done))
    print(f"symbols={done.symbol_count}")
    return EXIT_OK


def cmd_psk_sweep(args: argparse.Namespace) -> int:
    m = args.m
    squares = remove_all_psk(m)  # certified: each square verified, chi = M by row 1's M blocks
    records = [
        {"k": k, "l": l, "case": classify(m, k, l).tag, "method": "closed-form",
         "symbols": m, "chi_lower": m, "chi_upper": m, "verified": True}
        for k, l in squares
    ]
    print(f"{'k':>3} {'l':>3}  {'case':<10} {'symbols':>7}  {'chi':>5}  verified")
    for rec in records:
        print(f"{rec['k']:>3} {rec['l']:>3}  {rec['case']:<10} {m:>7}  {m:>2}={m:<2}  yes")
    print(f"{len(records)} representatives, {len(records)} verified")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for (k, l), grid in squares.items():
            (out_dir / f"rep_k{k}_l{l}.json").write_text(dumps_grid(grid))
        (out_dir / "summary.json").write_text(_dump_json(records))
    return EXIT_OK


def cmd_clique(args: argparse.Namespace) -> int:
    signal = from_spec(args.signal)
    if signal.kind != "qam":
        print("clique certificates are defined for qam:M signals", file=sys.stderr)
        return EXIT_USAGE
    vertices = qam_clique_certificate(signal.size, parse_fade(args.fade, signal))
    if args.json:
        print(_dump_json({"size": len(vertices), "blocks": [v + 1 for v in vertices]}), end="")
    else:
        print(f"clique size={len(vertices)}")
        print("blocks: " + " ".join(str(v + 1) for v in vertices))
    return EXIT_OK


def cmd_mindist(args: argparse.Namespace) -> int:
    signal = from_spec(args.signal)
    fade = parse_fade(args.fade, signal)
    points, dmin = effective_constellation(signal, fade)
    print(f"points={len(points)} dmin={_fmt_num(dmin)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lsnc",
        description="Synthesize and verify Latin-square relay maps that "
                    "remove singular fade states.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_signal_fade(sp):
        sp.add_argument("--signal", required=True,
                        help="psk:M | qam:M | pam:M | custom:@points.json")
        sp.add_argument("--fade", required=True, help="a+bj | polar:r,theta | psk:k,l")

    sp = sub.add_parser("fade-states", help="enumerate singular fade states")
    sp.add_argument("--signal", required=True)
    sp.add_argument("--json", metavar="PATH", help="write records to a JSON file")
    sp.set_defaults(func=cmd_fade_states)

    sp = sub.add_parser("constraints", help="show the constraint partition")
    add_signal_fade(sp)
    sp.add_argument("--json", action="store_true", help="JSON blocks to stdout, not a boxed table")
    sp.set_defaults(func=cmd_constraints)

    sp = sub.add_parser("graph", help="export the singularity removal graph")
    add_signal_fade(sp)
    sp.add_argument("--vital", action="store_true", help="restrict to multi-cell blocks")
    sp.add_argument("--dot", metavar="PATH", help="write a DOT file")
    sp.add_argument("--json", metavar="PATH", help="write a JSON file")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("chromatic", help="exact chromatic number of the graph")
    add_signal_fade(sp)
    sp.add_argument("--vital-only", action="store_true")
    sp.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET, help="search node budget")
    sp.set_defaults(func=cmd_chromatic)

    sp = sub.add_parser("latin", help="emit a minimum-symbol removing Latin square")
    add_signal_fade(sp)
    sp.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET)
    sp.add_argument("--json", metavar="PATH", help="write the grid JSON here")
    sp.set_defaults(func=cmd_latin)

    sp = sub.add_parser("verify", help="verify a Latin square against a fade state")
    sp.add_argument("--latin", required=True, metavar="GRID.json")
    add_signal_fade(sp)
    sp.add_argument("--allow-partial", action="store_true",
                    help="accept incomplete grids")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("complete", help="complete a partial Latin square")
    sp.add_argument("--partial", required=True, metavar="GRID.json")
    sp.add_argument("--symbols", required=True, type=_int_at_least(1))
    sp.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET)
    sp.add_argument("--json", metavar="PATH", help="write the grid JSON here")
    sp.set_defaults(func=cmd_complete)

    sp = sub.add_parser("psk-sweep", help="build squares for all PSK representatives")
    sp.add_argument("--m", required=True, type=int)
    sp.add_argument("--out", metavar="DIR", help="write per-state grids + summary.json")
    sp.set_defaults(func=cmd_psk_sweep)

    sp = sub.add_parser("clique", help="certified clique for square QAM states")
    add_signal_fade(sp)
    sp.add_argument("--json", action="store_true", help="JSON to stdout")
    sp.set_defaults(func=cmd_clique)

    sp = sub.add_parser("mindist", help="effective constellation size and min distance")
    add_signal_fade(sp)
    sp.set_defaults(func=cmd_mindist)
    return p


def _absorb_fade_value(argv: list[str]) -> list[str]:
    """Fold `--fade -0.5-0.5j` into `--fade=-0.5-0.5j`.

    argparse otherwise reads a leading-minus fade value as an option flag.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--fade" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--fade={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_absorb_fade_value(list(argv if argv is not None else sys.argv[1:])))
    try:
        return args.func(args)
    except SearchBudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CompletionError, CertificateMismatchError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except (ValueError, AmbiguousGroupingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
