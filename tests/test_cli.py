"""End-to-end CLI contract: output lines, JSON schemas, exit codes."""

import json

import pytest

from lsnc import RemovalGraph, build_constraints, build_srg, verify_removes
from lsnc.cli import _fmt_num, main, parse_fade, render_grid
from lsnc.gridio import dumps_grid, loads_grid
from lsnc.latin import Grid
from lsnc.fixtures import load_grid
from lsnc.signal_set import make_psk, make_square_qam

from conftest import QAM8_POINTS, swap_first_cells, with_cell


def write_points(path):
    path.write_text(json.dumps([{"re": p.real, "im": p.imag} for p in QAM8_POINTS]))


class TestParseFade:
    def test_cartesian(self):
        assert parse_fade("0.5+0.5j", None) == 0.5 + 0.5j
        assert parse_fade("-2", None) == -2 + 0j

    def test_polar(self):
        assert parse_fade("polar:1,0", None) == pytest.approx(1 + 0j)
        assert abs(parse_fade("polar:2,3.141592653589793", None) + 2) < 1e-12

    def test_psk_form_needs_psk_signal(self):
        v = parse_fade("psk:1,3", make_psk(8))
        assert abs(v) < 1
        with pytest.raises(ValueError):
            parse_fade("psk:1,3", make_square_qam(4))
        with pytest.raises(ValueError):
            parse_fade("psk:1,3", None)

    def test_malformed_forms_raise(self):
        with pytest.raises(ValueError):
            parse_fade("polar:1", None)
        with pytest.raises(ValueError):
            parse_fade("banana", None)


def test_chromatic_contract_line(capsys):
    assert main(["chromatic", "--signal", "qam:4", "--fade", "0.5+0.5j"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "chi=5"
    colors = json.loads(out[1])["colors"]
    assert len(colors) == 12 and len(set(colors)) == 5


def test_mindist_contract_line(capsys):
    assert main(["mindist", "--signal", "qam:4", "--fade", "0.5+0.5j"]) == 0
    assert capsys.readouterr().out == "points=12 dmin=0\n"


def test_mindist_qam64_regular_state(capsys):
    # 4096 distinct points: the closest pair comes from the sweep
    assert main(["mindist", "--signal", "qam:64", "--fade", "0.37+0.11j"]) == 0
    assert capsys.readouterr().out == "points=4096 dmin=0.14142135623730953\n"


def test_mindist_regular_state(capsys):
    assert main(["mindist", "--signal", "qam:4", "--fade", "0.25+0.1j"]) == 0
    line = capsys.readouterr().out
    assert line.startswith("points=16 dmin=")
    assert float(line.rsplit("=", 1)[1]) > 0


def test_mindist_prints_a_huge_distance_by_repr(tmp_path, capsys):
    # an integral float drops its ".0" only below 2**53, not as 308 digits
    pts = tmp_path / "pts.json"
    pts.write_text('[{"re": 0, "im": 0}, {"re": 1e308, "im": 0}]')
    assert main(["mindist", "--signal", f"custom:@{pts}", "--fade", "0.5"]) == 0
    assert capsys.readouterr().out == "points=4 dmin=5e+307\n"
    assert (_fmt_num(2.0**53 - 1), _fmt_num(-(2.0**53))) == ("9007199254740991", "-9007199254740992.0")


def test_fade_states_json_schema(tmp_path, capsys):
    out = tmp_path / "states.json"
    assert main(["fade-states", "--signal", "qam:4", "--json", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 12
    assert all(set(r) == {"re", "im", "k", "l", "radius"} for r in records)
    assert all(r["k"] is None and r["l"] is None for r in records)

    assert main(["fade-states", "--signal", "psk:8", "--json", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == 104
    assert all(isinstance(r["k"], int) and isinstance(r["l"], int) for r in records)


@pytest.mark.parametrize("m,count", [(2, 2), (3, 6), (6, 42)])
def test_fade_states_of_psk_outside_the_closed_form(m, count, tmp_path, capsys):
    # The closed form covers M a power of two >= 4; other PSK sets are
    # enumerated by brute force and carry no (k, l).
    out = tmp_path / "states.json"
    assert main(["fade-states", "--signal", f"psk:{m}", "--json", str(out)]) == 0
    records = json.loads(out.read_text())
    assert len(records) == count
    assert all(r["k"] is None and r["l"] is None for r in records)


def test_constraints_json_blocks(capsys, qam4_partition):
    assert main(["constraints", "--signal", "qam:4", "--fade", "0.5+0.5j", "--json"]) == 0
    blocks = json.loads(capsys.readouterr().out)["blocks"]
    as_sets = {frozenset(map(tuple, b)) for b in blocks}
    assert as_sets == {frozenset(b) for b in qam4_partition.blocks}


def test_constraints_ascii_shows_grid(capsys):
    assert main(["constraints", "--signal", "qam:4", "--fade", "0.5+0.5j"]) == 0
    out = capsys.readouterr().out
    assert "12 blocks, 4 with two or more cells" in out
    assert out.count("+---+") > 0


def test_graph_exports_roundtrip(tmp_path, capsys, qam4_partition, qam4_graph):
    dot, js = tmp_path / "g.dot", tmp_path / "g.json"
    rc = main(["graph", "--signal", "qam:4", "--fade", "0.5+0.5j",
               "--dot", str(dot), "--json", str(js)])
    assert rc == 0
    assert capsys.readouterr().out == "vertices=12 edges=38\n"
    obj = json.loads(js.read_text())
    rebuilt = RemovalGraph.from_lines(
        obj["n"], [(u - 1, v - 1) for u, v in obj["edges"]]
    )
    assert rebuilt.adj == qam4_graph.adj
    assert obj["vertex_blocks"] == list(range(1, 13))
    text = dot.read_text()
    assert text.count(" -- ") == 38


def test_graph_vital_restriction(tmp_path, capsys):
    js = tmp_path / "v.json"
    main(["graph", "--signal", "qam:4", "--fade", "0.5+0.5j", "--vital", "--json", str(js)])
    obj = json.loads(js.read_text())
    assert obj["n"] == 4


def test_latin_emits_verified_square(tmp_path, capsys, qam4_partition):
    js = tmp_path / "ls.json"
    assert main(["latin", "--signal", "qam:4", "--fade", "0.5+0.5j", "--json", str(js)]) == 0
    assert capsys.readouterr().out == "symbols=5 chi=5\n"
    grid = loads_grid(js.read_text())
    assert verify_removes(grid, qam4_partition)
    assert grid.symbol_count == 5


def test_verify_accepts_and_rejects(tmp_path, capsys):
    pts = tmp_path / "qam8.json"
    write_points(pts)
    good = tmp_path / "good.json"
    good.write_text(dumps_grid(load_grid("qam8_rect_ls")))
    rc = main(["verify", "--latin", str(good), "--signal", f"custom:@{pts}",
               "--fade", "-0.5-0.5j"])
    assert rc == 0
    assert "latin=ok removes=ok complete=yes symbols=8" in capsys.readouterr().out

    broken = with_cell(load_grid("qam8_rect_ls"), 1, 1, 2)  # duplicate in row 1
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_grid(broken))
    rc = main(["verify", "--latin", str(bad), "--signal", f"custom:@{pts}",
               "--fade", "-0.5-0.5j"])
    assert rc == 1
    assert "latin=FAIL" in capsys.readouterr().out


def test_verify_missing_file_is_usage_error(tmp_path, capsys):
    rc = main(["verify", "--latin", str(tmp_path / "nope.json"),
               "--signal", "qam:4", "--fade", "1+0j"])
    assert rc == 2


def test_complete_success_and_failure(tmp_path, capsys):
    part = tmp_path / "p.json"
    part.write_text(dumps_grid(load_grid("hall_rect")))
    assert main(["complete", "--partial", str(part), "--symbols", "4"]) == 0
    assert "symbols=4" in capsys.readouterr().out

    blocked = tmp_path / "blocked.json"
    blocked.write_text(dumps_grid(Grid.from_lists([[1, 0], [0, 2]])))
    assert main(["complete", "--partial", str(blocked), "--symbols", "2"]) == 1

    empty9 = tmp_path / "empty9.json"
    empty9.write_text(dumps_grid(Grid.from_lists([[0] * 9] * 9)))
    capsys.readouterr()
    assert main(["complete", "--partial", str(empty9), "--symbols", "9",
                 "--budget", "3"]) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: extension budget 3 exhausted after 4 nodes with 4 of 81 free vertices colored\n"
    )


def test_complete_rejects_symbol_above_symbol_count(tmp_path, capsys):
    grid = tmp_path / "g.json"
    grid.write_text(dumps_grid(Grid.from_lists([[5, 0, 0], [0, 0, 0], [0, 0, 0]])))
    assert main(["complete", "--partial", str(grid), "--symbols", "3"]) == 2
    assert "symbol 5 outside 1..3" in capsys.readouterr().err


def test_complete_with_a_huge_given_symbol(tmp_path, capsys):
    grid = tmp_path / "g.json"
    grid.write_text(dumps_grid(Grid.from_lists([[10**9, 0, 0], [0, 0, 0], [0, 0, 0]])))
    assert main(["complete", "--partial", str(grid), "--symbols", "1000000000"]) == 0
    assert capsys.readouterr().out == (
        "+------------+------------+------------+\n"
        "| 1000000000 |          1 |          2 |\n"
        "+------------+------------+------------+\n"
        "|          1 |          2 | 1000000000 |\n"
        "+------------+------------+------------+\n"
        "|          2 | 1000000000 |          1 |\n"
        "+------------+------------+------------+\n"
        "symbols=3\n"
    )


def test_psk_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["psk-sweep", "--m", "8", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "12 representatives, 12 verified" in stdout
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary) == 12
    assert {r["case"] for r in summary} == {"BothOdd", "Mixed", "SinOdd", "SinEven"}
    assert all(r["verified"] for r in summary)
    signal = make_psk(8)
    for rec in summary:
        grid = loads_grid((out / f"rep_k{rec['k']}_l{rec['l']}.json").read_text())
        assert grid.symbol_count == 8


@pytest.mark.parametrize("m", [4, 6, 12, 24, 3, 0])
def test_psk_sweep_reports_its_own_rule(m, tmp_path, capsys):
    # PSK sets outside the sweep's M are still valid signal sets; the sweep
    # names its own rule, and leaves no output directory behind.
    out = tmp_path / "sweep"
    assert main(["psk-sweep", "--m", str(m), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: constructions need M a power of two >= 8, got {m}\n"
    assert not out.exists()


def test_psk_sweep_fails_on_a_square_that_does_not_verify(monkeypatch, tmp_path, capsys):
    # The sweep writes nothing until every square is certified.
    swap_first_cells(monkeypatch, (2, 1))
    out = tmp_path / "sweep"
    assert main(["psk-sweep", "--m", "8", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "failed: (2,1): constructed grid is not Latin\n"
    assert captured.out == ""
    assert not out.exists()


def test_psk_sweep_is_byte_deterministic(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        main(["psk-sweep", "--m", "8", "--out", str(tmp_path / sub)])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_clique_text_and_json(capsys):
    assert main(["clique", "--signal", "qam:4", "--fade", "-1-1j"]) == 0
    assert "clique size=5" in capsys.readouterr().out
    assert main(["clique", "--signal", "qam:16", "--fade", "-1-1j", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["size"] == 17 and len(obj["blocks"]) == 17


def test_clique_rejects_psk_signal(capsys):
    assert main(["clique", "--signal", "psk:8", "--fade", "-1-1j"]) == 2


def test_usage_errors(capsys, tmp_path):
    assert main(["mindist", "--signal", "hex:7", "--fade", "1+0j"]) == 2
    assert main(["mindist", "--signal", "qam:4", "--fade", "spiral"]) == 2
    assert main(["chromatic", "--signal", "qam:4", "--fade", "psk:1,2"]) == 2
    capsys.readouterr()
    assert main(["latin", "--signal", "qam:0", "--fade", "1"]) == 2
    assert "square QAM" in capsys.readouterr().err
    # a fade state with no clique certificate is bad input, not a failed check
    assert main(["clique", "--signal", "qam:4", "--fade", "0.3j"]) == 2
    assert capsys.readouterr().err == "error: no clique certificate at fade state 0.3j\n"
    # exact superpositions beyond the float range
    for fade in ("1e308+1e308j", "1.7e308"):
        assert main(["mindist", "--signal", "qam:4", "--fade", fade]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot cluster") and "Traceback" not in err
    for i, text in enumerate(['[{"re": 1}]', '{"re": 1, "im": 2}', "[1, 2]",
                              '[{"re": "1", "im": 2}, {"re": 3, "im": 4}]']):
        pts = tmp_path / f"pts{i}.json"
        pts.write_text(text)
        assert main(["mindist", "--signal", f"custom:@{pts}", "--fade", "1+0j"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and '{"re": number, "im": number}' in err
    # a completion needs a symbol; 0 is the empty-cell marker, not a count
    for symbols in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["complete", "--partial", "unread.json", "--symbols", symbols])
        assert exc.value.code == 2
        assert f"argument --symbols: must be 1 or more, got {symbols}\n" in capsys.readouterr().err
    for removed in (["psk-sweep", "--m", "8", "--timing"],
                    ["constraints", "--signal", "qam:4", "--fade", "1+0j", "--ascii"]):
        with pytest.raises(SystemExit) as exc:
            main(removed)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["chromatic", "--signal", "qam:16", "--fade", "2"],
        ["latin", "--signal", "qam:16", "--fade", "2"],
        ["complete", "--partial", "unread.json", "--symbols", "3"],
    ],
)
def test_negative_budget_is_a_usage_error(argv, capsys):
    # rejected before any search runs, not reported as an exhausted budget
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", "-5"])
    assert exc.value.code == 2
    assert "argument --budget: must be 0 or more, got -5" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["verify", "complete"])
@pytest.mark.parametrize("text", ['{"m": 1, "cells": 5}', '{"m": 1, "cells": [[null]]}',
                                  '{"m": 1, "cells": [[1.7]]}', '{"m": 1, "cells": [[true]]}',
                                  '{"m": 1, "cells": [["3"]]}', "[[1]]", '{"m": 0, "cells": []}'])
def test_malformed_grid_is_a_usage_error(cmd, text, tmp_path, capsys):
    grid = tmp_path / "g.json"
    grid.write_text(text)
    if cmd == "verify":
        argv = ["verify", "--latin", str(grid), "--signal", "qam:4", "--fade", "1+0j"]
    else:
        argv = ["complete", "--partial", str(grid), "--symbols", "4"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("cannot load grid: ")


@pytest.mark.parametrize("cmd", ["constraints", "latin", "mindist"])
@pytest.mark.parametrize(
    "signal,fade",
    [
        ("psk:8", "1e308+1e308j"),
        ("psk:8", "1e308j"),
        ("psk:8", "nan"),
        ("psk:8", "inf"),
        ("qam:16", "nan"),
        ("qam:16", "inf"),
    ],
)
def test_unclusterable_fade_is_a_usage_error(cmd, signal, fade, capsys):
    # Superposed values that overflow or are not finite cannot be clustered.
    assert main([cmd, "--signal", signal, "--fade", fade]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot cluster") and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["graph", "chromatic", "latin"])
@pytest.mark.parametrize("signal,fade", [("qam:4", "0"), ("qam:16", "1e-12"), ("psk:8", "0")])
def test_fade_zero_has_no_removal_graph(cmd, signal, fade, capsys):
    # At fade 0 each constraint block is a whole row, which no Latin square
    # can give one symbol; the graph commands must say so, not report a chi.
    assert main([cmd, "--signal", signal, "--fade", fade]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a constraint block holds two cells of row 1, so no Latin square removes"
        " this partition (each block is a whole row at fade 0)\n"
    )


def test_render_grid_blanks_empty_cells():
    text = render_grid(Grid.from_lists([[1, 0], [0, 12]]))
    assert "| 12 |" in text
    assert "|  1 |" in text
    assert "|    |" in text
