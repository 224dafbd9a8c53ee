import hashlib
import json
from pathlib import Path

import pytest

from cubicpaths import __version__, blocks, check_conjecture, solve_block
from cubicpaths.blocks import table_row
from cubicpaths.cli import main
from cubicpaths.fileio import (
    ParseError,
    growth_csv,
    parse_graph_text,
    report_json,
    write_graph_text,
)

TT_TEXT = """\
# truncated tetrahedron
vertices 12
""" + "".join(
    f"edge {u} {v}\n"
    for u, v in sorted(
        [(i, i + 1) for i in range(1, 12)]
        + [(1, 3), (1, 12), (2, 8), (4, 6), (5, 11), (7, 9), (10, 12)]
    )
)

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "data" / "block_table.json"


@pytest.fixture
def tt_file(tmp_path):
    p = tmp_path / "tt.graph"
    p.write_text(TT_TEXT)
    return str(p)


@pytest.fixture
def table_copy(tmp_path):
    """A copy of the stored block table, which a test may extend or spoil."""
    path = tmp_path / "block_table.json"
    path.write_bytes(TABLE.read_bytes())
    return path


@pytest.fixture
def six_file(tmp_path):
    p = tmp_path / "six.graph"
    p.write_text(
        "vertices 6\n"
        + "".join(
            f"edge {u} {v}\n"
            for u, v in ((1, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6), (5, 6))
        )
    )
    return str(p)


def test_graph_file_roundtrip(truncated_tetrahedron):
    text = write_graph_text(truncated_tetrahedron, ("a comment",))
    parsed = parse_graph_text(text)
    assert parsed == truncated_tetrahedron


def test_graph_parse_diagnostics():
    with pytest.raises(ParseError) as exc:
        parse_graph_text("vertices 3\nedge 2 1\nbogus line\n")
    msgs = exc.value.diagnostics
    assert any("line 2" in m for m in msgs)
    assert any("line 3" in m for m in msgs)
    # an edge line before the vertices line is range-checked all the same
    late = (("edge 1 99\nvertices 4\nedge 1 2\n", "1 99"), ("edge 0 2\nvertices 2\n", "0 2"))
    for text, bad in late:
        with pytest.raises(ParseError, match=f"line 1: edge {bad} outside 1..") as exc:
            parse_graph_text(text)
        assert len(exc.value.diagnostics) == 1


def test_count_edge_before_vertices_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "late.graph"
    p.write_text("edge 1 99\nvertices 4\nedge 1 2\n")
    assert main(["count", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error:\nline 1: edge 1 99 outside 1..4")


def test_report_json_roundtrips_byte_identically():
    doc = {"op": "count", "outputs": {"total": 21}, "version": "0.1.0"}
    s = report_json(doc)
    assert report_json(json.loads(s)) == s


def test_growth_csv_format():
    from cubicpaths import growth_factor

    assert growth_csv([(36, 11117, growth_factor(11117, 36))]) == "k,f,g2\n36,11117,1.677943\n"


def test_count_command(tt_file, capsys):
    assert main(["count", tt_file]) == 0
    out = capsys.readouterr().out
    assert "total: 21" in out


def test_count_command_json(tt_file, capsys):
    assert main(["--format", "json", "count", tt_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["total"] == 21
    assert doc["version"] == __version__


def test_count_rejects_invalid(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("vertices 3\nedge 1 2\n")
    assert main(["count", str(p)]) == 1


def test_single_edge_counts(tmp_path, capsys):
    p = tmp_path / "one.graph"
    p.write_text("vertices 2\nedge 1 2\n")
    assert main(["count", str(p)]) == 0
    assert "total: 1" in capsys.readouterr().out


def test_hamiltonize_command(six_file, tmp_path, capsys):
    out_path = tmp_path / "out.graph"
    assert main(["hamiltonize", six_file, "--out", str(out_path)]) == 0
    text = capsys.readouterr().out
    assert "total: 5 -> 5" in text
    rewritten = parse_graph_text(out_path.read_text())
    from cubicpaths import is_on_ham_path

    assert is_on_ham_path(rewritten)


def test_hamiltonize_fixed_point(tt_file, capsys):
    assert main(["hamiltonize", tt_file]) == 0
    assert "moves: 0" in capsys.readouterr().out


def test_hamiltonize_invalid(tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("vertices 2\nedge 1 2\n")
    assert main(["hamiltonize", str(p)]) == 1


def test_hamiltonize_broken_guarantee(six_file, monkeypatch, capsys):
    from cubicpaths import RewriteError, cli

    def broken(dag):
        raise RewriteError("incoming move at 4 lowered a path count")

    monkeypatch.setattr(cli, "hamiltonize", broken)
    assert main(["hamiltonize", six_file]) == 1
    assert "lowered a path count" in capsys.readouterr().err


def test_tuple_decode(capsys):
    assert main(["tuple", "decode", "2,4,5,4,5"]) == 0
    out = capsys.readouterr().out
    assert "vertices 10" in out
    parsed = parse_graph_text(out)
    from cubicpaths import count_paths

    assert count_paths(parsed).total == 12


def test_tuple_mu_merged(capsys):
    assert main(["tuple", "mu", "2,2,3,4,6,6", "--class", "merged"]) == 0
    assert "total: 36" in capsys.readouterr().out


def test_tuple_validate_names_condition(capsys):
    assert main(["tuple", "validate", "2,2,4,4", "--conn", "3"]) == 1
    out = capsys.readouterr().out
    assert "valid: false" in out
    assert "[1, 2]" in out


def test_tuple_encode(tt_file, capsys):
    assert main(["tuple", "encode", tt_file]) == 0
    out = capsys.readouterr().out
    assert "tuple: 7,3,6,5,7,6,7" in out
    assert "class: merged" in out


def test_every_verb_reports_a_malformed_file_alike(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("vertices 4\nedge 1 2\nedge one 3\n")
    for verb in (["tuple", "encode"], ["count"], ["hamiltonize"]):
        assert main([*verb, str(p)]) == 1
        assert capsys.readouterr().err.startswith("parse error:\nline 3: ")


def test_search_fibonacci(capsys):
    assert main(["search", "--n", "6", "--check", "fibonacci"]) == 0
    out = capsys.readouterr().out
    assert "max: 22" in out
    assert "7,3,4,5,6,7,7" in out
    assert main(["--format", "json", "search", "--n", "6", "--check", "fibonacci"]) == 0
    doc = json.loads(capsys.readouterr().out)
    outputs = doc["outputs"]
    r = check_conjecture("fibonacci", 6)
    cuts = ("nodes", "dead_prefix_cuts", "simple_cuts", "run_cuts", "bound_cuts", "dominance_cuts")
    assert [outputs[key] for key in cuts] == [getattr(r, key) for key in cuts]
    assert r.dead_prefix_cuts > 0 and r.bound_cuts > 0 and r.simple_cuts == r.run_cuts == 0
    assert r.dominance_cuts > 0
    # the wedge seeds the maximum 22, so no raise above it is recorded
    assert doc["provenance"]["seed"] == {"family": "wedge", "tuple": "7,3,4,5,6,7,7", "total": 22}
    assert doc["provenance"]["incumbents"] == []
    assert r.incumbent_trail == ()


def test_search_reports_no_seed_and_each_raise_on_a_boundary_spec(capsys):
    # each raise of the maximum as [nodes so far, new maximum]
    assert main(["--format", "json", "search", "--n", "6"]) == 0
    provenance = json.loads(capsys.readouterr().out)["provenance"]
    assert provenance["seed"] is None
    assert provenance["incumbents"] == [[7, 64]]


def test_search_check_reports_the_searched_spec(capsys):
    argv = ["--format", "json", "search", "--check", "simple-2ec", "--n", "5"]
    assert main([*argv, "--prune", "kind-run"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"] == {
        "n": 5,
        "check": "simple-2ec",
        "length": 6,
        "class": "merged",
        "connectivity": 2,
        "simple": True,
        "prunes": ["kind-run"],
    }
    r = check_conjecture("simple-2ec", 5, prunes=frozenset({"kind-run"}))
    assert doc["outputs"]["simple_cuts"] == r.simple_cuts > 0
    assert doc["outputs"]["run_cuts"] == r.run_cuts > 0
    assert doc["outputs"]["max_total"] == r.max_total == 16


@pytest.mark.parametrize(
    "flags, named",
    (
        (["--class", "merged"], ["--class"]),
        (["--conn", "3"], ["--conn"]),
        (["--simple"], ["--simple"]),
        (["--simple", "--conn", "1", "--class", "boundary"], ["--class", "--conn", "--simple"]),
    ),
)
def test_search_check_rejects_the_flags_it_sets(flags, named, capsys):
    # --check searches its row's own spec; a flag it would ignore is an error
    assert main(["search", "--check", "fibonacci", "--n", "5", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert all(flag in err[0] for flag in named)


def test_search_incomplete_check_leaves_equality_open(capsys):
    assert main(["--budget", "50", "search", "--n", "7", "--check", "fibonacci"]) == 0
    out = capsys.readouterr().out
    assert "equal=None" in out
    assert "warning: search incomplete (budget exhausted)" in out


def test_search_merged_2ec(capsys):
    assert main(["search", "--n", "5", "--class", "merged", "--conn", "2"]) == 0
    assert "max: 17" in capsys.readouterr().out


def test_search_single_tuple(capsys):
    assert main(["search", "--n", "1"]) == 0
    assert "max: 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    (["--n", "0"], ["--n", "-2"], ["--check", "fibonacci", "--n", "0"]),
)
def test_search_needs_a_positive_length(argv, capsys):
    assert main(["search", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("n", ("1", "2"))
def test_search_conn_below_its_first_n_is_no_counterexample(n, capsys):
    assert main(["search", "--check", "conn", "--n", n]) == 0
    assert "COUNTEREXAMPLE" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    (
        ["search", "--n", "3"],
        ["block", "--k", "5"],
        ["block", "--k", "5", "--table", str(TABLE)],
    ),
)
def test_negative_budget_is_an_error_line(argv, capsys):
    assert main(["--budget", "-5", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert err == ["error: budget must be non-negative, not -5"]


@pytest.mark.parametrize(
    "budget, stop, complete", ((None, "complete", True), (10, "budget", False))
)
def test_search_json_reports_stop_and_seconds(budget, stop, complete, capsys):
    flags = [] if budget is None else ["--budget", str(budget)]
    argv = ["--format", "json", *flags, "search", "--n", "6", "--class", "merged"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"]["complete"] is complete
    provenance = report["provenance"]
    assert (provenance["budget"], provenance["stop"]) == (budget, stop)
    assert provenance["seconds"] >= 0


def test_search_strict_budget(capsys):
    assert main(["--budget", "10", "--strict", "search", "--n", "6", "--class", "merged"]) == 2
    assert main(["--budget", "10", "search", "--n", "6", "--class", "merged"]) == 0


def test_block_command(capsys):
    assert main(["block", "--k", "8"]) == 0
    out = capsys.readouterr().out
    assert "f(8) = 11" in out


def test_block_json_reports_the_cuts(capsys):
    assert main(["--format", "json", "block", "--k", "12"]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    # the outputs are the block's row, as the stored table holds it
    assert outputs == table_row(solve_block(12))
    assert outputs["dominance_cuts"] > 0 and outputs["ladder_cuts"] > 0


def test_block_json_reports_the_incumbent_trail(capsys):
    # a solved row lists each raise of its incumbent; a stored row was not
    # searched, so it lists none
    assert main(["--format", "json", "block", "--k", "14"]) == 0
    provenance = json.loads(capsys.readouterr().out)["provenance"]
    assert provenance["incumbents"] == [[63, 47], [153, 48]]
    assert main(["--format", "json", "block", "--k", "14", "--table", str(TABLE)]) == 0
    assert json.loads(capsys.readouterr().out)["provenance"]["incumbents"] == []


def test_block_json_reports_the_lookahead_cuts(capsys):
    # a solved row gives the children only the lookahead bound cut, and
    # those only the counts of the tails left open cut, which its stored
    # row leaves out; a row read from the table gives null for both
    assert main(["--format", "json", "block", "--k", "14"]) == 0
    report = json.loads(capsys.readouterr().out)
    sol = solve_block(14)
    assert report["provenance"]["lookahead_cuts"] == sol.lookahead_cuts == 70
    assert report["provenance"]["open_count_cuts"] == sol.open_count_cuts == 56
    assert "lookahead_cuts" not in report["outputs"]
    assert "open_count_cuts" not in report["outputs"]
    assert main(["--format", "json", "block", "--k", "14", "--table", str(TABLE)]) == 0
    provenance = json.loads(capsys.readouterr().out)["provenance"]
    assert provenance["lookahead_cuts"] is provenance["open_count_cuts"] is None


@pytest.mark.parametrize(
    "budget, stop, proven", ((None, "complete", True), (150, "budget", False))
)
def test_block_json_reports_floor_runs_and_provenance(budget, stop, proven, capsys):
    # k=11's floor, 22, is one below f: the leaf worth f beats it and
    # proves f in one run; 150 nodes prove k=10 (129) but stop k=11 (246)
    flags = [] if budget is None else ["--budget", str(budget)]
    assert main(["--format", "json", *flags, "block", "--k", "11"]) == 0
    report = json.loads(capsys.readouterr().out)
    outputs, provenance = report["outputs"], report["provenance"]
    assert (outputs["floor"], outputs["proven"]) == (22, proven)
    assert outputs["runs"] == 1
    assert (provenance["budget"], provenance["stop"]) == (budget, stop)
    assert provenance["seconds"] >= 0
    if budget is not None:
        assert outputs["nodes"] == budget + 1


@pytest.mark.parametrize(
    "argv", (["block", "--k", "10"], ["bound", "--range", "6", "11"])
)
def test_block_budget_too_small_is_an_error_line(argv, capsys):
    assert main(["--budget", "1", *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: budget 1 too small to reach any feasible assignment")
    # the rung that ran out, as ``block --table`` names it
    assert err[0].endswith("for k=3")


def test_block_graph_out(tmp_path, capsys):
    out_path = tmp_path / "block.graph"
    assert main(["block", "--k", "6", "--graph-out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "dummy edge" in text
    parse_graph_text(text)  # syntactically round-trippable


def test_bound_command(table_copy, tmp_path, monkeypatch, capsys):
    def no_solve(*args):
        raise AssertionError("a stored row was solved again")

    monkeypatch.setattr(blocks, "solve_rung", no_solve)
    csv = tmp_path / "growth.csv"
    argv = ["bound", "--range", "35", "40", "--table", str(table_copy), "--csv", str(csv)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "bound base: 1.6779 at k=36" in captured.out
    assert "final block constant: 6743" in captured.out
    assert captured.err == ""
    lines = csv.read_text().splitlines()
    assert lines[0] == "k,f,g2"
    assert lines[2] == "36,11117,1.677943"
    assert table_copy.read_bytes() == TABLE.read_bytes()
    assert main(["--format", "json", *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"] == {"range": [35, 40], "table": str(table_copy)}
    provenance = report["provenance"]
    assert provenance["table_sha256"] == hashlib.sha256(TABLE.read_bytes()).hexdigest()
    assert provenance["relative_to"] == "table"


def test_bound_table_names_the_file_it_leaves(tmp_path, capsys):
    # rows 2..11 are solved into an empty table; the digest is the new file's
    path = tmp_path / "table.json"
    argv = ["--format", "json", "bound", "--range", "6", "11", "--table", str(path)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.err.splitlines()] == [
        f"k={k}" for k in range(2, 12)
    ]
    report = json.loads(captured.out)
    assert report["provenance"]["table_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert main(["--format", "json", "bound", "--range", "6", "11"]) == 0
    assert report["outputs"] == json.loads(capsys.readouterr().out)["outputs"]


def test_bound_and_block_rows_of_one_k_agree(capsys):
    assert main(["--format", "json", "bound", "--range", "6", "11"]) == 0
    rows = json.loads(capsys.readouterr().out)["outputs"]["rows"]
    assert [r["k"] for r in rows] == list(range(6, 12))
    for row in rows:
        assert main(["--format", "json", "block", "--k", str(row["k"])]) == 0
        block = json.loads(capsys.readouterr().out)["outputs"]
        assert {name: block[name] for name in ("f", "g2", "proven")} == {
            name: row[name] for name in ("f", "g2", "proven")
        }
    assert rows[1]["g2"] == 1.873444  # k=7, f=9: 6 decimals, as in the stored table


@pytest.mark.parametrize("budget, stop, rigorous", ((None, "complete", True), (200, "budget", False)))
def test_bound_json_reports_stop_and_seconds(budget, stop, rigorous, capsys):
    # 200 nodes prove k=6..10 but stop k=11 (246 nodes)
    flags = [] if budget is None else ["--budget", str(budget)]
    assert main(["--format", "json", *flags, "bound", "--range", "6", "11"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outputs"]["rigorous"] is rigorous
    provenance = report["provenance"]
    assert (provenance["budget"], provenance["stop"]) == (budget, stop)
    assert provenance["seconds"] >= 0


@pytest.mark.parametrize(
    "argv",
    (
        ["bound", "--range", "1", "6", "--table", "/nonexistent/table.json"],
        ["--budget", "1", "bound", "--range", "1", "6"],
        ["bound", "--range", "1", "6"],
    ),
)
def test_bound_rejects_a_block_of_one_vertex(argv, capsys):
    # before any table is read or any block solved
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: blocks need k >= 2, not k=1"]


def test_bound_window_too_small(table_copy, monkeypatch, capsys):
    def no_solve(*args):
        raise AssertionError("a block was solved for a window that is too small")

    monkeypatch.setattr(blocks, "solve_rung", no_solve)
    monkeypatch.setattr(blocks, "load_table", no_solve)
    for table in ([], ["--table", str(table_copy)]):
        assert main(["bound", "--range", "35", "39", *table]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: window must cover at least 6 consecutive block sizes"
        ]


@pytest.mark.parametrize(
    "argv",
    (
        ["count", "/nonexistent"],
        ["bound", "--range", "35", "40", "--table", "{table}", "--csv", "/missing/dir/x.csv"],
    ),
)
def test_a_file_that_cannot_be_read_or_written_is_an_error_line(argv, table_copy, capsys):
    assert main([arg.format(table=table_copy) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "No such file or directory" in line


def test_determinism(tt_file, capsys):
    main(["--format", "json", "tuple", "encode", tt_file])
    first = capsys.readouterr().out
    main(["--format", "json", "tuple", "encode", tt_file])
    assert capsys.readouterr().out == first
