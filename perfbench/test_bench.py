"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload, tmp_path):
    record = run.measure(workload, seed=7, seconds=1, trace=False, tiny=True, out_dir=tmp_path)
    assert record["correct"]
    assert record["attempted"] >= 1
    if workload != "graph-rewrite":  # graph-rewrite fails on the per-move check (ROADMAP P0)
        assert record["failed"] == 0
    assert set(record["metrics"]) == set(run.E2E)
    assert all(v > 0 for v in record["metrics"].values()), record["metrics"]
    assert len(record["setup_samples"]) >= run.MIN_SETUP_SAMPLES
    saved = json.loads((tmp_path / f"{workload}-seed7-trace0.json").read_text())
    assert saved["provenance"]["seed"] == 7
    assert saved["provenance"]["params"] == workloads.params(workload, True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload, tmp_path):
    record = run.measure(workload, seed=7, seconds=1, trace=True, tiny=True, out_dir=tmp_path)
    assert record["correct"]
    assert set(record["metrics"]) == set(run.LAYER)
    shares = [record["metrics"][f"share.{layer}"] for layer in run.LAYERS]
    assert all(0 <= s <= 1 for s in shares) and sum(shares) <= 1
    assert any(r["traced"] for r in record["repetitions"])
    assert any(not r["traced"] for r in record["repetitions"])
    assert list(tmp_path.glob(f"spans-{workload}-seed7-rep*.csv.gz"))


def test_planted_wrong_block_value_is_a_failure(tmp_path):
    expected = workloads.expected("block-ladder", ROOT, tiny=True)
    expected["f"]["10"] = 20  # f(10) is 19
    record = run.measure("block-ladder", 1, 1, False, tiny=True, expected=expected, out_dir=tmp_path)
    assert not record["correct"]
    assert record["failed"] == 1
    assert all("f(10) = 19, expected 20" in " ".join(r["problems"]) for r in record["repetitions"])


def test_planted_wrong_node_count_is_a_failure(tmp_path):
    expected = workloads.expected("block-ladder", ROOT, tiny=True)
    expected["nodes"]["12"] += 1
    record = run.measure("block-ladder", 1, 1, False, tiny=True, expected=expected, out_dir=tmp_path)
    assert not record["correct"]
    assert record["failed"] == 1


def test_planted_wrong_conjecture_maximum_is_a_failure(tmp_path):
    expected = workloads.expected("conjecture-search", ROOT, tiny=True)
    expected["fibonacci-6"]["max"] = 23
    record = run.measure("conjecture-search", 1, 1, False, tiny=True, expected=expected, out_dir=tmp_path)
    assert not record["correct"]
    assert record["failed"] == 1


def test_full_size_ladder_and_checks():
    table = workloads.expected("block-ladder", ROOT, tiny=False)
    assert sum(table["nodes"].values()) == 2_644_092
    assert list(table["f"]) == [str(k) for k in range(2, 23)]
    assert [f"k{k}" for k in run.BLOCK_TOP] == [n for n, _ in workloads.build("block-ladder", 0, False)][-6:]
    ops = workloads.build("conjecture-search", 0, tiny=False)
    assert [name for name, _ in ops] == list(run.SEARCH_OPS)


def test_rescaling_changes_times_only():
    rep = {
        "calibration_s": [run.REFERENCE_CALIBRATION_S * 2] * 3,
        "setup_s": 1.0,
        "wall_s": 4.0,
        "peak_rss_mb": 20.0,
        "ops": [["k2", 2.0, 1.0, 7]],
        "counters": {"moves": 5, "check_assignment_s": 0.5},
        "spans": {"dag.count_paths": {"calls": 3, "incl_s": 1.0, "self_s": 0.5, "durations": [0.2, 0.4]}},
    }
    out = run.at_reference_speed(rep)
    assert (out["setup_s"], out["wall_s"], out["peak_rss_mb"]) == (0.5, 2.0, 20.0)
    assert out["ops"] == [["k2", 1.0, 0.5, 7]]
    assert out["counters"] == {"moves": 5, "check_assignment_s": 0.25}
    assert out["spans"]["dag.count_paths"] == {"calls": 3, "incl_s": 0.5, "self_s": 0.25, "durations": [0.1, 0.2]}
    assert out["calibration_s"] == rep["calibration_s"]


def test_graph_inputs_depend_only_on_the_seed():
    def edges(seed):
        return [g.edges for _, g in workloads.build("graph-rewrite", seed, tiny=True)]

    assert edges(3) == edges(3)
    assert edges(3) != edges(4)


def test_tracer_nests_spans_and_restores_functions():
    from cubicpaths import dag, hamilton

    g = workloads.build("graph-rewrite", 5, tiny=True)[0][1]
    original = hamilton.count_paths
    tracer = Tracer()
    tracer.install()
    try:
        assert hamilton.count_paths is not original
        hamilton.hamiltonize(g)
    finally:
        tracer.uninstall()
    assert hamilton.count_paths is original and dag.count_paths is original
    spans = tracer.summary()
    ham = spans["hamilton.hamiltonize"]
    assert ham["calls"] == 1
    assert spans["hamilton.tree_sort"]["calls"] == 1
    assert spans["dag.count_paths"]["calls"] >= 2
    assert 0 < ham["self_s"] < ham["incl_s"]
    total_self = sum(rec["self_s"] for rec in spans.values())
    assert total_self == pytest.approx(ham["incl_s"])


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER


def test_tree_without_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "block-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
