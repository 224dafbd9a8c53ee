#!/usr/bin/env python3
"""Benchmark for cubicpaths: three workloads, end-to-end and per-layer metrics.

Run from the repository root, one workload or all three in turn:

    python3 perfbench/run.py --workload block-ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Workloads are defined in workloads.py.  Load is one process with one
thread: repetitions of the workload run back to back, each in a fresh
interpreter (worker.py), until the next one would overrun ``--seconds``.
Every repetition checks every output after its timed part.  Every time a
repetition measures is rescaled to a reference machine speed by a
calibration loop timed in the same repetition (``at_reference_speed``).
Operations line up across repetitions (same inputs in the same order), and
each operation's time is its median over the repetitions (``_per_op``).

``--trace 0`` reports the end-to-end metrics (E2E below) from untraced
repetitions.  ``--trace 1`` alternates untraced and traced repetitions and
reports the per-layer metrics (LAYER below): per-operation times and node
counts come from the untraced ones, span-derived numbers from the traced
ones, and ``trace.overhead_frac`` compares the two.  A per-layer metric of a
layer the workload does not run reads 0.

The last line of stdout is one JSON object with ``correct`` (no result was
wrong), ``attempted`` and ``failed`` (the workload's distinct operations,
and those of them that failed any check in any repetition, including
guarantee checks such as "no hamiltonize move lowers a count"), and
``metrics``.  The full record (provenance, every repetition, node counts
beside times, the metrics before rescaling) goes to perfbench/out/, with
the spans of traced repetitions.  A tree without the package source exits
with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER_TIMEOUT_S = 170
MIN_SETUP_SAMPLES = 5

# Every workload reports every metric; an operation is a block, a conjecture
# check or a graph.
E2E = {
    "setup_s": "s",  # import the package and build the inputs; median of >= 5 set-ups
    "wall_s": "s",  # timed part of one repetition: sum of the operation times
    "cpu_s": "s",  # process CPU time of the same, per operation
    "nodes": "count",  # program's node count per repetition; graph vertices on graph-rewrite
    "ops_per_s": "1/s",  # operations / wall_s
    "op_ms_p50": "ms",  # quantiles of the operation times
    "op_ms_p99": "ms",
    "peak_rss_mb": "MB",  # peak resident set of a worker (median over repetitions)
}

BLOCK_TOP = tuple(range(17, 23))  # the six largest blocks of the ladder
SEARCH_OPS = ("fibonacci-7", "simple-2ec-7")
PER_CALL_US = (
    "tuples.validity_issues",
    "tuples.tuple_mu",
    "tuples.encode",
    "tuples.decode",
    "dag.is_simple",
    "dag.vertex_kinds",
    "dag.validate",
    "dag.count_paths",
    "dag.structural_3ec",
)
CALL_COUNTS = ("tuples.validity_issues", "tuples.decode", "dag.count_paths")
LAYERS = ("blocks", "search", "tuples", "hamilton", "dag")

LAYER = {
    "blocks.solve_block.nodes_per_s": "1/s",
    **{f"blocks.k{k}.s": "s" for k in BLOCK_TOP},
    **{f"blocks.k{k}.nodes": "count" for k in BLOCK_TOP},
    "blocks.check_assignment.ms": "ms",
    **{f"search.{op}.s": "s" for op in SEARCH_OPS},
    **{f"search.{op}.nodes": "count" for op in SEARCH_OPS},
    "search.nodes_per_s": "1/s",
    "search.enumerate_tuples.s": "s",
    "search.leaf_yield": "ratio",
    **{f"{fn}.us": "us" for fn in PER_CALL_US},
    **{f"{fn}.calls": "count" for fn in CALL_COUNTS},
    "hamilton.hamiltonize.ms_p50": "ms",
    "hamilton.hamiltonize.ms_p99": "ms",
    "hamilton.tree_sort.ms_p50": "ms",
    "hamilton.moves": "count",
    "hamilton.lowering_moves": "count",
    **{f"share.{layer}": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _p99(values) -> float:
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _worker(job: dict) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    """HEAD of the tree's own .git, if it has one (never looks above ROOT)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: bool, tiny: bool, params: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "params": params,
    }


# The usual time of worker.calibration_loop on an idle 2-vCPU Intel Xeon
# virtual machine under CPython 3.11: times are reported at this speed.
REFERENCE_CALIBRATION_S = 0.0072
TIME_KEYS = {"setup_s", "wall_s", "cpu_s", "check_assignment_s", "incl_s", "self_s", "durations"}


def _scaled(value, factor: float, key: str = ""):
    if isinstance(value, dict):
        return {k: _scaled(v, factor, k) for k, v in value.items()}
    if key not in TIME_KEYS:
        return value
    return [v * factor for v in value] if isinstance(value, list) else value * factor


def at_reference_speed(rep: dict) -> dict:
    """A worker's record with every time it measured rescaled to the reference speed.

    The machine's speed drifts by up to 2x for minutes at a time, because
    other virtual machines share its cores.  That moves every repetition of
    a run alike, so no statistic over one run's repetitions removes it.  Each
    worker therefore also times a fixed loop that uses none of the package,
    before its timed part, between its operations and after it, and its
    times are multiplied by REFERENCE_CALIBRATION_S / the loop's median time.
    A change to the package moves the rescaled times in the same proportion
    as the measured ones.
    """
    factor = speed_factor(rep)
    out = _scaled(rep, factor)
    if "ops" in rep:
        out["ops"] = [[name, s * factor, cpu * factor, nodes] for name, s, cpu, nodes in rep["ops"]]
    return out


def speed_factor(rep: dict) -> float:
    return REFERENCE_CALIBRATION_S / statistics.median(rep["calibration_s"])


SECONDS, CPU_SECONDS, NODES = 1, 2, 3  # fields of a repetition's "ops" rows


def _per_op(reps: list[dict], field: int) -> list[float]:
    """Each operation's median over the repetitions (rows line up by position).

    Node counts are equal in every repetition.
    """
    return [_median(r["ops"][i][field] for r in reps) for i in range(len(reps[0]["ops"]))]


def e2e_metrics(reps: list[dict], setup_samples: list[float]) -> dict:
    op_s = _per_op(reps, SECONDS)
    wall_s = sum(op_s)
    latencies_ms = [s * 1e3 for s in op_s]
    return {
        "setup_s": _median(setup_samples),
        "wall_s": wall_s,
        "cpu_s": sum(_per_op(reps, CPU_SECONDS)),
        "nodes": sum(_per_op(reps, NODES)),
        "ops_per_s": len(op_s) / wall_s,
        "op_ms_p50": _median(latencies_ms),
        "op_ms_p99": _p99(latencies_ms),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps),
    }


def layer_metrics(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    m = dict.fromkeys(LAYER, 0.0)
    plain_s = _per_op(plain, SECONDS)
    plain_nodes = _per_op(plain, NODES)
    rate = sum(plain_nodes) / sum(plain_s)
    # block and conjecture operations have unique names
    names = [row[0] for row in plain[0]["ops"]]
    op_s = dict(zip(names, plain_s))
    op_nodes = dict(zip(names, plain_nodes))
    if workload == "block-ladder":
        m["blocks.solve_block.nodes_per_s"] = rate
        for k in BLOCK_TOP:
            m[f"blocks.k{k}.s"] = op_s.get(f"k{k}", 0.0)
            m[f"blocks.k{k}.nodes"] = op_nodes.get(f"k{k}", 0)
        calls = sum(len(r["ops"]) for r in plain + traced)
        check_s = sum(r["counters"].get("check_assignment_s", 0.0) for r in plain + traced)
        m["blocks.check_assignment.ms"] = check_s / calls * 1e3
    if workload == "conjecture-search":
        m["search.nodes_per_s"] = rate
        for op in SEARCH_OPS:
            m[f"search.{op}.s"] = op_s.get(op, 0.0)
            m[f"search.{op}.nodes"] = op_nodes.get(op, 0)
    m["hamilton.moves"] = _median(r["counters"].get("moves", 0) for r in plain)
    m["hamilton.lowering_moves"] = _median(r["counters"].get("lowering_moves", 0) for r in plain)

    spans: dict[str, dict] = {}
    for r in traced:
        for name, rec in r["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []})
            acc["calls"] += rec["calls"]
            acc["incl_s"] += rec["incl_s"]
            acc["self_s"] += rec["self_s"]
            acc["durations"] += rec.get("durations", [])
            acc["yields"] = acc.get("yields", 0) + rec.get("yields", 0)
    n_traced = len(traced)
    enum = spans["search.enumerate_tuples"]
    m["search.enumerate_tuples.s"] = enum["incl_s"] / n_traced
    traced_nodes = sum(op[NODES] for r in traced for op in r["ops"])
    if workload == "conjecture-search":
        m["search.leaf_yield"] = enum["yields"] / traced_nodes
    for fn in PER_CALL_US:
        rec = spans[fn]
        m[f"{fn}.us"] = rec["incl_s"] / rec["calls"] * 1e6 if rec["calls"] else 0.0
    for fn in CALL_COUNTS:
        m[f"{fn}.calls"] = spans[fn]["calls"] / n_traced
    m["hamilton.hamiltonize.ms_p50"] = _median(d * 1e3 for d in spans["hamilton.hamiltonize"]["durations"])
    m["hamilton.hamiltonize.ms_p99"] = _p99([d * 1e3 for d in spans["hamilton.hamiltonize"]["durations"]])
    m["hamilton.tree_sort.ms_p50"] = _median(d * 1e3 for d in spans["hamilton.tree_sort"]["durations"])
    traced_wall = sum(r["wall_s"] for r in traced)
    for layer in LAYERS:
        self_s = sum(rec["self_s"] for name, rec in spans.items() if name.startswith(layer + "."))
        m[f"share.{layer}"] = self_s / traced_wall
    m["trace.overhead_frac"] = sum(_per_op(traced, SECONDS)) / sum(plain_s) - 1.0
    return m


def _workloads_module():
    """Import workloads.py (and with it the package) from this tree's source."""
    if not (ROOT / "src" / "cubicpaths" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}; run from a full checkout")
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    expected: dict | None = None,
    out_dir: Path = OUT,
) -> dict:
    """Run repetitions for about `seconds` and return the full record."""
    workloads = _workloads_module()
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {workloads.WORKLOADS}")
    if expected is None:
        expected = workloads.expected(workload, ROOT, tiny)
    job = {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "expected": expected,
        "setup_only": False,
        "trace": False,
        "spans_path": None,
    }
    start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        if trace and len(plain) > len(traced):
            path = out_dir / f"spans-{workload}-seed{seed}-rep{len(plain) + len(traced)}.csv.gz"
            traced.append(_worker(dict(job, trace=True, spans_path=str(path))))
        else:
            plain.append(_worker(job))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        # stop before a repetition as long as the longest so far would overrun
        if len(plain) + len(traced) >= (2 if trace else 1) and now - start + longest > seconds:
            break
    setups = plain + traced
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_worker(dict(job, setup_only=True)))

    def metrics(scale) -> dict:
        if trace:
            return layer_metrics(workload, [scale(r) for r in plain], [scale(r) for r in traced])
        return e2e_metrics([scale(r) for r in plain], [scale(r)["setup_s"] for r in setups])

    reps = plain + traced
    # Every repetition runs the same operations, so each is counted once: it
    # failed if it failed in any repetition.  The counts then depend on the
    # seed alone, not on how many repetitions fitted into the run.
    record = {
        "correct": not any(r["wrong_ops"] for r in reps),
        "attempted": len(reps[0]["ops"]),
        "failed": len(set().union(*(r["failed_ops"] for r in reps))),
        "metrics": metrics(at_reference_speed),
        "raw_metrics": metrics(lambda r: r),
        "provenance": provenance(workload, seed, seconds, trace, tiny, workloads.params(workload, tiny)),
        "setup_samples": [r["setup_s"] for r in setups],
        "speed_factors": [speed_factor(r) for r in setups],
        "repetitions": [dict(r, traced=False) for r in plain] + [dict(r, traced=True) for r in traced],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def _print_record(record: dict, units: dict) -> None:
    prov = record["provenance"]
    print(
        f"# {prov['workload']} seed={prov['seed']} python={prov['python']} nproc={prov['nproc']} "
        f"commit={prov['git_commit'][:12]} repetitions={len(record['repetitions'])} "
        f"speed_factor={_median(record['speed_factors']):.4f}"
    )
    for name, value in record["metrics"].items():
        print(f"{name:34s} {value:16.6g} {units[name]}")
    failed_frac = record["failed"] / record["attempted"]
    print(f"{'failed_frac':34s} {failed_frac:16.6g} ({record['failed']} of {record['attempted']})")
    for problem in record["repetitions"][0]["problems"]:
        print(f"# check failed: {problem}")
    summary = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in record["metrics"].items()},
    }
    print(json.dumps(summary))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        names = _workloads_module().WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            _print_record(record, LAYER if args.trace else E2E)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
