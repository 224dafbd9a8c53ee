"""One repetition of a workload, in a fresh interpreter.

run.py starts this script once per repetition, so every repetition imports
the package anew: no cache the package keeps in memory (such as the block
ladder) survives from one repetition to the next.  The job arrives as JSON
on stdin; the record goes to stdout as one JSON line.

Set-up (importing the package and building the inputs) is timed first.  The
timed part runs the operations back to back, optionally with the tracer
installed; the calibration loop is timed before it, after it and between
its operations, outside each operation's time.  Checks, span output and
everything else come after it.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERCENTILE_SPANS = ("hamilton.hamiltonize", "hamilton.tree_sort")
MAX_PROBLEMS = 10  # problem messages kept per repetition
CALIBRATION_SAMPLES = 3  # timings of the calibration loop before and after the timed part
CALIBRATION_EVERY_S = 0.2  # ... and between operations, this often


# a fixed forward graph: two arcs out of each vertex, sorted by head
_CALIBRATION_ARCS = sorted(
    {(u, min(u + 1 + (7 * u + j) % 6, 300)) for u in range(1, 300) for j in range(2)},
    key=lambda arc: arc[1],
)


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def calibration_loop() -> int:
    """A fixed piece of pure-Python work, timed to gauge the machine's speed.

    It uses none of the package, so a change to the package cannot move it.
    It does the kinds of work the package spends its time on: small tuples
    made in calls, sorting, dict building and filtering, and path counting
    over an arc list.  Of the loops tried, this one's time followed the
    workloads' times most closely while other tenants slowed the machine.
    run.py divides every time by this loop's time, so it must never change.
    """
    x, pairs = 1, []
    for _ in range(12_000):
        x = (x * 1_103_515_245 + 12_345) & 0x7FFF_FFFF
        pairs.append(_ordered(x & 255, (x >> 8) & 255))
        if len(pairs) == 64:
            pairs.sort()
            index = dict(pairs)
            pairs = [p for p in pairs if p[0] in index][:8]
    for _ in range(12):
        mu = [0] * 301
        mu[1] = 1
        for u, v in _CALIBRATION_ARCS:
            mu[v] += mu[u]
        indegree: dict[int, int] = {}
        for _, v in _CALIBRATION_ARCS:
            indegree[v] = indegree.get(v, 0) + 1
    return len(pairs) + mu[300] + len(indegree)


def _time_calibration(samples: int = CALIBRATION_SAMPLES) -> list[float]:
    out = []
    for _ in range(samples):
        t = time.perf_counter()
        calibration_loop()
        out.append(time.perf_counter() - t)
    return out


def main() -> int:
    job = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    ops = workloads.build(job["workload"], job["seed"], job["tiny"])
    setup_s = time.perf_counter() - t0
    calibration_s = _time_calibration()
    if job["setup_only"]:
        print(json.dumps({"setup_s": setup_s, "calibration_s": calibration_s}))
        return 0

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    w0 = last_calibration = time.perf_counter()
    for _, arg in ops:
        a = time.perf_counter()
        c = time.process_time()
        try:
            res, nodes = workloads.run_op(job["workload"], arg)
            err = None
        except Exception as exc:  # a crash fails this op; the rest still run
            res, nodes, err = None, 0, f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter() - a, time.process_time() - c, nodes, res, err))
        # interleaved, so that the calibration sees the machine as the operations saw it
        if time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
            calibration_s += _time_calibration(1)
            last_calibration = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    calibration_s += _time_calibration()

    record = {
        "setup_s": setup_s,
        "wall_s": sum(r[0] for r in results),
        "cpu_s": sum(r[1] for r in results),
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration_s,
        "ops": [[name, r[0], r[1], r[2]] for (name, _), r in zip(ops, results)],  # s, cpu s, nodes
        "failed_ops": [],  # positions in "ops" of operations that failed any check
        "wrong_ops": [],  # ... of operations whose result was wrong
        "problems": [],
        "counters": {},
    }
    for i, ((name, arg), (_, _, _, res, err)) in enumerate(zip(ops, results)):
        if err is not None:
            wrong, broken, counters = [err], [], {}
        else:
            wrong, broken, counters = workloads.check(job["workload"], name, arg, res, job["expected"])
        if wrong or broken:
            record["failed_ops"].append(i)
        if wrong:
            record["wrong_ops"].append(i)
        if len(record["problems"]) < MAX_PROBLEMS:
            record["problems"] += [f"{name}: {p}" for p in wrong + broken]
        for key, value in counters.items():
            record["counters"][key] = record["counters"].get(key, 0) + value

    if tracer is not None:
        spans = tracer.summary()
        for name, rec in spans.items():
            if name not in PERCENTILE_SPANS:
                del rec["durations"]
        record["spans"] = spans
        tracer.dump(Path(job["spans_path"]), w0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
