#!/usr/bin/env python3
"""Solve the block ladder and keep a JSON cache of proven optima.

Each block size is solved exactly and appended to the cache file as soon as
it is proven, so an interrupted run resumes where it left off.  The proven
rows of the cache are the ladder that bounds the larger sizes, and are not
solved again.  The cache is read with ``blocks.load_table``, which audits
every row from its witness first: a row whose witness is infeasible or does
not reproduce its f, or that lacks a field, ends the run with one
``error:`` line and exit status 1 before anything is solved or written.
Each newly solved row is ``blocks.table_row`` of its solution (f, g2, the
proof flag, node and cut counts, the aspiration floor, the number of runs
and the witness, every unit arc (i, j) of the assignment), plus the
seconds it took and the ``cubicpaths`` version that solved it.  From an
empty cache on Python 3.11 (2 CPUs), k=2..32 takes about 4 s, k=35..39
about 18 s, and the whole table to k=40 about 31 s.  A budget too small to
reach any assignment for some size ends the run the same way; the rows
solved before it stay in the cache.

Usage:
    python scripts/solve_blocks.py --kmax 40 [--cache data/block_table.json]
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cubicpaths
from cubicpaths import blocks


def save_cache(path: Path, cache: dict[int, dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({str(k): v for k, v in sorted(cache.items())}, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=40)
    ap.add_argument("--cache", type=Path, default=Path("data/block_table.json"))
    ap.add_argument("--budget", type=int, default=None, help="node budget per block")
    args = ap.parse_args()

    try:
        cache = blocks.load_table(args.cache) if args.cache.exists() else {}
    except ValueError as exc:
        print(f"error: {args.cache}: {exc}", file=sys.stderr)
        return 1
    ladder = {k: row["f"] for k, row in cache.items() if row["proven"]}

    for k in range(2, args.kmax + 1):
        if k in ladder:
            continue
        t0 = time.perf_counter()
        try:
            sol = blocks.solve_rung(k, ladder, budget=args.budget)
        except blocks.BudgetTooSmallError as exc:
            # the rows solved so far are saved already
            print(f"error: {exc}", file=sys.stderr)
            return 1
        dt = time.perf_counter() - t0
        if sol.proven_optimal:
            ladder[k] = sol.f
        cache[k] = {
            **blocks.table_row(sol),
            "seconds": round(dt, 2),
            "solver": cubicpaths.__version__,
        }
        save_cache(args.cache, cache)
        print(
            f"k={k}: f={sol.f} g2={cache[k]['g2']} proven={sol.proven_optimal} "
            f"nodes={sol.nodes_explored} ({dt:.1f}s)",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
