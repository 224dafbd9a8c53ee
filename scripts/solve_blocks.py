#!/usr/bin/env python3
"""Solve the block ladder and keep a JSON cache of proven optima.

Each block size is solved exactly and appended to the cache file as soon as
it is proven, so an interrupted run resumes where it left off.  The proven
rows of the cache are the ladder that bounds the larger sizes: a proven row
is trusted as it stands and never solved again.  Each newly solved row
also stores its witness, every unit arc (i, j) of the assignment, so that
``blocks.check_assignment`` and ``blocks.recompute_counts`` can audit it
without solving again, with the block's node and cut counts, the
aspiration floor its search started from and its number of runs (2 when no
leaf beat the floor and the search ran again from 0), and the
``cubicpaths`` version that solved it.  From an empty cache on Python 3.11
(2 CPUs), k=2..32 takes about 4 s, k=35..39 about 18 s, and the whole table
to k=40 about 31 s.  A budget too small to reach any assignment for some
size ends the run with one ``error:`` line and exit status 1; the rows
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


def load_cache(path: Path) -> dict[int, dict]:
    if path.exists():
        raw = json.loads(path.read_text())
        return {int(k): v for k, v in raw.items()}
    return {}


def save_cache(path: Path, cache: dict[int, dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({str(k): v for k, v in sorted(cache.items())}, indent=1) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=40)
    ap.add_argument("--cache", type=Path, default=Path("data/block_table.json"))
    ap.add_argument("--budget", type=int, default=None, help="node budget per block")
    args = ap.parse_args()

    cache = load_cache(args.cache)
    ladder = {k: row["f"] for k, row in cache.items() if row.get("proven")}

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
            "f": sol.f,
            "g2": round(blocks.growth_factor(sol.f, k), 6),
            "proven": sol.proven_optimal,
            "nodes": sol.nodes_explored,
            "seconds": round(dt, 2),
            "dominance_cuts": sol.dominance_cuts,
            "ladder_cuts": sol.ladder_cuts,
            "relaxation_cuts": sol.relaxation_cuts,
            "floor": sol.floor,
            "runs": sol.runs,
            "solver": cubicpaths.__version__,
            "assignment": [list(arc) for arc in sol.assignment],
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
