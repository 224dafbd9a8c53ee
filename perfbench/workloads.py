"""The three benchmark workloads: inputs, the timed operation, and its checks.

Each workload is a list of operations run one after another in one thread:

* ``block-ladder``   one op per block size k = 2..22, ``blocks.solve_block(k)``
                     in ascending order from an empty ladder.  Only ``blocks``
                     runs.  The growth bound of the paper rests on this.  The
                     ladder stops at 22 (about 1.2 s) so that a run holds some
                     thirty repetitions: a single solve of k = 26 takes about
                     5 s, and on a shared machine one such call per
                     repetition drifts with the machine by 20-30%.
* ``conjecture-search`` two ops, ``search.check_conjecture`` on fibonacci n=7
                     and on simple-2ec n=7 with both prunes.  Time goes to
                     ``search`` and the ``tuples`` validity scan; the simple
                     class adds ``decode`` and ``dag.is_simple``/``vertex_kinds``.
                     Fibonacci stops at n=7 (about 0.3 s; n=8 takes 2-3 s) for
                     the same reason as the ladder stops at 22.
* ``graph-rewrite``  one op per seeded random 3-regular DAG (16..64 vertices):
                     validate -> tree_sort -> hamiltonize -> encode ->
                     validity_issues(., 3) -> decode -> count_paths / tuple_mu /
                     structural_3ec.  ``hamilton`` and ``dag`` dominate and the
                     codec side of ``tuples`` runs; no ``search`` or ``blocks``.

Which per-layer metrics each workload is meant to move, and through which
end-to-end metric (written down before any optimisation is measured):

* block-ladder: ``blocks.solve_block.nodes_per_s``, ``blocks.k17..k22.s`` and
  ``.nodes`` move ``nodes``, ``wall_s`` and ``cpu_s``; they should move
  nothing on the other two workloads.  ``blocks.check_assignment.ms`` is
  the witness re-check, timed outside the timed part.
* conjecture-search: ``search.*`` (per-check seconds and nodes,
  ``nodes_per_s``, ``enumerate_tuples.s``, ``leaf_yield`` = tuples yielded /
  nodes) move ``nodes`` and ``wall_s``.  ``tuples.validity_issues.us`` and
  ``tuples.tuple_mu.us`` mainly move ``wall_s`` here; on graph-rewrite they
  should stay flat or improve, which catches a search-only speed-up that
  costs the codec.  ``tuples.decode.us`` and ``dag.is_simple.us`` move
  ``wall_s`` through the simple class.
* graph-rewrite: ``hamilton.*`` (hamiltonize and tree_sort latency,
  ``moves``, ``lowering_moves``) and ``dag.validate/count_paths/
  structural_3ec.us`` move ``op_ms_p50``, ``op_ms_p99`` and ``ops_per_s``;
  ``count_paths`` runs twice per move inside hamiltonize, and
  ``structural_3ec`` is cubic in the vertex count, so the largest graphs set
  ``op_ms_p99``.  ``tuples.encode.us``/``decode.us`` move ``op_ms_p50``.
* every workload: ``share.<layer>`` (self-time share of the traced run) and
  ``trace.overhead_frac`` (traced time / untraced time - 1).

Only ``graph-rewrite`` depends on the seed; the other two have fixed inputs.
``build`` makes the inputs (timed as set-up), ``run_op`` is the timed call,
and ``check`` re-checks one result after the timed part.  ``check`` returns
two lists of problems: *result* problems mean an answer is wrong; *guarantee*
problems mean a checked promise about how the answer was reached was broken
(today: a hamiltonize move that lowered a path count).  Either makes the op
count as failed.

Workloads call the package through module attributes (``dag.count_paths``,
not an imported name) so that the tracer's wrappers see every call.
"""
from __future__ import annotations

import json
import random
import time
from pathlib import Path

from cubicpaths import blocks, dag, hamilton, search, tuples

WORKLOADS = ("block-ladder", "conjecture-search", "graph-rewrite")

BLOCK_KS = {False: range(2, 23), True: range(2, 13)}

# (name, n, prunes, expected maximum, expected closed_form.equal)
CONJECTURE_CHECKS = {
    False: (
        ("fibonacci", 7, (), 35, True),
        ("simple-2ec", 7, (search.PRUNE_DOUBLE_LABEL, search.PRUNE_KIND_RUN), 46, None),
    ),
    True: (
        ("fibonacci", 6, (), 22, True),
        ("simple-2ec", 5, (search.PRUNE_DOUBLE_LABEL, search.PRUNE_KIND_RUN), 16, None),
    ),
}

# Graph sizes are stratified (the same count at every size) so that the
# per-graph latency distribution depends on the seed only through structure.
GRAPH_SIZES = {False: range(16, 65, 2), True: range(8, 21, 4)}
GRAPHS_PER_SIZE = {False: 60, True: 3}
SWAPS_PER_VERTEX = 2  # attempted 2-opt swaps per vertex when scrambling a graph


def params(workload: str, tiny: bool) -> dict:
    """The workload's parameters, recorded with every result."""
    if workload == "block-ladder":
        ks = BLOCK_KS[tiny]
        return {"k_min": ks[0], "k_max": ks[-1]}
    if workload == "conjecture-search":
        return {"checks": [[c[0], c[1], list(c[2])] for c in CONJECTURE_CHECKS[tiny]]}
    sizes = GRAPH_SIZES[tiny]
    return {
        "vertices": [sizes[0], sizes[-1], sizes.step],
        "graphs_per_size": GRAPHS_PER_SIZE[tiny],
        "swaps_per_vertex": SWAPS_PER_VERTEX,
    }


def expected(workload: str, root: Path, tiny: bool) -> dict:
    """Reference values the checks compare against (JSON-serialisable)."""
    if workload == "block-ladder":
        table = json.loads((root / "data" / "block_table.json").read_text())
        rows = {str(k): table[str(k)] for k in BLOCK_KS[tiny]}
        return {
            "f": {k: row["f"] for k, row in rows.items()},
            "nodes": {k: row["nodes"] for k, row in rows.items()},
        }
    if workload == "conjecture-search":
        return {
            f"{name}-{n}": {"max": best, "equal": equal}
            for name, n, _, best, equal in CONJECTURE_CHECKS[tiny]
        }
    return {}


# ---------------------------------------------------------------- inputs


def _random_cubic(rng: random.Random, vertices: int, swaps: int) -> dag.Dag:
    """Random canonical merged tuple -> decode -> 2-opt swaps -> renumber."""
    m = vertices // 2 + 1
    while True:
        t = tuples.canonicalize(
            tuples.ArcTuple([rng.randint(i, m) for i in range(1, m + 1)], tuples.TupleClass.MERGED)
        )
        if not tuples.validity_issues(t, 1):
            break
    edges = list(tuples.decode(t).edges)
    for _ in range(swaps):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if a < d and c < b:  # both new edges stay forward; degrees are kept
            edges[i], edges[j] = (a, d), (c, b)
    # random topological renumbering, so the path edges are scattered
    indeg = [0] * (vertices + 1)
    outs: list[list[int]] = [[] for _ in range(vertices + 1)]
    for u, v in edges:
        outs[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(1, vertices + 1) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for w in outs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    pos = {old: new for new, old in enumerate(order, 1)}
    return dag.Dag(
        vertices, tuple((pos[u], pos[v]) for u, v in edges), dag.DegreeProfile.THREE_REGULAR
    )


def build(workload: str, seed: int, tiny: bool) -> list[tuple[str, object]]:
    """The workload's operations as (name, input) pairs, in run order."""
    if workload == "block-ladder":
        return [(f"k{k}", k) for k in BLOCK_KS[tiny]]
    if workload == "conjecture-search":
        return [(f"{c[0]}-{c[1]}", c) for c in CONJECTURE_CHECKS[tiny]]
    if workload == "graph-rewrite":
        rng = random.Random(seed)
        ops = [
            (f"n{v}", _random_cubic(rng, v, SWAPS_PER_VERTEX * v))
            for v in GRAPH_SIZES[tiny]
            for _ in range(GRAPHS_PER_SIZE[tiny])
        ]
        rng.shuffle(ops)  # sizes interleaved, so no size lands on one phase of the run
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------- timed ops


def run_op(workload: str, arg) -> tuple[object, int]:
    """The timed call.  Returns (result, work count).

    The work count is the program's own node count for the two searches and
    the vertex count of the graph for graph-rewrite.
    """
    if workload == "block-ladder":
        sol = blocks.solve_block(arg)
        return sol, sol.nodes_explored
    if workload == "conjecture-search":
        name, n, prunes, _, _ = arg
        report = search.check_conjecture(name, n, prunes=frozenset(prunes))
        return report, report.nodes
    g = arg
    report = dag.validate(g)
    base = hamilton.tree_sort(g)
    h, log = hamilton.hamiltonize(g)
    t = tuples.encode(h)
    issues = tuples.validity_issues(t, 3)
    d = tuples.decode(t)
    counts = (dag.count_paths(h).total, dag.count_paths(d).total, tuples.tuple_mu(t).total)
    ec3 = dag.structural_3ec(d)[0]
    return (report, base, h, log, t, issues, d, counts, ec3), g.vertex_count


# ---------------------------------------------------------------- checks
#
# The graph checks recount paths, degrees and the path edges with the small
# helpers below instead of the package's own functions under test.


def _mu(n: int, edges) -> list[int]:
    mu = [0] * (n + 1)
    mu[1] = 1
    for u, v in sorted(edges, key=lambda e: e[1]):
        mu[v] += mu[u]
    return mu[1:]


def _kinds(n: int, edges) -> list[int]:
    indeg = [0] * (n + 1)
    for _, v in edges:
        indeg[v] += 1
    return [1 if indeg[v] >= 2 else 0 for v in range(1, n + 1)]


def _dominates(high, low) -> bool:
    return len(high) == len(low) and all(a >= b for a, b in zip(high, low))


def check(workload: str, name: str, arg, result, expect: dict) -> tuple[list[str], list[str], dict]:
    """(result problems, guarantee problems, counters) for one op."""
    if workload == "block-ladder":
        return _check_block(arg, result, expect)
    if workload == "conjecture-search":
        return _check_conjecture(name, result, expect[name]), [], {}
    return _check_graph(arg, result)


def _check_block(k: int, sol, expect: dict):
    out = []
    want_f = expect["f"][str(k)]
    want_nodes = expect["nodes"][str(k)]
    if sol.f != want_f:
        out.append(f"f({k}) = {sol.f}, expected {want_f}")
    if not sol.proven_optimal:
        out.append(f"f({k}) not proven")
    if sol.nodes_explored != want_nodes:
        out.append(f"k={k} explored {sol.nodes_explored} nodes, table has {want_nodes}")
    t0 = time.perf_counter()
    issues = blocks.check_assignment(k, sol.assignment)
    check_s = time.perf_counter() - t0
    if issues:
        out.append(f"k={k} assignment infeasible: {issues[0]}")
    if blocks.recompute_counts(k, sol.assignment) != sol.f:
        out.append(f"k={k} assignment does not reproduce f")
    return out, [], {"check_assignment_s": check_s}


def _check_conjecture(name: str, report, want: dict) -> list[str]:
    out = []
    if not report.complete:
        out.append(f"{name}: search incomplete")
    if report.max_total != want["max"]:
        out.append(f"{name}: maximum {report.max_total}, expected {want['max']}")
    cf = report.closed_form
    if cf is None or cf.equal != want["equal"] or cf.exceeded:
        out.append(f"{name}: closed form {cf}, expected equal={want['equal']} and not exceeded")
    return out


def _check_graph(g: dag.Dag, result):
    report, base, h, log, t, issues, d, counts, ec3 = result
    n = g.vertex_count
    out = []
    if not report.ok:
        out.append(f"valid input reported invalid: {report.violations[:1]}")
    present = set(h.edges)
    if h.vertex_count != n or not all((i, i + 1) in present for i in range(1, n)):
        out.append("output is not on a Hamiltonian path")
    h_mu = _mu(n, h.edges)
    if not _dominates(h_mu, _mu(n, base.edges)):
        out.append("output counts fall below the tree-sorted counts")
    if _kinds(n, h.edges) != _kinds(n, base.edges):
        out.append("vertex kinds changed")
    if tuples.encode(d) != t:
        out.append("encode(decode(t)) != t")
    if not counts[0] == counts[1] == counts[2] == h_mu[-1]:
        out.append(f"path totals disagree: graph, decoded, tuple = {counts}, recount {h_mu[-1]}")
    if ec3 != (not issues):
        out.append("structural_3ec of decode(t) disagrees with validity_issues(t, 3)")
    lowering = sum(1 for m in log if not _dominates(m.mu_after, m.mu_before))
    guarantees = [f"{lowering} of {len(log)} moves lowered a path count"] if lowering else []
    return out, guarantees, {"moves": len(log), "lowering_moves": lowering}
