import errno
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import merged_tuples
from cubicpaths import (
    __version__,
    assemble_bound,
    blocks,
    brute_block,
    count_paths,
    decode,
    growth_factor,
    solve_block,
    vertex_kinds,
)
from cubicpaths.blocks import (
    BRUTE_LIMIT,
    BudgetTooSmallError,
    _aspiration_floor,
    _solve,
    check_assignment,
    load_table,
    recompute_counts,
    save_table,
    solve_rung,
    table_row,
)
from cubicpaths.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "data" / "block_table.json"
PAPER_TABLE = {35: 8233, 36: 11117, 37: 14033, 38: 17293, 39: 22781, 40: 28726}
PAPER_G2 = {35: 1.6740, 36: 1.6779, 37: 1.6756, 38: 1.6713, 39: 1.6729, 40: 1.6707}


@pytest.fixture(scope="module")
def table():
    """The stored block table keyed by k, every row audited by ``load_table``."""
    return load_table(TABLE)


@pytest.fixture(scope="module")
def brutes():
    """``brute_block(k)`` for k = 2..12."""
    return {k: brute_block(k) for k in range(2, 13)}


@pytest.fixture(scope="module")
def oracle(table, brutes):
    """f(k) for k = 2..14: ``brute_block`` up to 12, the table at 13 and 14.

    Rows 13 and 14 of the table equal ``brute_block`` (criterion 10), which
    is too slow to run here again.
    """
    return {k: brutes[k].f if k <= 12 else table[k]["f"] for k in range(2, 15)}


def _solved(row):
    """A stored row without the fields that vary by run: its time and solver."""
    return {key: v for key, v in row.items() if key not in ("seconds", "solver")}


def test_smallest_blocks():
    assert brute_block(2).f == 2
    assert brute_block(3).f == 3
    assert solve_block(2).f == 2


def test_solver_matches_oracle_small():
    for k in range(2, 11):
        assert solve_block(k).f == brute_block(k).f


def test_brute_guard():
    with pytest.raises(ValueError):
        brute_block(BRUTE_LIMIT + 1)
    with pytest.raises(ValueError):
        solve_block(1)
    # the structure key packs pos and the tail count into 8 bits each
    with pytest.raises(ValueError, match=r"k=256 > 255$"):
        solve_rung(256, {})


def test_returned_assignments_check_out():
    for k in (5, 8, 11):
        for sol in (solve_block(k), brute_block(k)):
            assert check_assignment(k, sol.assignment) == []
            assert recompute_counts(k, sol.assignment) == sol.f
            assert sol.proven_optimal


def test_check_assignment_flags_problems():
    sol = solve_block(6)
    missing = tuple(e for e in sol.assignment if e != (0, 1))
    assert any("path edge" in v for v in check_assignment(6, missing))
    # strip one real arc: the degree constraint must complain
    arc = next(e for e in sol.assignment if e[1] > e[0] + 1)
    stripped = tuple(e for e in sol.assignment if e != arc)
    assert any("degree" in v for v in check_assignment(6, stripped))


def _check_assignment_by_rescan(k, edges):
    """``check_assignment`` with each interval's crossing edges counted afresh.

    The reference for the incremental sweep: the same checks and messages
    in the same order, each interval rescanning every edge, O(k^2 E).
    """
    out = []
    es = set(edges)
    if len(es) != len(edges):
        out.append("edge variables are binary; duplicate edge present")
    for i, j in edges:
        if not (0 <= i < j <= k + 1):
            out.append(f"edge ({i}, {j}) out of range or not forward")
    for i in range(0, k + 1):
        if (i, i + 1) not in es:
            out.append(f"missing forced path edge ({i}, {i + 1})")
    deg = [0] * (k + 2)
    for i, j in edges:
        if 1 <= i <= k:
            deg[i] += 1
        if 1 <= j <= k:
            deg[j] += 1
    for v in range(1, k + 1):
        if deg[v] != 3:
            out.append(f"vertex {v} has degree {deg[v]}, expected 3")
    for i in range(1, k):
        for j in range(i + 1, k + 1):
            crossing = sum((i <= u <= j) != (i <= v <= j) for u, v in edges)
            if crossing < 3:
                out.append(f"interval [{i}, {j}] crossed by only {crossing} edges")
    return out


def _mutants(k, arcs, rng):
    """Nine mutants of ``arcs``: two drop an edge, the rest add one.

    The added edge is a new or duplicate forward edge, one out of range at
    either end, a backward edge or a self-loop; the last mutant also drops
    a path edge.
    """
    arcs = list(arcs)
    i = rng.randrange(1, k + 1)
    j = rng.randrange(i, k + 2)
    return [
        arcs[:m] + arcs[m + 1 :] for m in rng.sample(range(len(arcs)), 2)
    ] + [
        arcs + [(i, j)],
        arcs + [(i - 1, j)],  # a duplicate when it is already there
        arcs + [(-1, i)],
        arcs + [(i, k + 3)],
        arcs + [(j, i)],  # backward unless i = j
        arcs + [(i, i)],
        [(u, v) for u, v in arcs if (u, v) != (i - 1, i)] + [(i, i)],
    ]


def test_incremental_interval_sweep_matches_a_rescan(table, brutes):
    rng = random.Random(30)
    witnesses = [(k, row["assignment"]) for k, row in table.items()]
    witnesses += [(k, sol.assignment) for k, sol in brutes.items()]
    checked = flagged = 0
    for k, arcs in witnesses:
        for edges in [list(arcs)] + _mutants(k, arcs, rng):
            edges = tuple(tuple(e) for e in edges)
            issues = check_assignment(k, edges)
            assert issues == _check_assignment_by_rescan(k, edges), (k, edges)
            checked += 1
            flagged += any("interval" in issue for issue in issues)
    assert (len(witnesses), checked) == (72, 720)
    assert flagged == 74  # mutants that leave an interval crossed too few times


def test_growth_factor_values():
    assert growth_factor(1, 7) == 1.0
    assert abs(growth_factor(11117, 36) - 1.6779) < 2e-4
    assert abs(growth_factor(28726, 40) - 1.6707) < 2e-4
    assert growth_factor(4, 4) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        growth_factor(0, 5)


def test_paper_growth_row_tolerance():
    for k, f in PAPER_TABLE.items():
        assert abs(growth_factor(f, k) - PAPER_G2[k]) < 2e-4


def _proven(values):
    """Table rows holding only what ``assemble_bound`` reads, every one proven."""
    return {k: {"f": f, "proven": True} for k, f in values.items()}


def test_assemble_bound_injected():
    report = assemble_bound(35, 40, _proven(PAPER_TABLE))
    assert report.argmax_k == 36
    assert abs(report.bound_base - 1.6779) < 2e-4
    assert report.rigorous


def test_assemble_bound_window_guard(table):
    with pytest.raises(ValueError):
        assemble_bound(35, 39, table)
    # a block of one vertex is no block, whatever the table holds
    for lo, rows in ((1, _proven({1: 1})), (1, table)):
        with pytest.raises(ValueError, match="blocks need k >= 2, not k=1"):
            assemble_bound(lo, lo + 5, rows)
    # a window size with no row is an error, not a solve
    with pytest.raises(ValueError, match=r"^no block table row for k=63$"):
        assemble_bound(58, 63, table)


def test_assemble_bound_small_range(table):
    report = assemble_bound(6, 11, {k: table[k] for k in range(2, 12)})
    assert report.rigorous
    assert [r.f for r in report.rows] == [7, 9, 11, 15, 19, 23]
    assert report.final_block_constant == 5  # max f over k = 2..5
    for row in report.rows:
        assert row.g2 == pytest.approx(math.exp(2 * math.log(row.f) / row.k), rel=1e-12)


def _window_arcs(dag, b, e):
    """The block of path vertices b..e: path edges, then each other edge mapped.

    Block vertex c is v - b + 1; an edge from before b into the window comes
    from the dummy source 0, one from the window past e goes to the dummy
    sink k+1, and an edge with no end in the window is dropped.
    """
    k = e - b + 1
    others = list(dag.edges)
    for i in range(1, dag.vertex_count):
        others.remove((i, i + 1))  # one copy of each path edge
    arcs = [(i, i + 1) for i in range(k + 1)]
    for u, v in others:
        if b <= u and v <= e:
            arcs.append((u - b + 1, v - b + 1))
        elif u < b <= v <= e:
            arcs.append((0, v - b + 1))
        elif b <= u <= e < v:
            arcs.append((u - b + 1, k + 1))
    return tuple(arcs)


def test_every_window_of_a_real_graph_is_a_feasible_block(table):
    # k path vertices from an outgoing to an incoming one of a 3-edge-connected
    # graph are a block the model admits, and grow the count at most f(k)-fold
    graphs = windows = 0
    for length in range(2, 8):
        for t in merged_tuples(length, connectivity=3):
            dag = decode(t)
            kinds, mu = vertex_kinds(dag), count_paths(dag).mu
            n = dag.vertex_count
            graphs += 1
            for b in range(2, n):
                for e in range(b + 1, n):
                    if kinds[b - 1] != 0 or kinds[e - 1] != 1:
                        continue
                    k, arcs = e - b + 1, _window_arcs(dag, b, e)
                    assert check_assignment(k, arcs) == [], (t.values, b, e)
                    assert mu[e - 1] <= mu[b - 1] * table[k]["f"], (t.values, b, e)
                    windows += 1
    assert (graphs, windows) == (490, 8_722)


def test_budget_exhaustion_flags(table):
    sol = solve_block(10, budget=100)
    assert not sol.proven_optimal
    assert check_assignment(10, sol.assignment) == []
    assert sol.f <= solve_block(10).f
    # with the full ladder k=9's floor is 14, one below f = 15, which the
    # search first reaches at node 28; 20 of its 61 nodes stop the run
    # before that, and the best leaf at or below the floor is reported
    sol = solve_rung(9, {r: table[r]["f"] for r in range(2, 9)}, 20)
    assert (sol.floor, sol.runs, sol.proven_optimal, sol.nodes_explored) == (14, 1, False, 21)
    assert check_assignment(9, sol.assignment) == []
    assert recompute_counts(9, sol.assignment) == sol.f <= 14


def _assert_cut_off_is_exact(k, ladder, needed, f):
    # a budget of N nodes proves a block that needs N; one node less stops at node N
    full = solve_rung(k, ladder, needed)
    assert (full.f, full.proven_optimal, full.nodes_explored) == (f, True, needed)
    cut = solve_rung(k, ladder, needed - 1)
    assert not cut.proven_optimal
    assert cut.nodes_explored == needed
    assert check_assignment(k, cut.assignment) == []
    # any budget B < N stops at node B + 1, also inside a run of siblings the
    # bound cuts at once (B = N - 1 cannot show that: its last step ends at N)
    budgets = range(needed) if needed <= 2000 else random.Random(k).sample(range(needed), 10)
    for budget in budgets:
        try:
            sol = solve_rung(k, ladder, budget)
        except BudgetTooSmallError:
            continue
        assert (sol.proven_optimal, sol.nodes_explored) == (False, budget + 1), (k, budget)


def test_budget_cut_off_is_exact(table):
    for k in range(4, 15):
        ladder = {r: table[r]["f"] for r in range(2, k)}
        _assert_cut_off_is_exact(k, ladder, table[k]["nodes"], table[k]["f"])
    # no ladder: every bound is the relaxation bound
    for k in range(4, 13):
        unbudgeted = solve_rung(k, {})
        _assert_cut_off_is_exact(k, {}, unbudgeted.nodes_explored, table[k]["f"])


def test_a_floor_above_f_runs_the_search_twice(table):
    # no stored row runs twice; a doubled f(k-1) is still an admissible
    # bound and lifts the floor above f, so every leaf is below it and the
    # search runs again from 0, with the budget spanning both runs
    for k in range(9, 15):
        ladder = {r: table[r]["f"] for r in range(2, k)}
        ladder[k - 1] *= 2
        sol = solve_rung(k, ladder)
        assert sol.floor > table[k]["f"], k
        assert (sol.runs, sol.proven_optimal, sol.f) == (2, True, table[k]["f"]), k
        _assert_cut_off_is_exact(k, ladder, sol.nodes_explored, sol.f)


def test_partial_ladders_match_the_oracle(oracle):
    # sizes missing from the ladder fall back to the relaxation bound, and
    # f(r) without f(r-1) or f(r-2) to the child bound nx f(r): the last two
    # ladders keep r = 2 mod 3 (neither) or drop it (one of them)
    rng = random.Random(9)
    for k in range(2, 15):
        proven = {r: oracle[r] for r in range(2, k)}
        ladders = [{}] + [
            {r: f for r, f in proven.items() if rng.random() < 0.5} for _ in range(4)
        ]
        ladders += [{r: f for r, f in proven.items() if (r % 3 == 2) == keep} for keep in (1, 0)]
        for ladder in ladders:
            sol = solve_rung(k, ladder)
            assert (sol.f, sol.proven_optimal) == (oracle[k], True), (k, sorted(ladder))
            assert check_assignment(k, sol.assignment) == []
            assert recompute_counts(k, sol.assignment) == oracle[k]


def _children_and_best(k: int) -> list[tuple]:
    """(incoming, nx, c, r, best, left, top) for each child at a position below k of each feasible prefix.

    A plain enumerator with ``brute_block``'s rules: vertex 1 is outgoing;
    a later vertex is outgoing (but not vertex k), incoming from the dummy
    source, or incoming from an open tail at least two back when that leaves
    no interval ending at it with every partner inside.  nx is the child's
    count, c the largest open count of the parent (the dummy's 1 included),
    r = k - pos the length of the suffix from the child on, and ``best``
    the largest x_k over the child's feasible completions; a child with
    none is left out.  ``left`` lists the counts of the real tails placed
    before the child and open after it, and ``top`` says whether the child
    closes the tail placed last.
    """
    partner = [0] * (k + 1)
    partner[1] = k + 2
    found = []

    def closes_an_interval(j: int) -> bool:
        lo = hi = partner[j]
        for i in range(j - 1, 0, -1):
            lo, hi = min(lo, partner[i]), max(hi, partner[i])
            if lo >= i and hi <= j:
                return True
        return False

    def best(pos: int, x: int, opens: list[tuple[int, int]]) -> int:
        if pos == k:
            return x
        nxt = pos + 1
        children = []
        counts = [v for _, v in opens]
        if nxt < k:
            partner[nxt] = k + 2
            children.append((False, x, best(nxt, x, opens + [(nxt, x)]), counts, False))
        partner[nxt] = 0
        children.append((True, x + 1, best(nxt, x + 1, opens), counts, False))
        for i, (p, v) in enumerate(opens):
            if p <= nxt - 2:
                partner[nxt], partner[p] = p, nxt
                if not closes_an_interval(nxt):
                    rest = opens[:i] + opens[i + 1 :]
                    left = counts[:i] + counts[i + 1 :]
                    top = i == len(opens) - 1
                    children.append((True, x + v, best(nxt, x + v, rest), left, top))
                partner[p] = k + 2
        partner[nxt] = 0
        c = max([1] + counts)
        for incoming, nx, b, left, top in children:
            if b >= 0 and nxt < k:
                found.append((incoming, nx, c, k - pos, b, left, top))
        return max(b for _, _, b, _, _ in children)

    best(1, 1, [(1, 1)])
    return found


@pytest.fixture(scope="module")
def child_bests():
    """``_children_and_best(k)`` for k = 3..11, which three tests walk."""
    return {k: _children_and_best(k) for k in range(3, 12)}


def test_tail_aware_child_bound_is_admissible(table, child_bests):
    # every child's best completion is at most c f(r) + (nx - c) f(r - 2)
    # when incoming and c f(r) + (nx - c) f(r - 1) when outgoing, with
    # f(1) = f(0) = 1; children meet it exactly, also with 4 or more
    # vertices left, where it is no mere count of the last arcs
    f = {0: 1, 1: 1, **{k: row["f"] for k, row in table.items()}}
    children = tight = 0
    for k, found in child_bests.items():
        for incoming, nx, c, r, best, _, _ in found:
            bound = c * f[r] + (nx - c) * f[r - 2 if incoming else r - 1]
            assert best <= bound, (k, incoming, nx, c, r, best)
            tight += best == bound and r >= 4
            children += 1
    assert (children, tight) == (89_130, 75)


def _lookahead_by_cases(incoming, n, c, r, f, p):
    """The largest of the lookahead cases for a child, each written out plainly.

    t is the distance to the next outgoing vertex j, s = r - t the length of
    the suffix j heads; the last case of each kind has none after the child.
    """
    ts = range(1, r - 1)
    if incoming:
        cases = [(n + (t - 2) * c) * p[r - t] + c * f[r - t] for t in ts]
        return max(cases + [n + (r - 1) * c])
    cases = [n * f[r - t] + (t - 1) * c * p[r - t] for t in ts]  # its arc lands after j
    cases += [(2 * n + (t - 3) * c) * p[r - t] + c * f[r - t] for t in ts if t >= 3]
    return max(cases + ([2 * n + (r - 2) * c] if r > 2 else []) + [n + (r - 1) * c])


def test_lookahead_child_bound_is_admissible(table, child_bests):
    # every child's best completion is at most the largest lookahead case;
    # the fronts of pairs give exactly that largest case, the bound is below
    # the tail-aware one at 5,084 children, and the child bound, the smaller
    # of the two, is met exactly at 2,096 with 4 or more vertices left
    f = {0: 1, 1: 1, **{k: row["f"] for k, row in table.items()}}
    p = blocks._path_caps(f, 12)
    fronts = {r: blocks._lookahead(r, f, p) for r in range(2, 12)}
    children = below = tight = 0
    for k, found in child_bests.items():
        for incoming, nx, c, r, best, _, _ in found:
            bound = _lookahead_by_cases(incoming, nx, c, r, f, p)
            pairs = fronts[r][0 if incoming else 1]
            assert max(a * (nx - c) + s * c for a, s in pairs) == bound, (k, incoming, nx, c, r)
            assert best <= bound, (k, incoming, nx, c, r, best)
            tail = c * f[r] + (nx - c) * f[r - 2 if incoming else r - 1]
            below += bound < tail
            tight += best == min(bound, tail) and r >= 4
            children += 1
    assert (children, below, tight) == (89_130, 5_084, 2_096)


def test_open_count_bound_is_admissible(table, child_bests):
    # every child's best completion is at most nx P + w1 min(q, D) + w2
    # max(0, D - q), with w1 >= w2 the two largest counts left open; it is
    # the tail-aware bound when D <= q and the top tail stays open, and
    # below it at 14,812 children; each of the 13,687 that close the top tail
    # also keeps the lookahead bound at the next tail's count
    f = {0: 1, 1: 1, **{k: row["f"] for k, row in table.items()}}
    p = blocks._path_caps(f, 12)
    children = below = closing = 0
    for k, found in child_bests.items():
        for incoming, nx, c, r, best, left, top in found:
            q = blocks._arc_cap(r, f, p)
            cap = p[r - 1] if incoming else p[r]
            d = f[r] - cap
            w1, w2, *_ = sorted(left, reverse=True) + [1, 1]
            bound = nx * cap + w1 * min(q, d) + w2 * max(0, d - q)
            assert best <= bound, (k, incoming, nx, left, r, best)
            tail = c * f[r] + (nx - c) * cap
            if d <= q and not top:
                assert bound == tail, (k, incoming, nx, left, r)
            below += bound < tail
            if top:
                assert best <= _lookahead_by_cases(True, nx, w1, r, f, p), (k, nx, left, r)
                closing += 1
            children += 1
    assert (children, below, closing) == (89_130, 14_812, 13_687)


def test_path_caps_are_f_of_s_minus_1_on_the_stored_table(table):
    # f(s-1) >= 2 p(s-3) at every s, so the caps move no node count; the
    # tightest is s = 59, f(58) = 1.0196 * 2 f(55), just under s = 32
    f = {0: 1, 1: 1, **{k: row["f"] for k, row in table.items()}}
    caps = blocks._path_caps(f, max(table) + 2)
    assert caps[:3] == [1, 1, 1]
    assert caps[3:] == [f[s - 1] for s in range(3, max(table) + 2)]
    slack = {s: f[s - 1] / (2 * f[s - 4]) for s in range(5, max(table) + 2)}
    assert min(slack, key=slack.get) == 59 and round(slack[59], 4) == 1.0196


def test_path_caps_with_a_rung_scaled_up(table, oracle):
    # a rung m scaled by 3 is still an upper bound, and then p(m + 4) =
    # 2 p(m + 1) = 6 f(m) is above f(m + 3): the caps follow the recurrence,
    # and every block up to 14 still solves to the oracle's f
    f = {0: 1, 1: 1, **{k: row["f"] for k, row in table.items()}}
    for m in range(2, 11):
        scaled = {**f, m: 3 * f[m]}
        caps = blocks._path_caps(scaled, m + 5)
        assert caps[m + 4] == 2 * caps[m + 1] == 6 * f[m] > f[m + 3], m
        for k in range(m + 1, 15):
            ladder = {r: scaled[r] for r in range(2, k)}
            sol = solve_rung(k, ladder)
            assert (sol.f, sol.proven_optimal) == (oracle[k], True), (m, k)
    # a missing rung leaves p(s) = f(s) where the recurrence needs it
    caps = blocks._path_caps({r: v for r, v in f.items() if r != 6}, 12)
    assert (caps[7], caps[10]) == (f[7], max(f[9], 2 * f[7]))


def _arc_cap_by_definition(r, ladder):
    """q(r): the largest p(s) over s <= r-2, or f(r) where one is missing, with
    p(0..2) = 1 and p(s) = max(f(s-1), 2 p(s-3)), else f(s), else missing."""

    def p(s):
        if s < 3:
            return 1
        below = p(s - 3)
        if s - 1 in ladder and below is not None:
            return max(ladder[s - 1], 2 * below)
        return ladder.get(s)

    caps = [p(s) for s in range(r - 1)]
    return ladder[r] if None in caps else max(caps)


@pytest.mark.parametrize(
    "missing, fallback",
    (((), ()), ((6,), ()), ((6, 7), range(9, 63)), ((30, 31, 45), [*range(33, 45), *range(46, 63)])),
)
def test_arc_cap_matches_its_definition(table, missing, fallback):
    # on the stored ladder p(s) = f(s-1) rises, so q(r) = f(r-3) from r = 5;
    # with two adjacent rungs m, m+1 missing p(m+1) is missing, so q(r) falls
    # back to f(r) from r = m+3
    f = {0: 1, 1: 1, **{k: row["f"] for k, row in table.items()}}
    ladder = {r: v for r, v in f.items() if r not in missing}
    caps = blocks._path_caps(ladder, max(table) + 1)
    q = {r: blocks._arc_cap(r, ladder, caps) for r in range(2, max(table) + 1) if r in ladder}
    assert len(q) == 61 - len(missing)
    assert q == {r: _arc_cap_by_definition(r, ladder) for r in q}
    if not missing:
        assert q == {r: f[r - 3] if r >= 5 else 1 for r in q}
    assert {r for r in q if r >= 5 and q[r] == f[r] != f[r - 3]} == set(fallback)


def test_floor_contract(oracle):
    # from a floor G below f the search proves f with a witness; from G >= f
    # it completes with no leaf above G, and any leaf it hands back (the
    # fallback a budget stop would report) is feasible and at most f
    for k in range(2, 15):
        f = oracle[k]
        ladder = {r: oracle[r] for r in range(2, k)}
        for floor in (0, f - 1, f, f + 3):
            got, arcs, _, completed, _, _ = _solve(k, None, ladder, floor)
            assert completed, (k, floor)
            if floor < f:
                assert got == f, (k, floor)
            else:
                assert got <= f <= floor, (k, floor)
            if arcs is not None:
                assert check_assignment(k, arcs) == [], (k, floor)
                assert recompute_counts(k, arcs) == got, (k, floor)


def test_incumbent_trail(oracle):
    # each leaf that raised the incumbent, (nodes so far, value), ending at f;
    # k=10's floor is one below f, so only the leaf worth f raises it, and
    # the trail is no part of the stored row
    assert solve_block(14).incumbents == ((63, 47), (153, 48))
    assert solve_block(10).incumbents == ((20, 19),)
    assert "incumbents" not in table_row(solve_block(14))
    # a floor above f: the first run (2 nodes) finds nothing above it, and
    # the second run's trail counts those 2 nodes first
    ladder = {r: oracle[r] for r in range(2, 12)}
    ladder[11] *= 2
    sol = solve_rung(12, ladder)
    assert (sol.f, sol.floor, sol.runs, sol.nodes_explored) == (31, 60, 2, 364)
    first_run = _solve(12, None, ladder, 60)
    assert (first_run[2], first_run[5]) == (2, ())
    second_run = _solve(12, None, ladder)
    assert sol.incumbents == tuple((2 + m, value) for m, value in second_run[5])
    assert sol.incumbents[-1] == (162, 31)


def _extended_by_three(m: int, arcs) -> tuple:
    """A block of m vertices with three appended, as the floor lemma builds it.

    a = m+1 is outgoing with its arc to the new final vertex m+3, b = m+2 is
    fed from the dummy source, and every arc that went to the old dummy
    sink m+1, but the path edge (m, m+1), goes to the new one, m+4.
    """
    a, b, last, sink = m + 1, m + 2, m + 3, m + 4
    moved = [(i, sink if j == a and i != m else j) for i, j in arcs]
    return tuple(sorted(moved + [(a, b), (b, last), (last, sink), (a, last), (0, b)]))


def test_three_vertex_extension_proves_the_floor(table, brutes):
    # f(k) >= 2 f(k-3) + 1: every stored witness and every oracle witness
    # extends to a feasible block of three more vertices worth 2f + 1
    witnesses = [(k, tuple(map(tuple, row["assignment"])), row["f"]) for k, row in table.items()]
    witnesses += [(k, sol.assignment, sol.f) for k, sol in brutes.items() if k <= 11]
    for m, arcs, f in witnesses:
        longer = _extended_by_three(m, arcs)
        assert check_assignment(m + 3, longer) == [], m
        assert recompute_counts(m + 3, longer) == 2 * f + 1, m
    # so the floor, which reads 2 f(k-3) where the ladder holds it, stays
    # below f at every stored row
    for k, row in table.items():
        ladder = {r: table[r]["f"] for r in range(2, k)}
        assert 2 * ladder.get(k - 3, 0) <= _aspiration_floor(k, ladder) < row["f"], k


def test_search_without_dominance_reproduces_the_stored_rows(table):
    # a check of the dominance cut that does not rely on it: from the stored
    # ladder and the floor f - 1, the search with no dominance store must
    # still find a leaf worth the stored f, and prove it
    top = 32 if os.environ.get("CUBICPATHS_EXTENDED") else 26
    for k in range(15, top + 1):
        f = table[k]["f"]
        ladder = {r: table[r]["f"] for r in range(2, k)}
        got, arcs, _, completed, cuts, _ = _solve(k, None, ladder, f - 1, dominance=False)
        assert (got, completed, cuts[0]) == (f, True, 0), k
        assert check_assignment(k, arcs) == [] and recompute_counts(k, arcs) == f, k


def test_ladder_without_rung_k_minus_7_keeps_floor_0(table):
    # without f(k-7) there is no guess, and without f(k-3) no doubled rung:
    # one run from 0, with the node counts of a search that has no floor
    before = {9: 110, 12: 434, 16: 1_797, 20: 7_412, 22: 13_545}
    for k, nodes in before.items():
        ladder = {r: table[r]["f"] for r in range(2, k) if r not in (k - 7, k - 3)}
        sol = solve_rung(k, ladder)
        assert (sol.floor, sol.runs, sol.nodes_explored) == (0, 1, nodes), k
        assert (sol.f, sol.proven_optimal) == (table[k]["f"], True), k


def _structure_mask(partner: list[int], pos: int, k: int) -> tuple[int, int]:
    """(real open tails, mask) by a plain scan of ``partner`` from pos down.

    Emit T at each real open tail; keep mn, the least partner of the closed
    vertices of [i, pos]; emit A when mn >= i.  Bit g of the mask is set
    when an A follows exactly g T's.
    """
    tails = mask = 0
    mn = k + 2
    for i in range(pos, 0, -1):
        if partner[i] == k + 2:
            tails += 1
        else:
            mn = min(mn, partner[i])
        if mn >= i:
            mask |= 1 << tails
    return tails, mask


def _rec_states(k: int, ladder: dict[int, int], snapshot) -> list:
    """``snapshot(event, locals)`` at every call and return of ``rec`` in one solve.

    A profile hook reads the arguments, locals and closure of the search's
    own recursive step, so what is checked is what the search keyed on and
    kept.  Snapshots that are None are dropped.
    """
    states = []
    path = blocks.__file__

    def watch(frame, event, arg):
        code = frame.f_code
        if event in ("call", "return") and code.co_name == "rec" and code.co_filename == path:
            state = snapshot(event, frame.f_locals)
            if state is not None:
                states.append(state)

    sys.setprofile(watch)
    try:
        solve_rung(k, ladder)
    finally:
        sys.setprofile(None)
    return states


def _visited_states(k: int, ladder: dict[int, int]) -> list[tuple]:
    """(pos, real open tails, mask, partner) at every ``rec`` call of one solve."""

    def at_call(event, seen):
        if event == "call":
            return seen["pos"], len(seen["opens"]) - 1, seen["mask"], list(seen["partner"])

    return _rec_states(k, ladder, at_call)


def _ladders(table, rng):
    """For each k = 3..13: no ladder, the full one and three random parts of it."""
    for k in range(3, 14):
        proven = {r: table[r]["f"] for r in range(2, k)}
        yield k, [{}, proven] + [
            {r: f for r, f in proven.items() if rng.random() < 0.5} for _ in range(3)
        ]


def test_incremental_structure_key_matches_a_plain_scan(table):
    checked = 0
    for k, ladders in _ladders(table, random.Random(14)):
        for ladder in ladders:
            states = _visited_states(k, ladder)
            assert states and states[0][0] == 1
            for pos, tails, mask, partner in states:
                scanned = _structure_mask(partner, pos, k)
                assert (tails, mask) == scanned, (k, pos, partner)
                # bit 0 set: a self-contained interval ends at pos
                assert not scanned[1] & 1, (k, pos, partner)
            checked += len(states)
    assert checked > 10_000


def _carried(event, seen):
    """(event, what ``rec`` carries, what a plain scan gives).

    At a call: ``tails`` against the counts of ``opens[1:]`` packed afresh.
    At the return from a state that looked up its key: the int key decoded
    against (pos, len(opens), mask); by its return ``rec`` has put ``opens``
    back as it found it.
    """
    if event == "call":
        w = seen["W"]
        plain = sum(v << (w * i) for i, (_, v) in enumerate(seen["opens"][1:]))
        return event, seen["tails"], plain
    if "key" in seen:
        key = seen["key"]
        plain = seen["pos"], len(seen["opens"]), seen["mask"]
        return event, (key & 255, key >> 8 & 255, key >> 16), plain


def test_carried_tail_vector_and_int_key_match_a_plain_scan(table):
    checked = {"call": 0, "return": 0}
    for k, ladders in _ladders(table, random.Random(14)):
        for ladder in ladders:
            for event, carried, plain in _rec_states(k, ladder, _carried):
                assert carried == plain, (k, event, plain)
                checked[event] += 1
    assert checked["call"] > 10_000 and checked["return"] > 10_000, checked


def _kept(event, seen):
    """(stored vectors, fields, field width) of the key a returning ``rec`` looked up.

    Only that call changes the list: the states of its subtree lie further
    on and have other keys, so every state of every list is seen.
    """
    if event == "return" and "key" in seen:
        return list(seen["stored"][seen["key"]]), seen["key"] >> 8 & 255, seen["W"]


def test_dominance_store_is_a_sorted_antichain(table):
    pairs = 0
    for k in (6, 9, 12):
        for ladder in ({}, {r: table[r]["f"] for r in range(2, k)}):
            for kept, n, w in _rec_states(k, ladder, _kept):
                assert all(a < b for a, b in zip(kept, kept[1:])), (k, kept)
                assert all(v >> (w * n) == 0 for v in kept), (k, kept)
                fields = [[v >> (w * i) & ((1 << w) - 1) for i in range(n)] for v in kept]
                for a, fa in enumerate(fields):
                    for b, fb in enumerate(fields):
                        dominated = all(p <= q for p, q in zip(fa, fb))
                        assert a == b or not dominated, (k, fa, fb)
                pairs += len(kept) * (len(kept) - 1)
    assert pairs > 10_000


def test_cut_counters(table):
    full = solve_rung(20, {r: table[r]["f"] for r in range(2, 20)})
    bare = solve_rung(12, {})
    # the full ladder bounds every suffix; no ladder leaves only the relaxation
    assert full.relaxation_cuts == bare.ladder_cuts == 0
    for sol in (full, bare):
        assert sol.dominance_cuts > 0 and sol.ladder_cuts + sol.relaxation_cuts > 0
        # a bound cut is a node; a dominance cut ends a node counted already
        assert sol.ladder_cuts + sol.relaxation_cuts < sol.nodes_explored
    assert full.dominance_cuts == table[20]["dominance_cuts"]
    assert full.ladder_cuts == table[20]["ladder_cuts"]
    # the lookahead cuts are ladder cuts, and no part of the stored row
    assert 0 < full.lookahead_cuts < full.ladder_cuts and bare.lookahead_cuts == 0
    assert "lookahead_cuts" not in table_row(full)
    # so are the open-count cuts, which the bounds at c did not make
    assert 0 < full.open_count_cuts and bare.open_count_cuts == 0
    assert full.lookahead_cuts + full.open_count_cuts < full.ladder_cuts
    assert "open_count_cuts" not in table_row(full)
    oracle = brute_block(8)
    assert (oracle.dominance_cuts, oracle.ladder_cuts, oracle.relaxation_cuts) == (0, 0, 0)


def test_budget_too_small_is_a_value_error():
    with pytest.raises(BudgetTooSmallError, match=r"for k=10$"):
        solve_block(10, budget=1)
    assert issubclass(BudgetTooSmallError, ValueError)


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="non-negative, not -1"):
        solve_rung(5, {}, -1)
    with pytest.raises(BudgetTooSmallError):  # 0 is a budget, just too small
        solve_rung(5, {}, 0)


def _fresh_process(script: str, *flags: str) -> str:
    """Stdout of ``script`` run by a new interpreter, which shares no memo."""
    done = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_solve_block_does_not_depend_on_call_history():
    solve_block(17)
    sol = solve_block(18, budget=130_000)
    fresh = _fresh_process(
        "from cubicpaths import solve_block\n"
        "sol = solve_block(18, budget=130_000)\n"
        "print(sol.f, sol.proven_optimal, sol.nodes_explored)\n"
    )
    assert fresh.split() == ["137", "True", "2382"]
    assert (sol.f, sol.proven_optimal, sol.nodes_explored) == (137, True, 2_382)


def test_assemble_bound_never_solves(table, monkeypatch):
    def no_solve(*args):
        raise AssertionError("assemble_bound solved a block")

    monkeypatch.setattr(blocks, "solve_rung", no_solve)
    monkeypatch.setattr(blocks, "_solve", no_solve)
    window = _proven({8: 11, 9: 15, 10: 19, 11: 23, 12: 31, 13: 39})
    # a size below the window without a proven row leaves the constant unknown
    assert assemble_bound(8, 13, window).final_block_constant is None
    partial = {**window, **{k: table[k] for k in range(2, 8)}, 7: {**table[7], "proven": False}}
    assert assemble_bound(8, 13, partial).final_block_constant is None
    assert assemble_bound(8, 13, table).final_block_constant == 9  # f(7)


def test_ladder_solves_each_size_once_and_matches_the_table(table):
    out = _fresh_process(
        "from cubicpaths import blocks\n"
        "rungs, runs = [], []\n"
        "solve_rung, solve = blocks.solve_rung, blocks._solve\n"
        "def counted_rung(k, ladder, budget):\n"
        "    rungs.append(k)\n"
        "    return solve_rung(k, ladder, budget)\n"
        "def counted(k, budget, ftable, floor=0):\n"
        "    runs.append(k)\n"
        "    return solve(k, budget, ftable, floor)\n"
        "blocks.solve_rung, blocks._solve = counted_rung, counted\n"
        "for k in range(2, 23):\n"
        "    sol = blocks.solve_block(k)\n"
        "    print(k, sol.f, sol.nodes_explored, sol.proven_optimal)\n"
        "print(*rungs)\n"
        "print(*runs)\n"
    )
    *rows, rungs, runs = out.splitlines()
    # one solve_rung per size, and as many searches as the row's runs
    assert rungs.split() == [str(k) for k in range(2, 23)]
    assert runs.split() == [str(k) for k in range(2, 23) for _ in range(table[k]["runs"])]
    solved = {}
    for line in rows:
        k, f, nodes, proven = line.split()
        solved[int(k)] = (int(f), int(nodes), proven == "True")
    assert solved == {k: (table[k]["f"], table[k]["nodes"], True) for k in range(2, 23)}
    assert sum(nodes for _, nodes, _ in solved.values()) == 32_532
    # the same search from the stored ladder gives the stored row: every
    # count, the floor, the runs and the witness
    for k in range(2, 23):
        ladder = {r: table[r]["f"] for r in range(2, k)}
        assert table_row(solve_rung(k, ladder)) == _solved(table[k]), k


def test_every_stored_row_carries_a_witness_that_checks_out(table):
    # load_table has re-checked each row's fields, witness, f and g2
    assert sorted(table) == list(range(2, max(table) + 1))
    for k, row in table.items():
        assert row["proven"] and isinstance(row["solver"], str), k
        # the floor is the guess from the rows below; a second run exactly
        # when it was above f
        ladder = {r: table[r]["f"] for r in range(2, k)}
        assert row["floor"] == _aspiration_floor(k, ladder), k
        assert row["runs"] == (2 if row["floor"] > row["f"] else 1), k


def _remove_an_arc(row):
    arc = next(a for a in row["assignment"] if a[1] > a[0] + 1)
    return {**row, "assignment": [a for a in row["assignment"] if a != arc]}


def _spoil_row(k, spoil):
    """Spoil row k of a table keyed by str(k)."""
    return lambda rows: {**rows, str(k): spoil(rows[str(k)])}


@pytest.mark.parametrize(
    "spoil, message",
    (
        (_spoil_row(6, lambda row: {**row, "f": 5}), r"row k=6: .*does not reproduce f=5"),
        (_spoil_row(7, _remove_an_arc), r"row k=7: witness is infeasible: vertex"),
        (
            _spoil_row(8, lambda row: {key: v for key, v in row.items() if key != "nodes"}),
            r"row k=8: lacks nodes",
        ),
        (_spoil_row(9, lambda row: {**row, "g2": row["g2"] + 1e-6}), r"row k=9: .*is not f's"),
        (lambda rows: list(rows.values()), r"[^ ]*table\.json: not a JSON object keyed by k"),
        (_spoil_row(5, lambda row: 3), r"row k=5: not a JSON object"),
        (
            _spoil_row(7, lambda row: {**row, "assignment": [[0, 1, 2], *row["assignment"]]}),
            r"row k=7: assignment is not a list of \[i, j\] pairs",
        ),
        (lambda rows: {**rows, "x": rows["5"]}, r"[^ ]*table\.json: key 'x' is not a block size"),
        (_spoil_row(8, lambda row: {**row, "proven": 1}), r"row k=8: proven is not true or false"),
        (lambda rows: {"1": rows["2"], **rows}, r"row k=1: blocks need k >= 2"),
        (_spoil_row(6, lambda row: {**row, "f": 7.0}), r"row k=6: .*does not reproduce f=7.0"),
        (_spoil_row(6, lambda row: {**row, "note": "edited"}), r"row k=6: has unknown note"),
        (
            _spoil_row(6, lambda row: {**row, "nodes": "many"}),
            r"row k=6: nodes is not a non-negative integer",
        ),
        (
            _spoil_row(7, lambda row: {**row, "dominance_cuts": 1.5}),
            r"row k=7: dominance_cuts is not a non-negative integer",
        ),
        (
            _spoil_row(7, lambda row: {**row, "ladder_cuts": -1}),
            r"row k=7: ladder_cuts is not a non-negative integer",
        ),
        (
            _spoil_row(7, lambda row: {**row, "relaxation_cuts": True}),
            r"row k=7: relaxation_cuts is not a non-negative integer",
        ),
        (
            _spoil_row(8, lambda row: {**row, "floor": None}),
            r"row k=8: floor is not a non-negative integer",
        ),
        (_spoil_row(9, lambda row: {**row, "runs": -3}), r"row k=9: runs is not 1 or 2"),
        (_spoil_row(9, lambda row: {**row, "runs": True}), r"row k=9: runs is not 1 or 2"),
    ),
    ids=(
        "edited-f",
        "arc-removed",
        "missing-field",
        "wrong-g2",
        "top-level-list",
        "row-not-an-object",
        "arc-not-a-pair",
        "key-not-an-integer",
        "proven-not-a-bool",
        "k-below-2",
        "f-not-an-integer",
        "unknown-field",
        "nodes-not-an-integer",
        "dominance-cuts-not-an-integer",
        "ladder-cuts-negative",
        "relaxation-cuts-a-bool",
        "floor-null",
        "runs-negative",
        "runs-a-bool",
    ),
)
def test_load_table_rejects_a_bad_row(table, tmp_path, spoil, message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(spoil({str(k): row for k, row in table.items()})))
    with pytest.raises(ValueError, match=rf"^block table {message}"):
        load_table(path)


def test_load_table_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{"2": ')
    with pytest.raises(ValueError, match=r"^block table [^ ]*table\.json: not JSON: "):
        load_table(path)


def test_save_table_writes_the_stored_table_byte_for_byte(table, tmp_path):
    path = tmp_path / "new" / "table.json"  # a missing directory is created
    save_table(path, table)
    assert path.read_bytes() == TABLE.read_bytes()


def test_save_table_keeps_the_old_table_when_a_write_fails(table, tmp_path, monkeypatch):
    path, before = _seed(tmp_path, {k: table[k] for k in range(2, 11)})
    write_text = Path.write_text

    def disk_full(self, text, *args, **kwargs):  # writes half, then fails
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", disk_full)
    with pytest.raises(OSError, match="No space left"):
        save_table(path, table)
    assert path.read_bytes() == before
    assert list(path.parent.iterdir()) == [path]


def test_finish_rejects_wrong_count_under_optimize():
    # the witness re-check must be an explicit check that python -O keeps
    script = (
        "import sys\n"
        "from cubicpaths.blocks import _finish, solve_block\n"
        "if __debug__:\n"
        "    sys.exit('assertions are still on')\n"
        "sol = solve_block(6)\n"
        "try:\n"
        "    _finish(6, sol.f + 1, sol.assignment, sol.nodes_explored, True)\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    assert "does not reproduce its count" in _fresh_process(script, "-O")


def _seed(tmp_path, rows):
    """A table file holding ``rows`` keyed by int k, and its bytes."""
    path = tmp_path / "table.json"
    save_table(path, rows)
    return path, path.read_bytes()


def test_block_table_extends_a_seeded_table(table, tmp_path, capsys):
    seeded = {k: table[k] for k in range(2, 11)}
    path, _ = _seed(tmp_path, seeded)
    argv = ["--format", "json", "block", "--k", "12", "--table", str(path)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    grown = load_table(path)
    assert sorted(grown) == list(range(2, 13))
    assert {k: grown[k] for k in range(2, 11)} == seeded
    # the same search tree and witness as the stored rows
    assert [_solved(grown[k]) for k in (11, 12)] == [_solved(table[k]) for k in (11, 12)]
    # one progress line per solved row on stderr; stdout is the report alone
    assert [line.split(":")[0] for line in captured.err.splitlines()] == ["k=11", "k=12"]
    report = json.loads(captured.out)
    assert report["outputs"] == table_row(solve_block(12))  # as without --table
    provenance = report["provenance"]
    assert provenance["solver"] == __version__
    # the table as the command left it, which the result is relative to
    assert provenance["table_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert provenance["relative_to"] == "table"


def test_block_table_refuses_a_row_that_fails_its_audit(table, tmp_path):
    # f(6) = 5 would be a false rung under every larger block; the audit
    # stops the run before it solves or writes anything, also under -O
    rows = {k: table[k] for k in range(2, 11)}
    path, before = _seed(tmp_path, {**rows, 6: {**table[6], "f": 5}})
    done = subprocess.run(
        [sys.executable, "-O", "-m", "cubicpaths.cli", "block", "--k", "22", "--table", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 1
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ") and "block table row k=6:" in line
    assert path.read_bytes() == before


def test_block_table_reports_a_budget_too_small(tmp_path, capsys):
    path = tmp_path / "table.json"
    assert main(["--budget", "2", "block", "--k", "8", "--table", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    *progress, error = captured.err.splitlines()
    assert [line.split(":")[0] for line in progress] == ["k=2", "k=3"]
    assert error == "error: budget 2 too small to reach any feasible assignment for k=4"
    # the rows solved before k=4 were saved as they were solved, and stay
    grown = json.loads(path.read_text())
    assert sorted(grown, key=int) == ["2", "3"]
    assert (grown["2"]["f"], grown["2"]["proven"]) == (2, True)
    assert (grown["3"]["f"], grown["3"]["proven"]) == (3, False)


def test_block_table_answers_a_stored_row_without_solving(tmp_path, monkeypatch, capsys):
    path = tmp_path / "table.json"
    path.write_bytes(TABLE.read_bytes())

    def no_solve(*args):
        raise AssertionError("a stored row was solved again")

    monkeypatch.setattr(blocks, "solve_rung", no_solve)
    assert main(["block", "--k", "40", "--table", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "f(40) = 28727"
    assert captured.err == ""
    assert path.read_bytes() == TABLE.read_bytes()
    assert main(["--format", "json", "block", "--k", "40", "--table", str(path)]) == 0
    provenance = json.loads(capsys.readouterr().out)["provenance"]
    assert provenance["table_sha256"] == hashlib.sha256(TABLE.read_bytes()).hexdigest()
    assert provenance["relative_to"] == "table"


def test_block_table_solves_an_unproven_row_again(table, tmp_path, capsys):
    rows = {k: table[k] for k in range(2, 11)}
    path, _ = _seed(tmp_path, {**rows, 10: {**table[10], "proven": False}})
    assert main(["block", "--k", "10", "--table", str(path)]) == 0
    captured = capsys.readouterr()
    assert "proven: True" in captured.out.splitlines()
    assert [line.split(":")[0] for line in captured.err.splitlines()] == ["k=10"]
    grown = load_table(path)
    assert {k: grown[k] for k in range(2, 10)} == {k: rows[k] for k in range(2, 10)}
    assert _solved(grown[10]) == _solved(table[10])


def test_block_table_rejects_a_block_of_one_vertex(tmp_path, capsys):
    path = tmp_path / "table.json"
    assert main(["block", "--k", "1", "--table", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: blocks need k >= 2, not k=1"]
    assert not path.exists()
