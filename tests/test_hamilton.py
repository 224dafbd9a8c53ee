import itertools
import random

import pytest

from cubicpaths import (
    Dag,
    DegreeProfile,
    MoveError,
    RewriteError,
    count_paths,
    edge_connectivity_at_least,
    hamiltonize,
    incoming_move,
    is_on_ham_path,
    is_simple,
    outgoing_move,
    tree_sort,
    tree_sort_order,
    vertex_kinds,
)

from cubicpaths import hamilton
from conftest import cubic_instances, random_cubic

# Smallest graph on which incoming moves applied in increasing vertex order
# lower a count: the move at 5 ran before (5, 6) existed and took mu(6) 4 -> 3.
@pytest.fixture
def eight_counterexample() -> Dag:
    edges = (
        (1, 2), (1, 3), (1, 3), (2, 7), (2, 7), (3, 4),
        (4, 5), (4, 5), (5, 6), (6, 8), (6, 8), (7, 8),
    )
    return Dag(8, edges, DegreeProfile.THREE_REGULAR)


def test_tree_sort_order_six(six_vertex):
    assert tree_sort_order(six_vertex) == (1, 3, 5, 2, 4, 6)
    sorted_dag = tree_sort(six_vertex)
    assert count_paths(sorted_dag).mu == (1, 1, 1, 2, 3, 5)


def _tree_root(tails: dict[int, list[int]], v: int) -> int:
    """Walk unique in-edges back; the walk stops at the tree's root."""
    while len(tails[v]) == 1:
        v = tails[v][0]
    return v


def test_tree_sort_order_properties_on_criterion_05_fleet():
    checked = 0
    for g in cubic_instances(12, rng_seed=1812, degradations=3):
        n = g.vertex_count
        order = tree_sort_order(g)
        assert sorted(order) == list(range(1, n + 1))
        tails = {v: [u for u, w in g.edges if w == v] for v in range(1, n + 1)}
        mu = (0, *count_paths(g).mu)
        pairs = ((_tree_root(tails, v), v) for v in order)
        runs = [(root, [v for _, v in run]) for root, run in itertools.groupby(pairs, key=lambda p: p[0])]
        roots = [root for root, _ in runs]
        assert len(set(roots)) == len(roots)  # each tree is one contiguous run
        trees = [tree for _, tree in runs]
        for root, tree in zip(roots, trees):
            assert tree[0] == root and tree == sorted(tree)
            assert {mu[v] for v in tree} == {mu[root]}
        keys = [(mu[root], root) for root in roots]
        assert keys == sorted(keys)
        checked += 1
    assert checked == 10080


@pytest.mark.parametrize(
    "order",
    [(1, 3, 5, 2, 4, 4), (1, 3, 5, 2, 4), (1, 3, 5, 2, 4, 6, 7), (0, 1, 3, 5, 2, 4)],
    ids=["duplicate", "missing", "extra", "out-of-range"],
)
def test_renumber_rejects_an_order_that_is_not_a_permutation(six_vertex, order):
    # an explicit check, so it also holds under python -O
    with pytest.raises(ValueError, match="permutation of 1..6"):
        hamilton.renumber(six_vertex, order)


def test_tree_sort_fixed_point(truncated_tetrahedron):
    assert tree_sort(truncated_tetrahedron) == truncated_tetrahedron


def test_tree_sort_preserves_totals(truncated_tetrahedron):
    assert count_paths(tree_sort(truncated_tetrahedron)).total == 21


def test_tree_sort_monotone_everywhere():
    for g in cubic_instances(10, rng_seed=99):
        mu = count_paths(tree_sort(g)).mu
        assert all(a <= b for a, b in zip(mu, mu[1:]))


def test_outgoing_move_rejects_connected(six_vertex):
    s = tree_sort(six_vertex)
    # every outdegree-2 vertex already follows its predecessor here
    for b in range(3, 7):
        with pytest.raises(MoveError):
            outgoing_move(s, b)


def test_outgoing_move_schematic():
    # b=3 with in-edge from l=1; p=2 has out-edges to u1=4, u2=5
    g = Dag(
        6,
        ((1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (4, 6), (5, 6)),
        DegreeProfile.THREE_REGULAR,
    )
    mu = count_paths(g).mu
    moved = outgoing_move(g, 3)
    assert (2, 3) in moved.edges and (1, 4) in moved.edges
    assert (2, 4) not in moved.edges
    assert count_paths(moved).mu == mu  # counts must not change at all


def test_incoming_move_six(six_vertex):
    s = tree_sort(six_vertex)
    moved = incoming_move(s, 4)
    assert (3, 4) in moved.edges and (1, 6) in moved.edges
    assert (1, 4) in moved.edges  # one parallel copy stays
    mu = count_paths(moved).mu
    assert all(a >= b for a, b in zip(mu, (1, 1, 1, 2, 3, 5)))


def test_incoming_move_rejects_connected(truncated_tetrahedron):
    with pytest.raises(MoveError):
        incoming_move(truncated_tetrahedron, 3)


def test_hamiltonize_six(six_vertex):
    out, log = hamiltonize(six_vertex)
    assert is_on_ham_path(out)
    assert count_paths(out).total == 5
    assert [m.kind for m in log] == ["incoming"]
    assert log[0].focus == 4
    assert log[0].removed == ((1, 4), (3, 6))
    assert log[0].added == ((1, 6), (3, 4))


def test_hamiltonize_fixed_point(truncated_tetrahedron):
    out, log = hamiltonize(truncated_tetrahedron)
    assert out == truncated_tetrahedron
    assert log == ()


def test_move_log_mu_monotone(six_vertex):
    _, log = hamiltonize(six_vertex)
    for m in log:
        assert all(a >= b for a, b in zip(m.mu_after, m.mu_before))
        if m.kind == "outgoing":
            assert m.mu_after == m.mu_before


def _replay(base, log, out):
    """The public one-move functions replay the in-place rewrite exactly."""
    current = base
    for m in log:
        move = outgoing_move if m.kind == "outgoing" else incoming_move
        assert count_paths(current).mu == m.mu_before
        current = move(current, m.focus)
        assert count_paths(current).mu == m.mu_after
    assert current == out


def test_hamiltonize_property_suite():
    for g in cubic_instances(10, rng_seed=4):
        base = tree_sort(g)
        out, log = hamiltonize(g)
        assert is_on_ham_path(out)
        mu_in, mu_out = count_paths(base).mu, count_paths(out).mu
        assert all(a >= b for a, b in zip(mu_out, mu_in))
        assert vertex_kinds(out) == vertex_kinds(base)
        if is_simple(base):
            assert is_simple(out)
        for ell in (2, 3):
            if edge_connectivity_at_least(base, ell):
                assert edge_connectivity_at_least(out, ell)
        _replay(base, log, out)


def test_move_log_counts_replay_on_larger_graphs():
    # Each move recounts from its lowest changed head; on graphs of 32-64
    # vertices that head is often far from vertex 1, so a wrong start shows.
    rng = random.Random(7)
    moves = 0
    for _ in range(100):
        g = random_cubic(rng, 2 * rng.randint(16, 32))
        out, log = hamiltonize(g)
        _replay(tree_sort(g), log, out)
        moves += len(log)
    assert moves > 1000


def test_hamiltonize_eight_counterexample(eight_counterexample):
    out, log = hamiltonize(eight_counterexample)
    for m in log:
        assert all(a >= b for a, b in zip(m.mu_after, m.mu_before)), m
    assert [m.focus for m in log] == [6, 5, 3]
    assert count_paths(tree_sort(eight_counterexample)).mu == (1, 1, 2, 2, 2, 4, 4, 10)
    assert count_paths(out).mu == (1, 1, 2, 2, 3, 4, 4, 10)


def test_incoming_move_requires_later_path(eight_counterexample):
    s = tree_sort(eight_counterexample)
    with pytest.raises(MoveError, match="later vertex 5"):
        incoming_move(s, 3)
    # the graph that increasing order produced after its move at 3; (5, 6)
    # is missing, so 5 would not reach the vertex 6 that loses paths to it
    moved = Dag(
        8,
        ((1, 2), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4), (4, 6), (4, 6),
         (5, 8), (6, 7), (7, 8), (7, 8)),
        DegreeProfile.THREE_REGULAR,
    )
    assert count_paths(moved).mu == count_paths(s).mu
    with pytest.raises(MoveError, match="later vertex 6"):
        incoming_move(moved, 5)


def test_incoming_move_requires_sorted_counts():
    # v=9 has in-edges from 2 and 6, but mu(6)=3 > mu(8)=2: the swap would
    # take mu(9) from 4 to 3 although every structural precondition holds.
    g = Dag(
        10,
        ((1, 2), (1, 5), (1, 6), (2, 3), (2, 9), (3, 4), (3, 7), (4, 5),
         (4, 7), (5, 6), (6, 9), (7, 8), (8, 10), (8, 10), (9, 10)),
        DegreeProfile.THREE_REGULAR,
    )
    with pytest.raises(MoveError, match="exceeds"):
        incoming_move(g, 9)


def test_hamiltonize_raises_on_lowering_move(monkeypatch):
    # Skipping the tree sort breaks the moves' preconditions; the per-move
    # check must fail loudly with RewriteError, also under python -O.
    g = Dag(
        8,
        ((1, 2), (1, 2), (1, 4), (2, 3), (3, 4), (3, 6), (4, 5), (5, 7),
         (5, 7), (6, 8), (6, 8), (7, 8)),
        DegreeProfile.THREE_REGULAR,
    )
    monkeypatch.setattr(hamilton, "tree_sort", lambda dag: dag)
    with pytest.raises(RewriteError, match="outgoing move at 6 lowered"):
        hamiltonize(g)


@pytest.mark.parametrize(
    "phase, message",
    (
        ("outgoing", "outdegree-2 vertex {v} is unhooked after the outgoing moves"),
        ("incoming", "vertex {v} does not follow {p} at incoming step {p}"),
    ),
)
def test_hamiltonize_checks_each_phase_precondition(monkeypatch, phase, message):
    # The first move of one phase is made a no-op (its swap re-adds the
    # edges it removes), so that vertex stays unhooked; the phase check that
    # replaced the per-move precondition scans must fail with RewriteError,
    # also under python -O.
    g = random_cubic(random.Random(2), 16)  # moves: outgoing at 4, 6, 7; incoming at 13..9
    name = f"_{phase}_swap"
    swap = getattr(hamilton, name)
    skipped = []

    def skip_first(outs, ins, v):
        removed, added = swap(outs, ins, v)
        if skipped:
            return removed, added
        skipped.append(v)
        return removed, removed

    monkeypatch.setattr(hamilton, name, skip_first)
    with pytest.raises(RewriteError) as excinfo:
        hamiltonize(g)
    (v,) = skipped
    assert str(excinfo.value) == message.format(v=v, p=v - 1)
