import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicpaths import (
    ArcTuple,
    Dag,
    DegreeProfile,
    InvalidDagError,
    count_paths,
    decode,
    edge_connectivity_at_least,
    encode,
    hamiltonize,
    incoming_move,
    infer_profile,
    is_on_ham_path,
    outgoing_move,
    reverse,
    structural_3ec,
    tree_sort,
    tree_sort_order,
    validate,
    vertex_kinds,
)

from conftest import boundary_tuples, merged_tuples, random_cubic


def test_truncated_tetrahedron_is_valid(truncated_tetrahedron):
    assert validate(truncated_tetrahedron).ok
    assert truncated_tetrahedron.profile is DegreeProfile.THREE_REGULAR


def test_boundary_profile_rejects_single_edge(single_edge):
    declared = Dag(2, ((1, 2),), DegreeProfile.BOUNDARY_DEG2)
    report = validate(declared)
    assert not report.ok
    assert any("degree" in v for v in report.violations)


def test_wedge_is_valid(wedge12):
    assert validate(wedge12).ok


def test_count_truncated_tetrahedron(truncated_tetrahedron):
    pc = count_paths(truncated_tetrahedron)
    assert pc.total == 21
    assert pc.mu == (1, 1, 2, 2, 2, 4, 4, 5, 9, 9, 11, 21)


def test_count_wedge(wedge12):
    assert count_paths(wedge12).total == 22


def test_count_single_edge(single_edge):
    assert count_paths(single_edge).total == 1


def test_reverse_single_edge(single_edge):
    assert reverse(single_edge) == single_edge


def test_reverse_preserves_totals(truncated_tetrahedron, wedge12):
    assert count_paths(reverse(truncated_tetrahedron)).total == 21
    assert reverse(reverse(wedge12)) == wedge12


def test_connectivity_oracle(truncated_tetrahedron, single_edge):
    assert edge_connectivity_at_least(truncated_tetrahedron, 3)
    assert edge_connectivity_at_least(single_edge, 1)
    assert not edge_connectivity_at_least(single_edge, 2)
    cut = decode(ArcTuple((2, 2, 4, 4)))
    assert not edge_connectivity_at_least(cut, 3)
    assert not edge_connectivity_at_least(cut, 2)  # the same interval is a bridge


def test_ham_path_detection(truncated_tetrahedron, six_vertex, single_edge):
    assert is_on_ham_path(truncated_tetrahedron)
    assert is_on_ham_path(single_edge)
    assert not is_on_ham_path(six_vertex)


def test_six_vertex_has_no_ham_order(six_vertex):
    # no orientation-preserving renumbering puts every consecutive edge in place
    import itertools

    n = six_vertex.vertex_count
    for perm in itertools.permutations(range(1, n + 1)):
        pos = {old: new for new, old in enumerate(perm, 1)}
        mapped = [(pos[u], pos[v]) for u, v in six_vertex.edges]
        if any(u >= v for u, v in mapped):
            continue
        renumbered = Dag(n, tuple(mapped), six_vertex.profile)
        assert not is_on_ham_path(renumbered)


def test_vertex_kinds(truncated_tetrahedron):
    assert vertex_kinds(truncated_tetrahedron) == (0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1)


def test_vertex_kinds_merged_square():
    assert vertex_kinds(decode(ArcTuple((4, 4, 4, 4)))) == (0, 0, 0, 0, 1, 1, 1, 1)


def test_vertex_kinds_rejects_profileless(single_edge):
    with pytest.raises(InvalidDagError):
        vertex_kinds(single_edge)


def test_structural_3ec_on_known_graphs(truncated_tetrahedron, wedge12):
    assert structural_3ec(truncated_tetrahedron) == (True, None)
    assert structural_3ec(wedge12) == (True, None)


def test_structural_3ec_interval_witness():
    # doubling family member: prefix structure blocks 3-edge connectivity
    from cubicpaths import TupleClass

    g = decode(ArcTuple((5, 2, 3, 4, 5), TupleClass.MERGED))
    ok, witness = structural_3ec(g)
    assert not ok
    assert witness[0] in ("initial-segment", "interval")
    assert not edge_connectivity_at_least(g, 3)


def test_infer_profile(truncated_tetrahedron, single_edge):
    assert infer_profile(12, truncated_tetrahedron.edges) is DegreeProfile.THREE_REGULAR
    assert infer_profile(2, single_edge.edges) is None
    assert infer_profile(2, ((1, 2), (1, 2))) is DegreeProfile.BOUNDARY_DEG2


def test_infer_profile_matches_every_small_tuple_class():
    tuples = [t for length in range(1, 7) for t in boundary_tuples(length)]
    tuples += [t for length in range(2, 7) for t in merged_tuples(length)]
    for t in tuples:
        g = decode(t)
        assert infer_profile(g.vertex_count, g.edges) is g.profile, t
    assert {decode(t).profile for t in tuples} == set(DegreeProfile)


def test_each_dag_is_validated_once(monkeypatch):
    import cubicpaths.dag as dag_module

    seen = []
    verdict = dag_module._violations

    def counted(dag):
        seen.append(dag)
        return verdict(dag)

    monkeypatch.setattr(dag_module, "_violations", counted)
    g = random_cubic(random.Random(11), 32)
    assert validate(g).ok
    tree_sort(g)
    h, _ = hamiltonize(g)
    d = decode(encode(h))
    count_paths(h)
    count_paths(d)
    structural_3ec(d)
    # g, tree_sort's output, hamiltonize's own tree-sorted start, h and d
    assert len(seen) == len({id(dag) for dag in seen}) == 5


def test_count_paths_does_not_depend_on_the_given_edge_order():
    # count_paths makes one pass over dag.edges and relies on Dag sorting them
    rng = random.Random(5)
    boundary = [decode(t) for t in boundary_tuples(5)]
    merged = [decode(t) for t in merged_tuples(5)]
    assert any(len(set(g.edges)) < len(g.edges) for g in merged)  # parallel edges
    profileless = [Dag(g.vertex_count, g.edges) for g in boundary + merged]
    profileless.append(Dag(5, ((1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5), (4, 5))))
    for g in boundary + merged + profileless:
        want = count_paths(g)
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        for given in (g.edges[::-1], tuple(shuffled)):
            assert count_paths(Dag(g.vertex_count, given, g.profile)) == want, (g, given)


@st.composite
def boundary_tuples_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    values = tuple(draw(st.integers(min_value=i, max_value=n)) for i in range(1, n + 1))
    return ArcTuple(values)


@given(boundary_tuples_strategy())
@settings(max_examples=150, deadline=None)
def test_mu_monotone_along_edges(t):
    g = decode(t)
    pc = count_paths(g)
    assert all(m >= 1 for m in pc.mu)
    for u, v in g.edges:
        assert pc.at(v) >= pc.at(u)


@given(boundary_tuples_strategy())
@settings(max_examples=150, deadline=None)
def test_reversal_preserves_totals_property(t):
    g = decode(t)
    assert count_paths(reverse(g)).total == count_paths(g).total


def test_three_regular_total_formula(truncated_tetrahedron, six_vertex):
    # total = 3 + sum of counts at the outgoing vertices after the source
    for g in (truncated_tetrahedron, six_vertex):
        pc = count_paths(g)
        kinds = vertex_kinds(g)
        outgoing = [v for v in range(1, g.vertex_count + 1) if kinds[v - 1] == 0]
        assert pc.total == 3 + sum(pc.at(v) for v in outgoing[1:])


def _reference_3ec(dag):
    """The plain cubic scan: every interval [i, j] rescans the whole edge list."""
    n = dag.vertex_count
    indeg = [0] * (n + 1)
    outdeg = [0] * (n + 1)
    for u, v in dag.edges:
        outdeg[u] += 1
        indeg[v] += 1
    balance = 0
    for k in range(1, n + 1):
        if indeg[k] == 2:
            balance += 1
        elif outdeg[k] == 2:
            balance -= 1
        if balance > 0:
            return False, ("initial-segment", k)
    for i in range(2, n):
        for j in range(i + 1, n):
            crossing = 0
            for u, v in dag.edges:
                if (i <= u <= j) != (i <= v <= j):
                    crossing += 1
                    if crossing > 2:
                        break
            if crossing == 2:
                return False, ("interval", i, j)
    return True, None


def _witness_kinds(results):
    return {None if w is None else w[0] for _, w in results}


def test_structural_3ec_matches_reference_on_every_small_merged_tuple():
    results = []
    for length in range(2, 9):
        for t in merged_tuples(length):
            g = decode(t)
            got = structural_3ec(g)
            assert got == _reference_3ec(g), t.values
            results.append(got)
    assert len(results) == 20160
    assert _witness_kinds(results) == {None, "initial-segment", "interval"}


def test_structural_3ec_matches_reference_on_random_rewritten_graphs():
    rng = random.Random(5)
    results = []
    for _ in range(300):
        h, _ = hamiltonize(random_cubic(rng, 2 * rng.randint(8, 32)))
        # the rewrite's own output and its trip through the tuple codec
        for g in (h, decode(encode(h))):
            got = structural_3ec(g)
            assert got == _reference_3ec(g), g.edges
            results.append(got)
    assert _witness_kinds(results[::2]) == {None, "initial-segment", "interval"}
    assert _witness_kinds(results[1::2]) == {None, "initial-segment", "interval"}


def test_structural_3ec_agrees_with_brute_oracle_beyond_criterion_04():
    rng = random.Random(6)
    verdicts = []
    for _ in range(36):
        h, _ = hamiltonize(random_cubic(rng, 2 * rng.randint(8, 12)))
        ok, _ = structural_3ec(h)
        assert ok == edge_connectivity_at_least(h, 3), h.edges
        verdicts.append(ok)
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------- bad input
#
# Every public entry point that takes a Dag rejects the same bad graphs with
# the same violation strings.

OUT_OF_RANGE = Dag(4, ((1, 2), (3, 2), (2, 5), (3, 4)), DegreeProfile.THREE_REGULAR)
OUT_OF_RANGE_VIOLATIONS = (
    "edge (2, 5) violates 1 <= tail < head <= 4",
    "edge (3, 2) violates 1 <= tail < head <= 4",
)
TWO_SOURCES = Dag(4, ((1, 2), (3, 4)), DegreeProfile.THREE_REGULAR)
TWO_SOURCES_VIOLATIONS = (
    "vertex 3 has indegree 0 (source must be unique)",
    "vertex 2 has outdegree 0 (sink must be unique)",
)
NO_PROFILE = Dag(2, ((1, 2), (1, 2), (1, 2)))
BOUNDARY = Dag(2, ((1, 2), (1, 2)), DegreeProfile.BOUNDARY_DEG2)

ENTRY_POINTS = {
    "count_paths": count_paths,
    "reverse": reverse,
    "edge_connectivity_at_least": lambda g: edge_connectivity_at_least(g, 2),
    "is_on_ham_path": is_on_ham_path,
    "vertex_kinds": vertex_kinds,
    "structural_3ec": structural_3ec,
    "tree_sort_order": tree_sort_order,
    "tree_sort": tree_sort,
    "outgoing_move": lambda g: outgoing_move(g, 3),
    "incoming_move": lambda g: incoming_move(g, 3),
    "hamiltonize": hamiltonize,
    "encode": encode,
}
NEEDS_PROFILE = {
    "vertex_kinds", "structural_3ec", "tree_sort_order", "tree_sort",
    "outgoing_move", "incoming_move", "hamiltonize", "encode",
}
NEEDS_CUBIC = NEEDS_PROFILE - {"vertex_kinds", "encode"}


def _rejection(name, graph):
    with pytest.raises(InvalidDagError) as info:
        ENTRY_POINTS[name](graph)
    return info.value.violations


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "graph, violations",
    [(OUT_OF_RANGE, OUT_OF_RANGE_VIOLATIONS), (TWO_SOURCES, TWO_SOURCES_VIOLATIONS)],
    ids=["out-of-range", "two-sources"],
)
def test_entry_point_rejects_a_broken_graph(name, graph, violations):
    assert _rejection(name, graph) == violations


@pytest.mark.parametrize("name", sorted(NEEDS_PROFILE))
def test_entry_point_rejects_a_missing_profile(name):
    assert _rejection(name, NO_PROFILE) == ("no degree profile declared",)


@pytest.mark.parametrize("name", sorted(NEEDS_CUBIC))
def test_entry_point_rejects_a_boundary_graph(name):
    (violation,) = _rejection(name, BOUNDARY)
    assert violation.endswith("requires a 3-regular graph")


@pytest.mark.parametrize(
    "graph, violations",
    [
        (OUT_OF_RANGE, OUT_OF_RANGE_VIOLATIONS),
        (TWO_SOURCES, TWO_SOURCES_VIOLATIONS),
        (Dag(1, ()), ("vertex count 1 < 2",)),
        (NO_PROFILE, ()),
        (BOUNDARY, ()),
        (
            Dag(3, ((1, 2), (1, 3), (2, 3)), DegreeProfile.THREE_REGULAR),
            (
                "vertex 1 has degree 2, expected 3",
                "vertex 2 has degree 2, expected 3",
                "vertex 3 has degree 2, expected 3",
            ),
        ),
        (
            Dag(3, ((1, 2), (1, 3), (2, 3), (2, 3)), DegreeProfile.BOUNDARY_DEG2),
            ("boundary vertex 3 has degree 3, expected 2",),
        ),
        (
            Dag(3, ((1, 2), (1, 2), (1, 2), (2, 3)), DegreeProfile.BOUNDARY_DEG2),
            (
                "boundary vertex 1 has degree 3, expected 2",
                "boundary vertex 3 has degree 1, expected 2",
                "interior vertex 2 has degree 4, expected 3",
            ),
        ),
    ],
    ids=[
        "out-of-range", "two-sources", "one-vertex", "no-profile", "boundary",
        "cubic-degrees", "boundary-sink", "boundary-both",
    ],
)
def test_validate_reports_violations(graph, violations):
    assert validate(graph).violations == violations


def test_a_non_int_endpoint_is_reported_not_truncated():
    # int() on each endpoint once made (1, 2.7) the edge (1, 2): another graph
    g = Dag(3, ((1, 2.7), (2, 3), (1, 3)), DegreeProfile.BOUNDARY_DEG2)
    assert g.edges == ((1, 2.7), (1, 3), (2, 3))
    assert validate(g).violations == ("edge (1, 2.7) has an endpoint that is not an int",)
    for name in ("count_paths", "is_on_ham_path", "encode"):
        with pytest.raises(InvalidDagError):
            ENTRY_POINTS[name](g)
    for edge, shown in (((1, 2.0), "(1, 2.0)"), ((1, "2"), "(1, '2')"), ((1, None), "(1, None)")):
        assert validate(Dag(2, (edge,))).violations == (f"edge {shown} has an endpoint that is not an int",)
    with pytest.raises(TypeError):  # a str tail does not even sort among int tails
        Dag(3, (("1", 2), (1, 3)))


def test_edges_given_as_lists_build_the_same_dag(truncated_tetrahedron):
    g = truncated_tetrahedron
    for given in ([list(e) for e in reversed(g.edges)], list(g.edges)):
        h = Dag(g.vertex_count, given, g.profile)
        assert h == g and hash(h) == hash(g)
        assert all(type(e) is tuple for e in h.edges)
        assert validate(h).ok and count_paths(h) == count_paths(g)
