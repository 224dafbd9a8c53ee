import gc
import itertools

import pytest

from cubicpaths import (
    ArcTuple,
    SearchSpec,
    TupleClass,
    check_conjecture,
    count_paths,
    decode,
    edge_connectivity_at_least,
    encode,
    enumerate_tuples,
    family_tuple,
    fibonacci,
    find_extremal,
    is_simple,
    is_valid,
    kind_run_prunable,
    tuple_mu,
    validate,
)
from cubicpaths import search
from cubicpaths.search import (
    ALL_PRUNES,
    PRUNE_DOUBLE_LABEL,
    PRUNE_KIND_RUN,
    Budget,
    BudgetExceeded,
    Seed,
    _double_label_prunable_for,
    _family_seed,
    conjecture_spec,
)
from cubicpaths.tuples import closed_interval, is_canonical, is_simple_tuple, validity_issues


def test_fibonacci_basis():
    assert [fibonacci(i) for i in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_enumerate_smallest_spaces():
    assert [t.values for t in enumerate_tuples(SearchSpec(2))] == [(1, 2), (2, 2)]
    assert [t.values for t in enumerate_tuples(SearchSpec(1))] == [(1,)]


def test_enumerate_lexicographic():
    seq = [t.values for t in enumerate_tuples(SearchSpec(4))]
    assert seq == sorted(seq)


def test_kind_run_examples(truncated_tetrahedron):
    assert kind_run_prunable(ArcTuple((4, 4, 4, 4)))
    assert not kind_run_prunable(encode(truncated_tetrahedron))
    assert not kind_run_prunable(ArcTuple((1,)))


def test_double_label_prune_excludes_triple():
    spec = SearchSpec(3, prunes=frozenset({PRUNE_DOUBLE_LABEL}))
    assert (3, 3, 3) not in [t.values for t in enumerate_tuples(spec)]
    spec = SearchSpec(3, TupleClass.MERGED, 2, prunes=frozenset({PRUNE_DOUBLE_LABEL}))
    assert (3, 3, 3) not in [t.values for t in enumerate_tuples(spec)]


def test_double_label_prune_keeps_3ec_extremizer():
    # under 3-edge connectivity the lowered tuple leaves the class, so the
    # wedge family survives pruning (it is the conjectured maximizer)
    spec = SearchSpec(3, TupleClass.MERGED, 3, prunes=frozenset({PRUNE_DOUBLE_LABEL}))
    assert (3, 3, 3) in [t.values for t in enumerate_tuples(spec)]
    spec = SearchSpec(7, TupleClass.MERGED, 3, prunes=frozenset({PRUNE_DOUBLE_LABEL}))
    assert family_tuple("wedge", 6).values in [t.values for t in enumerate_tuples(spec)]


def test_find_extremal_reported_examples():
    r = find_extremal(SearchSpec(6, TupleClass.MERGED, 1))
    assert r.max_total == 36 and (2, 2, 3, 4, 6, 6) in r.witnesses
    r = find_extremal(SearchSpec(5, TupleClass.MERGED, 2))
    assert r.max_total == 17 and r.witnesses == ((5, 2, 3, 4, 5),)
    r = find_extremal(SearchSpec(7, TupleClass.MERGED, 3))
    assert r.max_total == 22
    assert family_tuple("wedge", 6).values in r.witnesses


def test_negative_budget_is_an_error():
    with pytest.raises(ValueError, match="non-negative"):
        Budget(-1)
    assert not find_extremal(SearchSpec(3), budget_limit=0).complete


def test_budget_flags_incomplete():
    spec = SearchSpec(6, TupleClass.MERGED, 1)
    r = find_extremal(spec, budget_limit=find_extremal(spec).nodes - 1)
    assert not r.complete
    with pytest.raises(BudgetExceeded):
        for _ in enumerate_tuples(SearchSpec(5), Budget(3)):
            pass


def _in_class_tuples(length: int, klass: TupleClass, conn: int, simple: bool):
    """Brute force: every canonical tuple of the class, in lexicographic order.

    Simplicity is read off the decoded graph, not the search's tuple rule.
    """
    out = []
    for vals in itertools.product(*(range(i, length + 1) for i in range(1, length + 1))):
        t = ArcTuple(vals, klass)
        if is_canonical(t) and is_valid(t, conn) and (not simple or is_simple(decode(t))):
            out.append(t)
    return out


def _total_bound(values: list[int], k: int) -> int:
    """Plain reference for the walk's bound over tuples starting with values[:k].

    Runs the whole tuple_mu recurrence: arcs 1..k+1 count exactly, and each
    later arc i counts at most 1 + the arc_mu of fixed arcs with value <= i-1
    + the bounds of the open arcs k+1..i-1, as if each of them lands before i.
    """
    n = len(values)
    landed = [0] * (n + 1)  # arc_mu of the fixed arcs, summed by value
    cum = 0  # landed summed over values <= i-1
    fixed = 0
    open_bound = 0
    for i in range(1, n + 1):
        cum += landed[i - 1]
        if i <= k:
            mu = 1 + cum
            landed[values[i - 1]] += mu
            fixed += mu
        else:
            open_bound += 1 + cum + open_bound
    return 1 + fixed + open_bound


def _class_bound(values: list[int], k: int, klass: TupleClass, conn: int) -> int:
    """Plain reference for the walk's class-aware bound over values[:k].

    As ``_total_bound``, but at each gap g = i-1 the class keeps some arcs
    j <= g pending (v_j > g): one for the bridge rule (connectivity 2, and
    connectivity 3 on boundary tuples), two for the merged gap rule at
    connectivity 3 (g >= 2), and one at g = n-1 on merged tuples, whose
    value n occurs twice.  Those the fixed arcs do not supply are open arcs
    that land after i, so arc i leaves out that many of the smallest open
    bounds.
    """
    n = len(values)
    merged = klass is TupleClass.MERGED
    landed = [0] * (n + 1)
    cum = 0
    fixed = 0
    open_bounds: list[int] = []
    for i in range(1, n + 1):
        cum += landed[i - 1]
        if i <= k:
            mu = 1 + cum
            landed[values[i - 1]] += mu
            fixed += mu
            continue
        g = i - 1
        need = 0
        if conn >= 2:
            need = 2 if merged and conn == 3 and g >= 2 else 1
        if merged and g == n - 1:
            need = max(need, 1)
        pending = sum(1 for v in values[:k] if v > g)
        dropped = sorted(open_bounds)[: max(0, need - pending)]
        open_bounds.append(1 + cum + sum(open_bounds) - sum(dropped))
    return 1 + fixed + sum(open_bounds)


PRUNE_SUBSETS = (
    frozenset(),
    frozenset({PRUNE_DOUBLE_LABEL}),
    frozenset({PRUNE_KIND_RUN}),
    ALL_PRUNES,
)


def _kept_by_prunes(t: ArcTuple, spec: SearchSpec) -> bool:
    if PRUNE_DOUBLE_LABEL in spec.prunes and _double_label_prunable_for(t, spec):
        return False
    return not (PRUNE_KIND_RUN in spec.prunes and kind_run_prunable(t))


@pytest.mark.parametrize("conn", (1, 2, 3))
@pytest.mark.parametrize("klass", (TupleClass.BOUNDARY, TupleClass.MERGED))
def test_search_matches_brute_oracle(klass, conn):
    for length in range(1, 8):
        for simple in (False, True):
            in_class = _in_class_tuples(length, klass, conn, simple)
            totals = {t.values: tuple_mu(t).total for t in in_class}
            for t in in_class:
                for k in range(1, length + 1):
                    bound = _class_bound(list(t.values), k, klass, conn)
                    assert totals[t.values] <= bound <= _total_bound(list(t.values), k), (t, k)
            for prunes in PRUNE_SUBSETS:
                spec = SearchSpec(length, klass, conn, simple, prunes)
                expected = [t.values for t in in_class if _kept_by_prunes(t, spec)]
                assert [t.values for t in enumerate_tuples(spec)] == expected, spec
                best = max((totals[v] for v in expected), default=None)
                r = find_extremal(spec)
                assert r.complete and r.max_total == best, spec
                assert r.witnesses == tuple(v for v in expected if totals[v] == best), spec


@pytest.mark.parametrize("klass", (TupleClass.BOUNDARY, TupleClass.MERGED))
def test_window_bit_is_the_interval_rule(klass):
    # On every prefix of every tuple with v_i in [i, n], bit pos of the
    # window mask, as the walk updates it, is set iff closed_interval finds
    # a self-contained interval [a, pos] with a >= lo.
    lo = 3 if klass is TupleClass.MERGED else 1
    for length in range(1, 8):
        width = length.bit_length()
        for vals in itertools.product(*(range(i, length + 1) for i in range(1, length + 1))):
            count = [0] * (length + 1)
            first = [0] * (length + 1)
            counts = 1 << width * (length + 1)  # the walk's sentinel field
            window = 0
            for pos, v in enumerate(vals, 1):
                if pos >= lo:
                    window = search._window_base(window, counts, width, pos) >> v << v
                counts += 1 << width * v
                if not count[v]:
                    first[v] = pos
                count[v] += 1
                closed = closed_interval(count, first, pos, lo) is not None
                assert bool(window >> pos & 1) == closed, (vals, pos)


@pytest.mark.parametrize("conn", (1, 2, 3))
@pytest.mark.parametrize("klass", (TupleClass.BOUNDARY, TupleClass.MERGED))
def test_incremental_bound_matches_the_plain_recurrence(klass, conn, monkeypatch):
    # An incumbent of 0 cuts nothing and the dominance cut is patched out,
    # so the walk bounds every prefix it keeps; each bound it computes from its pushed state must equal the
    # plain class-aware bound run on the prefix, and every prefix of every
    # in-class tuple must be among them.
    seen = set()

    def checked_bound(values, landed, count, need, k, low, cum, fixed):
        found = prefix_bound(values, landed, count, need, k, low, cum, fixed)
        assert found == _class_bound(values, k, klass, conn), (values[:k], found)
        seen.add(tuple(values[:k]))
        return found

    prefix_bound = search._prefix_bound
    monkeypatch.setattr(search, "_prefix_bound", checked_bound)
    monkeypatch.setattr(search, "_dominated", lambda kept, vec, guard: False)
    for length in range(1, 8):
        for simple in (False, True):
            in_class = _in_class_tuples(length, klass, conn, simple)
            spec = SearchSpec(length, klass, conn, simple)
            seen.clear()
            assert list(enumerate_tuples(spec, best=lambda: 0)) == in_class, spec
            wanted = {t.values[:k] for t in in_class for k in range(1, length + 1)}
            assert wanted <= seen, (spec, sorted(wanted - seen)[:3])


@pytest.mark.parametrize(
    "name,n,prunes,counters",
    [
        ("fibonacci", 3, frozenset(), (9, 7, 0, 0, 1, 0)),
        ("fibonacci", 4, frozenset(), (20, 19, 0, 0, 6, 0)),
        ("fibonacci", 5, frozenset(), (40, 38, 0, 0, 36, 3)),
        ("fibonacci", 6, frozenset(), (87, 76, 0, 0, 138, 20)),
        ("fibonacci", 7, frozenset(), (245, 214, 0, 0, 474, 132)),
        ("fibonacci", 8, frozenset(), (728, 538, 0, 0, 1769, 496)),
        ("fibonacci", 9, frozenset(), (2138, 1446, 0, 0, 5940, 1982)),
        ("simple-2ec", 7, ALL_PRUNES, (282, 34, 138, 161, 306, 90)),
        ("fibonacci", 9, frozenset({PRUNE_KIND_RUN}), (1398, 1064, 0, 1489, 2408, 523)),
    ],
)
def test_walk_counters_are_pinned(name, n, prunes, counters):
    # nodes and the cuts by source: dead prefix, parallel edge, kind run,
    # the class-aware prefix bound and dominance
    r = check_conjecture(name, n, prunes=prunes)
    assert r.complete
    found = (r.nodes, r.dead_prefix_cuts, r.simple_cuts, r.run_cuts, r.bound_cuts, r.dominance_cuts)
    assert found == counters


@pytest.mark.parametrize(
    "name,n,prunes",
    [
        pytest.param("fibonacci", 10, frozenset(), id="fibonacci-10"),
        pytest.param("simple-2ec", 8, frozenset(), id="simple-2ec-8"),
        pytest.param("simple-2ec", 8, ALL_PRUNES, id="simple-2ec-8-all-prunes"),
        pytest.param("fibonacci", 10, frozenset({PRUNE_KIND_RUN}), id="fibonacci-10-kind-run"),
    ],
)
def test_dominance_keeps_the_maximum_and_every_witness(name, n, prunes, monkeypatch):
    with_cut = check_conjecture(name, n, prunes=prunes)
    monkeypatch.setattr(search, "_dominated", lambda kept, vec, guard: False)
    without = check_conjecture(name, n, prunes=prunes)
    assert with_cut.complete and without.complete
    assert with_cut.dominance_cuts > 0 and without.dominance_cuts == 0
    assert with_cut.nodes < without.nodes
    assert (with_cut.max_total, with_cut.witnesses) == (without.max_total, without.witnesses)


def _fields(vec: int, guard: int) -> list[int]:
    """The fields of a packed vector, lowest first; guard holds their top bits."""
    width = (guard & -guard).bit_length()
    return [vec >> width * i & (1 << width) - 1 for i in range(guard.bit_length() // width)]


@pytest.mark.parametrize(
    "spec",
    [
        conjecture_spec("fibonacci", 7),
        conjecture_spec("simple-2ec", 7),
        conjecture_spec("simple-conn", 7),
        SearchSpec(7, TupleClass.BOUNDARY, 3),
        SearchSpec(7, TupleClass.BOUNDARY, 1, simple_only=True),
    ],
)
def test_dominance_store_is_a_sorted_antichain(spec, monkeypatch):
    # each decision is a plain field-by-field scan of the stored list, and
    # after each call the list is strictly ascending, holds the vector
    # unless it was cut, and no entry dominates another
    calls = []

    def checked(kept, vec, guard):
        before = [_fields(old, guard) for old in kept]
        mine = _fields(vec, guard)
        cut = dominated(kept, vec, guard)
        assert cut == any(old != mine and all(map(int.__ge__, old, mine)) for old in before)
        assert kept == sorted(set(kept))
        unpacked = [_fields(old, guard) for old in kept]
        assert cut or mine in unpacked
        for a, b in itertools.permutations(unpacked, 2):
            assert not all(map(int.__ge__, a, b)), (a, b)
        calls.append(cut)
        return cut

    dominated = search._dominated
    monkeypatch.setattr(search, "_dominated", checked)
    r = find_extremal(spec)
    assert r.complete and r.dominance_cuts == calls.count(True) > 0
    assert False in calls


def test_walk_leaves_no_cyclic_garbage():
    # the walk frees its state, the dominance store among it, when it ends,
    # stops on the budget or is closed early, not at a later cycle collection
    gc.disable()
    try:
        gc.collect()
        spec = conjecture_spec("fibonacci", 6)
        assert find_extremal(spec).dominance_cuts > 0
        assert gc.collect() == 0
        assert not find_extremal(spec, budget_limit=20).complete
        assert gc.collect() == 0
        walk = enumerate_tuples(spec)
        next(walk)
        walk.close()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_leaf_retest_rejects_a_tuple_outside_the_class(monkeypatch):
    monkeypatch.setattr(search, "validity_issues", lambda t, conn: ["planted issue"])
    with pytest.raises(RuntimeError, match="left its class at .*: planted issue"):
        find_extremal(SearchSpec(5, TupleClass.MERGED, 3))


def test_leaf_retest_rejects_a_kind_run_the_walk_let_through(monkeypatch):
    monkeypatch.setattr(search, "kind_run_prunable", lambda t: True)
    spec = SearchSpec(5, TupleClass.MERGED, 3, prunes=frozenset({PRUNE_KIND_RUN}))
    with pytest.raises(RuntimeError, match="left its class at .*: it decodes to a graph with a kind run"):
        find_extremal(spec)
    # without the prune the leaf does not ask
    assert find_extremal(SearchSpec(5, TupleClass.MERGED, 3)).complete


def test_leaf_retest_rejects_a_parallel_edge_in_a_simple_search(monkeypatch):
    monkeypatch.setattr(search, "is_simple_tuple", lambda t: False)
    with pytest.raises(RuntimeError, match="parallel edge"):
        find_extremal(SearchSpec(5, TupleClass.MERGED, 2, simple_only=True))
    assert find_extremal(SearchSpec(5, TupleClass.MERGED, 2)).complete


@pytest.mark.parametrize("conn", (1, 2, 3))
def test_merged_walk_matches_brute_oracle_at_length_8(conn):
    # the walk decides the class; the leaf re-test would raise if it did not
    in_class = _in_class_tuples(8, TupleClass.MERGED, conn, False)
    simple_ones = [t for t in in_class if is_simple(decode(t))]
    for simple, expected in ((False, in_class), (True, simple_ones)):
        spec = SearchSpec(8, TupleClass.MERGED, conn, simple)
        assert list(enumerate_tuples(spec)) == expected, spec
        totals = [tuple_mu(t).total for t in expected]
        r = find_extremal(spec)
        assert r.complete and r.max_total == max(totals), spec
        assert r.witnesses == tuple(
            t.values for t, total in zip(expected, totals) if total == r.max_total
        ), spec


def _every_small_spec():
    """Every spec of length <= 8: both classes, connectivity 1-3, simple or not, each prune subset."""
    for length in range(1, 9):
        for klass in (TupleClass.BOUNDARY, TupleClass.MERGED):
            for conn in (1, 2, 3):
                for simple in (False, True):
                    for prunes in PRUNE_SUBSETS:
                        yield SearchSpec(length, klass, conn, simple, prunes)


def test_seed_keeps_the_maximum_and_every_witness(monkeypatch):
    # the same maximum and witness list with and without the seed, never
    # more nodes with it, and fewer in all
    specs = list(_every_small_spec())
    seeded = [find_extremal(spec) for spec in specs]
    monkeypatch.setattr(search, "_family_seed", lambda spec: None)
    saved = 0
    for spec, with_seed in zip(specs, seeded):
        without = find_extremal(spec)
        assert with_seed.complete and without.complete, spec
        assert without.seed is None
        assert (with_seed.max_total, with_seed.witnesses) == (without.max_total, without.witnesses), spec
        assert with_seed.nodes <= without.nodes, spec
        saved += without.nodes - with_seed.nodes
    assert saved > 0
    assert sum(r.seed is not None for r in seeded) > 0


def test_seed_passes_the_walks_leaf_tests():
    # each seed is a canonical in-class tuple the walk keeps, worth its total
    for spec in _every_small_spec():
        seed = _family_seed(spec)
        if seed is None:
            continue
        t = ArcTuple(seed.values, spec.klass)
        assert len(t) == spec.n and is_canonical(t)
        assert not validity_issues(t, spec.connectivity), spec
        assert not spec.simple_only or is_simple_tuple(t)
        assert _kept_by_prunes(t, spec)
        assert seed.total == tuple_mu(t).total
        assert family_tuple(seed.family, spec.n - 1).values == seed.values


def test_no_seed_for_boundary_specs():
    for spec in _every_small_spec():
        if spec.klass is TupleClass.BOUNDARY:
            assert _family_seed(spec) is None
            assert find_extremal(spec).seed is None


def test_a_member_with_a_kind_run_never_seeds_a_kind_run_search():
    for n in range(5, 16, 2):
        assert kind_run_prunable(family_tuple("simple-conn", n))
        for prunes in (frozenset({PRUNE_KIND_RUN}), ALL_PRUNES):
            seed = _family_seed(conjecture_spec("simple-conn", n, prunes))
            assert seed is None or seed.family != "simple-conn", (n, prunes)
    assert _family_seed(conjecture_spec("simple-conn", 5)).family == "simple-conn"


def test_a_member_that_is_not_simple_never_seeds_a_simple_search():
    for n in range(1, 14):
        assert not is_simple_tuple(family_tuple("2ec", n))
        assert _family_seed(conjecture_spec("2ec", n)).family == "2ec"
        for conn in (1, 2, 3):
            seed = _family_seed(SearchSpec(n + 1, TupleClass.MERGED, conn, simple_only=True))
            assert seed is None or seed.family != "2ec", (n, conn)
    assert _family_seed(conjecture_spec("simple-2ec", 7)).family == "simple-2ec-odd"


def test_budget_stop_before_the_seed_reports_the_seed():
    r = check_conjecture("fibonacci", 7, budget_limit=1)
    assert not r.complete
    assert r.seed == Seed("wedge", family_tuple("wedge", 7).values, 35)
    assert r.max_total == 35 and r.witnesses == (r.seed.values,)
    assert r.incumbent_trail == ()
    assert r.closed_form.equal is None and not r.closed_form.exceeded


def test_a_budget_stop_counts_the_refused_node():
    # a budget of 1 lets one node through and stops at the second, which counts
    assert check_conjecture("fibonacci", 7, budget_limit=1).nodes == 2


def test_a_complete_walk_below_its_seed_raises(monkeypatch):
    # a planted seed above the maximum: the walk yields nothing worth it
    spec = conjecture_spec("fibonacci", 6)
    planted = Seed("planted", family_tuple("wedge", 6).values, 23)
    monkeypatch.setattr(search, "_family_seed", lambda spec: planted)
    with pytest.raises(RuntimeError, match="yielded nothing worth the seed"):
        find_extremal(spec)


def test_incomplete_check_leaves_equality_open():
    full = check_conjecture("fibonacci", 7)
    assert full.complete and full.closed_form.equal
    for budget in (50, full.nodes - 1):
        r = check_conjecture("fibonacci", 7, budget_limit=budget)
        assert not r.complete
        assert r.closed_form.equal is None
        assert not r.closed_form.exceeded


@pytest.mark.parametrize(
    "name,n,expected",
    [
        ("simple-conn", 5, 16),
        ("simple-2ec", 4, 10),
        ("2ec", 3, 9),
        ("conn", 4, 18),
        ("fibonacci", 5, 14),
    ],
)
def test_check_conjecture_values(name, n, expected):
    r = check_conjecture(name, n)
    assert r.max_total == expected
    assert r.complete
    assert not r.closed_form.exceeded
    if r.closed_form.tight_claimed and r.closed_form.exact_value is not None:
        assert r.closed_form.equal


@pytest.mark.parametrize("n", (1, 2))
def test_conn_form_is_not_exceeded_below_its_first_n(n):
    # 9 * 2^(n-3) is stated from n = 3; the smaller maxima exceed nothing
    r = check_conjecture("conn", n)
    assert r.max_total > r.closed_form.value
    assert not r.closed_form.exceeded and r.counterexamples == ()


def test_simple_conn_record_at_n_7():
    # The search beats the simple-conn form 16 * sqrt(3)^(n-5) at n = 7 (49
    # against 48); each witness is re-checked from scratch.
    r = check_conjecture("simple-conn", 7)
    assert r.complete and r.max_total == 49
    assert r.closed_form.exact_value == 48
    assert r.closed_form.equal is False and r.closed_form.exceeded
    assert r.witnesses == ((3, 3, 4, 4, 6, 8, 8, 8), (4, 3, 3, 4, 6, 8, 8, 8))
    assert r.counterexamples == r.witnesses
    for values in r.witnesses:
        g = decode(ArcTuple(values, TupleClass.MERGED))
        assert is_simple(g) and validate(g).ok
        assert count_paths(g).total == 49


def test_check_conjecture_witnesses():
    assert (3, 3, 3, 6, 6, 6) in check_conjecture("simple-conn", 5).witnesses
    assert (5, 3, 3, 5, 5) in check_conjecture("simple-2ec", 4).witnesses


def test_conjecture_spec_shapes():
    spec = conjecture_spec("fibonacci", 6)
    assert spec.n == 7 and spec.connectivity == 3 and spec.klass is TupleClass.MERGED
    assert conjecture_spec("simple-2ec", 4).simple_only


@pytest.mark.parametrize(
    "name,n,total",
    [
        ("wedge", 2, 4),
        ("wedge", 6, 22),
        ("conn", 3, 9),
        ("conn", 5, 36),
        ("2ec", 1, 3),
        ("2ec", 4, 17),
        ("simple-conn", 5, 16),
        ("simple-conn", 7, 48),
        ("simple-2ec", 2, 4),
        ("simple-2ec", 4, 10),
        ("simple-2ec", 6, 28),
    ],
)
def test_family_tuples(name, n, total):
    t = family_tuple(name, n)
    assert tuple_mu(t).total == total
    g = decode(t)
    assert count_paths(g).total == total
    if name == "wedge":
        assert edge_connectivity_at_least(g, 3) and is_simple(g)
    if name == "2ec":
        assert edge_connectivity_at_least(g, 2)
    if name.startswith("simple"):
        assert is_simple(g)
    if name == "simple-2ec":
        assert edge_connectivity_at_least(g, 2)


@pytest.mark.parametrize(
    "name,row,ns,total",
    [
        ("simple-conn-odd", "simple-conn", range(7, 40, 2), lambda n: 49 * 3 ** ((n - 7) // 2)),
        ("simple-conn-even", "simple-conn", range(6, 41, 2), lambda n: 28 * 3 ** ((n - 6) // 2)),
        ("simple-2ec-odd", "simple-2ec", range(5, 42, 2), lambda n: 5 * 3 ** ((n - 3) // 2) + 1),
    ],
)
def test_simple_row_families(name, row, ns, total):
    # the families that attain the simple rows' exhaustive maxima: each
    # total matches its formula, each member lies in its row's class, and
    # to n = 12 it is among the search's witnesses
    conn = conjecture_spec(row, 1).connectivity
    for n in ns:
        t = family_tuple(name, n)
        assert len(t) == n + 1 and tuple_mu(t).total == total(n), n
        assert not validity_issues(t, conn) and is_simple_tuple(t), n
        if n <= 12:
            r = check_conjecture(row, n)
            assert r.complete and r.max_total == total(n), n
            assert t.values in r.witnesses, n
    g = decode(family_tuple(name, ns[0]))
    assert is_simple(g) and count_paths(g).total == total(ns[0])
    assert edge_connectivity_at_least(g, conn)


def test_family_range_errors():
    with pytest.raises(ValueError):
        family_tuple("wedge", 1)
    with pytest.raises(ValueError):
        family_tuple("simple-conn", 6)
    with pytest.raises(ValueError, match="the simple-conn-even family needs even n >= 6, not n=7"):
        family_tuple("simple-conn-even", 7)
    with pytest.raises(ValueError):
        family_tuple("simple-2ec-odd", 3)
    with pytest.raises(ValueError):
        family_tuple("nope", 5)


def test_wedge_encodes_the_classic_picture(wedge12):
    assert family_tuple("wedge", 6) == encode(wedge12)


def test_prune_soundness_small():
    # quick spot check; the acceptance suite covers every class exhaustively
    for conn in (1, 2, 3):
        for klass in (TupleClass.BOUNDARY, TupleClass.MERGED):
            spec0 = SearchSpec(5, klass, conn)
            spec1 = SearchSpec(5, klass, conn, prunes=frozenset({PRUNE_DOUBLE_LABEL, PRUNE_KIND_RUN}))
            assert find_extremal(spec0).max_total == find_extremal(spec1).max_total
