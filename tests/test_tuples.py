import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicpaths import (
    ArcTuple,
    InvalidTupleError,
    TupleClass,
    count_paths,
    decode,
    encode,
    format_tuple,
    is_simple,
    is_valid,
    parse_tuple,
    reverse,
    tuple_mu,
    validity_issues,
)
from cubicpaths.tuples import (
    canonicalize,
    closed_interval,
    is_canonical,
    is_simple_tuple,
)

from conftest import boundary_tuples, merged_tuples


def arcs_of(dag):
    path = {(i, i + 1): 1 for i in range(1, dag.vertex_count)}
    arcs = []
    for e in dag.edges:
        if path.get(e, 0) > 0:
            path[e] -= 1
        else:
            arcs.append(e)
    return arcs


def test_decode_worked_example():
    g = decode(ArcTuple((2, 4, 5, 4, 5)))
    assert g.vertex_count == 10
    assert arcs_of(g) == [(1, 3), (2, 6), (4, 9), (5, 7), (8, 10)]


def test_decode_square_example():
    g = decode(ArcTuple((4, 4, 4, 4)))
    assert arcs_of(g) == [(1, 5), (2, 6), (3, 7), (4, 8)]
    assert count_paths(g).total == 5


def test_decode_merged_doubling():
    g = decode(ArcTuple((5, 2, 3, 4, 5), TupleClass.MERGED))
    assert g.vertex_count == 8
    assert count_paths(g).total == 17
    # fused endpoints leave doubled edges along the path
    assert g.edges.count((1, 2)) == 2
    assert (1, 8) in g.edges


def test_encode_examples(wedge12, truncated_tetrahedron):
    assert encode(decode(ArcTuple((2, 4, 5, 4, 5)))).values == (2, 4, 5, 4, 5)
    assert encode(decode(ArcTuple((4, 4, 4, 4)))).values == (4, 4, 4, 4)
    wt = encode(wedge12)
    assert wt.klass is TupleClass.MERGED
    assert wt.values == (7, 3, 4, 5, 6, 7, 7)
    assert count_paths(decode(wt)).total == 22
    assert tuple_mu(wt).total == 22
    tt = encode(truncated_tetrahedron)
    assert tuple_mu(tt).total == 21


def test_tuple_mu_examples():
    am = tuple_mu(ArcTuple((2, 4, 5, 4, 5)))
    assert am.arc_mu == (1, 1, 2, 2, 5)
    assert am.total == 12
    assert tuple_mu(ArcTuple((4, 4, 4, 4))).arc_mu == (1, 1, 1, 1)
    assert tuple_mu(ArcTuple((2, 2, 3, 4, 6, 6), TupleClass.MERGED)).total == 36


def test_validity_examples():
    assert is_valid(ArcTuple((2, 4, 5, 4, 5)), 3)
    for n in range(2, 8):
        assert is_valid(ArcTuple((n,) * n), 3)


BRIDGE = "labels 1..{k} all land by {k}: the path edge after them is a bridge"
GAP = "only {crossing} arcs cross the boundary after gap {k}: two deletions disconnect the prefix"
INTERVAL = "label interval [{a}, {k}] is self-contained: only two edges cross its boundary"


@pytest.mark.parametrize(
    "values, klass, connectivity, message",
    [
        ((2, 2, 4, 4), TupleClass.BOUNDARY, 2, BRIDGE.format(k=2)),
        ((3, 3, 3, 5, 5), TupleClass.MERGED, 2, BRIDGE.format(k=3)),
        ((3, 3, 4, 5, 5), TupleClass.MERGED, 3, GAP.format(crossing=1, k=3)),
        ((6, 6, 4, 4, 6, 6), TupleClass.MERGED, 3, INTERVAL.format(a=3, k=4)),
        ((2, 2, 4, 4), TupleClass.BOUNDARY, 3, INTERVAL.format(a=1, k=2)),
        # [2, 3] is self-contained at k = n, but that forces [1, 1] first
        ((1, 3, 3), TupleClass.BOUNDARY, 3, INTERVAL.format(a=1, k=1)),
        # the gap rule breaks at 2 before [3, 3] closes at 3 ...
        ((5, 2, 3, 4, 5), TupleClass.MERGED, 3, GAP.format(crossing=1, k=2)),
        # ... which is what is left once v_2 is raised
        ((5, 5, 3, 4, 5), TupleClass.MERGED, 3, INTERVAL.format(a=3, k=3)),
    ],
    ids=[
        "bridge-boundary",
        "bridge-merged",
        "gap-merged",
        "interval-merged",
        "interval-boundary",
        "interval-boundary-at-n",
        "two-rules-first-prefix",
        "two-rules-second-prefix",
    ],
)
def test_validity_messages_are_pinned(values, klass, connectivity, message):
    assert validity_issues(ArcTuple(values, klass), connectivity) == [message]


def test_boundary_interval_at_n_closes_an_earlier_one():
    # [a, n] with a >= 2 is self-contained only if [1, a-1] is, so the
    # interval scan of boundary tuples stops before n and loses nothing
    seen = 0
    for length in range(2, 8):
        for t in boundary_tuples(length):
            count = [0] * (length + 1)
            first = [0] * (length + 1)
            for j in range(length, 0, -1):
                count[t.values[j - 1]] += 1
                first[t.values[j - 1]] = j
            a = closed_interval(count, first, length, 2)
            if a is not None:
                seen += 1
                (issue,) = validity_issues(t, 3)
                k = int(re.fullmatch(r"label interval \[\d+, (\d+)\] .*", issue).group(1))
                assert k <= a - 1, (t, a, issue)
    assert seen


def test_validity_rejects_floor_violations():
    assert not is_valid(ArcTuple((1, 1)), 1)
    assert validity_issues(ArcTuple((0,)), 1)
    with pytest.raises(InvalidTupleError):
        decode(ArcTuple((1, 1)))


def test_merged_class_invariants():
    assert not is_valid(ArcTuple((1, 2), TupleClass.MERGED), 1)  # first entry too small
    assert is_valid(ArcTuple((2, 3, 3), TupleClass.MERGED), 1)
    assert is_valid(ArcTuple((3, 3, 3), TupleClass.MERGED), 1)
    assert not is_valid(ArcTuple((2, 2, 3), TupleClass.MERGED), 1)  # top value only once


def test_an_entry_that_is_not_an_int_is_rejected_not_coerced():
    # int() would have made (2.7, 3, 3) the valid merged tuple (2, 3, 3)
    with pytest.raises(InvalidTupleError, match=r"^entry 1 is 2\.7, not an int$"):
        ArcTuple((2.7, 3, 3), TupleClass.MERGED)
    # a bool is an int subclass, but no label
    with pytest.raises(InvalidTupleError, match=r"^entry 2 is True, not an int$"):
        ArcTuple([2, True, 3])
    t = ArcTuple([2, 3, 3], TupleClass.MERGED)
    assert t.values == (2, 3, 3) and type(t.values) is tuple


def test_parse_format_roundtrip():
    t = parse_tuple("2,4,5,4,5")
    assert t.values == (2, 4, 5, 4, 5)
    assert format_tuple(t) == "2,4,5,4,5"
    with pytest.raises(InvalidTupleError):
        parse_tuple("2,x,3")


def test_merged_canonical_twins_decode_identically():
    a = ArcTuple((2, 5, 3, 4, 5), TupleClass.MERGED)
    b = canonicalize(a)
    assert not is_canonical(a)
    assert b.values == (5, 2, 3, 4, 5)
    assert decode(a) == decode(b)
    assert tuple_mu(a).total == tuple_mu(b).total


@pytest.mark.parametrize("klass", tuple(TupleClass))
def test_simple_tuple_rule_matches_decoded_graph(klass):
    # every in-class tuple up to length 8, canonical or not (81,513 in all)
    for length in range(1, 9):
        for vals in itertools.product(*(range(i, length + 1) for i in range(1, length + 1))):
            t = ArcTuple(vals, klass)
            if is_valid(t):
                assert is_simple_tuple(t) == is_simple(decode(t)), t


def test_closed_interval_matches_the_set_definition():
    # [a, k] is self-contained when the labels of the arcs landing in it
    # are exactly a..k; every tuple up to length 6, every k and lo
    for length in range(1, 7):
        for vals in itertools.product(*(range(i, length + 1) for i in range(1, length + 1))):
            for k in range(1, length + 1):
                count = [0] * (k + 1)
                first = [0] * (k + 1)
                for j in range(k, 0, -1):
                    if vals[j - 1] <= k:
                        count[vals[j - 1]] += 1
                        first[vals[j - 1]] = j
                closed = [
                    a for a in range(1, k + 1)
                    if {j for j in range(1, k + 1) if a <= vals[j - 1] <= k} == set(range(a, k + 1))
                ]
                for lo in range(1, k + 1):
                    want = max((a for a in closed if a >= lo), default=None)
                    assert closed_interval(count, first, k, lo) == want, (vals, k, lo)


@pytest.mark.parametrize(
    "values,klass,first_parallel",
    [
        ((1,), TupleClass.BOUNDARY, 1),  # the only arc runs beside the only path edge
        ((2, 2), TupleClass.BOUNDARY, None),  # arc 2 lands after arc 1's head
        ((2, 4, 5, 4, 5), TupleClass.BOUNDARY, None),
        ((2, 2, 4, 4), TupleClass.MERGED, 1),  # v_1 = 2: beside the source's path edge
        ((3, 2, 4, 4), TupleClass.MERGED, 2),  # v_2 = 2 and v_1 != 2
        ((3, 3, 4, 4), TupleClass.MERGED, 4),  # n = 4 exactly twice: beside the sink's path edge
        ((4, 3, 4, 4), TupleClass.MERGED, None),  # n = 4 three times
        ((5, 3, 3, 5, 5), TupleClass.MERGED, None),  # the simple-2ec family, n = 4
    ],
)
def test_simple_tuple_examples(values, klass, first_parallel):
    t = ArcTuple(values, klass)
    assert is_simple_tuple(t) == is_simple(decode(t)) == (first_parallel is None)


@pytest.mark.parametrize("length", range(1, 7))
def test_roundtrip_boundary_exhaustive(length):
    for t in boundary_tuples(length):
        assert encode(decode(t)) == t


@pytest.mark.parametrize("length", range(2, 7))
def test_roundtrip_merged_exhaustive(length):
    for t in merged_tuples(length):
        assert encode(decode(t)) == t


@pytest.mark.parametrize("length", range(1, 7))
def test_counting_agreement_boundary(length):
    for t in boundary_tuples(length):
        assert tuple_mu(t).total == count_paths(decode(t)).total


@pytest.mark.parametrize("length", range(2, 7))
def test_counting_agreement_merged(length):
    for t in merged_tuples(length):
        assert tuple_mu(t).total == count_paths(decode(t)).total


def test_monotone_under_single_decrease():
    # lowering one entry (keeping validity) never lowers the total
    for length in range(2, 6):
        for t in boundary_tuples(length):
            base = tuple_mu(t).total
            for i in range(length):
                lowered = list(t.values)
                lowered[i] -= 1
                cand = ArcTuple(tuple(lowered))
                if is_valid(cand, 1):
                    assert tuple_mu(cand).total >= base


def test_reversal_maps_class_to_class():
    from cubicpaths.search import reversed_tuple

    for length in range(2, 6):
        for t in merged_tuples(length):
            rt = reversed_tuple(t)
            assert rt.klass is TupleClass.MERGED
            assert tuple_mu(rt).total == tuple_mu(t).total
        totals = sorted(tuple_mu(t).total for t in merged_tuples(length))
        rtotals = sorted(tuple_mu(reversed_tuple(t)).total for t in merged_tuples(length))
        assert totals == rtotals


@st.composite
def merged_tuple_strategy(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    values = [draw(st.integers(min_value=max(i, 2), max_value=n)) for i in range(1, n + 1)]
    values[-1] = n
    if values.count(n) < 2:
        values[-2] = n
    if values[0] < values[1]:
        values[0], values[1] = values[1], values[0]
    return ArcTuple(tuple(values), TupleClass.MERGED)


@given(merged_tuple_strategy())
@settings(max_examples=200, deadline=None)
def test_merged_decode_count_agreement(t):
    assert tuple_mu(t).total == count_paths(decode(t)).total


@given(merged_tuple_strategy())
@settings(max_examples=200, deadline=None)
def test_merged_roundtrip_property(t):
    assert encode(decode(t)) == t
