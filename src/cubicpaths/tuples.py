"""Bijection between graphs on a directed Hamiltonian path and arc tuples.

A graph in the boundary-degree-2 class on 2n vertices has exactly n arcs
(edges off the Hamiltonian path).  Arcs are labelled 1..n by the order of
their outgoing endpoints, and entry i of the tuple records the largest
label used strictly before arc i's incoming endpoint.  Any tuple with
values[i] >= i+1 (1-based: v_i >= i) decodes back to such a graph once the
incoming vertices sharing a value are placed in increasing label order;
that ordering is the canonical form used everywhere here.

The merged class represents exactly 3-regular graphs: an (n+1)-tuple
decodes to a boundary graph on 2n+2 vertices whose first two and last two
vertices are then fused into a degree-3 source and sink.  Fusing makes the
first two entries interchangeable, so canonical merged tuples keep
values[0] >= values[1].

Connectivity 2 and 3 are rules on prefixes: a tuple is valid when no
rule is broken at any prefix 1..k (``validity_issues``), and the search
cuts prefixes by the same rules.  It tests the interval rule with a bit
mask of its own, and ``validity_issues`` with a scan (``closed_interval``),
so the search's leaf re-check stays independent.  Simplicity is a prefix
rule as well: a graph has a parallel edge iff some prefix puts an arc
right beside a path edge (``is_simple_tuple``), so it is decided without
decoding.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .dag import Dag, DegreeProfile, InvalidDagError, is_on_ham_path, require_valid


class TupleClass(Enum):
    BOUNDARY = "boundary"  # degree-2 source/sink, graph on 2n vertices
    MERGED = "merged"      # exactly 3-regular, graph on 2n-2 vertices


class InvalidTupleError(ValueError):
    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(self.issues) or "invalid tuple")


@dataclass(frozen=True)
class ArcTuple:
    values: tuple[int, ...]
    klass: TupleClass = TupleClass.BOUNDARY

    def __post_init__(self):
        # stored as given: int() would quietly truncate a float entry
        values = tuple(self.values)
        if not set(map(type, values)) <= {int}:
            i, v = next((i, v) for i, v in enumerate(values) if type(v) is not int)
            raise InvalidTupleError((f"entry {i + 1} is {v!r}, not an int",))
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ArcMu:
    """Source-path counts at each arc's outgoing endpoint, plus the total."""

    arc_mu: tuple[int, ...]
    total: int


def parse_tuple(text: str, klass: TupleClass = TupleClass.BOUNDARY) -> ArcTuple:
    """Parse the comma-separated text form, e.g. "2,4,5,4,5"."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidTupleError((f"cannot parse tuple text {text!r}",)) from exc
    return ArcTuple(values, klass)


def format_tuple(t: ArcTuple) -> str:
    return ",".join(str(v) for v in t.values)


def class_issues(t: ArcTuple) -> list[str]:
    """Violations of the class invariants (ignoring connectivity)."""
    vals = t.values
    n = len(vals)
    out = []
    if n == 0:
        return ["tuple must be nonempty"]
    for i, v in enumerate(vals, 1):
        if v < i:
            out.append(f"entry {i} is {v}, below its floor {i}")
        if v > n:
            out.append(f"entry {i} is {v}, above the largest label {n}")
    if t.klass is TupleClass.MERGED:
        if n < 2:
            out.append("merged tuples need at least 2 entries")
        else:
            if vals[0] < 2:
                out.append("merged tuples require the first entry to be >= 2")
            if vals.count(n) < 2:
                out.append(f"merged tuples require the value {n} at least twice")
    return out


def is_canonical(t: ArcTuple) -> bool:
    if t.klass is TupleClass.MERGED and len(t) >= 2:
        return t.values[0] >= t.values[1]
    return True


def canonicalize(t: ArcTuple) -> ArcTuple:
    if not is_canonical(t):
        v = list(t.values)
        v[0], v[1] = v[1], v[0]
        return ArcTuple(tuple(v), t.klass)
    return t


def closed_interval(count: Sequence[int], first: Sequence[int], k: int, lo: int) -> int | None:
    """The largest a in [lo, k] whose label interval [a, k] is self-contained.

    ``count[v]`` is the number of arcs among 1..k with value v and
    ``first[v]`` the smallest label among them (read only where count[v] >
    0), for every v in [lo, k].  [a, k] is self-contained when the arcs
    landing in it are exactly the k - a + 1 arcs labelled in it: their
    number is k - a + 1 and the smallest of their labels is a.
    ``validity_issues`` keeps both lists as prefix state.
    """
    landed = 0
    smallest = k
    for a in range(k, lo - 1, -1):
        if count[a]:
            landed += count[a]
            if first[a] < smallest:
                smallest = first[a]
        if landed == k - a + 1 and smallest == a:
            return a
    return None


def validity_issues(t: ArcTuple, connectivity: int = 1) -> list[str]:
    """Class invariants, then the first connectivity rule a prefix breaks.

    connectivity 1 asks only for a decodable member of the class (all of
    which are connected via the Hamiltonian path); 2 excludes bridges; 3
    encodes 3-edge connectivity.  A tuple in the class is valid when no
    prefix 1..k breaks a rule, the test the search cuts prefixes with.

    Entry j is at least j, so the arcs that land at labels <= k are all
    among the first k, and each rule is decided once entry k is fixed:

    * bridge (connectivity 2): k < n and max(v_1..v_k) <= k, so the path
      edge after gap k is a bridge;
    * merged gap (connectivity 3): the fused source absorbs the boundary
      after gap 1, so cut boundaries sit after gaps 2..n-1, and each needs
      k - #{j <= k : v_j <= k} >= 2 crossing arcs on top of its path edge;
    * interval (connectivity 3): the arcs labelled in [a, k] are exactly
      those landing in it, so two path edges attach it to the rest.  It
      holds arc k, so it closes only if v_k == k (``closed_interval``).
      Merged intervals lie in [3, n-1], clear of the fused source and
      sink.  Boundary ones end before n: [1, n] is the whole graph, and
      [a, n] with a >= 2 is self-contained only if [1, a-1] is, which
      closes at k = a-1.  The interval at a = 1 is the bridge rule.

    One pass keeps the value histogram, the smallest label per value, the
    running maximum and #{j <= k : v_j <= k}, which grows by the count of
    the value k once v_k is placed.
    """
    if connectivity not in (1, 2, 3):
        raise ValueError("connectivity must be 1, 2 or 3")
    out = class_issues(t)
    if out or connectivity == 1:
        return out
    vals = t.values
    n = len(vals)
    merged = t.klass is TupleClass.MERGED
    lo = 3 if merged else 1  # the lowest interval start
    count = [0] * (n + 1)
    first = [0] * (n + 1)  # smallest label per value, read where count > 0
    top = low = 0
    for k, v in enumerate(vals, 1):
        if not count[v]:
            first[v] = k
        count[v] += 1
        top = max(top, v)
        low += count[k]
        if connectivity == 2:
            if k < n and top <= k:
                return [f"labels 1..{k} all land by {k}: the path edge after them is a bridge"]
            continue
        if merged and 2 <= k < n and k - low < 2:
            return [
                f"only {k - low} arcs cross the boundary after gap {k}: "
                "two deletions disconnect the prefix"
            ]
        if v == k and lo <= k < n:
            a = closed_interval(count, first, k, lo)
            if a is not None:
                return [
                    f"label interval [{a}, {k}] is self-contained: "
                    "only two edges cross its boundary"
                ]
    return []


def is_valid(t: ArcTuple, connectivity: int = 1) -> bool:
    return not validity_issues(t, connectivity)


def is_simple_tuple(t: ArcTuple) -> bool:
    """Whether a tuple in its class decodes to a graph without parallel edges.

    Every unfused vertex carries one arc endpoint, so a parallel edge is an
    arc that lands right after its own tail, beside a path edge.  Arc k
    does so when v_k == k and no earlier entry equals k: its head is then
    first in gap k, since later entries exceed k.  In the merged class the
    fused source and sink change the two ends: arc 1 runs beside the
    source's path edge when v_1 == 2 (the merged (2, 2), whose two arcs
    both join source and sink, is one case), and arc n beside the path
    edge into the sink when the value n occurs exactly twice.  The rule of
    arc k never fires at the merged ends, where v_1 >= 2 and the value n
    occurs more than once.  Each rule is decided once its entry is fixed,
    so the search cuts prefixes by them.
    """
    vals = t.values
    n = len(vals)
    if t.klass is TupleClass.MERGED and (vals[:1] == (2,) or vals.count(n) == 2):
        return False
    seen = set()
    for k, v in enumerate(vals, 1):
        if v == k and k not in seen:
            return False
        seen.add(v)
    return True


def _boundary_layout(vals: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Positions of the n outgoing and n incoming vertices on 2n vertices."""
    n = len(vals)
    heads_by_gap: list[list[int]] = [[] for _ in range(n + 1)]
    for j, v in enumerate(vals, 1):
        heads_by_gap[v].append(j)  # ascending label = canonical order in a gap
    tail_pos = [0] * (n + 1)
    head_pos = [0] * (n + 1)
    pos = 0
    for i in range(1, n + 1):
        pos += 1
        tail_pos[i] = pos
        for j in heads_by_gap[i]:
            pos += 1
            head_pos[j] = pos
    return tail_pos, head_pos


def decode(t: ArcTuple) -> Dag:
    """Rebuild the graph a tuple denotes (canonical incoming-vertex order)."""
    issues = class_issues(t)
    if issues:
        raise InvalidTupleError(issues)
    vals = t.values
    n = len(vals)
    tail_pos, head_pos = _boundary_layout(vals)
    if t.klass is TupleClass.BOUNDARY:
        size, profile, at = 2 * n, DegreeProfile.BOUNDARY_DEG2, range(2 * n + 1)
    else:
        # merged: fuse vertices {1, 2} into the source and {2n-1, 2n} into the
        # sink, so boundary vertex p becomes at[p] and two path edges vanish.
        size, profile = 2 * n - 2, DegreeProfile.THREE_REGULAR
        at = [0, 1, *range(1, size), size, size]
    edges = [(p, p + 1) for p in range(1, size)]
    edges += zip(map(at.__getitem__, tail_pos[1:]), map(at.__getitem__, head_pos[1:]))
    return Dag(size, edges, profile)


def encode(dag: Dag) -> ArcTuple:
    """Read the arc tuple off a graph on a Hamiltonian path.

    Boundary-degree-2 graphs yield boundary tuples; 3-regular graphs yield
    canonical merged tuples (the two source arcs are ordered so the first
    entry dominates the second).

    The edges are sorted by tail and then head, so copies of an edge sit
    together and the first copy of each (i, i+1) is the path edge.  The arcs
    come out with tails ascending, so an arc's value, the number of tails
    before its head, is one bisection of the tails; the merged source's two
    arcs are the only tie, and ``canonicalize`` orders them.
    """
    require_valid(dag, with_profile=True)
    if not is_on_ham_path(dag):
        raise InvalidDagError(("encode requires a Hamiltonian path",))
    edges = dag.edges
    arcs = [e for e, prev in zip(edges, (None, *edges)) if e[1] != e[0] + 1 or e == prev]
    tails = [u for u, _ in arcs]
    values = tuple(bisect_left(tails, v) for _, v in arcs)
    klass = TupleClass.MERGED if dag.profile is DegreeProfile.THREE_REGULAR else TupleClass.BOUNDARY
    t = canonicalize(ArcTuple(values, klass))
    issues = class_issues(t)
    if issues:
        raise InvalidDagError(tuple(f"encoded tuple invalid: {s}" for s in issues))
    return t


def tuple_mu(t: ArcTuple) -> ArcMu:
    """Path counts at arc tails via the last-arc recurrence.

    mu(tail of arc i+1) = 1 + sum of mu(tail of arc k) over arcs k whose
    value is at most i; the grand total adds every arc's count to 1.
    """
    issues = class_issues(t)
    if issues:
        raise InvalidTupleError(issues)
    vals = t.values
    n = len(vals)
    arc_mu = [0] * (n + 1)
    by_value = [0] * (n + 1)
    cum = 0  # sum of arc_mu[k] over processed arcs with value <= i-1
    for i in range(1, n + 1):
        if i >= 2:
            cum += by_value[i - 1]
        arc_mu[i] = 1 + cum
        by_value[vals[i - 1]] += arc_mu[i]
    return ArcMu(tuple(arc_mu[1:]), 1 + sum(arc_mu[1:]))
