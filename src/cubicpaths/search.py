"""Branch-and-bound search for extremal path counts over arc tuples.

The tuple space for length n is finite (entry i ranges over [i, n]) and is
walked as a tree of prefixes in lexicographic order.  Merged tuples are
walked in canonical form only: entry 2 ranges over [2, v_1], so the twin
that swaps the two source arcs (the same graph) is never built.  Three
cuts drop a child prefix before it is visited:

* dead prefix (exact): the fixed entries already break one of the
  connectivity rules of ``tuples.validity_issues``, so no completion is
  valid;
* parallel edge (exact, simple searches only): the fixed entries already
  place an arc beside a path edge by a rule of ``tuples.is_simple_tuple``,
  so no completion decodes to a simple graph;
* bound: ``tuple_mu``'s recurrence fixes arc_mu of arcs 1..k+1 from a
  prefix of length k, and every later arc i counts at most as if the open
  arcs before it had landed, all but those the class keeps pending.  Every
  tuple of the class has need(g) arcs j <= g with v_j > g at gap g = i-1:
  1 by the bridge rule max(v_1..v_g) > g (connectivity 2, and connectivity
  3 on boundary tuples, where it is the interval rule at a = 1), 2 by the
  merged gap rule at connectivity 3 (2 <= g <= n-1), and at least 1 at
  g = n-1 on every merged tuple, since the value n occurs twice and arc n
  is one of them.  Whatever the fixed arcs do not supply, open arcs do,
  so arc i's bound leaves out that many of the smallest open-arc bounds.
  When the bound on the final total is strictly below the incumbent
  maximum, no completion can reach it.  Ties survive, so every witness is
  still found, in the same order.

The walk keeps its own prefix state.  Placing an entry updates it and
taking the entry back undoes it: a histogram of the values, the running
maximum (the connectivity-2 bridge rule), low_k = #{j <= k : v_j <= k}
(the merged gap rule; low_k = low_{k-1} + #{j <= k : v_j = k}), the
smallest label per value, the arc_mu of the fixed arcs summed by value, and
that sum over values <= k.  So the exact cuts and the arc_mu of arc k+1
cost O(1), and the bound loops over the open positions k+1..n only, in
O(1) each.  A self-contained interval [a, k] needs v_k == k, and only then
does the walk scan for one, with ``tuples.closed_interval`` on its own
counts and smallest labels per value.  The one class rule no prefix
decides, a merged tuple's value n at least twice, is tested at the leaf.
The walk does not call the class test, so every leaf it reaches is tested
again with ``validity_issues`` and, for simple searches,
``is_simple_tuple``: an independent check that raises RuntimeError, also
under ``python -O``, if the walk ever leaves its class.

Two optional prunes discard provably suboptimal tuples:

* ``double-label``: two arcs before position i share the value i; lowering
  one of them to i-1 strictly increases the total.  The prune fires only
  when the lowered tuple still lies in the searched class, which keeps it
  sound for the 3-edge-connected and simple classes (where the unrestricted
  rule would discard genuine maximizers, the wedge family among them).
* ``kind-run``: the decoded graph has three consecutive vertices of one
  kind.  By the double-label argument and reversal some graph without a
  run does at least as well, so the maximum is kept; maximizers that only
  tie with it are dropped, though: on merged, connectivity 1, simple
  tuples the search keeps 4 of the 5 witnesses at n=6 and 2 of 5 at n=7.

The whole module is deterministic; results are reproducible bit-for-bit.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

from .dag import reverse, vertex_kinds
from .tuples import (
    ArcTuple,
    TupleClass,
    closed_interval,
    decode,
    encode,
    is_simple_tuple,
    is_valid,
    tuple_mu,
    validity_issues,
)

PRUNE_DOUBLE_LABEL = "double-label"
PRUNE_KIND_RUN = "kind-run"
ALL_PRUNES = frozenset((PRUNE_DOUBLE_LABEL, PRUNE_KIND_RUN))

SQRT3 = math.sqrt(3.0)


class BudgetExceeded(RuntimeError):
    pass


class Budget:
    """Node counter with a hard ceiling (None means unlimited).

    It also counts the child prefixes the walk cut without visiting them,
    by source: a dead prefix, a parallel edge or the bound.
    """

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 0:
            raise ValueError(f"budget must be non-negative, not {limit}")
        self.limit = limit
        self.used = 0
        self.dead_prefix_cuts = 0
        self.simple_cuts = 0
        self.bound_cuts = 0

    def spend(self) -> None:
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceeded(f"enumeration budget {self.limit} exhausted")


def fibonacci(n: int) -> int:
    """F(1) = F(2) = 1."""
    if n < 1:
        raise ValueError("fibonacci index starts at 1")
    a, b = 1, 1
    for _ in range(n - 2):
        a, b = b, a + b
    return b


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: tuple length, class, connectivity, filters."""

    n: int
    klass: TupleClass = TupleClass.BOUNDARY
    connectivity: int = 1
    simple_only: bool = False
    prunes: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "prunes", frozenset(self.prunes))
        unknown = self.prunes - ALL_PRUNES
        if unknown:
            raise ValueError(f"unknown prunes: {sorted(unknown)}")
        if self.n < 1:
            raise ValueError(f"tuple length must be at least 1, not {self.n}")
        if self.connectivity not in (1, 2, 3):
            raise ValueError("connectivity must be 1, 2 or 3")


@dataclass(frozen=True)
class ClosedForm:
    name: str
    value: float
    exact_value: int | None  # integer value when the formula is integral at n
    claim: str               # "theorem" or "conjecture"
    tight_claimed: bool
    equal: bool | None       # search max == exact_value (None if not comparable or incomplete)
    exceeded: bool           # search max exceeds the bound, where the form is stated


@dataclass(frozen=True)
class ExtremalReport:
    spec: SearchSpec
    max_total: int | None
    witnesses: tuple[tuple[int, ...], ...]
    complete: bool
    nodes: int
    dead_prefix_cuts: int = 0
    simple_cuts: int = 0
    bound_cuts: int = 0
    incumbent_trail: tuple[tuple[int, int], ...] = ()  # (nodes so far, new maximum)
    closed_form: ClosedForm | None = None
    counterexamples: tuple[tuple[int, ...], ...] = ()


def kind_run_prunable(t: ArcTuple) -> bool:
    """The decoded graph has three consecutive equal vertex kinds."""
    kinds = vertex_kinds(decode(t))
    return any(kinds[i] == kinds[i + 1] == kinds[i + 2] for i in range(len(kinds) - 2))


def _double_label_prunable_for(t: ArcTuple, spec: SearchSpec) -> bool:
    """Prune t only if lowering one doubled label stays inside the class.

    Any in-class lowering strictly increases the total, so t cannot be a
    maximizer.  Checking class membership of the replacement keeps the rule
    sound for connectivity-3 and simple searches.
    """
    vals = t.values
    n = len(vals)
    for i in range(2, n + 1):
        early = [j for j in range(1, i) if vals[j - 1] == i]
        if len(early) < 2:
            continue
        for j1 in early:
            repl = list(vals)
            repl[j1 - 1] = i - 1
            lowered = ArcTuple(tuple(repl), t.klass)
            if is_valid(lowered, spec.connectivity) and (
                not spec.simple_only or is_simple_tuple(lowered)
            ):
                return True
    return False


def _prefix_bound(
    values: list[int],
    landed: list[int],
    count: list[int],
    need: list[int],
    k: int,
    low: int,
    cum: int,
    fixed: int,
) -> int:
    """Upper bound on tuple_mu's total over the in-class tuples starting with values[:k].

    ``landed[v]`` sums arc_mu over the fixed arcs 1..k of value v and
    ``count[v]`` counts them; ``low`` is #{j <= k : v_j <= k}, ``cum`` the
    landed sum at values <= k and ``fixed`` the arc_mu sum of arcs 1..k.
    Arc k+1 counts exactly 1 + cum.  Every later arc i counts at most 1 +
    the landed sum at values <= i-1 + the bounds b_j of the open arcs
    k+1..i-1 that land before i.  Every tuple of the class keeps need[g]
    arcs j <= g pending at gap g = i-1 (v_j > g):

    * 1 for 1 <= g <= n-1 at connectivity 2, and at connectivity 3 on
      boundary tuples: the bridge rule max(v_1..v_g) > g, which at
      connectivity 3 the interval rule at a = 1 implies;
    * 2 for 2 <= g <= n-1 on merged tuples at connectivity 3: the gap rule
      asks for at least 2 arcs across the boundary after gap g;
    * at least 1 at g = n-1 on merged tuples at every connectivity: the
      value n occurs at least twice and arc n is one of them.

    pend(g) = #{j <= k : v_j > g} of them are fixed arcs: k - low at g = k,
    less ``count[g]`` at each later gap.  So at least r = need[g] - pend(g)
    open arcs before i land after it, and arc i's bound leaves out the r
    smallest b_j (all of them, if there are fewer).  Each b_j is at least
    1 + the landed sum before arc j, so arc k+1's is the smallest, and the
    loop tracks the smallest of the later ones.  Every in-class arc_mu_j
    is at most b_j, and dropping the r smallest b_j leaves the largest sum
    any r pending arcs allow, so the bound is admissible.
    """
    n = len(values)
    if k == n:
        return 1 + fixed
    pend = k - low
    first = 1 + cum  # arc k+1 counts exactly; it is the smallest open bound
    second = 0  # smallest open bound after arc k+1, once there is one
    open_sum = first
    for g in range(k + 1, n):  # arc g+1 counts the arcs landed by gap g
        cum += landed[g]
        pend -= count[g]
        r = need[g] - pend
        b = 1 + cum + open_sum
        if r > 0:
            b -= first + second if r > 1 else first
        open_sum += b
        if b < second or not second:
            second = b
    return 1 + fixed + open_sum


def enumerate_tuples(
    spec: SearchSpec,
    budget: Budget | None = None,
    best: Callable[[], int | None] | None = None,
):
    """Yield, in lexicographic order, the valid tuples the spec admits.

    Merged tuples are enumerated in canonical form only (first entry at
    least the second); the twin tuple decodes to the identical graph.
    Placing entry k+1 updates the prefix state of the module docstring in
    O(1), and taking it back undoes it: ``count``, ``first`` and ``landed``
    per value live here, and ``rec(k, top, low, cum, fixed)`` receives the
    largest entry, #{j <= k : v_j <= k}, the landed sum at values <= k and
    the arc_mu sum of arcs 1..k.  A child prefix that breaks a connectivity
    rule, or for simple searches forces a parallel edge, is never visited.
    When ``best`` is given, it returns the incumbent total (or None), and a
    child whose ``_prefix_bound`` is strictly below it is not visited
    either, so only tuples with a total below the incumbent go missing; the
    bound's ``need`` list is built once per spec.
    Every leaf is tested again with ``validity_issues`` (and
    ``is_simple_tuple`` for simple searches); one outside the class raises
    RuntimeError.
    """
    n = spec.n
    klass = spec.klass
    merged = klass is TupleClass.MERGED
    conn = spec.connectivity
    simple = spec.simple_only
    if budget is None:
        budget = Budget()
    values = [0] * n
    count = [0] * (n + 1)
    first = [0] * (n + 1)  # smallest fixed label per value, read where count > 0
    landed = [0] * (n + 1)
    need = [0] * (n + 1)  # arcs pending at each gap in every tuple of the class
    if conn >= 2:
        for g in range(1, n):
            need[g] = 2 if merged and conn == 3 and g >= 2 else 1
    if merged and n >= 2:
        need[n - 1] = max(need[n - 1], 1)
    # lowest start of a self-contained interval [a, pos] the class forbids
    # (0: none); the fused source and sink keep merged intervals in [3, n-1],
    # and the whole [1, n] is the boundary graph itself
    if merged:
        scan_lo = [3 if 3 <= pos < n else 0 for pos in range(n + 1)]
    else:
        scan_lo = [1 if pos < n else 2 for pos in range(n + 1)]

    def rec(k: int, top: int, low: int, cum: int, fixed: int):
        budget.spend()
        if k == n:
            # connectivity 2 and 3 force this at k = n-1; connectivity 1 does not
            if merged and count[n] < 2:
                return
            t = ArcTuple(tuple(values), klass)
            issues = validity_issues(t, conn)
            if simple and not is_simple_tuple(t):
                issues.append("it decodes to a graph with a parallel edge")
            if issues:
                raise RuntimeError(f"the walk left its class at {t.values}: {'; '.join(issues)}")
            if PRUNE_DOUBLE_LABEL in spec.prunes and _double_label_prunable_for(t, spec):
                return
            if PRUNE_KIND_RUN in spec.prunes and kind_run_prunable(t):
                return
            yield t
            return
        pos = k + 1
        mu = 1 + cum  # arc_mu of arc pos
        fixed += mu
        lo = 2 if merged and k == 0 else pos
        hi = values[0] if merged and k == 1 else n
        for v in range(lo, hi + 1):
            values[k] = v
            if not count[v]:
                first[v] = pos
            count[v] += 1
            landed[v] += mu
            child_top = v if v > top else top
            child_low = low + count[pos]
            child_cum = cum + landed[pos]
            # the rules of tuples.validity_issues; [a, pos] can only be a
            # self-contained interval when arc pos lands at pos
            if conn == 2:
                dead = pos < n and child_top <= pos
            elif conn == 3:
                dead = (merged and 2 <= pos < n and pos - child_low < 2) or (
                    v == pos
                    and scan_lo[pos] > 0
                    and closed_interval(count, first, pos, scan_lo[pos]) is not None
                )
            else:
                dead = False
            if dead:
                budget.dead_prefix_cuts += 1
            elif simple and (  # the rules of tuples.is_simple_tuple
                (v == 2) if merged and pos == 1
                else (count[n] == 2) if merged and pos == n
                else (v == pos and count[pos] == 1)
            ):
                budget.simple_cuts += 1
            elif best is not None and (incumbent := best()) is not None and (
                _prefix_bound(values, landed, count, need, pos, child_low, child_cum, fixed)
                < incumbent
            ):
                budget.bound_cuts += 1
            else:
                yield from rec(pos, child_top, child_low, child_cum, fixed)
            count[v] -= 1
            landed[v] -= mu

    yield from rec(0, 0, 0, 0, 0)


def find_extremal(spec: SearchSpec, budget_limit: int | None = None) -> ExtremalReport:
    """Maximum total over the spec's tuples, with the witnesses attaining it.

    Without the kind-run prune these are all the witnesses; with it, the
    maximum is the same but tied witnesses can be missing.  Each raise of
    the incumbent is recorded as (nodes so far, new maximum).
    """
    budget = Budget(budget_limit)
    best: int | None = None
    witnesses: list[tuple[int, ...]] = []
    trail: list[tuple[int, int]] = []
    complete = True
    try:
        for t in enumerate_tuples(spec, budget, lambda: best):
            total = tuple_mu(t).total
            if best is None or total > best:
                best = total
                witnesses = [t.values]
                trail.append((budget.used, total))
            elif total == best:
                witnesses.append(t.values)
    except BudgetExceeded:
        complete = False
    return ExtremalReport(
        spec=spec,
        max_total=best,
        witnesses=tuple(witnesses),
        complete=complete,
        nodes=budget.used,
        dead_prefix_cuts=budget.dead_prefix_cuts,
        simple_cuts=budget.simple_cuts,
        bound_cuts=budget.bound_cuts,
        incumbent_trail=tuple(trail),
    )


CONJECTURES = ("conn", "2ec", "fibonacci", "simple-conn", "simple-2ec")


def _closed_form(name: str, n: int) -> tuple[float, int | None, str, bool]:
    """(value, integer value or None, claim kind, tightness claimed at n)."""
    if name == "conn":
        v = 9 * 2 ** (n - 3) if n >= 3 else 9.0 * 2.0 ** (n - 3)
        return float(v), (v if n >= 3 else None), "theorem", n >= 3
    if name == "2ec":
        v = 2**n + 1
        return float(v), v, "theorem", n >= 1
    if name == "fibonacci":
        v = fibonacci(n + 2) + 1
        return float(v), v, "conjecture", True
    if name == "simple-conn":
        value = 16.0 * SQRT3 ** (n - 5)
        exact = 16 * 3 ** ((n - 5) // 2) if (n - 5) % 2 == 0 and n >= 5 else None
        return value, exact, "conjecture", n >= 5 and n % 2 == 1
    if name == "simple-2ec":
        value = SQRT3**n + 1
        exact = 3 ** (n // 2) + 1 if n % 2 == 0 else None
        return value, exact, "conjecture", n >= 2 and n % 2 == 0
    raise ValueError(f"unknown conjecture {name!r}")


def conjecture_spec(name: str, n: int, prunes: frozenset[str] = frozenset()) -> SearchSpec:
    """Search spec matching a closed-form row, for a graph on 2n vertices."""
    if name not in CONJECTURES:
        raise ValueError(f"unknown conjecture {name!r}")
    if n < 1:
        raise ValueError(f"a conjecture check needs n >= 1, not {n}")
    connectivity = {"conn": 1, "2ec": 2, "fibonacci": 3, "simple-conn": 1, "simple-2ec": 2}[name]
    simple = name.startswith("simple")
    return SearchSpec(
        n=n + 1,
        klass=TupleClass.MERGED,
        connectivity=connectivity,
        simple_only=simple,
        prunes=prunes,
    )


def check_conjecture(
    name: str,
    n: int,
    budget_limit: int | None = None,
    prunes: frozenset[str] = frozenset(),
) -> ExtremalReport:
    """Search the matching class on 2n vertices and compare the closed form.

    A conjectured bound that the search beats is reported as a
    counterexample record, never as a failure: that outcome would be a
    finding about the bound, not a bug in the search.  The conn and
    simple-conn forms are stated only from their family's first n (3 and
    5); below that a larger maximum exceeds nothing.
    """
    spec = conjecture_spec(name, n, prunes)
    report = find_extremal(spec, budget_limit)
    value, exact, claim, tight = _closed_form(name, n)
    stated = n >= {"conn": 3, "simple-conn": 5}.get(name, 1)
    equal = None
    exceeded = False
    if report.max_total is not None:
        exceeded = stated and report.max_total > value + 1e-9
        # An incomplete maximum is only a lower bound: it can exceed the
        # bound, but equality with the closed form is not decided.
        if exact is not None and tight and report.complete:
            equal = report.max_total == exact
    cf = ClosedForm(name, value, exact, claim, tight, equal, exceeded)
    counterexamples = report.witnesses if exceeded else ()
    return replace(report, closed_form=cf, counterexamples=counterexamples)


def family_tuple(name: str, n: int) -> ArcTuple:
    """The extremal family member for a graph on 2n vertices (merged class).

    Every branch builds exactly n + 1 entries, the merged length for 2n vertices.
    """
    m = n + 1
    if name == "wedge":
        # uniform short jumps plus one long source arc; attains F(n+2)+1
        if n < 2:
            raise ValueError("wedge family needs n >= 2")
        vals = (m,) + tuple(j + 1 for j in range(2, n + 1)) + (m,)
    elif name == "conn":
        if n < 3:
            raise ValueError("connected family needs n >= 3")
        vals = (2, 2) + tuple(range(3, n)) + (m, m)
    elif name == "2ec":
        if n < 1:
            raise ValueError("2-edge-connected family needs n >= 1")
        vals = (m,) + tuple(range(2, n + 1)) + (m,)
    elif name == "simple-conn":
        if n < 5 or n % 2 == 0:
            raise ValueError("simple connected family needs odd n >= 5")
        middle = []
        for v in range(5, n):
            if v % 2 == 1:
                middle += [v, v]
        vals = (3, 3, 3) + tuple(middle) + (m, m, m)
    elif name == "simple-2ec":
        if n < 2 or n % 2 == 1:
            raise ValueError("simple 2-edge-connected family needs even n >= 2")
        middle = []
        for v in range(3, n):
            if v % 2 == 1:
                middle += [v, v]
        vals = (m,) + tuple(middle) + (m, m)
    else:
        raise ValueError(f"unknown family {name!r}")
    return ArcTuple(vals, TupleClass.MERGED)


def reversed_tuple(t: ArcTuple) -> ArcTuple:
    """Tuple of the reversed graph (same total by the path bijection)."""
    return encode(reverse(decode(t)))
