"""Branch-and-bound search for extremal path counts over arc tuples.

The tuple space for length n is finite (entry i ranges over [i, n]) and is
walked as a tree of prefixes in lexicographic order.  Merged tuples are
walked in canonical form only: entry 2 ranges over [2, v_1], so the twin
that swaps the two source arcs (the same graph) is never built.  Five
cuts drop a child prefix before it is visited:

* dead prefix (exact): the fixed entries already break one of the
  connectivity rules of ``tuples.validity_issues``, so no completion is
  valid;
* parallel edge (exact, simple searches only): the fixed entries already
  place an arc beside a path edge by a rule of ``tuples.is_simple_tuple``,
  so no completion decodes to a simple graph;
* kind run (with the ``kind-run`` prune only): the fixed entries already
  give the decoded graph three consecutive vertices of one kind (below);
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
  still found, in the same order;
* dominance (searches for a maximum): an earlier prefix of the same
  length has the same future and counts that are no smaller and not all
  equal (below).

The walk keeps its own prefix state.  Placing an entry updates it and
taking the entry back undoes it: a histogram of the values, the running
maximum (the connectivity-2 bridge rule), low_k = #{j <= k : v_j <= k}
(the merged gap rule; low_k = low_{k-1} + #{j <= k : v_j = k}), the
arc_mu of the fixed arcs summed by value, and that sum over values <= k.
So the exact cuts and the arc_mu of arc k+1 cost O(1), and the bound
loops over the open positions k+1..n only, in O(1) each.  The one class
rule no prefix decides, a merged tuple's value n at least twice, is tested
at the leaf.  The walk does not call the class test, so every leaf it
reaches is tested again with ``validity_issues``, for simple searches
``is_simple_tuple`` and, with the ``kind-run`` prune, ``kind_run_prunable``:
an independent check that raises RuntimeError, also under ``python -O``,
if the walk ever leaves its class.

**Window.**  At connectivity 3 the walk keeps the window mask W of a
prefix of length k: the union, over the starts a in [lo, k] (lo = 3 on
merged tuples, whose fused source and sink keep intervals in [3, n-1],
and 1 on boundary ones), of the bits [M_a, L_a - 1], where M_a =
max(v_a..v_k) and L_a = min{v_j : j < a, v_j >= a}, n+1 if there is none.
An interval [a, p] with p >= k is self-contained when every arc labelled
in it lands by p and no arc labelled before a lands in it, that is when
max(M_a, v_{k+1}..v_p) <= p < L_a.  Placing v at pos = k+1 raises every
M_a to at least v and adds the start pos with M = v and L = the smallest
placed value >= pos, so W' = ((W | (1 << L) - 1) >> v) << v in O(1).  The
interval rule at pos is then one bit: v == pos < n and bit pos of W' is
set.  Boundary tuples need no test at pos = n, where [1, n] is the whole
graph and [a, n] with a >= 2 closes [1, a-1] first.

**Dominance.**  A child of length k, 2 <= k < n, that passes every other
cut has the key (k, the counts of the values k+1..n among v_1..v_k, the
bits of W above k, and with the ``kind-run`` prune whether the count of
the value k is 0) and the vector (fixed, cum, landed[k+1..n-1]): the
arc_mu sum of arcs 1..k, the landed sum at values <= k, and the landed
sum per value above k.  It is not visited when a stored child of its key
has a vector componentwise at least as large and not equal; otherwise it
is stored, and the stored vectors it dominates are dropped.  This is
sound:

1. Same key, same feasible completions.  With k >= 2, every later entry p
   ranges over [p, n], whatever v_1 is (the canonical merged rule bounds
   entry 2 only).  Every rule the walk applies at a later position p reads
   only counts of values >= p (the kind-run rule at p = k+1 also reads
   the count of k), low (k less the count of values above k), the
   running maximum (above k in every kept prefix shorter than n at
   connectivity 2, so the largest value counted above k), the bits of W
   above k and the smallest placed value >= p.  Each is a function of the
   key and the later entries, and the class is exactly what those rules
   keep, so a completion puts one prefix in the class iff it puts the
   other there.
2. Strict dominance, strictly smaller total.  Along a fixed completion,
   arc i > k counts 1 + cum + the landed sums at values k+1..i-1 + the
   counts of the later arcs that land before i, so the total is 1 + fixed
   + a sum in which cum and every landed[u] with k < u < n appear at least
   once, and no other component of the prefix appears.  landed[n] is read
   by no arc and is left out.  A vector no smaller and not equal therefore
   gives every completion a strictly larger total.
3. Every cut is covered.  A stored child has the same length and comes
   earlier in the walk, so its subtree is finished.  Each completion of
   the cut child, added to the stored one, gives a tuple of the class
   worth strictly more, which that subtree yielded or cut: by the bound,
   below an incumbent, or by dominance, below yet another tuple, and the
   walk is finite.  A dropped vector is dominated by the one that
   replaced it, which cuts all it would have.  So only tuples strictly
   below the maximum, or below an incumbent, go missing, and ties
   survive.
4. The prunes keep it sound.  With the ``kind-run`` prune the run rule
   is one of the walk's rules, so in 1-3 the class is its run-free part.
   The ``double-label`` test drops, at the leaf, only tuples strictly
   below an in-class lowering, so in 3 a chain may also end at such a
   drop, still strictly above the lost tuple.  Either way a dominance
   cut loses only tuples strictly below another tuple of the class, never
   one that attains the class maximum.  So wherever the pruned maximum
   equals the unpruned one, the search returns the same maximum and
   witness list with and without the dominance cut.

A vector is one int of (n+1)-bit fields, fixed at the top: every arc_mu
and every sum of them is below 2**n, so the top bit of each field stays
clear, and a <= b componentwise iff ((b | g) - a) & g == g, with g the top
bits.  Fields never carry, so each key keeps its vectors in one ascending
list: a strict dominator is numerically larger, a dominated vector
smaller.  The key is one int as well, the packed counts above k over the
bits of W above k, over the count-of-k bit with the ``kind-run`` prune.

**Seed.**  ``find_extremal`` does not start from an empty incumbent.  It
builds the member of each closed family of ``family_tuple`` at the spec's
length and keeps those that pass the walk's leaf tests: ``validity_issues``
at the spec's connectivity, ``is_simple_tuple`` for simple searches, no
kind run with the ``kind-run`` prune, and not dropped by the
``double-label`` prune (``_family_seed``).  The incumbent starts at the
largest total among them.  This is sound.  The seed is a canonical tuple of
the class that the walk keeps, so the maximum is at least its total, and an
incumbent never exceeds the maximum.  The bound cut and the dominance cut
are strict, so every tuple that ties the maximum is still yielded, in the
same order: the maximum and the witness list are those of the walk without
a seed, and the bound just starts cutting at the first node.  Boundary
specs, and lengths where no member is in the class, have no seed and walk
as before.  At fibonacci n=7 the wedge seeds the maximum 35, which the
walk without it first reaches at node 79, and the walk visits 245 nodes
instead of 295.

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
  It is a prefix rule of the walk.  Let c_v = #{j : v_j = v}.  The kind
  word is 0 1^{c_1} 0 1^{c_2} ... 0 1^{c_n} on boundary tuples and
  0 1^{c_2} 0 1^{c_3} ... 0 1^{c_n - 1} on merged ones (the fused source
  is the first 0, the fused sink the last 1).  So a run is c_v >= 3 (on
  merged tuples for 2 <= v <= n-1, and c_n >= 4), or c_{p-1} = c_p = 0
  for 2 <= p <= n on boundary tuples and 3 <= p <= n-1 on merged ones.
  Entries are at least their index, so c_p is final once entry p is
  placed, and a child placing v at pos is cut in O(1) when c_v reaches
  its cap or c_{pos-1} = c_pos = 0.

The whole module is deterministic; results are reproducible bit-for-bit.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, replace

from .dag import reverse, vertex_kinds
from .tuples import (
    ArcTuple,
    TupleClass,
    canonicalize,
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
    by source: a dead prefix, a kind run, a parallel edge, the bound or
    dominance.  ``spend`` counts a node before it checks the ceiling, so a
    stopped walk has ``used == limit + 1``: the refused node is counted, as
    in ``blocks._solve``.
    """

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 0:
            raise ValueError(f"budget must be non-negative, not {limit}")
        self.limit = limit
        self.used = 0
        self.dead_prefix_cuts = 0
        self.simple_cuts = 0
        self.run_cuts = 0
        self.bound_cuts = 0
        self.dominance_cuts = 0

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
class Seed:
    """A closed family member the search starts from (see the module docstring)."""

    family: str
    values: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class ExtremalReport:
    spec: SearchSpec
    max_total: int | None
    witnesses: tuple[tuple[int, ...], ...]
    complete: bool
    nodes: int
    dead_prefix_cuts: int = 0
    simple_cuts: int = 0
    run_cuts: int = 0
    bound_cuts: int = 0
    dominance_cuts: int = 0
    incumbent_trail: tuple[tuple[int, int], ...] = ()  # (nodes so far, new maximum)
    seed: Seed | None = None
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


def _window_base(window: int, counts: int, width: int, pos: int) -> int:
    """The window mask of a child at ``pos`` before entry pos clears it.

    ``counts`` packs count[u] over arcs 1..pos-1 in ``width``-bit fields,
    with a sentinel field at n+1, so L, the smallest value >= pos among
    them, is n+1 when there is none.  The new start pos brings [v, L-1]
    and placing v raises M_a to v for every older start a, so the child
    placing v has the window ``base >> v << v`` with base = window | the
    bits below L.
    """
    low = counts >> width * pos
    return window | (1 << pos + ((low & -low).bit_length() - 1) // width) - 1


def _dominated(kept: list[int], vec: int, guard: int) -> bool:
    """Whether a vector in ``kept`` is componentwise >= vec and not equal.

    If none is, vec joins ``kept`` unless an equal one is there already,
    and the vectors it dominates leave.  ``guard`` holds the top bit of
    each field, which no value reaches, so ``a <= b`` componentwise iff
    ``((b | guard) - a) & guard == guard``.  Fields never carry, so the
    list stays ascending: a strict dominator of vec is numerically larger,
    and a vector vec dominates is no larger.
    """
    i = bisect_right(kept, vec)
    for old in kept[i:]:
        if ((old | guard) - vec) & guard == guard:
            return True
    if i and kept[i - 1] == vec:
        return False
    gv = vec | guard
    kept[:i] = [old for old in kept[:i] if (gv - old) & guard != guard] + [vec]
    return False


def enumerate_tuples(
    spec: SearchSpec,
    budget: Budget | None = None,
    best: Callable[[], int | None] | None = None,
):
    """Yield, in lexicographic order, the valid tuples the spec admits.

    Merged tuples are enumerated in canonical form only (first entry at
    least the second); the twin tuple decodes to the identical graph.
    Placing entry k+1 updates the prefix state of the module docstring in
    O(1), and taking it back undoes it: ``count`` and ``landed`` per value
    live here, and ``rec(k, top, low, cum, fixed)`` receives the largest
    entry, #{j <= k : v_j <= k}, the landed sum at values <= k and the
    arc_mu sum of arcs 1..k.  At connectivity 3 or with the dominance cut,
    the window mask, the packed counts and the packed landed sums of each
    prefix length below n are kept per length, written by the parent.  A
    child prefix that breaks a connectivity rule, for simple searches
    forces a parallel edge, or with the ``kind-run`` prune forces a kind
    run, is never visited.  Without ``best``, every tuple of the class
    (without a kind run, with that prune) is yielded, less those the
    ``double-label`` prune drops at the leaf.

    When ``best`` is given, it returns the incumbent total (or None).  A
    child whose ``_prefix_bound`` is strictly below it is not visited, and
    neither is a child that a stored child of its key strictly dominates.
    So a tuple goes missing only if its total is strictly below an
    incumbent ``best`` returned, strictly below the total of another tuple
    of the class, or it has a kind run and the ``kind-run`` prune is on.
    ``find_extremal``'s incumbent is a yielded total or its seed's, the
    total of a tuple the walk keeps, so it still sees every tuple that
    attains the maximum it reports.  The bound's ``need`` list and the
    dominance store are built once per spec.
    Every leaf is tested again with ``validity_issues`` (and
    ``is_simple_tuple`` for simple searches, ``kind_run_prunable`` with the
    ``kind-run`` prune); one outside the class raises RuntimeError.
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
    landed = [0] * (n + 1)
    need = [0] * (n + 1)  # arcs pending at each gap in every tuple of the class
    if conn >= 2:
        for g in range(1, n):
            need[g] = 2 if merged and conn == 3 and g >= 2 else 1
    if merged and n >= 2:
        need[n - 1] = max(need[n - 1], 1)
    # lowest start of a self-contained interval the class forbids; the fused
    # source and sink keep merged intervals in [3, n-1]
    lo = 3 if merged else 1
    dominance = best is not None
    runs = PRUNE_KIND_RUN in spec.prunes
    # with runs: a child at pos in [pair_lo, pair_hi] is cut when no entry
    # takes the value pos-1 or pos, and one placing v when the count of v
    # reaches run_cap[v]
    pair_lo, pair_hi = (3, n - 1) if merged else (2, n)
    run_cap = [3] * (n + 1)
    if merged:
        run_cap[n] = 4
    # per prefix length below n, with connectivity 3 or dominance: the window
    # mask, the packed counts and the packed landed sums
    windowed = conn == 3 or dominance
    width = n.bit_length()  # a count field holds 0..n
    field = n + 1  # a vector field: every arc_mu sum stays below 2**n
    if windowed:
        unit = [1 << width * v for v in range(n + 1)]
        windows = [0] * n
        counts = [0] * n
        counts[0] = 1 << width * (n + 1)  # the sentinel for "no value >= pos"
        lpacks = [0] * n
    if dominance:
        # guards[pos]: the top bit of each of the n+1-pos fields of a vector
        guards = [sum(1 << i * field + field - 1 for i in range(n + 1 - pos)) for pos in range(n)]
        stores: list[dict[int, list[int]]] = [{} for _ in range(n)]

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
            if runs and kind_run_prunable(t):
                issues.append("it decodes to a graph with a kind run")
            if issues:
                raise RuntimeError(f"the walk left its class at {t.values}: {'; '.join(issues)}")
            if PRUNE_DOUBLE_LABEL in spec.prunes and _double_label_prunable_for(t, spec):
                return
            yield t
            return
        pos = k + 1
        mu = 1 + cum  # arc_mu of arc pos
        fixed += mu
        first = 2 if merged and k == 0 else pos
        last = values[0] if merged and k == 1 else n
        inner = windowed and pos < n  # the children get packed state
        # count[pos-1] is final here: later entries are at least pos
        empty_pair = runs and pair_lo <= pos <= pair_hi and not count[pos - 1]
        if inner:
            packed = counts[k]
            landed_packed = lpacks[k]
            # child v's window is base >> v << v; starts below lo add nothing
            base = _window_base(windows[k], packed, width, pos) if conn == 3 and pos >= lo else 0
            stored = dominance and pos >= 2
            if stored:
                # the child's key: its counts above pos, then its window
                # above pos; its vector: landed[pos+1..n-1] from the lowest
                # field, then cum, then fixed, with the top bit of each field
                # in guards[pos]
                store = stores[pos]
                above = pos + 1
                count_shift = width * above
                landed_shift = field * above
                tail = field * (n - 1 - pos)
                tail_mask = (1 << tail) - 1
                high = fixed << field + tail
                guard = guards[pos]
        for v in range(first, last + 1):
            values[k] = v
            count[v] += 1
            landed[v] += mu
            child_top = v if v > top else top
            child_low = low + count[pos]
            child_cum = cum + landed[pos]
            # the rules of tuples.validity_issues; [a, pos] can only be a
            # self-contained interval when arc pos lands at pos, and then it
            # is bit pos of the child's window
            if conn == 2:
                dead = pos < n and child_top <= pos
            elif conn == 3:
                dead = (merged and 2 <= pos < n and pos - child_low < 2) or (
                    v == pos and pos < n and base >> pos & 1
                )
            else:
                dead = False
            if dead:
                budget.dead_prefix_cuts += 1
            elif runs and (count[v] >= run_cap[v] or (empty_pair and not count[pos])):
                budget.run_cuts += 1
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
            elif not inner:
                yield from rec(pos, child_top, child_low, child_cum, fixed)
            else:
                windows[pos] = window = base >> v << v
                counts[pos] = packed + unit[v]
                lpacks[pos] = landed_packed + (mu << field * v)
                if stored:
                    key = counts[pos] >> count_shift << n + 1 | window >> above
                    if runs:  # the run rule at pos+1 reads count[pos]
                        key = key << 1 | (not count[pos])
                    vec = lpacks[pos] >> landed_shift & tail_mask | child_cum << tail | high
                    kept = store.get(key)
                    if kept is None:
                        store[key] = [vec]
                    elif _dominated(kept, vec, guard):
                        budget.dominance_cuts += 1
                        count[v] -= 1  # taken back as after a visit
                        landed[v] -= mu
                        continue
                yield from rec(pos, child_top, child_low, child_cum, fixed)
            count[v] -= 1
            landed[v] -= mu

    try:
        yield from rec(0, 0, 0, 0, 0)
    finally:
        # rec refers to itself through its closure; breaking that cycle frees
        # the walk's state, the dominance store among it, when the walk ends
        # instead of at some later cycle collection
        del rec


def find_extremal(spec: SearchSpec, budget_limit: int | None = None) -> ExtremalReport:
    """Maximum total over the spec's tuples, with the witnesses attaining it.

    Without the kind-run prune these are all the witnesses; with it, the
    maximum is the one over tuples without a kind run, and tied witnesses
    with a run are missing.  Where that maximum is the unpruned one, the
    witnesses are every run-free tuple attaining it.

    The incumbent starts at the total of ``_family_seed(spec)``, when there
    is a seed, so the bound cuts from the first node; the maximum and the
    witnesses are the same as without it (module docstring).  Each raise of
    the incumbent above the seed, or above nothing, is recorded as (nodes
    so far, new maximum); a walk whose maximum ties the seed records none.
    If the budget stops the walk before it yields a tuple worth at least
    the seed, the report is incomplete, with the seed's total as the
    maximum and the seed as its only witness.  A complete walk that yields
    nothing worth the seed raises RuntimeError, also under ``python -O``.
    A walk the budget stops reports ``budget_limit + 1`` nodes: the node it
    refused is counted (``Budget``).
    """
    budget = Budget(budget_limit)
    seed = _family_seed(spec)
    best: int | None = seed.total if seed else None
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
    if seed and not witnesses:
        if complete:
            raise RuntimeError(f"the walk yielded nothing worth the seed {seed}")
        witnesses = [seed.values]
    return ExtremalReport(
        spec=spec,
        max_total=best,
        witnesses=tuple(witnesses),
        complete=complete,
        nodes=budget.used,
        dead_prefix_cuts=budget.dead_prefix_cuts,
        simple_cuts=budget.simple_cuts,
        run_cuts=budget.run_cuts,
        bound_cuts=budget.bound_cuts,
        dominance_cuts=budget.dominance_cuts,
        incumbent_trail=tuple(trail),
        seed=seed,
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

    The search starts from the row's best closed family member in the class
    (``find_extremal``), so a check the budget stops still reports the total
    of a tuple of the class, at least the seed's, with a witness.  Such a
    maximum is a lower bound: it may exceed the form, but ``equal`` stays
    None until a complete search decides it.
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


# (name, smallest n, parity n must have or None): the five stated families,
# then the three that attain the simple rows' search maxima
FAMILIES = (
    ("wedge", 2, None),
    ("conn", 3, None),
    ("2ec", 1, None),
    ("simple-conn", 5, 1),
    ("simple-2ec", 2, 0),
    ("simple-conn-odd", 7, 1),
    ("simple-conn-even", 6, 0),
    ("simple-2ec-odd", 5, 1),
)


def _has_member(lowest: int, parity: int | None, n: int) -> bool:
    return n >= lowest and (parity is None or n % 2 == parity)


def _doubled(lo: int, hi: int) -> tuple[int, ...]:
    """lo, lo, lo+2, lo+2, ... up to hi, each twice."""
    return tuple(v for v in range(lo, hi + 1, 2) for _ in (0, 1))


def family_tuple(name: str, n: int) -> ArcTuple:
    """The extremal family member for a graph on 2n vertices (merged class).

    Every branch builds exactly n + 1 entries, the merged length for 2n
    vertices; m = n + 1.  The first five families are the ones the closed
    forms of ``_closed_form`` are stated for.  The last three are this
    repo's extension: they attain the exhaustive maxima of the simple rows,
    which the stated forms miss at odd n (simple-2ec) and at every n >= 6
    (simple-conn):

    * ``simple-conn-odd``, odd n >= 7: (3,3, 4,4, 6,6, ..., n-3,n-3, n-1,
      m,m,m), total 49·3^((n-7)/2);
    * ``simple-conn-even``, even n >= 6: (3,3, 4,4, 6,6, ..., n-2,n-2,
      m,m,m), total 28·3^((n-6)/2);
    * ``simple-2ec-odd``, odd n >= 5: (3,3,m, 5,5, 7,7, ..., n-2,n-2, n,
      m,m), total 5·3^((n-3)/2)+1.
    """
    found = [(lowest, parity) for family, lowest, parity in FAMILIES if family == name]
    if not found:
        raise ValueError(f"unknown family {name!r}")
    ((lowest, parity),) = found
    if not _has_member(lowest, parity, n):
        kind = {None: "", 0: "even ", 1: "odd "}[parity]
        raise ValueError(f"the {name} family needs {kind}n >= {lowest}, not n={n}")
    m = n + 1
    if name == "wedge":
        # uniform short jumps plus one long source arc; attains F(n+2)+1
        vals = (m,) + tuple(j + 1 for j in range(2, n + 1)) + (m,)
    elif name == "conn":
        vals = (2, 2) + tuple(range(3, n)) + (m, m)
    elif name == "2ec":
        vals = (m,) + tuple(range(2, n + 1)) + (m,)
    elif name == "simple-conn":
        vals = (3, 3, 3) + _doubled(5, n - 1) + (m, m, m)
    elif name == "simple-2ec":
        vals = (m,) + _doubled(3, n - 1) + (m, m)
    elif name == "simple-conn-odd":
        vals = (3, 3) + _doubled(4, n - 3) + (n - 1, m, m, m)
    elif name == "simple-conn-even":
        vals = (3, 3) + _doubled(4, n - 2) + (m, m, m)
    else:  # simple-2ec-odd
        vals = (3, 3, m) + _doubled(5, n - 2) + (n, m, m)
    return ArcTuple(vals, TupleClass.MERGED)


def _family_seed(spec: SearchSpec) -> Seed | None:
    """The best family member of the spec's length that the walk would yield.

    Only merged specs have family members, of n = spec.n - 1.  A member is
    kept when it passes the walk's leaf tests: ``validity_issues`` at the
    spec's connectivity, ``is_simple_tuple`` for simple searches, no kind
    run with the ``kind-run`` prune, and not dropped by the
    ``double-label`` prune.  The seed is the kept member with the largest
    total, the first in family order among ties; None when no member is
    kept.  To keep this cheap, a family is rejected on its range before its
    member is built, and the two prune tests, which decode the tuple, run
    on the class members from the best total down, until one passes.
    """
    if spec.klass is not TupleClass.MERGED:
        return None
    n = spec.n - 1
    members = []
    for name, lowest, parity in FAMILIES:
        if not _has_member(lowest, parity, n):
            continue
        t = canonicalize(family_tuple(name, n))
        if (spec.simple_only and not is_simple_tuple(t)) or validity_issues(t, spec.connectivity):
            continue
        members.append((tuple_mu(t).total, name, t))
    for total, name, t in sorted(members, key=lambda member: -member[0]):
        if PRUNE_KIND_RUN in spec.prunes and kind_run_prunable(t):
            continue
        if PRUNE_DOUBLE_LABEL in spec.prunes and _double_label_prunable_for(t, spec):
            continue
        return Seed(name, t.values, total)
    return None


def reversed_tuple(t: ArcTuple) -> ArcTuple:
    """Tuple of the reversed graph (same total by the path bijection)."""
    return encode(reverse(decode(t)))
