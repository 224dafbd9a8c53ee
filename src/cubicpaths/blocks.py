"""Exact optimization of path growth across a block of consecutive vertices.

A block of length k models k consecutive vertices of a 3-regular graph on a
Hamiltonian path, flanked by dummy vertices 0 and k+1 that stand for
everything before and after.  Path edges (i, i+1) are forced, every real
vertex carries exactly one extra arc endpoint, counts satisfy
x_i = sum of x_j over in-edges with x_0 = x_1 = 1, and every interval of at
least two real vertices must be crossed by a third edge on top of its two
path edges.  ``solve_block`` maximizes x_k exactly by depth-first
branch-and-bound over arc placements in left-to-right vertex order;
``brute_block`` is the independent exhaustive oracle for small k.
Both hold a placement in one ``partner`` array: vertex c is incoming iff
``partner[c] < c`` (a source before it), outgoing otherwise (its target, or
k+2 for the dummy sink).

The admissible upper bounds used for pruning rest on one embedding: a
completed solution restricted to positions b..k is a feasible block of
length r = k-b+1 whose unit dummy arcs stand for every arc entering the
suffix.  When b is incoming, its own arc, which comes from before b, becomes
an arc from the block's vertex 1 to the dummy sink: it crosses the same
intervals [b, j], feeds no count into the suffix, and leaves vertex 1
outgoing, as the model has it.  So x_k = x_b P + sum w_a Q_a over the arcs
a entering after b, with P + sum Q_a <= f(r), where P counts the paths from
b with nothing else feeding in.  f is increasing: a vertex appended to a
block and fed from the dummy source keeps it feasible and adds 1.

*Path caps.*  Let j head a suffix of length s, j outgoing, and j' = j+t be
the next outgoing vertex.  With t = 1, embedding j+1..k, j's arc a unit
dummy arc, gives P(j) <= f(s-1).  With t >= 2 the vertices between are
incoming, and j+1 cannot take j's arc (it would double the path edge).  If
j's arc lands after j' or at the sink, P(j) = P(j') + Q <= f(s-t) (embed
j'..k); if it lands between, t >= 3 and P(j) = 2 P(j'); with no outgoing
vertex after j, P(j) <= 2, and 1 when s = 2.  So by induction, f being
increasing, p(s) = max(f(s-1), 2 p(s-3)) for s >= 3, with p(0) = p(1) =
p(2) = 1, caps P(j) for every suffix of length at most s.  These embeddings
all start at an outgoing vertex.  On the stored table p(s) = f(s-1) at
every s; the tightest is f(58) = 1.0196 * 2 f(55).  An incoming b passes
its paths on to the next outgoing vertex, so P <= p(r-1) for it, and P <=
p(r) for an outgoing b.

*Tail-aware bound.*  Each w_a is an open tail's count or the dummy's 1, at
most c, the largest open count, and c <= x_b, so x_k <= c f(r) + (x_b - c)
P with P <= p(r-1) or p(r) as above.

*Open-count bound.*  A real tail feeds at most one arc into the suffix,
which lands on an incoming vertex after b; that vertex passes its paths on
to an outgoing vertex heading at most r-2 vertices, or to none (1 path), so
Q_a <= q, the largest p(s) over s <= r-2.  With w1 >= w2 the two largest
counts of the real tails placed before b and open after it (the dummy's 1
where fewer remain), sum w_a Q_a <= H(D) = w1 min(q, D) + w2 max(0, D - q)
for D = f(r) - P, and x_b P + H(f(r) - P) is nondecreasing in P, since H's
slope is at most w1 <= c <= x_b.  So x_k <= x_b P + H(f(r) - P) with P the
cap above; it is the tail-aware bound when w1 = c and D <= q.  An outgoing
b leaves w1 = c, and D <= q at every r of the stored table, so the search
tests the bound on incoming b only.

*Lookahead bound.*  Let j = b+t be the first outgoing vertex after b and s
= r-t.  The vertices b+1..j-1 are incoming, each from an arc of weight at
most c, or, when b is outgoing, one of them (never b+1) from b itself.
Embedding j..k as above gives x_k <= c f(s) + (x_j - c) p(s), and with n
the child's count:

* incoming b: x_j <= n + (t-1)c, so x_k <= (n + (t-2)c) p(s) + c f(s) for
  t = 1..r-2, and x_k <= n + (r-1)c when no outgoing vertex follows;
* outgoing b whose arc lands after j or at the sink: x_j <= n + (t-1)c and
  b's arc enters after j with weight n, so x_k <= n f(s) + (t-1)c p(s);
* outgoing b whose arc lands on b+2..j-1 (t >= 3): x_j <= 2n + (t-2)c, so
  x_k <= (2n + (t-3)c) p(s) + c f(s);
* outgoing b with no outgoing vertex after it: x_k <= max(2n + (r-2)c,
  n + (r-1)c), or n + c when r = 2 (b+1 = k cannot take b's arc).

t is not known, so the lookahead bound is the largest case.  When b closes
the top tail, the arcs after b come from the tails left open, so it also
holds with the next tail's count for c.  The child's bound is the smallest
of these, the tail-aware and the open-count bound.  Each case is
a (n - c) + g c with a >= 0 and (a, g) fixed by r and the ladder.  Since
n >= c, a case no larger than another in both a and g is never the largest,
so ``_lookahead`` keeps per r only the others, sorted once.

*Rung caps.*  The bounds read f(2..k-1).  Where the ladder lacks f(r),
``_full_ladder`` stands a proven cap F(r) >= f(r) in its place, filled from
r = k-1 down as the least of these, F being f or a cap already filled:

* r 2^floor(r/2).  x_1 = 1, and each later vertex keeps x, adds 1 (an arc
  from the dummy source) or at most doubles it (an arc from a real tail,
  whose count is at most x), so by induction x_r <= (1 + a) 2^d after a
  adds and d doublings.  Each doubling vertex needs an outgoing vertex of
  its own before it, so 2d <= r, and a <= r-1: x_r <= r 2^floor(r/2).
* F(r+1) - 1 when r+1 < k, since f is increasing and integer.
* floor((F(r+3) - 1) / 2) when r+3 < k, by the floor lemma below.

Each bound above is nondecreasing in every f and p value it reads, and p
is nondecreasing in f: the tail-aware bound and each lookahead case are
sums of f and p values times non-negative factors, and x_b P + H(f(r) - P)
is nondecreasing in P (shown above), in f(r) and in q, since H grows with D
and, where q < D, has slope w1 - w2 >= 0 in q.  So a bound built from caps is at least the one built
from f, and stays admissible: a rung that is missing costs nodes, never
correctness.  Only proven values and caps proved from them are ever used
as bounds.  Solving k therefore proceeds bottom-up along the ladder f(2),
f(3), ...; ``solve_rung`` takes that ladder as an argument, and
``solve_block`` builds it by solving every smaller block itself.

The children of a vertex are tried incoming from the open tail with the
largest count first, the dummy source last, then outgoing.  The open tails
are kept in non-decreasing count order for free (a tail carries the count
at its source, and counts never fall along the path), so that order is the
tail list read from the end, with no sort.  Since the tail-aware and
lookahead bounds at c grow with the child's count (c is the parent's), the
first child they cut cuts all its later siblings, and they are counted as
nodes in one step (see ``_solve``).  The open-count bound and the lookahead
bound at the next tail's count depend on which tail closes, so they cut
only their own child.

A partial placement is also cut when an earlier one beats it.  Its
*structure* is the number of real open tails and, for each group of
interval starts that the tails separate, whether some start s of the group
has every closed vertex of [s, pos] partnered inside [s, pos].  Only
closing the top real tail can close an interval, and it does so iff the
group of starts that ends at that tail has its bit set, so placements up
to the same position with the same structure have the same feasible
completions.  x_k is monotone in x and in each open tail's count, so a
placement whose vector (x, tail counts in position order) is componentwise
at most that of an earlier placement with the same structure cannot beat
what the search already found below that one, and it is cut.  ``_solve``
has the proofs and the O(1) update of the structure.

``solve_rung`` starts the search from an aspiration incumbent, the floor
G.  It is the larger of two values, each 0 where the ladder lacks a rung it
reads: the guess floor(0.95 p) - 1, at least 0, for p = f(k-1) f(k-6) /
f(k-7), and 2 f(k-3).  The search starts at ``best_f = G``, so every bound
cuts against G from the first node on, and only a leaf above G becomes the
incumbent.  If a leaf above G is found, every cut was at a bound no higher
than the incumbent at that moment, which never exceeds the final maximum,
so the maximum is proven just as from ``best_f = 0``.  If the search
completes with no leaf above G, that proves f <= G, so a leaf worth G is
the maximum.  Only when every leaf is below G does ``solve_rung`` solve
again once from floor 0 with a fresh dominance store (the stored states
only cover what their subtrees found against G).  Over the stored table
the floor is below f at every k, so no stored row runs twice.  A floor
below f leaves the witness as it is: the first leaf worth f in depth-first
order is never cut, not by a bound (each cuts only completions worth at
most ``best_f`` < f) and not by dominance (the stored state that dominates
would reach a leaf worth f earlier).

*Floor lemma.*  f(k) >= 2 f(k-3) + 1 for k >= 5, so 2 f(k-3) < f(k).  Take
an optimal block of m = k-3 vertices, final count F = f(m), and append
three vertices: a = m+1, outgoing with its arc to the new final vertex
m+3; b = m+2, fed from the dummy source; and m+3, fed from a.  Every arc
that went to the old dummy sink m+1, other than the path edge (m, m+1),
goes to the new one, m+4.  a, b and m+3 have degree 3 and the old vertices
keep theirs.  x_a = F, x_b = F + 1 and x_{m+3} = x_b + x_a = 2F + 1.  An
interval inside 1..m is crossed by the same edges as before, an arc to the
sink still leaving it.  An interval [i, j] with j > m and at least two
vertices is crossed by the path edges (i-1, i) and (j, j+1) and a third:
the arc (m+1, m+3) when j = m+1, and otherwise, since then i <= m+2 <= j,
the arc (0, m+2).  So the block is feasible and worth 2F + 1.

Everything is deterministic: fixed child order, sequential search.
"""
from __future__ import annotations

import functools
import json
import math
import os
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

Edge = tuple[int, int]

BRUTE_LIMIT = 14


@dataclass(frozen=True)
class BlockSolution:
    k: int
    f: int
    assignment: tuple[Edge, ...]  # all unit entries, path edges included
    proven_optimal: bool
    nodes_explored: int
    dominance_cuts: int  # states cut by a stored state of the same structure
    ladder_cuts: int  # children cut by the ladder bounds: tail-aware, lookahead or open-count
    # of the ladder cuts, those the tail-aware bound alone did not make; not stored
    lookahead_cuts: int
    # of the ladder cuts, those only the counts of the tails left open made; not stored
    open_count_cuts: int
    floor: int  # the aspiration incumbent the first run started from
    runs: int  # 2 when every leaf was below the floor and the search ran again from 0
    # each leaf that raised the incumbent: (nodes so far, its value); not stored
    incumbents: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class GrowthRow:
    k: int
    f: int
    g2: float
    proven: bool


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple[GrowthRow, ...]
    argmax_k: int
    bound_base: float
    final_block_constant: int | None  # max f below the window, when known
    rigorous: bool


def growth_factor(f: int, k: int) -> float:
    """Squared per-vertex growth, f**(2/k); blocks cover two columns per step."""
    if f < 1 or k < 1:
        raise ValueError("growth_factor needs f >= 1 and k >= 1")
    return math.exp(2.0 * math.log(f) / k)


def reported_g2(f: int, k: int) -> float:
    """g2 as block reports, bound rows and the stored table give it: 6 decimals."""
    return round(growth_factor(f, k), 6)


def check_assignment(k: int, edges: tuple[Edge, ...]) -> list[str]:
    """Re-evaluate every block constraint from scratch; [] means feasible.

    The interval rule takes one incremental sweep per interval start, so
    O(k^2) for the O(k) edges of a block.
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
    # the other end of each edge at each real vertex; a self-loop never crosses
    ends: list[list[int]] = [[] for _ in range(k + 1)]
    for u, v in edges:
        if u != v:
            if 1 <= u <= k:
                ends[u].append(v)
            if 1 <= v <= k:
                ends[v].append(u)
    for i in range(1, k):
        # the edges crossing [i, j], grown one vertex j at a time: an edge at
        # j stops crossing when its other end is already inside, else starts
        crossing = 0
        for j in range(i, k + 1):
            for o in ends[j]:
                crossing += -1 if i <= o < j else 1
            if j > i and crossing < 3:
                out.append(f"interval [{i}, {j}] crossed by only {crossing} edges")
    return out


def recompute_counts(k: int, edges: tuple[Edge, ...]) -> int:
    """x_k from scratch, with x_0 = 1 feeding the dummy arcs."""
    x = [0] * (k + 1)
    x[0] = 1
    for i in range(1, k + 1):
        x[i] = sum(x[j] for j, h in edges if h == i and j <= k)
    return x[k]


def _aspiration_floor(k: int, ladder: Mapping[int, int]) -> int:
    """The search's starting incumbent, below f(k): the larger of two floors.

    The guess floor(0.95 p) - 1 for p = f(k-1) f(k-6) / f(k-7), and
    2 f(k-3), which the floor lemma of the module docstring proves below
    f(k); each is left out where the ladder lacks a rung it reads, and the
    floor is 0 when both are.
    """
    floor = 2 * ladder.get(k - 3, 0)
    if all(r in ladder for r in (k - 1, k - 6, k - 7)):
        floor = max(floor, 95 * ladder[k - 1] * ladder[k - 6] // (100 * ladder[k - 7]) - 1)
    return floor


def _doubling_cap(r: int) -> int:
    """r 2^floor(r/2), at least f(r): the first of the rung caps in the module docstring."""
    return r << (r // 2)


def _full_ladder(k: int, ladder: Mapping[int, int]) -> list[int]:
    """F(0..k-1): f(0) = f(1) = 1, then ``ladder[r]``, or a cap where it lacks r.

    The caps are filled from r = k-1 down, each the least of r 2^floor(r/2),
    F(r+1) - 1 and floor((F(r+3) - 1) / 2), the last two where r+1 and r+3
    are below k; the rung caps in the module docstring prove each at least
    f(r).  Only the bounds read F: a floor built from a cap above f would
    be above f too and set off the second run, so ``_aspiration_floor``
    reads the ladder.
    """
    fs = [1] * k
    for r in range(k - 1, 1, -1):
        if r in ladder:
            fs[r] = ladder[r]
            continue
        cap = _doubling_cap(r)
        if r + 1 < k:
            cap = min(cap, fs[r + 1] - 1)
        if r + 3 < k:
            cap = min(cap, (fs[r + 3] - 1) // 2)
        fs[r] = cap
    return fs


def _path_caps(fs: list[int], n: int) -> list[int]:
    """p(s) for s < n: caps on the paths from an outgoing vertex heading s vertices.

    p(0) = p(1) = p(2) = 1 and p(s) = max(F(s-1), 2 p(s-3)) over the full
    ladder ``fs``.  The module docstring proves that p(s) caps every suffix
    of length <= s.
    """
    caps = [1, 1, 1]
    for s in range(3, n):
        caps.append(max(fs[s - 1], 2 * caps[s - 3]))
    return caps


def _arc_cap(r: int, caps: list[int]) -> int:
    """q: the most paths one arc entering a suffix of length r carries.

    The largest p(s) over s <= r-2; see the open-count bound in the module
    docstring.
    """
    return max(caps[: r - 1])


def _front(pairs: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The pairs (a, g) no other pair is at least in both, a descending."""
    front, top = [], 0
    for a, g in sorted(pairs, reverse=True):
        if g > top:
            front.append((a, g))
            top = g
    return tuple(front)


def _lookahead(r: int, fs: list[int], caps: list[int]):
    """(incoming, outgoing) lookahead pairs of a child heading a suffix of length r.

    A pair (a, g) bounds x_k by a (n - c) + g c for the child's count n and
    the parent's largest open count c; the child's bound is the largest of
    its pairs.  Each list is ``_front``'s; ``fs`` is the full ladder.
    """
    incoming = [(1, r)]  # no outgoing vertex follows
    outgoing = [(2 if r > 2 else 1, r)]
    for t in range(1, r - 1):  # the next outgoing vertex t after the child
        s = r - t
        p, f = caps[s], fs[s]
        g = f + (t - 1) * p  # the same for each case at this t
        incoming.append((p, g))
        outgoing.append((max(f, 2 * p) if t >= 3 else f, g))
    return _front(incoming), _front(outgoing)


def _placement_arcs(k: int, partner: list[int]) -> tuple[Edge, ...]:
    """Every unit arc of a full placement: path edges plus each extra arc.

    Vertex c is incoming iff ``partner[c] < c``: its extra arc comes from
    ``partner[c]`` (0 = dummy source).  An outgoing vertex points at its
    target, or at ``k + 2`` when its arc goes to the dummy sink.
    """
    arcs: list[Edge] = [(i, i + 1) for i in range(0, k + 1)]
    for c in range(1, k + 1):
        p = partner[c]
        if p < c:
            arcs.append((p, c))
        elif p == k + 2:
            arcs.append((c, k + 1))
    return tuple(sorted(arcs))


class _BudgetSpent(Exception):
    """The node budget ran out; raised out of the search and caught once."""


def _solve(
    k: int, budget: int | None, ftable: Mapping[int, int], floor: int = 0, *, dominance: bool = True
):
    """Branch-and-bound core.  Returns (f, arcs, nodes, completed, cuts, trail).

    ``f`` and ``arcs`` are the best leaf evaluated, (0, None) when none was.
    ``cuts`` is (dominance, ladder, lookahead, open count): states cut by
    dominance, and children cut by the ladder bounds, each cut child counted
    as its node is.  Every bound reads the full ladder of ``_full_ladder``,
    where a cap stands for each rung ``ftable`` lacks.  The lookahead cuts
    are the ladder cuts made where the tail-aware bound did not cut, the
    siblings cut with them included; the open-count cuts are those the
    bounds at c did not make.
    ``trail`` lists (nodes so far, value) for each leaf that raised
    ``best_f``.  With ``dominance=False`` no state is looked up or stored,
    so the search cuts by the bounds and the structure mask alone; the
    tests check the dominance cut against it.

    **Floor.**  ``best_f``, the value every bound is compared with, starts
    at ``floor``.  A leaf is kept when it beats the best leaf so far, but it
    raises ``best_f`` only when it beats ``best_f``.  Every cut removes only
    completions worth at most ``best_f`` at that moment (the bounds are
    admissible, and step 3 below holds for any starting ``best_f``), and
    ``best_f`` is at most max(floor, f) throughout.  So a completed search
    proves that no placement is worth more than max(floor, f): when f >
    floor, f is the maximum; otherwise the maximum is at most ``floor`` and
    the leaf returned, if any, is only a feasible placement.

    The state is ``partner`` and ``opens``, the open tails (source, count) in
    placement order.  The dummy source (0, 1) is a tail that never closes: it
    is tried after every real tail.

    ``opens`` is always in non-decreasing count order.  The dummy (0, 1)
    comes first and 1 is the smallest count.  A tail (s, x_s) is appended
    when s is placed outgoing, and counts never fall along the path
    (x_{i+1} = x_i + an arc's count), so it is no smaller than every tail
    before it.  A closed tail is re-inserted at its old index on the way
    back.  Reading ``opens`` from the end therefore gives the incoming
    children in decreasing count order, ties to the later tail, the dummy
    last.  The tail placed at ``pos``, when present, is the last entry; it
    cannot close at ``pos + 1`` and is skipped without counting a node.

    The tail-aware and lookahead bounds never decrease as the child's count
    ``nx`` grows (their c is the parent's largest open count, ``opens[-1]``,
    the same for every sibling, and each pair's a is at least 0), and
    ``best_f`` is fixed while children are only cut.  So once one child's
    bound is at most ``best_f``, every later sibling is cut too.  A child is
    tested against the tail-aware bound first, then against its lookahead
    pairs, stopping at the first above ``best_f``.  A feasible child these
    leave is tested against the open-count bounds, which read the last
    three ``opens`` entries and cut that child alone.  Each cut child still
    counts as one node, so the loop adds all of them at once and the node
    count is that of visiting them one by one; a budget spent on the way
    stops at exactly ``budget + 1`` nodes, as a one-by-one walk would.

    **Structure.**  Number the real open tails from the top; they split the
    interval starts 1..pos into groups, group 0 above the highest tail,
    group i from just above the (i+1)-th tail up to the i-th.  Bit i of
    ``mask`` is set when some start s of group i has every closed vertex of
    [s, pos] (each vertex that is not a real open tail) partnered inside
    [s, pos].  Placing ``nxt`` updates it in O(1):

    * outgoing: ``((mask >> 1) << 2) | 2``.  Group 0 is now empty; the
      start nxt has no closed vertex, so the group it joins (the old group
      0, now 1) is set, and the old bits from 1 up move up by one.
    * incoming from the dummy: ``0``.  nxt's partner 0 lies below every
      start.
    * incoming from the j-th tail from the top: ``(mask >> j) << (j - 1)``.
      A start above that tail now holds nxt, whose partner is outside;
      groups j - 1 and j merge into one, and its bit is that of the starts
      at or below the tail, old bit j.
    * ``rec(1, 1, 2, 1)`` starts from ``2``: vertex 1 is a tail, and the
      start 1 holds no closed vertex.

    **Intervals.**  [s, nxt], s < nxt, is self-contained, and infeasible,
    when every vertex in it partners inside it.  Only a child closing a real
    tail t can make one (an outgoing nxt or one from the dummy partners
    outside), with s <= t and no real tail open at or above s.  Closing the
    j-th tail from the top, j >= 2, leaves the top one open above t.
    Closing the top tail (``idx == top - 1``) makes one iff some start of
    group 1, the starts s <= t above every other tail, has every closed
    vertex of [s, pos] partnered inside [s, pos] (nxt and t partner each
    other, and a closed vertex partners at or below pos): iff bit 1 is set.
    That child is skipped; it is the only one whose mask would have bit 0
    set, so bit 0 is clear in every reached state: no reached placement has a
    self-contained interval ending at pos.  The tail at pos is the top tail
    and comes with bit 1 set, so at the final vertex this test skips it.

    **Dominance.**  ``rec(pos, x, mask, tails)`` with pos >= 2 first looks up
    its structure key ``(pos, len(opens), mask)``, one int with pos and
    len(opens) in 8 bits each (so k < 256).  The state's vector is x and the
    real tails' counts in position order.  It is cut when a stored vector of
    the same key is componentwise at least as large; otherwise it is stored
    and the stored vectors it dominates are dropped.  This is sound:

    1. Same key, same feasible completions.  A completion places
       pos + 1..k, each as outgoing, from the dummy or from the r-th real
       tail from the top.  Whether a child is feasible, and the child's
       key, depend only on the parent's key and that choice: the interval
       test reads r and bit 1, and the updates read the mask.  The tail at
       pos is no exception: a state with it has bit 1 set, so in a state
       with the same key and no tail at pos, closing the top tail at
       pos + 1 is skipped too.  By induction along the completion, it is
       feasible from one state iff it is from the other.
    2. x_k is monotone in the vector.  Along a fixed completion x_k is x
       plus the counts of the arcs that land after pos: a tail's count, 1,
       or x_i of an earlier new vertex, itself such a sum.
    3. Each cut is covered.  pos grows along every path, so the search is
       depth-first with no state of position pos inside the subtree of
       another; a stored state's subtree is finished before any twin
       arrives.  Every completion of the cut state is a completion of the
       stored one, worth at least as much, which that subtree either
       reached (``best_f`` is at least its value) or cut.  A bound cut in it
       was at or below ``best_f`` then, and ``best_f`` never falls; a
       dominance cut in it is covered by an earlier state in turn.
    4. A budget stop ends the whole search, and the result is not proven.

    A vector is one int: x in the top ``W``-bit field above the tail counts,
    which ``rec`` carries packed as ``tails``.  Every value is at most
    ``2**(k - 2)`` (x at most doubles per vertex), so the top bit of each
    field stays clear.  With ``g`` the top bits of the fields in use,
    ``a <= b`` componentwise iff ``((b | g) - a) & g == g``: no field
    borrows from the next, and a field keeps its top bit iff it did not
    underflow.  Fields never carry either, so ``a <= b`` componentwise
    implies ``a <= b`` as ints.  Each key's list is kept ascending.  With
    ``i = bisect_left(kept, vec)``, a dominator of ``vec`` is no smaller
    than ``vec`` and lies in ``kept[i:]``; when there is none, a vector
    ``vec`` dominates is smaller and lies in ``kept[:i]``.  So the scan
    reads only ``kept[i:]`` and the purge only ``kept[:i]``.  The purge
    walks ``kept[:i]`` downward in place, deletes each vector ``vec``
    dominates and lowers ``i`` for each, then inserts ``vec`` at ``i``:
    what is left below ``i`` is smaller than ``vec`` and what lies from
    ``i`` on is larger, so the list stays ascending.  No vector left
    dominates ``vec`` (the scan found none) and ``vec`` dominates none left,
    so the list stays an antichain.  The loop reads the same vectors as a
    filter over ``kept[:i]`` would, but builds no list per insertion, and
    most lists are short: at k <= 22 the median length at an insertion is
    3.
    """
    if k > 255:
        raise ValueError(f"the structure key holds pos and len(opens) in 8 bits: k={k} > 255")
    INF = k + 2
    partner = [0] * (k + 1)
    partner[1] = INF  # vertex 1 is forced outgoing: its slots are path+path+out
    opens: list[tuple[int, int]] = [(0, 1), (1, 1)]
    # the bounds of a child at pos + 1, at suffix_f[pos - 1] for r = k - pos:
    # the tail-aware bound as (p(r-1), F(r) - p(r-1), p(r), F(r) - p(r)), the
    # incoming and outgoing lookahead pairs, then an incoming child's
    # min(q, D) and max(0, D - q) for the open-count bound
    fs = _full_ladder(k, ftable)
    caps = _path_caps(fs, k)
    suffix_f = []
    for r in range(k - 1, 1, -1):
        fr, pin, pout = fs[r], caps[r - 1], caps[r]
        q, din = _arc_cap(r, caps), fr - pin
        look = _lookahead(r, fs, caps)
        suffix_f.append((pin, din, pout, fr - pout, *look, min(q, din), max(0, din - q)))
    # without a budget: more nodes than the tree can have (at most k + 1
    # children per node, fewer than k levels), so the one test never fires
    limit = budget if budget is not None else (k + 2) ** k

    best_f = floor
    leaf_f = 0
    leaf_arcs: tuple[Edge, ...] | None = None
    nodes = dominance_cuts = ladder_cuts = lookahead_cuts = open_count_cuts = 0
    trail: list[tuple[int, int]] = []
    W = k
    guards = [0]  # guards[n]: the top bits of n fields
    for i in range(k):
        guards.append(guards[-1] | 1 << (i * W + W - 1))
    # structure key -> the packed vectors stored under it, ascending, none
    # dominating another; states from position ``keyed`` on are looked up
    stored: dict[int, list[int]] = {}
    keyed = 2 if dominance else k

    def rec(pos: int, x: int, mask: int, tails: int) -> None:
        nonlocal best_f, leaf_f, leaf_arcs, nodes
        nonlocal dominance_cuts, ladder_cuts, lookahead_cuts, open_count_cuts
        top = len(opens)
        if pos >= keyed:
            # dominance: cut this state if a finished one of its structure
            # is componentwise at least as good
            vec = tails | x << W * (top - 1)
            key = mask << 16 | top << 8 | pos
            kept = stored.get(key)
            if kept is None:
                stored[key] = [vec]
            else:
                g = guards[top]
                # a dominator is numerically no smaller, a dominated one smaller
                i = bisect_left(kept, vec)
                for old in kept[i:]:
                    if ((old | g) - vec) & g == g:
                        dominance_cuts += 1
                        return
                # drop what vec dominates, in place, and insert vec where
                # they were: the list stays ascending
                gv = vec | g
                for j in range(i - 1, -1, -1):
                    if (gv - kept[j]) & g == g:
                        del kept[j]
                        i -= 1
                kept.insert(i, vec)
        nxt = pos + 1
        if nxt == k:
            # final vertex: forced incoming; evaluate every usable source
            nodes += 1
            if nodes > limit:
                raise _BudgetSpent
            for idx, (p, v) in enumerate(opens):
                # closing the top tail with bit 1 set closes an interval
                if x + v > leaf_f and (idx < top - 1 or not mask & 2):
                    partner[nxt] = p
                    partner[p] = nxt
                    leaf_f = x + v
                    leaf_arcs = _placement_arcs(k, partner)
                    partner[p] = INF
                    if leaf_f > best_f:
                        best_f = leaf_f
                        trail.append((nodes, leaf_f))
            return

        fin, din, fout, dout, look_in, look_out, qin, ein = suffix_f[pos - 1]
        c = opens[-1][1]  # the largest open count
        cin, cout = c * din, c * dout
        # incoming children in decreasing count order, dummy last: opens read
        # from the end, skipping the tail placed at pos (it cannot close at nxt)
        idx = top - 1
        if opens[idx][0] == pos:
            idx -= 1
        while idx >= 0:
            p, v = opens[idx]
            nx = x + v
            ub = nx * fin + cin
            ahead = False  # cut by the lookahead pairs alone
            if ub > best_f:
                d = nx - c
                for a, g in look_in:
                    if a * d + g * c > best_f:
                        break
                else:
                    ahead = True
            if ub <= best_f or ahead:
                # every later sibling has a count and bounds no larger: cut
                # this child and all idx after it, one node each
                cut = idx + 1
                if nodes + cut > limit:  # a budget stop still ends at limit + 1
                    cut = limit - nodes + 1
                nodes += cut
                ladder_cuts += cut
                if ahead:
                    lookahead_cuts += cut
                if nodes > limit:
                    raise _BudgetSpent
                break
            nodes += 1
            if nodes > limit:
                raise _BudgetSpent
            if p and idx == top - 1 and mask & 2:  # it closes an interval
                idx -= 1
                continue
            # the open-count bounds, from the tails this child leaves open;
            # they may cut this child alone, so they come last
            over = False
            if p and idx == top - 1:  # it closes the top tail
                w, w2 = opens[-2][1], opens[-3][1] if top > 2 else 1
                over = ub - (c - w) * qin - (c - w2) * ein <= best_f
                if not over and w < c:
                    # the lookahead pairs at the next tail's count
                    d = nx - w
                    for a, g in look_in:
                        if a * d + g * w > best_f:
                            break
                    else:
                        over = True
            elif ein:  # the top tail stays open; the next may close
                if p and idx == top - 2:
                    w2 = opens[-3][1]
                else:
                    w2 = opens[-2][1] if top > 1 else 1
                over = ub - (c - w2) * ein <= best_f
            if over:
                ladder_cuts += 1
                open_count_cuts += 1
                idx -= 1
                continue
            partner[nxt] = p
            partner[p] = nxt
            if p == 0:
                rec(nxt, nx, 0, tails)  # nxt's partner 0 lies below every start
            else:
                # closing the j-th tail from the top clears the groups above
                # it and merges the two groups around it into the lower one
                j = top - idx
                lo = (1 << W * (idx - 1)) - 1  # the fields below the tail's
                del opens[idx]
                rec(nxt, nx, (mask >> j) << (j - 1), tails & lo | tails >> W & ~lo)
                opens.insert(idx, (p, v))
            partner[p] = INF
            idx -= 1
        # outgoing
        nodes += 1
        if nodes > limit:
            raise _BudgetSpent
        ub = x * fout + cout
        ahead = False
        if ub > best_f:
            d = x - c
            for a, g in look_out:
                if a * d + g * c > best_f:
                    break
            else:
                ahead = True
        if ub > best_f and not ahead:
            partner[nxt] = INF
            opens.append((nxt, x))
            # a new tail at nxt leaves the top group empty; the start nxt
            # holds no closed vertex, so the group holding it is set
            rec(nxt, x, ((mask >> 1) << 2) | 2, tails | x << W * (top - 1))
            opens.pop()
        else:
            ladder_cuts += 1
            lookahead_cuts += ahead

    try:
        rec(1, 1, 2, 1)
        completed = True
    except _BudgetSpent:
        completed = False
    cuts = (dominance_cuts, ladder_cuts, lookahead_cuts, open_count_cuts)
    return leaf_f, leaf_arcs, nodes, completed, cuts, tuple(trail)


class BudgetTooSmallError(ValueError):
    """The node budget ran out before the search reached any feasible assignment."""


def solve_rung(k: int, ladder: Mapping[int, int], budget: int | None = None) -> BlockSolution:
    """Exact maximum of x_k, given proven optima ``ladder[r]`` of smaller blocks.

    Each ladder value bounds the suffixes of its length; a size missing from
    the ladder is bounded by a rung cap (see the module docstring), which
    costs nodes but never correctness.  A proven result is proven relative to
    the ladder's values; a proven f above k 2^floor(k/2), the first rung cap,
    raises ``RuntimeError``.  The returned assignment re-checks against every
    constraint from scratch.

    The search starts from the aspiration floor of the ladder (see the module
    docstring).  A completed search proves f <= floor when no leaf beats the
    floor, so a leaf worth the floor is the maximum.  When every leaf is
    below the floor, it runs once more from floor 0 with a fresh dominance
    store.  Nodes, cuts and the budget count both runs.  A budget that stops
    the search before a leaf beats the floor leaves the best leaf at or below
    it as the unproven result.  ``incumbents`` lists each leaf that raised
    the incumbent as (nodes so far, value), the nodes of both runs counted;
    a leaf worth exactly the floor raises nothing.
    """
    if k < 2:
        raise ValueError("blocks need k >= 2")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be non-negative, not {budget}")
    floor = _aspiration_floor(k, ladder)
    f, arcs, nodes, completed, cuts, trail = _solve(k, budget, ladder, floor)
    runs = 1
    if completed and f < floor:
        # the cuts made against the floor do not hold below it
        rest = None if budget is None else budget - nodes
        f2, arcs2, nodes2, completed, cuts2, trail2 = _solve(k, rest, ladder)
        runs = 2
        # no leaf raised the floor in the first run
        trail = tuple((nodes + m, value) for m, value in trail2)
        nodes += nodes2
        cuts = tuple(a + b for a, b in zip(cuts, cuts2))
        if completed or f2 > f:
            f, arcs = f2, arcs2
    if arcs is None:
        raise BudgetTooSmallError(
            f"budget {budget} too small to reach any feasible assignment for k={k}"
        )
    if completed and f > _doubling_cap(k):
        raise RuntimeError(f"the rung cap {_doubling_cap(k)} fell below the optimum f({k}) = {f}")
    return _finish(k, f, arcs, nodes, completed, cuts, floor, runs, trail)


def solve_block(k: int, budget: int | None = None) -> BlockSolution:
    """Exact maximum of x_k, branch-and-bound with the ladder bound.

    A pure function of ``(k, budget)``: the ladder is the proven
    ``solve_block(r, budget).f`` of every r < k, so an exhausted budget can
    never corrupt a result (an unproven rung is left out, and a rung cap
    bounds its suffixes).  Results are memoized per ``(k, budget)``, so the
    smaller blocks are solved once per budget, whatever the call order.
    The memo stays because callers walk the ladder: solving k=2..22 in
    ascending order in one process takes 32,532 nodes with it and 114,827
    without it, since each call would re-solve every rung below k (0.034 s
    against 0.135 s, medians of 5 runs, Python 3.11.7, 2 CPUs).
    A budget too small for some rung raises ``BudgetTooSmallError`` naming k.
    """
    try:
        return _solve_block(k, budget)
    except BudgetTooSmallError as exc:
        # The rung that ran out is in exc; going on up the ladder instead
        # would re-solve every failing rung, since the cache keeps no errors.
        raise BudgetTooSmallError(
            f"budget {budget} too small to reach any feasible assignment for k={k}"
        ) from exc


@functools.cache
def _solve_block(k: int, budget: int | None) -> BlockSolution:
    # called positionally only, so each (k, budget) is a single cache entry
    ladder = {}
    for r in range(2, k):
        rung = _solve_block(r, budget)
        if rung.proven_optimal:
            ladder[r] = rung.f
    return solve_rung(k, ladder, budget)


def _finish(k, f, arcs, nodes, proven, cuts=(0, 0, 0, 0), floor=0, runs=1, trail=()) -> BlockSolution:
    """Re-check the witness from scratch; raise if it is infeasible or off."""
    issues = check_assignment(k, arcs)
    if issues:
        raise RuntimeError(f"witness for k={k} is infeasible: {'; '.join(issues)}")
    if recompute_counts(k, arcs) != f:
        raise RuntimeError(f"witness for k={k} does not reproduce its count {f}")
    return BlockSolution(k, f, arcs, proven, nodes, *cuts, floor, runs, trail)


def table_row(sol: BlockSolution) -> dict:
    """The stored form of a solved block; the one place a row's fields are named."""
    return {
        "f": sol.f,
        "g2": reported_g2(sol.f, sol.k),
        "proven": sol.proven_optimal,
        "nodes": sol.nodes_explored,
        "dominance_cuts": sol.dominance_cuts,
        "ladder_cuts": sol.ladder_cuts,
        "floor": sol.floor,
        "runs": sol.runs,
        "assignment": [list(arc) for arc in sol.assignment],
    }


def load_table(path) -> dict[int, dict]:
    """The rows of a stored block table (JSON keyed by k), keyed by int k.

    Each row is audited from scratch, also under ``python -O``: its key is
    an integer k >= 2, it holds every field of ``table_row`` (and may hold
    ``seconds`` and ``solver``, which name the run that made it) with a bool
    ``proven``, non-negative integer counters and ``floor``, ``runs`` 1 or
    2 and an ``assignment`` of [i, j] integer pairs, its witness
    passes ``check_assignment`` and reproduces the integer f, and g2 is f's.  A bad row
    raises ``ValueError`` naming k, a file that is not a JSON object keyed
    by k one naming the file.  The 61 rows k=2..62 audit in about 0.03 s
    (Python 3.11, 2 CPUs); solving rows k=2..40 takes about 4.4 s, rows
    k=41..56 about 2.0 min more and rows k=57..62 about 4.5 min more.
    """
    with open(path) as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"block table {path}: not JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ValueError(f"block table {path}: not a JSON object keyed by k")
    fields = table_row(BlockSolution(2, 2, (), True, 0, 0, 0, 0, 0, 0, 1))  # any solution names them
    rows = {}
    for key, row in document.items():
        if not (key.isdecimal() and str(int(key)) == key):
            raise ValueError(f"block table {path}: key {key!r} is not a block size k")
        k = int(key)
        if k < 2:
            raise ValueError(f"block table row k={k}: blocks need k >= 2")
        if not isinstance(row, dict):
            raise ValueError(f"block table row k={k}: not a JSON object")
        missing = [name for name in fields if name not in row]
        if missing:
            raise ValueError(f"block table row k={k}: lacks {', '.join(missing)}")
        unknown = sorted(set(row) - set(fields) - {"seconds", "solver"})  # the run that made it
        if unknown:
            raise ValueError(f"block table row k={k}: has unknown {', '.join(unknown)}")
        if not isinstance(row["proven"], bool):
            raise ValueError(f"block table row k={k}: proven is not true or false")
        for name in ("nodes", "dominance_cuts", "ladder_cuts", "floor"):
            if type(row[name]) is not int or row[name] < 0:
                raise ValueError(f"block table row k={k}: {name} is not a non-negative integer")
        if type(row["runs"]) is not int or row["runs"] not in (1, 2):
            raise ValueError(f"block table row k={k}: runs is not 1 or 2")
        arcs = row["assignment"]
        pairs = isinstance(arcs, list) and all(
            isinstance(arc, list) and len(arc) == 2 and all(type(v) is int for v in arc)
            for arc in arcs
        )
        if not pairs:
            raise ValueError(f"block table row k={k}: assignment is not a list of [i, j] pairs")
        witness = tuple(tuple(arc) for arc in arcs)
        issues = check_assignment(k, witness)
        if issues:
            raise ValueError(f"block table row k={k}: witness is infeasible: {issues[0]}")
        if type(row["f"]) is not int or recompute_counts(k, witness) != row["f"]:
            raise ValueError(f"block table row k={k}: witness does not reproduce f={row['f']}")
        if row["g2"] != reported_g2(row["f"], k):
            raise ValueError(f"block table row k={k}: g2={row['g2']} is not f's")
        rows[k] = row
    return rows


def save_table(path, rows: Mapping[int, dict]) -> None:
    """Write ``rows`` keyed by int k as ``load_table`` reads them, byte for byte.

    Keys are ``str(k)`` in order of k, indented by one; the parent directory
    is created if missing.  The text goes to a temporary file beside
    ``path`` that then replaces it, so a write that fails part way leaves
    the old table whole and no temporary file.  From an empty table,
    solving and saving row by row takes about 0.8 s to k=32, 4.4 s to
    k=40, 2.0 min to k=56 and 6.5 min to k=62 (Python 3.11, 2 CPUs).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps({str(k): row for k, row in sorted(rows.items())}, indent=1) + "\n"
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def brute_block(k: int) -> BlockSolution:
    """Independent oracle: plain exhaustive enumeration, k <= 14 only."""
    if not 2 <= k <= BRUTE_LIMIT:
        raise ValueError(f"brute_block handles 2 <= k <= {BRUTE_LIMIT}")
    INF = k + 2
    partner = [0] * (k + 1)
    partner[1] = INF
    opens: list[tuple[int, int]] = [(1, 1)]
    best = [-1, None, 0]  # f, arcs, leaves

    def feasible_end(j: int) -> bool:
        mn = mx = partner[j]
        for i in range(j - 1, 0, -1):
            p = partner[i]
            mn = min(mn, p)
            mx = max(mx, p)
            if mx > j or mn < 1:
                return True
            if mn >= i:
                return False
        return True

    def rec(pos: int, x: int) -> None:
        if pos == k:
            best[2] += 1
            if x > best[0]:
                best[0] = x
                best[1] = _placement_arcs(k, partner)
            return
        nxt = pos + 1
        if nxt < k:
            partner[nxt] = INF
            opens.append((nxt, x))
            rec(nxt, x)
            opens.pop()
        partner[nxt] = 0
        rec(nxt, x + 1)
        for idx in range(len(opens)):
            p, v = opens[idx]
            if p > nxt - 2:
                continue
            partner[nxt] = p
            partner[p] = nxt
            if feasible_end(nxt):
                del opens[idx]
                rec(nxt, x + v)
                opens.insert(idx, (p, v))
            partner[p] = INF
        partner[nxt] = 0

    rec(1, 1)
    f, arcs, leaves = best
    return _finish(k, f, arcs, leaves, True)


def check_window(k_lo: int, k_hi: int) -> None:
    """Reject a window of block sizes that ``assemble_bound`` cannot take."""
    if k_hi < k_lo + 5:
        raise ValueError("window must cover at least 6 consecutive block sizes")
    if k_lo < 2:
        raise ValueError(f"blocks need k >= 2, not k={k_lo}")


def assemble_bound(k_lo: int, k_hi: int, table: Mapping[int, Mapping]) -> GrowthReport:
    """Growth table over a window of block sizes plus the assembled bound.

    Pure arithmetic over ``table``, rows keyed by k that hold ``f`` and
    ``proven`` as ``load_table`` and ``table_row`` give them; it never
    solves, and a window size with no row is a ``ValueError``.  The window
    must span at least six consecutive sizes: block boundaries land on a
    '10' kind pattern, which three-in-a-row exclusion guarantees within five
    extra steps.  The final block constant is the largest f below the
    window, known only when every size 2..k_lo-1 has a proven row.

    The stored table's rows k=41..62 extend the paper, which stops at 40:
    windows above 40 (51..56 gives 1.663151, 57..62 gives 1.659372) rest on
    this block model, the dominance proof and the six-wide window, not on
    the paper's table.
    """
    check_window(k_lo, k_hi)
    for k in range(k_lo, k_hi + 1):
        if k not in table:
            raise ValueError(f"no block table row for k={k}")
    rows = tuple(
        GrowthRow(k, table[k]["f"], growth_factor(table[k]["f"], k), table[k]["proven"])
        for k in range(k_lo, k_hi + 1)
    )
    bound_base = max(r.g2 for r in rows)
    below = [table.get(k) for k in range(2, k_lo)]
    known = below and all(row is not None and row["proven"] for row in below)
    return GrowthReport(
        rows=rows,
        argmax_k=min(r.k for r in rows if r.g2 == bound_base),
        bound_base=bound_base,
        final_block_constant=max(row["f"] for row in below) if known else None,
        rigorous=all(r.proven for r in rows),
    )
