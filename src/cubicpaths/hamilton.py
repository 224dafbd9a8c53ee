"""Rewrites a 3-regular acyclic digraph onto a directed Hamiltonian path.

The pipeline renumbers the graph so path counts are weakly increasing
(``tree_sort``), then applies two families of degree-preserving edge swaps:
outgoing moves hook each outdegree-2 vertex to its predecessor without
changing any count, and incoming moves do the same for indegree-2 vertices
while only ever increasing counts.  The result has every consecutive edge
(i, i+1), the same vertex kinds, and inherits simplicity and 2-/3-edge
connectivity from the input.

Moves are order-dependent.  Incoming moves run from the sink down: a move at
v shifts mu(q) - mu(l2) >= 0 paths from a later vertex u onto v, and that is
only made good if v reaches u, which the consecutive edges (w-1, w) for
w > v guarantee once every later vertex has been hooked.  A single rewrite
therefore runs sequentially, its moves editing one adjacency in place.
Distinct graphs can be processed concurrently without restriction.

The public one-move functions (``outgoing_move``, ``incoming_move``) check
every precondition in full on a fresh graph.  ``hamiltonize`` shares
their local checks but checks each global precondition once per phase, and
after a move recounts the swap's two heads, and the vertices from the lower
one up only if a head's count changed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dag import (
    Dag,
    DegreeProfile,
    adjacency,
    count_paths,
    degree_vectors,
    is_on_ham_path,
    require_cubic,
    require_valid,
)

Edge = tuple[int, int]
Swap = tuple[tuple[Edge, Edge], tuple[Edge, Edge]]  # (removed pair, added pair)
Adj = list[list[int]]  # 1-based neighbour lists with multiplicity, as from ``adjacency``


class MoveError(ValueError):
    """A local move's precondition failed."""


class RewriteError(RuntimeError):
    """``hamiltonize`` broke one of its guarantees (a bug, not bad input)."""


@dataclass(frozen=True)
class Move:
    kind: str  # "outgoing" or "incoming"
    focus: int
    removed: tuple[Edge, Edge]
    added: tuple[Edge, Edge]
    mu_before: tuple[int, ...]
    mu_after: tuple[int, ...]


MoveLog = tuple[Move, ...]


def tree_sort_order(dag: Dag) -> tuple[int, ...]:
    """New vertex order making path counts weakly increasing.

    A vertex with a unique in-edge joins the tree of that edge's tail, whose
    count it shares; the source and each vertex with two or more in-edges
    root their own trees.  The order lists each tree contiguously, root
    first and members in original order, with the trees stably sorted by
    count: one stable sort on mu(root) * (N+1) + root, by count then root
    (root <= N), keeps vertex order in a tree.  A tail lies in its head's tree
    or in one of smaller count, so every edge still goes forward.
    The edges are sorted by tail, so in one pass over them root[u] is final
    before the first edge out of u is read.
    """
    require_cubic(dag)
    n = dag.vertex_count
    indeg, _ = degree_vectors(n, dag.edges)
    mu = (0, *count_paths(dag).mu)
    root = list(range(n + 1))
    for u, v in dag.edges:
        if indeg[v] == 1:
            root[v] = root[u]
    key = [mu[r] * (n + 1) + r for r in root]
    return tuple(sorted(range(1, n + 1), key=key.__getitem__))


def renumber(dag: Dag, order: tuple[int, ...]) -> Dag:
    """Apply a new vertex order (position in `order` = new number).

    Raises ``ValueError`` unless ``order`` is a permutation of 1..N.
    """
    n = dag.vertex_count
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}, got {tuple(order)}")
    pos = sorted(range(n + 1), key=(0, *order).__getitem__)  # the inverse: pos[old] = new
    return Dag(n, [(pos[u], pos[v]) for u, v in dag.edges], dag.profile)


def tree_sort(dag: Dag) -> Dag:
    out = renumber(dag, tree_sort_order(dag))
    require_valid(out)  # the reorder must keep every edge forward
    return out


def _apply_swap(outs: Adj, ins: Adj, swap: Swap) -> None:
    """Edit the neighbour lists in place; every degree stays the same."""
    removed, added = swap
    for u, v in removed:
        outs[u].remove(v)
        ins[v].remove(u)
    for u, v in added:
        outs[u].append(v)
        ins[v].append(u)


def _to_dag(outs: Adj, profile: DegreeProfile | None) -> Dag:
    return Dag(len(outs) - 1, [(u, v) for u in range(1, len(outs)) for v in outs[u]], profile)


def _outgoing_swap(outs: Adj, ins: Adj, b: int) -> Swap:
    if b < 3 or b > len(outs) - 1:
        raise MoveError(f"vertex {b} has no movable predecessor")
    if len(outs[b]) != 2:
        raise MoveError(f"vertex {b} is not outdegree-2")
    p = b - 1
    if b in outs[p]:
        raise MoveError(f"vertex {b} already follows {p}")
    if len(outs[p]) != 2:
        raise MoveError(f"predecessor {p} is not outdegree-2")
    if len(ins[b]) != 1:
        raise MoveError(f"vertex {b} must have a unique in-edge")
    (ell,) = ins[b]
    u1 = min(outs[p])
    return ((p, u1), (ell, b)), ((ell, u1), (p, b))


def outgoing_move(dag: Dag, b: int) -> Dag:
    """Hook outdegree-2 vertex b to its predecessor p = b-1.

    Deletes p's earlier out-edge (p, u1) and b's unique in-edge (l, b), and
    adds (l, u1) and (p, b).  On a tree-sorted graph the stretch [l, b] sits
    inside one tree, so every path count is unchanged.
    """
    require_cubic(dag)
    outs, ins = adjacency(dag)
    _apply_swap(outs, ins, _outgoing_swap(outs, ins, b))
    return _to_dag(outs, dag.profile)


def _require_hooked(outs: Adj, v: int) -> None:
    """The global preconditions of an incoming move at v, by full scans."""
    n = len(outs) - 1
    for w in range(3, n + 1):
        if len(outs[w]) == 2 and w not in outs[w - 1]:
            raise MoveError(f"outdegree-2 vertex {w} does not follow its predecessor yet")
    if v < 3 or v > n:
        raise MoveError(f"vertex {v} has no movable predecessor")
    for w in range(v + 1, n + 1):
        if w not in outs[w - 1]:
            raise MoveError(f"later vertex {w} does not follow its predecessor yet")


def _incoming_swap(outs: Adj, ins: Adj, v: int) -> Swap:
    """The swap of an incoming move at v, given ``_require_hooked(outs, v)``."""
    if len(ins[v]) != 2:
        raise MoveError(f"vertex {v} is not indegree-2")
    q = v - 1
    if q in ins[v]:
        raise MoveError(f"vertex {v} already follows {q}")
    l1, l2 = sorted(ins[v])
    if not l2 < q:
        raise MoveError(f"in-edges of {v} must come from before {q}")
    u = min(outs[q])
    return ((l2, v), (q, u)), ((l2, u), (q, v))


def incoming_move(dag: Dag, v: int) -> Dag:
    """Hook indegree-2 vertex v to its predecessor q = v-1.

    Requires every outdegree-2 vertex and every vertex after v to already
    follow its predecessor, and mu(l2) <= mu(q) (true on a tree-sorted graph,
    whose counts below v no later move touches).  Deletes v's later in-edge
    (l2, v) and q's earlier out-edge (q, u), u > v, and adds (l2, u) and
    (q, v).  With parallel in-edges (l1 = l2) one copy goes.

    v gains mu(q) - mu(l2) paths and u loses as many, but v reaches u along
    the consecutive edges, so every vertex gains through v at least what it
    loses through u: no count goes down.
    """
    require_cubic(dag)
    outs, ins = adjacency(dag)
    _require_hooked(outs, v)
    swap = _incoming_swap(outs, ins, v)
    (l2, _), (q, _) = swap[0]
    mu = count_paths(dag).mu
    if mu[l2 - 1] > mu[q - 1]:
        raise MoveError(f"mu({l2}) = {mu[l2 - 1]} exceeds mu({q}) = {mu[q - 1]}")
    _apply_swap(outs, ins, swap)
    return _to_dag(outs, dag.profile)


def hamiltonize(dag: Dag) -> tuple[Dag, MoveLog]:
    """Rewrite onto a Hamiltonian path, weakly increasing every path count.

    Tree-sorts once up front, then applies all outgoing moves in increasing
    vertex order followed by all incoming moves in decreasing vertex order,
    from the sink down.  Incoming moves need that order: a move at v only
    changes counts at vertices >= v, so the tree-sorted counts below v still
    give mu(l2) <= mu(q), and every later vertex already follows its
    predecessor, so v reaches the vertex u that loses paths to it.

    No move removes a path edge (w-1, w): an outgoing move at b removes
    (l, b) with l < b-1 and (p, u1) with u1 > b, an incoming move at v
    removes (l2, v) with l2 < v-1 and (q, u) with u > v.  So the incoming
    moves' global preconditions are checked once each, not rescanned per
    move: every outdegree-2 vertex follows its predecessor after the
    outgoing phase, and v+1 follows v when the incoming phase reaches v (the
    path edges above v+1 were checked at earlier steps).

    After each move the counts are recounted from the live in-lists.  A swap
    keeps every in-degree, so only its two heads' in-lists change, and as
    edges go forward the lowest count to change is a head's.  If neither
    head's count changes (the lower head reads only unchanged counts, and if
    its count holds the higher one does too), no count does, and the move logs
    the same ``mu`` before and after, as every outgoing move on a tree-sorted
    graph does.  Otherwise each vertex from the lower head to the sink is
    recounted in order, from in-neighbours below that head or already
    recounted, so each is exact.

    Raises ``RewriteError`` if a phase precondition fails, any logged move
    lowers a count (so the output would not dominate the tree-sorted input)
    or the output is not on a Hamiltonian path.  The checks are explicit and
    also run under ``-O``.
    """
    start = tree_sort(dag)  # checks that dag is valid and 3-regular
    n = start.vertex_count
    outs, ins = adjacency(start)  # every move keeps every degree
    mu = count_paths(start).mu
    counts = [0, *mu]  # 1-based, kept equal to mu
    at = counts.__getitem__
    log: list[Move] = []

    def apply(kind: str, focus: int, swap: Swap) -> None:
        nonlocal mu
        _apply_swap(outs, ins, swap)
        (_, a), (_, b) = swap[0]  # the added edges enter the same heads
        changed = lowered = False
        if sum(map(at, ins[a])) != counts[a] or sum(map(at, ins[b])) != counts[b]:
            for v in range(min(a, b), n + 1):
                i = ins[v]
                if len(i) == 2:
                    count = counts[i[0]] + counts[i[1]]
                elif len(i) == 1:
                    count = counts[i[0]]
                else:  # the sink
                    count = sum(map(at, i))
                if count != counts[v]:
                    changed = True
                    lowered = lowered or count < counts[v]
                    counts[v] = count
        after = tuple(counts[1:]) if changed else mu
        move = Move(kind, focus, swap[0], swap[1], mu, after)
        if lowered:
            raise RewriteError(f"{kind} move at {focus} lowered a path count: {move}")
        log.append(move)
        mu = after

    for b in range(3, n + 1):
        if len(outs[b]) == 2 and b not in outs[b - 1]:
            apply("outgoing", b, _outgoing_swap(outs, ins, b))
    for w in range(3, n + 1):
        if len(outs[w]) == 2 and w not in outs[w - 1]:
            raise RewriteError(f"outdegree-2 vertex {w} is unhooked after the outgoing moves")
    for v in range(n, 2, -1):
        if v < n and v + 1 not in outs[v]:
            raise RewriteError(f"vertex {v + 1} does not follow {v} at incoming step {v}")
        if len(ins[v]) == 2 and v - 1 not in ins[v]:
            apply("incoming", v, _incoming_swap(outs, ins, v))

    out = _to_dag(outs, start.profile)
    if not is_on_ham_path(out):
        raise RewriteError(f"rewrite did not end on a Hamiltonian path: {out.edges}")
    return out, tuple(log)
