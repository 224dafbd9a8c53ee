"""The single-pass graph functions against their earlier formulations.

``tree_sort_order``, ``renumber``, ``is_on_ham_path``, ``structural_3ec``,
``encode`` and ``decode`` read what they need off one pass over
``Dag.edges``, relying on its order (by tail, then head).  The references
below are the earlier formulations, built on neighbour lists, a path-edge
set or dict, key sorts and a per-endpoint shift; outputs and errors must be
equal.  ``_reference_violations`` (with ``_reference_profile_violations``)
is the validation verdict as it was before the range check moved into the
degree pass and the messages behind cheap checks: the (structural,
profile) pair must be equal, messages and their order included.
``_reference_hamiltonize`` recounts after each move by a dirty-flag walk
over the out-neighbours of each changed vertex, on the tuple-key tree sort;
output, move log and errors must be equal.
"""
import itertools
import random
import re
from bisect import bisect_left

from cubicpaths import (
    ArcTuple,
    Dag,
    DegreeProfile,
    InvalidDagError,
    RewriteError,
    TupleClass,
    count_paths,
    decode,
    encode,
    hamiltonize,
    is_on_ham_path,
    structural_3ec,
    tree_sort_order,
)
from cubicpaths import hamilton
from cubicpaths.dag import _violations, adjacency, require_cubic, require_valid
from cubicpaths.hamilton import Move, renumber
from cubicpaths.tuples import _boundary_layout, class_issues, is_simple_tuple

from conftest import boundary_tuples, merged_tuples, random_cubic


def _reference_on_ham_path(dag):
    require_valid(dag)
    present = set(dag.edges)
    return all((i, i + 1) in present for i in range(1, dag.vertex_count))


def _reference_profile_violations(profile, indeg, outdeg):
    n = len(indeg) - 1
    deg = [i + o for i, o in zip(indeg, outdeg)]
    if profile is DegreeProfile.THREE_REGULAR:
        return [f"vertex {v} has degree {deg[v]}, expected 3" for v in range(1, n + 1) if deg[v] != 3]
    out = [f"boundary vertex {v} has degree {deg[v]}, expected 2" for v in (1, n) if deg[v] != 2]
    out += [f"interior vertex {v} has degree {deg[v]}, expected 3" for v in range(2, n) if deg[v] != 3]
    return out


def _reference_violations(dag):
    """The verdict with a separate range pass and every message list built."""
    n = dag.vertex_count
    if n < 2:
        return (f"vertex count {n} < 2",), ()
    bad = [f"edge ({u}, {v}) violates 1 <= tail < head <= {n}" for u, v in dag.edges if not 1 <= u < v <= n]
    if bad:
        return tuple(bad), ()
    indeg = [0] * (n + 1)
    outdeg = [0] * (n + 1)
    for u, v in dag.edges:
        outdeg[u] += 1
        indeg[v] += 1
    bad = [f"vertex {v} has indegree 0 (source must be unique)" for v in range(2, n + 1) if indeg[v] == 0]
    bad += [f"vertex {v} has outdegree 0 (sink must be unique)" for v in range(1, n) if outdeg[v] == 0]
    if bad or dag.profile is None:
        return tuple(bad), ()
    return (), tuple(_reference_profile_violations(dag.profile, indeg, outdeg))


def _reference_tree_sort_order(dag):
    require_cubic(dag)
    n = dag.vertex_count
    _, ins = adjacency(dag)
    mu = (0, *count_paths(dag).mu)
    root = list(range(n + 1))
    for v in range(2, n + 1):
        if len(ins[v]) == 1:
            root[v] = root[ins[v][0]]
    return tuple(sorted(range(1, n + 1), key=lambda v: (mu[root[v]], root[v], v)))


def _reference_renumber(dag, order):
    pos = {old: new for new, old in enumerate(order, 1)}
    return Dag(dag.vertex_count, tuple((pos[u], pos[v]) for u, v in dag.edges), dag.profile)


def _reference_3ec(dag):
    """``structural_3ec`` with ``low`` and ``step`` read off neighbour lists."""
    require_cubic(dag)
    if not _reference_on_ham_path(dag):
        raise InvalidDagError(("structural_3ec requires a Hamiltonian path",))
    n = dag.vertex_count
    outs, ins = adjacency(dag)
    balance = 0
    for k in range(1, n + 1):
        if len(ins[k]) == 2:
            balance += 1
        elif len(outs[k]) == 2:
            balance -= 1
        if balance > 0:
            return False, ("initial-segment", k)
    low = [min(ins[v], default=0) for v in range(n + 1)]
    step = [len(outs[v]) - len(ins[v]) for v in range(n + 1)]
    for i in range(2, n):
        crossing = 3
        for j in range(i + 1, n):
            if low[j] < i:
                break
            crossing += step[j]
            if crossing == 2:
                return False, ("interval", i, j)
    return True, None


def _reference_encode(dag):
    """``encode`` with a path-edge dict and a (tail, -value, head) label sort."""
    require_valid(dag, with_profile=True)
    if not _reference_on_ham_path(dag):
        raise InvalidDagError(("encode requires a Hamiltonian path",))
    path_left = {(i, i + 1): 1 for i in range(1, dag.vertex_count)}
    arcs = []
    for e in dag.edges:
        if path_left.get(e, 0) > 0:
            path_left[e] -= 1
        else:
            arcs.append(e)
    tails = sorted(u for u, _ in arcs)

    def rho(head):
        return bisect_left(tails, head)

    labelled = sorted(arcs, key=lambda e: (e[0], -rho(e[1]), e[1]))
    merged = dag.profile is DegreeProfile.THREE_REGULAR
    t = ArcTuple(tuple(rho(v) for _, v in labelled), TupleClass.MERGED if merged else TupleClass.BOUNDARY)
    issues = class_issues(t)
    if issues:
        raise InvalidDagError(tuple(f"encoded tuple invalid: {s}" for s in issues))
    return t


def _reference_decode(t):
    """``decode`` that builds the boundary graph and shifts every endpoint."""
    n = len(t.values)
    tail_pos, head_pos = _boundary_layout(t.values)
    edges = [(p, p + 1) for p in range(1, 2 * n)]
    edges += [(tail_pos[i], head_pos[i]) for i in range(1, n + 1)]
    if t.klass is TupleClass.BOUNDARY:
        return Dag(2 * n, tuple(edges), DegreeProfile.BOUNDARY_DEG2)

    def shift(p):
        return 1 if p <= 2 else 2 * n - 2 if p >= 2 * n - 1 else p - 1

    merged = [(shift(u), shift(v)) for u, v in edges if (u, v) not in ((1, 2), (2 * n - 1, 2 * n))]
    return Dag(2 * n - 2, tuple(merged), DegreeProfile.THREE_REGULAR)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidDagError as exc:
        return ("raises", exc.violations)


def test_codec_tree_sort_and_3ec_match_the_references_on_every_small_tuple():
    tuples = [t for length in range(1, 8) for t in boundary_tuples(length)]
    tuples += [t for length in range(2, 8) for t in merged_tuples(length)]
    assert len(tuples) == 5913 + 2520
    assert sum(not is_simple_tuple(t) for t in tuples) == 5591  # parallel edges included
    for t in tuples:
        g = decode(t)
        assert g == _reference_decode(t), t
        assert encode(g) == _reference_encode(g) == t
        assert is_on_ham_path(g)
        if t.klass is TupleClass.MERGED:
            assert tree_sort_order(g) == _reference_tree_sort_order(g), t
            assert structural_3ec(g) == _reference_3ec(g), t


def test_is_on_ham_path_matches_the_reference_on_every_small_simple_graph():
    verdicts = []
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = Dag(n, tuple(e for k, e in enumerate(pairs) if mask >> k & 1))
            verdict = _outcome(is_on_ham_path, g)
            assert verdict == _outcome(_reference_on_ham_path, g), g.edges
            verdicts.append(verdict)
    assert len(verdicts) == 1098
    assert verdicts.count(True) == 1 + 2 + 8 + 64 and verdicts.count(False) > 0


def test_one_pass_functions_match_the_references_on_random_graphs():
    rng = random.Random(2027)
    kinds = set()
    for _ in range(200):
        g = random_cubic(rng, 2 * rng.randint(8, 32))
        h, _ = hamiltonize(g)
        for x in (g, h, decode(encode(h))):
            order = tree_sort_order(x)
            assert order == _reference_tree_sort_order(x), x.edges
            shuffled = rng.sample(order, len(order))
            for o in (order, shuffled):
                assert renumber(x, o) == _reference_renumber(x, o)
            assert is_on_ham_path(x) == _reference_on_ham_path(x)
            assert _outcome(encode, x) == _outcome(_reference_encode, x), x.edges
            verdict = _outcome(structural_3ec, x)
            assert verdict == _outcome(_reference_3ec, x), x.edges
            kinds.add("raises" if verdict[0] == "raises" else None if verdict[1] is None else verdict[1][0])
    # off the path both raise; on it every kind of verdict occurs
    assert kinds == {"raises", None, "initial-segment", "interval"}


PROFILE_CLAIMS = (None, DegreeProfile.THREE_REGULAR, DegreeProfile.BOUNDARY_DEG2)


def _small_simple_graphs():
    """All 1,098 simple graphs on 2..5 vertices with edges (u, v), u < v."""
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            yield n, tuple(e for k, e in enumerate(pairs) if mask >> k & 1)


def _decoded_graphs(max_length):
    tuples = [t for length in range(1, max_length + 1) for t in boundary_tuples(length)]
    tuples += [t for length in range(2, max_length + 1) for t in merged_tuples(length)]
    return [decode(t) for t in tuples]


def _assert_verdicts_match(graphs):
    """Compare the verdicts; return the kinds of message that occurred."""
    kinds = set()
    for g in graphs:
        verdict = _violations(g)
        assert verdict == _reference_violations(g) == g._verdict, (g.vertex_count, g.edges, g.profile)
        for part, messages in zip(("structural", "profile"), verdict):
            kinds.update((part, m.split()[0]) for m in messages)
        kinds.add(verdict == ((), ()))
    return kinds


def test_verdict_matches_the_reference_on_every_small_simple_graph_and_claim():
    graphs = [Dag(n, edges, claim) for n, edges in _small_simple_graphs() for claim in PROFILE_CLAIMS]
    assert len(graphs) == 3 * 1098
    kinds = _assert_verdicts_match(graphs)
    # range faults cannot occur here; every other outcome does
    assert kinds == {
        True, False, ("structural", "vertex"), ("profile", "vertex"),
        ("profile", "boundary"), ("profile", "interior"),
    }


def test_verdict_matches_the_reference_on_every_decoded_tuple():
    decoded = _decoded_graphs(7)
    assert len(decoded) == 5913 + 2520
    graphs = [Dag(g.vertex_count, g.edges, claim) for g in decoded for claim in PROFILE_CLAIMS]
    assert _violations(decoded[0]) == ((), ())
    kinds = _assert_verdicts_match(decoded + graphs)
    # a graph of one class claimed as the other breaks the claim at its ends
    assert {True, False, ("profile", "vertex"), ("profile", "boundary")} <= kinds


def _planted(n, edges):
    """(fault, vertex count, edges): one planted fault of each kind."""
    (u0, v0), (u1, _) = edges[0], edges[-1]
    mid = list(edges)
    mid.remove((n // 2, n // 2 + 1))  # one copy of a path edge
    return [
        ("backward edge", n, ((v0, u0),) + edges[1:]),
        ("tail 0", n, ((0, v0),) + edges[1:]),
        ("head n+1", n, edges[:-1] + ((u1, n + 1),)),
        ("n < 2", 1, edges),
        ("second source", n, tuple(e for e in edges if e[1] != v0)),
        ("second sink", n, tuple(e for e in edges if e[0] != u1)),
        ("degree-2 interior", n, tuple(mid)),
        ("degree-3 boundary", n, edges + ((1, n),)),
    ]


def test_verdict_matches_the_reference_on_planted_faults():
    seen = {}
    for g in _decoded_graphs(6):
        for fault, n, edges in _planted(g.vertex_count, g.edges):
            graphs = [Dag(n, edges, claim) for claim in PROFILE_CLAIMS]
            seen.setdefault(fault, set()).update(_assert_verdicts_match(graphs))
    want = {
        "backward edge": ("structural", "edge"),
        "tail 0": ("structural", "edge"),
        "head n+1": ("structural", "edge"),
        "n < 2": ("structural", "vertex"),
        "second source": ("structural", "vertex"),
        "second sink": ("structural", "vertex"),
        "degree-2 interior": ("profile", "interior"),
        "degree-3 boundary": ("profile", "boundary"),
    }
    assert all(kind in seen[fault] for fault, kind in want.items()), seen
    # without a parallel copy, the cut path edge also strands a vertex
    assert ("structural", "vertex") in seen["degree-2 interior"]


def test_is_on_ham_path_matches_the_reference_on_multigraphs():
    verdicts = []
    for g in _decoded_graphs(6):
        n = g.vertex_count
        for i in range(1, n):
            path_edge = (i, i + 1)
            rest = list(g.edges)
            rest.remove(path_edge)  # one copy goes; a parallel copy stays
            for edges in (g.edges + (path_edge,), tuple(rest)):
                x = Dag(n, edges)
                verdict = _outcome(is_on_ham_path, x)
                assert verdict == _outcome(_reference_on_ham_path, x), x.edges
                verdicts.append(verdict)
    assert {True, False} <= set(verdicts)
    assert any(v[0] == "raises" for v in verdicts if isinstance(v, tuple))


def _reference_tree_sort(dag):
    out = renumber(dag, _reference_tree_sort_order(dag))
    require_valid(out)
    return out


def _reference_hamiltonize(dag, sort=_reference_tree_sort):
    """``hamiltonize`` with the dirty-flag recount: after a move, the heads and
    the out-neighbours of each vertex whose count changed, in vertex order.
    The swaps are read through ``hamilton``, so a patched one is used here too."""
    start = sort(dag)
    n = start.vertex_count
    outs, ins = adjacency(start)
    mu = count_paths(start).mu
    counts = [0, *mu]
    dirty = bytearray(n + 1)
    log = []

    def apply(kind, focus, swap):
        nonlocal mu
        hamilton._apply_swap(outs, ins, swap)
        heads = [v for pair in swap for _, v in pair]
        pending = 0
        for v in heads:
            if not dirty[v]:
                dirty[v] = 1
                pending += 1
        changed = lowered = False
        v = min(heads)
        while pending:
            if dirty[v]:
                dirty[v] = 0
                pending -= 1
                count = sum(map(counts.__getitem__, ins[v]))
                if count != counts[v]:
                    changed = True
                    lowered = lowered or count < counts[v]
                    counts[v] = count
                    for w in outs[v]:
                        if not dirty[w]:
                            dirty[w] = 1
                            pending += 1
            v += 1
        after = tuple(counts[1:]) if changed else mu
        move = Move(kind, focus, swap[0], swap[1], mu, after)
        if lowered:
            raise RewriteError(f"{kind} move at {focus} lowered a path count: {move}")
        log.append(move)
        mu = after

    for b in range(3, n + 1):
        if len(outs[b]) == 2 and b not in outs[b - 1]:
            apply("outgoing", b, hamilton._outgoing_swap(outs, ins, b))
    for w in range(3, n + 1):
        if len(outs[w]) == 2 and w not in outs[w - 1]:
            raise RewriteError(f"outdegree-2 vertex {w} is unhooked after the outgoing moves")
    for v in range(n, 2, -1):
        if v < n and v + 1 not in outs[v]:
            raise RewriteError(f"vertex {v + 1} does not follow {v} at incoming step {v}")
        if len(ins[v]) == 2 and v - 1 not in ins[v]:
            apply("incoming", v, hamilton._incoming_swap(outs, ins, v))

    out = hamilton._to_dag(outs, start.profile)
    if not is_on_ham_path(out):
        raise RewriteError(f"rewrite did not end on a Hamiltonian path: {out.edges}")
    return out, tuple(log)


def _rewrite_outcome(fn, *args):
    """(output, move log), or the type and message of the error raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:  # MoveError, RewriteError, InvalidDagError
        return type(exc), str(exc)


def _error_kind(outcome):
    """The error's type and message up to any colon, numbers masked; None if none."""
    if not isinstance(outcome[0], type):
        return None
    return outcome[0].__name__, re.sub(r"\d+", "#", outcome[1].split(":")[0])


def _skip_first(swap):
    """``swap`` with its first move made a no-op: the swap re-adds what it removes."""
    skipped = []

    def patched(outs, ins, v):
        removed, added = swap(outs, ins, v)
        if skipped:
            return removed, added
        skipped.append(v)
        return removed, removed

    return patched


def test_hamiltonize_matches_the_dirty_walk_reference(monkeypatch):
    graphs = [decode(t) for length in range(2, 8) for t in merged_tuples(length)]
    rng = random.Random(34)
    graphs += [random_cubic(rng, 2 * rng.randint(8, 32)) for _ in range(300)]
    assert len(graphs) == 2520 + 300
    moves = {"outgoing": 0, "incoming": 0}
    for g in graphs:
        outcome = _rewrite_outcome(hamiltonize, g)
        assert outcome == _rewrite_outcome(_reference_hamiltonize, g), g.edges
        for m in outcome[1]:
            moves[m.kind] += 1
    assert moves == {"outgoing": 1182, "incoming": 3861}
    # the fault injections of test_hamilton, on every graph: no tree sort,
    # and a no-op first swap in one phase; both sides fail alike or agree
    errors = set()
    for g in graphs:
        with monkeypatch.context() as patch:
            patch.setattr(hamilton, "tree_sort", lambda dag: dag)
            outcome = _rewrite_outcome(hamiltonize, g)
            assert outcome == _rewrite_outcome(_reference_hamiltonize, g, lambda dag: dag), g.edges
        errors.add(_error_kind(outcome))
        for name in ("_outgoing_swap", "_incoming_swap"):
            swap = getattr(hamilton, name)
            with monkeypatch.context() as patch:
                patch.setattr(hamilton, name, _skip_first(swap))
                outcome = _rewrite_outcome(hamiltonize, g)
                patch.setattr(hamilton, name, _skip_first(swap))
                assert outcome == _rewrite_outcome(_reference_hamiltonize, g), (name, g.edges)
            errors.add(_error_kind(outcome))
    # the lowering check, both phase checks and a failed local precondition
    assert errors == {
        None,
        ("RewriteError", "outgoing move at # lowered a path count"),
        ("RewriteError", "outdegree-# vertex # is unhooked after the outgoing moves"),
        ("RewriteError", "vertex # does not follow # at incoming step #"),
        ("MoveError", "predecessor # is not outdegree-#"),
    }
