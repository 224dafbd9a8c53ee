from __future__ import annotations

import random

import pytest

from cubicpaths import (
    ArcTuple,
    Dag,
    DegreeProfile,
    SearchSpec,
    TupleClass,
    decode,
    enumerate_tuples,
    is_valid,
)
from cubicpaths.tuples import canonicalize

PATH12 = tuple((i, i + 1) for i in range(1, 12))


@pytest.fixture
def truncated_tetrahedron() -> Dag:
    arcs = ((1, 3), (1, 12), (2, 8), (4, 6), (5, 11), (7, 9), (10, 12))
    return Dag(12, PATH12 + arcs, DegreeProfile.THREE_REGULAR)


@pytest.fixture
def wedge12() -> Dag:
    arcs = ((1, 3), (1, 12), (2, 5), (4, 7), (6, 9), (8, 11), (10, 12))
    return Dag(12, PATH12 + arcs, DegreeProfile.THREE_REGULAR)


@pytest.fixture
def six_vertex() -> Dag:
    edges = ((1, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6), (5, 6))
    return Dag(6, edges, DegreeProfile.THREE_REGULAR)


@pytest.fixture
def single_edge() -> Dag:
    return Dag(2, ((1, 2),))


def merged_tuples(length: int, connectivity: int = 1):
    """All canonical merged tuples of the given length (graphs on 2*length-2)."""
    spec = SearchSpec(length, TupleClass.MERGED, connectivity)
    return list(enumerate_tuples(spec))


def boundary_tuples(length: int, connectivity: int = 1):
    spec = SearchSpec(length, TupleClass.BOUNDARY, connectivity)
    return list(enumerate_tuples(spec))


def degrade(dag: Dag, rng: random.Random, swaps: int) -> Dag:
    """Random orientation-safe 2-opt swaps; preserves every degree."""
    edges = list(dag.edges)
    done = 0
    attempts = 0
    while done < swaps and attempts < 200:
        attempts += 1
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if a < d and c < b and {(a, d), (c, b)} != {(a, b), (c, d)}:
            edges[i], edges[j] = (a, d), (c, b)
            done += 1
    return Dag(dag.vertex_count, tuple(edges), dag.profile)


def random_topological_renumber(dag: Dag, rng: random.Random) -> Dag:
    """Random renumbering among those preserving every edge's direction."""
    n = dag.vertex_count
    indeg = [0] * (n + 1)
    outs: list[list[int]] = [[] for _ in range(n + 1)]
    seen = set()
    for u, v in dag.edges:
        if (u, v) in seen:
            continue
        seen.add((u, v))
        outs[u].append(v)
        indeg[v] += 1
    ready = [v for v in range(1, n + 1) if indeg[v] == 0]
    order = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for w in outs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    pos = {old: new for new, old in enumerate(order, 1)}
    return Dag(n, tuple((pos[u], pos[v]) for u, v in dag.edges), dag.profile)


def cubic_instances(max_vertices: int, rng_seed: int = 20240, degradations: int = 1):
    """Valid 3-regular graphs: merged decodes, reverses, scrambled variants.

    Per merged tuple: its decode, the reverse, a 2-swap degradation and a
    renumbered ``degradations``-swap one.  Criterion 05's fleet is
    ``cubic_instances(12, rng_seed=1812, degradations=3)``.
    """
    from cubicpaths import reverse

    rng = random.Random(rng_seed)
    out = []
    length = 2
    while 2 * length - 2 <= max_vertices:
        for t in merged_tuples(length):
            g = decode(t)
            out.append(g)
            out.append(reverse(g))
            out.append(degrade(g, rng, swaps=2))
            out.append(random_topological_renumber(degrade(g, rng, swaps=degradations), rng))
        length += 1
    return out


def random_cubic(rng: random.Random, vertices: int) -> Dag:
    """A random valid 3-regular graph on an even number of vertices.

    A random merged tuple is decoded, scrambled by 2-opt swaps and renumbered,
    so the Hamiltonian path is gone and ``hamiltonize`` has moves to make.
    """
    m = vertices // 2 + 1
    while True:
        t = canonicalize(ArcTuple([rng.randint(i, m) for i in range(1, m + 1)], TupleClass.MERGED))
        if is_valid(t):
            break
    return random_topological_renumber(degrade(decode(t), rng, swaps=2 * vertices), rng)
