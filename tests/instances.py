"""Seeded random instance generators shared across the test suite."""

from __future__ import annotations

import random
from itertools import count

from ohg.balance import is_balanceable
from ohg.model import OrientedHypergraph


def random_hypergraph(seed: int, max_incidences: int = 12,
                      extra_range: tuple[int, int] = (0, 3),
                      nv_range: tuple[int, int] = (1, 5),
                      ne_range: tuple[int, int] = (1, 5)
                      ) -> OrientedHypergraph:
    """Connected random instance built as a bipartite tree plus extras.

    The tree guarantees connectivity; each extra incidence raises the
    cyclomatic number by one, so instances stay sparse enough for the
    exhaustive oracles.
    """
    rng = random.Random(seed)
    nv = rng.randint(*nv_range)
    ne = rng.randint(*ne_range)
    vertices = [f"v{i}" for i in range(1, nv + 1)]
    edges = [f"e{i}" for i in range(1, ne + 1)]
    incs: list[tuple[str, str, str, int]] = []
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"i{counter}"

    # Spanning tree of the bipartite representation: attach every node
    # to a random already-placed node of the other kind, deferring a
    # node until such a partner exists so the result stays connected.
    nodes = [("v", vertices[0])]
    pending = [("v", x) for x in vertices[1:]] + [("e", x) for x in edges]
    rng.shuffle(pending)
    while pending:
        progressed = False
        deferred = []
        for kind, name in pending:
            others = [n for n in nodes if n[0] != kind]
            if not others:
                deferred.append((kind, name))
                continue
            partner = rng.choice(others)
            v = name if kind == "v" else partner[1]
            e = name if kind == "e" else partner[1]
            incs.append((fresh(), v, e, rng.choice((1, -1))))
            nodes.append((kind, name))
            progressed = True
        if not progressed:
            break
        pending = deferred

    extras = rng.randint(*extra_range)
    for _ in range(extras):
        if len(incs) >= max_incidences:
            break
        incs.append((fresh(), rng.choice(vertices), rng.choice(edges),
                     rng.choice((1, -1))))
    incs = incs[:max_incidences]
    used_e = sorted({e for _, _, e, _ in incs}, key=edges.index)
    used_v = sorted({v for _, v, _, _ in incs}, key=vertices.index)
    if not used_v:
        used_v = [vertices[0]]
    return OrientedHypergraph.build(used_v, used_e, incs)


def random_balanceable(seed: int, max_incidences: int = 12,
                       limit: int = 400, **kwargs) -> OrientedHypergraph:
    """First balanceable instance along the seed sequence.

    The sequence starts at ``seed * limit`` and runs on past ``limit``
    draws, into those of later seeds, until an instance is balanceable.
    """
    for offset in count():
        g = random_hypergraph(seed * limit + offset, max_incidences,
                              **kwargs)
        if is_balanceable(g)[0]:
            return g


def plant_obstruction(seed: int) -> OrientedHypergraph:
    """A random instance with an unbalanceable configuration inside.

    Even seeds gain an edge meeting one vertex three times; odd seeds
    gain a vertex with three disjoint routes into one edge.
    """
    rng = random.Random(seed ^ 0x5EED)
    g = random_balanceable(seed, max_incidences=9)
    vertices = list(g.vertices)
    edges = list(g.edges)
    incs = [(i.id, i.vertex, i.edge, i.sign) for i in g.incidences]
    v = rng.choice(vertices)
    if seed % 2 == 0:
        edges = edges + ["trap"]
        incs += [("t1", v, "trap", rng.choice((1, -1))),
                 ("t2", v, "trap", rng.choice((1, -1))),
                 ("t3", v, "trap", rng.choice((1, -1)))]
    else:
        vertices = vertices + ["w1", "w2"]
        edges = edges + ["trap", "leg1", "leg2"]
        incs += [("t1", v, "trap", 1),
                 ("t2", v, "leg1", 1), ("t3", "w1", "leg1", 1),
                 ("t4", "w1", "trap", 1),
                 ("t5", v, "leg2", 1), ("t6", "w2", "leg2", 1),
                 ("t7", "w2", "trap", 1)]
    return OrientedHypergraph.build(vertices, edges, incs)


def random_signed_graph(seed: int, max_edges: int = 6) -> OrientedHypergraph:
    """Connected 2-uniform instance (a signed graph), loops allowed."""
    rng = random.Random(seed)
    m = rng.randint(1, max_edges)
    n = rng.randint(1, m + 1)
    vertices = [f"v{i}" for i in range(1, n + 1)]
    incs = []
    edges = []
    for k in range(1, m + 1):
        edges.append(f"e{k}")
        if k < n:
            a, b = vertices[k], rng.choice(vertices[:k])
        else:
            a, b = rng.choice(vertices), rng.choice(vertices)
        incs.append((f"i{2*k-1}", a, f"e{k}", rng.choice((1, -1))))
        incs.append((f"i{2*k}", b, f"e{k}", rng.choice((1, -1))))
    used = {v for _, v, _, _ in incs}
    return OrientedHypergraph.build([v for v in vertices if v in used],
                                    edges, incs)


def large_signed_graph(n: int, seed: int) -> OrientedHypergraph:
    """A signed graph on n vertices: a random spanning tree plus n // 2
    random edges, which may be loops or parallel to earlier edges."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(k), k) for k in range(1, n)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]
    incs = []
    for k, (u, v) in enumerate(pairs):
        incs.append((f"i{k}a", f"v{u}", f"e{k}", rng.choice((1, -1))))
        incs.append((f"i{k}b", f"v{v}", f"e{k}", rng.choice((1, -1))))
    return OrientedHypergraph.build([f"v{k}" for k in range(n)],
                                    [f"e{k}" for k in range(len(pairs))], incs)


def hypertree(m: int, seed: int = 0) -> OrientedHypergraph:
    """A 3-uniform hypertree with m edges: its bipartite representation is
    a tree, so it is balanceable.

    The root vertex "r" gets three child edges and every later vertex, in
    breadth-first order, two, until m edges exist; every edge meets its
    parent vertex and two fresh ones.  Many vertex-edge pairs therefore
    have degree at least three at both ends.
    """
    rng = random.Random(seed)
    vertices, edges, incs = ["r"], [], []
    for anchor in vertices:  # breadth first: iterating while appending
        for _ in range(3 if anchor == "r" else 2):
            if len(edges) == m:
                return OrientedHypergraph.build(vertices, edges, incs)
            e = f"e{len(edges) + 1}"
            edges.append(e)
            fresh = [f"v{len(vertices) + k}" for k in range(2)]
            vertices.extend(fresh)
            for v in [anchor] + fresh:
                incs.append((f"i{len(incs) + 1}", v, e, rng.choice((1, -1))))
    raise AssertionError("unreachable: the vertex list outgrows the edges")


def plant_trap(g: OrientedHypergraph, seed: int = 0) -> OrientedHypergraph:
    """Add an edge "trap" meeting one non-root vertex of each of the root's
    three edges: the root and the trap are then joined by three internally
    disjoint paths, and nothing else gains a second route."""
    rng = random.Random(seed)
    root_edges = [i.edge for i in g.incidences_at("r")][:3]
    incs = [(i.id, i.vertex, i.edge, i.sign) for i in g.incidences]
    for k, e in enumerate(root_edges, start=1):
        leaf = rng.choice([i.vertex for i in g.incidences_of(e) if i.vertex != "r"])
        incs.append((f"t{k}", leaf, "trap", rng.choice((1, -1))))
    return OrientedHypergraph.build(g.vertices, g.edges + ("trap",), incs)


def without_parallels(g: OrientedHypergraph) -> OrientedHypergraph:
    """Drop every incidence that repeats the vertex and edge of an earlier
    one; the bipartite representation becomes a simple graph."""
    seen, incs = set(), []
    for inc in g.incidences:
        if (inc.vertex, inc.edge) not in seen:
            seen.add((inc.vertex, inc.edge))
            incs.append(inc)
    return OrientedHypergraph(g.vertices, g.edges, tuple(incs))


def walk_instances() -> list[OrientedHypergraph]:
    """Random hypergraphs, planted obstructions and trapped hypertrees, on
    which the walks of the bipartite representation are checked against
    their node-keyed references."""
    return ([random_hypergraph(seed) for seed in range(150)]
            + [plant_obstruction(seed) for seed in range(30)]
            + [plant_trap(hypertree(m)) for m in (1, 2, 3, 5, 9)])
