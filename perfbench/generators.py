"""Seeded input generators for the benchmark workloads.

Every generator is self-contained and deterministic in its seed.  Each
instance comes with the answers that hold by construction, so the checker
never has to ask the library what the right answer is.
"""

from __future__ import annotations

import random
from itertools import permutations, product

from checker import balanced_if_balanceable

Edge = tuple[int, int]


def _doc(vertices, edges, incidences) -> dict:
    """The JSON interchange form of an oriented hypergraph."""
    return {
        "vertices": list(vertices),
        "edges": list(edges),
        "incidences": [{"id": i, "vertex": v, "edge": e, "sign": s}
                       for i, v, e, s in incidences],
    }


def hypertree(m: int, seed: int) -> dict:
    """A 3-uniform hypertree with m edges: its bipartite form is a tree.

    The first three edges share the root vertex v000.  Every later edge
    hangs from a random vertex that has no child edge yet, and m // 6 of
    those vertices get two child edges instead of one.  The shape varies
    with the seed, but the number of vertices of degree 3, and so the
    number of pairs the theta scan probes, depends on m alone.  A
    hypertree has no circle, so it is balanced and balanceable.
    """
    rng = random.Random(seed)
    vertices = ["v000"]
    edges, incs = [], []
    childless: list[str] = []

    def add_edge(anchor: str) -> None:
        e = f"e{len(edges):03d}"
        edges.append(e)
        fresh = [f"v{len(vertices) + j:03d}" for j in range(2)]
        vertices.extend(fresh)
        childless.extend(fresh)
        for v in [anchor] + fresh:
            incs.append((f"i{len(incs):04d}", v, e, rng.choice((1, -1))))

    for _ in range(min(m, 3)):
        add_edge("v000")
    rest = max(0, m - 3)
    branches = min(m // 6, rest // 2)
    moves = [2] * branches + [1] * (rest - 2 * branches)
    rng.shuffle(moves)
    for children in moves:
        anchor = childless.pop(rng.randrange(len(childless)))
        for _ in range(children):
            add_edge(anchor)
    return _doc(vertices, edges, incs)


def plant_trap(doc: dict, seed: int) -> tuple[dict, list[list[str]]]:
    """Add one 3-incidence edge ``t`` that closes a theta at the root.

    The new edge meets one non-root vertex of each of the first three
    edges, which all contain v000, so v000 and ``t`` are joined by three
    internally disjoint paths and the result is not balanceable.  Returns
    the new document and the three planted paths as incidence-id lists.
    """
    rng = random.Random(seed)
    out = {key: list(value) for key, value in doc.items()}
    by_edge: dict[str, list[dict]] = {}
    for inc in doc["incidences"]:
        by_edge.setdefault(inc["edge"], []).append(inc)
    paths = []
    for k in range(3):
        members = by_edge[f"e{k:03d}"]
        root = next(i for i in members if i["vertex"] == "v000")
        leaf = rng.choice([i for i in members if i["vertex"] != "v000"])
        tid = f"t{k}"
        out["incidences"].append({"id": tid, "vertex": leaf["vertex"],
                                  "edge": "t", "sign": rng.choice((1, -1))})
        paths.append([root["id"], leaf["id"], tid])
    out["edges"].append("t")
    return out, paths


def signed_graph(n: int, seed: int) -> dict:
    """A 2-uniform signed graph on n vertices with n // 2 chords.

    A random spanning tree plus chords between distinct, not yet adjacent
    vertices.  Every 2-uniform input is balanceable; the signs are chosen
    so that at least one circle is negative, so it is not balanced.
    """
    rng = random.Random(seed)
    vertices = [f"v{k:03d}" for k in range(n)]
    pairs = [(rng.randrange(k), k) for k in range(1, n)]
    taken = {frozenset(p) for p in pairs}
    while len(pairs) < n - 1 + n // 2:
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in taken:
            taken.add(frozenset((u, v)))
            pairs.append((u, v))
    edges = [f"e{k:03d}" for k in range(len(pairs))]
    incs = []
    for k, (u, v) in enumerate(pairs):
        incs.append((f"i{k:03d}a", vertices[u], edges[k], rng.choice((1, -1))))
        incs.append((f"i{k:03d}b", vertices[v], edges[k], rng.choice((1, -1))))
    doc = _doc(vertices, edges, incs)
    if balanced_if_balanceable(doc):
        doc["incidences"][-1]["sign"] *= -1
    return doc


# ---------------------------------------------------------------------------
# Census of small connected signed multigraphs


def canonical(n: int, edges: tuple[Edge, ...]) -> tuple[int, tuple[Edge, ...]]:
    """Least vertex relabeling of an edge multiset."""
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges))
        if best is None or relabeled < best:
            best = relabeled
    return n, best


def connected_multigraphs(max_edges: int) -> list[tuple[int, tuple[Edge, ...]]]:
    """All connected multigraphs (loops allowed) with 1..max_edges edges,
    one per isomorphism class.

    Grown edge by edge: a new edge is a loop, a link between existing
    vertices, or a link to one fresh vertex, which reaches every connected
    multigraph.
    """
    level = {(1, ())}
    out: list[tuple[int, tuple[Edge, ...]]] = []
    for _ in range(max_edges):
        grown: set[tuple[int, tuple[Edge, ...]]] = set()
        for n, edges in level:
            options = [(n, (v, v)) for v in range(n)]
            options += [(n, (u, v)) for u in range(n) for v in range(u + 1, n)]
            options += [(n + 1, (u, n)) for u in range(n)]
            for new_n, edge in options:
                grown.add(canonical(new_n, tuple(sorted(edges + (edge,)))))
        out.extend(sorted(grown))
        level = grown
    return out


def _spanning_tree_indices(n: int, edges: tuple[Edge, ...]) -> set[int]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for idx, (u, v) in enumerate(edges):
        if u != v and find(u) != find(v):
            parent[find(u)] = find(v)
            tree.add(idx)
    return tree


def switching_patterns(n: int, edges: tuple[Edge, ...]):
    """One edge-sign vector per switching class: tree positive, co-tree free."""
    tree = _spanning_tree_indices(n, edges)
    free = [k for k in range(len(edges)) if k not in tree]
    for choice in product((1, -1), repeat=len(free)):
        eps = [1] * len(edges)
        for k, e in zip(free, choice):
            eps[k] = e
        yield tuple(eps)


def census(max_edges: int) -> list[tuple[int, tuple[Edge, ...], tuple[int, ...]]]:
    """Every connected signed multigraph with at most max_edges edges, one
    per switching class, as (vertex count, edges, edge signs)."""
    return [(n, edges, eps)
            for n, edges in connected_multigraphs(max_edges)
            for eps in switching_patterns(n, edges)]


def realize_doc(n: int, edges: tuple[Edge, ...], eps: tuple[int, ...]) -> dict:
    """Signed graph document whose edge k has circle sign eps[k].

    Each edge gets incidence signs (1, -eps), so the digon through it, and
    every circle, carries the product of its edge signs.
    """
    incs = []
    for k, ((u, v), e) in enumerate(zip(edges, eps)):
        incs.append((f"i{k}a", f"v{u}", f"e{k}", 1))
        incs.append((f"i{k}b", f"v{v}", f"e{k}", -e))
    return _doc([f"v{i}" for i in range(n)], [f"e{k}" for k in range(len(edges))],
                incs)


def signed_subgraph_key(edges: tuple[Edge, ...], eps: tuple[int, ...],
                        subset: tuple[int, ...]):
    """Canonical form of an edge subset with its signs, for caching."""
    verts = sorted({w for k in subset for w in edges[k]})
    best = None
    for perm in permutations(range(len(verts))):
        relabel = {v: perm[i] for i, v in enumerate(verts)}
        signed = tuple(sorted(
            (min(relabel[edges[k][0]], relabel[edges[k][1]]),
             max(relabel[edges[k][0]], relabel[edges[k][1]]), eps[k])
            for k in subset))
        if best is None or signed < best:
            best = signed
    return best
