"""Exhaustive census of small connected signed graphs.

Builds every connected multigraph (loops allowed) with at most a given
number of edges, one representative per isomorphism class, and realizes
every switching class of signs by fixing a spanning tree positive and
ranging over the co-tree sign patterns.
"""

from __future__ import annotations

from itertools import chain, permutations, product

from ohg.model import OrientedHypergraph

Edge = tuple[int, int]


def canonical(n: int, edges: tuple[Edge, ...]) -> tuple[int, tuple[Edge, ...]]:
    """Least vertex relabeling of an edge multiset."""
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v]))
            for u, v in edges))
        if best is None or relabeled < best:
            best = relabeled
    return n, best


def connected_multigraphs(max_edges: int) -> list[tuple[int, tuple[Edge, ...]]]:
    """All connected multigraphs with 1..max_edges edges, up to isomorphism.

    Grown edge by edge: a new edge is a loop, a link between existing
    vertices, or a link to one fresh vertex, which reaches every
    connected multigraph.
    """
    level = {(1, ())}
    out: list[tuple[int, tuple[Edge, ...]]] = []
    for _ in range(max_edges):
        grown: set[tuple[int, tuple[Edge, ...]]] = set()
        for n, edges in level:
            options: list[tuple[int, Edge]] = []
            for v in range(n):
                options.append((n, (v, v)))
            for u in range(n):
                for v in range(u + 1, n):
                    options.append((n, (u, v)))
            for u in range(n):
                options.append((n + 1, (u, n)))
            for new_n, edge in options:
                grown.add(canonical(new_n, tuple(sorted(edges + (edge,)))))
        out.extend(sorted(grown))
        level = grown
    return out


def spanning_tree_indices(n: int, edges: tuple[Edge, ...]) -> list[int]:
    """Indices of a spanning tree; loops and extra links are co-tree."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for idx, (u, v) in enumerate(edges):
        if u == v:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append(idx)
    return tree


def realize(n: int, edges: tuple[Edge, ...],
            eps: tuple[int, ...]) -> OrientedHypergraph:
    """Signed graph with the requested edge signs.

    Each 2-edge gets incidence signs (1, -eps) so the pair circle through
    it carries exactly the sign eps.
    """
    vertices = [f"v{i}" for i in range(n)]
    edge_ids = [f"e{k}" for k in range(len(edges))]
    incs = []
    for k, ((u, v), e) in enumerate(zip(edges, eps)):
        incs.append((f"i{k}a", f"v{u}", f"e{k}", 1))
        incs.append((f"i{k}b", f"v{v}", f"e{k}", -e))
    return OrientedHypergraph.build(vertices, edge_ids, incs)


def switching_patterns(n: int, edges: tuple[Edge, ...]):
    """One sign vector per switching class: tree positive, co-tree free."""
    tree = set(spanning_tree_indices(n, edges))
    free = [k for k in range(len(edges)) if k not in tree]
    for choice in product((1, -1), repeat=len(free)):
        eps = [1] * len(edges)
        for k, e in zip(free, choice):
            eps[k] = e
        yield tuple(eps)


def subset_connected(edges: tuple[Edge, ...], subset: tuple[int, ...]) -> bool:
    """Whether the chosen edges induce a connected subgraph."""
    verts = set()
    for k in subset:
        u, v = edges[k]
        verts.update((u, v))
    order = {v: i for i, v in enumerate(sorted(verts))}
    parent = list(range(len(order)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k in subset:
        u, v = edges[k]
        ru, rv = find(order[u]), find(order[v])
        if ru != rv:
            parent[ru] = rv
    roots = {find(i) for i in range(len(order))}
    return len(roots) == 1


def signed_subgraph_key(edges: tuple[Edge, ...], eps: tuple[int, ...],
                        subset: tuple[int, ...]):
    """Canonical form of an edge subset with its signs, for caching.

    Vertices are split into classes by degree, loop count and signed
    degree, and the classes take consecutive blocks of labels in the
    order of those invariants.  The key is the least sorted signed edge
    list over the relabelings that keep every class on its own block.
    Isomorphism preserves the invariants, so isomorphic subsets reach the
    same key; a key is a relabeled copy of its subset, so subsets with
    one key are isomorphic.
    """
    invariant: dict[int, list[int]] = {}
    for k in subset:
        u, v = edges[k]
        for w in (u, v):  # degree, loop count, signed degree
            counts = invariant.setdefault(w, [0, 0, 0])
            counts[0] += 1
            counts[2] += eps[k]
        if u == v:
            invariant[u][1] += 1
    classes: dict[tuple[int, ...], list[int]] = {}
    for w in sorted(invariant):
        classes.setdefault(tuple(invariant[w]), []).append(w)
    blocks = [classes[c] for c in sorted(classes)]
    best = None
    for orders in product(*(permutations(b) for b in blocks)):
        relabel = {w: label for label, w in enumerate(chain.from_iterable(orders))}
        signed = tuple(sorted(
            (min(relabel[edges[k][0]], relabel[edges[k][1]]),
             max(relabel[edges[k][0]], relabel[edges[k][1]]),
             eps[k])
            for k in subset))
        if best is None or signed < best:
            best = signed
    return best
