"""Algorithms on the bipartite representation.

Every structural question about an oriented hypergraph is answered on its
bipartite representation: nodes are tagged vertices and edges, links are
incidences.  This module supplies deterministic spanning forests,
biconnected blocks and internally disjoint path searches, each walking a
per-call integer index of that multigraph (``_index``), and the one
union-find (``DisjointSets``) of the package, from which every
connectivity fact comes: ``gamma_components`` and ``cyclomatic_number``,
and so every tree test.  Every walk and circle sign comes from
``balance.walk_sign``, and the signs of all fundamental circles of a forest
from its one-pass form here, ``fundamental_circle_signs``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import InputError
from .model import (EDGE, VERTEX, Incidence, OrientedHypergraph,
                    gamma_adjacency, gamma_nodes)

Node = tuple[str, str]


def sorted_adjacency(g: OrientedHypergraph) -> dict[Node, list[tuple[str, Node]]]:
    """Adjacency with neighbor lists sorted by (neighbor id, incidence id).

    No walk of the library reads it: each reads ``_index``, whose link
    lists reproduce this order.  It stays as the independent reference for
    that order, from which the tests' forest oracle grows.
    """
    adj = gamma_adjacency(g)
    return {node: sorted(nbrs, key=lambda t: (t[1][1], t[0]))
            for node, nbrs in adj.items()}


@dataclass
class _Index:
    """The bipartite representation of one hypergraph on integers, the one
    adjacency that spanning forests, blocks, disjoint-path flows and circle
    enumeration walk.

    Nodes are numbered the sorted vertices first, then the sorted edges,
    and node x is ``nodes[x]``.  Incidences keep their positions in
    ``g.incidences``: ``ids``, ``signs`` and ``ends`` (vertex number, edge
    number) are read by position.  ``links[x]`` holds node x's
    (incidence position, neighbour number) pairs in ``sorted_adjacency``
    order: by neighbour id, then incidence id.  Only random forests read
    ``draws``, which is built on first use.
    """

    hypergraph: OrientedHypergraph
    nodes: list[Node]
    vertex_number: dict[str, int]
    edge_number: dict[str, int]
    ids: list[str]
    signs: list[int]
    ends: list[tuple[int, int]]
    links: list[list[tuple[int, int]]]

    @cached_property
    def draws(self) -> list[int]:
        """The nodes whose link lists a random forest shuffles, those with
        two or more links, in g's own node order (its vertices, then its
        edges, as ``gamma_adjacency`` lists them)."""
        g, links = self.hypergraph, self.links
        order = ([self.vertex_number[v] for v in g.vertices]
                 + [self.edge_number[e] for e in g.edges])
        return [x for x in order if len(links[x]) > 1]

    def number(self, node: Node) -> int | None:
        """Node's number, or None when it is not a node (a tag and a string
        id) of the hypergraph."""
        if not (isinstance(node, tuple) and len(node) == 2
                and isinstance(node[1], str)):
            return None
        kind, nid = node
        if kind == VERTEX:
            return self.vertex_number.get(nid)
        return self.edge_number.get(nid) if kind == EDGE else None


_NEIGHBOUR = itemgetter(1)


def _index(g: OrientedHypergraph) -> _Index:
    """Build ``_Index`` of g with one sort of the incidence ids.

    Links are dealt out in incidence-id order, and a stable sort by
    neighbour number then leaves each list in ``sorted_adjacency`` order:
    on each side, neighbour numbers ascend with neighbour ids.
    """
    vertices, edges = sorted(g.vertices), sorted(g.edges)
    vertex_number = {v: k for k, v in enumerate(vertices)}
    edge_number = {e: k for k, e in enumerate(edges, len(vertices))}
    nodes = [(VERTEX, v) for v in vertices] + [(EDGE, e) for e in edges]
    ids, signs, ends = [], [], []
    for inc in g.incidences:
        ids.append(inc.id)
        signs.append(inc.sign)
        ends.append((vertex_number[inc.vertex], edge_number[inc.edge]))
    links: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for k in sorted(range(len(ids)), key=ids.__getitem__):
        v, e = ends[k]
        links[v].append((k, e))
        links[e].append((k, v))
    for nbrs in links:
        nbrs.sort(key=_NEIGHBOUR)
    return _Index(g, nodes, vertex_number, edge_number, ids, signs, ends,
                  links)


@dataclass
class SpanningForest:
    """A spanning forest of the bipartite representation.

    The strategy tag records how the forest was grown; ``roots`` are the
    forest's root nodes and ``incidences`` its incidence ids.  The rest is
    kept in arrays over the node numbers of ``index``, the integer index of
    the hypergraph the forest was grown on (``index.nodes[x]`` is node x):
    ``parent[x]`` is the number of x's parent and ``via[x]`` the position
    of the incidence to it, both -1 at a root; ``depth[x]`` counts the
    incidences on x's root path, and ``potential[x]`` is their sign
    product, in the signs of that hypergraph.  These four are lists indexed
    by node number, not dicts keyed by node; ``incidences`` is read off
    ``via`` on first use.
    """

    strategy: str
    seed: int | None
    roots: tuple[Node, ...]
    index: _Index = field(repr=False)
    parent: list[int] = field(repr=False)
    via: list[int] = field(repr=False)
    depth: list[int] = field(repr=False)
    potential: list[int] = field(repr=False)
    _incidences: frozenset[str] | None = field(default=None, repr=False,
                                               compare=False)

    @property
    def incidences(self) -> frozenset[str]:
        # Cached by hand: before Python 3.12, functools.cached_property
        # takes a lock on each instance's first read, which costs more
        # than growing a small forest.
        if self._incidences is None:
            ids = self.index.ids
            self._incidences = frozenset([ids[k] for k in self.via if k >= 0])
        return self._incidences

    def __contains__(self, incidence_id: str) -> bool:
        return incidence_id in self.incidences

    def path_between(self, a: Node, b: Node) -> tuple[list[Node], list[str]]:
        """Unique forest path a .. b as (node sequence, incidence sequence)."""
        x, y = self.index.number(a), self.index.number(b)
        if x is None or y is None:
            raise InputError(f"node {a!r} or {b!r} not spanned by the forest")
        parent, depth = self.parent, self.depth
        front, back = [x], [y]
        while x != y:
            if depth[x] >= depth[y]:
                if parent[x] < 0:
                    raise InputError(f"{a!r} and {b!r} lie in different components")
                x = parent[x]
                front.append(x)
            else:
                if parent[y] < 0:
                    raise InputError(f"{a!r} and {b!r} lie in different components")
                y = parent[y]
                back.append(y)
        # Each node below the meeting point reaches its parent by via.
        down = back[-2::-1]
        nodes, ids, via = self.index.nodes, self.index.ids, self.via
        return ([nodes[z] for z in front + down],
                [ids[via[z]] for z in front[:-1] + down])

    def _signs(self, rows: Iterable[tuple]) -> Iterator[tuple[object, int]]:
        """(key, sign) for each (key, a, b, s) of ``rows``: the sign of the
        circle that a non-forest link of sign s between the nodes numbered
        a and b closes with the forest path between them.

        With P(x) the potential, the link closes n = depth(a) + depth(b) -
        2 depth(lca) + 1 incidences of sign (-1)^(n/2) P(a) P(b) s: the path
        above the lca counts twice.  On a depth-first forest the lca is the
        shallower end, an ancestor of the other; on a breadth-first one
        both ends climb to it.
        """
        parent, depth, potential = self.parent, self.depth, self.potential
        ancestral = self.strategy != "bfs"
        for key, a, b, s in rows:
            if ancestral:
                top = min(depth[a], depth[b])
            else:
                x, y = a, b
                while x != y:
                    if depth[x] < depth[y]:
                        x, y = y, x
                    x = parent[x]
                    if x < 0:
                        nodes = self.index.nodes
                        raise InputError(f"{nodes[a]!r} and {nodes[b]!r} lie "
                                         "in different components")
                top = depth[x]
            half = (depth[a] + depth[b] + 1) // 2 - top
            yield key, (-1 if half % 2 else 1) * potential[a] * potential[b] * s

    def _changes(self) -> list[int]:
        """Positions of the non-forest incidences whose fundamental circle
        is negative, ascending: the change set of a reorientation along the
        forest, in the index's own positions."""
        index = self.index
        on = set(self.via)
        return [k for k, sign in self._signs(
            [(k, a, b, s) for k, ((a, b), s)
             in enumerate(zip(index.ends, index.signs)) if k not in on])
            if sign == -1]


def spanning_forest(g: OrientedHypergraph, strategy: str = "bfs",
                    seed: int = 0) -> SpanningForest:
    """Grow a spanning forest of the bipartite representation.

    bfs/dfs are fully deterministic: roots are the least unvisited node
    (vertices before edges, id order) and neighbors are taken in id order.
    random shuffles both orders from the given seed.  Each call builds one
    integer index of g (``_index``) and grows the forest on it.
    """
    if strategy not in ("bfs", "dfs", "random"):
        raise InputError(f"unknown forest strategy {strategy!r}")
    return _grow_forest(_index(g), strategy, seed)


def _grow_forest(index: _Index, strategy: str, seed: int) -> SpanningForest:
    """``spanning_forest`` on an index, which is left unchanged.

    A random forest first shuffles the node order, then, in the index's
    ``draws`` order, every link list of two or more links, each as
    ``_shuffled`` draws it; it keeps shuffled copies.  A two-link list is
    drawn inline: ``_shuffled`` would draw j in {0, 1} from 2 bits and
    swap exactly when j is 0.  Each node's depth, parent and potential are
    filled as the node is reached.
    """
    links = index.links
    n = len(links)
    order: Iterable[int] = range(n)
    if strategy == "random":
        bits = random.Random(seed).getrandbits
        order = _shuffled(order, bits)
        links = links[:]
        for x in index.draws:
            nbrs = links[x]
            if len(nbrs) > 2:
                links[x] = _shuffled(nbrs, bits)
                continue
            j = bits(2)
            while j >= 2:
                j = bits(2)
            if not j:
                links[x] = nbrs[::-1]

    signs = index.signs
    parent, via, depth, potential = [-1] * n, [-1] * n, [-1] * n, [1] * n
    roots = []
    for root in order:
        if depth[root] >= 0:
            continue
        roots.append(root)
        depth[root] = 0
        if strategy == "bfs":
            queue = [root]
            for node in queue:  # breadth first: iterating while appending
                d, p = depth[node] + 1, potential[node]
                for k, other in links[node]:
                    if depth[other] < 0:
                        parent[other], via[other] = node, k
                        depth[other], potential[other] = d, p * signs[k]
                        queue.append(other)
        else:
            # The stack keeps each ancestor's link iterator, to resume when
            # its child is done: the forest of a recursive depth-first search.
            node, nbrs, stack = root, iter(links[root]), []
            while True:
                for k, other in nbrs:
                    if depth[other] < 0:
                        parent[other], via[other] = node, k
                        depth[other] = depth[node] + 1
                        potential[other] = potential[node] * signs[k]
                        stack.append((node, nbrs))
                        node, nbrs = other, iter(links[other])
                        break
                else:
                    if not stack:
                        break
                    node, nbrs = stack.pop()
    return SpanningForest(strategy, seed if strategy == "random" else None,
                          tuple([index.nodes[x] for x in roots]), index,
                          parent, via, depth, potential)


def _shuffled(items, getrandbits) -> list:
    """A shuffled copy of ``items``, drawn as ``random.shuffle`` draws it:
    for i from the last index down to 1, j is the first draw of
    (i + 1).bit_length() bits below i + 1, and items i and j swap.  Written
    out, it takes about half the method's time on short lists."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        out[i], out[j] = out[j], out[i]
    return out


def fundamental_cycle(g: OrientedHypergraph, forest: SpanningForest,
                      incidence_id: str) -> tuple[list[Node], list[str]]:
    """Cycle closed by a non-forest incidence: forest path plus the incidence.

    Returned as (nodes, incidences) with len(nodes) == len(incidences) and the
    last incidence joining the final node back to the first.
    """
    inc = g.incidence(incidence_id)
    if incidence_id in forest.incidences:
        raise InputError(f"incidence {incidence_id!r} belongs to the forest")
    nodes, incs = forest.path_between((VERTEX, inc.vertex), (EDGE, inc.edge))
    return nodes, incs + [incidence_id]


def fundamental_circle_signs(g: OrientedHypergraph, forest: SpanningForest
                             ) -> Iterator[tuple[Incidence, int]]:
    """(incidence, sign of its fundamental circle) for each non-forest
    incidence of g, in g's order.

    The incremental form of ``balance.walk_sign``, in one pass over a forest
    that ``spanning_forest`` grew on ``g`` or on a view of g with all its
    nodes; the rule is ``SpanningForest._signs``.  Searches that grow their
    forests on g's own index read the negative ones by position instead,
    with ``SpanningForest._changes``.
    """
    vertex_number = forest.index.vertex_number
    edge_number = forest.index.edge_number
    chosen = forest.incidences

    def rows():
        for inc in g.incidences:
            if inc.id in chosen:
                continue
            a, b = vertex_number.get(inc.vertex), edge_number.get(inc.edge)
            if a is None or b is None:
                raise InputError(f"node {(VERTEX, inc.vertex)!r} or "
                                 f"{(EDGE, inc.edge)!r} not spanned by the forest")
            yield inc, a, b, inc.sign

    return forest._signs(rows())


class DisjointSets:
    """Union-find over hashable items; an item not yet seen is a singleton."""

    def __init__(self):
        self._parent: dict = {}

    def find(self, x):
        parent = self._parent
        while (up := parent.get(x, x)) != x:
            parent[x] = parent.get(up, up)  # path splitting
            x = up
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; False when they were already one set."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self._parent[ra] = rb
        return True


def gamma_components(g: OrientedHypergraph) -> list[list[Node]]:
    """Connected components of the bipartite representation, grouped by
    ``DisjointSets`` root: nodes keep g's own order (its vertices, then its
    edges), so components come in order of their first node, their least."""
    sets = DisjointSets()
    for inc in g.incidences:
        sets.union((VERTEX, inc.vertex), (EDGE, inc.edge))
    groups: dict[Node, list[Node]] = {}
    for node in gamma_nodes(g):
        groups.setdefault(sets.find(node), []).append(node)
    return list(groups.values())


def cyclomatic_number(g: OrientedHypergraph) -> int:
    """|I| - (|V| + |E|) + number of connected components: the incidences
    whose ends are already joined when the union-find reaches them, since
    each other incidence merges two components."""
    sets = DisjointSets()
    return sum([not sets.union((VERTEX, inc.vertex), (EDGE, inc.edge))
                for inc in g.incidences])


# ---------------------------------------------------------------------------
# Biconnected blocks


def blocks(g: OrientedHypergraph) -> list[frozenset[str]]:
    """Biconnected blocks of the bipartite representation.

    Each block is the set of incidence ids of one maximal 2-connected piece;
    a bridge forms a singleton block.  Parallel incidences land in a common
    block, as they close a cycle of length two.  Hopcroft and Tarjan's
    depth-first search on ``_index``: ``num[x]`` is the order in which node
    x is reached, ``low[x]`` the least number that x's subtree reaches by
    one link other than the one it was reached by.
    """
    index = _index(g)
    links, ids = index.links, index.ids
    n = len(links)
    num, low = [-1] * n, [0] * n
    reached = 0
    out: list[frozenset[str]] = []
    for root in range(n):
        if num[root] >= 0:
            continue
        num[root] = low[root] = reached
        reached += 1
        # As in ``_grow_forest``, the stack keeps each ancestor's link
        # iterator; estack holds the positions of the links walked.
        node, via, nbrs, stack, estack = root, -1, iter(links[root]), [], []
        while True:
            for k, other in nbrs:
                if k == via:
                    continue
                if num[other] < 0:
                    estack.append(k)
                    num[other] = low[other] = reached
                    reached += 1
                    stack.append((node, via, nbrs))
                    node, via, nbrs = other, k, iter(links[other])
                    break
                if num[other] < num[node]:
                    estack.append(k)
                    if num[other] < low[node]:
                        low[node] = num[other]
            else:
                if not stack:
                    break
                child, child_via = node, via
                node, via, nbrs = stack.pop()
                if low[child] < low[node]:
                    low[node] = low[child]
                if low[child] >= num[node]:
                    blk = []
                    while True:
                        k = estack.pop()
                        blk.append(ids[k])
                        if k == child_via:
                            break
                    out.append(frozenset(blk))
    return out


# ---------------------------------------------------------------------------
# Internally disjoint paths (unit vertex capacities)


# A theta is three internally disjoint paths, so no caller needs more.
THETA_PATHS = 3


def internally_disjoint_paths(g: OrientedHypergraph, source: Node, sink: Node
                              ) -> list[tuple[list[Node], list[str]]]:
    """Up to ``THETA_PATHS`` internally vertex-disjoint source-sink paths in
    the bipartite representation.

    Interior nodes get unit capacity; parallel incidences stay parallel unit
    links, so distinct parallel incidences can carry distinct paths.  The
    flow runs on ``_index``: node x splits into an in-node 2x and an
    out-node 2x + 1 joined by a unit arc, and each incidence gives a unit
    arc from either end's out-node to the other's in-node.  Each breadth
    first augmentation takes a node's arcs in the order they were added:
    the in-out arcs first, then the incidence arcs by incidence position.
    """
    if source == sink:
        raise InputError("path endpoints must differ")
    index = _index(g)
    s, t = index.number(source), index.number(sink)
    if s is None or t is None:
        raise InputError(f"unknown endpoint {source!r} or {sink!r}")
    # Arc a runs to head[a] with residual capacity cap[a]; a ^ 1 is its
    # reverse.  Arc pair j is incidence position through[j], or -1 for an
    # in-out arc.
    arcs: list[list[int]] = [[] for _ in range(2 * len(index.nodes))]
    head: list[int] = []
    cap: list[int] = []
    through: list[int] = []

    def add(u: int, v: int, k: int) -> None:
        arcs[u].append(len(head))
        arcs[v].append(len(head) + 1)
        head.extend((v, u))
        cap.extend((1, 0))
        through.append(k)

    for x in range(len(index.nodes)):
        if x != s and x != t:
            add(2 * x, 2 * x + 1, -1)
    for k, (v, e) in enumerate(index.ends):
        if v != t and e != s:
            add(2 * v + 1, 2 * e, k)
        if e != t and v != s:
            add(2 * e + 1, 2 * v, k)

    s_out, t_in = 2 * s + 1, 2 * t
    flow = 0
    while flow < THETA_PATHS:
        prev = [-1] * len(arcs)  # the arc each node is reached by
        prev[s_out] = -2  # reached, by no arc
        queue = [s_out]
        for u in queue:  # breadth first: iterating while appending
            if u == t_in:
                break
            for a in arcs[u]:
                if cap[a] > 0 and prev[head[a]] == -1:
                    prev[head[a]] = a
                    queue.append(head[a])
        if prev[t_in] == -1:
            break
        x = t_in
        while x != s_out:
            a = prev[x]
            cap[a] -= 1
            cap[a ^ 1] += 1
            x = head[a ^ 1]
        flow += 1

    # Incidence arcs that carry flow decompose into vertex-disjoint paths;
    # each step takes the first such arc out of the node and spends it.
    nodes, ids = index.nodes, index.ids
    paths = []
    for _ in range(flow):
        x, walk, incs = s, [nodes[s]], []
        while x != t:
            a = next(a for a in arcs[2 * x + 1]
                     if through[a >> 1] >= 0 and cap[a ^ 1] > 0)
            cap[a ^ 1] = 0
            incs.append(ids[through[a >> 1]])
            x = head[a] >> 1
            walk.append(nodes[x])
        paths.append((walk, incs))
    return paths
