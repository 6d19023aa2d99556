"""Algorithms on the bipartite representation.

Every structural question about an oriented hypergraph is answered on its
bipartite representation: nodes are tagged vertices and edges, links are
incidences.  This module supplies deterministic spanning forests, grown by
one traversal on a per-call integer index of that multigraph (``_index``),
biconnected blocks, internally disjoint path searches, and the one
union-find (``DisjointSets``) of the package.  Connected components come
from ``model.gamma_components``; every walk and circle sign comes from
``balance.walk_sign``, and the signs of all fundamental circles of a forest
from its one-pass form here, ``fundamental_circle_signs``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import InputError
from .model import (EDGE, VERTEX, Incidence, OrientedHypergraph,
                    gamma_adjacency, gamma_components)

Node = tuple[str, str]


def sorted_nodes(g: OrientedHypergraph) -> list[Node]:
    """Vertex nodes in id order, then edge nodes in id order."""
    return ([(VERTEX, v) for v in sorted(g.vertices)]
            + [(EDGE, e) for e in sorted(g.edges)])


def sorted_adjacency(g: OrientedHypergraph) -> dict[Node, list[tuple[str, Node]]]:
    """Adjacency with neighbor lists sorted by (neighbor id, incidence id)."""
    adj = gamma_adjacency(g)
    return {node: sorted(nbrs, key=lambda t: (t[1][1], t[0]))
            for node, nbrs in adj.items()}


@dataclass
class _Index:
    """The bipartite representation of one hypergraph on integers.

    Nodes are numbered in ``sorted_nodes`` order, the sorted vertices then
    the sorted edges, and node x is ``nodes[x]``.  Incidences keep their
    positions in ``g.incidences``: ``ids``, ``signs`` and ``ends`` (vertex
    number, edge number) are read by position.  ``links[x]`` holds node x's
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

    def _number(self, node: Node) -> int | None:
        """Node's number, or None when the forest does not span it."""
        kind, nid = node
        if kind == VERTEX:
            return self.index.vertex_number.get(nid)
        return self.index.edge_number.get(nid) if kind == EDGE else None

    def path_between(self, a: Node, b: Node) -> tuple[list[Node], list[str]]:
        """Unique forest path a .. b as (node sequence, incidence sequence)."""
        x, y = self._number(a), self._number(b)
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


def fundamental_circle_signs(g: OrientedHypergraph, forest: SpanningForest,
                             incidences: Iterable[Incidence] | None = None
                             ) -> Iterator[tuple[Incidence, int]]:
    """(incidence, sign of its fundamental circle) for each non-forest
    incidence, in the order given (all of ``g``'s by default).

    The incremental form of ``balance.walk_sign``, in one pass over a forest
    that ``spanning_forest`` grew on ``g`` or on a view of g with all its
    nodes; the rule is ``SpanningForest._signs``.
    """
    vertex_number = forest.index.vertex_number
    edge_number = forest.index.edge_number
    chosen = forest.incidences

    def rows():
        for inc in g.incidences if incidences is None else incidences:
            if inc.id in chosen:
                continue
            a, b = vertex_number.get(inc.vertex), edge_number.get(inc.edge)
            if a is None or b is None:
                raise InputError(f"node {(VERTEX, inc.vertex)!r} or "
                                 f"{(EDGE, inc.edge)!r} not spanned by the forest")
            yield inc, a, b, inc.sign

    return forest._signs(rows())


def component_count(g: OrientedHypergraph,
                    exclude: Iterable[str] = ()) -> int:
    """Number of connected components, optionally ignoring some incidences."""
    return len(gamma_components(g, exclude))


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


# ---------------------------------------------------------------------------
# Biconnected blocks


def blocks(g: OrientedHypergraph) -> list[frozenset[str]]:
    """Biconnected blocks of the bipartite representation.

    Each block is the set of incidence ids of one maximal 2-connected piece;
    a bridge forms a singleton block.  Parallel incidences land in a common
    block, as they close a cycle of length two.
    """
    adj = sorted_adjacency(g)
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    counter = 0
    out: list[frozenset[str]] = []
    for root in sorted_nodes(g):
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        estack: list[str] = []
        stack: list[list] = [[root, None, 0]]
        while stack:
            node, in_inc, ptr = stack[-1]
            nbrs = adj[node]
            if ptr < len(nbrs):
                stack[-1][2] += 1
                inc, other = nbrs[ptr]
                if inc == in_inc:
                    continue
                if other not in index:
                    estack.append(inc)
                    index[other] = low[other] = counter
                    counter += 1
                    stack.append([other, inc, 0])
                elif index[other] < index[node]:
                    estack.append(inc)
                    if index[other] < low[node]:
                        low[node] = index[other]
            else:
                stack.pop()
                if stack:
                    pnode = stack[-1][0]
                    if low[node] < low[pnode]:
                        low[pnode] = low[node]
                    if low[node] >= index[pnode]:
                        blk = set()
                        while True:
                            e = estack.pop()
                            blk.add(e)
                            if e == in_inc:
                                break
                        out.append(frozenset(blk))
    return out


# ---------------------------------------------------------------------------
# Internally disjoint paths (unit vertex capacities)


class _FlowNet:
    def __init__(self):
        self.adj: dict = {}

    def add_node(self, x):
        self.adj.setdefault(x, [])

    def add_arc(self, u, v, cap, label=None):
        self.add_node(u)
        self.add_node(v)
        fwd = [v, cap, label, None]
        rev = [u, 0, None, fwd]
        fwd[3] = rev
        self.adj[u].append(fwd)
        self.adj[v].append(rev)
        return fwd

    def augment(self, source, sink) -> bool:
        """One BFS augmenting path of unit flow; True when found."""
        prev = {source: None}
        queue = [source]
        for u in queue:  # breadth first: iterating while appending
            if u == sink:
                break
            for arc in self.adj[u]:
                v, cap = arc[0], arc[1]
                if cap > 0 and v not in prev:
                    prev[v] = arc
                    queue.append(v)
        if sink not in prev:
            return False
        node = sink
        while prev[node] is not None:
            arc = prev[node]
            arc[1] -= 1
            arc[3][1] += 1
            node = arc[3][0]
        return True


# A theta is three internally disjoint paths, so no caller needs more.
THETA_PATHS = 3


def internally_disjoint_paths(g: OrientedHypergraph, source: Node, sink: Node
                              ) -> list[tuple[list[Node], list[str]]]:
    """Up to ``THETA_PATHS`` internally vertex-disjoint source-sink paths in
    the bipartite representation.

    Interior nodes get unit capacity; parallel incidences stay parallel unit
    links, so distinct parallel incidences can carry distinct paths.
    """
    if source == sink:
        raise InputError("path endpoints must differ")
    adj = sorted_adjacency(g)
    if source not in adj or sink not in adj:
        raise InputError(f"unknown endpoint {source!r} or {sink!r}")
    net = _FlowNet()
    s_out, t_in = ("out", source), ("in", sink)
    net.add_node(s_out)
    net.add_node(t_in)
    for node in adj:
        if node not in (source, sink):
            net.add_arc(("in", node), ("out", node), 1)
    for inc in g.incidences:
        a, b = (VERTEX, inc.vertex), (EDGE, inc.edge)
        for u, v in ((a, b), (b, a)):
            if u == sink or v == source:
                continue
            net.add_arc(("out", u), ("in", v), 1, (inc.id, u, v))

    flow = 0
    while flow < THETA_PATHS and net.augment(s_out, t_in):
        flow += 1

    # Positive-flow labeled arcs decompose into vertex-disjoint paths.
    used = {}
    for u, arcs in net.adj.items():
        for arc in arcs:
            if arc[2] is not None and arc[3][1] > 0:
                used.setdefault(u, deque()).append(arc)
    paths = []
    for _ in range(flow):
        node, here = s_out, source
        nodes, incs = [source], []
        while here != sink:
            arc = used[node].popleft()
            arc[3][1] -= 1
            inc_id, _, nxt = arc[2]
            incs.append(inc_id)
            nodes.append(nxt)
            here = nxt
            node = ("out", nxt)
        paths.append((nodes, incs))
    return paths
