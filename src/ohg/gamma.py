"""Algorithms on the bipartite representation.

Every structural question about an oriented hypergraph is answered on its
bipartite representation: nodes are tagged vertices and edges, links are
incidences.  This module supplies deterministic spanning forests, biconnected
blocks, internally disjoint path searches on that multigraph, and the one
union-find (``DisjointSets``) of the package.  Connected components come
from ``model.gamma_components``; every walk and circle sign comes from
``balance.walk_sign``, and the signs of all fundamental circles of a forest
from its one-pass form here, ``fundamental_circle_signs``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
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
class SpanningForest:
    """A spanning forest of the bipartite representation.

    Forest incidences keep parent pointers so tree paths can be read off;
    the strategy tag records how the forest was grown.  ``potential`` maps
    each node to the sign product of the incidences on its path to the
    root, in the signs of the hypergraph the forest was grown on.
    """

    incidences: frozenset[str]
    strategy: str
    seed: int | None
    roots: tuple[Node, ...]
    parent: dict[Node, tuple[str, Node] | None] = field(repr=False)
    depth: dict[Node, int] = field(repr=False)
    potential: dict[Node, int] = field(repr=False)

    def __contains__(self, incidence_id: str) -> bool:
        return incidence_id in self.incidences

    def path_between(self, a: Node, b: Node) -> tuple[list[Node], list[str]]:
        """Unique forest path a .. b as (node sequence, incidence sequence)."""
        if a not in self.depth or b not in self.depth:
            raise InputError(f"node {a!r} or {b!r} not spanned by the forest")
        front, back, incs_front, incs_back = [a], [b], [], []
        x, y = a, b
        while x != y:
            if self.depth[x] >= self.depth[y]:
                step = self.parent[x]
                if step is None:
                    raise InputError(f"{a!r} and {b!r} lie in different components")
                incs_front.append(step[0])
                x = step[1]
                front.append(x)
            else:
                step = self.parent[y]
                if step is None:
                    raise InputError(f"{a!r} and {b!r} lie in different components")
                incs_back.append(step[0])
                y = step[1]
                back.append(y)
        nodes = front + back[:-1][::-1]
        incs = incs_front + incs_back[::-1]
        return nodes, incs


def spanning_forest(g: OrientedHypergraph, strategy: str = "bfs",
                    seed: int = 0) -> SpanningForest:
    """Grow a spanning forest of the bipartite representation.

    bfs/dfs are fully deterministic: roots are the least unvisited node
    (vertices before edges, id order) and neighbors are taken in id order.
    random shuffles both orders from the given seed.
    """
    if strategy not in ("bfs", "dfs", "random"):
        raise InputError(f"unknown forest strategy {strategy!r}")
    return _grow_forest(sorted_nodes(g), sorted_adjacency(g),
                        {inc.id: inc.sign for inc in g.incidences},
                        strategy, seed)


def _grow_forest(order: list[Node], adj: dict[Node, list[tuple[str, Node]]],
                 signs: dict[str, int], strategy: str,
                 seed: int) -> SpanningForest:
    """``spanning_forest`` on a hypergraph's sorted nodes, sorted adjacency
    and incidence signs, all left unchanged: a random forest shuffles
    copies.  Each node's potential is filled as the node is reached."""
    if strategy == "random":
        bits = random.Random(seed).getrandbits
        order = _shuffled(order, bits)
        # Shuffling fewer than two items draws nothing.
        adj = {node: _shuffled(nbrs, bits) if len(nbrs) > 1 else nbrs
               for node, nbrs in adj.items()}

    parent: dict[Node, tuple[str, Node] | None] = {}
    depth: dict[Node, int] = {}
    potential: dict[Node, int] = {}
    chosen: set[str] = set()
    roots = []
    depth_first = strategy in ("dfs", "random")
    for root in order:
        if root in depth:
            continue
        roots.append(root)
        parent[root] = None
        depth[root] = 0
        potential[root] = 1
        if not depth_first:
            queue = [root]
            for node in queue:  # breadth first: iterating while appending
                for inc, other in adj[node]:
                    if other in depth:
                        continue
                    parent[other] = (inc, node)
                    depth[other] = depth[node] + 1
                    potential[other] = potential[node] * signs[inc]
                    chosen.add(inc)
                    queue.append(other)
        else:
            # Each frame resumes its node's neighbour iterator, so the
            # forest is that of a recursive depth-first search.
            stack = [(root, iter(adj[root]))]
            while stack:
                node, nbrs = stack[-1]
                for inc, other in nbrs:
                    if other not in depth:
                        parent[other] = (inc, node)
                        depth[other] = depth[node] + 1
                        potential[other] = potential[node] * signs[inc]
                        chosen.add(inc)
                        stack.append((other, iter(adj[other])))
                        break
                else:
                    stack.pop()
    seed_out = seed if strategy == "random" else None
    return SpanningForest(frozenset(chosen), strategy, seed_out, tuple(roots),
                          parent, depth, potential)


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
    that ``spanning_forest`` grew on ``g``.  With P(x) the sign product on
    x's root path (the forest's potential), a non-forest incidence of sign
    s joining a and b closes n = depth(a) + depth(b) - 2 depth(lca) + 1
    incidences of sign (-1)^(n/2) P(a) P(b) s: the path above the lca
    counts twice.  On a depth-first forest the lca is the shallower end, an
    ancestor of the other; on a breadth-first one both ends climb to it.
    """
    parent, depth, potential = forest.parent, forest.depth, forest.potential
    ancestral = forest.strategy != "bfs"
    for inc in g.incidences if incidences is None else incidences:
        if inc.id in forest.incidences:
            continue
        a, b = (VERTEX, inc.vertex), (EDGE, inc.edge)
        if a not in depth or b not in depth:
            raise InputError(f"node {a!r} or {b!r} not spanned by the forest")
        if ancestral:
            top = min(depth[a], depth[b])
        else:
            x, y = a, b
            while x != y:
                if depth[x] < depth[y]:
                    x, y = y, x
                if parent[x] is None:
                    raise InputError(f"{a!r} and {b!r} lie in different components")
                x = parent[x][1]
            top = depth[x]
        half = (depth[a] + depth[b] + 1) // 2 - top
        yield inc, (-1 if half % 2 else 1) * potential[a] * potential[b] * inc.sign


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
