"""Independent brute-force reference implementations.

Everything here recomputes library answers from first principles with
different algorithms: circles as 2-regular connected link subsets,
balance by checking every circle, balancing sets by trying every
incidence subset, and ranks through sympy.  The exact eliminations the
library used before it kept one (Bareiss ranks, Fraction and modular
RREF, with their own primitive-integer scaling), its one-smaller-subset
circuit test, its spanning forests, blocks, disjoint-path flow and
circle walk keyed by tagged node, its breadth-first components over the
node-keyed adjacency, its circuit
walk that reduces every candidate against its whole prefix basis and
the tuple-keyed one that extended each sibling's residual, its
memo-free F-maximality loop, its walk over
every edge combination for flower-part candidates, its local search that
builds every switched set, its tree search that builds a whole hypergraph
and forest per spanning tree, its hub count over tagged nodes and its
hypercircle contraction that scans again after each contraction, and its
validator that checked whole lists before walking them, live here as
references.
Slow on purpose; only run at desk scale.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, groupby, permutations, product
from math import comb, gcd, lcm
from operator import mul

from sympy.polys.domains import GF, QQ
from sympy.polys.matrices import DomainMatrix

from ohg.balance import (Circle, ThetaCertificate, Walk, is_balanceable,
                         is_balanced, walk_sign)
from ohg.camion import FrustrationResult
from ohg.errors import InputError, ResourceError
from ohg.gamma import (DisjointSets, blocks, fundamental_cycle,
                       internally_disjoint_paths, sorted_adjacency,
                       spanning_forest)
from ohg.linalg import Domain, _cancel, _settle, echelon_extend, rank
from ohg.matroids import (SUBSET_CAP_ENV, CircuitReport, _line,
                          _subset_cap)
from ohg.model import (EDGE, VERTEX, OrientedHypergraph, _located,
                       contract_degree2_vertex, edge_induced, gamma_adjacency,
                       incidence_matrix, minimal_subsets, weak_delete)
from ohg.shunting import (DEFAULT_MAX_FLOWER_EDGES, Hypercircle, find_thorns,
                          is_flower, is_inseparable, is_pseudo_flower)


def oracle_circles(g: OrientedHypergraph) -> set[frozenset[str]]:
    """Circles as incidence-id sets: connected 2-regular link subsets.

    A subset of links of the bipartite representation is a circle
    exactly when every node it touches has degree 2 within the subset
    and the touched part is connected.
    """
    incs = list(g.incidences)
    out: set[frozenset[str]] = set()
    for size in range(2, len(incs) + 1):
        for combo in combinations(incs, size):
            degree: dict[tuple[str, str], int] = {}
            for i in combo:
                for node in (("v", i.vertex), ("e", i.edge)):
                    degree[node] = degree.get(node, 0) + 1
            if any(d != 2 for d in degree.values()):
                continue
            if len(degree) != size:
                continue
            adj: dict[tuple[str, str], list[tuple[str, str]]] = {}
            for i in combo:
                a, b = ("v", i.vertex), ("e", i.edge)
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
            start = next(iter(degree))
            seen = {start}
            stack = [start]
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if len(seen) == len(degree):
                out.add(frozenset(i.id for i in combo))
    return out


def oracle_circle_sign(g: OrientedHypergraph, incs: frozenset[str]) -> int:
    prod = 1
    for i in incs:
        prod *= g.sign_of(i)
    half = len(incs) // 2
    return prod if half % 2 == 0 else -prod


def oracle_is_balanced(g: OrientedHypergraph) -> bool:
    return all(oracle_circle_sign(g, c) == 1 for c in oracle_circles(g))


def _signs_after_flip(g: OrientedHypergraph, circles, flipped) -> bool:
    """True when every circle is positive after reversing `flipped`."""
    for c in circles:
        sign = oracle_circle_sign(g, c)
        if len(c & flipped) % 2 == 1:
            sign = -sign
        if sign != 1:
            return False
    return True


def oracle_balancing_sets(g: OrientedHypergraph) -> list[frozenset[str]]:
    """Every incidence subset whose reversal balances g, by size."""
    circles = oracle_circles(g)
    ids = sorted(i.id for i in g.incidences)
    out = []
    for size in range(0, len(ids) + 1):
        for combo in combinations(ids, size):
            if _signs_after_flip(g, circles, frozenset(combo)):
                out.append(frozenset(combo))
    return out


def oracle_is_balanceable(g: OrientedHypergraph) -> bool:
    return bool(oracle_balancing_sets(g))


def oracle_frustration(g: OrientedHypergraph) -> int:
    sets = oracle_balancing_sets(g)
    if not sets:
        raise ValueError("not balanceable")
    return min(len(b) for b in sets)


def oracle_frustration_exact(g: OrientedHypergraph,
                             budget: int | None = None) -> FrustrationResult:
    """``frustration(g, "exact", budget)`` from the first balancing set in
    ``combinations`` order over the sorted ids, each candidate checked on
    every circle, with the evaluation count and the budget refusal computed
    from the witness alone.

    The witness of size k is preceded by every smaller set and by its rank
    among the k-sets in lexicographic order.  A budget B refuses at the
    size that holds the (B + 1)-th candidate.
    """
    circles = [(c, oracle_circle_sign(g, c)) for c in oracle_circles(g)]
    ids = sorted(i.id for i in g.incidences)
    n = len(ids)
    witness = next(
        combo for k in range(n + 1) for combo in combinations(ids, k)
        if all(sign * (-1) ** len(c.intersection(combo)) == 1
               for c, sign in circles))
    k = len(witness)
    evaluations = oracle_ascending_count(ids, witness)
    if budget is not None and evaluations > budget:
        size = next(s for s in range(n + 1)
                    if sum(comb(n, j) for j in range(s + 1)) > budget)
        raise ResourceError(f"exact frustration budget of {budget} candidate "
                            f"sets exhausted at size {size}")
    return FrustrationResult(k, witness, "exact", True, evaluations)


def oracle_ascending_count(ids: list[str], witness: tuple[str, ...]) -> int:
    """The candidate sets that ``combinations`` over the sorted ``ids``,
    size by size, tries up to and including ``witness``: every smaller set,
    then the witness's rank among the sets of its size, plus 1."""
    n, k = len(ids), len(witness)
    rank, prev = 0, -1
    for slot, pos in enumerate(map(ids.index, witness)):
        rank += sum(comb(n - 1 - q, k - 1 - slot) for q in range(prev + 1, pos))
        prev = pos
    return sum(comb(n, j) for j in range(k)) + rank + 1


def oracle_balancing_circles(g: OrientedHypergraph,
                             balanceable: bool | None = None
                             ) -> list[tuple[tuple[str, ...], int]] | None:
    """(incidence ids in path order, sign) of each fundamental circle of g's
    BFS forest, in g's incidence order, each path walked and signed on its
    own; None when g is not balanceable (a caller may pass that verdict
    in).  The reference for the library's ``_balancing_masks``: circle t
    is bit t."""
    if balanceable is None:
        balanceable = is_balanceable(g)[0]
    if not balanceable:
        return None
    forest = spanning_forest(g, "bfs")
    paths = [fundamental_cycle(g, forest, inc.id)[1]
             for inc in g.incidences if inc.id not in forest]
    return [(tuple(incs), walk_sign(g, incs)) for incs in paths]


def oracle_balances(circles, chosen: frozenset[str]) -> bool:
    """The balancing-set rule by one set intersection per circle of
    ``oracle_balancing_circles``: reversing ``chosen`` makes each circle
    positive."""
    return circles is not None and all(
        sign == (-1) ** len(chosen.intersection(incs)) for incs, sign in circles)


def _oracle_hill_climb(start, stars, evaluations, budget):
    current = start
    improved = True
    while improved and evaluations < budget:
        improved = False
        for star in stars:
            if evaluations >= budget:
                break
            evaluations += 1
            candidate = current ^ star
            if len(candidate) < len(current):
                current = candidate
                improved = True
                break
    return current, evaluations


@dataclass
class OracleForest:
    """A spanning forest as the library kept it before it grew forests on
    an integer index: parent, depth and potential keyed by node."""

    incidences: frozenset[str]
    strategy: str
    seed: int | None
    roots: tuple
    parent: dict = field(repr=False)
    depth: dict = field(repr=False)
    potential: dict = field(repr=False)

    def __contains__(self, incidence_id: str) -> bool:
        return incidence_id in self.incidences

    def path_between(self, a, b):
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
        return front + back[:-1][::-1], incs_front + incs_back[::-1]


def oracle_spanning_forest(g: OrientedHypergraph, strategy: str = "bfs",
                           seed: int = 0) -> OracleForest:
    """The library's ``spanning_forest`` before it grew on an integer index:
    dicts over tagged nodes, grown from the sorted vertices, then the sorted
    edges, and ``sorted_adjacency``.  A random forest shuffles the node order, then
    each neighbour list of two or more links in g's own node order, each
    with ``random.shuffle``'s draws written out."""
    order = _oracle_sorted_nodes(g)
    adj = sorted_adjacency(g)
    signs = {inc.id: inc.sign for inc in g.incidences}
    if strategy == "random":
        bits = random.Random(seed).getrandbits
        order = _oracle_shuffled(order, bits)
        adj = {node: _oracle_shuffled(nbrs, bits) if len(nbrs) > 1 else nbrs
               for node, nbrs in adj.items()}
    parent, depth, potential = {}, {}, {}
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
            for node in queue:
                for inc, other in adj[node]:
                    if other in depth:
                        continue
                    parent[other] = (inc, node)
                    depth[other] = depth[node] + 1
                    potential[other] = potential[node] * signs[inc]
                    chosen.add(inc)
                    queue.append(other)
        else:
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
    return OracleForest(frozenset(chosen), strategy, seed_out, tuple(roots),
                        parent, depth, potential)


def _oracle_sorted_nodes(g: OrientedHypergraph) -> list:
    """Vertex nodes in id order, then edge nodes in id order."""
    return ([(VERTEX, v) for v in sorted(g.vertices)]
            + [(EDGE, e) for e in sorted(g.edges)])


def _oracle_shuffled(items, getrandbits) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        out[i], out[j] = out[j], out[i]
    return out


def oracle_circle_signs(g: OrientedHypergraph, forest) -> list:
    """(incidence, walk sign of its fundamental circle) for each incidence
    of g outside the forest, in g's order."""
    return [(i, walk_sign(g, fundamental_cycle(g, forest, i.id)[1]))
            for i in g.incidences if i.id not in forest.incidences]


def oracle_local_start(g: OrientedHypergraph, forest) -> frozenset[str]:
    """The change set of a reorientation along the forest."""
    return frozenset(i.id for i, sign in oracle_circle_signs(g, forest)
                     if sign == -1)


def oracle_frustration_local(g: OrientedHypergraph, budget: int | None = None,
                             seed: int = 0) -> FrustrationResult:
    """``frustration(g, "local_search", budget, seed)`` with every switched
    set built and each start's circle signs read by ``walk_sign``.

    Stars are the incidence sets of the vertices then the edges, in id
    order; a hill climb moves by the first star whose switch shrinks the
    set and restarts its pass.  The starts are the negative fundamental
    circles of the BFS forest, then of random forests seeded seed + 1,
    seed + 2, ... while the budget lasts and the best set is nonempty.
    """
    cap = 10_000 if budget is None else budget
    stars = [frozenset(i.id for i in g.incidences if i.vertex == v)
             for v in sorted(g.vertices)]
    stars += [frozenset(i.id for i in g.incidences if i.edge == e)
              for e in sorted(g.edges)]
    best, evaluations = _oracle_hill_climb(
        oracle_local_start(g, oracle_spanning_forest(g, "bfs")), stars, 0,
        cap)
    restart = 0
    while evaluations < cap and best:
        restart += 1
        found, evaluations = _oracle_hill_climb(
            oracle_local_start(g, oracle_spanning_forest(
                g, "random", seed + restart)), stars, evaluations, cap)
        if len(found) < len(best):
            best = found
    return FrustrationResult(len(best), tuple(sorted(best)), "local_search",
                             len(best) == 0, evaluations, seed)


def _oracle_component_partition(g: OrientedHypergraph) -> list:
    """(nodes, incidences) per connected component, in order of each
    component's first node."""
    comps = []
    for nodes in oracle_gamma_components(g):
        node_set = set(nodes)
        comps.append((nodes, [inc for inc in g.incidences
                              if (VERTEX, inc.vertex) in node_set]))
    return comps


def _oracle_negative_circles(g: OrientedHypergraph, incs, forest) -> list:
    """Ids of the incidences among ``incs`` outside the forest whose
    fundamental circle has walk sign -1."""
    return [inc.id for inc in incs if inc.id not in forest.incidences
            and walk_sign(g, fundamental_cycle(g, forest, inc.id)[1]) == -1]


def oracle_frustration_trees(g: OrientedHypergraph,
                             budget: int | None = None) -> FrustrationResult:
    """The paper's frustration: the least reorientation change set over
    spanning forests, with a whole hypergraph and a forest of it for every
    spanning tree, and the components grouped by scanning every incidence
    once per component.

    Each component's spanning trees are its acyclic sets of |nodes| - 1
    incidences, in ``combinations`` order over their sorted ids; a budget
    counts trees over all components (none when budget is None), and a
    component it cuts off before its first tree takes the change set of
    g's BFS forest.
    """
    inspected = 0
    exact = True
    total = 0
    witness: list[str] = []
    position = {inc.id: k for k, inc in enumerate(g.incidences)}
    for nodes, incs in _oracle_component_partition(g):
        best = None
        for combo in combinations(sorted(incs, key=lambda i: i.id),
                                  len(nodes) - 1):
            if budget is not None and inspected >= budget:
                exact = False
                break
            sets = DisjointSets()
            if not all(sets.union((VERTEX, i.vertex), (EDGE, i.edge))
                       for i in combo):
                continue
            inspected += 1
            tree = OrientedHypergraph(
                g.vertices, g.edges,
                tuple(sorted(combo, key=lambda i: position[i.id])))
            changed = _oracle_negative_circles(
                g, incs, oracle_spanning_forest(tree))
            if best is None or len(changed) < len(best):
                best = changed
                if not best:
                    break
        if best is None:  # the cap ran out before the first tree
            best = _oracle_negative_circles(g, incs,
                                            oracle_spanning_forest(g))
            exact = False
        total += len(best)
        witness.extend(best)
    return FrustrationResult(total, tuple(sorted(witness)), "trees", exact,
                             inspected)


def oracle_hub_pairs(incidences, kind: str) -> list:
    """Hub pairs of the theta scan, counted over tagged nodes."""
    degree = Counter()
    for inc in incidences:
        degree[(VERTEX, inc.vertex)] += 1
        degree[(EDGE, inc.edge)] += 1
    hubs = sorted(node for node, d in degree.items() if d >= 3)
    vertex_hubs = [node for node in hubs if node[0] == VERTEX]
    edge_hubs = [node for node in hubs if node[0] == EDGE]
    if kind == "cross":
        return list(product(vertex_hubs, edge_hubs))
    return list(combinations(vertex_hubs if kind == "vertex" else edge_hubs, 2))


def oracle_minimal_balancing_sets(
        g: OrientedHypergraph) -> set[frozenset[str]]:
    all_sets = set(oracle_balancing_sets(g))
    return {b for b in all_sets
            if not any(other < b for other in all_sets)}


def oracle_in_cycle_orthogonal(g: OrientedHypergraph,
                               difference: frozenset[str]) -> bool:
    """GF(2) cut-space membership: even overlap with every circle."""
    return all(len(difference & c) % 2 == 0 for c in oracle_circles(g))


def oracle_detect_theta(g: OrientedHypergraph,
                        kind: str = "cross") -> ThetaCertificate | None:
    """The theta scan over every endpoint pair of the requested kind.

    Pairs come in lexicographic order, each end of degree at least three
    in the whole hypergraph, and each pair is probed by a flow on the whole
    hypergraph; the first triple of paths found is returned.
    """
    vs = [(VERTEX, v) for v in sorted(g.vertices) if g.degree(v) >= 3]
    es = [(EDGE, e) for e in sorted(g.edges) if g.edge_size(e) >= 3]
    if kind == "cross":
        pairs = [(v, e) for v in vs for e in es]
    else:
        pairs = list(combinations(vs if kind == "vertex" else es, 2))
    for a, b in pairs:
        paths = internally_disjoint_paths(g, a, b)
        if len(paths) >= 3:
            walks = tuple(Walk(tuple(ns), tuple(incs)) for ns, incs in paths[:3])
            return ThetaCertificate(kind, (a, b), walks)
    return None


def oracle_gamma_components(g: OrientedHypergraph, exclude=()
                            ) -> list[list[tuple[str, str]]]:
    """Connected components of the bipartite representation by breadth
    first search over ``gamma_adjacency``, optionally ignoring some
    incidences; components come in order of their first node, and each
    lists its nodes in discovery order."""
    skip = set(exclude)
    adj = gamma_adjacency(g)
    seen = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for node in comp:  # breadth first: comp doubles as the queue
            for inc, other in adj[node]:
                if inc not in skip and other not in seen:
                    seen.add(other)
                    comp.append(other)
        comps.append(comp)
    return comps


def oracle_blocks(g: OrientedHypergraph) -> list[frozenset[str]]:
    """The library's ``blocks`` before it walked the integer index: Tarjan's
    search with dicts over tagged nodes, from the sorted nodes over
    ``sorted_adjacency``."""
    adj = sorted_adjacency(g)
    index: dict = {}
    low: dict = {}
    counter = 0
    out: list[frozenset[str]] = []
    for root in _oracle_sorted_nodes(g):
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


class _OracleFlowNet:
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
        prev = {source: None}
        queue = [source]
        for u in queue:
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


def oracle_disjoint_paths(g: OrientedHypergraph, source, sink) -> list:
    """The library's ``internally_disjoint_paths`` before it ran on the
    integer index: a flow network of linked arc records over ("in", node)
    and ("out", node), stopped at three paths."""
    if source == sink:
        raise InputError("path endpoints must differ")
    adj = sorted_adjacency(g)
    if source not in adj or sink not in adj:
        raise InputError(f"unknown endpoint {source!r} or {sink!r}")
    net = _OracleFlowNet()
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
    while flow < 3 and net.augment(s_out, t_in):
        flow += 1
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


def oracle_enumerate_circles(g: OrientedHypergraph,
                             cap: int = 1_000_000) -> list[Circle]:
    """The library's ``enumerate_circles`` before it walked the integer
    index: the same stripped depth-first walk with sets and dicts over
    tagged nodes, over ``sorted_adjacency``."""
    adj = sorted_adjacency(g)
    alive = set(adj)
    degree = {node: len(links) for node, links in adj.items()}

    def strip(doomed: list) -> None:
        while doomed:
            node = doomed.pop()
            if node not in alive:
                continue
            alive.remove(node)
            for _, other in adj[node]:
                if other in alive:
                    degree[other] -= 1
                    if degree[other] < 2:
                        doomed.append(other)

    found: set[Circle] = set()
    strip([node for node, d in degree.items() if d < 2])
    for root in _oracle_sorted_nodes(g):
        if root not in alive:
            continue
        path_nodes, path_incs, on_path = [root], [], {root}
        stack = [iter(adj[root])]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if path_incs:
                    path_incs.pop()
                    on_path.discard(path_nodes.pop())
                continue
            inc, other = step
            if other == root:
                if path_incs and inc != path_incs[0]:
                    found.add(Circle.from_sequence(path_nodes, path_incs + [inc]))
                    if len(found) > cap:
                        raise ResourceError(
                            f"more than {cap} circles; raise the cap to continue")
            elif other in alive and other not in on_path:
                path_nodes.append(other)
                path_incs.append(inc)
                on_path.add(other)
                stack.append(iter(adj[other]))
        strip([root])
    return sorted(found, key=lambda c: (len(c.incidences), c.incidences))


def oracle_rank(rows, p: int | None = None) -> int:
    """Matrix rank via sympy, over the rationals or GF(p)."""
    if not rows or not rows[0]:
        return 0
    entries = [[int(x) for x in row] for row in rows]
    domain = QQ if p is None else GF(p)
    return DomainMatrix.from_list(entries, domain).rank()


def oracle_circuits(g: OrientedHypergraph,
                    p: int | None = None) -> set[frozenset[str]]:
    """Minimal dependent column subsets by raw double enumeration."""
    m = incidence_matrix(g)
    pos = {e: k for k, e in enumerate(m.cols)}
    dependent: set[frozenset[str]] = set()
    edges = sorted(g.edges)
    for size in range(1, len(edges) + 1):
        for combo in combinations(edges, size):
            cols = [pos[e] for e in combo]
            sub = [[row[c] for c in cols] for row in m.entries]
            if oracle_rank(sub, p) < len(combo):
                dependent.add(frozenset(combo))
    return {d for d in dependent
            if not any(other < d for other in dependent)}


def oracle_rank_int(rows) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    m = [list(r) for r in rows]
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
        if rank == nr:
            break
    return rank


def _rref_fraction(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    pivots = []
    rank_ = 0
    for col in range(nc):
        piv = next((r for r in range(rank_, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        m[rank_] = [x / m[rank_][col] for x in m[rank_]]
        for r in range(nr):
            if r != rank_ and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank_])]
        pivots.append(col)
        rank_ += 1
        if rank_ == nr:
            break
    return m, pivots


def _rref_mod(rows, p: int):
    m = [[x % p for x in r] for r in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    pivots = []
    rank_ = 0
    for col in range(nc):
        piv = next((r for r in range(rank_, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[rank_], m[piv] = m[piv], m[rank_]
        inv = pow(m[rank_][col], -1, p)
        m[rank_] = [(x * inv) % p for x in m[rank_]]
        for r in range(nr):
            if r != rank_ and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank_])]
        pivots.append(col)
        rank_ += 1
        if rank_ == nr:
            break
    return m, pivots


def primitive_integer(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, the leading nonzero
    entry positive; a zero vector stays as it is."""
    fracs = [Fraction(x) for x in vec]
    denom = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    g = gcd(*ints)
    if not g:
        return tuple(ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def oracle_nullspace(rows, domain: Domain) -> list[tuple]:
    """Nullspace basis read off a normalised RREF, one vector per free column.

    Fraction RREF over the rationals (vectors scaled by
    ``primitive_integer``), modular RREF over GF(p).
    """
    nc = len(rows[0]) if rows else 0
    if domain.is_rational:
        m, pivots = _rref_fraction(rows)
    else:
        m, pivots = _rref_mod(rows, domain.char)
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        vec = [Fraction(0)] * nc if domain.is_rational else [0] * nc
        vec[fc] = Fraction(1) if domain.is_rational else 1
        for r, pc in enumerate(pivots):
            if domain.is_rational:
                vec[pc] = -m[r][fc]
            else:
                vec[pc] = (-m[r][fc]) % domain.char
        basis.append(primitive_integer(vec) if domain.is_rational
                     else tuple(vec))
    return basis


def _oracle_dependent(g: OrientedHypergraph, edges, domain: Domain) -> bool:
    m = incidence_matrix(g, domain)
    pos = {e: k for k, e in enumerate(m.cols)}
    rows = [[row[pos[e]] for e in edges] for row in m.entries]
    if not rows:
        return True
    if domain.is_rational:
        return oracle_rank_int(rows) < len(edges)
    return len(_rref_mod(rows, domain.char)[1]) < len(edges)


def oracle_circuit_minimal(g: OrientedHypergraph, edges,
                           domain: Domain) -> bool:
    """Dependent, with every one-smaller nonempty subset independent."""
    chosen = tuple(sorted(set(edges)))
    if not _oracle_dependent(g, chosen, domain):
        return False
    return not any(_oracle_dependent(g, smaller, domain)
                   for smaller in combinations(chosen, len(chosen) - 1)
                   if smaller)


def oracle_prefix_circuits(g: OrientedHypergraph, domain: Domain,
                           max_size: int | None = None
                           ) -> list[CircuitReport]:
    """``enumerate_circuits`` as it was before candidates extended their
    sibling's residual: each candidate reduces its last column with
    ``echelon_extend`` against the whole echelon basis of its prefix.
    The subset cap is left out."""
    ids = sorted(g.edges)
    matrix = incidence_matrix(g, domain)
    top = min(len(ids), rank(matrix.entries, domain) + 1)
    if max_size is not None:
        top = min(top, max_size)
    pos = {e: i for i, e in enumerate(matrix.cols)}
    column = {e: [row[pos[e]] for row in matrix.entries] for e in ids}
    prefixes: dict = {(): ()}
    bases: dict = {}
    size = 1
    witnesses: dict = {}

    def dependent(combo: tuple[str, ...]) -> bool:
        nonlocal prefixes, bases, size
        if len(combo) != size:
            prefixes, bases, size = bases, {}, len(combo)
        basis = prefixes.get(combo[:-1])
        if basis is None:
            raise RuntimeError(f"no echelon basis for the prefix of {combo}")
        extended, witness = echelon_extend(basis, column[combo[-1]], domain)
        if witness is not None:
            witnesses[combo] = witness
            return True
        if size < top:
            bases[combo] = extended
        return False

    found = []
    for combo in minimal_subsets(ids, dependent, range(1, top + 1)):
        witness = witnesses.pop(combo)
        if not all(witness):
            raise RuntimeError(
                f"ascending enumeration reached the non-circuit {combo}")
        if any(domain.reduce(sum(map(mul, row, witness)))
               for row in zip(*(column[e] for e in combo))):
            raise RuntimeError("dependency witness failed verification")
        found.append(CircuitReport(combo, domain, True, True, witness))
    return found


def oracle_extend_residual(sibling: tuple, last: tuple, n: int,
                           domain: Domain) -> tuple:
    """``linalg.extend_residual`` as it was before the circuit walk took
    its row update inline: ``echelon_extend(basis(S + f), e)`` for
    columns S, f, e, in at most one row update, from pairs that testing
    S + f and S + e left behind.

    ``basis(T)`` is the basis ``echelon_extend`` builds by adding the
    columns of T in order from ``()``, and ``n`` the number of entries of
    a column.  ``last`` is the pair basis(S + f) ends with, and
    ``sibling`` the pair (pivot, r(e|S)) that ``echelon_extend(basis(S),
    e)`` added when it found S + e independent.  Returns ``(pair, None)``,
    the pair that call would add, or ``(None, dependency)`` exactly as it
    would return them.

    Proof.  basis(S + f) is basis(S) + (last,).  The call starts from
    x = e + [0] * (|S| + 1) + [1] and cancels against basis(S) in order
    before it reaches ``last``.  A vector of basis(S) has at most n + |S|
    entries (its own slot is the last), so none of these steps reads or
    writes slot n + |S| of x: that entry stays 0, and a 0 changes neither
    another entry of d*x - f*y nor the gcd of a rational row.  Every
    other entry, each multiplier taken at a pivot among the first n, and
    each gcd are therefore those of ``echelon_extend(basis(S), e)`` on
    e + [0] * |S| + [1], step for step, so x reaches r(e|S) with a 0
    inserted before its last entry, and modulo p the same holds
    entrywise.  The one step left is the cancellation against ``last``,
    taken when x is nonzero at its pivot, and ``_settle`` ends both
    calls alike.
    """
    x = sibling[1][:]
    x.insert(-1, 0)
    pc, y = last
    f = x[pc]
    if f:
        x = _cancel(x, y, y[pc], f, domain.char)
    return _settle(x, n, domain.char)


def oracle_sibling_circuits(g: OrientedHypergraph, domain=None,
                            max_size: int | None = None
                            ) -> list[CircuitReport]:
    """``enumerate_circuits`` as it was before it walked edge positions in
    prefix groups carried between sizes, with its row update inline.

    All circuits, ascending by size then lexicographic edge ids.

    A circuit C has rank |C| - 1, so none is larger than the rank r of
    the whole matrix plus one, and candidates stop at that size ``top``
    (at ``max_size`` if that is smaller).  The candidate count up to
    ``top`` must stay under the subset cap (default 2^20, overridable
    through OHG_MAX_SUBSETS).

    One walk runs over the sizes, keeping the independent sets of the
    current size in ``combinations`` order, so the sets with one prefix
    come in one run, each with the last pair of its echelon basis.  Size
    1 reduces each column on its own; a zero column is a circuit.  A
    larger candidate is joined from two independent sets S + f and
    S + e, f < e, with one prefix S, as Apriori joins frequent itemsets
    (Agrawal and Srikant, 1994), and kept only when its other
    one-smaller subsets are independent too.  A set is a circuit exactly
    when it is dependent and all its one-smaller subsets are
    independent, and every such set is joined from the two of them that
    drop one of its last two edges.  So the kept candidates are exactly
    the sets that contain no circuit found before, in ``combinations``
    order, and each dependent one is a circuit.  A candidate
    C = S + f + e is tested by reducing e's column against the echelon
    basis of S + f.
    That reduction first repeats, step for step, the one that left the
    residual r(e|S) when the sibling S + e was tested, so C takes the
    sibling's residual through one more row update at most
    (``oracle_extend_residual``, which proves the identity).  When the
    column falls in the span, the coefficients the reduction carried
    span the candidate's one-dimensional nullspace and are its witness;
    it must have no zero entry and must map the columns to zero.

    The last size keeps no independent set, so it reduces only the
    candidates that are dependent.  Within a group of one prefix S,
    members are bucketed by ``_line`` of their residual's vertex part,
    and only pairs inside a bucket are candidates: by (1) exactly these
    are dependent.  Each one that passes the containment check takes
    ``oracle_extend_residual`` for its witness, the one the candidate test
    would have read.

    (1) When S + f and S + e are independent, S + f + e is dependent
    exactly when v(f) and v(e), the vertex parts of r(f|S) and r(e|S),
    are parallel.  v(x) equals c*x + s with s in the span of S and c the
    coefficient at x's slot: that starts at 1 and each row update
    multiplies it by a pivot entry and divides it by a common factor, so
    c is not zero.  v(x) is zero at every pivot of basis(S), since each
    cancellation clears its own pivot and later vectors are zero there,
    and it is not zero, since S + x is independent.  If v(e) = m*v(f),
    then c_e*e - m*c_f*f + s_e - m*s_f = 0 is a dependency of S + f + e,
    nonzero at e.  Conversely, if S + f + e is dependent, e lies in the
    span of S + f, as S + f is independent, so v(e) = m*v(f) + s with s
    in the span of S.  s is zero at every pivot of basis(S), as both
    residuals are.  A nonzero combination of basis(S) is not: at the
    pivot of its first vector with a nonzero coefficient every later
    vector is zero.  So s = 0, and m is not zero because v(e) is not.
    Over GF(p) the same holds entrywise modulo p.

    (2) When top = r + 1, every pair in a group is parallel: S + f is an
    independent set of r columns, so it spans the column space, which
    holds e, and S + f + e is dependent.  Each group is then one bucket
    and no key is computed, so a census without ``max_size`` pays
    nothing for the buckets.
    """
    domain = Domain.coerce(domain)
    p = domain.char
    ids = sorted(g.edges)
    matrix = incidence_matrix(g, domain)
    r = rank(matrix.entries, domain)
    top = min(len(ids), r + 1)
    if max_size is not None:
        top = min(top, max_size)
    total = sum(comb(len(ids), k) for k in range(1, top + 1))
    cap = _subset_cap()
    if total > cap:
        raise ResourceError(
            f"circuit enumeration over {len(ids)} edges needs {total} "
            f"subsets; the cap is {cap} (set {SUBSET_CAP_ENV} to raise it)")
    pos = {e: i for i, e in enumerate(matrix.cols)}
    column = {e: [row[pos[e]] for row in matrix.entries] for e in ids}
    n = len(matrix.rows)
    found = []

    def report(combo: tuple[str, ...], witness: tuple) -> None:
        if not all(witness):
            raise RuntimeError(
                f"ascending enumeration reached the non-circuit {combo}")
        if any(domain.reduce(sum(map(mul, row, witness)))
               for row in zip(*(column[e] for e in combo))):
            raise RuntimeError("dependency witness failed verification")
        found.append(CircuitReport(combo, domain, True, True, witness))

    if top < 1:
        return found
    pairs: dict = {}  # independent set of the current size -> last pair
    for e in ids:
        extended, witness = echelon_extend((), column[e], domain)
        if witness is None:
            pairs[(e,)] = extended[0]
        else:
            report((e,), witness)
    for size in range(2, top + 1):
        grown: dict = {}
        circuits = []
        for prefix, run in groupby(pairs.items(), key=lambda kv: kv[0][:-1]):
            members = [(combo[-1], pair) for combo, pair in run]
            if size < top or top > r:
                buckets = [members]
            else:
                lines: dict = {}
                for member in members:
                    lines.setdefault(_line(member[1], n, p), []).append(member)
                buckets = lines.values()
            for bucket in buckets:
                for (f, last), (e, sibling) in combinations(bucket, 2):
                    combo = prefix + (f, e)
                    if not all(combo[:i] + combo[i + 1:] in pairs
                               for i in range(size - 2)):
                        continue
                    pair, witness = oracle_extend_residual(sibling, last, n,
                                                           domain)
                    if witness is not None:
                        circuits.append((combo, witness))
                    elif size == top:
                        raise RuntimeError(
                            f"parallel residuals left {combo} independent")
                    else:
                        grown[combo] = pair
        for combo, witness in sorted(circuits):
            report(combo, witness)
        pairs = grown
    return found


def oracle_signed_subgraph_key(edges, eps, subset):
    """Canonical form of a signed edge subset by trying every relabeling
    of its vertices: the least sorted signed edge list."""
    verts = sorted({w for k in subset for w in edges[k]})
    best = None
    for perm in permutations(range(len(verts))):
        relabel = {v: perm[i] for i, v in enumerate(verts)}
        signed = tuple(sorted(
            (min(relabel[edges[k][0]], relabel[edges[k][1]]),
             max(relabel[edges[k][0]], relabel[edges[k][1]]),
             eps[k])
            for k in subset))
        if best is None or signed < best:
            best = signed
    return best


def oracle_is_F_maximal(d, g: OrientedHypergraph) -> bool:
    """F-maximality as the library once checked it, with no cap and no
    shared memo: every union of a nonempty set of flower parts with a
    nonempty set of artery edges is built as a fresh edge-induced view
    and put to the public flower and pseudo-flower recognizers."""
    artery_edges = sorted(e for part in d.arteries for e in part)
    for p_size in range(1, len(d.flowers) + 1):
        for parts in combinations(d.flowers, p_size):
            base = set().union(*parts)
            for a_size in range(1, len(artery_edges) + 1):
                for extra in combinations(artery_edges, a_size):
                    sub = edge_induced(g, base | set(extra))
                    if is_flower(sub) or is_pseudo_flower(sub):
                        return False
    return True


def oracle_is_flower(g: OrientedHypergraph) -> bool:
    """The flower rule by the exhaustive walk: inseparable, and no
    edge-induced view on a proper nonempty edge subset is.  An inseparable
    input with more than ``DEFAULT_MAX_FLOWER_EDGES`` edges raises
    ResourceError, as the library's check does."""
    if not g.edges or not is_inseparable(g):
        return False
    if len(g.edges) > DEFAULT_MAX_FLOWER_EDGES:
        raise ResourceError(f"flower check on {len(g.edges)} edges")
    ordered = sorted(g.edges)
    return not any(is_inseparable(edge_induced(g, sub))
                   for size in range(1, len(ordered))
                   for sub in combinations(ordered, size))


def oracle_flower_part_candidates(g: OrientedHypergraph, spend
                                  ) -> list[frozenset[str]]:
    """The search's flower-part candidates by the old walk: every edge
    combination up to ``DEFAULT_MAX_FLOWER_EDGES`` edges in (size, sorted
    ids) order, one ``spend()`` each, filtered by vertex degree <= 2,
    connectivity, balanceability, and the flower-part rule on fresh views
    with the exhaustive flower check, judged in the library's order."""
    ids = sorted(g.edges)
    ends = {e: [i.vertex for i in g.incidences if i.edge == e] for e in ids}
    out = []
    for size in range(1, min(len(ids), DEFAULT_MAX_FLOWER_EDGES) + 1):
        for combo in combinations(ids, size):
            spend()
            degree: dict[str, int] = {}
            for e in combo:
                for v in ends[e]:
                    degree[v] = degree.get(v, 0) + 1
            if any(d > 2 for d in degree.values()):
                continue
            view = edge_induced(g, combo)
            if (len(oracle_gamma_components(view)) != 1
                    or not is_balanceable(view)[0]):
                continue
            flower = oracle_is_flower(view)
            one_edge = (len(view.vertices) == len(view.edges)
                        == len(view.incidences) == 1)
            thorns = find_thorns(view)
            pseudo = one_edge or (bool(thorns) and oracle_is_flower(
                weak_delete(view, thorns)))
            if (flower or pseudo) and not (
                    flower and not pseudo and is_balanced(view)[0]):
                out.append(frozenset(combo))
    return out


def oracle_to_hypercircle(g: OrientedHypergraph) -> Hypercircle:
    """``to_hypercircle`` as the library once ran it: contract the least
    eligible vertex, then scan every vertex again, until none is left."""
    current = g
    changed = True
    while changed:
        changed = False
        for v in sorted(current.vertices):
            incs = current.incidences_at(v)
            if len(incs) != 2:
                continue
            e, f = incs[0].edge, incs[1].edge
            if e == f:
                continue
            if current.edge_size(e) < 2 or current.edge_size(f) < 2:
                continue
            current = contract_degree2_vertex(current, v)
            changed = True
            break
    t = sum(1 for v in current.vertices if current.degree(v) == 1)
    cyclic = sum(1 for blk in blocks(current) if len(blk) >= 2)
    one_edges = sum(1 for e in current.edges if current.edge_size(e) == 1)
    return Hypercircle(current, t, cyclic + one_edges)


_STR = {str}


def oracle_check_rows(vertices, edges, rows, text: str = "") -> None:
    """The library's ``_check_rows`` before it kept one walk: whole-list
    type and set checks first, and the in-order walk only when one fails,
    to name the first fault."""
    ids, vs, es, signs = zip(*rows) if rows else ((), (), (), ())
    if (set(map(type, vertices)) <= _STR and set(map(type, edges)) <= _STR
            and set(map(type, ids + vs + es)) <= _STR
            and set(map(type, signs)) <= {int}):
        vset, eset = set(vertices), set(edges)
        if (len(vset) == len(vertices) and len(eset) == len(edges)
                and len(set(ids)) == len(ids)
                and vset.issuperset(vs) and eset.issuperset(es)
                and set(signs) <= {1, -1}):
            return
    vset, eset = set(), set()
    for kind, names, seen in (("vertex", vertices, vset),
                              ("edge", edges, eset)):
        for name in names:
            if not isinstance(name, str):
                raise InputError(f"{kind} id {name!r} must be a string")
            if name in seen:
                raise InputError(
                    f"duplicate {kind} id {name!r}{_located(text, name, 2)}")
            seen.add(name)
    seen = set()
    for iid, vertex, edge, sign in rows:
        if not isinstance(iid, str):
            raise InputError(f"incidence id {iid!r} must be a string")
        if iid in seen:
            raise InputError(
                f"duplicate incidence id {iid!r}{_located(text, iid, 2)}")
        seen.add(iid)
        if not isinstance(vertex, str) or vertex not in vset:
            raise InputError(f"incidence {iid!r} references unknown vertex "
                             f"{vertex!r}{_located(text, iid)}")
        if not isinstance(edge, str) or edge not in eset:
            raise InputError(f"incidence {iid!r} references unknown edge "
                             f"{edge!r}{_located(text, iid)}")
        if isinstance(sign, bool) or sign not in (1, -1):
            raise InputError(f"incidence {iid!r} has sign {sign!r}, "
                             f"expected 1 or -1{_located(text, iid)}")
