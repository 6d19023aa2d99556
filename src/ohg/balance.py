"""Walks, circles, signs, balance, and balanceability.

A walk alternates vertices and edges through named incidences; its sign is
(-1)^floor(n/2) times the product of its incidence signs, n the number of
incidences.  A hypergraph is balanced when every circle is positive, and
balanceable when some reorientation of its incidences makes it balanced.
The obstruction to balanceability is three internally disjoint vertex-edge
paths sharing endpoints, found here by unit-capacity flow.  Any two of the
three paths close a cycle, and every cycle lies inside one biconnected
block, so the scan only tries endpoint pairs that share a block and meet at
least three of its incidences each, and runs each flow on that block alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .errors import InputError, ResourceError
from .gamma import (Node, blocks, internally_disjoint_paths, sorted_adjacency,
                    sorted_nodes, spanning_forest, fundamental_cycle)
from .model import EDGE, VERTEX, Incidence, OrientedHypergraph

DEFAULT_CIRCLE_CAP = 1_000_000


@dataclass(frozen=True)
class Walk:
    """Alternating node/incidence sequence; nodes has one more entry."""

    nodes: tuple[Node, ...]
    incidences: tuple[str, ...]

    @property
    def length(self) -> Fraction:
        """Number of incidences over two; half-integer for vertex-edge walks."""
        return Fraction(len(self.incidences), 2)

    @property
    def interior(self) -> tuple[Node, ...]:
        return self.nodes[1:-1]


def validate_walk(g: OrientedHypergraph, walk: Walk) -> None:
    """Check the walk is realizable in g; raises InputError when not."""
    if len(walk.nodes) != len(walk.incidences) + 1:
        raise InputError("walk must have one more node than incidences")
    for k, inc_id in enumerate(walk.incidences):
        inc = g.incidence(inc_id)
        ends = {(VERTEX, inc.vertex), (EDGE, inc.edge)}
        if {walk.nodes[k], walk.nodes[k + 1]} != ends:
            raise InputError(
                f"incidence {inc_id!r} does not join {walk.nodes[k]!r} "
                f"and {walk.nodes[k + 1]!r}")


def is_path(g: OrientedHypergraph, walk: Walk) -> bool:
    """A path repeats no node and no incidence."""
    validate_walk(g, walk)
    return (len(set(walk.nodes)) == len(walk.nodes)
            and len(set(walk.incidences)) == len(walk.incidences))


def walk_sign(g: OrientedHypergraph, incidence_ids: Sequence[str]) -> int:
    """(-1)^floor(n/2) times the product of the signs of n incidences.

    The sign of any walk or circle through exactly these incidences; the
    sequence is not checked to be one.
    """
    sign = -1 if len(incidence_ids) // 2 % 2 else 1
    for inc_id in incidence_ids:
        sign *= g.sign_of(inc_id)
    return sign


def path_sign(g: OrientedHypergraph, walk: Walk) -> int:
    """(-1)^floor(n/2) times the product of the walk's incidence signs."""
    validate_walk(g, walk)
    return walk_sign(g, walk.incidences)


@dataclass(frozen=True)
class Circle:
    """A circle in canonical form.

    nodes[k] sits between incidences[k] and incidences[k+1]; the last
    incidence closes back to nodes[0].  The stored representative is the
    lexicographically least incidence-id sequence over all rotations and
    both directions.
    """

    nodes: tuple[Node, ...]
    incidences: tuple[str, ...]

    @classmethod
    def from_sequence(cls, nodes: Iterable[Node],
                      incidences: Iterable[str]) -> Circle:
        nodes, incs = tuple(nodes), tuple(incidences)
        if len(nodes) != len(incs) or len(incs) < 2:
            raise InputError("a circle needs equally many nodes and incidences, two at least")
        # Only a rotation that starts at the least id can be least, so the
        # candidates are those rotations in both directions; the reverse
        # traversal keeps nodes[0] first and walks the links backwards.
        first = min(incs)
        best = None
        for nodes_d, incs_d in ((nodes, incs),
                                ((nodes[0],) + nodes[:0:-1], incs[::-1])):
            for r, inc in enumerate(incs_d):
                if inc != first:
                    continue
                cand = (incs_d[r:] + incs_d[:r], nodes_d[r:] + nodes_d[:r])
                if best is None or cand < best:
                    best = cand
        return cls(best[1], best[0])

    @property
    def length(self) -> Fraction:
        return Fraction(len(self.incidences), 2)


def _circle_walk(circle: Circle) -> Walk:
    return Walk(circle.nodes + (circle.nodes[0],), circle.incidences)


def validate_circle(g: OrientedHypergraph, circle: Circle) -> None:
    """Check the circle is a genuine non-repeating closed walk in g."""
    walk = _circle_walk(circle)
    validate_walk(g, walk)
    if len(set(circle.nodes)) != len(circle.nodes):
        raise InputError("circle repeats a node")
    if len(set(circle.incidences)) != len(circle.incidences):
        raise InputError("circle repeats an incidence")


def circle_sign(g: OrientedHypergraph, circle: Circle) -> int:
    return path_sign(g, _circle_walk(circle))


def circle_sign_mod4(g: OrientedHypergraph, circle: Circle) -> int:
    """+1 exactly when the circle's incidence signs sum to 0 mod 4.

    Agrees with circle_sign: flipping one incidence moves the sum by 2 and
    flips the parity of the negative count together.
    """
    total = sum(g.sign_of(i) for i in circle.incidences)
    return 1 if total % 4 == 0 else -1


def enumerate_circles(g: OrientedHypergraph,
                      cap: int = DEFAULT_CIRCLE_CAP) -> list[Circle]:
    """All circles of g, canonical and sorted by (length, incidence ids).

    A circle is a simple cycle of the bipartite representation: two parallel
    incidences already close one.  Raises ResourceError past the cap.
    """
    adj = sorted_adjacency(g)
    # Nodes still alive and their links to live nodes.  A node with fewer
    # than two live links lies on no circle among the live nodes, and
    # neither does a finished root, so both are stripped as they appear:
    # every circle through a later root stays inside the live 2-core.
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
    # Depth-first from each live root through live nodes, with an explicit
    # stack of neighbour iterators so long circles cannot exhaust the
    # recursion limit.  The path's nodes and links grow and shrink with
    # the stack; a link back to the root other than the first closes a
    # circle.
    for root in sorted_nodes(g):
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


# ---------------------------------------------------------------------------
# Theta detection and balanceability


@dataclass(frozen=True)
class ThetaCertificate:
    """Three internally disjoint paths sharing both endpoints."""

    kind: str  # cross | vertex | edge
    endpoints: tuple[Node, Node]
    paths: tuple[Walk, Walk, Walk]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "endpoints": [list(self.endpoints[0]), list(self.endpoints[1])],
            "paths": [list(w.incidences) for w in self.paths],
        }


def verify_theta(g: OrientedHypergraph, cert: ThetaCertificate) -> bool:
    """Check a theta certificate against g."""
    a, b = cert.endpoints
    sides = {"cross": {a[0], b[0]} == {VERTEX, EDGE},
             "vertex": a[0] == b[0] == VERTEX and a != b,
             "edge": a[0] == b[0] == EDGE and a != b}
    if cert.kind not in sides or not sides[cert.kind]:
        return False
    if len(cert.paths) != 3:
        return False
    interiors = []
    for walk in cert.paths:
        try:
            if not is_path(g, walk):
                return False
        except InputError:
            return False
        if walk.nodes[0] != a or walk.nodes[-1] != b:
            return False
        interiors.append(set(walk.interior))
    for i in range(3):
        for j in range(i + 1, 3):
            if interiors[i] & interiors[j]:
                return False
    return True


_THETA_KINDS = ("cross", "vertex", "edge")


def _hub_pairs(incidences: Iterable[Incidence],
               kind: str) -> Iterator[tuple[Node, Node]]:
    """Endpoint pairs of the requested kind, in lexicographic order, whose
    two ends each meet at least three of the given incidences."""
    degree: Counter[Node] = Counter()
    for inc in incidences:
        degree[(VERTEX, inc.vertex)] += 1
        degree[(EDGE, inc.edge)] += 1
    hubs = sorted(node for node, d in degree.items() if d >= 3)
    vertex_hubs = [node for node in hubs if node[0] == VERTEX]
    edge_hubs = [node for node in hubs if node[0] == EDGE]
    if kind == "cross":
        # Vertex end first, as a certificate names it; ("e", ...) sorts
        # before ("v", ...), so a sorted pair of hubs would be backwards.
        return product(vertex_hubs, edge_hubs)
    return combinations(vertex_hubs if kind == "vertex" else edge_hubs, 2)


def _block_view(g: OrientedHypergraph,
                incidences: list[Incidence]) -> OrientedHypergraph:
    """The block on these incidences, in the parent's vertex, edge and
    incidence order."""
    vs = {inc.vertex for inc in incidences}
    es = {inc.edge for inc in incidences}
    return OrientedHypergraph(tuple(v for v in g.vertices if v in vs),
                              tuple(e for e in g.edges if e in es),
                              tuple(incidences))


def detect_theta(g: OrientedHypergraph, kind: str = "cross",
                 jobs: int = 1) -> ThetaCertificate | None:
    """First triple of internally disjoint paths between a pair of the
    requested endpoint kind, scanning pairs in lexicographic order.

    Only pairs that lie in one biconnected block, each end meeting at
    least three incidences of that block, can carry three such paths; each
    of them is probed by a flow on its block, which every path between the
    two ends stays inside.  Two nodes share at most one block, so the first
    pair that succeeds and its paths are those of a scan over all pairs.
    """
    if kind not in _THETA_KINDS:
        raise InputError(f"unknown theta kind {kind!r}")
    if next(_hub_pairs(g.incidences, kind), None) is None:
        return None
    block_of = {inc_id: k for k, block in enumerate(blocks(g)) for inc_id in block}
    members: dict[int, list[Incidence]] = {}
    for inc in g.incidences:
        members.setdefault(block_of[inc.id], []).append(inc)
    candidates = []
    for incs in members.values():
        pairs = list(_hub_pairs(incs, kind)) if len(incs) >= 3 else []
        if pairs:
            view = _block_view(g, incs)
            candidates.extend((pair, view) for pair in pairs)
    candidates.sort(key=lambda candidate: candidate[0])

    def probe(candidate):
        (a, b), view = candidate
        paths = internally_disjoint_paths(view, a, b, need=3)
        if len(paths) >= 3:
            walks = tuple(Walk(tuple(ns), tuple(incs)) for ns, incs in paths[:3])
            return ThetaCertificate(kind, (a, b), walks)
        return None

    if jobs > 1 and len(candidates) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for cert in pool.map(probe, candidates):
                if cert is not None:
                    return cert
        return None
    for candidate in candidates:
        cert = probe(candidate)
        if cert is not None:
            return cert
    return None


def is_balanceable(g: OrientedHypergraph,
                   jobs: int = 1) -> tuple[bool, ThetaCertificate | None]:
    """Balanceable means no vertex-edge pair carries three internally
    disjoint connecting paths; the certificate exhibits such a triple."""
    cert = detect_theta(g, "cross", jobs=jobs)
    return (cert is None), cert


def negative_circle_from_theta(g: OrientedHypergraph,
                               cert: ThetaCertificate) -> Circle:
    """Some union of two of the three paths is a negative circle.

    The three pairwise unions have sign product -1 because each path has an
    odd incidence count, so at least one union is negative.
    """
    for i in range(3):
        for j in range(i + 1, 3):
            p, q = cert.paths[i], cert.paths[j]
            nodes = p.nodes + q.nodes[-2:0:-1]
            incs = p.incidences + q.incidences[::-1]
            circle = Circle.from_sequence(nodes, incs)
            validate_circle(g, circle)
            if circle_sign(g, circle) == -1:
                return circle
    raise AssertionError("three disjoint half-integer paths with no negative pair")


def is_balanced(g: OrientedHypergraph, method: str = "fast",
                cap: int = DEFAULT_CIRCLE_CAP) -> tuple[bool, Circle | None]:
    """Whether every circle is positive, plus a negative circle when not.

    fast: balanceability first (an obstruction always hides a negative
    circle), then the fundamental circles of one spanning forest, which
    settle the question for balanceable inputs.  enumerate: check every
    circle against the cap.
    """
    if method == "enumerate":
        for circle in enumerate_circles(g, cap):
            if circle_sign(g, circle) == -1:
                return False, circle
        return True, None
    if method != "fast":
        raise InputError(f"unknown balance method {method!r}")

    ok, cert = is_balanceable(g)
    if not ok:
        return False, negative_circle_from_theta(g, cert)
    circle = negative_fundamental_circle(g)
    return circle is None, circle


def negative_fundamental_circle(g: OrientedHypergraph) -> Circle | None:
    """First negative fundamental circle of the BFS spanning forest.

    On a balanceable input, None means balanced: positive fundamental
    circles force every circle positive.
    """
    forest = spanning_forest(g, "bfs")
    for inc in g.incidences:
        if inc.id in forest.incidences:
            continue
        nodes, incs = fundamental_cycle(g, forest, inc.id)
        circle = Circle.from_sequence(nodes, incs)
        if circle_sign(g, circle) == -1:
            return circle
    return None


def verify_negative_circle(g: OrientedHypergraph, circle: Circle) -> bool:
    try:
        validate_circle(g, circle)
    except InputError:
        return False
    return circle_sign(g, circle) == -1
