"""Independent brute-force reference implementations.

Everything here recomputes library answers from first principles with
different algorithms: circles as 2-regular connected link subsets,
balance by checking every circle, balancing sets by trying every
incidence subset, and ranks through sympy.  Slow on purpose; only run
at desk scale.
"""

from __future__ import annotations

from itertools import combinations

from sympy.polys.domains import GF, QQ
from sympy.polys.matrices import DomainMatrix

from ohg.balance import ThetaCertificate, Walk
from ohg.gamma import internally_disjoint_paths
from ohg.model import EDGE, VERTEX, OrientedHypergraph


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
        paths = internally_disjoint_paths(g, a, b, need=3)
        if len(paths) >= 3:
            walks = tuple(Walk(tuple(ns), tuple(incs)) for ns, incs in paths[:3])
            return ThetaCertificate(kind, (a, b), walks)
    return None


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
    from ohg.model import incidence_matrix

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
