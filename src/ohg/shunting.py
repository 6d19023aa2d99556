"""Structural recognition and shunting decompositions.

Flowers are the minimally inseparable building blocks, pseudo-flowers carry
thorns that arteries can grab onto, and a shunting wires flower parts
together through disjoint arteries so that the whole becomes a matroid
circuit.  This module recognizes each shape, validates decompositions
against their three defining conditions, decides optimality, and generates
certified instances.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice, product
from math import comb
from typing import Iterable, Sequence

from .balance import is_balanceable
from .camion import (_balances, _balancing_masks, _check_incidence_ids,
                     _is_minimal_balancing)
from .errors import InputError, ResourceError
from .gamma import (DisjointSets, blocks, cyclomatic_number, gamma_components,
                    spanning_forest)
from .linalg import Domain, nullity
from .model import (
    EDGE,
    VERTEX,
    OrientedHypergraph,
    contract_degree2_vertex,
    edge_induced,
    incidence_matrix,
    minimal_subsets,
    weak_delete,
)

DEFAULT_MAX_FLOWER_EDGES = 12
MAX_F_MAXIMALITY_CHECKS = 10_000
MAX_PART_BALANCING_SETS = 128


# ---------------------------------------------------------------------------
# Basic shapes


def is_inseparable(g: OrientedHypergraph) -> bool:
    """Every pair of incidences lies on a common circle.

    Operationally: the bipartite representation is connected and has a
    single block containing every incidence.  Conventions: a hypergraph
    with no incidences is inseparable exactly when its representation has
    at most one node (empty, a loose edge, a bare vertex); a single
    incidence is never inseparable.
    """
    if not g.incidences:
        return len(g.vertices) + len(g.edges) <= 1
    # A node on fewer than two incidences is cut off or hangs on a bridge.
    # Once every node is on two or more, each component holds a block, so
    # one block also means one component: no separate traversal is needed.
    for ends, nodes in ((Counter(i.vertex for i in g.incidences), g.vertices),
                        (Counter(i.edge for i in g.incidences), g.edges)):
        if len(ends) != len(nodes) or 1 in ends.values():
            return False
    return len(blocks(g)) == 1


def _circle_edges(g: OrientedHypergraph) -> set[str]:
    """Edges that lie on at least one circle.

    An edge is on a circle exactly when two of its incidences share a
    block of the bipartite representation.
    """
    out: set[str] = set()
    for blk in blocks(g):
        per_edge: dict[str, int] = {}
        for inc_id in blk:
            e = g.incidence(inc_id).edge
            per_edge[e] = per_edge.get(e, 0) + 1
            if per_edge[e] >= 2:
                out.add(e)
    return out


def is_flower(g: OrientedHypergraph) -> bool:
    """Inseparable with no proper edge-induced subhypergraph inseparable.

    Minimality ranges over proper nonempty edge subsets; the induced
    subhypergraph keeps every vertex incident to a kept edge together with
    its incidences into kept edges.  A hypergraph without edges is not a
    flower.  Checking is exhaustive, so an inseparable input with more than
    ``DEFAULT_MAX_FLOWER_EDGES`` edges raises ResourceError.
    """
    facts, whole = _facts_on_whole(g)
    return facts.flower(whole)


def find_thorns(g: OrientedHypergraph) -> frozenset[str]:
    """Monovalent vertices whose incident edge lies on some circle."""
    degree = Counter(i.vertex for i in g.incidences)
    monovalent = [i for i in g.incidences if degree[i.vertex] == 1]
    if not monovalent:
        return frozenset()
    on_circle = _circle_edges(g)
    return frozenset(i.vertex for i in monovalent if i.edge in on_circle)


def _is_one_edge(g: OrientedHypergraph) -> bool:
    return (len(g.vertices) == 1 and len(g.edges) == 1
            and len(g.incidences) == 1)


def is_pseudo_flower(g: OrientedHypergraph, allow_one_edges: bool = True
                     ) -> bool:
    """Has thorns, and weak-deleting all of them leaves a flower.

    A bare 1-edge has no circle so its vertex is not literally a thorn;
    with ``allow_one_edges`` (the default, matching how decompositions
    treat them) a 1-edge counts as a balanced pseudo-flower whose vertex
    plays the thorn role.
    """
    if _is_one_edge(g):
        return allow_one_edges
    facts, whole = _facts_on_whole(g)
    return facts.pseudo_flower(whole)


def part_thorns(g: OrientedHypergraph) -> frozenset[str]:
    """Thorns of a decomposition part; a 1-edge contributes its vertex."""
    facts, whole = _facts_on_whole(g)
    return facts.part_thorns(whole)


_NO_VERTICES: frozenset[str] = frozenset()


class _PartFacts:
    """Facts about the parts of one hypergraph, each computed once.

    A part is a frozen set of edges of ``g``; its view is
    ``edge_induced(g, edges)``.  The pseudo-flower test also asks about a
    part with its thorns weak-deleted, so facts that can concern such a
    view are keyed by the deleted vertices too.  One memo serves one call
    of ``validate_shunting``, ``verify_shunting``, ``is_optimal_shunting``,
    ``is_balanceable_shunting``, ``is_F_maximal``, ``is_S_minimal``,
    ``classify_shunt_paths``, ``upsilon_tree``, ``generate_optimal_shunting``,
    a public recognizer or ``find_shunting_decomposition`` (whose closing
    fresh validation builds a second on purpose) and is dropped with it:
    nothing is kept between calls.
    """

    def __init__(self, g: OrientedHypergraph):
        self.g = g
        self.views: dict[tuple[frozenset, frozenset], OrientedHypergraph] = {}
        self._facts: dict[tuple, object] = {}

    @cached_property
    def components(self) -> int:
        """Number of components of ``g``, counted once per memo."""
        return len(gamma_components(self.g))

    def _memo(self, key: tuple, compute):
        try:
            return self._facts[key]
        except KeyError:
            value = self._facts[key] = compute()
            return value

    def view(self, edges: frozenset[str],
             deleted: frozenset[str] = _NO_VERTICES) -> OrientedHypergraph:
        key = (edges, deleted)
        if key not in self.views:
            if deleted:
                whole = self.view(edges)
                self.views[key] = weak_delete(
                    whole, deleted.intersection(whole.vertices))
            else:
                self.views[key] = edge_induced(self.g, edges)
        return self.views[key]

    def inseparable(self, edges: frozenset[str],
                    deleted: frozenset[str] = _NO_VERTICES) -> bool:
        return self._memo(("inseparable", edges, deleted),
                          lambda: is_inseparable(self.view(edges, deleted)))

    def flower(self, edges: frozenset[str],
               deleted: frozenset[str] = _NO_VERTICES) -> bool:
        """The one flower rule: the view is inseparable, and no view on a
        proper nonempty subset of its edges is."""
        return self._memo(("flower", edges, deleted),
                          lambda: self._flower(edges, deleted))

    def _flower(self, edges, deleted) -> bool:
        """The flower rule, walking the proper edge subsets only when some
        vertex of the view has degree 3 or more.

        An inseparable view H whose vertices all have degree <= 2 is a
        flower.  With no incidences, H is a single edge and has no proper
        nonempty subset.  Otherwise H is connected and every node of H is
        on an incidence, so for a proper nonempty edge subset S some vertex
        v of H is on an edge in S and on an edge outside S.  The view on S,
        which keeps the same deleted vertices, keeps v with one incidence
        only, since v has degree <= 2 in H, and a node on one incidence
        is never inseparable.  The cap check stays ahead of this rule.
        """
        if not edges or not self.inseparable(edges, deleted):
            return False
        if len(edges) > DEFAULT_MAX_FLOWER_EDGES:
            raise ResourceError(
                f"flower minimality check needs 2^{len(edges)} edge subsets; "
                f"the cap is {DEFAULT_MAX_FLOWER_EDGES} edges")
        degree = Counter(i.vertex for i in self.view(edges, deleted).incidences)
        if max(degree.values(), default=0) <= 2:
            return True
        # Sizes start at 1: the empty edge-induced view counts as inseparable.
        ordered = sorted(edges)
        return not any(self.inseparable(frozenset(sub), deleted)
                       for size in range(1, len(ordered))
                       for sub in combinations(ordered, size))

    def ends(self, edges: frozenset[str]) -> frozenset[str]:
        """The view's external vertices, read as an artery."""
        return self._memo(("ends", edges),
                          lambda: artery_external_vertices(self.view(edges)))

    def artery(self, edges: frozenset[str]) -> bool:
        return self._memo(("artery", edges),
                          lambda: is_artery(self.view(edges)))

    def thorns(self, edges: frozenset[str]) -> frozenset[str]:
        return self._memo(("thorns", edges),
                          lambda: find_thorns(self.view(edges)))

    def part_thorns(self, edges: frozenset[str]) -> frozenset[str]:
        view = self.view(edges)
        if _is_one_edge(view):
            return frozenset(view.vertices)
        return self.thorns(edges)

    def pseudo_flower(self, edges: frozenset[str]) -> bool:
        """Pseudo-flower with 1-edges allowed, as decompositions use it."""
        if _is_one_edge(self.view(edges)):
            return True
        thorns = self.thorns(edges)
        return bool(thorns) and self.flower(edges, thorns)

    def balanceable(self, edges: frozenset[str]) -> bool:
        return self._memo(("balanceable", edges),
                          lambda: is_balanceable(self.view(edges))[0])

    def masks(self, edges: frozenset[str]) -> tuple | None:
        """The part's ``_balancing_masks``, computed once."""
        return self._memo(("masks", edges), lambda: _balancing_masks(
            self.view(edges), self.balanceable(edges)))

    def balancing(self, edges: frozenset[str], ids: Iterable[str]) -> bool:
        """The balancing-set rule on the part's masks, for a set of ids."""
        return _balances(self.masks(edges), ids)

    def part_notes(self, edges: frozenset[str]) -> list[str]:
        """Why the part cannot be a flower part of a decomposition: it must
        be a balanceable flower or pseudo-flower, not a balanced plain
        flower.  Empty when it can."""
        flower, pseudo = self.flower(edges), self.pseudo_flower(edges)
        if not flower and not pseudo:
            return ["is neither flower nor pseudo-flower"]
        notes = []
        if not self.balanceable(edges):
            notes.append("is not balanceable")
        if flower and not pseudo and self.balancing(edges, ()):
            notes.append("is a balanced flower")
        return notes

    def minimal_balancing_sets(self, edges: frozenset[str], spend
                               ) -> list[frozenset[str]]:
        """The first ``MAX_PART_BALANCING_SETS`` minimal balancing sets of
        one part, ascending by size.

        ``spend()`` is called once per candidate set visited.  A part met
        again is charged ``spend(visited)`` in one call, which the search
        counts as that many one-unit spends, so the budget runs out at the
        same point as if the sets were enumerated anew.
        """
        key = ("minimal-balancing-sets", edges)
        if key in self._facts:
            sets, visited = self._facts[key]
            spend(visited)
            return sets
        visited = 0

        def visit(combo):
            nonlocal visited
            visited += 1
            spend()

        ids = sorted(i.id for i in self.view(edges).incidences)
        found = minimal_subsets(ids, lambda combo: self.balancing(edges, combo),
                                range(len(ids) + 1), visit)
        sets = [frozenset(combo)
                for combo in islice(found, MAX_PART_BALANCING_SETS)]
        self._facts[key] = (sets, visited)
        return sets


def _facts_on_whole(g: OrientedHypergraph
                    ) -> tuple[_PartFacts, frozenset[str]]:
    """A fresh memo on ``g`` and the part made of all its edges, whose view
    is ``g`` itself: a vertex on no edge stays, as a public recognizer
    given ``g`` must see it."""
    facts = _PartFacts(g)
    whole = frozenset(g.edges)
    facts.views[(whole, _NO_VERTICES)] = g
    return facts, whole


def is_artery(g: OrientedHypergraph) -> bool:
    """A single vertex, or an iterated subdivision of a k-edge (k >= 2).

    Equivalently: the bipartite representation is a tree, every vertex has
    degree 1 or 2, and every edge has at least two incidences.
    """
    if len(g.vertices) == 1 and not g.edges and not g.incidences:
        return True
    if not g.edges or not g.vertices or not _is_tree(g):
        return False
    for v in g.vertices:
        if g.degree(v) not in (1, 2):
            return False
    for e in g.edges:
        if g.edge_size(e) < 2:
            return False
    return True


def _is_tree(g: OrientedHypergraph) -> bool:
    """The bipartite representation is a tree: |I| = |V| + |E| - 1 and
    cyclomatic number 0."""
    return (len(g.incidences) == len(g.vertices) + len(g.edges) - 1
            and cyclomatic_number(g) == 0)


def artery_external_vertices(g: OrientedHypergraph) -> frozenset[str]:
    """Attachment points of an artery: its vertices of degree 1.

    A single-vertex artery is its own attachment point.
    """
    if len(g.vertices) == 1 and not g.edges:
        return frozenset(g.vertices)
    return frozenset(v for v in g.vertices if g.degree(v) == 1)


# ---------------------------------------------------------------------------
# Shunting decompositions


@dataclass(frozen=True)
class ShuntingDecomposition:
    """Named parts of a shunting: flower parts, arteries, and the wiring.

    ``flowers`` lists the edge ids of each flower or pseudo-flower part;
    ``arteries`` the edge ids of each edge-artery; ``vertex_arteries`` the
    single-vertex arteries.  ``pairing`` maps each shunt-side incidence id
    to the balancing-set incidence id it meets at a shared vertex.
    """

    flowers: tuple[frozenset[str], ...]
    arteries: tuple[tuple[str, ...], ...]
    vertex_arteries: tuple[str, ...]
    balancing_set: frozenset[str]
    thorns: frozenset[str]
    pairing: dict[str, str]

    @classmethod
    def build(cls, flowers: Iterable[Iterable[str]],
              arteries: Iterable[Iterable[str]] = (),
              vertex_arteries: Iterable[str] = (),
              balancing_set: Iterable[str] = (),
              thorns: Iterable[str] = (),
              pairing: dict[str, str] | None = None) -> "ShuntingDecomposition":
        return cls(tuple(frozenset(f) for f in flowers),
                   tuple(tuple(a) for a in arteries),
                   tuple(vertex_arteries),
                   frozenset(balancing_set),
                   frozenset(thorns),
                   dict(pairing or {}))

    def to_json(self) -> str:
        payload = {
            "flowers": [sorted(f) for f in self.flowers],
            "arteries": [list(a) for a in self.arteries],
            "vertex_arteries": list(self.vertex_arteries),
            "balancing_set": sorted(self.balancing_set),
            "thorns": sorted(self.thorns),
            "pairing": {k: self.pairing[k] for k in sorted(self.pairing)},
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ShuntingDecomposition":
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # as ``model.parse``
            raise InputError(f"decomposition is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InputError("decomposition JSON must be an object")
        keys = {"flowers", "arteries", "vertex_arteries", "balancing_set",
                "thorns", "pairing"}
        extra = set(payload) - keys
        missing = keys - set(payload)
        if extra or missing:
            parts = []
            if missing:
                parts.append(f"missing keys {sorted(missing)}")
            if extra:
                parts.append(f"unknown keys {sorted(extra)}")
            raise InputError("decomposition JSON: " + "; ".join(parts))

        def ids(value, what: str) -> list[str]:
            if not (isinstance(value, list)
                    and all(isinstance(x, str) for x in value)):
                raise InputError(
                    f"decomposition JSON: {what} must be a list of ids")
            return value

        def id_lists(key: str) -> list[list[str]]:
            if not isinstance(payload[key], list):
                raise InputError(
                    f"decomposition JSON: {key!r} must be a list of id lists")
            return [ids(part, f"each entry of {key!r}") for part in payload[key]]

        pairing = payload["pairing"]
        if not (isinstance(pairing, dict)
                and all(isinstance(v, str) for v in pairing.values())):
            raise InputError("decomposition JSON: 'pairing' must map ids to ids")
        return cls.build(id_lists("flowers"), id_lists("arteries"),
                         ids(payload["vertex_arteries"], "'vertex_arteries'"),
                         ids(payload["balancing_set"], "'balancing_set'"),
                         ids(payload["thorns"], "'thorns'"), pairing)


@dataclass(frozen=True)
class Check:
    """One validation line: a named condition, its verdict, and a witness."""

    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ShuntingReport:
    """Full validation verdict with one entry per checked condition."""

    ok: bool
    checks: tuple[Check, ...]

    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> str:
        payload = {
            "ok": self.ok,
            "checks": [{"name": c.name, "passed": c.passed,
                        "detail": c.detail} for c in self.checks],
        }
        return json.dumps(payload, indent=2) + "\n"


def _check_ids(d: ShuntingDecomposition, g: OrientedHypergraph) -> None:
    for e in chain(*d.flowers, *map(frozenset, d.arteries)):
        if e not in g.edges:
            raise InputError(f"decomposition names unknown edge {e!r}")
    for v in d.vertex_arteries:
        if v not in g.vertices:
            raise InputError(f"decomposition names unknown vertex {v!r}")
    for i in d.balancing_set:
        g.incidence(i)
    for v in d.thorns:
        if v not in g.vertices:
            raise InputError(f"decomposition names unknown thorn {v!r}")
    for k, v in d.pairing.items():
        g.incidence(k)
        g.incidence(v)


def _attachments(d: ShuntingDecomposition,
                 facts: _PartFacts) -> dict[str, list[int]]:
    """Each vertex that a flower part holds or an edge-artery ends at, with
    the indexes of those parts in ascending order: flower part k is k and
    artery k is ``len(d.flowers) + k``."""
    at: dict[str, list[int]] = {}
    parts = ([facts.view(frozenset(part)).vertices for part in d.flowers]
             + [facts.ends(frozenset(part)) for part in d.arteries])
    for k, vertices in enumerate(parts):
        for v in vertices:
            at.setdefault(v, []).append(k)
    return at


def validate_shunting(d: ShuntingDecomposition,
                      g: OrientedHypergraph) -> ShuntingReport:
    """Check a decomposition against the three shunting conditions.

    Also verifies the structural side facts: parts are disjoint and cover
    the hypergraph, each flower part really is a balanceable flower or
    pseudo-flower with no balanced plain flower, each artery really is an
    artery, and the declared balancing set and thorns are what they claim.

    Every id the decomposition names is checked against ``g`` first; the
    parts are then read as trusted views of ``g``.  Facts about one part
    (flower, thorns, balance, balancing sets) are computed once per call.
    """
    return _validate(d, g, _PartFacts(g))


def _validate(d: ShuntingDecomposition, g: OrientedHypergraph,
              facts: _PartFacts) -> ShuntingReport:
    """``validate_shunting`` with part facts read from a memo on ``g``."""
    _check_ids(d, g)
    checks: list[Check] = []

    flowers = [frozenset(part) for part in d.flowers]
    arteries = [frozenset(part) for part in d.arteries]
    flower_vertices = [frozenset(facts.view(p).vertices) for p in flowers]
    artery_vertices = [frozenset(facts.view(p).vertices) for p in arteries]
    artery_ends = [facts.ends(part) for part in arteries]

    # Disjointness: flower parts share no edges; vertices are shared only
    # at declared single-vertex arteries; edge-arteries meet parts only at
    # their external vertices and meet each other nowhere.
    problems = []
    all_flower_edges: set[str] = set()
    for part in flowers:
        dup = all_flower_edges & part
        if dup:
            problems.append(f"edge(s) {sorted(dup)} in two flower parts")
        all_flower_edges |= part
    artery_edges: set[str] = set()
    for part in d.arteries:
        for e in part:
            if e in artery_edges:
                problems.append(f"edge {e!r} in two arteries")
            if e in all_flower_edges:
                problems.append(f"edge {e!r} in a flower part and an artery")
            artery_edges.add(e)
    vertex_artery_set = set(d.vertex_arteries)
    for a, b in combinations(range(len(flowers)), 2):
        undeclared = (flower_vertices[a] & flower_vertices[b]
                      - vertex_artery_set)
        if undeclared:
            problems.append(
                f"flower parts {a} and {b} share vertex(es) "
                f"{sorted(undeclared)} without a vertex-artery")
    for idx, (vertices, ends) in enumerate(zip(artery_vertices, artery_ends)):
        for part_vertices in flower_vertices:
            bad = (vertices - ends) & part_vertices
            if bad:
                problems.append(
                    f"artery {idx} internal vertex(es) {sorted(bad)} "
                    f"belong to a flower part")
    for a, b in combinations(range(len(arteries)), 2):
        shared = artery_vertices[a] & artery_vertices[b]
        if shared:
            problems.append(
                f"arteries {a} and {b} share vertex(es) {sorted(shared)}")
    checks.append(Check("parts-disjoint", not problems, "; ".join(problems)))

    # Coverage: the parts together are exactly G.
    missing_edges = set(g.edges) - all_flower_edges - artery_edges
    missing_vertices = set(g.vertices).difference(
        vertex_artery_set, *flower_vertices, *artery_vertices)
    cover_notes = []
    if missing_edges:
        cover_notes.append(f"uncovered edge(s) {sorted(missing_edges)}")
    if missing_vertices:
        cover_notes.append(f"uncovered vertex(es) {sorted(missing_vertices)}")
    checks.append(Check("coverage", not cover_notes, "; ".join(cover_notes)))

    # Part recognition.
    notes = [f"part {idx} {note}" for idx, part in enumerate(flowers)
             for note in facts.part_notes(part)]
    checks.append(Check("flower-parts", not notes, "; ".join(notes)))

    notes = [f"artery {idx} is not an artery"
             for idx, part in enumerate(arteries) if not facts.artery(part)]
    checks.append(Check("arteries", not notes, "; ".join(notes)))

    # Declared thorns match the computed ones.
    computed_thorns = set().union(*map(facts.part_thorns, flowers))
    thorns_ok = computed_thorns == set(d.thorns)
    checks.append(Check(
        "thorns", thorns_ok,
        "" if thorns_ok else f"computed {sorted(computed_thorns)}, "
                             f"declared {sorted(d.thorns)}"))

    # The balancing set lies in the flower parts and balances each (an id
    # outside a part has mask 0 there).  The union may still be
    # unbalanceable when a shunt closes a bad circle (is_balanceable_shunting).
    notes = []
    outside = [i for i in d.balancing_set
               if g.incidence(i).edge not in all_flower_edges]
    if outside:
        notes.append(f"balancing incidence(s) {sorted(outside)} "
                     f"outside flower parts")
    else:
        for idx, part in enumerate(flowers):
            if not facts.balancing(part, d.balancing_set):
                notes.append(f"declared set does not balance part {idx}")
    checks.append(Check("balancing-set", not notes, "; ".join(notes)))

    # Condition 1: connected union, and connected through the shunt
    # attachments specifically.  Every part must be reachable along the
    # attachment structure (parts as nodes, balancing/thorn vertices as
    # junction edges), and that structure must be acyclic: a junction a
    # part merely passes through, or a second junction closing a ring
    # between the same two parts, would let the union count as connected
    # while the shunt wiring is not a tree.
    cond1_notes = []
    if facts.components != 1:
        cond1_notes.append(f"{facts.components} components")
    balancing_vertices = {g.incidence(i).vertex for i in d.balancing_set}
    at = _attachments(d, facts)
    parts_at = {u: at.get(u, [])
                for u in sorted(balancing_vertices | set(d.thorns))}
    groups = DisjointSets()
    cyclic = False
    for members in parts_at.values():
        for a, b in zip(members, members[1:]):
            if not groups.union(a, b):
                cyclic = True
    roots = {groups.find(i) for i in range(len(flowers) + len(arteries))}
    if len(roots) > 1:
        cond1_notes.append("attachment structure leaves "
                           f"{len(roots)} part groups unconnected")
    if cyclic:
        cond1_notes.append("attachment structure closes a ring")
    checks.append(Check("condition-1-connected", not cond1_notes,
                        "; ".join(cond1_notes)))

    # Condition 2: external artery vertices are exactly V(B) union thorns,
    # counted with multiplicity.  Each balancing incidence and each thorn
    # claims one attachment slot; a path artery offers one slot per external
    # vertex, and a single-vertex artery is a degenerate path whose two ends
    # both sit at its vertex, so it offers that vertex twice.  Multiset
    # equality is what keeps a junction from serving three or more parts.
    externals = (Counter(dict.fromkeys(vertex_artery_set, 2))
                 + Counter(chain(*artery_ends)))
    target = Counter([g.incidence(i).vertex for i in d.balancing_set]
                     + list(d.thorns))
    cond2 = externals == target
    checks.append(Check(
        "condition-2-externals", cond2,
        "" if cond2 else f"artery attachments {sorted(externals.elements())} "
                         f"vs balancing/thorn vertices "
                         f"{sorted(target.elements())}"))

    # Condition 3: the pairing is a bijection between the balancing set
    # and shunt-side incidences at coinciding vertices.  For an edge
    # artery the shunt side is one of its incidences; for a single-vertex
    # artery it is the incidence of the other part sharing that vertex.
    notes = []
    values = list(d.pairing.values())
    if set(values) != set(d.balancing_set) or len(values) != len(set(values)):
        notes.append("pairing values are not a bijection onto the "
                     "balancing set")
    artery_inc_ids = {i.id for i in g.incidences if i.edge in artery_edges}
    for shunt_id, bal_id in d.pairing.items():
        shunt, bal = g.incidence(shunt_id), g.incidence(bal_id)
        if shunt.vertex != bal.vertex:
            notes.append(f"pair ({shunt_id}, {bal_id}) vertices differ")
        if shunt_id in artery_inc_ids:
            continue
        if shunt.vertex in vertex_artery_set \
                and shunt.edge in all_flower_edges \
                and shunt.edge != bal.edge:
            continue
        notes.append(f"{shunt_id} is not a shunt-side incidence")
    for i in g.incidences:
        if i.id in artery_inc_ids and i.vertex in balancing_vertices \
                and i.id not in d.pairing:
            notes.append(f"artery incidence {i.id} at balancing vertex "
                         f"{i.vertex} is unpaired")
    for u, members in parts_at.items():
        if len(members) != 2:
            notes.append(f"attachment {u} serves {len(members)} "
                         f"part(s); exactly 2 required")
    checks.append(Check("condition-3-pairing", not notes, "; ".join(notes)))

    return ShuntingReport(all(c.passed for c in checks), tuple(checks))


# ---------------------------------------------------------------------------
# Shunt path classification


@dataclass(frozen=True)
class ShuntPath:
    """A minimal shunt path between two attachment vertices.

    ``label`` concatenates the endpoint roles (t for thorn, b for a
    balancing-set vertex) in sorted order; ``internal`` says whether both
    ends attach to the same flower part.
    """

    endpoints: tuple[str, str]
    edges: tuple[str, ...]
    label: str
    internal: bool


def classify_shunt_paths(d: ShuntingDecomposition,
                         g: OrientedHypergraph) -> list[ShuntPath]:
    """Label every minimal shunt path by its endpoint roles."""
    return _shunt_paths(d, _PartFacts(g))


def _shunt_paths(d: ShuntingDecomposition,
                 facts: _PartFacts) -> list[ShuntPath]:
    """``classify_shunt_paths`` with views, artery ends and part thorns read
    from a memo on ``g``.  A vertex's role is t (thorn), b (balancing-set
    vertex) or ? (neither); a label joins two roles, ? before t before b."""
    g = facts.g
    at = _attachments(d, facts)
    vb = {g.incidence(i).vertex for i in d.balancing_set}

    def flowers_at(v: str) -> list[int]:
        return [k for k in at.get(v, ()) if k < len(d.flowers)]

    def role(v: str, thorns: frozenset[str]) -> str:
        return "t" if v in thorns else "b" if v in vb else "?"

    def label(roles) -> str:
        return "".join(sorted(roles, key="?tb".index))

    out: list[ShuntPath] = []
    for part in map(frozenset, d.arteries):
        ends = sorted(facts.ends(part))
        # An artery is a tree: its own forest.
        forest = spanning_forest(facts.view(part)) if len(ends) > 1 else None
        for a, b in combinations(ends, 2):
            nodes, _ = forest.path_between((VERTEX, a), (VERTEX, b))
            edges = tuple(nid for kind, nid in nodes if kind == EDGE)
            internal = bool(set(flowers_at(a)) & set(flowers_at(b)))
            out.append(ShuntPath((a, b), edges, label(
                role(a, d.thorns) + role(b, d.thorns)), internal))
    for v in d.vertex_arteries:
        roles = [role(v, facts.part_thorns(frozenset(d.flowers[k])))
                 for k in flowers_at(v)]
        out.append(ShuntPath((v, v), (), label(roles[:2])
                             if len(roles) >= 2 else "?", False))
    return out


def is_balanceable_shunting(d: ShuntingDecomposition,
                            g: OrientedHypergraph) -> bool:
    """Balanceability of the assembled shunting, computed two ways.

    The direct route runs the flow-based obstruction search on the union;
    the structural route demands that every artery edge lying on a circle
    appears only in paths between two thorns.  The two answers are
    required to agree.
    """
    return _is_balanceable_shunting(d, _PartFacts(g))


def _is_balanceable_shunting(d: ShuntingDecomposition,
                             facts: _PartFacts) -> bool:
    """``is_balanceable_shunting`` on a memo on ``g``: the direct verdict is
    that on the part of all its edges, and the shunt paths are read on it."""
    g = facts.g
    direct = facts.balanceable(frozenset(g.edges))
    on_circle = _circle_edges(g)
    structural = True
    for path in _shunt_paths(d, facts):
        if path.label != "tt" and on_circle.intersection(path.edges):
            structural = False
            break
    if direct != structural:
        raise RuntimeError(
            "balanceability routes disagree: direct flow check says "
            f"{direct}, tt-path criterion says {structural}")
    return direct


# ---------------------------------------------------------------------------
# Optimality


def is_F_maximal(d: ShuntingDecomposition, g: OrientedHypergraph) -> bool:
    """No union of flower parts with artery edges forms a (pseudo-)flower.

    Ranges over every nonempty subset of flower parts paired with every
    nonempty subset of artery edges; single-vertex arteries contribute no
    edges so they never enter the union.  More than
    ``MAX_F_MAXIMALITY_CHECKS`` pairs raise ResourceError.
    """
    return _is_F_maximal(d, _PartFacts(g))


def _is_F_maximal(d: ShuntingDecomposition, facts: _PartFacts) -> bool:
    """``is_F_maximal`` with the verdicts on each union read from a memo
    on ``g``."""
    artery_edges = sorted(e for part in d.arteries for e in part)
    if not artery_edges or not d.flowers:
        return True
    total = (2 ** len(d.flowers) - 1) * (2 ** len(artery_edges) - 1)
    if total > MAX_F_MAXIMALITY_CHECKS:
        raise ResourceError(
            f"F-maximality needs {total} subset pairs "
            f"({len(d.flowers)} parts, {len(artery_edges)} artery edges); "
            f"the cap is {MAX_F_MAXIMALITY_CHECKS}")
    for p_size in range(1, len(d.flowers) + 1):
        for parts in combinations(d.flowers, p_size):
            base = frozenset().union(*parts)
            for a_size in range(1, len(artery_edges) + 1):
                for extra in combinations(artery_edges, a_size):
                    edges = base.union(extra)
                    if facts.flower(edges) or facts.pseudo_flower(edges):
                        return False
    return True


def is_S_minimal(d: ShuntingDecomposition, g: OrientedHypergraph) -> bool:
    """The declared set balances g and no proper subset does (circle rule)."""
    return _is_S_minimal(d, _PartFacts(g))


def _is_S_minimal(d: ShuntingDecomposition, facts: _PartFacts) -> bool:
    """``is_S_minimal`` with the masks of ``g`` read from a memo on it, as
    those of the part of all its edges: the vertices on no edge that its
    view drops close no circle."""
    g = facts.g
    return _is_minimal_balancing(g, _check_incidence_ids(g, d.balancing_set),
                                 facts.masks(frozenset(g.edges)))


def is_optimal_shunting(d: ShuntingDecomposition, g: OrientedHypergraph
                        ) -> bool:
    """F-maximal and S-minimal at once, after validation."""
    facts = _PartFacts(g)
    if not _validate(d, g, facts).ok:
        return False
    return _is_F_maximal(d, facts) and _is_S_minimal(d, facts)


def verify_shunting(d: ShuntingDecomposition, g: OrientedHypergraph
                    ) -> tuple[ShuntingReport, bool | None, bool | None]:
    """Validation, balanceability and optimality of a decomposition of g,
    from one memo on g: the last two are None when validation fails."""
    facts = _PartFacts(g)
    report = _validate(d, g, facts)
    if not report.ok:
        return report, None, None
    return (report, _is_balanceable_shunting(d, facts),
            _is_F_maximal(d, facts) and _is_S_minimal(d, facts))


# ---------------------------------------------------------------------------
# Decomposition search


DEFAULT_SEARCH_BUDGET = 20_000


@dataclass(frozen=True)
class DecompositionSearch:
    """Outcome of the bounded search: a decomposition or an honest miss.

    A None in ``found`` never disproves anything; ``reason`` says whether
    the budget ran out or the bounded space was exhausted.
    """

    found: ShuntingDecomposition | None
    inspected: int
    reason: str


class _BudgetExhausted(Exception):
    pass


def _flower_part_candidates(g: OrientedHypergraph, spend, facts: _PartFacts
                            ) -> list[frozenset[str]]:
    """Edge subsets that could serve as flower parts, ascending by size and
    then by sorted ids.

    A candidate is a balanceable flower or pseudo-flower, with no balanced
    plain flower admitted.  It is connected, and every vertex of it has
    degree at most 2.  So the parts are grown one adjacent edge at a time,
    size by size, each produced once (ESU: Wernicke, "Efficient detection
    of network motifs", 2006).  The degree rule is hereditary, as no
    superset of a part that breaks it keeps it, so such a part is not
    grown further.

    A part whose bipartite representation is a tree (I = V + E - 1
    incidences) is a candidate only if it is a 1-edge (I = 1), so other
    tree parts are dropped before any view is built.  Proof: with I = 0
    the part is one edge with no incidence, a balanced flower; with
    I >= 2 the tree has a leaf on one incidence, so the part is not
    inseparable and not a flower, and it has no circle, hence no thorns
    and no pseudo-flower.

    Parts have at most ``DEFAULT_MAX_FLOWER_EDGES`` edges, and one unit per
    edge combination up to that size is spent in one lump before any part
    is grown.
    """
    ids = sorted(g.edges)
    m, top = len(ids), min(len(ids), DEFAULT_MAX_FLOWER_EDGES)
    spend(sum(comb(m, size) for size in range(1, top + 1)))
    index = {e: k for k, e in enumerate(ids)}
    ends: list[list[str]] = [[] for _ in ids]
    at: dict[str, set[int]] = {}
    for inc in g.incidences:
        ends[index[inc.edge]].append(inc.vertex)
        at.setdefault(inc.vertex, set()).add(index[inc.edge])
    near = [set().union(*(at[v] for v in ends[k])) - {k} for k in range(m)]

    def grown(degree: dict[str, int], k: int) -> dict[str, int] | None:
        """``degree`` with edge k added; None past degree 2."""
        degree = dict(degree)
        for v in ends[k]:
            degree[v] = degree.get(v, 0) + 1
            if degree[v] > 2:
                return None
        return degree

    # An ESU state: the part's edges in order, its vertex degrees, the
    # edges it may still grow by, the part with its neighbours, and its
    # least edge.
    def children(state):
        part, degree, ext, closed, root = state
        for n, w in enumerate(ext):
            after = grown(degree, w)
            if after is not None:
                yield (tuple(sorted((*part, w))), after, ext[:n] + [
                    u for u in near[w] if u > root and u not in closed],
                       closed | near[w], root)

    level = [((k,), start, [u for u in near[k] if u > k], near[k] | {k}, k)
             for k in range(m) if (start := grown({}, k)) is not None]
    out: list[frozenset[str]] = []
    for size in range(1, top + 1):
        if size > 1:
            level = [child for state in level for child in children(state)]
        if not level:
            break
        for part, degree, *_ in sorted(level, key=lambda state: state[0]):
            # A tree part other than a 1-edge is no candidate (above).
            incidences = sum(degree.values())
            if incidences == len(degree) + size - 1 and incidences != 1:
                continue
            edges = frozenset(ids[k] for k in part)
            if facts.balanceable(edges) and not facts.part_notes(edges):
                out.append(edges)
    return out


def _covers(g: OrientedHypergraph, ids: list[str],
            part_candidates: list[frozenset[str]], facts: _PartFacts, spend):
    """Yield (flower parts, artery components) for each full cover of the
    edges ``ids`` by disjoint candidate parts plus artery leftovers.

    Depth first, from an explicit stack so that no input meets the
    recursion limit: a state spends one unit, then tries each candidate
    part holding its first uncovered edge in turn and, last, that edge as
    an artery edge.
    """
    stack: list[tuple[list[frozenset[str]], frozenset[str]]] = [
        ([], frozenset())]
    while stack:
        parts, artery_edges = stack.pop()
        spend()
        free = next((e for e in ids
                     if e not in artery_edges
                     and all(e not in p for p in parts)), None)
        if free is None:
            comps = (_artery_components(g, facts, spend, artery_edges)
                     if parts else None)
            if comps is not None:
                yield parts, comps
            continue
        branches = [(parts + [cand], artery_edges) for cand in part_candidates
                    if free in cand and not any(
                        e in artery_edges or any(e in p for p in parts)
                        for e in cand)]
        branches.append((parts, artery_edges | {free}))
        stack.extend(reversed(branches))


def _artery_components(g: OrientedHypergraph, facts: _PartFacts, spend,
                       artery_edges: frozenset[str]
                       ) -> list[tuple[str, ...]] | None:
    """The components of the artery edges, each as sorted edge ids, one
    unit spent per component; None when one is no artery."""
    comps = []
    if artery_edges:
        for comp in gamma_components(edge_induced(g, artery_edges)):
            comp_edges = tuple(sorted(
                nid for kind, nid in comp if kind == EDGE))
            spend()
            if not facts.artery(frozenset(comp_edges)):
                return None
            comps.append(comp_edges)
    return comps


def _match_pairing(bal_ids: list[str], candidates: dict[str, list[str]],
                   required: set[str]) -> dict[str, str] | None:
    """Injective assignment of a distinct partner incidence to each
    balancing incidence, covering every required partner; None if stuck.

    Depth first over ``bal_ids`` in order, each trying its candidates in
    order, from an explicit stack so that no input meets the recursion
    limit.  The first full assignment is returned, keyed from the last
    balancing incidence to the first.
    """
    if not bal_ids:
        return {} if not required else None
    # trials[p] walks the candidates of bal_ids[p]; chosen holds the
    # partners picked for the positions before the last trial.
    chosen: list[str] = []
    used: set[str] = set()
    trials = [iter(candidates[bal_ids[0]])]
    while trials:
        key = next((k for k in trials[-1] if k not in used), None)
        if key is None:
            trials.pop()
            if chosen:
                used.discard(chosen.pop())
        elif len(trials) < len(bal_ids):
            chosen.append(key)
            used.add(key)
            trials.append(iter(candidates[bal_ids[len(trials)]]))
        elif required <= used | {key}:
            return dict(zip(reversed(chosen + [key]), reversed(bal_ids)))
    return None


def _assemble_candidate(g: OrientedHypergraph, facts: _PartFacts,
                        flower_parts: list[frozenset[str]],
                        arteries: list[tuple[str, ...]],
                        balancing: frozenset[str],
                        thorns: frozenset[str],
                        artery_edges: set[str]) -> ShuntingDecomposition | None:
    vb = {g.incidence(b).vertex for b in balancing}
    externals: set[str] = set()
    for part in arteries:
        externals |= facts.ends(frozenset(part))
    vertex_arteries = sorted((vb | thorns) - externals)

    part_of_edge = {e: k for k, part in enumerate(flower_parts) for e in part}
    va_set = set(vertex_arteries)
    candidates: dict[str, list[str]] = {}
    for b in sorted(balancing):
        b_inc = g.incidence(b)
        opts = []
        for i in g.incidences:
            if i.vertex != b_inc.vertex or i.id == b:
                continue
            if i.edge in artery_edges:
                opts.append(i.id)
            elif (b_inc.vertex in va_set and i.edge in part_of_edge
                  and part_of_edge[i.edge] != part_of_edge.get(b_inc.edge)):
                opts.append(i.id)
        candidates[b] = opts
    required = {i.id for i in g.incidences
                if i.edge in artery_edges and i.vertex in vb}
    pairing = _match_pairing(sorted(balancing), candidates, required)
    if pairing is None:
        return None
    return ShuntingDecomposition.build(
        flower_parts, arteries, vertex_arteries, balancing, thorns, pairing)


def find_shunting_decomposition(
        g: OrientedHypergraph,
        budget: int = DEFAULT_SEARCH_BUDGET) -> DecompositionSearch:
    """Bounded backtracking search for a shunting decomposition of g.

    Grows candidate flower parts (connected edge sets of vertex degree
    at most 2, up to ``DEFAULT_MAX_FLOWER_EDGES`` edges), covers the edge
    set with disjoint parts plus artery leftovers, then tries per-part
    minimal balancing sets and pairings until a decomposition validates
    and is optimal.  The candidate phase draws one unit per edge
    combination up to that size, in one lump before any part is grown;
    every cover state, balancing-set candidate and assembly draws more.
    Running out of budget, like a flower or F-maximality check past its
    cap, is reported as a miss, never as proof that no decomposition
    exists; past the budget ``inspected`` reads budget + 1, or more after
    a validation's ten-unit lump.

    Facts about one part (its view, flower and pseudo-flower verdicts,
    thorns, balance, minimal balancing sets) are memoised for the length
    of the call; a part met again draws down the budget as it did the
    first time.  A decomposition is returned only after a fresh
    ``validate_shunting`` accepts it too.
    """
    facts = _PartFacts(g)
    if facts.components != 1:
        return DecompositionSearch(
            None, 0, "no decomposition found (the union must be connected)")
    counter = {"spent": 0}

    def spend(units: int = 1) -> None:
        """Charge ``units`` one-unit spends at once: past the budget the
        count stops at budget + 1, where the first unit too many stops."""
        if counter["spent"] + units > budget:
            counter["spent"] = budget + 1
            raise _BudgetExhausted
        counter["spent"] += units

    ids = sorted(g.edges)

    try:
        part_candidates = _flower_part_candidates(g, spend, facts)
        for flower_parts, arteries in _covers(g, ids, part_candidates, facts,
                                              spend):
            thorns = frozenset().union(*[facts.part_thorns(p)
                                         for p in flower_parts])
            artery_edges = {e for part in arteries for e in part}
            choices = [facts.minimal_balancing_sets(p, spend)
                       for p in flower_parts]
            for combo in product(*choices):
                spend()
                balancing = frozenset().union(*combo)
                d = _assemble_candidate(g, facts, flower_parts, list(arteries),
                                        balancing, thorns, artery_edges)
                if d is None:
                    continue
                # A validation costs ten units in one lump, which may pass
                # the budget by more than one.
                counter["spent"] += 10
                if counter["spent"] > budget:
                    raise _BudgetExhausted
                if not _validate(d, g, facts).ok:
                    continue
                if not (_is_F_maximal(d, facts) and _is_S_minimal(d, facts)):
                    continue
                if not validate_shunting(d, g).ok:
                    raise RuntimeError(
                        "memoised and fresh validation disagree on the "
                        f"decomposition found for edges {ids}")
                return DecompositionSearch(d, counter["spent"], "found")
        return DecompositionSearch(
            None, counter["spent"],
            "no decomposition found: bounded search space exhausted")
    except _BudgetExhausted:
        return DecompositionSearch(
            None, counter["spent"], "no decomposition found within budget")
    except ResourceError as exc:
        return DecompositionSearch(
            None, counter["spent"], f"no decomposition found: {exc}")


# ---------------------------------------------------------------------------
# Upsilon tree


def upsilon_tree(d: ShuntingDecomposition,
                 g: OrientedHypergraph) -> OrientedHypergraph:
    """Attachment structure of a balanceable F-maximal shunting.

    Vertices are the flower parts (F0, F1, ...) and edge-arteries (A0,
    A1, ...); edges are the attachment vertices (balancing-set vertices
    and thorns); incidences record which part touches which attachment.
    Single-vertex arteries coincide with their attachment vertex and add
    no node of their own.  The result is asserted to be a tree in which
    every attachment edge has exactly two incidences.
    """
    facts = _PartFacts(g)
    report = _validate(d, g, facts)
    if not report.ok:
        raise InputError("decomposition is not a valid shunting: "
                         + "; ".join(c.name for c in report.failed()))
    if not _is_balanceable_shunting(d, facts):
        raise InputError("upsilon tree needs a balanceable shunting")
    if not _is_F_maximal(d, facts):
        raise InputError("upsilon tree needs an F-maximal shunting")

    names = ([f"F{k}" for k in range(len(d.flowers))]
             + [f"A{k}" for k in range(len(d.arteries))])
    at = _attachments(d, facts)
    attachments = sorted({g.incidence(i).vertex for i in d.balancing_set}
                         | set(d.thorns))
    touch = sorted((names[k], u) for u in attachments for k in at.get(u, ()))
    incs = [(f"y{n}", part, u, 1) for n, (part, u) in enumerate(touch, 1)]
    tree = OrientedHypergraph.build(names, attachments, incs)

    for u in attachments:
        if tree.edge_size(u) != 2:
            raise RuntimeError(
                f"attachment vertex {u!r} joins {tree.edge_size(u)} parts; "
                f"a balanceable F-maximal shunting must give exactly 2")
    if not _is_tree(tree):
        raise RuntimeError("attachment structure is not a tree")
    return tree


# ---------------------------------------------------------------------------
# Hypercircles


@dataclass(frozen=True)
class Hypercircle:
    """A fully contracted shunting with its two shape parameters.

    ``t`` counts monovalent vertices; ``k`` counts flower parts, read off
    as cyclic blocks plus 1-edges.
    """

    hypergraph: OrientedHypergraph
    t: int
    k: int


def to_hypercircle(g: OrientedHypergraph) -> Hypercircle:
    """Contract every eligible degree-2 vertex and report (t, k).

    A vertex is eligible when it joins two distinct edges that each keep
    at least two incidences, so pendant 1-edges survive as petals.
    Contractions switch signs as needed, which keeps every circle sign
    intact.

    One pass over the vertices in sorted order, each checked against the
    hypergraph contracted so far, makes the same contractions as
    contracting the least eligible vertex and scanning again until none
    is left.  Contracting v changes no other vertex's degree and merges
    two edges of size >= 2 into one of size >= 2; it can make another
    vertex's two edges one edge, but never splits an edge or shrinks one
    below 2.  So a vertex that is not eligible never becomes eligible,
    and after v the least eligible vertex is the next eligible one after
    v in sorted order.
    """
    current = g
    for v in sorted(g.vertices):
        incs = current.incidences_at(v)
        if (len(incs) == 2 and incs[0].edge != incs[1].edge
                and current.edge_size(incs[0].edge) >= 2
                and current.edge_size(incs[1].edge) >= 2):
            current = contract_degree2_vertex(current, v)
    t = sum(1 for v in current.vertices if current.degree(v) == 1)
    cyclic = sum(1 for blk in blocks(current) if len(blk) >= 2)
    one_edges = sum(1 for e in current.edges if current.edge_size(e) == 1)
    return Hypercircle(current, t, cyclic + one_edges)


# ---------------------------------------------------------------------------
# Arterial connection builder


@dataclass(frozen=True)
class ArterialConnection:
    """A built connection: the hypergraph plus per-connection artery data.

    ``arteries`` holds one entry per requested connection: the edge ids of
    the created path (empty for a length-0 merge) and the two attachment
    vertex ids in the assembled hypergraph.
    """

    hypergraph: OrientedHypergraph
    arteries: tuple[tuple[tuple[str, ...], tuple[str, str]], ...]


def build_arterial_connection(
        parts: Sequence[OrientedHypergraph],
        connections: Sequence[tuple[tuple[int, str], tuple[int, str], int]],
) -> ArterialConnection:
    """Assemble disjoint parts with arteries, creating no new circles.

    Each part's ids are prefixed ``p{i}.``.  A connection ((i, v), (j, w),
    length) joins vertex v of part i to vertex w of part j by a path of
    ``length`` 2-edges; length 0 identifies the two vertices (a
    single-vertex artery).  The connection pattern must be a forest over
    the parts, otherwise the assembly would close a circle.
    """
    for idx, ((pa, va), (pb, vb), length) in enumerate(connections):
        for p, v in ((pa, va), (pb, vb)):
            if not 0 <= p < len(parts):
                raise InputError(f"connection {idx} names part {p}")
            if v not in parts[p].vertices:
                raise InputError(
                    f"connection {idx} names vertex {v!r} absent from "
                    f"part {p}")
        if length < 0:
            raise InputError(f"connection {idx} has negative length")

    joined = DisjointSets()
    for idx, ((pa, _), (pb, _), _) in enumerate(connections):
        if not joined.union(pa, pb):
            raise InputError(
                f"connection {idx} closes a circle among the parts")

    vertices: list[str] = []
    edges: list[str] = []
    incs: list[tuple[str, str, str, int]] = []
    rename: dict[tuple[int, str], str] = {}
    for i, part in enumerate(parts):
        for v in part.vertices:
            rename[(i, v)] = f"p{i}.{v}"
            vertices.append(f"p{i}.{v}")
        for e in part.edges:
            edges.append(f"p{i}.{e}")
        for inc in part.incidences:
            incs.append((f"p{i}.{inc.id}", f"p{i}.{inc.vertex}",
                         f"p{i}.{inc.edge}", inc.sign))

    merged = DisjointSets()  # vertex names; a length-0 connection joins two
    artery_info: list[tuple[tuple[str, ...], tuple[str, str]]] = []
    for idx, ((pa, va), (pb, vb), length) in enumerate(connections):
        a = merged.find(rename[(pa, va)])
        b = merged.find(rename[(pb, vb)])
        if length == 0:
            merged.union(b, a)  # b's root joins a's: a keeps its name
            artery_info.append(((), (a, a)))
            continue
        chain = [a] + [f"a{idx}.w{n}" for n in range(1, length)] + [b]
        vertices.extend(chain[1:-1])
        edge_ids = []
        for n in range(length):
            e = f"a{idx}.e{n + 1}"
            edges.append(e)
            edge_ids.append(e)
            incs.append((f"a{idx}.i{n + 1}a", chain[n], e, 1))
            incs.append((f"a{idx}.i{n + 1}b", chain[n + 1], e, -1))
        artery_info.append((tuple(edge_ids), (a, b)))

    final_vertices = [v for v in vertices if merged.find(v) == v]
    final_incs = [(i, merged.find(v), e, s) for i, v, e, s in incs]
    final_info = tuple((edges_, (merged.find(x), merged.find(y)))
                       for edges_, (x, y) in artery_info)
    return ArterialConnection(
        OrientedHypergraph.build(final_vertices, edges, final_incs),
        final_info)


# ---------------------------------------------------------------------------
# Certified instance generator


def _negative_circle_part(rng: random.Random) -> tuple[OrientedHypergraph, list[str]]:
    """A negative circle of 2-edges with a single balancing incidence."""
    m = rng.randint(3, 5)
    vertices = [f"v{n}" for n in range(1, m + 1)]
    edges = [f"c{n}" for n in range(1, m + 1)]
    incs = []
    for n in range(m):
        e = edges[n]
        incs.append((f"i{n + 1}a", vertices[n], e, 1))
        incs.append((f"i{n + 1}b", vertices[(n + 1) % m], e, -1))
    g = OrientedHypergraph.build(vertices, edges, incs)
    flip = rng.randrange(m)
    side = rng.choice("ab")
    victim = f"i{flip + 1}{side}"
    g = g.with_signs({victim: -g.sign_of(victim)})
    return g, [victim]


def _theta_flower_part(rng: random.Random) -> tuple[OrientedHypergraph, list[str]]:
    """Two 3-edges joined by three 2-edge paths, with two circles negative.

    All signs start positive, which leaves every pair-of-paths circle
    positive; reversing one incidence on a chosen path turns exactly the
    two circles through that path negative.  The minimal balancing set of
    size 2 flips one incidence on each of the other two paths.
    """
    vertices = [f"v{j}" for j in (1, 2, 3)] + [f"w{j}" for j in (1, 2, 3)]
    edges = ["h1", "h2", "f1", "f2", "f3"]
    incs = []
    for j in (1, 2, 3):
        incs.append((f"t{j}", f"v{j}", "h1", 1))
        incs.append((f"u{j}", f"w{j}", "h2", 1))
        incs.append((f"m{j}a", f"v{j}", f"f{j}", 1))
        incs.append((f"m{j}b", f"w{j}", f"f{j}", -1))
    g = OrientedHypergraph.build(vertices, edges, incs)
    neg = rng.choice((1, 2, 3))
    g = g.with_signs({f"m{neg}a": -1})
    others = [j for j in (1, 2, 3) if j != neg]
    return g, [f"t{j}" for j in others]


def generate_optimal_shunting(
        seed: int = 0,
        flower_kind: str = "auto",
        artery_length: int | None = None,
) -> tuple[OrientedHypergraph, ShuntingDecomposition]:
    """A randomized certified instance: flower plus 1-edge pseudo-flowers.

    One balanceable unbalanced flower gets a 1-edge pseudo-flower at each
    balancing-set vertex, attached by a single-vertex artery or a path of
    the requested length.  The output always validates as an optimal
    shunting and its incidence matrix has nullity 1 over the rationals;
    the same seed reproduces the same instance byte for byte.
    """
    rng = random.Random(seed)
    if flower_kind == "auto":
        flower_kind = rng.choice(("circle", "theta"))
    if flower_kind == "circle":
        core, balancing = _negative_circle_part(rng)
    elif flower_kind == "theta":
        core, balancing = _theta_flower_part(rng)
    else:
        raise InputError(f"unknown flower kind {flower_kind!r}; "
                         "use 'circle', 'theta', or 'auto'")

    parts: list[OrientedHypergraph] = [core]
    connections = []
    lengths = []
    for bal_id in balancing:
        v = core.incidence(bal_id).vertex
        petal = OrientedHypergraph.build(
            ["x"], ["p"], [("q", "x", "p", rng.choice((1, -1)))])
        length = (rng.randint(0, 2) if artery_length is None
                  else artery_length)
        connections.append(((0, v), (len(parts), "x"), length))
        lengths.append(length)
        parts.append(petal)

    built = build_arterial_connection(parts, connections)
    g = built.hypergraph

    flowers = [frozenset(f"p0.{e}" for e in core.edges)]
    for n in range(1, len(parts)):
        flowers.append(frozenset({f"p{n}.p"}))
    arteries = []
    vertex_arteries = []
    thorns = []
    pairing = {}
    bal_ids = [f"p0.{i}" for i in balancing]
    for n, (edge_ids, (end_a, end_b)) in enumerate(built.arteries):
        petal_inc = f"p{n + 1}.q"
        if not edge_ids:
            vertex_arteries.append(end_a)
            thorns.append(end_a)
            pairing[petal_inc] = bal_ids[n]
        else:
            arteries.append(edge_ids)
            thorns.append(end_b)
            pairing[f"a{n}.i1a"] = bal_ids[n]

    d = ShuntingDecomposition.build(flowers, arteries, vertex_arteries,
                                    bal_ids, thorns, pairing)

    facts = _PartFacts(g)
    report = _validate(d, g, facts)
    if not report.ok:
        raise RuntimeError("generated decomposition failed validation: "
                           + "; ".join(c.name for c in report.failed()))
    if not (_is_F_maximal(d, facts) and _is_S_minimal(d, facts)):
        raise RuntimeError("generated decomposition is not optimal")
    matrix = incidence_matrix(g, Domain.rationals())
    if nullity(matrix.entries, matrix.domain) != 1:
        raise RuntimeError("generated instance is not nullity 1")
    return g, d
