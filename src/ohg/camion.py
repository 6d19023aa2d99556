"""Reorientation to balance, balancing sets, and frustration.

Reversing a well-chosen set of incidences turns any balanceable oriented
hypergraph into a balanced one.  The reorientation here walks a spanning
forest of the bipartite representation and flips exactly those non-forest
incidences whose fundamental circle comes out negative.  The set of flipped
incidences is a minimal balancing set, and minimizing its size over spanning
forests gives the frustration number.  One rule, proved at
``_balancing_circles``, decides every balancing set: reversing S balances H
exactly when H is balanceable and S meets each negative fundamental circle
of H's BFS forest an odd number of times, each positive one an even number.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .balance import is_balanceable
from .errors import InputError, ResourceError
from .gamma import (
    DisjointSets,
    Node,
    SpanningForest,
    _grow_forest,
    _index,
    fundamental_circle_signs,
    fundamental_cycle,
    gamma_components,
    spanning_forest,
)
from .model import (
    EDGE,
    VERTEX,
    Incidence,
    OrientedHypergraph,
    minimal_subsets,
    reverse_incidences,
)


class UnbalanceableError(InputError):
    """Raised when an operation needs a balanceable hypergraph and got none."""


@dataclass(frozen=True)
class CamionResult:
    """Outcome of a forest-guided reorientation.

    ``hypergraph`` carries the new signs, ``changed`` lists the reversed
    incidence ids, and ``balanced`` reports whether the result is balanced.
    By the balancing-set rule that is exactly when the input is balanceable,
    so the flag is that verdict and no balance test runs on the output.
    """

    hypergraph: OrientedHypergraph
    changed: frozenset[str]
    balanced: bool
    forest: SpanningForest


def camion_reorient(g: OrientedHypergraph,
                    forest: SpanningForest | None = None) -> CamionResult:
    """Reorient incidences so every fundamental circle of the forest is positive.

    Forest incidences keep their signs.  Each remaining incidence is set to
    the unique sign that makes its fundamental circle positive.  The changed
    set meets each negative fundamental circle once, at its own non-forest
    incidence, and each positive one never, so by the balancing-set rule it
    balances g exactly when g is balanceable, and is then a minimal one.
    """
    if forest is None:
        forest = spanning_forest(g, "bfs")
    changed = _negative_fundamental_circles(g, g.incidences, forest)
    return CamionResult(reverse_incidences(g, changed), frozenset(changed),
                        is_balanceable(g)[0], forest)


def _negative_fundamental_circles(g: OrientedHypergraph,
                                  incidences: Iterable[Incidence],
                                  forest: SpanningForest) -> list[str]:
    """Non-forest incidences among ``incidences`` whose fundamental circle
    is negative: exactly those a reorientation along the forest flips."""
    signs = fundamental_circle_signs(g, forest, incidences)
    return [inc.id for inc, sign in signs if sign == -1]


def signed_graph_balance(g: OrientedHypergraph,
                         forest: SpanningForest | None = None) -> CamionResult:
    """Forest-guided reorientation specialized to graphs.

    Requires every edge to have exactly two incidences; such inputs are
    always balanceable, so the result is always balanced.
    """
    if not g.is_two_uniform():
        raise InputError("signed_graph_balance needs every edge to have "
                         "exactly two incidences")
    return camion_reorient(g, forest)


# ---------------------------------------------------------------------------
# Balancing sets


def _check_incidence_ids(g: OrientedHypergraph, ids: Iterable[str]) -> frozenset[str]:
    out = frozenset(ids)
    for inc_id in out:
        g.incidence(inc_id)
    return out


def _balancing_circles(g: OrientedHypergraph, balanceable: bool | None = None
                       ) -> list[tuple[tuple[str, ...], int]] | None:
    """(incidence ids in path order, sign) of each fundamental circle of g's
    BFS forest, in g's incidence order; None when g is not balanceable (a
    caller that knows whether it is passes that in).

    The balancing-set rule (``_balances``): reversing S balances g exactly
    when g is balanceable and S meets each negative circle listed an odd
    number of times, each positive one an even number.  Proof: reversal
    keeps g's thetas and its BFS forest, which grows from ids alone, and
    each reversed incidence on a circle flips that circle's sign.  If g is
    not balanceable, the copy has a theta, hence a negative circle; if it
    is, so is the copy, where positive fundamental circles make every
    circle positive.  Nothing here needs the forest to be the BFS one.
    """
    if balanceable is None:
        balanceable = is_balanceable(g)[0]
    if not balanceable:
        return None
    forest = spanning_forest(g, "bfs")
    return [(tuple(fundamental_cycle(g, forest, inc.id)[1]), sign)
            for inc, sign in fundamental_circle_signs(g, forest)]


def _balances(circles: list | None, chosen: frozenset[str]) -> bool:
    """The balancing-set rule applied to ``_balancing_circles``' output."""
    return circles is not None and all(
        sign == (-1) ** len(chosen.intersection(incs)) for incs, sign in circles)


def is_balancing_set(g: OrientedHypergraph, ids: Iterable[str]) -> bool:
    """True when reversing exactly these incidences balances the hypergraph:
    it is balanceable and they meet each negative fundamental circle of its
    BFS forest an odd number of times, each positive one an even number."""
    return _balances(_balancing_circles(g), _check_incidence_ids(g, ids))


def is_minimal_balancing_set(g: OrientedHypergraph, ids: Iterable[str]) -> bool:
    """True when ``ids`` is a balancing set and no proper subset is one.

    A balancing set S is minimal exactly when, in the union-find over the
    incidences outside S, the two ends of every incidence of S are already
    joined.  Proof: g is balanceable.  Switching the nodes on one side of a
    cut reverses exactly the cut's incidences and keeps every circle's
    sign, and two balancing sets differ by a cut.  So a proper subset T of
    S balances g exactly when S - T is a nonempty cut, and S contains a
    nonempty cut exactly when deleting S splits a component.  Put S back
    one incidence at a time into the union-find over the others: each joins
    two sets or none, so no component is split exactly when none joins two,
    that is, when each finds its ends already joined.
    """
    return _is_minimal_balancing(g, _check_incidence_ids(g, ids),
                                 _balancing_circles(g))


def _is_minimal_balancing(g: OrientedHypergraph, chosen: frozenset[str],
                          circles: list | None) -> bool:
    """``is_minimal_balancing_set`` on g's ``_balancing_circles``, which a
    caller that holds them already passes in."""
    if not _balances(circles, chosen):
        return False
    sets = DisjointSets()
    # A stable sort puts the incidences outside S first.
    for inc in sorted(g.incidences, key=lambda inc: inc.id in chosen):
        if sets.union((VERTEX, inc.vertex), (EDGE, inc.edge)) and inc.id in chosen:
            return False
    return True


@dataclass(frozen=True)
class BalancingSetDifference:
    """Symmetric difference of two balancing sets, as a binary vector.

    ``vector`` follows the hypergraph's stored incidence order.  The
    difference of two balancing sets always lies in the cut space of the
    bipartite representation; ``in_cut_space`` reports the verification,
    with a fundamental circle of odd overlap as counterexample otherwise.
    """

    vector: tuple[int, ...]
    incidences: tuple[str, ...]
    in_cut_space: bool
    counterexample: tuple[str, ...] | None


def balancing_set_difference(g: OrientedHypergraph,
                             first: Iterable[str],
                             second: Iterable[str]) -> BalancingSetDifference:
    """Symmetric difference of two balancing sets with a cut-space check.

    Membership in the cut space is verified by orthogonality against every
    fundamental circle of the BFS forest, which spans the cycle space.
    """
    a = _check_incidence_ids(g, first)
    b = _check_incidence_ids(g, second)
    circles = _balancing_circles(g)
    if not _balances(circles, a):
        raise InputError("first incidence set is not a balancing set")
    if not _balances(circles, b):
        raise InputError("second incidence set is not a balancing set")
    diff = a ^ b
    vector = tuple(1 if inc.id in diff else 0 for inc in g.incidences)
    counterexample = next((incs for incs, _ in circles
                           if len(diff.intersection(incs)) % 2), None)
    return BalancingSetDifference(vector, tuple(sorted(diff)),
                                  counterexample is None, counterexample)


# ---------------------------------------------------------------------------
# Frustration


@dataclass(frozen=True)
class FrustrationResult:
    """A frustration value with its witness balancing set.

    ``exact`` is True when the value is the true minimum; search modes that
    stop early report an upper bound instead and say so.  ``evaluations``
    counts candidate sets or spanning trees inspected, depending on mode.
    """

    value: int
    witness: tuple[str, ...]
    mode: str
    exact: bool
    evaluations: int
    seed: int | None = None


def _frustration_exact(g: OrientedHypergraph,
                       budget: int | None) -> FrustrationResult:
    circles = _balancing_circles(g, balanceable=True)  # checked by the caller
    ids = sorted(inc.id for inc in g.incidences)
    evaluations = 0

    def count(combo: tuple[str, ...]) -> None:
        nonlocal evaluations
        evaluations += 1
        if budget is not None and evaluations > budget:
            raise ResourceError(
                f"exact frustration budget of {budget} candidate sets "
                f"exhausted at size {len(combo)}")

    # g is balanceable, so the reorientation's change set balances it.
    combo = next(minimal_subsets(
        ids, lambda c: _balances(circles, frozenset(c)),
        range(len(ids) + 1), count))
    return FrustrationResult(len(combo), combo, "exact", True, evaluations)


def _component_partition(g: OrientedHypergraph
                          ) -> list[tuple[list[Node], list[Incidence]]]:
    """(nodes, incidences) per connected component, in order of each
    component's first node."""
    comps = []
    for nodes in gamma_components(g):
        node_set = set(nodes)
        comps.append((nodes, [inc for inc in g.incidences
                              if (VERTEX, inc.vertex) in node_set]))
    return comps


DEFAULT_TREE_CAP = 100_000


def _frustration_trees(g: OrientedHypergraph,
                       budget: int | None) -> FrustrationResult:
    cap = DEFAULT_TREE_CAP if budget is None else budget
    inspected = 0
    exact = True
    total = 0
    witness: list[str] = []
    position = {inc.id: k for k, inc in enumerate(g.incidences)}
    for nodes, incs in _component_partition(g):
        best: list[str] | None = None
        # A component's spanning trees are its acyclic sets of |nodes| - 1
        # incidences.
        for combo in combinations(sorted(incs, key=lambda i: i.id),
                                  len(nodes) - 1):
            if inspected >= cap:
                exact = False
                break
            sets = DisjointSets()
            if not all(sets.union((VERTEX, i.vertex), (EDGE, i.edge))
                       for i in combo):
                continue
            inspected += 1
            # A trusted view keeps its parent's incidence order.
            tree = OrientedHypergraph._trusted(
                g.vertices, g.edges,
                tuple(sorted(combo, key=lambda i: position[i.id])))
            changed = _negative_fundamental_circles(
                g, incs, spanning_forest(tree))
            if best is None or len(changed) < len(best):
                best = changed
                if not best:
                    break
        if best is None:  # the cap ran out before the first tree
            best = _negative_fundamental_circles(g, incs, spanning_forest(g))
            exact = False
        total += len(best)
        witness.extend(best)
    return FrustrationResult(total, tuple(sorted(witness)), "trees", exact,
                             inspected)


def _star_sets(g: OrientedHypergraph) -> list[frozenset[str]]:
    """Incidence stars of vertices then edges, each a switching move."""
    at = {(VERTEX, v): [] for v in sorted(g.vertices)}
    at.update({(EDGE, e): [] for e in sorted(g.edges)})
    for inc in g.incidences:
        at[(VERTEX, inc.vertex)].append(inc.id)
        at[(EDGE, inc.edge)].append(inc.id)
    return [frozenset(ids) for ids in at.values()]


def _hill_climb(start: frozenset[str], stars: Sequence[frozenset[str]],
                where: dict[str, list[int]], evaluations: int,
                budget: int) -> tuple[frozenset[str], int]:
    """Switch by the first star that shrinks the set, pass after pass.

    A pass tries the stars in order, one evaluation each, and moves by the
    first improving one; a pass with none ends the climb, as does the
    budget.  Switching by star T shrinks S exactly when 2|S & T| > |T|, so
    with each star's overlap with S kept (an incidence lies in the two
    stars ``where`` names) the first improving star is the least index in
    ``better``, and a pass costs its evaluations in one step.
    """
    current = set(start)
    overlap = [0] * len(stars)
    for inc in current:
        for k in where[inc]:
            overlap[k] += 1
    better = {k for k, star in enumerate(stars) if 2 * overlap[k] > len(star)}
    while evaluations < budget:
        if not better:
            evaluations += min(len(stars), budget - evaluations)
            break
        k = min(better)
        if evaluations + k + 1 > budget:  # the budget ends before star k
            evaluations = budget
            break
        evaluations += k + 1
        for inc in stars[k]:
            if inc in current:
                current.remove(inc)
                step = -1
            else:
                current.add(inc)
                step = 1
            for j in where[inc]:
                overlap[j] += step
                if 2 * overlap[j] > len(stars[j]):
                    better.add(j)
                else:
                    better.discard(j)
    return frozenset(current), evaluations


def _local_starts(g: OrientedHypergraph, seed: int) -> Iterator[frozenset[str]]:
    """The change sets of reorientations along the BFS forest, then along
    random forests seeded seed + 1, seed + 2, ...: the local search's
    starts.  The reoriented hypergraphs themselves are not needed.

    Every forest grows on one integer index of g, built before the first
    start, and each start is read off the forest's arrays: the non-forest
    incidence positions whose fundamental circle is negative.
    """
    index = _index(g)
    ids = index.ids
    rows = [(k, a, b, s) for k, ((a, b), s)
            in enumerate(zip(index.ends, index.signs))]
    everything = frozenset(range(len(rows)))
    forest = _grow_forest(index, "bfs", 0)
    while True:
        outside = everything.difference(forest.via)
        yield frozenset([ids[k] for k, sign in forest._signs(
            map(rows.__getitem__, outside)) if sign == -1])
        seed += 1
        forest = _grow_forest(index, "random", seed)


def _frustration_local(g: OrientedHypergraph, budget: int | None,
                       seed: int) -> FrustrationResult:
    """Hill climbs from ``_local_starts``, one start after another while
    the budget lasts and the best set is nonempty."""
    cap = 10_000 if budget is None else budget
    stars = _star_sets(g)
    where: dict[str, list[int]] = {inc.id: [] for inc in g.incidences}
    for k, star in enumerate(stars):
        for inc in star:
            where[inc].append(k)
    starts = _local_starts(g, seed)
    best, evaluations = _hill_climb(next(starts), stars, where, 0, cap)
    while evaluations < cap and best:
        found, evaluations = _hill_climb(next(starts), stars, where,
                                         evaluations, cap)
        if len(found) < len(best):
            best = found
    return FrustrationResult(len(best), tuple(sorted(best)), "local_search",
                             len(best) == 0, evaluations, seed)


def frustration(g: OrientedHypergraph, mode: str = "exact",
                budget: int | None = None, seed: int = 0) -> FrustrationResult:
    """Smallest number of incidence reversals that balance the hypergraph.

    Three modes: ``exact`` tries candidate sets in ascending size and is
    guaranteed minimal; ``trees`` minimizes the reorientation change set
    over spanning forests, enumerated up to a cap; ``local_search`` improves
    a reorientation witness by switching moves within an evaluation budget.
    The latter two flag their answer as a bound when the search was cut off.
    Undefined for unbalanceable inputs.
    """
    if not is_balanceable(g)[0]:
        raise UnbalanceableError(
            "frustration is undefined: the hypergraph is not balanceable")
    if mode == "exact":
        return _frustration_exact(g, budget)
    if mode == "trees":
        return _frustration_trees(g, budget)
    if mode == "local_search":
        return _frustration_local(g, budget, seed)
    raise InputError(f"unknown mode {mode!r}; use 'exact', 'trees', "
                     "or 'local_search'")
