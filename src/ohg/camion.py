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
The local search and the spanning-tree search work on incidence positions
of ``gamma._index``, one index per call or per component, and read each
forest's change set off its arrays (``SpanningForest._changes``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, Iterator

from .balance import is_balanceable
from .errors import InputError, ResourceError
from .gamma import (
    DisjointSets,
    SpanningForest,
    _grow_forest,
    _index,
    _Index,
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
    changed = [inc.id for inc, sign in fundamental_circle_signs(g, forest)
               if sign == -1]
    return CamionResult(reverse_incidences(g, changed), frozenset(changed),
                        is_balanceable(g)[0], forest)


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


DEFAULT_TREE_CAP = 100_000


def _frustration_trees(g: OrientedHypergraph,
                       budget: int | None) -> FrustrationResult:
    """The least reorientation change set over spanning forests, one
    component at a time, each on its own view and index.

    A component's spanning trees are its acyclic sets of |nodes| - 1
    incidences, tried in ``combinations`` order over their sorted ids; each
    tree's forest grows on the component's index with only the tree's
    links kept.  The cap counts trees over all components; a component it
    cuts off before its first tree takes its BFS forest's change set.
    """
    cap = DEFAULT_TREE_CAP if budget is None else budget
    inspected = 0
    exact = True
    witness: list[str] = []
    components = gamma_components(g)
    member = {node: c for c, nodes in enumerate(components) for node in nodes}
    parts: list[list[Incidence]] = [[] for _ in components]
    for inc in g.incidences:
        parts[member[(VERTEX, inc.vertex)]].append(inc)
    for nodes, incs in zip(components, parts):
        index = _index(OrientedHypergraph._trusted(
            tuple([nid for kind, nid in nodes if kind == VERTEX]),
            tuple([nid for kind, nid in nodes if kind == EDGE]), tuple(incs)))
        ids, ends = index.ids, index.ends
        best: list[int] | None = None
        for tree in combinations(sorted(range(len(ids)), key=ids.__getitem__),
                                 len(nodes) - 1):
            if inspected >= cap:
                exact = False
                break
            sets = DisjointSets()
            if not all(sets.union(*ends[k]) for k in tree):
                continue
            inspected += 1
            kept = set(tree)
            links = [[link for link in nbrs if link[0] in kept]
                     for nbrs in index.links]
            changed = _grow_forest(replace(index, links=links), "bfs",
                                   0)._changes()
            if best is None or len(changed) < len(best):
                best = changed
                if not best:
                    break
        if best is None:  # the cap ran out before the first tree
            best = _grow_forest(index, "bfs", 0)._changes()
            exact = False
        witness.extend([ids[k] for k in best])
    return FrustrationResult(len(witness), tuple(sorted(witness)), "trees",
                             exact, inspected)


def _hill_climb(start: Iterable[int], index: _Index, evaluations: int,
                budget: int) -> tuple[set[int], int]:
    """Switch by the first star that shrinks the set, pass after pass.

    Star x is the incidence positions in ``index.links[x]``, for the nodes
    in index order: the sorted vertices, then the sorted edges.  A pass
    tries the stars in order, one evaluation each, and moves by the first
    improving one; a pass with none ends the climb, as does the budget.
    Switching by star T shrinks S exactly when 2|S & T| > |T|, so with each
    star's overlap with S kept (position k lies in the two stars
    ``index.ends[k]``) the first improving star is the least in ``better``,
    and a pass costs its evaluations in one step.
    """
    stars, ends = index.links, index.ends
    current = set(start)
    overlap = [0] * len(stars)
    for k in current:
        for x in ends[k]:
            overlap[x] += 1
    better = {x for x, star in enumerate(stars) if 2 * overlap[x] > len(star)}
    while evaluations < budget:
        if not better:
            evaluations += min(len(stars), budget - evaluations)
            break
        x = min(better)
        if evaluations + x + 1 > budget:  # the budget ends before star x
            evaluations = budget
            break
        evaluations += x + 1
        for k, _ in stars[x]:
            if k in current:
                current.remove(k)
                step = -1
            else:
                current.add(k)
                step = 1
            for y in ends[k]:
                overlap[y] += step
                if 2 * overlap[y] > len(stars[y]):
                    better.add(y)
                else:
                    better.discard(y)
    return current, evaluations


def _local_starts(index: _Index, seed: int) -> Iterator[list[int]]:
    """The change sets, as incidence positions, of reorientations along the
    BFS forest, then along random forests seeded seed + 1, seed + 2, ...:
    the local search's starts.  Every forest grows on the one index.
    """
    forest = _grow_forest(index, "bfs", 0)
    while True:
        yield forest._changes()
        seed += 1
        forest = _grow_forest(index, "random", seed)


def _frustration_local(g: OrientedHypergraph, budget: int | None,
                       seed: int) -> FrustrationResult:
    """Hill climbs from ``_local_starts``, one start after another while
    the budget lasts and the best set is nonempty, on one index of g."""
    cap = 10_000 if budget is None else budget
    index = _index(g)
    starts = _local_starts(index, seed)
    best, evaluations = _hill_climb(next(starts), index, 0, cap)
    while evaluations < cap and best:
        found, evaluations = _hill_climb(next(starts), index, evaluations, cap)
        if len(found) < len(best):
            best = found
    ids = index.ids
    return FrustrationResult(len(best), tuple(sorted([ids[k] for k in best])),
                             "local_search", len(best) == 0, evaluations, seed)


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
