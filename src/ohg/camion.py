"""Reorientation to balance, balancing sets, and frustration.

Reversing a well-chosen set of incidences turns any balanceable oriented
hypergraph into a balanced one.  The reorientation here walks a spanning
forest of the bipartite representation and flips exactly those non-forest
incidences whose fundamental circle comes out negative.  The set of flipped
incidences is a minimal balancing set, and minimizing its size over spanning
forests gives the frustration number.  One rule, proved at
``_balancing_masks``, decides every balancing set: reversing S balances H
exactly when H is balanceable and the masks of S (the fundamental circles
of H's BFS forest each incidence lies on) XOR to the negative circles.
Exact frustration is that coset's least weight, found by decoding; the
local search works on incidence positions of ``gamma._index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from operator import xor
from typing import Iterable, Iterator

from .balance import is_balanceable
from .errors import InputError, ResourceError
from .gamma import (DisjointSets, SpanningForest, _grow_forest, _index,
                    _Index, fundamental_circle_signs, spanning_forest)
from .model import EDGE, VERTEX, OrientedHypergraph, reverse_incidences


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


def _balancing_masks(g: OrientedHypergraph, balanceable: bool | None = None
                     ) -> tuple[dict[str, int], int] | None:
    """(each incidence id's mask, the negative mask): bit t stands for the
    fundamental circle of the t-th non-forest incidence of g's BFS forest,
    in g's order, and is set in the masks of the incidences on it and in
    the negative mask when it is negative.  None when g is not balanceable
    (a caller that knows whether it is passes that in).

    The balancing-set rule (``_balances``): reversing S balances g exactly
    when g is balanceable and S's masks XOR to the negative mask, that is,
    S meets each negative circle an odd number of times, each positive one
    an even number.  Proof: reversal keeps g's thetas and its BFS forest,
    which grows from ids alone, and each reversed incidence on a circle
    flips its sign.  If g is not balanceable, the copy has a theta, hence a
    negative circle; if it is, so is the copy, where positive fundamental
    circles make every circle positive.

    One pass: the forest incidence up from node x lies on a circle exactly
    when one end of the circle's own incidence is below x, so its mask is
    the XOR of those end bits over x's subtree, summed deepest node first.
    """
    if balanceable is None:
        balanceable = is_balanceable(g)[0]
    if not balanceable:
        return None
    forest = spanning_forest(g, "bfs")
    index, parent, via = forest.index, forest.parent, forest.via
    masks = dict.fromkeys(index.ids, 0)
    below = [0] * len(parent)  # end bits, then subtree sums
    negative = 0
    for t, (inc, sign) in enumerate(fundamental_circle_signs(g, forest)):
        bit = masks[inc.id] = 1 << t
        below[index.vertex_number[inc.vertex]] ^= bit
        below[index.edge_number[inc.edge]] ^= bit
        if sign == -1:
            negative |= bit
    for x in sorted(range(len(parent)), key=forest.depth.__getitem__,
                    reverse=True):
        if parent[x] >= 0:
            masks[index.ids[via[x]]] = below[x]
            below[parent[x]] ^= below[x]
    return masks, negative


def _balances(rule: tuple[dict[str, int], int] | None,
              chosen: Iterable[str]) -> bool:
    """The balancing-set rule on ``_balancing_masks``' output, for a set of
    ids; an id without a mask, such as one outside a part, counts as 0."""
    if rule is None:
        return False
    masks, rest = rule
    for inc_id in chosen:
        rest ^= masks.get(inc_id, 0)
    return rest == 0


def is_balancing_set(g: OrientedHypergraph, ids: Iterable[str]) -> bool:
    """True when reversing exactly these incidences balances the hypergraph:
    it is balanceable and they meet each negative fundamental circle of its
    BFS forest an odd number of times, each positive one an even number."""
    return _balances(_balancing_masks(g), _check_incidence_ids(g, ids))


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
                                 _balancing_masks(g))


def _is_minimal_balancing(g: OrientedHypergraph, chosen: frozenset[str],
                          rule: tuple[dict[str, int], int] | None) -> bool:
    """``is_minimal_balancing_set`` on g's ``_balancing_masks``, which a
    caller that holds them already passes in."""
    if not _balances(rule, chosen):
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
    difference always lies in the cut space of the bipartite representation
    (proved at ``balancing_set_difference``): ``in_cut_space`` is always
    True, and ``counterexample`` (an odd-overlap circle) always None.
    """

    vector: tuple[int, ...]
    incidences: tuple[str, ...]
    in_cut_space: bool
    counterexample: tuple[str, ...] | None


def balancing_set_difference(g: OrientedHypergraph,
                             first: Iterable[str],
                             second: Iterable[str]) -> BalancingSetDifference:
    """Symmetric difference of two balancing sets, in the cut space: the
    masks of each XOR to the negative mask, so the difference meets every
    fundamental circle evenly, and those span the cycle space."""
    a = _check_incidence_ids(g, first)
    b = _check_incidence_ids(g, second)
    rule = _balancing_masks(g)
    if not _balances(rule, a):
        raise InputError("first incidence set is not a balancing set")
    if not _balances(rule, b):
        raise InputError("second incidence set is not a balancing set")
    diff = a ^ b
    vector = tuple(1 if inc.id in diff else 0 for inc in g.incidences)
    return BalancingSetDifference(vector, tuple(sorted(diff)), True, None)


# ---------------------------------------------------------------------------
# Frustration


@dataclass(frozen=True)
class FrustrationResult:
    """A frustration value with its witness balancing set.

    ``exact`` is True when the value is the true minimum; the local search
    reports an upper bound instead and says so.  ``evaluations`` counts
    candidate sets (``exact``) or switching moves (``local_search``).
    """

    value: int
    witness: tuple[str, ...]
    mode: str
    exact: bool
    evaluations: int
    seed: int | None = None


def _frustration_exact(g: OrientedHypergraph,
                       budget: int | None) -> FrustrationResult:
    """The first least balancing set W, of size k, in ``combinations``
    order over the n sorted ids, and the candidates an ascending search
    tries up to it, by least-weight coset decoding on ``_balancing_masks``.

    Reductions.  W has no zero mask and no two equal masks (dropping them
    keeps the XOR), and each id of W is the least of its mask (a smaller
    one, not in W, gives an earlier tuple).  So only those ids are searched.

    Search, size by size (``_first_word``).  Write X1 for the ⌈k/2⌉ least
    ids of a k-set X, X2 for the rest.  A match (A, B) is disjoint, or A ^ B
    would be a smaller balancing set, so X = A | B balances g and W1 <= X1
    <= A: no A before W1 matches, and W1 does, with W2.  There W1 <= X1 puts
    the table's B after W1, so W <= X = W1 + B <= W1 + W2 = W.

    Count.  Σ_{j<k} C(n, j) + rank(W) + 1, where a k-set before W first
    differs at slot i by a smaller position q, p < q < P between W's slots
    i - 1 and i: rank(W) = Σ_i Σ_q C(n-1-q, k-1-i) = Σ_i C(n-1-p, k-i) -
    C(n-P, k-i).  A budget B runs out at the least s with Σ_{j<=s} C(n, j)
    > B, and size k is searched only while Σ_{j<k} C(n, j) < B, so for
    k >= 1 a table holds C(n, ⌊k/2⌋) <= Σ_{j<k} C(n, j) < B sets.
    """
    masks, negative = _balancing_masks(g, balanceable=True)  # by the caller
    ids = sorted(masks)
    n = len(ids)
    least: dict[int, int] = {}  # nonzero mask -> position of its least id
    for pos, inc_id in enumerate(ids):
        if masks[inc_id]:
            least.setdefault(masks[inc_id], pos)
    columns = [(pos, mask) for mask, pos in least.items()]
    before = 0  # Σ_{j<k} C(n, j)
    for k in range(n + 1):
        if budget is not None and before >= budget:
            break
        witness = _first_word(columns, negative, k)
        if witness is not None:
            rank, p = 0, -1
            for i, q in enumerate(witness):
                rank += comb(n - 1 - p, k - i) - comb(n - q, k - i)
                p = q
            evaluations = before + rank + 1
            if budget is None or evaluations <= budget:
                return FrustrationResult(k, tuple([ids[q] for q in witness]),
                                         "exact", True, evaluations)
            break
        before += comb(n, k)
    size, total = 0, 1
    while total <= budget:
        size += 1
        total += comb(n, size)
    raise ResourceError(f"exact frustration budget of {budget} candidate "
                        f"sets exhausted at size {size}")


def _first_word(columns: list[tuple[int, int]], target: int, k: int
                ) -> list[int] | None:
    """Positions of the first k-set of ``columns`` ((position, mask), by
    position) whose masks XOR to ``target``, when no smaller set does: the
    ⌈k/2⌉-sets in order, each against a table of the first ⌊k/2⌋-set for
    each XOR (Stern's meet-in-the-middle step)."""
    table: dict[int, tuple] = {}
    for half in combinations(columns, k // 2):
        table.setdefault(reduce(xor, [m for _, m in half], 0), half)
    for half in combinations(columns, k - k // 2):
        match = table.get(reduce(xor, [m for _, m in half], target))
        if match is not None:
            return [pos for pos, _ in half + match]
    return None


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

    ``exact`` returns the first least balancing set in ``combinations``
    order over the sorted ids, with the candidates an ascending search
    tries up to it; ``local_search`` improves a reorientation witness by
    switching moves within an evaluation budget, and flags its answer as a
    bound unless it is 0.  Undefined for unbalanceable inputs.
    """
    if not is_balanceable(g)[0]:
        raise UnbalanceableError(
            "frustration is undefined: the hypergraph is not balanceable")
    if mode == "exact":
        return _frustration_exact(g, budget)
    if mode == "local_search":
        return _frustration_local(g, budget, seed)
    raise InputError(f"unknown mode {mode!r}; use 'exact' or 'local_search'")
