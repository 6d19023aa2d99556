"""Exact dependency and circuit computations on incidence columns.

Everything here runs over the rationals or a prime field with exact
arithmetic: rank and nullity of incidence matrices, minimal-dependency
certification with nullspace witnesses, brute-force circuit enumeration,
contracted-theta dependency reports, and the complete-hypergraph
demonstration whose circuits realize the Fano and non-Fano matroids.

Each query builds the incidence matrix once.  A column set is a circuit
exactly when its nullspace has dimension 1 and is spanned by a vector
with no zero entry, so one nullspace settles both dependency and
minimality for ``is_circuit``.  Every elimination is one column
reduction, ``linalg.echelon_extend``: rank, nullity and nullspace feed
it a matrix's columns in turn.  Enumeration stops at size rank + 1, the
largest a circuit can have, and counts its subset cap up to there.  It
is one walk over the sizes, on edge positions, that carries each size's
independent sets into the next as prefix groups, each keyed by the bit
mask of its prefix.  It joins each candidate S + f + e from two
independent sets S + f and S + e of one group, checks its other
one-smaller subsets by one membership test in the intersection of the
member sets of the groups (S - s) + f, made once per (S, f), finishes
its reduction from the residual the sibling S + e reached with one
inline row update at most, and reads each circuit's witness off the
coefficients that reduction carries, so it runs no second elimination.
Each witness is checked against columns packed into one integer each,
so that its product with them is one integer sum.  At the last size it
reduces only the candidates whose residuals r(f|S) and r(e|S) have
parallel vertex parts, since exactly those are dependent.  Edge ids are
read back from positions only for reports and error messages.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import product
from math import comb, gcd, isqrt
from operator import lshift, mul

from .balance import Circle, circle_sign, enumerate_circles
from .errors import InputError, ResourceError
from .linalg import (Domain, _settle, echelon_extend, is_prime, mat_vec,
                     nullspace)
from .linalg import nullity as _nullity_rows
from .linalg import rank as _rank_rows
from .model import (
    IncidenceMatrix,
    OrientedHypergraph,
    incidence_matrix,
    make_complete_hypergraph,
)
from .shunting import to_hypercircle

SUBSET_CAP_ENV = "OHG_MAX_SUBSETS"
DEFAULT_SUBSET_CAP = 1 << 20
LK_BRUTE_FORCE_MAX_K = 20


def rank(m: IncidenceMatrix) -> int:
    """Exact rank of an incidence matrix over its domain."""
    return _rank_rows(m.entries, m.domain)


def nullity(m: IncidenceMatrix) -> int:
    """Column count minus rank."""
    return _nullity_rows(m.entries, m.domain)


def _subset_cap() -> int:
    raw = os.environ.get(SUBSET_CAP_ENV)
    if raw is None:
        return DEFAULT_SUBSET_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"{SUBSET_CAP_ENV} must be an integer, "
                         f"got {raw!r}") from exc
    if value < 1:
        raise InputError(f"{SUBSET_CAP_ENV} must be positive")
    return value


# ---------------------------------------------------------------------------
# Circuit testing


@dataclass(frozen=True)
class CircuitReport:
    """Dependency verdict for one edge subset over one domain.

    ``witness`` is a nullspace vector of the column submatrix, aligned
    with ``edges``, normalised as ``linalg.nullspace`` normalises its
    first vector: over the rationals a primitive integer tuple with
    positive leading entry; over GF(p) values in 0..p-1 with entry 1 at
    the first free column, which for a circuit is its last edge.  Present
    exactly when the subset is dependent.
    """

    edges: tuple[str, ...]
    domain: Domain
    dependent: bool
    minimal: bool
    witness: tuple | None

    @classmethod
    def _trusted(cls, edges: tuple[str, ...], domain: Domain,
                 witness: tuple) -> CircuitReport:
        """A circuit's report, built without the frozen dataclass's five
        guarded setattrs.  Only for a witness the caller has verified."""
        rep = object.__new__(cls)
        rep.__dict__.update(edges=edges, domain=domain, dependent=True,
                            minimal=True, witness=witness)
        return rep

    def to_json_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "domain": self.domain.label(),
            "dependent": self.dependent,
            "minimal": self.minimal,
            "witness": None if self.witness is None
            else [str(x) for x in self.witness],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _report(matrix: IncidenceMatrix, pos: dict, edges) -> CircuitReport:
    """Dependency report for the columns ``edges`` of ``matrix``, by the
    circuit rule of the module docstring (Oxley, Matroid Theory, 1.1);
    without vertex rows every column is zero, so every nonempty set is
    dependent and only single edges are circuits."""
    domain = matrix.domain
    if not matrix.rows:
        return CircuitReport(edges, domain, True, len(edges) == 1,
                             tuple(domain.reduce(1) for _ in edges))
    rows = [[row[pos[e]] for e in edges] for row in matrix.entries]
    basis = nullspace(rows, domain)
    if not basis:
        return CircuitReport(edges, domain, False, False, None)
    witness = basis[0]
    if any(mat_vec(rows, witness, domain)):
        raise RuntimeError("nullspace witness failed verification")
    return CircuitReport(edges, domain, True,
                         len(basis) == 1 and all(witness), witness)


def is_circuit(g: OrientedHypergraph, edges, domain=None) -> CircuitReport:
    """Dependency and minimality of an edge subset's columns.

    The subset is dependent when its column submatrix (all vertex rows
    kept) has a nonzero nullspace, and minimal (a circuit) when that
    nullspace is one-dimensional and spanned by a vector with no zero
    entry.  A dependent verdict carries a verified nullspace witness.
    """
    domain = Domain.coerce(domain)
    chosen = tuple(sorted(set(edges)))
    if not chosen:
        raise InputError("is_circuit needs a nonempty edge subset")
    for e in chosen:
        if e not in g.edges:
            raise InputError(f"unknown edge {e!r}")
    matrix = incidence_matrix(g, domain)
    return _report(matrix, {e: i for i, e in enumerate(matrix.cols)}, chosen)


def _line(pair: tuple, n: int, p: int) -> tuple:
    """The vertex part of a residual pair scaled to one representative
    of its line: first nonzero entry 1 over GF(p); over the rationals
    divided by its gcd, with the first nonzero entry positive.  Entries
    before the pair's pivot are zero and left out, so residuals are
    parallel exactly when their keys are equal."""
    lead, x = pair
    head = x[lead:n]
    if p:
        inv = pow(head[0], -1, p)
        return tuple([a * inv % p for a in head])
    g = gcd(*head)
    if head[0] < 0:
        g = -g
    return tuple([a // g for a in head])


def _packed_columns(columns: list, n: int, p: int, top: int) -> tuple:
    """The columns of ``n`` entries packed for ``enumerate_circuits``'s
    witness check, the bounds a correct witness's entries keep, and the
    width of one field: ``(packed, low, high, width)``, entry k of a
    column in bits k*width onwards of its packed integer.  The docstring
    there proves the bounds and the width."""
    if p:
        low, high = 0, p - 1
        width = (top * high * high).bit_length()
    else:
        norm = max([sum(map(mul, column, column)) for column in columns])
        high = isqrt(norm ** (top - 1))
        low = -high
        width = (top * isqrt(norm) * high).bit_length()
    shifts = [k * width for k in range(n)]
    packed = [sum(map(lshift, column, shifts)) for column in columns]
    return packed, low, high, width


def enumerate_circuits(g: OrientedHypergraph, domain=None,
                       max_size: int | None = None) -> list[CircuitReport]:
    """All circuits, ascending by size then lexicographic edge ids.

    A circuit C has rank |C| - 1, so none is larger than the rank r of
    the whole matrix plus one, and candidates stop at that size ``top``
    (at ``max_size`` if that is smaller).  The candidate count up to
    ``top`` must stay under the subset cap (default 2^20, overridable
    through OHG_MAX_SUBSETS).

    The walk numbers the sorted edges 0..m-1 and runs over the sizes.
    It keeps the independent sets of the current size in prefix groups,
    in ``combinations`` order: a group is a prefix S, the bit mask of S,
    and its members (e, r(e|S)), one per independent set S + e, where
    r(e|S) is the last pair of the echelon basis of S + e.  Size 1
    reduces each column on its own; a zero column is a circuit.  A
    larger candidate is joined from two members S + f and S + e, f < e,
    of one group, as Apriori joins frequent itemsets (Agrawal and
    Srikant, 1994), and kept only when its other one-smaller subsets
    are independent too.  A set is a circuit exactly when it is
    dependent and all its one-smaller subsets are independent, and every
    such set is joined from the two of them that drop one of its last
    two edges.  So the kept candidates are exactly the sets that contain
    no circuit found before, in ``combinations`` order, and each
    dependent one is a circuit.  The independent candidates S + f + e
    with one f form the group S + f of the next size, so the groups
    carry over without regrouping.

    Containment is one membership test per candidate.  The walk maps the
    mask of each group's prefix to the set of its member positions.
    Every s in S is below f < e, so (S + f + e) - s lists in ascending
    order as (S - s), f, e: its prefix is (S - s) + f and its last edge
    is e.  Every independent set of the current size is a member of the
    group of its prefix, and a prefix with no group has no member, so
    (S + f + e) - s is independent exactly when e lies in the member set
    of (S + f) - s.  The walk intersects those |S| sets once per (S, f),
    skips f when the intersection is empty, and keeps e exactly when it
    lies in the intersection.

    A candidate C = S + f + e is tested by reducing e's column against
    the echelon basis of S + f, and that reduction is r(e|S) through one
    more row update at most, the one against r(f|S), taken inline.
    Proof.  ``echelon_extend`` starts from x = e + [0] * (|S| + 1) + [1]
    and cancels against basis(S) in order before it reaches r(f|S).  A
    vector of basis(S) has at most n + |S| entries (its own slot is the
    last), so none of these steps reads or writes slot n + |S| of x:
    that entry stays 0, and a 0 changes neither another entry of
    d*x - f*y nor the gcd of a rational row.  Every other entry, each
    multiplier taken at a pivot among the first n, and each gcd are
    therefore those of ``echelon_extend(basis(S), e)`` on
    e + [0] * |S| + [1], step for step, so x reaches r(e|S) with a 0
    inserted before its last entry, and modulo p the same holds
    entrywise.  The one step left is the cancellation against r(f|S),
    taken when x is nonzero at its pivot, and ``linalg._settle`` ends
    both reductions alike.  When the column falls in the span, the
    coefficients the reduction carried span the candidate's
    one-dimensional nullspace and are its witness; it must have no zero
    entry and must map the columns to zero.

    That product is one integer sum.  At the first report the walk packs
    each column a_i into P_i = sum_k a_ki * 2^(k*W), so sum_i w_i * P_i
    = sum_k d_k * 2^(k*W) with d = A_C w.  When every |d_k| < 2^W, that
    sum is zero only if d is: were k0 the first k with d_k nonzero, the
    sum would be d_k0 * 2^(k0*W) modulo 2^((k0+1)*W), which is not zero.
    The width W comes from a bound on a correct witness's entries, and a
    witness outside the bound is refused before the product, since its
    fields could carry into each other.  Over the rationals, let N be
    the largest squared Euclidean norm of a column.  Some |C| - 1 rows
    of A_C are independent and form a matrix B with the nullspace of
    A_C, and the signed maximal minors (-1)^i * det(B without column i)
    are a nonzero vector of it, an integer multiple of the primitive
    witness w.  By Hadamard's inequality each minor is at most the
    product of the norms of its |C| - 1 columns, each at most sqrt(N).
    So |w_i| <= sqrt(N^(|C| - 1)) <= H = isqrt(N^(top - 1)), as N >= 1
    when any column is nonzero (when none is, top <= 1 and H = 1 bounds
    a single edge's witness (1,)).  Each |a_ki| is at most isqrt(N), so
    |d_k| <= top * isqrt(N) * H, and W is the bit length of that bound.
    Over GF(p) the columns and a correct witness have entries in
    0..p - 1, so 0 <= d_k <= top * (p - 1)^2, and W is the bit length of
    that; the fields are nonnegative, and each is tested modulo p.

    The last size keeps no independent set, so it reduces only the
    candidates that are dependent.  Within a group of one prefix S,
    members are bucketed by ``_line`` of their residual's vertex part,
    and only pairs inside a bucket are candidates: by (1) exactly these
    are dependent.  Each one that passes the containment check takes
    the row update for its witness, the one the candidate test would
    have read.

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
    r = _rank_rows(matrix.entries, domain)
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
    columns = [[row[pos[e]] for row in matrix.entries] for e in ids]
    n = len(matrix.rows)
    found = []
    packing = None  # _packed_columns, made at the first report

    def edges_at(combo: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(map(ids.__getitem__, combo))

    def report(circuits: list) -> None:
        """Verify the (combo, witness) pairs of one size and report them
        in ascending order."""
        nonlocal packing
        if not circuits:
            return
        circuits.sort()
        witnesses = [witness for _, witness in circuits]
        if not all(map(all, witnesses)):
            combo = next(c for c, witness in circuits if not all(witness))
            raise RuntimeError("ascending enumeration reached the "
                               f"non-circuit {edges_at(combo)}")
        if packing is None:
            packing = _packed_columns(columns, n, p, top)
        packed, low, high, width = packing
        if min(map(min, witnesses)) < low or max(map(max, witnesses)) > high:
            raise RuntimeError("dependency witness failed verification")
        field = (1 << width) - 1
        column_at, id_at = packed.__getitem__, ids.__getitem__
        trusted = CircuitReport._trusted
        for combo, witness in circuits:
            dot = sum(map(mul, map(column_at, combo), witness))
            if p:
                while dot and not (dot & field) % p:
                    dot >>= width
            if dot:
                raise RuntimeError("dependency witness failed verification")
            found.append(trusted(tuple(map(id_at, combo)), domain, witness))

    if top < 1:
        return found
    members = []
    circuits = []
    for i, column in enumerate(columns):
        extended, witness = echelon_extend((), column, domain)
        if witness is None:
            members.append((i, extended[0]))
        else:
            circuits.append(((i,), witness))
    report(circuits)
    groups = [((), 0, members)]
    member_sets: dict[int, set[int]] = {}
    no_members: set[int] = set()
    for size in range(2, top + 1):
        last_size = size == top
        grown_groups = []
        grown_sets = {}
        circuits = []
        for prefix, bits, members in groups:
            if not last_size or top > r:
                buckets = [members]
            else:
                lines: dict = {}
                for member in members:
                    lines.setdefault(_line(member[1], n, p), []).append(member)
                buckets = lines.values()
            drops = [bits ^ 1 << s for s in prefix]  # the masks of S - s
            for bucket in buckets:
                if len(bucket) < 2:
                    continue
                # Each member e as a sibling: r(e|S) with a 0 inserted at
                # the slot of f, as the proof above has it.
                siblings = [(e, x[:-1] + [0, x[-1]]) for e, (_, x) in bucket]
                for j, (f, (pc, y)) in enumerate(bucket[:-1], 1):
                    bit = 1 << f
                    later = siblings[j:]
                    if drops:
                        # The members of every group (S - s) + f
                        allowed = member_sets.get(drops[0] | bit, no_members)
                        for drop in drops[1:]:
                            allowed = allowed & member_sets.get(drop | bit,
                                                                no_members)
                        if not allowed:
                            continue
                        later = [s for s in later if s[0] in allowed]
                    d = y[pc]
                    y = y + [0]  # r(f|S) is 0 at the slot of e
                    grown = []
                    for e, x in later:
                        c = x[pc]
                        if c:
                            if p:
                                x = [(d * a - c * b) % p
                                     for a, b in zip(x, y)]
                            else:
                                x = [d * a - c * b for a, b in zip(x, y)]
                                h = gcd(*x)
                                if h > 1:
                                    x = [a // h for a in x]
                        pair, witness = _settle(x, n, p)
                        if witness is not None:
                            circuits.append((prefix + (f, e), witness))
                        elif last_size:
                            raise RuntimeError(
                                "parallel residuals left "
                                f"{edges_at(prefix + (f, e))} independent")
                        else:
                            grown.append((e, pair))
                    if grown:
                        grown_groups.append((prefix + (f,), bits | bit, grown))
                        grown_sets[bits | bit] = {e for e, _ in grown}
        report(circuits)
        groups, member_sets = grown_groups, grown_sets
    return found


# ---------------------------------------------------------------------------
# Single-vertex multi-edges


@dataclass(frozen=True)
class LkMinimum:
    """Fewest negative circles over all orientations of a k-incidence edge.

    ``witness`` is an orientation achieving the minimum with half the
    incidences entrant; ``verified`` says brute force confirmed the
    closed form (k - 1)^2 / 4 rounded down, rather than trusting it.
    """

    k: int
    minimum: int
    witness: tuple[int, ...]
    verified: bool
    evaluated: int


def _lk_negative_count(signs: tuple[int, ...]) -> int:
    entrant = sum(1 for s in signs if s == 1)
    salient = len(signs) - entrant
    return comb(entrant, 2) + comb(salient, 2)


def lk_negative_circle_minimum(k: int) -> LkMinimum:
    """Minimum negative-circle count among the pair circles, brute forced.

    A pair of incidences forms a negative circle exactly when their signs
    agree, so an orientation with p entrant incidences has C(p,2) +
    C(k-p,2) negative circles.  Up to ``LK_BRUTE_FORCE_MAX_K`` incidences
    all 2^k orientations are checked against the closed form; beyond that
    the formula value is returned unverified.
    """
    if k < 2:
        raise InputError("the construction needs at least 2 incidences")
    formula = (k - 1) ** 2 // 4
    witness = tuple([1] * (k // 2) + [-1] * (k - k // 2))
    if k > LK_BRUTE_FORCE_MAX_K:
        return LkMinimum(k, formula, witness, False, 0)
    best = None
    count = 0
    for signs in product((1, -1), repeat=k):
        count += 1
        value = _lk_negative_count(signs)
        if best is None or value < best:
            best = value
    if best != formula:
        raise RuntimeError(
            f"brute force minimum {best} disagrees with the closed form "
            f"{formula} at k={k}")
    if _lk_negative_count(witness) != best:
        raise RuntimeError("canonical witness does not achieve the minimum")
    return LkMinimum(k, best, witness, True, count)


# ---------------------------------------------------------------------------
# Contracted theta analysis


@dataclass(frozen=True)
class CrossThetaReport:
    """Dependency profile of a minimal theta-like configuration.

    ``k`` is the incidence count after full contraction; ``entrant`` and
    ``salient`` are normalized so entrant >= salient.  ``over_rationals``
    and the per-prime ``moduli`` reports are verified by rank computation
    on the original (uncontracted) input.  When entrant == salient the
    configuration is dependent over every field and ``all_fields`` says
    so; when the sign gap is composite, ``composite_note`` records the
    ring-level statement that the contracted column vanishes modulo it.
    """

    k: int
    entrant: int
    salient: int
    contracted: OrientedHypergraph
    over_rationals: CircuitReport
    moduli: tuple[tuple[int, CircuitReport], ...]
    all_fields: bool
    composite_note: str | None


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


SAMPLE_PRIMES = (2, 3, 5, 7)


def contract_to_single_edge(g: OrientedHypergraph) -> OrientedHypergraph:
    """Contract a subdivided single-edge configuration back to one edge.

    Accepts exactly the hypergraphs whose full degree-2 contraction is a
    single vertex with a single k-incidence edge, k >= 3.
    """
    result = to_hypercircle(g).hypergraph
    if (len(result.vertices) != 1 or len(result.edges) != 1
            or len(result.incidences) < 3):
        raise InputError(
            "input does not contract to a single vertex meeting one edge "
            "at 3 or more incidences")
    return result


def cross_theta_analysis(g: OrientedHypergraph) -> CrossThetaReport:
    """Sign profile and field dependencies of a minimal 3-way obstruction.

    Contracts the input down to one vertex inside one k-incidence edge,
    reads off how many incidences enter versus leave (normalized so the
    larger count comes first), and certifies dependency: over the
    rationals exactly when the two counts agree, and over GF(q) for each
    prime q dividing their gap.  All verdicts are verified by exact rank
    computations on the original input.
    """
    contracted = contract_to_single_edge(g)
    signs = [inc.sign for inc in contracted.incidences]
    k = len(signs)
    p = sum(1 for s in signs if s == 1)
    n = k - p
    if n > p:
        p, n = n, p
    gap = p - n

    all_edges = tuple(g.edges)
    over_q = is_circuit(g, all_edges, Domain.rationals())

    moduli = []
    if gap == 0:
        primes = list(SAMPLE_PRIMES)
    else:
        primes = _prime_factors(gap)
    for q in primes:
        moduli.append((q, is_circuit(g, all_edges, Domain.prime_field(q))))

    composite_note = None
    if gap > 1 and not is_prime(gap):
        composite_note = (
            f"the contracted column sums to {gap} up to sign, so it "
            f"vanishes modulo {gap}; only the prime divisors "
            f"{_prime_factors(gap)} give fields")

    return CrossThetaReport(k, p, n, contracted, over_q, tuple(moduli),
                            gap == 0, composite_note)


def cross_theta_plus_pseudoflower(g: OrientedHypergraph,
                                  q: int) -> CircuitReport:
    """Adjoin a 1-edge at the hub and certify the circuit over GF(q).

    Requires the configuration not to vanish over GF(q), meaning its
    matrix keeps full row rank there; the hub is the unique vertex of
    degree 3 or more.
    """
    domain = Domain.prime_field(q)
    contract_to_single_edge(g)
    hubs = [v for v in g.vertices if g.degree(v) >= 3]
    if len(hubs) != 1:
        raise InputError(f"expected one hub vertex, found {len(hubs)}")
    hub = hubs[0]
    m = incidence_matrix(g, domain)
    if _rank_rows(m.entries, domain) != len(g.vertices):
        raise InputError(
            f"configuration vanishes over {domain.label()}: row rank is "
            f"not {len(g.vertices)}")
    taken_e = set(g.edges)
    taken_i = {inc.id for inc in g.incidences}
    new_edge = "pf"
    while new_edge in taken_e:
        new_edge += "_"
    new_inc = "pfi"
    while new_inc in taken_i:
        new_inc += "_"
    extended = OrientedHypergraph.build(
        list(g.vertices), list(g.edges) + [new_edge],
        [(i.id, i.vertex, i.edge, i.sign) for i in g.incidences]
        + [(new_inc, hub, new_edge, 1)])
    report = is_circuit(extended, tuple(extended.edges), domain)
    if not (report.dependent and report.minimal):
        raise RuntimeError(
            "adjoined 1-edge did not produce a minimal dependency over "
            + domain.label())
    return report


# ---------------------------------------------------------------------------
# Complete-hypergraph demonstration


def _distinguished_circle(g: OrientedHypergraph) -> Circle:
    """The negative triangle through the three 2-edges."""
    want = {("e", "e4"), ("e", "e5"), ("e", "e6")}
    for circle in enumerate_circles(g):
        if {node for node in circle.nodes if node[0] == "e"} == want:
            return circle
    raise RuntimeError("triangle through e4, e5, e6 not found")


def fano_demo() -> str:
    """Deterministic report contrasting GF(2) and GF(3) circuit censuses.

    Builds the all-entrant complete hypergraph on three vertices, prints
    its incidence matrix, the negative triangle through the three
    2-edges, both circuit censuses, and their symmetric difference.
    """
    g = make_complete_hypergraph(3, 1)
    lines = []
    lines.append("complete hypergraph on 3 vertices, all incidences entrant")
    lines.append("")
    lines.append("incidence matrix (rows v1..v3, columns e1..e7):")
    for row_label, row in zip(("v1", "v2", "v3"),
                              incidence_matrix(g).entries):
        lines.append("  " + row_label + "  " + " ".join(str(x) for x in row))
    lines.append("")
    c = _distinguished_circle(g)
    sign = circle_sign(g, c)
    lines.append("distinguished circle through the three 2-edges:")
    lines.append("  vertices and edges: v1 e4 v2 e6 v3 e5")
    lines.append("  incidences: " + " ".join(c.incidences))
    lines.append(f"  sign: {sign:+d} (unbalanced)")
    lines.append("")

    gf2 = enumerate_circuits(g, Domain.prime_field(2))
    gf3 = enumerate_circuits(g, Domain.prime_field(3))
    for label, census in (("GF(2)", gf2), ("GF(3)", gf3)):
        by_size: dict[int, int] = {}
        for rep in census:
            by_size[len(rep.edges)] = by_size.get(len(rep.edges), 0) + 1
        size_text = ", ".join(f"{v} of size {k}"
                              for k, v in sorted(by_size.items()))
        lines.append(f"{label} circuits ({len(census)} total: {size_text}):")
        for rep in census:
            lines.append("  {" + " ".join(rep.edges) + "}")
        lines.append("")

    set2 = {rep.edges for rep in gf2}
    set3 = {rep.edges for rep in gf3}
    only2 = sorted(set2 - set3)
    only3 = sorted(set3 - set2)
    lines.append("circuits over GF(2) but not GF(3):")
    for edges in only2:
        lines.append("  {" + " ".join(edges) + "}")
    lines.append("circuits over GF(3) but not GF(2):")
    for edges in only3:
        lines.append("  {" + " ".join(edges) + "}")
    lines.append("")
    lines.append(f"shared circuits: {len(set2 & set3)}")
    lines.append(
        "the distinguished circle's support {e4 e5 e6} is a circuit over "
        "GF(2), where every circle is balanced, and drops out over GF(3), "
        "where the circle turns negative; each size-4 circuit unique to "
        "GF(3) adjoins one more edge to that support as a shunt")
    return "\n".join(lines) + "\n"
