"""Exact dependency and circuit computations on incidence columns.

Everything here runs over the rationals or a prime field with exact
arithmetic: rank and nullity of incidence matrices, minimal-dependency
certification with nullspace witnesses, brute-force circuit enumeration,
contracted-theta dependency reports, and the complete-hypergraph
demonstration whose circuits realize the Fano and non-Fano matroids.

Each query builds the incidence matrix once.  A column set is a circuit
exactly when its nullspace has dimension 1 and is spanned by a vector
with no zero entry, so one nullspace settles both dependency and
minimality.  Enumeration stops at size rank + 1, the largest a circuit
can have, and counts its subset cap up to there; it tests each candidate
by reducing one column against the echelon basis of its prefix, and
takes a nullspace only for the circuits it returns.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import product
from math import comb

from .balance import Circle, circle_sign, enumerate_circles
from .errors import InputError, ResourceError
from .linalg import Domain, echelon_extend, is_prime, mat_vec, nullspace
from .linalg import nullity as _nullity_rows
from .linalg import rank as _rank_rows
from .model import (
    IncidenceMatrix,
    OrientedHypergraph,
    incidence_matrix,
    make_complete_hypergraph,
    minimal_subsets,
)
from .shunting import to_hypercircle

SUBSET_CAP_ENV = "OHG_MAX_SUBSETS"
DEFAULT_SUBSET_CAP = 1 << 20


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
    with ``edges``; integral and primitive over the rationals, reduced
    representatives over a prime field.  Present exactly when the subset
    is dependent.
    """

    edges: tuple[str, ...]
    domain: Domain
    dependent: bool
    minimal: bool
    witness: tuple | None

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


def enumerate_circuits(g: OrientedHypergraph, domain=None,
                       max_size: int | None = None) -> list[CircuitReport]:
    """All circuits, ascending by size then lexicographic edge ids.

    A circuit C has rank |C| - 1, so none is larger than the rank of the
    whole matrix plus one, and candidates stop there (at ``max_size`` if
    that is smaller).  Candidates containing an already-found circuit
    are pruned, so in ascending order every surviving dependent subset
    is itself a circuit.  A surviving candidate's prefix without its
    last edge is then independent, and the candidate is tested by
    reducing only that edge's column against the prefix's echelon basis.
    The candidate count up to that size must stay under the subset cap
    (default 2^20, overridable through OHG_MAX_SUBSETS).
    """
    domain = Domain.coerce(domain)
    ids = sorted(g.edges)
    matrix = incidence_matrix(g, domain)
    top = min(len(ids), _rank_rows(matrix.entries, domain) + 1)
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
    # Echelon bases of the independent sets of the previous size
    # (``prefixes``) and of the current one, which is ``size``.
    prefixes: dict = {(): ()}
    bases: dict = {}
    size = 1

    def dependent(combo: tuple[str, ...]) -> bool:
        nonlocal prefixes, bases, size
        if len(combo) != size:
            prefixes, bases, size = bases, {}, len(combo)
        basis = prefixes.get(combo[:-1])
        if basis is None:
            raise RuntimeError(f"no echelon basis for the prefix of {combo}")
        extended = echelon_extend(basis, column[combo[-1]], domain)
        if extended is None:
            return True
        if size < top:
            bases[combo] = extended
        return False

    found = []
    for combo in minimal_subsets(ids, dependent, range(1, top + 1)):
        report = _report(matrix, pos, combo)
        if not report.minimal:
            raise RuntimeError(
                f"ascending enumeration reached the non-circuit {combo}")
        found.append(report)
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


def lk_negative_circle_minimum(k: int, cap: int = 20) -> LkMinimum:
    """Minimum negative-circle count among the pair circles, brute forced.

    A pair of incidences forms a negative circle exactly when their signs
    agree, so an orientation with p entrant incidences has C(p,2) +
    C(k-p,2) negative circles.  Up to ``cap`` incidences all 2^k
    orientations are checked against the closed form; beyond that the
    formula value is returned unverified.
    """
    if k < 2:
        raise InputError("the construction needs at least 2 incidences")
    formula = (k - 1) ** 2 // 4
    witness = tuple([1] * (k // 2) + [-1] * (k - k // 2))
    if k > cap:
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
