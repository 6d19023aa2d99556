"""Rank, circuits, sign-profile dependencies, and the census demo."""

from collections import Counter
from itertools import combinations, product
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import ohg.linalg
import ohg.matroids

from ohg.balance import is_balanceable, is_balanced
from ohg.errors import InputError, ResourceError
from ohg.linalg import Domain
from ohg.matroids import (
    contract_to_single_edge,
    cross_theta_analysis,
    cross_theta_plus_pseudoflower,
    enumerate_circuits,
    fano_demo,
    is_circuit,
    lk_negative_circle_minimum,
    nullity,
    rank,
)
from ohg.model import (
    OrientedHypergraph,
    edge_induced,
    incidence_matrix,
    make_Lk,
    make_complete_hypergraph,
)

from instances import random_hypergraph, random_signed_graph
from oracles import (
    oracle_circuit_minimal,
    oracle_circuits,
    oracle_nullspace,
    oracle_prefix_circuits,
    oracle_rank,
    oracle_sibling_circuits,
)

FIELDS = (Domain.rationals(), Domain.prime_field(2), Domain.prime_field(3),
          Domain.prime_field(5))
GF7 = Domain.prime_field(7)


def triangle(last_sign=-1):
    return OrientedHypergraph.build(
        ["v1", "v2", "v3"], ["e1", "e2", "e3"],
        [("i1", "v1", "e1", 1), ("i2", "v2", "e1", -1),
         ("i3", "v2", "e2", 1), ("i4", "v3", "e2", -1),
         ("i5", "v3", "e3", 1), ("i6", "v1", "e3", last_sign)])


class TestRank:
    def test_matches_sympy_on_random_instances(self):
        for seed in range(25):
            g = random_hypergraph(seed)
            m_q = incidence_matrix(g, Domain.rationals())
            assert rank(m_q) == oracle_rank(m_q.entries)
            for p in (2, 3, 5):
                m_p = incidence_matrix(g, Domain.prime_field(p))
                assert rank(m_p) == oracle_rank(
                    incidence_matrix(g).entries, p)

    def test_rank_plus_nullity_is_column_count(self):
        g = make_complete_hypergraph(3, 1)
        m = incidence_matrix(g, Domain.rationals())
        assert rank(m) + nullity(m) == 7
        assert rank(m) == 3


class TestIsCircuit:
    def test_balanced_triangle_is_a_circuit(self):
        rep = is_circuit(triangle(-1), ("e1", "e2", "e3"))
        assert rep.dependent and rep.minimal
        assert rep.witness is not None
        assert len(rep.witness) == 3

    def test_unbalanced_triangle_is_independent(self):
        rep = is_circuit(triangle(1), ("e1", "e2", "e3"))
        assert not rep.dependent
        assert not rep.minimal
        assert rep.witness is None

    def test_dependent_but_not_minimal(self):
        g = make_complete_hypergraph(3, 1)
        rep = is_circuit(g, ("e1", "e2", "e3", "e4", "e5", "e6"),
                         Domain.prime_field(2))
        assert rep.dependent and not rep.minimal

    def test_unknown_edge(self):
        with pytest.raises(InputError):
            is_circuit(triangle(), ("e1", "ghost"))

    def test_json_shape(self):
        rep = is_circuit(triangle(-1), ("e1", "e2", "e3"))
        payload = rep.to_json_dict()
        assert payload["edges"] == ["e1", "e2", "e3"]
        assert payload["dependent"] is True
        assert all(isinstance(x, str) for x in payload["witness"])


    def test_minimal_matches_one_smaller_subsets(self):
        """One nullspace decides minimality as the old loop over every
        one-smaller subset did, and gives the same witness."""
        loose = OrientedHypergraph.build([], ["e1", "e2", "e3"], [])
        graphs = [random_hypergraph(seed, max_incidences=10)
                  for seed in range(30)] + [loose]
        for g in graphs:
            for domain in FIELDS:
                m = incidence_matrix(g, domain)
                pos = {e: i for i, e in enumerate(m.cols)}
                for size in range(1, len(g.edges) + 1):
                    for edges in combinations(sorted(g.edges), size):
                        rep = is_circuit(g, edges, domain)
                        assert rep.minimal == oracle_circuit_minimal(
                            g, edges, domain), (g, edges, domain)
                        if m.rows and rep.dependent:
                            rows = [[row[pos[e]] for e in edges]
                                    for row in m.entries]
                            assert rep.witness == oracle_nullspace(
                                rows, domain)[0]

    def test_no_vertices_every_single_edge_is_a_circuit(self):
        loose = OrientedHypergraph.build([], ["e1", "e2"], [])
        one = is_circuit(loose, ("e1",))
        both = is_circuit(loose, ("e1", "e2"), 3)
        assert (one.dependent, one.minimal, one.witness) == (True, True, (1,))
        assert (both.dependent, both.minimal, both.witness) == (
            True, False, (1, 1))
        assert [r.edges for r in enumerate_circuits(loose)] == [
            ("e1",), ("e2",)]


class TestEnumerate:
    def test_matches_oracle_on_signed_graphs(self):
        for seed in range(12):
            g = random_signed_graph(seed, max_edges=5)
            for p in (None, 2, 3):
                domain = Domain.rationals() if p is None \
                    else Domain.prime_field(p)
                got = {frozenset(rep.edges)
                       for rep in enumerate_circuits(g, domain)}
                assert got == oracle_circuits(g, p)

    def test_matches_oracle_on_hypergraphs(self):
        for seed in range(12):
            g = random_hypergraph(seed, max_incidences=10)
            got = {frozenset(rep.edges) for rep in enumerate_circuits(g)}
            assert got == oracle_circuits(g, None)

    def test_fano_censuses(self):
        g = make_complete_hypergraph(3, 1)
        gf2 = enumerate_circuits(g, Domain.prime_field(2))
        gf3 = enumerate_circuits(g, Domain.prime_field(3))
        assert len(gf2) == 14
        assert sorted(len(r.edges) for r in gf2).count(3) == 7
        assert len(gf3) == 17
        assert sorted(len(r.edges) for r in gf3).count(3) == 6
        set2 = {r.edges for r in gf2}
        set3 = {r.edges for r in gf3}
        assert ("e4", "e5", "e6") in set2 - set3
        assert len(set2 & set3) == 13

    def test_subset_cap(self, monkeypatch):
        monkeypatch.setenv("OHG_MAX_SUBSETS", "10")
        g = make_complete_hypergraph(3, 1)
        with pytest.raises(ResourceError) as err:
            enumerate_circuits(g, Domain.prime_field(2))
        assert "OHG_MAX_SUBSETS" in str(err.value)

    def test_cap_counts_candidates_up_to_rank_plus_one(self, monkeypatch):
        # K5 has 31 edges and rank 5: sizes 1..6 give 942,648 candidates.
        monkeypatch.setenv("OHG_MAX_SUBSETS", "1000")
        with pytest.raises(ResourceError) as err:
            enumerate_circuits(make_complete_hypergraph(5, 1),
                               Domain.prime_field(2))
        assert "needs 942648 subsets" in str(err.value)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(FIELDS),
           st.sampled_from((-1, 0, 1, None)), st.booleans())
    def test_matches_oracle_past_rank_plus_one(self, seed, domain, offset,
                                               vanishing):
        """More edges than rank + 1, with max_size below, at or above
        rank + 1, and optionally one column that vanishes in the domain."""
        g = random_hypergraph(seed, max_incidences=16, extra_range=(0, 6),
                              nv_range=(1, 3), ne_range=(3, 7))
        if vanishing:
            g = with_vanishing_column(g, domain)
        r = rank(incidence_matrix(g, domain))
        assume(len(g.edges) > r + 1)
        max_size = None if offset is None else r + 1 + offset
        self.assert_matches_oracle(g, domain, max_size)

    def test_no_vertices_with_every_max_size(self):
        loose = OrientedHypergraph.build([], ["e1", "e2", "e3"], [])
        for domain in FIELDS:
            for max_size in (None, 0, 1, 2, 5):
                self.assert_matches_oracle(loose, domain, max_size)

    def test_witnesses_need_no_second_elimination(self, monkeypatch):
        """Every witness comes off the enumeration's own reduction."""
        graphs = [make_complete_hypergraph(n, 1) for n in (3, 4)]
        want = [[enumerate_circuits(g, domain) for domain in FIELDS]
                for g in graphs]

        def no_nullspace(rows, domain):
            raise AssertionError("enumeration took a nullspace")

        monkeypatch.setattr(ohg.matroids, "nullspace", no_nullspace)
        got = [[enumerate_circuits(g, domain) for domain in FIELDS]
               for g in graphs]
        assert got == want

    def test_witness_with_a_zero_entry_raises(self, monkeypatch):
        """b and c are parallel, so {b, c} is the one circuit.  If its
        dependency were missed, {b, c} would stay independent and the
        dependent {a, b, c} would be joined from {a, b} and {a, c}; its
        witness (0, 1, -1) has a zero entry, and the minimality check
        refuses it."""
        g = OrientedHypergraph.build(
            ["v1", "v2"], ["a", "b", "c"],
            [("i1", "v1", "a", 1), ("i2", "v2", "b", 1),
             ("i3", "v2", "c", 1)])
        assert [r.edges for r in enumerate_circuits(g)] == [("b", "c")]
        settle = ohg.matroids._settle

        def misses_pairs(x, n, p):
            pair, witness = settle(x, n, p)
            if witness is not None and len(witness) == 2:
                return (0, x), None
            return pair, witness

        monkeypatch.setattr(ohg.matroids, "_settle", misses_pairs)
        with pytest.raises(RuntimeError,
                           match=r"non-circuit \('a', 'b', 'c'\)"):
            enumerate_circuits(g)

    def test_wrong_witness_raises(self, monkeypatch):
        """A witness with no zero entry that does not map the columns to
        zero is refused: the balanced triangle's is (1, 1, 1)."""
        settle = ohg.matroids._settle

        def wrong_witness(x, n, p):
            pair, witness = settle(x, n, p)
            if witness is not None:
                witness = tuple(range(1, len(witness) + 1))
            return pair, witness

        assert [r.witness for r in enumerate_circuits(triangle(-1))] \
            == [(1, 1, 1)]
        monkeypatch.setattr(ohg.matroids, "_settle", wrong_witness)
        with pytest.raises(RuntimeError,
                           match="dependency witness failed verification"):
            enumerate_circuits(triangle(-1))

    def test_independent_last_size_candidate_raises(self, monkeypatch):
        """Every candidate the last size reduces is dependent by the
        parallel-residual facts; one found independent is an error, not
        a skipped candidate."""
        def never_dependent(x, n, p):
            return (0, x), None

        monkeypatch.setattr(ohg.matroids, "_settle", never_dependent)
        with pytest.raises(RuntimeError, match=r"parallel residuals left "
                           r"\('e1', 'e2', 'e3'\) independent"):
            enumerate_circuits(triangle(-1))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(FIELDS + (GF7,)),
           st.sampled_from((None, 1, 2, 3, 4)))
    def test_matches_the_prefix_basis_walk(self, seed, domain, max_size):
        """Extending the sibling's residual gives the reports, witnesses
        included, that reducing against the whole prefix basis gave, and
        walking edge positions in carried prefix groups gives those the
        tuple-keyed walk gave."""
        g = random_hypergraph(seed, max_incidences=14, extra_range=(0, 6),
                              nv_range=(1, 4), ne_range=(2, 7))
        got = enumerate_circuits(g, domain, max_size)
        assert got == oracle_prefix_circuits(g, domain, max_size)
        assert got == oracle_sibling_circuits(g, domain, max_size)

    @pytest.mark.parametrize("domain", FIELDS + (GF7,), ids=str)
    def test_complete_hypergraphs_match_the_tuple_keyed_walk(self, domain):
        for sign in (1, -1):
            for n, max_size in ((3, None), (4, None), (5, 2), (5, 3), (5, 4)):
                g = make_complete_hypergraph(n, sign)
                assert enumerate_circuits(g, domain, max_size) \
                    == oracle_sibling_circuits(g, domain, max_size)

    @pytest.mark.parametrize("domain", FIELDS + (GF7,), ids=str)
    def test_degenerate_inputs_match_the_tuple_keyed_walk(self, domain):
        """No edges, no vertices, and a column that is zero in the
        domain."""
        graphs = (OrientedHypergraph.build(["v1", "v2"], [], []),
                  OrientedHypergraph.build([], ["e1", "e2", "e3"], []),
                  with_vanishing_column(triangle(-1), domain))
        for g in graphs:
            for max_size in (None, 0, 1, 2, 5):
                assert enumerate_circuits(g, domain, max_size) \
                    == oracle_sibling_circuits(g, domain, max_size)

    @pytest.mark.parametrize("domain", FIELDS, ids=str)
    def test_cut_off_last_sizes_match_the_prefix_basis_walk(self, domain):
        """Bucketing the last size by parallel residuals gives the
        reports, witnesses included, that testing every candidate gave."""
        for sign in (1, -1):
            g = make_complete_hypergraph(5, sign)
            for max_size in (2, 3, 4):
                assert enumerate_circuits(g, domain, max_size) \
                    == oracle_prefix_circuits(g, domain, max_size)

    # ``_settle`` calls by candidate size: K4 in full, then K5 with
    # ``max_size`` 3 and 4.  Below the last size every candidate past
    # size 1 makes one call; at the last size only the circuits do.
    CALLS = {
        "Q": ({2: 105, 3: 455, 4: 1065, 5: 488}, {2: 465, 3: 90},
              {2: 465, 3: 4495, 4: 955}),
        "GF(2)": ({2: 105, 3: 455, 4: 945, 5: 168}, {2: 465, 3: 155},
                  {2: 465, 3: 4495, 4: 1085}),
        "GF(3)": ({2: 105, 3: 455, 4: 1065, 5: 433}, {2: 465, 3: 90},
                  {2: 465, 3: 4495, 4: 1030}),
        "GF(5)": ({2: 105, 3: 455, 4: 1065, 5: 488}, {2: 465, 3: 90},
                  {2: 465, 3: 4495, 4: 955}),
    }

    @pytest.mark.parametrize("domain", FIELDS, ids=str)
    def test_one_cancellation_per_candidate(self, monkeypatch, domain):
        """What each candidate hands ``_settle`` is the sibling's residual
        through at most one row update, so it must equal what reducing
        the candidate's last column against its prefix's whole echelon
        basis leaves; and the calls per candidate size are pinned."""
        calls = []  # (candidate size, reduction) per call
        settle = ohg.matroids._settle

        def counted_settle(x, n, p):
            calls.append((len(x) - n, tuple(x)))
            return settle(x, n, p)

        monkeypatch.setattr(ohg.matroids, "_settle", counted_settle)
        runs = ((4, None), (5, 3), (5, 4))
        for (n, max_size), want in zip(runs, self.CALLS[domain.label()]):
            calls.clear()
            g = make_complete_hypergraph(n, 1)
            found = enumerate_circuits(g, domain, max_size)
            assert dict(Counter(size for size, _ in calls)) == want
            top = max(want)
            assert Counter(calls) == whole_basis_reductions(g, domain, top)
            assert want[top] == sum(len(rep.edges) == top for rep in found)

    @staticmethod
    def assert_matches_oracle(g, domain, max_size):
        got = enumerate_circuits(g, domain, max_size)
        p = None if domain.is_rational else domain.char
        want = sorted((tuple(sorted(c)) for c in oracle_circuits(g, p)
                       if max_size is None or len(c) <= max_size),
                      key=lambda c: (len(c), c))
        assert [rep.edges for rep in got] == want
        assert all(rep.dependent and rep.minimal for rep in got)
        m = incidence_matrix(g, domain)
        pos = {e: i for i, e in enumerate(m.cols)}
        for rep in got:
            rows = [[row[pos[e]] for e in rep.edges] for row in m.entries]
            # Without vertex rows only single edges are circuits, and
            # the oracle cannot see the column count of an empty matrix.
            assert rep.witness == (oracle_nullspace(rows, domain)[0]
                                   if rows else (1,)), rep

    def test_max_size_restricts(self):
        g = make_complete_hypergraph(3, 1)
        small = enumerate_circuits(g, Domain.prime_field(3), max_size=3)
        assert all(len(r.edges) <= 3 for r in small)
        assert len(small) == 6



def from_columns(columns):
    """The hypergraph on v1..vn whose incidence column for each edge is
    the given integer vector: an entry k puts |k| incidences of sign
    k/|k| at its vertex."""
    n = len(next(iter(columns.values())))
    incs = [(f"{e}{j}_{k}", f"v{j + 1}", e, 1 if x > 0 else -1)
            for e, col in columns.items() for j, x in enumerate(col)
            for k in range(abs(x))]
    return OrientedHypergraph.build([f"v{j + 1}" for j in range(n)],
                                    list(columns), incs)


def whole_basis_reductions(g, domain, top):
    """(size, reduction) of every candidate past size 1 that the walk up
    to size ``top`` reduces, counted: each kept candidate below ``top``
    and each dependent one at ``top``.  The reduction is that of the
    candidate's last column against the whole echelon basis of the rest,
    as ``linalg.echelon_extend`` runs it, before ``_settle``."""
    p = domain.char
    m = incidence_matrix(g, domain)
    n = len(m.rows)
    pos = {e: i for i, e in enumerate(m.cols)}
    ids = sorted(g.edges)
    bases = {(): ()}  # independent set of the size below -> echelon basis
    out = Counter()
    for size in range(1, top + 1):
        grown = {}
        for combo in combinations(ids, size):
            if not all(combo[:i] + combo[i + 1:] in bases
                       for i in range(size)):
                continue
            basis = bases[combo[:-1]]
            x = [row[pos[combo[-1]]] % p if p else row[pos[combo[-1]]]
                 for row in m.entries] + [0] * len(basis) + [1]
            for pc, y in basis:
                if x[pc]:
                    x = ohg.linalg._cancel(x, y, y[pc], x[pc], p)
            lead = next((i for i in range(n) if x[i]), None)
            if size > 1 and (size < top or lead is None):
                out[(size, tuple(x))] += 1
            if lead is not None:
                grown[combo] = basis + ((lead, x),)
        bases = grown
    return out


class TestParallelResiduals:
    """The last size keys each residual by its normalised vertex part.
    In both instances r(b|a) = (0, -1, 1); r(c|a) is -2 times it over Q
    and 3 times it over GF(5), so only a normalisation that scales (and,
    over Q, fixes the sign) puts b and c in one bucket.  r(d|a) =
    (0, 2, -1) is a near miss, parallel to neither.  With ``max_size`` 3
    below rank + 1 = 4 the buckets are keyed."""

    CASES = {
        "Q": ({"a": (1, 1, 0), "b": (1, 0, 1), "c": (1, 3, -2),
               "d": (1, 3, -1)}, Domain.rationals(), (3, -2, -1)),
        "GF(5)": ({"a": (1, 1, 0), "b": (1, 0, 1), "c": (1, 3, 3),
                   "d": (1, 3, -1)}, Domain.prime_field(5), (2, 2, 1)),
    }

    @pytest.mark.parametrize("label", CASES)
    def test_parallel_residuals_share_a_bucket(self, label):
        columns, domain, witness = self.CASES[label]
        g = from_columns(columns)
        assert incidence_matrix(g).entries == tuple(zip(*columns.values()))
        got = enumerate_circuits(g, domain, 3)
        assert [(r.edges, r.witness) for r in got] \
            == [(("a", "b", "c"), witness)]
        assert got == oracle_prefix_circuits(g, domain, 3)
        assert [r.edges for r in enumerate_circuits(g, domain)] \
            == [("a", "b", "c")]

    def test_scaled_residuals_over_the_other_field_are_not_parallel(self):
        """Over Q the GF(5) instance's r(c|a) = (0, 2, 3) is no multiple
        of (0, -1, 1), so nothing is a circuit up to size 3."""
        columns, _, _ = self.CASES["GF(5)"]
        g = from_columns(columns)
        assert enumerate_circuits(g, Domain.rationals(), 3) == []
        assert oracle_prefix_circuits(g, Domain.rationals(), 3) == []

def with_vanishing_column(g, domain):
    """g plus an edge ``z`` at its first vertex whose column is zero in
    the domain: entrant and salient over Q, p entrant incidences over
    GF(p)."""
    v = g.vertices[0]
    signs = (1, -1) if domain.is_rational else (1,) * domain.char
    return OrientedHypergraph.build(
        list(g.vertices), list(g.edges) + ["z"],
        [(i.id, i.vertex, i.edge, i.sign) for i in g.incidences]
        + [(f"z{k}", v, "z", s) for k, s in enumerate(signs)])


def pg_circuit_counts(n):
    """Circuits of PG(n-1, 2) by size: k independent points and their sum
    make a circuit of size k + 1, each one counted (k + 1)! times."""
    return {k + 1: prod(2**n - 2**i for i in range(k)) // factorial(k + 1)
            for k in range(2, n + 1)}


class TestProjectiveGeometry:
    """The all-positive K_n over GF(2) has every nonzero vector of
    GF(2)^n as a column: its matroid is PG(n - 1, 2)."""

    def census(self, n):
        circuits = enumerate_circuits(make_complete_hypergraph(n, 1),
                                      Domain.prime_field(2))
        return dict(Counter(len(rep.edges) for rep in circuits))

    def test_k4(self):
        assert pg_circuit_counts(4) == {3: 35, 4: 105, 5: 168}
        assert self.census(4) == pg_circuit_counts(4)

    def test_k5_in_full(self):
        assert pg_circuit_counts(5) == {3: 155, 4: 1085, 5: 5208, 6: 13888}
        assert self.census(5) == pg_circuit_counts(5)


def field_census(g, max_size):
    """Circuit edge sets over each field of FIELDS, by label."""
    return {d.label(): {rep.edges for rep in enumerate_circuits(g, d,
                                                                max_size)}
            for d in FIELDS}


class TestFieldDependence:
    """Over Q, GF(2), GF(3) and GF(5), up to size 4, on the complete
    hypergraphs K3 and K4 of either sign and the all-positive K5 (the
    all-negative K5 repeats its counts): every circuit whose support is
    balanced is a circuit over every field, and each field-dependent
    circuit is unbalanced.  The abstract of arXiv 2005.07722 puts the
    difference between the Fano and non-Fano matroids down to balance;
    a circle's sign is the balance condition of a 0/+-1 matrix in
    Conforti, Cornuejols and Vuskovic, "Balanced matrices" (2006).
    Neither is quoted here as proving field independence for balanced
    supports: it is an observed property, and this census, which
    filters out no circuit, is the evidence.  The pins count, for each
    pair of fields, the circuits of one that are not circuits of the
    other, split into balanceable and unbalanceable supports."""

    BALANCED = {3: 10, 4: 68, 5: 395}
    PAIRS = {
        3: {("Q", "GF(2)"): (4, 1), ("Q", "GF(3)"): (0, 0),
            ("Q", "GF(5)"): (0, 0), ("GF(2)", "GF(3)"): (4, 1),
            ("GF(2)", "GF(5)"): (4, 1), ("GF(3)", "GF(5)"): (0, 0)},
        4: {("Q", "GF(2)"): (46, 24), ("Q", "GF(3)"): (0, 5),
            ("Q", "GF(5)"): (0, 0), ("GF(2)", "GF(3)"): (46, 29),
            ("GF(2)", "GF(5)"): (46, 24), ("GF(3)", "GF(5)"): (0, 5)},
        5: {("Q", "GF(2)"): (400, 315), ("Q", "GF(3)"): (0, 75),
            ("Q", "GF(5)"): (0, 0), ("GF(2)", "GF(3)"): (400, 390),
            ("GF(2)", "GF(5)"): (400, 315), ("GF(3)", "GF(5)"): (0, 75)},
    }

    @pytest.mark.parametrize("n, sign", [(3, 1), (3, -1), (4, 1), (4, -1),
                                         (5, 1)])
    def test_balanced_circuits_do_not_depend_on_the_field(self, n, sign):
        g = make_complete_hypergraph(n, sign)
        census = field_census(g, 4)
        verdicts = {}
        for edges in set().union(*census.values()):
            support = edge_induced(g, edges)
            verdicts[edges] = (is_balanced(support)[0],
                               is_balanceable(support)[0])
        balanced = [edges for edges, (yes, _) in verdicts.items() if yes]
        assert len(balanced) == self.BALANCED[n]
        for edges in balanced:
            assert all(edges in found for found in census.values()), edges
        pairs = {}
        for a, b in combinations(census, 2):
            differ = census[a] ^ census[b]
            balanceable = sum(verdicts[edges][1] for edges in differ)
            pairs[a, b] = (balanceable, len(differ) - balanceable)
        assert pairs == self.PAIRS[n]

    # Criterion 1 on the whole matroid of the all-entrant K3.  Over GF(2)
    # the three-edge circuits are the seven Fano lines and the four-edge
    # ones their complements.  Over GF(3), GF(5) and Q the line
    # {e4 e5 e6}, the support of the negative triangle, drops out, and
    # its four one-edge extensions become circuits.
    FANO = (
        [("e1", "e2", "e4"), ("e1", "e3", "e5"), ("e1", "e6", "e7"),
         ("e2", "e3", "e6"), ("e2", "e5", "e7"), ("e3", "e4", "e7"),
         ("e4", "e5", "e6")],
        [("e1", "e2", "e3", "e7"), ("e1", "e2", "e5", "e6"),
         ("e1", "e3", "e4", "e6"), ("e1", "e4", "e5", "e7"),
         ("e2", "e3", "e4", "e5"), ("e2", "e4", "e6", "e7"),
         ("e3", "e5", "e6", "e7")])
    NON_FANO = (
        FANO[0][:6],
        [("e1", "e2", "e3", "e7"), ("e1", "e2", "e5", "e6"),
         ("e1", "e3", "e4", "e6"), ("e1", "e4", "e5", "e6"),
         ("e1", "e4", "e5", "e7"), ("e2", "e3", "e4", "e5"),
         ("e2", "e4", "e5", "e6"), ("e2", "e4", "e6", "e7"),
         ("e3", "e4", "e5", "e6"), ("e3", "e5", "e6", "e7"),
         ("e4", "e5", "e6", "e7")])

    @pytest.mark.parametrize("domain", FIELDS, ids=str)
    def test_all_entrant_k3_is_the_fano_or_the_non_fano_matroid(self,
                                                                domain):
        """Both matroids are built here on the seven nonzero 0/1 vectors
        of length 3, of rank 3, so their circuits have three or four
        elements: the Fano matroid's lines are the triples that sum to
        zero modulo 2, the non-Fano matroid's those with determinant 0
        over Q, and its other circuits are the four-sets that hold no
        line.  One relabelling maps each edge e_k to the 0/1 vector of
        its vertex set."""
        g = make_complete_hypergraph(3, 1)
        vector = {e: tuple(int(any(inc.vertex == v for inc in g.incidences
                                   if inc.edge == e)) for v in g.vertices)
                  for e in g.edges}
        assert sorted(vector.values()) \
            == sorted(set(product((0, 1), repeat=3)) - {(0, 0, 0)})

        def fano_line(a, b, c):
            return all((x + y + z) % 2 == 0 for x, y, z in zip(a, b, c))

        def non_fano_line(a, b, c):
            return (a[0] * (b[1] * c[2] - b[2] * c[1])
                    - a[1] * (b[0] * c[2] - b[2] * c[0])
                    + a[2] * (b[0] * c[1] - b[1] * c[0])) == 0

        def circuits(line):
            points = sorted(vector.values())
            lines = {frozenset(t) for t in combinations(points, 3)
                     if line(*t)}
            fours = {frozenset(q) for q in combinations(points, 4)
                     if not any(t <= frozenset(q) for t in lines)}
            return lines, fours

        lines, fours = self.FANO
        assert {frozenset(g.edges) - set(t) for t in lines} \
            == set(map(frozenset, fours))
        assert set(self.NON_FANO[1]) - set(fours) == {
            tuple(sorted(("e4", "e5", "e6", e))) for e in ("e1", "e2", "e3",
                                                           "e7")}
        want = self.FANO if domain.char == 2 else self.NON_FANO
        got = [rep.edges for rep in enumerate_circuits(g, domain)]
        assert got == want[0] + want[1]
        assert (len(want[0]), len(want[1])) \
            == ((7, 7) if domain.char == 2 else (6, 11))
        matroid = circuits(fano_line if domain.char == 2 else non_fano_line)
        for edges, elements in zip(want, matroid):
            assert {frozenset(vector[e] for e in c) for c in edges} \
                == elements


class TestLkMinimum:
    def test_formula_verified_up_to_twelve(self):
        for k in range(2, 13):
            result = lk_negative_circle_minimum(k)
            assert result.minimum == (k - 1) ** 2 // 4
            assert result.verified
            assert result.evaluated == 2 ** k

    def test_large_k_unverified(self):
        result = lk_negative_circle_minimum(25)
        assert result.minimum == 144
        assert not result.verified
        assert result.evaluated == 0

    def test_too_small(self):
        with pytest.raises(InputError):
            lk_negative_circle_minimum(1)


class TestCrossTheta:
    def test_all_entrant_three(self):
        report = cross_theta_analysis(make_Lk(3, 3))
        assert (report.k, report.entrant, report.salient) == (3, 3, 0)
        assert not report.over_rationals.dependent
        assert not report.all_fields
        assert len(report.moduli) == 1
        q, rep = report.moduli[0]
        assert q == 3 and rep.dependent and rep.minimal
        assert report.composite_note is None

    def test_gap_one_is_independent_everywhere(self):
        report = cross_theta_analysis(make_Lk(3, 2))
        assert (report.entrant, report.salient) == (2, 1)
        assert not report.over_rationals.dependent
        assert report.moduli == ()
        assert not report.all_fields

    def test_balanced_profile_depends_everywhere(self):
        report = cross_theta_analysis(make_Lk(4, 2))
        assert report.all_fields
        assert report.over_rationals.dependent
        assert {q for q, _ in report.moduli} == {2, 3, 5, 7}
        assert all(rep.dependent for _, rep in report.moduli)

    def test_composite_gap_notes_the_ring(self):
        report = cross_theta_analysis(make_Lk(6, 5))
        assert (report.entrant, report.salient) == (5, 1)
        assert [q for q, _ in report.moduli] == [2]
        assert report.moduli[0][1].dependent
        assert report.composite_note is not None
        assert "4" in report.composite_note

    def test_verdicts_match_sympy_rank(self):
        for g in (make_Lk(3, 3), make_Lk(4, 2), make_Lk(5, 4)):
            report = cross_theta_analysis(g)
            entries = incidence_matrix(g).entries
            cols = len(g.edges)
            assert report.over_rationals.dependent == \
                (oracle_rank(entries) < cols)
            for q, rep in report.moduli:
                assert rep.dependent == (oracle_rank(entries, q) < cols)

    def test_contraction_gate(self):
        with pytest.raises(InputError):
            contract_to_single_edge(triangle())
        digon = OrientedHypergraph.build(
            ["a"], ["e"], [("i1", "a", "e", 1), ("i2", "a", "e", -1)])
        with pytest.raises(InputError):
            contract_to_single_edge(digon)

    def test_contracts_through_subdivision(self):
        g = make_Lk(3, 3)
        from ohg.model import subdivide
        sub = subdivide(g, "e1", (["i1"], ["i2", "i3"]), 1, -1).hypergraph
        report = cross_theta_analysis(sub)
        assert report.k == 3
        assert (report.entrant, report.salient) in ((3, 0), (2, 1))


class TestPseudoflowerAdjunction:
    def test_certifies_over_surviving_field(self):
        rep = cross_theta_plus_pseudoflower(make_Lk(3, 3), 2)
        assert rep.dependent and rep.minimal
        assert len(rep.edges) == 2

    def test_refuses_vanishing_field(self):
        with pytest.raises(InputError):
            cross_theta_plus_pseudoflower(make_Lk(3, 3), 3)
        with pytest.raises(InputError):
            cross_theta_plus_pseudoflower(make_Lk(6, 5), 2)

    def test_gap_four_over_gf3(self):
        rep = cross_theta_plus_pseudoflower(make_Lk(6, 5), 3)
        assert rep.dependent and rep.minimal

    def test_requires_a_hub(self):
        digon = OrientedHypergraph.build(
            ["a"], ["e"], [("i1", "a", "e", 1), ("i2", "a", "e", -1)])
        with pytest.raises(InputError):
            cross_theta_plus_pseudoflower(digon, 2)


class TestFanoDemo:
    def test_deterministic(self):
        assert fano_demo() == fano_demo()

    def test_frozen_lines(self):
        text = fano_demo()
        assert "  v1  1 0 0 1 1 0 1" in text
        assert "  v2  0 1 0 1 0 1 1" in text
        assert "  v3  0 0 1 0 1 1 1" in text
        assert "sign: -1 (unbalanced)" in text
        assert "GF(2) circuits (14 total: 7 of size 3, 7 of size 4):" in text
        assert "GF(3) circuits (17 total: 6 of size 3, 11 of size 4):" in text
        assert "shared circuits: 13" in text
        assert text.count("{e4 e5 e6}") >= 2
