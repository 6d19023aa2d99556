"""Rank, circuits, sign-profile dependencies, and the census demo."""

from collections import Counter
from itertools import combinations
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import ohg.matroids

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
    incidence_matrix,
    make_Lk,
    make_complete_hypergraph,
)

from instances import random_hypergraph, random_signed_graph
from oracles import (
    oracle_circuit_minimal,
    oracle_circuits,
    oracle_nullspace,
    oracle_rank,
)

FIELDS = (Domain.rationals(), Domain.prime_field(2), Domain.prime_field(3),
          Domain.prime_field(5))


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

    def test_candidate_without_prefix_basis_raises(self, monkeypatch):
        """A candidate whose prefix was never found independent has no
        basis to extend; there is no fallback to a full elimination."""
        def pairs_first(items, accept, sizes, visit=None):
            return (c for c in combinations(items, 2) if accept(c))

        monkeypatch.setattr(ohg.matroids, "minimal_subsets", pairs_first)
        with pytest.raises(RuntimeError, match="no echelon basis"):
            enumerate_circuits(triangle(1))

    @staticmethod
    def assert_matches_oracle(g, domain, max_size):
        got = enumerate_circuits(g, domain, max_size)
        p = None if domain.is_rational else domain.char
        want = sorted((tuple(sorted(c)) for c in oracle_circuits(g, p)
                       if max_size is None or len(c) <= max_size),
                      key=lambda c: (len(c), c))
        assert [rep.edges for rep in got] == want
        assert all(rep.dependent and rep.minimal for rep in got)

    def test_max_size_restricts(self):
        g = make_complete_hypergraph(3, 1)
        small = enumerate_circuits(g, Domain.prime_field(3), max_size=3)
        assert all(len(r.edges) <= 3 for r in small)
        assert len(small) == 6


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

    @pytest.mark.slow
    def test_k5_in_full(self):
        assert pg_circuit_counts(5) == {3: 155, 4: 1085, 5: 5208, 6: 13888}
        assert self.census(5) == pg_circuit_counts(5)


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
