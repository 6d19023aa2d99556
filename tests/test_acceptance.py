"""End-to-end acceptance checks, one per criterion.

Each test prints a single PASS or FAIL line on the terminal so a full run
reads as a scoreboard.  Expected values are frozen; every computed value
is recomputed here through an independent route before being compared.
"""

import time
from itertools import combinations, product

import pytest

from instances import plant_obstruction, random_balanceable, random_hypergraph
from oracles import (
    oracle_balancing_sets,
    oracle_circuits,
    oracle_frustration,
    oracle_rank,
)
from census import (
    connected_multigraphs,
    realize,
    signed_subgraph_key,
    subset_connected,
    switching_patterns,
)

from ohg import (
    Domain,
    OrientedHypergraph,
    SwitchingFunction,
    UnbalanceableError,
    Walk,
    camion_reorient,
    circle_sign,
    circle_sign_mod4,
    cyclomatic_number,
    detect_theta,
    dual,
    enumerate_circles,
    enumerate_circuits,
    fano_demo,
    frustration,
    generate_optimal_shunting,
    incidence_matrix,
    is_balanced,
    is_circuit,
    is_minimal_balancing_set,
    lk_negative_circle_minimum,
    make_complete_hypergraph,
    make_Lk,
    nullity,
    path_sign,
    switch,
)
from ohg.balance import verify_theta
from ohg.camion import balancing_set_difference
from ohg.model import edge_induced
from ohg.shunting import find_shunting_decomposition

CRITERION_1_BUDGET_S = 1.0
CRITERION_2_BUDGET_S = 10.0

Q = Domain.rationals()
GF2 = Domain.coerce(2)
GF3 = Domain.coerce(3)


def _scoreboard(capsys, number, label, body):
    started = time.monotonic()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number}: FAIL {label}")
        raise
    elapsed = time.monotonic() - started
    with capsys.disabled():
        print(f"\nACCEPTANCE {number}: PASS {label} ({elapsed:.2f} s)")


def test_criterion_1_fano_census(capsys):
    def body():
        started = time.monotonic()
        fano = make_complete_hypergraph(3, 1)

        matrix = incidence_matrix(fano, GF2)
        assert matrix.rows == ("v1", "v2", "v3")
        assert matrix.cols == ("e1", "e2", "e3", "e4", "e5", "e6", "e7")
        assert matrix.entries == (
            (1, 0, 0, 1, 1, 0, 1),
            (0, 1, 0, 1, 0, 1, 1),
            (0, 0, 1, 0, 1, 1, 1),
        )
        text = fano_demo()
        for line in ("  v1  1 0 0 1 1 0 1",
                     "  v2  0 1 0 1 0 1 1",
                     "  v3  0 0 1 0 1 1 1"):
            assert line in text

        gf2_reported = {frozenset(rep.edges)
                        for rep in enumerate_circuits(fano, GF2)}
        gf3_reported = {frozenset(rep.edges)
                        for rep in enumerate_circuits(fano, GF3)}
        target = frozenset({"e4", "e5", "e6"})
        assert target in gf2_reported
        assert target not in gf3_reported

        # Independent exhaustive confirmation: all 127 nonempty column
        # subsets, minimality by direct double enumeration.
        gf2_oracle = oracle_circuits(fano, p=2)
        assert len(list(combinations(range(7), 1))) + sum(
            1 for r in range(2, 8) for _ in combinations(range(7), r)) == 127
        assert gf2_reported == gf2_oracle
        assert len(gf2_reported) == 14
        by_size = sorted(len(c) for c in gf2_reported)
        assert by_size == [3] * 7 + [4] * 7

        assert time.monotonic() - started < CRITERION_1_BUDGET_S

    _scoreboard(capsys, 1, "fano plane census over GF(2)", body)


def test_criterion_2_single_edge_minimum(capsys):
    def body():
        started = time.monotonic()

        # Ground truth for the sign rule at k = 4: build every orientation
        # of the one-vertex one-edge bouquet and count negative circles by
        # full circle enumeration.
        for signs in product((1, -1), repeat=4):
            g = OrientedHypergraph.build(
                ["v"], ["e"],
                [(f"i{j}", "v", "e", s) for j, s in enumerate(signs, 1)])
            enumerated = sum(
                1 for c in enumerate_circles(g) if circle_sign(g, c) == -1)
            agreeing_pairs = sum(
                1 for a, b in combinations(signs, 2) if a == b)
            assert enumerated == agreeing_pairs

        # Brute force over all 2^k orientations for every k, then compare
        # with the closed form and with the library result.
        for k in range(2, 13):
            best = min(
                sum(1 for a, b in combinations(signs, 2) if a == b)
                for signs in product((1, -1), repeat=k))
            assert best == (k - 1) ** 2 // 4
            result = lk_negative_circle_minimum(k)
            assert result.minimum == best
            assert result.verified
            assert result.evaluated == 2 ** k

        # One library spot check through the circle enumerator.
        g = make_Lk(5, 2)
        negatives = sum(
            1 for c in enumerate_circles(g) if circle_sign(g, c) == -1)
        assert negatives == 4 == (5 - 1) ** 2 // 4

        assert time.monotonic() - started < CRITERION_2_BUDGET_S

    _scoreboard(capsys, 2, "single-edge negative circle minimum", body)


def test_criterion_3_reorientation_round_trip(capsys):
    def body():
        failures = 0
        for seed in range(200):
            g = random_balanceable(seed, max_incidences=30,
                                   extra_range=(0, 12), nv_range=(2, 10),
                                   ne_range=(2, 10))
            assert len(g.incidences) <= 30
            result = camion_reorient(g)
            if not result.balanced:
                failures += 1
                continue
            for c in enumerate_circles(result.hypergraph):
                if circle_sign(result.hypergraph, c) != 1:
                    failures += 1
                    break
        assert failures == 0

        certified = 0
        for seed in range(50):
            g = plant_obstruction(seed)
            result = camion_reorient(g)
            assert result.balanced is False
            cert = detect_theta(g, kind="cross")
            assert cert is not None
            assert verify_theta(g, cert)
            assert len(cert.paths) == 3
            certified += 1
        assert certified == 50

    _scoreboard(capsys, 3, "camion round trip with obstruction certificates",
                body)


def test_criterion_4_balancing_set_structure(capsys):
    def body():
        instances = []
        for seed in range(60):
            g = random_balanceable(seed)
            if len(g.incidences) <= 12:
                instances.append(g)
        assert len(instances) >= 40

        for g in instances:
            result = camion_reorient(g)
            assert result.balanced
            changed = frozenset(result.changed)

            # (a) no proper subset of the changed set balances g.
            all_sets = oracle_balancing_sets(g)
            minimal = {b for b in all_sets
                       if not any(other < b for other in all_sets)}
            assert changed in minimal
            assert is_minimal_balancing_set(g, changed)

            # (b) the disconnection criterion agrees with the oracle on
            # every balancing set found by raw enumeration.
            for b in all_sets:
                assert is_minimal_balancing_set(g, b) == (b in minimal)

            # (c) differences of balancing sets land in the cut space of
            # the bipartite representation.
            anchor = all_sets[0]
            for b in all_sets:
                diff = balancing_set_difference(g, anchor, b)
                assert diff.in_cut_space
                assert diff.counterexample is None
            direct_pairs = list(combinations(all_sets[:12], 2))
            for first, second in direct_pairs:
                diff = balancing_set_difference(g, first, second)
                assert diff.in_cut_space
                assert diff.counterexample is None

    _scoreboard(capsys, 4, "balancing set minimality and cut space", body)


def test_criterion_5_frustration_agreement(capsys):
    def body():
        for seed in range(40):
            g = random_balanceable(seed)
            if len(g.incidences) > 12:
                continue
            exact = frustration(g, mode="exact")
            trees = frustration(g, mode="trees")
            raw = oracle_frustration(g)
            assert exact.value == trees.value == raw
            assert exact.exact and trees.exact
            balanced = is_balanced(g)[0]
            assert (exact.value == 0) == balanced

        with pytest.raises(UnbalanceableError):
            frustration(make_Lk(3, 3), mode="exact")
        with pytest.raises(UnbalanceableError):
            frustration(plant_obstruction(0), mode="trees")

    _scoreboard(capsys, 5, "frustration via exact, trees, and raw subsets",
                body)


def test_criterion_6_optimal_shunting_circuits(capsys):
    def body():
        for seed in range(100):
            g, d = generate_optimal_shunting(
                seed, artery_length=1 + seed % 2)
            all_edges = sorted(g.edges)

            matrix = incidence_matrix(g, Q)
            assert nullity(matrix) == 1
            report = is_circuit(g, all_edges, Q)
            assert report.dependent
            # The minimal flag certifies every (n-1)-subset independent;
            # monotonicity of dependence extends that to all proper
            # subsets.
            assert report.minimal

            if seed < 5:
                for r in range(1, len(all_edges)):
                    for subset in combinations(all_edges, r):
                        sub = edge_induced(g, subset)
                        m = incidence_matrix(sub, Q)
                        assert nullity(m) == 0

            # Perturbation one: drop an artery.
            artery_edges = set(d.arteries[0])
            remaining = sorted(set(all_edges) - artery_edges)
            rep = is_circuit(g, remaining, Q)
            assert not (rep.dependent and rep.minimal)

            # Perturbation two: detach a pseudo-flower petal.
            petal = sorted(part for part in d.flowers if len(part) == 1)[0]
            remaining = sorted(set(all_edges) - set(petal))
            rep = is_circuit(g, remaining, Q)
            assert not (rep.dependent and rep.minimal)

            # Perturbation three: append a disjoint edge.
            grown = OrientedHypergraph.build(
                list(g.vertices) + ["zz"],
                list(g.edges) + ["zz_e"],
                [(i.id, i.vertex, i.edge, i.sign) for i in g.incidences]
                + [("zz_i", "zz", "zz_e", 1)])
            rep = is_circuit(grown, sorted(grown.edges), Q)
            assert rep.dependent and not rep.minimal

    _scoreboard(capsys, 6, "generated optimal shuntings are circuits", body)


def test_criterion_7_signed_graph_census(capsys):
    def body():
        verdicts = {}
        mismatches = 0
        instances = 0
        for (n, edges) in connected_multigraphs(6):
            m = len(edges)
            for eps in switching_patterns(n, edges):
                instances += 1
                g = realize(n, edges, eps)
                circuits = {frozenset(rep.edges)
                            for rep in enumerate_circuits(g, Q)}
                if instances % 25 == 0:
                    assert circuits == oracle_circuits(g)
                positive = set()
                for c in enumerate_circles(g):
                    if circle_sign(g, c) == 1:
                        positive.add(frozenset(
                            g.incidence(i).edge for i in c.incidences))
                for r in range(1, m + 1):
                    for subset in combinations(range(m), r):
                        chosen = frozenset(f"e{k}" for k in subset)
                        actual = chosen in circuits
                        if chosen in positive:
                            predicted = True
                        elif not subset_connected(edges, subset):
                            predicted = False
                        else:
                            key = signed_subgraph_key(edges, eps, subset)
                            if key not in verdicts:
                                sub = edge_induced(g, sorted(chosen))
                                found = find_shunting_decomposition(
                                    sub, budget=5000)
                                verdicts[key] = found.found is not None
                            predicted = verdicts[key]
                        if predicted != actual:
                            mismatches += 1
        assert instances == 3350
        assert mismatches == 0

    _scoreboard(capsys, 7, "six-edge signed graph circuit census", body)


def test_criterion_8_structural_invariants(capsys):
    def body():
        import random as _random
        rng = _random.Random(88)
        for seed in range(40):
            g = random_hypergraph(seed)

            # Cyclomatic number equals the cycle space dimension of the
            # bipartite representation, recomputed over GF(2) by sympy.
            node_index = {}
            for v in g.vertices:
                node_index[("v", v)] = len(node_index)
            for e in g.edges:
                node_index[("e", e)] = len(node_index)
            rows = [[0] * len(g.incidences) for _ in node_index]
            for k, inc in enumerate(g.incidences):
                rows[node_index[("v", inc.vertex)]][k] = 1
                rows[node_index[("e", inc.edge)]][k] = 1
            dim = len(g.incidences) - oracle_rank(rows, p=2)
            assert cyclomatic_number(g) == dim

            # Closed walk sign agrees with both circle sign routes.
            circles = enumerate_circles(g)
            for c in circles:
                walk = Walk(c.nodes + (c.nodes[0],), c.incidences)
                sign = circle_sign(g, c)
                assert path_sign(g, walk) == sign
                assert circle_sign_mod4(g, c) == sign

            # Switching preserves the circle sign multiset.
            if cyclomatic_number(g) <= 6:
                flip_v = [v for v in sorted(g.vertices) if rng.random() < 0.4]
                flip_e = [e for e in sorted(g.edges) if rng.random() < 0.4]
                sf = SwitchingFunction.flipping(g, flip_v, flip_e)
                h = switch(g, sf)
                before = sorted(circle_sign(g, c) for c in circles)
                after = sorted(circle_sign(h, c)
                               for c in enumerate_circles(h))
                assert before == after

            # Dual is an involution and transposes the matrix.
            h = dual(g)
            assert dual(h) == g
            mg = incidence_matrix(g)
            mh = incidence_matrix(h)
            assert mh.rows == mg.cols
            assert mh.cols == mg.rows
            for i, row in enumerate(mg.entries):
                for j, value in enumerate(row):
                    assert mh.entries[j][i] == value

    _scoreboard(capsys, 8, "incidence structure invariants", body)
