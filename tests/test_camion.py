"""Forest-guided reorientation, balancing sets, and frustration."""

import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import ohg.balance
import ohg.camion
import ohg.cli
import ohg.gamma
from ohg.balance import (circle_sign, enumerate_circles, is_balanceable,
                         is_balanced, walk_sign)
from ohg.camion import (
    UnbalanceableError,
    balancing_set_difference,
    camion_reorient,
    frustration,
    is_balancing_set,
    is_minimal_balancing_set,
    signed_graph_balance,
)
from ohg.errors import InputError, ResourceError
from ohg.gamma import fundamental_circle_signs, fundamental_cycle, spanning_forest
from ohg.model import OrientedHypergraph, dump, make_Lk

from instances import (large_signed_graph, plant_obstruction,
                       random_balanceable, random_hypergraph,
                       random_signed_graph)
from oracles import (
    oracle_ascending_count,
    oracle_balances,
    oracle_balancing_circles,
    oracle_balancing_sets,
    oracle_circle_signs,
    oracle_frustration,
    oracle_frustration_exact,
    oracle_frustration_local,
    oracle_frustration_trees,
    oracle_gamma_components,
    oracle_in_cycle_orthogonal,
    oracle_local_start,
    oracle_minimal_balancing_sets,
    oracle_spanning_forest,
)


def unbalanced_triangle():
    return OrientedHypergraph.build(
        ["v1", "v2", "v3"],
        ["e1", "e2", "e3"],
        [("i1", "v1", "e1", 1), ("i2", "v2", "e1", -1),
         ("i3", "v2", "e2", 1), ("i4", "v3", "e2", -1),
         ("i5", "v3", "e3", 1), ("i6", "v1", "e3", 1)])


def disjoint_union(a, b):
    """Side-by-side copy of two hypergraphs, ids prefixed 'a.' and 'b.'."""
    vertices, edges, incs = [], [], []
    for tag, g in (("a", a), ("b", b)):
        vertices += [f"{tag}.{v}" for v in g.vertices]
        edges += [f"{tag}.{e}" for e in g.edges]
        incs += [(f"{tag}.{i.id}", f"{tag}.{i.vertex}", f"{tag}.{i.edge}",
                  i.sign) for i in g.incidences]
    return OrientedHypergraph.build(vertices, edges, incs)


# frustration(mode="local_search", budget=400, seed=seed) on
# random_balanceable(seed, 20, extra_range=(4, 8), nv_range=(3, 7),
# ne_range=(3, 7)): seed -> (witness, evaluations).  Seeds 5, 10, 25 and 29
# end below their first hill climb, so the random restarts decide them.
LOCAL_SEARCH_PINS = {
    5: (("i3",), 400), 6: (("i15", "i3", "i5", "i6"), 400),
    10: (("i3", "i5"), 400), 23: ((), 11),
    25: (("i1", "i12", "i5"), 400), 29: (("i10", "i2"), 400),
}


# frustration(mode="exact") on random_balanceable(seed, 14,
# extra_range=(2, 5)): seed -> (witness, candidate sets evaluated).
EXACT_PINS = {
    0: (("i6",), 7), 1: (("i1", "i2"), 7), 2: (("i1",), 2),
    3: (("i6",), 7), 4: (("i3", "i4"), 26), 5: (("i1", "i11"), 14),
    6: (("i1", "i2", "i4"), 31), 7: (("i1", "i4"), 11),
}


def small_corpus(count=40, max_incidences=12):
    return [random_balanceable(seed, max_incidences) for seed in range(count)]


class TestCamion:
    def test_balances_the_triangle(self):
        result = camion_reorient(unbalanced_triangle())
        assert result.balanced
        assert is_balanced(result.hypergraph)[0]
        assert result.changed  # at least one reversal was needed

    def test_no_negative_circle_remains(self):
        for g in small_corpus(30):
            result = camion_reorient(g)
            assert result.balanced
            for circle in enumerate_circles(result.hypergraph):
                assert circle_sign(result.hypergraph, circle) == 1

    def test_forest_incidences_untouched(self):
        for g in small_corpus(20):
            result = camion_reorient(g)
            assert not (result.changed & result.forest.incidences)

    def test_changed_set_is_minimal_balancing_set(self):
        for g in small_corpus(30):
            result = camion_reorient(g)
            assert is_balancing_set(g, result.changed)
            assert result.changed in oracle_minimal_balancing_sets(g)
            assert is_minimal_balancing_set(g, result.changed)

    def test_deterministic_given_forest(self):
        g = random_balanceable(11)
        forest = spanning_forest(g, "dfs")
        first = camion_reorient(g, forest)
        second = camion_reorient(g, forest)
        assert first.changed == second.changed
        assert first.hypergraph == second.hypergraph

    def test_honest_flag_on_unbalanceable(self):
        result = camion_reorient(make_Lk(3, 3))
        assert not result.balanced
        assert not is_balanced(result.hypergraph)[0]

    def test_flag_matches_balance_of_output(self):
        # The flag is the input's balanceability; the output is tested here.
        unbalanceable = 0
        for seed in range(30):
            for g in (random_hypergraph(seed), plant_obstruction(seed)):
                for strategy in ("bfs", "dfs", "random"):
                    forest = spanning_forest(g, strategy, seed)
                    result = camion_reorient(g, forest)
                    assert result.balanced == \
                        is_balanced(result.hypergraph)[0]
                    unbalanceable += not result.balanced
        assert unbalanceable >= 30

    def test_signed_graph_gate(self):
        with pytest.raises(InputError):
            signed_graph_balance(make_Lk(3, 1))
        for seed in range(20):
            g = random_signed_graph(seed)
            result = signed_graph_balance(g)
            assert result.balanced

    def test_balanced_input_changes_nothing(self):
        g = camion_reorient(unbalanced_triangle()).hypergraph
        again = camion_reorient(g)
        assert again.changed == frozenset()
        assert again.hypergraph == g


class TestBalancingSets:
    def test_membership_matches_oracle(self):
        # Unbalanceable inputs take the rule's other branch: no set balances.
        corpus = (small_corpus(25)
                  + [plant_obstruction(seed) for seed in range(20)]
                  + [random_hypergraph(seed) for seed in range(30)])
        unbalanceable = 0
        for g in corpus:
            ids = sorted(i.id for i in g.incidences)
            if len(ids) > 10:
                continue
            expected = set(oracle_balancing_sets(g))
            unbalanceable += not expected
            for size in range(len(ids) + 1):
                for sub in itertools.combinations(ids, size):
                    assert is_balancing_set(g, sub) == \
                        (frozenset(sub) in expected)
        assert unbalanceable >= 10

    def test_minimality_fast_equals_oracle(self):
        for g in small_corpus(25):
            minimal = oracle_minimal_balancing_sets(g)
            for bal in oracle_balancing_sets(g):
                assert is_minimal_balancing_set(g, bal) == (bal in minimal)

    def test_minimality_rule_matches_the_component_count(self):
        """On every incidence subset S, the union-find rule gives the old
        rule's verdict: S balances g and deleting it from the bipartite
        representation leaves the component count unchanged."""
        minimal = 0
        for g in small_corpus(25, max_incidences=9):
            whole = len(oracle_gamma_components(g))
            ids = sorted(i.id for i in g.incidences)
            for size in range(len(ids) + 1):
                for sub in itertools.combinations(ids, size):
                    want = is_balancing_set(g, sub) and whole == len(
                        oracle_gamma_components(g, exclude=sub))
                    assert is_minimal_balancing_set(g, sub) == want, (g, sub)
                    minimal += want
        assert minimal >= 25

    def test_minimal_sets_listed_by_oracle(self):
        g = unbalanced_triangle()
        minimal = oracle_minimal_balancing_sets(g)
        assert all(len(b) == 1 for b in minimal)
        assert len(minimal) == 6
        for b in minimal:
            assert is_minimal_balancing_set(g, b)

    def test_unknown_incidence_rejected(self):
        with pytest.raises(InputError):
            is_balancing_set(unbalanced_triangle(), ["nope"])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4000))
    def test_masks_match_the_circle_oracle(self, seed):
        """Bit t of an incidence's mask is set exactly when the incidence
        lies on the fundamental circle of the t-th non-forest incidence, bit
        t of the negative mask when that circle is negative, and the XOR
        rule agrees with one set intersection per circle on every subset."""
        for g in (random_hypergraph(seed, max_incidences=10),
                  random_balanceable(seed, max_incidences=10),
                  with_parallels(random_hypergraph(seed, max_incidences=8),
                                 seed)):
            masks, negative = ohg.camion._balancing_masks(g, balanceable=True)
            circles = oracle_balancing_circles(g, balanceable=True)
            assert list(masks) == [inc.id for inc in g.incidences]
            for inc_id, mask in masks.items():
                assert mask == sum(1 << t for t, (incs, _) in
                                   enumerate(circles) if inc_id in incs)
            assert negative == sum(1 << t for t, (_, sign) in
                                   enumerate(circles) if sign == -1)
            rule = ohg.camion._balancing_masks(g)
            circles = oracle_balancing_circles(g)
            assert (rule is None) == (circles is None)
            ids = sorted(masks)
            for size in range(len(ids) + 1):
                for sub in itertools.combinations(ids, size):
                    assert ohg.camion._balances(rule, sub) == \
                        oracle_balances(circles, frozenset(sub))


class TestDifference:
    def test_pairs_lie_in_cut_space(self):
        for g in small_corpus(15):
            sets = oracle_balancing_sets(g)[:6]
            for a, b in itertools.combinations(sets, 2):
                report = balancing_set_difference(g, a, b)
                assert report.in_cut_space
                assert report.counterexample is None
                assert oracle_in_cycle_orthogonal(g, set(report.incidences))
                total = sum(report.vector)
                assert total == len(report.incidences)

    def test_rejects_non_balancing_input(self):
        g = unbalanced_triangle()
        with pytest.raises(InputError):
            balancing_set_difference(g, ["i1", "i2"], ["i3"])


class TestFrustration:
    def test_modes_agree_with_oracle(self):
        for g in small_corpus(25):
            want = oracle_frustration(g)
            exact = frustration(g, "exact")
            trees = oracle_frustration_trees(g)
            assert exact.value == want
            assert exact.exact
            assert trees.value == want
            assert is_balancing_set(g, exact.witness)
            assert len(exact.witness) == want

    def test_local_search_upper_bound(self):
        for g in small_corpus(15):
            want = oracle_frustration(g)
            local = frustration(g, "local_search", seed=3)
            assert local.value >= want
            assert is_balancing_set(g, local.witness)
            if local.exact:
                assert local.value == want

    def test_zero_exactly_on_balanced(self):
        for g in small_corpus(20):
            fr = frustration(g, "exact")
            assert (fr.value == 0) == is_balanced(g)[0]

    def test_local_search_deterministic_per_seed(self):
        g = random_balanceable(5)
        a = frustration(g, "local_search", seed=42)
        b = frustration(g, "local_search", seed=42)
        assert (a.value, a.witness) == (b.value, b.witness)

    def test_local_search_pinned(self):
        """Witness and evaluation count of the local search, recorded."""
        for seed, (witness, evaluations) in LOCAL_SEARCH_PINS.items():
            g = random_balanceable(seed, max_incidences=20, extra_range=(4, 8),
                                   nv_range=(3, 7), ne_range=(3, 7))
            result = frustration(g, mode="local_search", budget=400, seed=seed)
            assert (result.witness, result.evaluations) == (witness, evaluations)
            assert result.value == len(witness)
            assert result.exact == (not witness)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 4000))
    def test_local_search_matches_the_oracle(self, seed):
        """Value, witness, exactness and evaluation count equal those of
        the search that builds every switched set, at every budget."""
        for g in (random_balanceable(seed, max_incidences=20,
                                     extra_range=(4, 8), nv_range=(3, 7),
                                     ne_range=(3, 7)),
                  random_signed_graph(seed, max_edges=8)):
            for budget in (1, 7, 50, 300, 2000):
                for s in (seed, seed + 1):
                    assert frustration(g, "local_search", budget, s) == \
                        oracle_frustration_local(g, budget, s)

    def test_balanceable_draw_runs_past_its_limit(self):
        """Seed 1085 of the test above has no balanceable instance in its
        first 400 draws; the draw runs on instead of raising."""
        g = random_balanceable(1085, max_incidences=20, extra_range=(4, 8),
                               nv_range=(3, 7), ne_range=(3, 7))
        for budget in (1, 7, 50, 300, 2000):
            assert frustration(g, "local_search", budget, 1085) == \
                oracle_frustration_local(g, budget, 1085)

    def test_exact_mode_pinned(self):
        """Witness and evaluation count of the ascending exact search."""
        for seed, (witness, evaluations) in EXACT_PINS.items():
            g = random_balanceable(seed, max_incidences=14, extra_range=(2, 5))
            result = frustration(g, mode="exact")
            assert (result.witness, result.evaluations) == (witness, evaluations)
            assert result.value == len(witness) and result.exact
            assert result.mode == "exact"

    def test_exact_mode_budget_message_pinned(self):
        for seed, budget, size in ((4, 10, 2), (21, 3, 1)):
            g = random_balanceable(seed, max_incidences=14, extra_range=(2, 5))
            with pytest.raises(ResourceError) as info:
                frustration(g, mode="exact", budget=budget)
            assert str(info.value) == (
                f"exact frustration budget of {budget} candidate sets "
                f"exhausted at size {size}")
        g = random_balanceable(6, max_incidences=14, extra_range=(2, 5))
        assert frustration(g, mode="exact", budget=31).evaluations == 31

    def test_exact_mode_matches_the_counting_oracle(self):
        """Value, witness, evaluations and refusal text equal those of the
        brute force that counts the candidates before its witness by
        formula, on every balanceable instance of at most 14 incidences."""
        for seed in range(120):
            for g in (random_balanceable(seed, max_incidences=14),
                      random_signed_graph(seed),
                      random_hypergraph(seed, max_incidences=14)):
                if len(g.incidences) > 14 or not is_balanceable(g)[0]:
                    continue
                for budget in (None, 0, 1, 7, 50, 300):
                    try:
                        want = oracle_frustration_exact(g, budget)
                    except ResourceError as err:
                        with pytest.raises(ResourceError) as info:
                            frustration(g, "exact", budget)
                        assert str(info.value) == str(err)
                    else:
                        assert frustration(g, "exact", budget) == want

    def test_exact_decoding_on_signed_graph_rungs(self):
        """``large_signed_graph(n, 0)``: n = 20 and 24 as the ascending
        search found them; at n = 32 and 40, too far for that search, the
        witness balances g and its count is the ascending search's by
        rank.  A budget of 10^6 at n = 80 refuses at once, since the budget
        also bounds the decoding table."""
        start = time.perf_counter()
        for n, witness, evaluations in (
                (20, ("i10a", "i13a", "i18a", "i3a"), 96_605),
                (24, ("i12a", "i19a", "i1a", "i23a"), 358_912)):
            result = frustration(large_signed_graph(n, 0), "exact")
            assert (result.value, result.witness, result.evaluations) == \
                (4, witness, evaluations)
        for n in (32, 40):
            g = large_signed_graph(n, 0)
            result = frustration(g, "exact")
            assert is_balancing_set(g, result.witness)
            assert result.value == len(result.witness) and result.exact
            assert result.evaluations == oracle_ascending_count(
                sorted(i.id for i in g.incidences), result.witness)
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        with pytest.raises(ResourceError) as info:
            frustration(large_signed_graph(80, 0), "exact", budget=10**6)
        assert str(info.value) == ("exact frustration budget of 1000000 "
                                   "candidate sets exhausted at size 3")
        assert time.perf_counter() - start < 1.0

    def test_unbalanceable_raises(self):
        with pytest.raises(UnbalanceableError):
            frustration(make_Lk(3, 3))

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            frustration(unbalanced_triangle(), mode="simulated-annealing")


# ---------------------------------------------------------------------------
# Fundamental-circle signs in one pass


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4000), st.integers(0, 4000), st.data())
def test_forest_pass_matches_walk_sign(seed, other, data):
    """Several components, a loop edge, parallel incidences and a bare
    vertex: on every forest strategy the pass gives, for each non-forest
    incidence in order, the walk sign of its fundamental circle."""
    g = disjoint_union(random_hypergraph(seed, max_incidences=14,
                                         extra_range=(0, 5)),
                       random_signed_graph(other))
    incs = [(i.id, i.vertex, i.edge, i.sign) for i in g.incidences]
    for k, inc in enumerate(data.draw(st.lists(st.sampled_from(g.incidences),
                                               max_size=3))):
        incs.append((f"p{k}", inc.vertex, inc.edge,
                     data.draw(st.sampled_from((1, -1)))))
    g = OrientedHypergraph.build(g.vertices + ("bare",), g.edges, incs)
    for strategy in ("bfs", "dfs", "random"):
        forest = spanning_forest(g, strategy, seed=seed)
        want = [(i, walk_sign(g, fundamental_cycle(g, forest, i.id)[1]))
                for i in g.incidences if i.id not in forest]
        assert list(fundamental_circle_signs(g, forest)) == want


def test_forest_pass_rejects_a_forest_that_does_not_span_the_circle():
    g = unbalanced_triangle()
    bare = OrientedHypergraph.build(["v1"], [], [])
    with pytest.raises(InputError):
        list(fundamental_circle_signs(g, spanning_forest(bare)))
    # Without i1 and i6, v1 is cut off from the rest of the forest.
    cut = OrientedHypergraph.build(
        g.vertices, g.edges,
        [(i.id, i.vertex, i.edge, i.sign) for i in g.incidences
         if i.id not in ("i1", "i6")])
    with pytest.raises(InputError):
        list(fundamental_circle_signs(g, spanning_forest(cut)))


def with_parallels(g, seed):
    """g with a bare vertex and up to four parallel copies of incidences,
    each with a fresh id and a random sign."""
    rng = random.Random(seed)
    incs = [(i.id, i.vertex, i.edge, i.sign) for i in g.incidences]
    for k in range(rng.randint(1, 4)):
        inc = rng.choice(g.incidences)
        incs.append((f"p{k}", inc.vertex, inc.edge, rng.choice((1, -1))))
    return OrientedHypergraph.build(g.vertices + ("bare",), g.edges, incs)


FOREST_FAMILIES = {
    "hypergraph": lambda s: random_hypergraph(s, max_incidences=14,
                                              extra_range=(0, 5)),
    "signed": lambda s: random_signed_graph(s, max_edges=8),
    "signed80": lambda s: large_signed_graph(80, s),
    "union": lambda s: disjoint_union(random_hypergraph(s),
                                      random_signed_graph(s + 1)),
    "parallel": lambda s: with_parallels(random_hypergraph(s), s),
}


def _path_or_error(forest, a, b):
    try:
        return forest.path_between(a, b)
    except InputError:
        return "InputError"


@pytest.mark.parametrize("family", FOREST_FAMILIES)
def test_forests_match_the_node_keyed_oracle(family):
    """Forests grown on the integer index are the node-keyed forests the
    library grew before: the same incidences, roots, paths, fundamental
    circle signs and local-search starts, on every strategy."""
    for seed in range(50):
        g = FOREST_FAMILIES[family](seed)
        rng = random.Random(seed)
        nodes = ([("v", v) for v in g.vertices]
                 + [("e", e) for e in g.edges])
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(10)
                 if len(nodes) > 1]
        for strategy in ("bfs", "dfs", "random"):
            forest = spanning_forest(g, strategy, seed)
            want = oracle_spanning_forest(g, strategy, seed)
            assert forest.incidences == want.incidences
            assert forest.roots == want.roots
            assert (forest.strategy, forest.seed) == (want.strategy, want.seed)
            for a, b in pairs:
                assert _path_or_error(forest, a, b) == \
                    _path_or_error(want, a, b)
            assert list(fundamental_circle_signs(g, forest)) == \
                oracle_circle_signs(g, want)
        index = ohg.gamma._index(g)
        starts = [frozenset([index.ids[k] for k in start]) for start in
                  itertools.islice(ohg.camion._local_starts(index, seed), 4)]
        assert starts == [oracle_local_start(g, oracle_spanning_forest(
            g, *(("random", seed + k) if k else ("bfs",)))) for k in range(4)]


def test_one_index_per_call(monkeypatch, tmp_path, capsys):
    """The local search builds g's index once, however many random
    restarts it grows, and ``spanning_forest`` one per call."""
    builds = grown = 0
    index, grow = ohg.gamma._index, ohg.gamma._grow_forest

    def counting_index(g):
        nonlocal builds
        builds += 1
        return index(g)

    def counting_grow(*args):
        nonlocal grown
        grown += 1
        return grow(*args)

    for module in (ohg.gamma, ohg.camion):
        monkeypatch.setattr(module, "_index", counting_index)
        monkeypatch.setattr(module, "_grow_forest", counting_grow)
    g = large_signed_graph(80, 0)
    path = tmp_path / "sg80.json"
    dump(g, path)
    code = ohg.cli.main(["frustration", "--mode", "local-search",
                         "--budget", "2000", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["evaluations"] == 2000
    assert grown >= 9  # the BFS start and at least eight restarts
    assert builds == 1
    for strategy in ("bfs", "dfs", "random"):
        builds = 0
        spanning_forest(g, strategy, 1)
        assert builds == 1


def wheel(n):
    """A signed ring of n 2-edges and a hub joined to each ring vertex by a
    spoke.  A dfs forest runs round the ring and then out along the spokes,
    so the n fundamental circles of the spokes have lengths 4 .. 2n + 2."""
    return OrientedHypergraph.build(
        [f"v{k}" for k in range(n)] + ["w"],
        [f"e{k}" for k in range(n)] + [f"s{k}" for k in range(n)],
        [(f"a{k}", f"v{k}", f"e{k}", 1) for k in range(n)]
        + [(f"b{k}", f"v{(k + 1) % n}", f"e{k}", 1 if k else -1)
           for k in range(n)]
        + [(f"c{k}", "w", f"s{k}", 1) for k in range(n)]
        + [(f"d{k}", f"v{k}", f"s{k}", -1 if k % 3 else 1) for k in range(n)])


def test_camion_takes_linear_sign_lookups_on_a_dfs_forest(monkeypatch):
    """Signs are read once per forest node, not once per incidence of every
    fundamental circle, whose lengths sum to about n^2 here."""
    lookups = 0
    sign_of = OrientedHypergraph.sign_of

    def counting(self, incidence_id):
        nonlocal lookups
        lookups += 1
        return sign_of(self, incidence_id)

    g = wheel(175)
    forest = spanning_forest(g, "dfs")
    circles = [fundamental_cycle(g, forest, i.id)[1]
               for i in g.incidences if i.id not in forest]
    assert sum(map(len, circles)) > 175 ** 2
    want = {incs[-1] for incs in circles if walk_sign(g, incs) == -1}
    assert camion_reorient(g, forest).changed == want

    monkeypatch.setattr(OrientedHypergraph, "sign_of", counting)
    for n in (175, 350, 700):
        g = wheel(n)
        forest = spanning_forest(g, "dfs")
        lookups = 0
        assert camion_reorient(g, forest).balanced
        # 3n + 1 nodes, each read once by the pass and once more by the
        # balance check of the output.
        assert lookups <= 8 * n


def test_local_search_sorts_the_adjacency_once(monkeypatch):
    """One sorted index serves the bfs start and every random restart."""
    sorts = 0
    index = ohg.gamma._index

    def counting(g):
        nonlocal sorts
        sorts += 1
        return index(g)

    for module in (ohg.gamma, ohg.camion, ohg.balance):
        if hasattr(module, "_index"):
            monkeypatch.setattr(module, "_index", counting)
    # The random restarts decide seed 5 of the pins.  The hypergraph's
    # balanceability check is counted apart.
    g = random_balanceable(5, max_incidences=20, extra_range=(4, 8),
                           nv_range=(3, 7), ne_range=(3, 7))
    sorts = 0
    ohg.camion.is_balanceable(g)
    scan, sorts = sorts, 0
    result = frustration(g, mode="local_search", budget=400, seed=5)
    assert (result.witness, result.evaluations) == LOCAL_SEARCH_PINS[5]
    assert sorts == scan + 1
