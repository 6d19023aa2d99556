"""Core model: construction, serialization, views, and gamma utilities."""

import random
from itertools import combinations, islice

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ohg.errors import InputError
from ohg.gamma import (
    blocks,
    bridges,
    component_count,
    fundamental_cycle,
    internally_disjoint_paths,
    spanning_forest,
)
from ohg.linalg import Domain
from ohg.model import (
    OrientedHypergraph,
    SwitchingFunction,
    contract_degree2_vertex,
    cyclomatic_number,
    dual,
    dump,
    edge_induced,
    gamma_components,
    gamma_nodes,
    incidence_matrix,
    load,
    make_Lk,
    make_complete_hypergraph,
    matrix_csv,
    minimal_subsets,
    parse,
    reverse_incidences,
    serialize,
    subdivide,
    switch,
    to_dot,
    weak_delete,
)
from instances import random_hypergraph


def triangle(last_sign=-1):
    return OrientedHypergraph.build(
        ["v1", "v2", "v3"], ["e1", "e2", "e3"],
        [("i1", "v1", "e1", 1), ("i2", "v2", "e1", 1),
         ("i3", "v2", "e2", 1), ("i4", "v3", "e2", 1),
         ("i5", "v3", "e3", 1), ("i6", "v1", "e3", last_sign)])


class TestBuild:
    def test_roundtrip_identity(self):
        g = triangle()
        assert parse(serialize(g)) == g

    def test_duplicate_incidence_id(self):
        with pytest.raises(InputError):
            OrientedHypergraph.build(
                ["v"], ["e"], [("i1", "v", "e", 1), ("i1", "v", "e", -1)])

    def test_unknown_vertex(self):
        with pytest.raises(InputError):
            OrientedHypergraph.build(["v"], ["e"], [("i1", "x", "e", 1)])

    def test_bad_sign(self):
        with pytest.raises(InputError):
            OrientedHypergraph.build(["v"], ["e"], [("i1", "v", "e", 2)])

    def test_load_dump(self, tmp_path):
        g = triangle()
        path = tmp_path / "g.json"
        dump(g, path)
        assert load(path) == g

    def test_parallel_incidences_allowed(self):
        g = make_Lk(3, 2)
        assert g.edge_size("e1") == 3
        assert g.degree("v1") == 3


class TestMatrix:
    def test_triangle_entries(self):
        m = incidence_matrix(triangle())
        assert m.rows == ("v1", "v2", "v3")
        assert m.entries == ((1, 0, -1), (1, 1, 0), (0, 1, 1))

    def test_parallel_incidences_sum(self):
        assert incidence_matrix(make_Lk(2, 1)).entries == ((0,),)
        assert incidence_matrix(make_Lk(2, 2)).entries == ((2,),)

    def test_prime_field_reduction(self):
        m = incidence_matrix(make_Lk(2, 2), Domain.prime_field(2))
        assert m.entries == ((0,),)

    def test_zero_is_not_a_prime_field(self):
        for make in (lambda: Domain.prime_field(0), lambda: Domain.coerce(0),
                     lambda: Domain.coerce("0"), lambda: Domain.coerce("00"),
                     lambda: Domain.prime_field(4)):
            with pytest.raises(InputError):
                make()
        assert Domain.rationals().is_rational

    def test_csv(self):
        text = matrix_csv(triangle())
        assert text.splitlines()[0] == ",e1,e2,e3"
        assert text.splitlines()[1] == "v1,1,0,-1"

    def test_dual_transposes(self):
        g = triangle()
        m = incidence_matrix(g)
        md = incidence_matrix(dual(g))
        assert md.rows == m.cols and md.cols == m.rows
        for a in range(3):
            for b in range(3):
                assert md.entries[a][b] == m.entries[b][a]


class TestViews:
    def test_dual_involution(self):
        g = triangle()
        assert dual(dual(g)) == g

    def test_reverse_incidences(self):
        g = reverse_incidences(triangle(), ["i1"])
        assert g.sign_of("i1") == -1
        with pytest.raises(InputError):
            reverse_incidences(g, ["nope"])

    def test_switch_requires_total_function(self):
        sf = SwitchingFunction({"v1": -1}, {})
        with pytest.raises(InputError):
            switch(triangle(), sf)

    def test_switch_changes_signs_pointwise(self):
        g = triangle()
        sf = SwitchingFunction({v: -1 if v == "v1" else 1 for v in g.vertices},
                               {e: 1 for e in g.edges})
        h = switch(g, sf)
        assert h.sign_of("i1") == -1
        assert h.sign_of("i6") == 1
        assert h.sign_of("i3") == 1

    def test_edge_induced(self):
        sub = edge_induced(triangle(), ["e1"])
        assert set(sub.vertices) == {"v1", "v2"}
        assert len(sub.incidences) == 2

    def test_weak_delete_keeps_edge_identity(self):
        g = weak_delete(triangle(), vertices=["v1"])
        assert set(g.edges) == {"e1", "e2", "e3"}
        assert g.edge_size("e1") == 1

    def test_subdivide_then_contract_restores(self):
        g = triangle()
        result = subdivide(g, "e1", (["i1"], ["i2"]), 1, -1)
        assert result.compatible
        h = result.hypergraph
        assert len(h.edges) == 4
        restored = contract_degree2_vertex(h, result.new_vertex)
        assert incidence_matrix(restored).entries == \
            incidence_matrix(g).entries

    def test_incompatible_subdivision_still_contracts_balanced(self):
        from ohg.balance import is_balanced
        g = triangle()
        result = subdivide(g, "e1", (["i1"], ["i2"]), 1, 1)
        assert not result.compatible
        back = contract_degree2_vertex(result.hypergraph, result.new_vertex)
        assert is_balanced(back)[0] == is_balanced(result.hypergraph)[0]
        assert is_balanced(back)[0] != is_balanced(g)[0]

    def test_contract_needs_degree_two(self):
        with pytest.raises(InputError):
            contract_degree2_vertex(triangle(), "nope")
        g = make_Lk(2, 1)
        with pytest.raises(InputError):
            contract_degree2_vertex(g, "v1")


class TestGamma:
    def test_cyclomatic_triangle(self):
        assert cyclomatic_number(triangle()) == 1

    def test_spanning_forest_sizes(self):
        g = triangle()
        for strategy in ("bfs", "dfs", "random"):
            f = spanning_forest(g, strategy=strategy, seed=3)
            assert len(f.incidences) == 5

    def test_fundamental_cycle_closes(self):
        g = triangle()
        forest = spanning_forest(g)
        extra = next(i.id for i in g.incidences
                     if i.id not in forest.incidences)
        nodes, incs = fundamental_cycle(g, forest, extra)
        assert extra in incs
        assert len(nodes) == len(incs)

    def test_blocks_and_bridges_figure_eight(self):
        g = OrientedHypergraph.build(
            ["a", "b", "c"], ["p", "q", "r", "s"],
            [("j1", "a", "p", 1), ("j2", "b", "p", 1),
             ("j3", "a", "q", 1), ("j4", "b", "q", 1),
             ("j5", "b", "r", 1), ("j6", "c", "r", 1),
             ("j7", "b", "s", 1), ("j8", "c", "s", 1)])
        assert len(blocks(g)) == 2
        assert bridges(g) == frozenset()

    def test_component_count_with_exclusion(self):
        g = triangle()
        assert component_count(g) == 1
        assert component_count(g, exclude=["i1", "i6"]) == 2

    def test_disjoint_paths_on_obstruction(self):
        g = make_Lk(3, 3)
        paths = internally_disjoint_paths(g, ("v", "v1"), ("e", "e1"), 3)
        assert len(paths) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_serialize_parse_identity(seed):
    g = random_hypergraph(seed)
    assert parse(serialize(g)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_dual_is_involution(seed):
    g = random_hypergraph(seed)
    assert dual(dual(g)) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_cyclomatic_matches_component_formula(seed):
    g = random_hypergraph(seed)
    phi = cyclomatic_number(g)
    nodes = len(g.vertices) + len(g.edges)
    assert phi == len(g.incidences) - nodes + len(gamma_components(g))
    assert phi >= 0


def _nx_multigraph(g, exclude=frozenset()):
    """The bipartite representation as a networkx MultiGraph keyed by
    incidence id."""
    mg = nx.MultiGraph()
    mg.add_nodes_from(gamma_nodes(g))
    for inc in g.incidences:
        if inc.id not in exclude:
            mg.add_edge(("v", inc.vertex), ("e", inc.edge), key=inc.id)
    return mg


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=4000),
       st.sets(st.integers(min_value=1, max_value=12)))
def test_components_match_networkx(seed, dropped):
    g = random_hypergraph(seed)
    exclude = {f"i{k}" for k in dropped}
    comps = gamma_components(g, exclude)
    want = {frozenset(c)
            for c in nx.connected_components(_nx_multigraph(g, exclude))}
    assert {frozenset(c) for c in comps} == want
    assert sum(len(c) for c in comps) == len(gamma_nodes(g))
    position = {node: k for k, node in enumerate(gamma_nodes(g))}
    firsts = [position[c[0]] for c in comps]
    assert firsts == sorted(firsts)
    assert all(position[c[0]] == min(position[n] for n in c) for c in comps)
    assert component_count(g, exclude=exclude) == len(want)
    assert component_count(g) == nx.number_connected_components(
        _nx_multigraph(g))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_bridges_match_networkx(seed):
    g = random_hypergraph(seed, max_incidences=16, extra_range=(0, 6))
    ends = {inc.id: frozenset({("v", inc.vertex), ("e", inc.edge)})
            for inc in g.incidences}
    want = {frozenset(pair) for pair in nx.bridges(_nx_multigraph(g))}
    assert {ends[i] for i in bridges(g)} == want


def test_to_dot_mentions_every_node():
    text = to_dot(triangle())
    for name in ("v1", "v2", "v3", "e1", "e2", "e3"):
        assert name in text


def _all_subsets(n):
    return [c for size in range(n + 1) for c in combinations(range(n), size)]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.data())
def test_minimal_subsets_monotone_are_the_minimal_accepted_sets(n, data):
    """Closed under supersets: the yield is every minimal accepted set."""
    subsets = _all_subsets(n)
    generators = data.draw(st.lists(st.sampled_from(subsets), max_size=4))

    def accept(combo):
        return any(set(gen) <= set(combo) for gen in generators)

    want = [s for s in subsets if accept(s)
            and not any(accept(t) for t in subsets
                        if set(t) < set(s))]
    assert list(minimal_subsets(range(n), accept, range(n + 1))) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.data())
def test_minimal_subsets_any_predicate_filters_by_earlier_yields(n, data):
    """Any predicate over any run of sizes: the yield is the accepted
    candidates filtered by containment of an earlier yield."""
    subsets = _all_subsets(n)
    accepted = data.draw(st.sets(st.sampled_from(subsets)))
    lo = data.draw(st.integers(0, n + 1))
    sizes = range(lo, data.draw(st.integers(lo, n + 2)))
    assert list(minimal_subsets(range(n), accepted.__contains__, sizes)) \
        == _filtered_by_earlier_yields(n, accepted, sizes)


def _filtered_by_earlier_yields(n, accepted, sizes):
    want = []
    for c in (c for size in sizes for c in combinations(range(n), size)):
        if c in accepted and not any(set(w) <= set(c) for w in want):
            want.append(c)
    return want


@pytest.mark.parametrize("lo", [0, 1])
def test_minimal_subsets_runs_from_zero_and_one(lo):
    """Runs from size 0 (the empty set is a candidate) and from size 1."""
    n = 5
    subsets = _all_subsets(n)
    rng = random.Random(lo)
    for _ in range(200):
        accepted = {s for s in subsets if rng.random() < 0.2}
        if rng.random() < 0.2:
            accepted.add(())
        sizes = range(lo, n + 1)
        assert list(minimal_subsets(range(n), accepted.__contains__,
                                    sizes)) == _filtered_by_earlier_yields(
            n, accepted, sizes)


def test_minimal_subsets_takes_one_ascending_run():
    for sizes in ([1, 2, 3], range(3, 0, -1), range(0, 5, 2)):
        with pytest.raises(ValueError):
            next(minimal_subsets(range(4), bool, sizes), None)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_minimal_subsets_visits_each_candidate_once_until_stopped(n, data):
    subsets = _all_subsets(n)
    accepted = data.draw(st.sets(st.sampled_from(subsets), min_size=1))
    take = data.draw(st.integers(1, 4))
    visited = []
    got = list(islice(minimal_subsets(range(n), accepted.__contains__,
                                      range(n + 1), visited.append), take))
    # Every candidate up to the last one taken, pruned or not, once each.
    stop = subsets.index(got[-1]) + 1 if len(got) == take else len(subsets)
    assert visited == subsets[:stop]
