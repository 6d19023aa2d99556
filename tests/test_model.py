"""Core model: construction, serialization, views, and gamma utilities."""

import json
import random
import re
from itertools import combinations, islice
from operator import itemgetter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import ohg.gamma
from ohg.balance import _block_view
from ohg.errors import InputError
from ohg.gamma import (
    blocks,
    cyclomatic_number,
    fundamental_cycle,
    gamma_components,
    internally_disjoint_paths,
    spanning_forest,
)
from ohg.linalg import Domain
from ohg.model import (
    Incidence,
    OrientedHypergraph,
    SwitchingFunction,
    contract_degree2_vertex,
    dual,
    dump,
    edge_induced,
    gamma_nodes,
    incidence_matrix,
    load,
    make_Lk,
    _check_rows,
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
from instances import (hypertree, large_signed_graph, plant_obstruction,
                       plant_trap, random_balanceable, random_hypergraph,
                       random_signed_graph, walk_instances)
from oracles import (oracle_blocks, oracle_check_rows, oracle_disjoint_paths,
                     oracle_gamma_components)


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

    def test_unhashable_reference(self):
        for inc, message in (
                (("i", ["x"], "e", 1), "incidence 'i' references unknown "
                                       "vertex ['x']"),
                (("i", "a", {"e": 1}, 1), "incidence 'i' references unknown "
                                          "edge {'e': 1}")):
            with pytest.raises(InputError) as info:
                OrientedHypergraph.build(["a"], ["e"], [inc])
            assert str(info.value) == message

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

    def test_unicode_decimal_digit_field(self):
        # int() reads the decimal digits of any script.
        assert Domain.coerce("٣") == Domain.prime_field(3)

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

    def test_edge_induced_keeps_and_checks_extra_vertices(self):
        sub = edge_induced(triangle(), ["e1"], keep_vertices=["v3"])
        assert sub.vertices == ("v1", "v2", "v3")
        assert sub.incidences_at("v3") == ()
        with pytest.raises(InputError, match=r"unknown vertex ids \['zzz'\]"):
            edge_induced(triangle(), ["e1"], keep_vertices=["zzz"])

    def test_with_signs_rejects_bad_signs(self):
        for sign in (0, True, 2):
            with pytest.raises(InputError) as err:
                triangle().with_signs({"i1": sign})
            assert str(err.value) == (f"incidence 'i1' has sign {sign!r}, "
                                      "expected 1 or -1")
        with pytest.raises(InputError, match="unknown incidence ids"):
            triangle().with_signs({"nope": 1})

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
        assert all(len(b) > 1 for b in blocks(g))

    def test_component_count_with_exclusion(self):
        g = triangle()
        assert len(gamma_components(g)) == 1
        assert len(gamma_components(without(g, {"i1", "i6"}))) == 2

    def test_disjoint_paths_on_obstruction(self):
        g = make_Lk(3, 3)
        paths = internally_disjoint_paths(g, ("v", "v1"), ("e", "e1"))
        assert len(paths) == 3
        for source, sink, message in (
                (("v", "v1"), ("v", "v1"), "path endpoints must differ"),
                (("v", "v1"), ("e", "zz"),
                 "unknown endpoint ('v', 'v1') or ('e', 'zz')"),
                (("x", "v1"), ("e", "e1"),
                 "unknown endpoint ('x', 'v1') or ('e', 'e1')"),
                (("v", "v1", "z"), ("e", "e1"),
                 "unknown endpoint ('v', 'v1', 'z') or ('e', 'e1')"),
                (("v", ["v1"]), ("e", "e1"),
                 "unknown endpoint ('v', ['v1']) or ('e', 'e1')"),
                ("vv1", ("e", "e1"), "unknown endpoint 'vv1' or ('e', 'e1')")):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                internally_disjoint_paths(g, source, sink)
        forest = spanning_forest(g)
        with pytest.raises(InputError, match=re.escape(
                "node ('v', 'v1', 'z') or ('e', 'e1') not spanned by the forest")):
            forest.path_between(("v", "v1", "z"), ("e", "e1"))


def test_blocks_match_the_node_keyed_search():
    """Blocks on the integer index are the node-keyed search's, list for
    list; a 40-edge trapped hypertree and 80-vertex signed graphs are
    deeper cases."""
    deeper = [plant_trap(hypertree(40))] + [large_signed_graph(80, seed)
                                            for seed in range(3)]
    for g in walk_instances() + deeper:
        assert blocks(g) == oracle_blocks(g), g


def test_disjoint_paths_match_the_node_keyed_flow():
    """The split-node flow on the integer index returns the paths of the
    flow over linked arc records, path for path, for every ordered pair
    of nodes."""
    for g in walk_instances():
        nodes = gamma_nodes(g)
        for source in nodes:
            for sink in nodes:
                if source != sink:
                    assert (internally_disjoint_paths(g, source, sink)
                            == oracle_disjoint_paths(g, source, sink)), (
                        g, source, sink)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 64), st.lists(st.lists(st.integers(), max_size=40),
                                         max_size=5))
def test_forest_shuffle_draws_as_random_shuffle(seed, lists):
    """Random forests shuffle with their own loop: one generator shuffling
    several lists in turn gives what ``random.shuffle`` gives."""
    rng, bits = random.Random(seed), random.Random(seed).getrandbits
    for items in lists:
        want = items[:]
        rng.shuffle(want)
        assert ohg.gamma._shuffled(items, bits) == want
    assert rng.getrandbits(32) == bits(32)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_serialize_parse_identity(seed):
    g = random_hypergraph(seed)
    assert parse(serialize(g)) == g


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_rejects_what_the_constructor_rejects(data):
    """parse and the constructor share one checker, so parse rejects every
    document whose fields the constructor rejects, with the constructor's
    message plus the line.  A valid document gets up to two fields
    replaced by odd values: wrong types, bad signs, dangling references
    and duplicate ids."""
    names = st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=3)
    doc = {"vertices": data.draw(names), "edges": data.draw(names),
           "incidences": []}
    if doc["vertices"] and doc["edges"]:
        doc["incidences"] = [
            {"id": f"i{k}",
             "vertex": data.draw(st.sampled_from(doc["vertices"])),
             "edge": data.draw(st.sampled_from(doc["edges"])),
             "sign": data.draw(st.sampled_from([1, -1, 1.0]))}
            for k in range(data.draw(st.integers(2, 3)))]
    slots = ([(doc["vertices"], k) for k in range(len(doc["vertices"]))]
             + [(doc["edges"], k) for k in range(len(doc["edges"]))]
             + [(raw, field) for raw in doc["incidences"]
                for field in ("id", "vertex", "edge", "sign")])
    odd = st.sampled_from([None, 0, True, 2, -1, 1.5, "z", "a", "b", "i0", "i1"])
    for _ in range(data.draw(st.integers(0, 2)) if slots else 0):
        where, key = data.draw(st.sampled_from(slots))
        where[key] = data.draw(odd)
    try:
        want = OrientedHypergraph(
            tuple(doc["vertices"]), tuple(doc["edges"]),
            tuple(Incidence(**raw) for raw in doc["incidences"]))
    except InputError as err:
        with pytest.raises(InputError) as info:
            parse(json.dumps(doc, indent=2))
        assert re.sub(r" \(line \d+\)$", "", str(info.value)) == str(err)
    else:
        assert parse(json.dumps(doc, indent=2)) == want


def _entry(iid, vertex="a", edge="x", sign=1):
    return {"id": iid, "vertex": vertex, "edge": edge, "sign": sign}


# Documents with faults in two places: parse names the first, with its line.
# The JSON shape of every entry is checked before any id.
_TWO_FAULTS = [
    (["a", "b"], ["x"], [_entry("i1"), _entry("i2", vertex="c"),
                         _entry("i3", sign=2)],
     "incidence 'i2' references unknown vertex 'c' (line 17)"),
    (["a", "b"], ["x"], [_entry("i1", sign=True), _entry("i1"),
                         _entry("i3", edge="y")],
     "incidence 'i1' has sign True, expected 1 or -1 (line 11)"),
    (["a", "b"], ["x", "y"], [_entry("i1"), _entry("i2", edge="z"),
                              _entry("i2")],
     "incidence 'i2' references unknown edge 'z' (line 18)"),
    (["a", "b", "a"], ["x"], [_entry("i1", vertex="q")],
     "duplicate vertex id 'a' (line 5)"),
    (["a", [3]], ["x", "x"], [_entry("i1")], "vertex id [3] must be a string"),
    (["a"], ["x", "y", "y"], [_entry("i1", sign=0)],
     "duplicate edge id 'y' (line 8)"),
    (["a"], ["x"], [_entry("i1"), _entry(7), _entry("i3", sign=-2)],
     "incidence id 7 must be a string"),
    (["a"], ["x"], [_entry("i1"), {"id": "i2", "vertex": "a", "edge": "x"},
                    _entry("i3", vertex="b")],
     "incidence entry must have exactly id/vertex/edge/sign, "
     "got ['edge', 'id', 'vertex']"),
    (["a"], ["x"], [_entry("i1"), ["i2"], _entry("i3", sign=None)],
     "incidence entry ['i2'] must be an object"),
    (["a"], ["x"], [_entry("i1", vertex=["a"]), _entry("i2", sign=1.5)],
     "incidence 'i1' references unknown vertex ['a'] (line 10)"),
    (["a"], ["x"], [_entry("i1", sign=1.0), _entry("i2", sign=-1.0),
                    _entry("i3", vertex="b"), _entry("i3")],
     "incidence 'i3' references unknown vertex 'b' (line 22)"),
    (["a", "a"], ["x"], [_entry("i1"), "i2"],
     "incidence entry 'i2' must be an object"),
]


@pytest.mark.parametrize("vertices, edges, incidences, message", _TWO_FAULTS)
def test_parse_names_the_first_of_two_faults(vertices, edges, incidences,
                                             message):
    doc = {"vertices": vertices, "edges": edges, "incidences": incidences}
    with pytest.raises(InputError) as info:
        parse(json.dumps(doc, indent=2))
    assert str(info.value) == message


class _Name(str):
    """A str subclass: a string id, though not of type str."""


# Odd values for an id or a reference (wrong types, a str subclass,
# unhashable lists, names that duplicate or dangle) and for a sign.
_ODD_NAMES = st.sampled_from([None, 7, 1.5, True, "a", "b", "z", "i0", "i1",
                              _Name("a"), _Name("i0"), ["a"], ["i0"]])
_ODD_SIGNS = st.sampled_from([1, -1, 0, 2, True, 1.0, "1"])


def _verdict(check, *args):
    try:
        check(*args)
    except InputError as err:
        return str(err)
    return None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_walk_gives_the_two_phase_verdict(data):
    """``_check_rows``, ``build`` and ``parse`` accept and reject what the
    validator that checked whole lists first did, with its exact message,
    line numbers included.  A valid document gets up to three fields
    replaced by odd values, each field drawn from one of four kinds:
    vertex or edge ids, incidence ids, references and signs."""
    names = st.lists(st.sampled_from(["a", "b", "c"]), unique=True,
                     min_size=1, max_size=3)
    vertices, edges = data.draw(names), data.draw(names)
    rows = [[f"i{k}", data.draw(st.sampled_from(vertices)),
             data.draw(st.sampled_from(edges)),
             data.draw(st.sampled_from([1, -1]))]
            for k in range(data.draw(st.integers(0, 4)))]
    kinds = [([(vertices, k) for k in range(len(vertices))]
              + [(edges, k) for k in range(len(edges))], _ODD_NAMES),
             ([(row, 0) for row in rows], _ODD_NAMES),
             ([(row, k) for row in rows for k in (1, 2)], _ODD_NAMES),
             ([(row, 3) for row in rows], _ODD_SIGNS)]
    kinds = [kind for kind in kinds if kind[0]]
    for _ in range(data.draw(st.integers(0, 3))):
        slots, values = data.draw(st.sampled_from(kinds))
        where, key = data.draw(st.sampled_from(slots))
        where[key] = data.draw(values)
    rows = [tuple(row) for row in rows]
    text = json.dumps({"vertices": vertices, "edges": edges, "incidences": [
        dict(zip(("id", "vertex", "edge", "sign"), row)) for row in rows]},
        indent=2)
    want = _verdict(oracle_check_rows, vertices, edges, rows, text)
    assert _verdict(_check_rows, vertices, edges, rows, text) == want
    bare = _verdict(oracle_check_rows, tuple(vertices), tuple(edges), rows)
    assert _verdict(OrientedHypergraph.build, vertices, edges, rows) == bare
    doc = json.loads(text)  # the str subclass comes back a str
    rows = list(map(itemgetter("id", "vertex", "edge", "sign"),
                    doc["incidences"]))
    assert _verdict(parse, text) == _verdict(
        oracle_check_rows, doc["vertices"], doc["edges"], rows, text)


_TRICKY_IDS = st.text(alphabet=st.sampled_from('ab"\\/\n\x00\x7féß☃\U0001d11e'),
                      max_size=4) | st.text(max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TRICKY_IDS, unique=True, max_size=4),
       st.lists(_TRICKY_IDS, unique=True, max_size=4), st.data())
def test_serialize_matches_the_indenting_encoder(vertices, edges, data):
    """Byte for byte the text of json.dumps(doc, indent=2), empty lists,
    escapes, non-ASCII ids and float signs included."""
    incidences = []
    if vertices and edges:
        ids = data.draw(st.lists(_TRICKY_IDS, unique=True, max_size=5))
        incidences = [Incidence(i, data.draw(st.sampled_from(vertices)),
                                data.draw(st.sampled_from(edges)),
                                data.draw(st.sampled_from((1, -1, 1.0, -1.0))))
                      for i in ids]
    g = OrientedHypergraph(tuple(vertices), tuple(edges), tuple(incidences))
    doc = {"vertices": vertices, "edges": edges,
           "incidences": [{"id": i.id, "vertex": i.vertex, "edge": i.edge,
                           "sign": i.sign} for i in incidences]}
    assert serialize(g) == json.dumps(doc, indent=2) + "\n"
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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["hypergraph", "signed"]), st.integers(0, 4000),
       st.booleans())
def test_two_uniform_means_every_edge_size_is_two(family, seed, bare_edge):
    g = (random_hypergraph(seed) if family == "hypergraph"
         else random_signed_graph(seed))
    if bare_edge:  # an edge without incidences has size 0
        g = OrientedHypergraph(g.vertices, g.edges + ("bare",), g.incidences)
    assert g.is_two_uniform() == all(g.edge_size(e) == 2 for e in g.edges)
    if family == "signed" and not bare_edge:
        assert g.is_two_uniform()


def _nx_multigraph(g):
    """The bipartite representation as a networkx MultiGraph keyed by
    incidence id."""
    mg = nx.MultiGraph()
    mg.add_nodes_from(gamma_nodes(g))
    for inc in g.incidences:
        mg.add_edge(("v", inc.vertex), ("e", inc.edge), key=inc.id)
    return mg


def without(g, ids):
    """g with the incidences ``ids`` removed and every node kept."""
    return OrientedHypergraph(g.vertices, g.edges, tuple(
        inc for inc in g.incidences if inc.id not in ids))


def _check_component_order(g, comps):
    """Components come in order of their first node, which is each one's
    least, and every component lists its nodes in g's own order."""
    position = {node: k for k, node in enumerate(gamma_nodes(g))}
    firsts = [position[c[0]] for c in comps]
    assert firsts == sorted(firsts)
    for comp in comps:
        assert [position[n] for n in comp] == sorted(position[n] for n in comp)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=4000),
       st.sets(st.integers(min_value=1, max_value=12)))
def test_components_match_networkx(seed, dropped):
    g = without(random_hypergraph(seed), {f"i{k}" for k in dropped})
    comps = gamma_components(g)
    want = {frozenset(c) for c in nx.connected_components(_nx_multigraph(g))}
    assert {frozenset(c) for c in comps} == want
    assert sum(len(c) for c in comps) == len(gamma_nodes(g))
    _check_component_order(g, comps)
    assert len(comps) == nx.number_connected_components(_nx_multigraph(g))


def test_components_match_the_breadth_first_oracle():
    """The union-find components partition the nodes as the breadth-first
    search over the node-keyed adjacency does, component for component in
    the same order, and the cyclomatic number is |I| - |V| - |E| plus the
    component count that the search and networkx find."""
    for g in walk_instances() + [random_hypergraph(seed, extra_range=(0, 6))
                                 for seed in range(150, 300)]:
        comps, want = gamma_components(g), oracle_gamma_components(g)
        assert [set(c) for c in comps] == [set(c) for c in want], g
        assert [c[0] for c in comps] == [c[0] for c in want], g
        _check_component_order(g, comps)
        count = nx.number_connected_components(_nx_multigraph(g))
        assert len(want) == count
        assert cyclomatic_number(g) == (len(g.incidences) - len(g.vertices)
                                        - len(g.edges) + count), g


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=4000))
def test_bridges_match_networkx(seed):
    """A bridge is a block of one incidence."""
    g = random_hypergraph(seed, max_incidences=16, extra_range=(0, 6))
    ends = {inc.id: frozenset({("v", inc.vertex), ("e", inc.edge)})
            for inc in g.incidences}
    want = {frozenset(pair) for pair in nx.bridges(_nx_multigraph(g))}
    assert {ends[i] for b in blocks(g) if len(b) == 1 for i in b} == want


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


FAMILIES = {"random_hypergraph": random_hypergraph,
            "random_balanceable": random_balanceable,
            "plant_obstruction": plant_obstruction}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 300), st.data())
def test_derived_views_pass_the_checking_constructor(family, seed, data):
    """Views are built without validation; each must be a hypergraph the
    validating constructor accepts, equal to what it builds."""
    g = FAMILIES[family](seed)

    def some(items):
        return data.draw(st.lists(st.sampled_from(items), unique=True)
                         if items else st.just([]))

    ids = [i.id for i in g.incidences]
    views = [
        edge_induced(g, some(g.edges), keep_vertices=some(g.vertices)),
        weak_delete(g, some(g.vertices), some(g.edges)),
        g.with_signs({i: data.draw(st.sampled_from((1, -1)))
                      for i in some(ids)}),
        reverse_incidences(g, some(ids)),
    ]
    for w in g.vertices:
        at = g.incidences_at(w)
        if len(at) == 2 and at[0].edge != at[1].edge:
            views.append(contract_degree2_vertex(g, w))
    for block in blocks(g):
        views.append(_block_view(g, [i for i in g.incidences if i.id in block]))
    for view in views:
        assert OrientedHypergraph(view.vertices, view.edges,
                                  view.incidences) == view
