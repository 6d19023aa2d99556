"""Circle enumeration, signs, and the balanceability recognizer."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.connectivity import local_node_connectivity

import ohg.balance

from ohg.balance import (
    Circle,
    Walk,
    circle_sign,
    circle_sign_mod4,
    detect_theta,
    enumerate_circles,
    is_balanceable,
    is_balanced,
    negative_circle_from_theta,
    path_sign,
    validate_circle,
    validate_walk,
    verify_negative_circle,
    verify_theta,
)
from ohg.errors import InputError, ResourceError
from ohg.model import (EDGE, VERTEX, Incidence, OrientedHypergraph, gamma_nodes,
                       make_Lk)

from instances import (
    hypertree,
    plant_obstruction,
    plant_trap,
    random_balanceable,
    random_hypergraph,
    walk_instances,
    without_parallels,
)
from oracles import (
    oracle_circle_sign,
    oracle_circles,
    oracle_detect_theta,
    oracle_enumerate_circles,
    oracle_hub_pairs,
    oracle_is_balanceable,
    oracle_is_balanced,
)


def triangle(last_sign=-1):
    return OrientedHypergraph.build(
        ["v1", "v2", "v3"],
        ["e1", "e2", "e3"],
        [("i1", "v1", "e1", 1), ("i2", "v2", "e1", -1),
         ("i3", "v2", "e2", 1), ("i4", "v3", "e2", -1),
         ("i5", "v3", "e3", 1), ("i6", "v1", "e3", last_sign)])


def digon(s1=1, s2=-1):
    return OrientedHypergraph.build(
        ["a", "b"], ["e", "f"],
        [("p", "a", "e", 1), ("q", "b", "e", -1),
         ("r", "a", "f", s1), ("s", "b", "f", s2)])


class TestCircleForm:
    def test_canonical_under_rotation_and_reversal(self):
        g = triangle()
        # incidences[k] joins nodes[k] to nodes[k+1], wrapping at the end
        nodes = [(VERTEX, "v2"), (EDGE, "e2"), (VERTEX, "v3"),
                 (EDGE, "e3"), (VERTEX, "v1"), (EDGE, "e1")]
        incs = ["i3", "i4", "i5", "i6", "i1", "i2"]
        base = Circle.from_sequence(nodes, incs)
        rotated = Circle.from_sequence(nodes[2:] + nodes[:2],
                                       incs[2:] + incs[:2])
        reversed_ = Circle.from_sequence(
            (nodes[0],) + tuple(nodes[:0:-1]), incs[::-1])
        assert base == rotated == reversed_
        validate_circle(g, base)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from("abcde"), min_size=2, max_size=7),
           st.data())
    def test_canonical_form_is_the_least_rotation(self, incs, data):
        """The stored form is the least (incidences, nodes) pair over every
        rotation in both directions, repeated ids included."""
        nodes = data.draw(st.lists(st.sampled_from("uvwxyz"),
                                   min_size=len(incs), max_size=len(incs)))
        rev_nodes, rev_incs = [nodes[0]] + nodes[:0:-1], incs[::-1]
        least = min((tuple(i[r:] + i[:r]), tuple(n[r:] + n[:r]))
                    for n, i in ((nodes, incs), (rev_nodes, rev_incs))
                    for r in range(len(incs)))
        circle = Circle.from_sequence(nodes, incs)
        assert (circle.incidences, circle.nodes) == least

    def test_too_short_rejected(self):
        with pytest.raises(InputError):
            Circle.from_sequence([(VERTEX, "a")], ["p"])

    def test_walk_validation_catches_broken_step(self):
        g = triangle()
        walk = Walk(((VERTEX, "v1"), (EDGE, "e2")), ("i1",))
        with pytest.raises(InputError):
            validate_walk(g, walk)


class TestEnumeration:
    def test_triangle_has_one_circle(self):
        g = triangle()
        circles = enumerate_circles(g)
        assert len(circles) == 1
        assert circles[0].length == 3

    def test_parallel_incidences_close_a_circle(self):
        g = make_Lk(3, 2)
        circles = enumerate_circles(g)
        assert len(circles) == 3
        assert sorted(c.length for c in circles) == [1, 1, 1]

    def test_matches_oracle_on_fixed_instances(self):
        for g in (triangle(), digon(), make_Lk(4, 2), plant_obstruction(3)):
            lib = {frozenset(c.incidences) for c in enumerate_circles(g)}
            assert lib == {frozenset(c) for c in oracle_circles(g)}

    def test_cap_raises(self):
        g = OrientedHypergraph.build(
            ["a", "b"], [f"e{k}" for k in range(5)],
            [(f"p{k}", "a", f"e{k}", 1) for k in range(5)]
            + [(f"q{k}", "b", f"e{k}", 1) for k in range(5)])
        with pytest.raises(ResourceError):
            enumerate_circles(g, cap=3)

    @staticmethod
    def ring(n):
        """n 2-edges in a ring; the last incidence makes the circle negative."""
        return OrientedHypergraph.build(
            [f"v{k}" for k in range(n)], [f"e{k}" for k in range(n)],
            [(f"a{k}", f"v{k}", f"e{k}", 1) for k in range(n)]
            + [(f"b{k}", f"v{(k + 1) % n}", f"e{k}", 1 if k else -1)
               for k in range(n)])

    def test_long_circle_stays_below_recursion_limit(self):
        # 700 edges: 1,400 links, deeper than Python's default recursion
        # limit.
        n = 700
        g = self.ring(n)
        circles = enumerate_circles(g)
        assert len(circles) == 1
        assert len(circles[0].incidences) == 2 * n
        assert is_balanced(g) == (False, circles[0])

    def test_one_ring_takes_linear_adjacency_lookups(self, monkeypatch):
        """Finished roots and nodes left with one live link are stripped,
        so no root re-walks the ring: reads of the index's link lists stay
        linear in its length."""
        lookups = 0

        class Counting(list):
            def __getitem__(self, x):
                nonlocal lookups
                lookups += 1
                return super().__getitem__(x)

        index = ohg.balance._index

        def counted(g):
            built = index(g)
            built.links = Counting(built.links)
            return built

        monkeypatch.setattr(ohg.balance, "_index", counted)
        for n in (175, 350, 700):
            lookups = 0
            assert len(enumerate_circles(self.ring(n))) == 1
            # Two walks around the ring from the first root, then one
            # read per stripped node: about 6n for the ring's 2n nodes.
            assert 0 < lookups <= 8 * n

    def test_matches_the_node_keyed_walk(self):
        """The walk on the integer index lists the node-keyed walk's
        circles, list for list, and the brute-force circles where there
        are few enough incidences to try every subset."""
        for g in walk_instances():
            circles = enumerate_circles(g)
            assert circles == oracle_enumerate_circles(g), g
            if len(g.incidences) <= 16:
                assert ({frozenset(c.incidences) for c in circles}
                        == oracle_circles(g)), g


class TestSigns:
    def test_triangle_sign_by_last_incidence(self):
        pos, neg = triangle(-1), triangle(1)
        assert circle_sign(pos, enumerate_circles(pos)[0]) == 1
        assert circle_sign(neg, enumerate_circles(neg)[0]) == -1

    def test_digon_sign(self):
        # pair circle sign is the product of the two edge signs -s*s'
        mirror = digon(1, -1)
        assert circle_sign(mirror, enumerate_circles(mirror)[0]) == 1
        swapped = digon(-1, 1)
        assert circle_sign(swapped, enumerate_circles(swapped)[0]) == 1
        clash = digon(1, 1)
        assert circle_sign(clash, enumerate_circles(clash)[0]) == -1

    def test_path_sign_half_integer_walk(self):
        g = triangle()
        walk = Walk(((VERTEX, "v1"), (EDGE, "e1")), ("i1",))
        assert path_sign(g, walk) == 1
        # three incidences: one sign flip from the floor, signs 1,-1,1
        longer = Walk(((VERTEX, "v1"), (EDGE, "e1"), (VERTEX, "v2"),
                       (EDGE, "e2")), ("i1", "i2", "i3"))
        assert longer.length == 1.5
        assert path_sign(g, longer) == 1

    def test_mod4_agrees_with_product_rule(self):
        for seed in range(40):
            g = random_hypergraph(seed)
            for circle in enumerate_circles(g, cap=4000):
                assert circle_sign(g, circle) == circle_sign_mod4(g, circle)
                assert circle_sign(g, circle) == oracle_circle_sign(
                    g, set(circle.incidences))


class TestBalance:
    def test_triangle(self):
        ok, cert = is_balanced(triangle())
        assert ok and cert is None
        bad, witness = is_balanced(triangle(1))
        assert not bad
        assert verify_negative_circle(triangle(1), witness)

    def test_methods_agree_on_random_instances(self):
        for seed in range(60):
            g = random_hypergraph(seed)
            balanced, witness = is_balanced(g)
            every_circle = all(circle_sign(g, circle) == 1
                               for circle in enumerate_circles(g))
            assert balanced == every_circle == oracle_is_balanced(g)
            if not balanced:
                assert verify_negative_circle(g, witness)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 5000))
    def test_balanceable_matches_oracle(self, seed):
        g = random_hypergraph(seed)
        assert is_balanceable(g)[0] == oracle_is_balanceable(g)


class TestTheta:
    def test_l3_certificate(self):
        g = make_Lk(3, 3)
        ok, cert = is_balanceable(g)
        assert not ok
        assert cert.kind == "cross"
        assert verify_theta(g, cert)
        circle = negative_circle_from_theta(g, cert)
        assert verify_negative_circle(g, circle)

    def test_planted_obstructions_are_found(self):
        for seed in range(50):
            g = plant_obstruction(seed)
            cert = detect_theta(g, "cross")
            assert cert is not None
            assert verify_theta(g, cert)

    def test_vertex_kind(self):
        g = OrientedHypergraph.build(
            ["a", "b"], ["e1", "e2", "e3"],
            [(f"p{k}", "a", f"e{k}", 1) for k in (1, 2, 3)]
            + [(f"q{k}", "b", f"e{k}", -1) for k in (1, 2, 3)])
        cert = detect_theta(g, "vertex")
        assert cert is not None and cert.kind == "vertex"
        assert verify_theta(g, cert)

    def test_edge_kind(self):
        g = OrientedHypergraph.build(
            ["a", "b", "c"], ["e", "f"],
            [("p1", "a", "e", 1), ("p2", "b", "e", 1), ("p3", "c", "e", 1),
             ("q1", "a", "f", -1), ("q2", "b", "f", -1), ("q3", "c", "f", -1)])
        cert = detect_theta(g, "edge")
        assert cert is not None and cert.kind == "edge"
        assert verify_theta(g, cert)
        with pytest.raises(InputError):
            detect_theta(g, "diagonal")

    def test_balanceable_instances_have_no_theta(self):
        for seed in range(30):
            g = random_balanceable(seed)
            assert detect_theta(g, "cross") is None


def _theta_instance(family, seed):
    if family == "planted":
        return plant_obstruction(seed)
    if family == "balanceable":
        return random_balanceable(seed, max_incidences=16, extra_range=(1, 6))
    return random_hypergraph(seed, max_incidences=20, extra_range=(0, 9),
                             nv_range=(1, 7), ne_range=(1, 7))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["random", "balanceable", "planted"]),
       st.integers(0, 10_000))
def test_block_scan_matches_all_pairs_scan(family, seed):
    """The block-local scan returns the certificate of the scan over every
    pair, byte for byte, for each endpoint kind."""
    g = _theta_instance(family, seed)
    for kind in ("cross", "vertex", "edge"):
        got, want = detect_theta(g, kind), oracle_detect_theta(g, kind)
        assert (got and got.to_json()) == (want and want.to_json())
    if family == "planted":
        assert detect_theta(g, "cross") is not None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["random", "balanceable", "planted"]),
       st.integers(0, 10_000), st.data())
def test_hub_pairs_match_the_tagged_count(family, seed, data):
    """Hub pairs counted over plain ids are those counted over tagged
    nodes, for each kind, on all incidences and on a sub-list, also when
    every edge id is also a vertex id."""
    incs = list(_theta_instance(family, seed).incidences)
    some = data.draw(st.lists(st.sampled_from(incs), unique=True))
    shared = [Incidence(i.id, i.vertex, "v" + i.edge[1:], i.sign) for i in incs]
    for kind in ("cross", "vertex", "edge"):
        for sub in (incs, some, shared):
            assert list(ohg.balance._hub_pairs(sub, kind)) == \
                oracle_hub_pairs(sub, kind)


def _path_connectivity(graph, a, b):
    """Internally disjoint a-b paths in a simple graph; a direct link counts
    as one path of its own."""
    if graph.has_edge(a, b):
        rest = graph.copy()
        rest.remove_edge(a, b)
        return 1 + local_node_connectivity(rest, a, b)
    return local_node_connectivity(graph, a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_cross_theta_matches_networkx(seed):
    """Without parallel incidences the bipartite representation is simple:
    the scan finds a theta exactly when networkx counts three disjoint
    paths for some vertex-edge pair, and reports the least such pair."""
    g = without_parallels(random_hypergraph(
        seed, max_incidences=22, extra_range=(2, 12), nv_range=(2, 7),
        ne_range=(2, 7)))
    graph = nx.Graph()
    graph.add_nodes_from(gamma_nodes(g))
    graph.add_edges_from(((VERTEX, i.vertex), (EDGE, i.edge))
                         for i in g.incidences)
    thetas = [((VERTEX, v), (EDGE, e))
              for v in sorted(g.vertices) for e in sorted(g.edges)
              if _path_connectivity(graph, (VERTEX, v), (EDGE, e)) >= 3]
    cert = detect_theta(g, "cross")
    if not thetas:
        assert cert is None
    else:
        assert cert is not None and cert.endpoints == thetas[0]
        assert verify_theta(g, cert)


class TestThetaProbes:
    @pytest.fixture
    def probes(self, monkeypatch):
        calls = []
        flow = ohg.balance.internally_disjoint_paths

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return flow(*args, **kwargs)

        monkeypatch.setattr(ohg.balance, "internally_disjoint_paths", counted)
        return calls

    def test_hypertree_needs_no_probe(self, probes):
        g = hypertree(160)
        assert detect_theta(g, "cross") is None
        assert is_balanceable(g) == (True, None)
        assert probes == []

    def test_trapped_hypertree_needs_one_probe(self, probes):
        g = plant_trap(hypertree(160))
        cert = detect_theta(g, "cross")
        assert verify_theta(g, cert)
        assert cert.endpoints == ((VERTEX, "r"), (EDGE, "trap"))
        assert probes == [((VERTEX, "r"), (EDGE, "trap"))]

    def test_signed_graph_skips_the_blocks(self, probes, monkeypatch):
        """Without an edge of size three no cross pair exists, so the scan
        ends before the blocks are computed."""
        monkeypatch.setattr(ohg.balance, "blocks", None)
        g = OrientedHypergraph.build(
            ["a", "b", "c"], ["e", "f", "g"],
            [("p1", "a", "e", 1), ("p2", "b", "e", 1),
             ("q1", "b", "f", 1), ("q2", "c", "f", -1),
             ("r1", "c", "g", 1), ("r2", "a", "g", 1)])
        assert detect_theta(g, "cross") is None
        assert probes == []
