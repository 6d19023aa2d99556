"""Flower and artery recognition, decomposition validation, search."""

import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest

from ohg.balance import is_balanceable, is_balanced
from ohg.errors import InputError, ResourceError
from ohg.linalg import Domain
from ohg.matroids import nullity
from ohg import shunting
from ohg.model import (OrientedHypergraph, edge_induced, incidence_matrix,
                       make_Lk, reverse_incidences, serialize, weak_delete)
from ohg.shunting import (
    DEFAULT_MAX_FLOWER_EDGES,
    DEFAULT_SEARCH_BUDGET,
    ShuntingDecomposition,
    ShuntingReport,
    _flower_part_candidates,
    _match_pairing,
    _PartFacts,
    artery_external_vertices,
    build_arterial_connection,
    classify_shunt_paths,
    find_shunting_decomposition,
    find_thorns,
    generate_optimal_shunting,
    is_artery,
    is_balanceable_shunting,
    is_F_maximal,
    is_flower,
    is_inseparable,
    is_optimal_shunting,
    is_pseudo_flower,
    is_S_minimal,
    part_thorns,
    to_hypercircle,
    upsilon_tree,
    validate_shunting,
    verify_shunting,
)

from census import connected_multigraphs, realize, switching_patterns
from instances import plant_obstruction, random_hypergraph
from oracles import (oracle_flower_part_candidates, oracle_is_F_maximal,
                     oracle_is_flower, oracle_minimal_balancing_sets,
                     oracle_to_hypercircle)

EXHAUSTED = "no decomposition found: bounded search space exhausted"
OUT_OF_BUDGET = "no decomposition found within budget"

# find_shunting_decomposition(g, budget) on generate_optimal_shunting(seed):
# (seed, budget) -> (subsets and candidates inspected, reason).
SEARCH_PINS = {
    (0, None): (6759, "found"),
    (0, 200): (201, "no decomposition found within budget"),
    (1, None): (1170, "found"),
    (1, 20): (21, "no decomposition found within budget"),
    (2, None): (147, "found"),
    (2, 200): (147, "found"),
    (3, None): (1305, "found"),
}

# The same search on every connected signed multigraph with at most four
# edges, one per switching class: budget -> (total inspected, reason
# counts, found instances with their inspected count).
CENSUS_SEARCH_PINS = {
    5000: (8565, {"found": 7, EXHAUSTED: 168}, {
        (1, ((0, 0), (0, 0)), (-1, -1)): 25,
        (2, ((0, 0), (0, 1), (0, 1)), (-1, 1, -1)): 41,
        (2, ((0, 0), (0, 1), (1, 1)), (-1, 1, -1)): 31,
        (3, ((0, 0), (0, 1), (0, 2), (1, 2)), (-1, 1, 1, -1)): 97,
        (3, ((0, 0), (0, 1), (1, 2), (1, 2)), (-1, 1, 1, -1)): 51,
        (3, ((0, 0), (0, 1), (1, 2), (2, 2)), (-1, 1, 1, -1)): 40,
        (3, ((0, 1), (0, 1), (0, 2), (0, 2)), (1, -1, 1, -1)): 61}),
    60: (5301, {"found": 5, EXHAUSTED: 140, OUT_OF_BUDGET: 30}, {
        (1, ((0, 0), (0, 0)), (-1, -1)): 25,
        (2, ((0, 0), (0, 1), (0, 1)), (-1, 1, -1)): 41,
        (2, ((0, 0), (0, 1), (1, 1)), (-1, 1, -1)): 31,
        (3, ((0, 0), (0, 1), (1, 2), (1, 2)), (-1, 1, 1, -1)): 51,
        (3, ((0, 0), (0, 1), (1, 2), (2, 2)), (-1, 1, 1, -1)): 40}),
}

CHECK_NAMES = (
    "parts-disjoint", "coverage", "flower-parts", "arteries", "thorns",
    "balancing-set", "condition-1-connected", "condition-2-externals",
    "condition-3-pairing",
)


def build(vertices, edges, incs):
    return OrientedHypergraph.build(vertices, edges, incs)


def loop(sign=-1):
    return build(["v"], ["e"], [("i1", "v", "e", 1), ("i2", "v", "e", sign)])


def triangle():
    return build(["v1", "v2", "v3"], ["e1", "e2", "e3"],
                 [("i1", "v1", "e1", 1), ("i2", "v2", "e1", -1),
                  ("i3", "v2", "e2", 1), ("i4", "v3", "e2", -1),
                  ("i5", "v3", "e3", 1), ("i6", "v1", "e3", 1)])


def one_edge():
    return build(["v"], ["e"], [("i1", "v", "e", 1)])


def two_theta():
    return build(["a", "b"], ["e1", "e2", "e3"],
                 [(f"p{k}", "a", f"e{k}", 1) for k in (1, 2, 3)]
                 + [(f"q{k}", "b", f"e{k}", -1) for k in (1, 2, 3)])


def double_triple_edge():
    return build(["a", "b", "c"], ["e", "f"],
                 [("p1", "a", "e", 1), ("p2", "b", "e", 1),
                  ("p3", "c", "e", 1), ("q1", "a", "f", -1),
                  ("q2", "b", "f", -1), ("q3", "c", "f", -1)])


def path_or_circle(n, closed, sign=-1):
    """n 2-edges c1..cn in a row, closed into a circle whose last
    incidence has the given sign when ``closed``."""
    vertices = [f"v{k}" for k in range(1, n + 1 + (not closed))]
    incs = []
    for k in range(1, n + 1):
        tail = vertices[k % len(vertices)]
        incs += [(f"i{k}a", f"v{k}", f"c{k}", 1),
                 (f"i{k}b", tail, f"c{k}", sign if k == n else -1)]
    return build(vertices, [f"c{k}" for k in range(1, n + 1)], incs)


def thorned_triangle():
    g = triangle()
    return build(list(g.vertices) + ["x"], g.edges,
                 [(i.id, i.vertex, i.edge, i.sign) for i in g.incidences]
                 + [("i7", "x", "e1", 1)])


class TestRecognizers:
    def test_flower_matrix(self):
        assert is_flower(loop())
        assert is_flower(triangle())
        assert is_flower(make_Lk(3, 2))
        assert is_flower(double_triple_edge())
        assert not is_flower(one_edge())
        assert not is_flower(two_theta())
        path = build(["a", "b", "c"], ["e", "f"],
                     [("i1", "a", "e", 1), ("i2", "b", "e", 1),
                      ("i3", "b", "f", 1), ("i4", "c", "f", 1)])
        assert not is_flower(path)
        assert is_inseparable(two_theta())
        assert not is_inseparable(path)

    def test_circle_with_chord_is_not_a_flower(self):
        g = build(["v1", "v2", "v3"], ["e1", "e2", "e3", "c"],
                  [("i1", "v1", "e1", 1), ("i2", "v2", "e1", -1),
                   ("i3", "v2", "e2", 1), ("i4", "v3", "e2", -1),
                   ("i5", "v3", "e3", 1), ("i6", "v1", "e3", 1),
                   ("i7", "v1", "c", 1), ("i8", "v2", "c", -1)])
        assert not is_flower(g)

    def test_thorns(self):
        g = thorned_triangle()
        assert find_thorns(g) == frozenset({"x"})
        # A pendant 2-edge off a circle hangs a monovalent vertex on an
        # edge that lies on no circle, so it is not a thorn.
        h = build(["v1", "v2", "v3", "y"], ["e1", "e2", "e3", "d"],
                  [("i1", "v1", "e1", 1), ("i2", "v2", "e1", -1),
                   ("i3", "v2", "e2", 1), ("i4", "v3", "e2", -1),
                   ("i5", "v3", "e3", 1), ("i6", "v1", "e3", 1),
                   ("i7", "v1", "d", 1), ("i8", "y", "d", -1)])
        assert find_thorns(h) == frozenset()

    def test_pseudo_flower(self):
        assert is_pseudo_flower(thorned_triangle())
        assert not is_flower(thorned_triangle())
        assert is_pseudo_flower(one_edge())
        assert not is_pseudo_flower(one_edge(), allow_one_edges=False)
        assert not is_pseudo_flower(triangle())
        assert part_thorns(one_edge()) == frozenset({"v"})
        assert part_thorns(thorned_triangle()) == frozenset({"x"})

    def test_artery_matrix(self):
        assert is_artery(build(["a"], [], []))
        assert is_artery(build(["a", "b"], ["e"],
                               [("i1", "a", "e", 1), ("i2", "b", "e", 1)]))
        path = build(["a", "b", "c"], ["e", "f"],
                     [("i1", "a", "e", 1), ("i2", "b", "e", 1),
                      ("i3", "b", "f", 1), ("i4", "c", "f", 1)])
        assert is_artery(path)
        triple = build(["a", "b", "c"], ["e"],
                       [("i1", "a", "e", 1), ("i2", "b", "e", 1),
                        ("i3", "c", "e", 1)])
        assert is_artery(triple)
        assert not is_artery(loop())
        assert not is_artery(one_edge())
        assert not is_artery(triangle())

    def test_artery_externals(self):
        path = build(["a", "b", "c"], ["e", "f"],
                     [("i1", "a", "e", 1), ("i2", "b", "e", 1),
                      ("i3", "b", "f", 1), ("i4", "c", "f", 1)])
        assert artery_external_vertices(path) == frozenset({"a", "c"})
        assert artery_external_vertices(build(["a"], [], [])) == \
            frozenset({"a"})


class TestHypercircle:
    def test_small_shapes(self):
        assert (to_hypercircle(loop()).t, to_hypercircle(loop()).k) == (0, 1)
        assert (to_hypercircle(triangle()).t,
                to_hypercircle(triangle()).k) == (0, 1)
        assert (to_hypercircle(one_edge()).t,
                to_hypercircle(one_edge()).k) == (1, 1)
        assert (to_hypercircle(two_theta()).t,
                to_hypercircle(two_theta()).k) == (0, 1)

    def test_circle_core_counts_petals(self):
        for seed in range(5):
            g, d = generate_optimal_shunting(seed, flower_kind="circle",
                                             artery_length=1)
            hc = to_hypercircle(g)
            assert hc.t == 0
            assert hc.k == len(d.flowers)

    def test_contraction_preserves_edge_count_shape(self):
        g, _ = generate_optimal_shunting(3, flower_kind="circle")
        hc = to_hypercircle(g)
        assert len(hc.hypergraph.vertices) <= len(g.vertices)

    def test_one_pass_matches_scanning_again(self):
        """The one sorted pass contracts as the scan that starts over after
        each contraction did, on random, obstructed and generated inputs."""
        cases = [random_hypergraph(seed) for seed in range(300)]
        cases += [plant_obstruction(seed) for seed in range(100)]
        cases += [generate_optimal_shunting(seed, artery_length=length)[0]
                  for seed in range(30) for length in (None, 0, 1, 2, 3)]
        contracted = 0
        for g in cases:
            hc = to_hypercircle(g)
            assert hc == oracle_to_hypercircle(g)
            contracted += len(hc.hypergraph.vertices) < len(g.vertices)
        assert contracted > len(cases) // 4


class TestDecompositionIO:
    def test_roundtrip(self):
        _, d = generate_optimal_shunting(4)
        again = ShuntingDecomposition.from_json(d.to_json())
        assert again == d

    def test_bad_json(self):
        with pytest.raises(InputError):
            ShuntingDecomposition.from_json("{nope")

    def test_missing_and_unknown_keys(self):
        _, d = generate_optimal_shunting(4)
        payload = json.loads(d.to_json())
        del payload["thorns"]
        payload["extra"] = 1
        with pytest.raises(InputError) as err:
            ShuntingDecomposition.from_json(json.dumps(payload))
        assert "thorns" in str(err.value)
        assert "extra" in str(err.value)

    def test_non_object(self):
        with pytest.raises(InputError):
            ShuntingDecomposition.from_json("[1, 2]")

    def test_wrong_shapes(self):
        payload = json.loads(generate_optimal_shunting(4)[1].to_json())
        for key, value in (("flowers", 3), ("flowers", [[["e"]]]),
                           ("arteries", [[1]]), ("thorns", "x"),
                           ("balancing_set", None), ("pairing", []),
                           ("pairing", {"a": 1})):
            with pytest.raises(InputError, match=key):
                ShuntingDecomposition.from_json(
                    json.dumps(dict(payload, **{key: value})))


class TestValidation:
    def test_generator_instances_validate(self):
        for seed in range(10):
            g, d = generate_optimal_shunting(seed)
            report = validate_shunting(d, g)
            assert report.ok, report.failed()
            assert tuple(c.name for c in report.checks) == CHECK_NAMES
            assert is_balanceable_shunting(d, g)
            assert is_F_maximal(d, g)
            assert is_S_minimal(d, g)
            assert is_optimal_shunting(d, g)

    def test_generator_nullity_one(self):
        for seed in range(6):
            g, _ = generate_optimal_shunting(seed)
            m = incidence_matrix(g, Domain.rationals())
            assert nullity(m) == 1

    def test_generator_deterministic(self):
        a_g, a_d = generate_optimal_shunting(9)
        b_g, b_d = generate_optimal_shunting(9)
        assert a_g == b_g and a_d == b_d

    def test_missing_part_fails_coverage(self):
        g, d = generate_optimal_shunting(1)
        broken = ShuntingDecomposition.build(
            d.flowers[:-1], d.arteries, d.vertex_arteries,
            d.balancing_set, d.thorns, d.pairing)
        report = validate_shunting(broken, g)
        assert not report.ok
        assert any(c.name == "coverage" for c in report.failed())
        assert not is_optimal_shunting(broken, g)

    def test_scrambled_pairing_fails_condition_3(self):
        g, d = generate_optimal_shunting(1)
        bad_pairing = {k: k for k in d.pairing}
        broken = ShuntingDecomposition.build(
            d.flowers, d.arteries, d.vertex_arteries,
            d.balancing_set, d.thorns, bad_pairing)
        report = validate_shunting(broken, g)
        assert any(c.name == "condition-3-pairing" for c in report.failed())

    def test_unknown_ids_rejected(self):
        g, d = generate_optimal_shunting(1)
        broken = ShuntingDecomposition.build(
            d.flowers + (frozenset({"ghost"}),), d.arteries,
            d.vertex_arteries, d.balancing_set, d.thorns, d.pairing)
        with pytest.raises(InputError):
            validate_shunting(broken, g)

    def test_report_json(self):
        g, d = generate_optimal_shunting(2)
        payload = json.loads(validate_shunting(d, g).to_json())
        assert payload["ok"] is True
        assert len(payload["checks"]) == len(CHECK_NAMES)

    def test_shunt_paths_between_thorns(self):
        g, d = generate_optimal_shunting(5, artery_length=2)
        labels = {p.label for p in classify_shunt_paths(d, g)}
        assert labels  # at least one classified path
        assert labels <= {"tt", "tb", "bb"}

    def test_shunt_path_edges_pinned(self):
        """Edge order of every shunt path, recorded for lengths 2 and 3."""
        firsts = {0: [("p0.v1", "p1.x"), ("p0.v3", "p2.x")],
                  1: [("p0.v2", "p1.x")], 2: [("p0.v2", "p1.x")],
                  3: [("p0.v5", "p1.x")], 4: [("p0.v2", "p1.x")],
                  5: [("p0.v1", "p1.x"), ("p0.v2", "p2.x")]}
        for seed, ends in firsts.items():
            for length in (2, 3):
                g, d = generate_optimal_shunting(seed, artery_length=length)
                got = [(p.endpoints, p.edges)
                       for p in classify_shunt_paths(d, g)]
                want = [(pair, tuple(f"a{k}.e{n}"
                                     for n in range(1, length + 1)))
                        for k, pair in enumerate(ends)]
                assert got == want

    def test_shunt_paths_through_a_spider_artery(self):
        # A 3-edge subdivided on every leg: three leaves, three paths.
        g = build(["c1", "c2", "c3", "l1", "l2", "l3"],
                  ["h", "f1", "f2", "f3"],
                  [("h1", "c1", "h", 1), ("h2", "c2", "h", 1),
                   ("h3", "c3", "h", 1),
                   ("a1", "c1", "f1", 1), ("b1", "l1", "f1", -1),
                   ("a2", "c2", "f2", 1), ("b2", "l2", "f2", -1),
                   ("a3", "c3", "f3", 1), ("b3", "l3", "f3", -1)])
        assert is_artery(g)
        d = ShuntingDecomposition.build([], [("h", "f1", "f2", "f3")])
        got = [(p.endpoints, p.edges) for p in classify_shunt_paths(d, g)]
        assert got == [(("l1", "l2"), ("f1", "h", "f2")),
                       (("l1", "l3"), ("f1", "h", "f3")),
                       (("l2", "l3"), ("f2", "h", "f3"))]


class TestUpsilon:
    def test_tree_shape(self):
        g, d = generate_optimal_shunting(6)
        tree = upsilon_tree(d, g)
        parts = len(d.flowers) + len(d.arteries)
        assert len(tree.vertices) == parts
        for e in tree.edges:
            assert tree.edge_size(e) == 2

    def test_rejects_invalid_decomposition(self):
        g, d = generate_optimal_shunting(6)
        broken = ShuntingDecomposition.build(
            d.flowers[:-1], d.arteries, d.vertex_arteries,
            d.balancing_set, d.thorns, d.pairing)
        with pytest.raises(InputError):
            upsilon_tree(broken, g)


# sha256 of every answer ``_answers`` gives on the decompositions of
# ``_report_corpus``, recorded before the queries shared one part memo.
REPORT_DIGEST = (
    "29ddcebe23a2742c99577767aee30da5ef58881ff490849fdb558f298aa9ae87")


def _answers(d, g):
    """The validation report, the shunt paths and the upsilon tree of d,
    each as JSON data, or the type and text of what the query raised."""
    out = []
    for query in (lambda: json.loads(validate_shunting(d, g).to_json()),
                  lambda: [[p.endpoints, p.edges, p.label, p.internal]
                           for p in classify_shunt_paths(d, g)],
                  lambda: serialize(upsilon_tree(d, g))):
        try:
            out.append(query())
        except Exception as exc:
            out.append([type(exc).__name__, str(exc)])
    return out


def _report_corpus():
    """Generated shuntings, each with a fixed list of broken copies: a part
    dropped, the identity pairing, an artery edge moved into a flower
    part, a thorn dropped, a vertex artery added, and the flower parts
    merged into one, which makes each edge-artery's path internal."""
    for seed in range(30):
        for length in (None, 0, 1, 2):
            g, d = generate_optimal_shunting(seed, artery_length=length)
            yield d, g
            yield replace(d, flowers=d.flowers[1:]), g
            yield replace(d, pairing={k: k for k in d.pairing}), g
            if d.arteries:
                moved, *rest = d.arteries[0]
                yield replace(d, flowers=(d.flowers[0] | {moved},)
                              + d.flowers[1:],
                              arteries=(tuple(rest),) + d.arteries[1:]), g
            yield replace(d, thorns=d.thorns - {min(d.thorns)}), g
            yield replace(d, vertex_arteries=d.vertex_arteries + (
                min(set(g.vertices) - set(d.vertex_arteries)),)), g
            yield replace(d, flowers=(frozenset().union(*d.flowers),)), g


def test_reports_pinned():
    """Every check's verdict and detail, every shunt path and every upsilon
    tree or refusal on the corpus, against a recorded digest; the corpus
    fails each of the nine checks at least once."""
    answers = [_answers(d, g) for d, g in _report_corpus()]
    failed = {c["name"] for report, _, _ in answers
              for c in report["checks"] if not c["passed"]}
    assert failed == set(CHECK_NAMES)
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == REPORT_DIGEST


@pytest.mark.parametrize("length", [0, 1, 2])
def test_each_query_builds_one_memo(monkeypatch, length):
    """One part memo per call of each decomposition query."""
    made = []
    init = _PartFacts.__init__

    def counted(self, g):
        made.append(self)
        init(self, g)

    monkeypatch.setattr(_PartFacts, "__init__", counted)
    for seed in range(4):
        g, d = generate_optimal_shunting(seed, artery_length=length)
        for query in (upsilon_tree, verify_shunting, classify_shunt_paths,
                      lambda d, g: generate_optimal_shunting(
                          seed, artery_length=length)):
            made.clear()
            query(d, g)
            assert len(made) == 1, (seed, query)


class TestArterialBuilder:
    def test_merge_identifies_vertices(self):
        a = loop()
        b = one_edge()
        built = build_arterial_connection([a, b], [((0, "v"), (1, "v"), 0)])
        g = built.hypergraph
        assert len(g.vertices) == 1
        (edge_ids, (end_a, end_b)) = built.arteries[0]
        assert edge_ids == ()
        assert end_a == end_b

    def test_path_artery(self):
        a = loop()
        b = one_edge()
        built = build_arterial_connection([a, b], [((0, "v"), (1, "v"), 2)])
        g = built.hypergraph
        edge_ids, (end_a, end_b) = built.arteries[0]
        assert len(edge_ids) == 2
        assert end_a != end_b
        assert end_a in g.vertices and end_b in g.vertices

    def test_cycle_pattern_rejected(self):
        a, b = loop(), loop(1)
        with pytest.raises(InputError):
            build_arterial_connection(
                [a, b], [((0, "v"), (1, "v"), 1), ((1, "v"), (0, "v"), 1)])

    def test_bad_part_or_vertex(self):
        with pytest.raises(InputError):
            build_arterial_connection([loop()], [((0, "v"), (3, "v"), 1)])
        with pytest.raises(InputError):
            build_arterial_connection([loop(), loop()],
                                      [((0, "v"), (1, "w"), 1)])

    def test_chained_merges_and_a_path_artery_are_pinned(self):
        """Three parts joined at one vertex by two length-0 connections, the
        second naming a vertex the first merged away, and a fourth part
        joined to that vertex by a length-2 artery."""
        def part(s1, s2):
            return OrientedHypergraph.build(
                ["u", "w"], ["e"], [("i", "u", "e", s1), ("j", "w", "e", s2)])

        built = build_arterial_connection(
            [part(1, 1), part(1, -1), part(-1, 1), part(-1, -1)],
            [((0, "u"), (1, "u"), 0), ((2, "w"), (1, "u"), 0),
             ((3, "u"), (0, "u"), 2)])
        assert built.hypergraph == OrientedHypergraph.build(
            ["p0.w", "p1.w", "p2.u", "p2.w", "p3.u", "p3.w", "a2.w1"],
            ["p0.e", "p1.e", "p2.e", "p3.e", "a2.e1", "a2.e2"],
            [("p0.i", "p2.w", "p0.e", 1), ("p0.j", "p0.w", "p0.e", 1),
             ("p1.i", "p2.w", "p1.e", 1), ("p1.j", "p1.w", "p1.e", -1),
             ("p2.i", "p2.u", "p2.e", -1), ("p2.j", "p2.w", "p2.e", 1),
             ("p3.i", "p3.u", "p3.e", -1), ("p3.j", "p3.w", "p3.e", -1),
             ("a2.i1a", "p3.u", "a2.e1", 1), ("a2.i1b", "a2.w1", "a2.e1", -1),
             ("a2.i2a", "a2.w1", "a2.e2", 1), ("a2.i2b", "p2.w", "a2.e2", -1)])
        assert hashlib.sha256(serialize(built.hypergraph).encode()).hexdigest() \
            == "dda675a98c0930f8b5fee7bf929729aacc3f528f198075ab774c61f26ad2a1d0"
        assert built.arteries == (((), ("p2.w", "p2.w")),
                                  ((), ("p2.w", "p2.w")),
                                  (("a2.e1", "a2.e2"), ("p3.u", "p2.w")))

    def test_generated_instances_are_pinned(self):
        """Graph and decomposition JSON of seeds 0-49, as one SHA-256."""
        digest = hashlib.sha256()
        for seed in range(50):
            g, d = generate_optimal_shunting(seed)
            digest.update(serialize(g).encode())
            digest.update(d.to_json().encode())
        assert digest.hexdigest() == (
            "3ab605ad956a69cc261f741ce459a7ae801b7b837c9ac21b969a6cea3b982a1b")


class TestSearch:
    def test_rediscovers_generated_instances(self):
        for seed in range(3):
            g, _ = generate_optimal_shunting(seed)
            result = find_shunting_decomposition(g)
            assert result.found is not None, result.reason
            assert is_optimal_shunting(result.found, g)
            assert result.reason == "found"

    def test_handcuff(self):
        g = build(
            ["a", "b"], ["e", "f", "m"],
            [("h1", "a", "e", 1), ("h2", "a", "e", 1),
             ("h3", "a", "m", 1), ("h4", "b", "m", -1),
             ("h5", "b", "f", 1), ("h6", "b", "f", 1)])
        result = find_shunting_decomposition(g)
        assert result.found is not None
        assert is_optimal_shunting(result.found, g)

    def test_honest_miss_on_balanced_circle(self):
        g = build(["v1", "v2"], ["e1", "e2"],
                  [("i1", "v1", "e1", 1), ("i2", "v2", "e1", -1),
                   ("i3", "v2", "e2", 1), ("i4", "v1", "e2", -1)])
        result = find_shunting_decomposition(g)
        assert result.found is None
        assert "exhausted" in result.reason

    def test_budget_miss_reported(self):
        g, _ = generate_optimal_shunting(0)
        result = find_shunting_decomposition(g, budget=20)
        assert result.found is None
        assert "within budget" in result.reason
        assert result.inspected <= 21

    def test_search_pinned(self):
        """Inspected count and reason on generated shuntings, recorded."""
        for (seed, budget), pin in SEARCH_PINS.items():
            g, _ = generate_optimal_shunting(seed)
            result = (find_shunting_decomposition(g) if budget is None
                      else find_shunting_decomposition(g, budget=budget))
            assert (result.inspected, result.reason) == pin

    def test_census_search_pinned(self):
        """Inspected counts and reasons over the four-edge signed census."""
        for budget, (total, reasons, found) in CENSUS_SEARCH_PINS.items():
            seen_total, seen_reasons, seen_found = 0, Counter(), {}
            for n, edges in connected_multigraphs(4):
                for eps in switching_patterns(n, edges):
                    result = find_shunting_decomposition(
                        realize(n, edges, eps), budget=budget)
                    seen_total += result.inspected
                    seen_reasons[result.reason] += 1
                    if result.found is not None:
                        seen_found[(n, edges, eps)] = result.inspected
            assert seen_total == total
            assert seen_reasons == reasons
            assert seen_found == found

    def test_found_decomposition_must_pass_fresh_validation(self, monkeypatch):
        g, _ = generate_optimal_shunting(2)
        monkeypatch.setattr(shunting, "validate_shunting",
                            lambda d, g: ShuntingReport(False, ()))
        with pytest.raises(RuntimeError, match="fresh validation"):
            find_shunting_decomposition(g)

    def test_search_leaves_no_memo_for_the_collector(self, monkeypatch):
        """A finished search frees its part memo by reference counting
        alone; a memo held in a reference cycle would pile up between
        collector runs and raise peak memory."""
        made = []

        class Tracked(_PartFacts):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(shunting, "_PartFacts", Tracked)
        g, _ = generate_optimal_shunting(0)
        gc.disable()
        try:
            for budget in (20, 200, 20_000):
                find_shunting_decomposition(g, budget=budget)
            alive = sum(ref() is not None for ref in made)
        finally:
            gc.enable()
        assert made and alive == 0

    def test_disconnected_miss(self):
        g = build(["a", "b"], ["e", "f"],
                  [("i1", "a", "e", 1), ("i2", "b", "f", 1)])
        result = find_shunting_decomposition(g)
        assert result.found is None
        assert "connected" in result.reason


class TestSearchCaps:
    """A cap met inside the search is a miss, as the budget is; long
    inputs do not meet the recursion limit."""

    def test_F_maximality_cap_is_a_miss(self):
        circle, _ = shunting._negative_circle_part(random.Random(0))
        g = build_arterial_connection(
            [circle, one_edge()], [((0, "v1"), (1, "v"), 12)]).hypergraph
        result = find_shunting_decomposition(g, budget=10**6)
        assert result.found is None
        assert result.reason == (
            "no decomposition found: F-maximality needs 12285 subset pairs "
            "(2 parts, 12 artery edges); the cap is 10000")
        assert 0 < result.inspected <= 10**6

    def test_long_path_is_searched_without_recursion(self):
        g = path_or_circle(1200, closed=False)
        result = find_shunting_decomposition(g, budget=10**40)
        assert result.found is None
        assert result.reason == EXHAUSTED
        # One unit per edge combination of the candidate phase, then one
        # per cover state: no part of a path is a flower part, so the
        # states are the 1201 prefixes of the path taken as artery edges.
        assert result.inspected == sum(
            comb(1200, k) for k in range(1, DEFAULT_MAX_FLOWER_EDGES + 1)
        ) + 1201

    def test_pairing_backtracks_over_1500_ids_without_recursion(self):
        """Every balancing incidence but the first can take s0 or its own
        partner; the first must give s0 up for the required s1, which is
        found only after the whole depth is backtracked."""
        n = 1500
        bal_ids = [f"b{k}" for k in range(n)]
        candidates = {"b0": ["s0", "s1"]}
        candidates.update({f"b{k}": ["s0", f"s{k + 1}"] for k in range(1, n)})
        pairing = _match_pairing(bal_ids, candidates, {"s1"})
        expected = ([(f"s{k + 1}", f"b{k}") for k in range(n - 1, 1, -1)]
                    + [("s0", "b1"), ("s1", "b0")])
        assert list(pairing.items()) == expected


def _walk(walk, budget):
    """Run a candidate walk against a budget counted as the search counts
    it: (candidates, or how the walk stopped; units spent)."""
    spent = [0]

    class Exhausted(Exception):
        pass

    def spend(units=1):
        if spent[0] + units > budget:
            spent[0] = budget + 1
            raise Exhausted
        spent[0] += units

    try:
        return walk(spend), spent[0]
    except Exhausted:
        return "budget", spent[0]
    except ResourceError:
        return "cap", spent[0]


def _with_loose_edge(g):
    """g with one more edge e0, on no vertex, sorted before the others."""
    return build(g.vertices, ("e0",) + tuple(g.edges),
                 [(i.id, i.vertex, i.edge, i.sign) for i in g.incidences])


def _candidate_instances():
    for n, edges in connected_multigraphs(4):
        for eps in switching_patterns(n, edges):
            yield realize(n, edges, eps)
    for seed in range(80):
        g = random_hypergraph(seed)
        yield g
        if seed % 4 == 0:
            yield _with_loose_edge(g)
        yield random_hypergraph(seed, max_incidences=16, extra_range=(0, 5),
                                ne_range=(3, 7))


def test_flower_part_candidates_match_the_combination_walk():
    """Grown candidates and their one-lump charge equal the walk over
    every edge combination, one unit each, at budgets around the phase's
    total and at the default."""
    seen = Counter()
    for g in _candidate_instances():
        degree = Counter(i.vertex for i in g.incidences)
        per_edge = Counter(i.edge for i in g.incidences)
        seen["loop"] += any(len({i.vertex for i in g.incidences_of(e)})
                            < per_edge[e] for e in g.edges)
        seen["incidence-less edge"] += len(per_edge) < len(g.edges)
        seen["degree > 2"] += any(d > 2 for d in degree.values())
        total = sum(comb(len(g.edges), k) for k in range(
            1, min(len(g.edges), DEFAULT_MAX_FLOWER_EDGES) + 1))
        for budget in (1, 5, total - 1, total, total + 1,
                       DEFAULT_SEARCH_BUDGET):
            grown = _walk(lambda spend: _flower_part_candidates(
                g, spend, _PartFacts(g)), budget)
            walked = _walk(lambda spend: oracle_flower_part_candidates(
                g, spend), budget)
            assert grown == walked, (g, budget)
            if isinstance(grown[0], list):
                seen["1-edge"] += any(
                    len(edge_induced(g, part).incidences) == 1
                    for part in grown[0])
                seen["larger part"] += any(len(part) > 1
                                           for part in grown[0])
            else:
                seen[grown[0]] += 1
    assert all(seen[k] for k in ("loop", "incidence-less edge", "degree > 2",
                                 "1-edge", "larger part", "budget")), seen


def test_flower_rule_matches_the_subset_walk():
    """The memo's flower verdict, which skips the subset walk on a part
    whose vertices all have degree <= 2, equals the exhaustive walk on
    every part, with and without the part's thorns weak-deleted."""
    seen = Counter()
    for g in _candidate_instances():
        facts = _PartFacts(g)
        for size in range(1, len(g.edges) + 1):
            for sub in combinations(g.edges, size):
                edges = frozenset(sub)
                view = facts.view(edges)
                thorns = facts.thorns(edges)
                for deleted, expected in (
                        (frozenset(), view),
                        (thorns, weak_delete(view, thorns))):
                    verdict = facts.flower(edges, deleted)
                    assert verdict == oracle_is_flower(expected), (g, sub)
                    low = all(d <= 2 for d in Counter(
                        i.vertex for i in expected.incidences).values())
                    seen[low, verdict, size > 1, bool(deleted)] += 1
    # Flowers of several edges at degree <= 2, thorned or not, and the
    # walk's verdicts above degree 2.
    assert all(seen[True, True, True, thorned] for thorned in (False, True))
    assert seen[False, True, True, False] and seen[False, False, True, False]


def _F_verdict(check, d, g):
    try:
        return check(d, g)
    except ResourceError as exc:
        return str(exc)


def _random_split(g, rng):
    """Up to five edges of g as one artery, the rest as up to three
    flower parts; no shunting condition is imposed."""
    edges = sorted(g.edges)
    rng.shuffle(edges)
    cut = rng.randint(1, min(5, len(edges) - 1))
    rest, flowers = edges[cut:], []
    while rest and len(flowers) < 3:
        k = rng.randint(1, len(rest))
        flowers.append(rest[:k])
        rest = rest[k:]
    return ShuntingDecomposition.build(flowers, [edges[:cut]])


class TestFMaximal:
    def test_a_flower_part_and_its_artery_closing_a_circle(self):
        g = path_or_circle(4, closed=True)
        d = ShuntingDecomposition.build([{"c1"}], [("c2", "c3", "c4")])
        assert oracle_is_F_maximal(d, g) is False
        assert is_F_maximal(d, g) is False

    def test_matches_fresh_recognizers(self):
        """One memo gives the verdicts that a fresh view and fresh
        recognizers per union gave, on generated shuntings and on random
        splits of generated and random hypergraphs into parts."""
        rng = random.Random(11)
        cases = []
        for seed in range(12):
            g, d = generate_optimal_shunting(seed)
            cases += [(d, g), (_random_split(g, rng), g)]
        for seed in range(40):
            g = random_hypergraph(seed)
            if len(g.edges) > 1:
                cases.append((_random_split(g, rng), g))
        seen = Counter()
        for d, g in cases:
            verdict = _F_verdict(is_F_maximal, d, g)
            assert verdict == _F_verdict(oracle_is_F_maximal, d, g), d
            seen[verdict] += 1
        assert seen[True] and seen[False]


def _assert_facts_match_recognizers(g):
    """Every fact the search memo holds about every edge subset of g equals
    the public recognizer run on the edge-induced view."""
    facts = _PartFacts(g)
    for size in range(len(g.edges) + 1):
        for sub in combinations(g.edges, size):
            edges = frozenset(sub)
            view = edge_induced(g, sub)
            assert facts.view(edges) == view
            assert facts.inseparable(edges) == is_inseparable(view)
            assert facts.flower(edges) == is_flower(view)
            assert facts.pseudo_flower(edges) == is_pseudo_flower(view)
            assert facts.thorns(edges) == find_thorns(view)
            assert facts.part_thorns(edges) == part_thorns(view)
            assert facts.balanceable(edges) == is_balanceable(view)[0]
            ids = sorted(i.id for i in view.incidences)
            # The memo decides by fundamental circles; check it against a
            # balance test on the reversed view (chosen = () is "balanced").
            for chosen in [()] + [(i,) for i in ids]:
                assert (facts.balancing(edges, chosen)
                        == is_balanced(reverse_incidences(view, chosen))[0])
            if not facts.balanceable(edges) or len(ids) > 6:
                continue
            spent = []

            def spend(units=1):
                spent.append(units)

            first = facts.minimal_balancing_sets(edges, spend)
            once = len(spent)
            again = facts.minimal_balancing_sets(edges, spend)
            # Met again, the part is charged its whole count in one call.
            assert again == first and spent[once:] == [once]
            assert set(first) == oracle_minimal_balancing_sets(view)


def test_part_facts_match_recognizers_on_signed_census():
    for n, edges in connected_multigraphs(4):
        for eps in switching_patterns(n, edges):
            _assert_facts_match_recognizers(realize(n, edges, eps))


@pytest.mark.parametrize("seed", range(0, 400, 10))
def test_part_facts_match_recognizers_on_random_hypergraphs(seed):
    _assert_facts_match_recognizers(random_hypergraph(seed))
