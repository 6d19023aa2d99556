"""The three benchmark workloads.

Each workload turns a seed into one round of queries, run by a single
client in a closed loop.  A query is a timed call into the library plus
the means to check its answer: ``canon`` gives the JSON-able answer whose
digest is compared with the recorded one, and ``check`` re-verifies it
independently (see ``checker``).  The library only ever sees the
generated inputs.

cli_ladder     CLI commands on hypertrees, trapped hypertrees and signed
               graphs of growing size: the only workload through parse and
               the CLI, dominated by the theta scan on its hypertree rungs,
               while its signed-graph rungs skip the scan altogether.
signed_census  Every connected signed multigraph with at most five edges,
               one per switching class, through circuits, circles and the
               shunting search: many tiny derived subhypergraphs, so
               validation, views, recognizers and tiny matrices dominate.
field_circuits Circuit enumeration on complete hypergraphs over Q, GF(2),
               GF(3) and GF(5), plus is_circuit on certified shunting
               instances: few large subset spaces, where elimination and
               per-subset matrix builds dominate and no theta scan runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import checker
import generators

import ohg
import ohg.cli
from ohg.linalg import Domain

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps the
# same shapes small enough for the benchmark's own tests.
SCALES = {
    "full": {
        "rungs": {"ht": (10, 20, 40), "trap": (10, 20, 40), "sg": (20, 40, 80)},
        "cli_pool": 5, "cli_pick": 3,
        "census_edges": 5,
        "complete": ((3, None), (4, None), (5, 3)),
        "gos_pool": 48, "gos_pick": 16,
    },
    "tiny": {
        "rungs": {"ht": (4, 6), "trap": (4,), "sg": (6,)},
        "cli_pool": 2, "cli_pick": 1,
        "census_edges": 3,
        "complete": ((3, None),),
        "gos_pool": 4, "gos_pick": 2,
    },
}

FIELDS = ("Q", 2, 3, 5)
SEARCH_BUDGET = 5000

CLI_COMMANDS = {
    "info": ["info"],
    "balanceable": ["balanceable", "--certificate"],
    "balance": ["balance", "--certificate"],
    "camion": ["camion", "--out", None],
    "frustration": ["frustration", "--mode", "local-search", "--budget", "2000"],
}


@dataclass
class Query:
    key: str                          # identity under which its digest is recorded
    tag: str                          # input family, for per-family trace figures
    call: Callable[[], object]        # the timed call
    canon: Callable[[object], object]  # JSON-able answer for the digest
    check: Callable[[object], list]   # independent re-verification
    prepare: Callable[[], None] | None = None  # untimed step before the call


def _pick(rng: random.Random, pool: int, pick: int | None) -> list[int]:
    """Instance seeds drawn from a fixed pool, so every one has a digest."""
    return list(range(pool)) if pick is None else sorted(rng.sample(range(pool), pick))


def graph_of(doc: dict) -> ohg.OrientedHypergraph:
    return ohg.OrientedHypergraph.build(
        doc["vertices"], doc["edges"],
        [(i["id"], i["vertex"], i["edge"], i["sign"]) for i in doc["incidences"]])


def doc_of(g) -> dict:
    return {"vertices": list(g.vertices), "edges": list(g.edges),
            "incidences": [{"id": i.id, "vertex": i.vertex, "edge": i.edge,
                            "sign": i.sign} for i in g.incidences]}


class Workload:
    """One round of queries made from a seed.

    Subclasses take ``everything=True`` to use their whole instance pool
    instead of a seeded sample, which is how the digests are recorded.
    """

    name = ""

    def __init__(self, seed: int, scale: str = "full"):
        self.rng = random.Random(seed)
        self.sizes = SCALES[scale]
        self.round: list[Query] = []

    def begin_round(self) -> None:
        """Reset state that must not carry over from one round to the next."""

    def warm_up(self) -> None:
        """Exercise every code path once, untimed, so lazy set-up is done."""


# ---------------------------------------------------------------------------
# cli_ladder


class CliLadder(Workload):
    """CLI commands on JSON files, in process, with stdout captured.

    Writes its input files into the current directory; CLI output names
    those files by relative path, so it is the same in every checkout.
    """

    name = "cli_ladder"

    def __init__(self, seed, scale="full", everything=False):
        super().__init__(seed, scale)
        pick = None if everything else self.sizes["cli_pick"]
        self.instances = []
        for family, rungs in self.sizes["rungs"].items():
            for size in rungs:
                for s in _pick(self.rng, self.sizes["cli_pool"], pick):
                    self.instances.append(self._instance(family, size, s))
        for inst in self.instances:
            with open(inst["file"], "w", encoding="utf-8") as fh:
                json.dump(inst["doc"], fh, indent=1)
        self.round = [self._query(inst, cmd) for inst in self.instances
                      for cmd in CLI_COMMANDS]
        self.rng.shuffle(self.round)

    @staticmethod
    def _instance(family: str, size: int, s: int) -> dict:
        truth = {"balanced": True, "balanceable": True}
        if family == "ht":
            doc = generators.hypertree(size, s)
        elif family == "trap":
            doc, paths = generators.plant_trap(generators.hypertree(size, s), s)
            truth = {"balanced": False, "balanceable": False, "trap_paths": paths}
        else:
            doc = generators.signed_graph(size, s)
            truth = {"balanced": False, "balanceable": True}
        name = f"{family}{size}-s{s}"
        return {"name": name, "tag": f"{family}{size}", "doc": doc,
                "truth": truth, "file": f"{name}.json", "out": f"{name}.camion.json"}

    def _query(self, inst: dict, command: str) -> Query:
        argv = [inst["out"] if a is None else a for a in CLI_COMMANDS[command]]
        argv.append(inst["file"])
        out_file = inst["out"] if command == "camion" else None

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = ohg.cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
            return rc, out.getvalue(), err.getvalue()

        def written():
            if out_file is None or not os.path.exists(out_file):
                return None
            with open(out_file, encoding="utf-8") as fh:
                return fh.read()

        def canon(answer):
            rc, stdout, stderr = answer
            return [rc, stdout, stderr, written()]

        def check(answer):
            rc, stdout, stderr = answer
            text = written()
            out_doc = json.loads(text) if text is not None else None
            return checker.check_cli(command, inst["doc"], inst["truth"], rc,
                                     stdout, stderr, out_doc)

        def prepare():
            if out_file is not None and os.path.exists(out_file):
                os.remove(out_file)

        return Query(f"cli/{inst['name']}/{command}", inst["tag"], call, canon,
                     check, prepare)

    def warm_up(self):
        smallest = {family: f"{family}{rungs[0]}"
                    for family, rungs in self.sizes["rungs"].items()}
        seen = set()
        for q in self.round:
            command = q.key.rsplit("/", 1)[1]
            if q.tag in smallest.values() and (q.tag, command) not in seen:
                seen.add((q.tag, command))
                if q.prepare:
                    q.prepare()
                q.call()


# ---------------------------------------------------------------------------
# signed_census


@dataclass
class CensusInstance:
    n: int
    edges: tuple
    eps: tuple
    doc: dict
    graph: object
    edge_of: dict        # incidence id -> edge id
    subsets: dict        # connected edge subset -> (edge ids, canonical key)


class SignedCensus(Workload):
    """Criterion 7's census: circuits over Q, circles with their signs,
    and a shunting search on each connected edge subset that is not a
    positive circle, cached by canonical signed form.

    The cache is emptied at the start of every round, so every round does
    the same searches; the seed orders the instances.
    """

    name = "signed_census"

    def __init__(self, seed, scale="full", everything=False):
        super().__init__(seed, scale)
        self.cache: dict = {}
        self.q = Domain.rationals()
        self.instances = [self._instance(*row) for row in
                          generators.census(self.sizes["census_edges"])]
        self.round = [self._query(inst) for inst in self.instances]
        self.rng.shuffle(self.round)

    @staticmethod
    def _instance(n, edges, eps) -> CensusInstance:
        doc = generators.realize_doc(n, edges, eps)
        subsets = {}
        for r in range(1, len(edges) + 1):
            for sub in combinations(range(len(edges)), r):
                if checker.subset_connected(edges, sub):
                    subsets[sub] = (frozenset(f"e{k}" for k in sub),
                                    generators.signed_subgraph_key(edges, eps, sub))
        edge_of = {i["id"]: i["edge"] for i in doc["incidences"]}
        return CensusInstance(n, edges, eps, doc, graph_of(doc), edge_of, subsets)

    def _query(self, inst: CensusInstance) -> Query:
        cache, q = self.cache, self.q

        def call():
            g = inst.graph
            circuits = ohg.enumerate_circuits(g, q)
            circles = [(c, ohg.circle_sign(g, c)) for c in ohg.enumerate_circles(g)]
            positive = {frozenset(inst.edge_of[i] for i in c.incidences)
                        for c, sign in circles if sign == 1}
            verdicts = {}
            for sub, (chosen, key) in inst.subsets.items():
                if chosen in positive:
                    continue
                if key not in cache:
                    found = ohg.find_shunting_decomposition(
                        ohg.edge_induced(g, sorted(chosen)), budget=SEARCH_BUDGET)
                    cache[key] = found.found is not None
                verdicts[sub] = cache[key]
            return circuits, circles, verdicts

        def canon(answer):
            circuits, circles, verdicts = answer
            return {
                "circuits": [[list(r.edges), r.domain.label(), r.dependent,
                              r.minimal, [str(x) for x in r.witness]]
                             for r in circuits],
                "circles": [[list(c.incidences), [list(n) for n in c.nodes], s]
                            for c, s in circles],
                "verdicts": sorted([list(k), v] for k, v in verdicts.items()),
            }

        def check(answer):
            circuits, circles, verdicts = answer
            if not all(r.dependent and r.minimal and r.domain.label() == "Q"
                       for r in circuits):
                return ["a listed circuit is not flagged dependent and minimal over Q"]
            return checker.check_census(
                inst, [(r.edges, r.witness) for r in circuits],
                [(c.nodes, c.incidences, s) for c, s in circles], verdicts)

        key = "census/" + json.dumps([inst.n, inst.edges, inst.eps],
                                     separators=(",", ":"))
        return Query(key, f"m{len(inst.edges)}", call, canon, check)

    def begin_round(self):
        self.cache.clear()

    def warm_up(self):
        for query in self.round[:10]:
            query.call()
        self.cache.clear()


# ---------------------------------------------------------------------------
# field_circuits


class FieldCircuits(Workload):
    """Circuit enumeration on complete hypergraphs and is_circuit checks.

    Per round: K3 and K4 in full, and K5 up to size 3, each all-positive
    and all-negative, over four fields; plus is_circuit over Q on certified
    optimal shunting instances, which are circuits by construction.
    """

    name = "field_circuits"

    def __init__(self, seed, scale="full", everything=False):
        super().__init__(seed, scale)
        self.round = []
        for n, max_size in self.sizes["complete"]:
            for sign in (1, -1):
                g = ohg.make_complete_hypergraph(n, sign)
                for field in FIELDS:
                    self.round.append(self._enumeration(n, sign, g, field, max_size))
        pick = None if everything else self.sizes["gos_pick"]
        for s in _pick(self.rng, self.sizes["gos_pool"], pick):
            g, _ = ohg.generate_optimal_shunting(s)
            self.round.append(self._is_circuit(s, g))
        self.rng.shuffle(self.round)

    def _enumeration(self, n, sign, g, field, max_size) -> Query:
        domain = Domain.coerce(field)
        doc = doc_of(g)
        label = domain.label()

        def call():
            return ohg.enumerate_circuits(g, domain, max_size=max_size)

        def canon(reports):
            return [[list(r.edges), r.domain.label(), r.dependent, r.minimal,
                     [str(x) for x in r.witness]] for r in reports]

        def check(reports):
            if not all(r.dependent and r.minimal and r.domain.label() == label
                       for r in reports):
                return [f"a listed circuit is not flagged dependent and minimal over {label}"]
            return checker.check_circuit_list(
                doc, label, [(r.edges, r.witness) for r in reports], max_size)

        limit = "" if max_size is None else f"<={max_size}"
        key = f"field/K{n}{'+' if sign == 1 else '-'}{limit}/{label}"
        return Query(key, f"K{n}", call, canon, check)

    def _is_circuit(self, s, g) -> Query:
        doc = doc_of(g)
        q = Domain.rationals()
        edges = tuple(g.edges)

        def call():
            return ohg.is_circuit(g, edges, q)

        def canon(r):
            return [list(r.edges), r.domain.label(), r.dependent, r.minimal,
                    None if r.witness is None else [str(x) for x in r.witness]]

        def check(r):
            if not (r.dependent and r.minimal):
                return ["a certified optimal shunting is not reported as a circuit"]
            if list(r.edges) != sorted(edges):
                return ["is_circuit reported another edge set"]
            return checker.check_circuit(doc, r.edges, "Q", r.witness)

        return Query(f"field/shunting-s{s}/is_circuit", "gos", call, canon, check)

    def warm_up(self):
        seen = set()
        for q in self.round:
            if q.tag in ("K3", "gos") and q.tag not in seen:
                seen.add(q.tag)
                q.call()


WORKLOADS = {w.name: w for w in (CliLadder, SignedCensus, FieldCircuits)}
