"""Per-layer tracing from outside the library.

Each layer is one ``ohg`` module.  The tracer wraps the module's public
functions (and the public methods of ``OrientedHypergraph``) by patching
the name in every ``ohg`` module that binds the same function object, so
aliases such as ``matroids._nullity_rows`` or ``balance.internally_disjoint_paths``
are traced too.  Each call becomes a span with its parent span; spans stay
in memory and are written out when the run ends.  Hot accessors are only
counted, never timed.  A layer's self time is its spans' time minus the
time covered by their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("cli", "model", "gamma", "balance", "camion", "linalg", "matroids",
          "shunting")

# Model accessors called too often to time; counted only.
COUNT_ONLY = ("incidence", "sign_of", "incidences_at", "incidences_of",
              "degree", "edge_size")
TIMED_METHODS = ("__post_init__", "with_signs", "is_two_uniform")

# Code that the planned indexed-core refactor deletes is not traced.
UNTRACED = {"model.bipartite_rep", "model.from_bipartite"}

# One probe of the theta scan is one disjoint-paths flow under detect_theta.
_PROBE = "gamma.internally_disjoint_paths"


def _entry_points():
    """(function id, owner, attribute, original, timed) for every traced name."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"ohg.{layer}")
        for name, obj in vars(mod).items():
            if (not inspect.isfunction(obj) or obj.__module__ != mod.__name__
                    or name.startswith("_") or f"{layer}.{name}" in UNTRACED):
                continue
            out.append((f"{layer}.{name}", None, name, obj, True))
    cls = importlib.import_module("ohg.model").OrientedHypergraph
    for name in TIMED_METHODS + COUNT_ONLY:
        if name in vars(cls):
            out.append((f"model.OrientedHypergraph.{name}", cls, name,
                        vars(cls)[name], name in TIMED_METHODS))
    return out


class Tracer:
    """Span recorder installed around the library for one traced run.

    ``tag`` names the input family of the query in flight; spans carry it
    so per-family figures (such as theta scan time per rung) can be read
    off.  Aggregates are kept per (function, tag) as the spans close.
    """

    def __init__(self):
        self.tag = ""
        # Rounds repeat the same work, so the caller may stop keeping spans
        # after the first one; the aggregates below still cover every round.
        self.keep_spans = True
        self.names: list[str] = []
        self.tags: dict[str, int] = {}
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0
        # Span table, one column per array: id, parent id, function, tag,
        # start and end in nanoseconds.
        self.spans = {k: array("q") for k in ("id", "parent", "fn", "tag",
                                              "start", "end")}
        self.calls: dict[tuple[str, str], int] = {}
        self.incl_ns: dict[tuple[str, str], int] = {}
        self.self_ns: dict[tuple[str, str], int] = {}
        self.under: dict[tuple[str, str], int] = {}
        self.extra: dict[str, float] = {}
        self.scans: dict[str, list[int]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ohg" or name.startswith("ohg."))]
        for fid, owner, attr, original, timed in _entry_points():
            wrapper = (self._timed(fid, original) if timed
                       else self._counted(fid, original))
            if owner is not None:
                self.patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self.patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def present(self, fid: str) -> bool:
        """Whether the library still defines this entry point."""
        layer, _, rest = fid.partition(".")
        owner = importlib.import_module(f"ohg.{layer}")
        for part in rest.split("."):
            owner = vars(owner).get(part)
            if owner is None:
                return False
        return True

    # -- wrappers ----------------------------------------------------------

    def _counted(self, fid, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            key = (fid, self.tag)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, fid, fn):
        stack = self._stack
        fnum = len(self.names)
        self.names.append(fid)
        before = _BEFORE.get(fid)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            if parent is not None:
                key = (parent[0], fid)
                self.under[key] = self.under.get(key, 0) + 1
                if fid == _PROBE:
                    parent[3] += 1
            if before is not None:
                before(self, args)
            frame = [fid, 0, span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter_ns()
                stack.pop()
                self._close(frame, parent, fnum, start, end, None, exc)
                raise
            end = perf_counter_ns()
            stack.pop()
            self._close(frame, parent, fnum, start, end, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, parent, fnum, start, end, result, exc):
        fid, child_ns = frame[0], frame[1]
        span_id = frame[2]
        dur = end - start
        if parent is not None:
            parent[1] += dur
        key = (fid, self.tag)
        self.calls[key] = self.calls.get(key, 0) + 1
        self.incl_ns[key] = self.incl_ns.get(key, 0) + dur
        self.self_ns[key] = self.self_ns.get(key, 0) + dur - child_ns
        if self.keep_spans:
            tag = self.tags.setdefault(self.tag, len(self.tags))
            spans = self.spans
            spans["id"].append(span_id)
            spans["parent"].append(-1 if parent is None else parent[2])
            spans["fn"].append(fnum)
            spans["tag"].append(tag)
            spans["start"].append(start)
            spans["end"].append(end)
        if exc is not None:
            if (fid.startswith("matroids.") and type(exc).__name__ == "ResourceError"
                    and (parent is None or not parent[0].startswith("matroids."))):
                self._add("matroids.resource_errors", 1)
            return
        after = _AFTER.get(fid)
        if after is not None:
            after(self, result, frame, dur)

    def _add(self, name: str, amount) -> None:
        self.extra[name] = self.extra.get(name, 0) + amount

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the span table: one JSON header line, then the columns."""
        header = {"names": self.names,
                  "tags": sorted(self.tags, key=self.tags.get),
                  "columns": list(self.spans), "count": len(self.spans["id"]),
                  "format": "int64 native byte order, column after column"}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for column in self.spans.values():
                column.tofile(fh)


def _cells(tracer, args):
    rows = args[0]
    tracer._add("linalg.cells", len(rows) * (len(rows[0]) if rows else 0))


def _theta_done(tracer, result, frame, dur):
    probes = frame[3]
    if probes:
        row = tracer.scans.setdefault(tracer.tag, [0, 0, 0, 0])
        row[0] += 1
        row[1] += probes
        row[2] += dur
        row[3] += result is not None


def _search_done(tracer, result, frame, dur):
    tracer._add("shunting.inspected", result.inspected)
    tracer._add("shunting.found", result.found is not None)
    tracer._add("shunting.budget_misses", "budget" in result.reason)


_BEFORE = {"linalg.rank": _cells, "linalg.nullspace": _cells}
_AFTER = {
    "balance.detect_theta": _theta_done,
    "balance.enumerate_circles":
        lambda t, r, f, d: t._add("balance.circles", len(r)),
    "matroids.enumerate_circuits":
        lambda t, r, f, d: t._add("matroids.circuits", len(r)),
    "camion.frustration":
        lambda t, r, f, d: t._add("camion.evaluations", r.evaluations),
    "shunting.find_shunting_decomposition": _search_done,
}


# ---------------------------------------------------------------------------
# Per-layer metrics


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, rounds: int) -> dict[str, tuple]:
    """Every per-layer metric as name -> (value, unit).

    Counts and times are per round of the workload, so runs of different
    length compare; ratios need no scaling.  A ratio with nothing to
    divide by reads 0.  A metric whose entry point the library no longer
    defines reads None.
    """

    def calls(*fids):
        return sum(n for (f, _), n in tr.calls.items() if f in fids) / rounds

    def incl(*fids):
        return sum(n for (f, _), n in tr.incl_ns.items() if f in fids) / 1e9 / rounds

    def layer_self(layer):
        return sum(n for (f, _), n in tr.self_ns.items()
                   if f.startswith(layer + ".")) / 1e9 / rounds

    def extra(name):
        return tr.extra.get(name, 0) / rounds

    def scan_total(col):
        return sum(row[col] for row in tr.scans.values())

    def scan_mean_s(tag):
        row = tr.scans.get(tag)
        return row[2] / row[0] / 1e9 if row and row[0] else 0.0

    def growth():
        small, large = scan_mean_s("ht20"), scan_mean_s("ht40")
        return math.log2(large / small) if small and large else 0.0

    oh = "model.OrientedHypergraph."
    subsets = sum(n for (p, f), n in tr.under.items()
                  if p == "matroids.enumerate_circuits" and f == "linalg.nullity")
    specs = [
        ("cli.calls", "count", ["cli.main"], lambda: calls("cli.main")),
        ("cli.self_s", "s", [], lambda: layer_self("cli")),
        ("model.parse_calls", "count", ["model.parse"], lambda: calls("model.parse")),
        ("model.parse_s", "s", ["model.parse"], lambda: incl("model.parse")),
        ("model.constructions", "count", [oh + "__post_init__"],
         lambda: calls(oh + "__post_init__")),
        ("model.validate_s", "s", [oh + "__post_init__"],
         lambda: incl(oh + "__post_init__")),
        ("model.derived_views", "count",
         ["model.edge_induced", "model.weak_delete", oh + "with_signs",
          "model.reverse_incidences", "model.contract_degree2_vertex"],
         lambda: calls("model.edge_induced", "model.weak_delete", oh + "with_signs",
                       "model.reverse_incidences", "model.contract_degree2_vertex")),
        ("model.incidence_lookups", "count", [oh + "incidence", oh + "sign_of"],
         lambda: calls(oh + "incidence", oh + "sign_of")),
        ("model.star_scans", "count",
         [oh + n for n in ("incidences_at", "incidences_of", "degree", "edge_size")],
         lambda: calls(*[oh + n for n in ("incidences_at", "incidences_of",
                                          "degree", "edge_size")])),
        ("model.adjacency_builds", "count", ["model.gamma_adjacency"],
         lambda: calls("model.gamma_adjacency")),
        ("model.matrix_builds", "count", ["model.incidence_matrix"],
         lambda: calls("model.incidence_matrix")),
        ("model.self_s", "s", [], lambda: layer_self("model")),
        ("gamma.sorted_adjacency_calls", "count", ["gamma.sorted_adjacency"],
         lambda: calls("gamma.sorted_adjacency")),
        ("gamma.forest_calls", "count", ["gamma.spanning_forest"],
         lambda: calls("gamma.spanning_forest")),
        ("gamma.blocks_calls", "count", ["gamma.blocks"], lambda: calls("gamma.blocks")),
        ("gamma.flow_calls", "count", ["gamma.internally_disjoint_paths"],
         lambda: calls("gamma.internally_disjoint_paths")),
        ("gamma.flow_s", "s", ["gamma.internally_disjoint_paths"],
         lambda: incl("gamma.internally_disjoint_paths")),
        ("gamma.self_s", "s", [], lambda: layer_self("gamma")),
        ("balance.theta_scans", "count", ["balance.detect_theta"],
         lambda: scan_total(0) / rounds),
        ("balance.theta_self_s", "s", ["balance.detect_theta"],
         lambda: sum(n for (f, _), n in tr.self_ns.items()
                     if f == "balance.detect_theta") / 1e9 / rounds),
        ("balance.probes_per_scan", "count", ["balance.detect_theta"],
         lambda: _ratio(scan_total(1), scan_total(0))),
        ("balance.certificate_ratio", "ratio", ["balance.detect_theta"],
         lambda: _ratio(scan_total(3), scan_total(0))),
        ("balance.theta_growth", "log2", ["balance.detect_theta"], growth),
        ("balance.balanced_calls", "count", ["balance.is_balanced"],
         lambda: calls("balance.is_balanced")),
        ("balance.balanceable_calls", "count", ["balance.is_balanceable"],
         lambda: calls("balance.is_balanceable")),
        ("balance.circle_enum_calls", "count", ["balance.enumerate_circles"],
         lambda: calls("balance.enumerate_circles")),
        ("balance.circles_listed", "count", ["balance.enumerate_circles"],
         lambda: extra("balance.circles")),
        ("balance.circle_enum_s", "s", ["balance.enumerate_circles"],
         lambda: incl("balance.enumerate_circles")),
        ("balance.self_s", "s", [], lambda: layer_self("balance")),
        ("camion.reorient_calls", "count", ["camion.camion_reorient"],
         lambda: calls("camion.camion_reorient")),
        ("camion.reorient_s", "s", ["camion.camion_reorient"],
         lambda: incl("camion.camion_reorient")),
        ("camion.balancing_checks", "count", ["camion.is_balancing_set"],
         lambda: calls("camion.is_balancing_set")),
        ("camion.frustration_calls", "count", ["camion.frustration"],
         lambda: calls("camion.frustration")),
        ("camion.frustration_evaluations", "count", ["camion.frustration"],
         lambda: extra("camion.evaluations")),
        ("camion.self_s", "s", [], lambda: layer_self("camion")),
        ("linalg.rank_calls", "count", ["linalg.rank", "linalg.nullity"],
         lambda: calls("linalg.rank", "linalg.nullity")),
        ("linalg.nullspace_calls", "count", ["linalg.nullspace"],
         lambda: calls("linalg.nullspace")),
        ("linalg.cells_eliminated", "count", ["linalg.rank", "linalg.nullspace"],
         lambda: extra("linalg.cells")),
        ("linalg.self_s", "s", [], lambda: layer_self("linalg")),
        ("matroids.enum_calls", "count", ["matroids.enumerate_circuits"],
         lambda: calls("matroids.enumerate_circuits")),
        ("matroids.subsets_tested", "count", ["matroids.enumerate_circuits"],
         lambda: subsets / rounds),
        ("matroids.circuits_found", "count", ["matroids.enumerate_circuits"],
         lambda: extra("matroids.circuits")),
        ("matroids.hit_ratio", "ratio", ["matroids.enumerate_circuits"],
         lambda: _ratio(tr.extra.get("matroids.circuits", 0), subsets)),
        ("matroids.is_circuit_calls", "count", ["matroids.is_circuit"],
         lambda: calls("matroids.is_circuit")),
        ("matroids.resource_errors", "count", ["matroids.enumerate_circuits"],
         lambda: extra("matroids.resource_errors")),
        ("matroids.self_s", "s", [], lambda: layer_self("matroids")),
        ("shunting.search_calls", "count", ["shunting.find_shunting_decomposition"],
         lambda: calls("shunting.find_shunting_decomposition")),
        ("shunting.inspected", "count", ["shunting.find_shunting_decomposition"],
         lambda: extra("shunting.inspected")),
        ("shunting.found_ratio", "ratio", ["shunting.find_shunting_decomposition"],
         lambda: _ratio(tr.extra.get("shunting.found", 0),
                        calls("shunting.find_shunting_decomposition") * rounds)),
        ("shunting.budget_misses", "count", ["shunting.find_shunting_decomposition"],
         lambda: extra("shunting.budget_misses")),
        ("shunting.flower_checks", "count", ["shunting.is_flower"],
         lambda: calls("shunting.is_flower")),
        ("shunting.inseparable_checks", "count", ["shunting.is_inseparable"],
         lambda: calls("shunting.is_inseparable")),
        ("shunting.validate_calls", "count", ["shunting.validate_shunting"],
         lambda: calls("shunting.validate_shunting")),
        ("shunting.optimal_checks", "count", ["shunting.is_optimal_shunting"],
         lambda: calls("shunting.is_optimal_shunting")),
        ("shunting.self_s", "s", [], lambda: layer_self("shunting")),
    ]
    out = {}
    for name, unit, needs, compute in specs:
        value = compute() if all(tr.present(f) for f in needs) else None
        out[name] = (value, unit)
    return out


def layer_shares(tr: Tracer, total_s: float) -> dict[str, float]:
    """Each layer's self time as a share of the traced query time."""
    shares = {}
    for layer in LAYERS:
        ns = sum(n for (f, _), n in tr.self_ns.items() if f.startswith(layer + "."))
        shares[layer] = ns / 1e9 / total_s if total_s else 0.0
    return shares
