"""The library's contract, read off its source: standard library only,
never a float, and one adjacency for the walks of the bipartite
representation; every entry point the benchmark tracer names is still
defined, and a traced benchmark run still ends with a result."""

import ast
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "ohg").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, (
                f"{path.name}:{node.lineno} imports {name}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_true_division(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            assert not isinstance(node.op, ast.Div), (
                f"{path.name}:{node.lineno} divides with /")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_or_complex(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), (
                f"{path.name}:{node.lineno} has the literal {node.value!r}")
        if isinstance(node, ast.Name):
            assert node.id not in ("float", "complex"), (
                f"{path.name}:{node.lineno} names {node.id}")


def test_walks_read_only_the_index():
    """Every walk of the bipartite representation reads ``gamma._index``,
    and every connectivity fact comes from ``gamma.DisjointSets``.  The
    node-keyed adjacencies stay only as ``sorted_adjacency``, the reference
    order the index reproduces."""
    allowed = {("gamma", "sorted_adjacency")}
    callers = set()
    for path in SOURCES:
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name in ("sorted_adjacency", "gamma_adjacency"):
                        callers.add((path.stem, getattr(top, "name", None)))
    assert callers <= allowed, callers - allowed


def test_tracer_finds_every_entry_point():
    """The perfbench tracer reads None for a metric whose entry point the
    library no longer defines, so a rename or a deletion would turn a
    traced run's result into nulls without failing it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    metrics = tracer.per_layer_metrics(tracer.Tracer(), 1)
    assert len(metrics) == 55
    missing = [name for name, (value, _) in metrics.items()
               if not isinstance(value, (int, float))]
    assert not missing, missing


def _reject_constant(name):
    raise ValueError(f"the result line holds {name}")


def test_traced_tiny_runs_end_with_a_result(monkeypatch, capsys):
    """A traced benchmark run of each workload ends with one strict-JSON
    result line: correct, and every per-layer metric a finite number.
    The tracer wraps library functions by name, so a rename under it
    could turn that line into nulls or stop it from being printed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.chdir(ROOT)
    import workloads

    for name in workloads.WORKLOADS:
        run.run_one(name, seed=5, seconds=0, trace=True, scale="tiny")
        last = capsys.readouterr().out.strip().splitlines()[-1]
        result = json.loads(last, parse_constant=_reject_constant)
        assert result["correct"] is True, name
        bad = {key: metric["value"] for key, metric in result["metrics"].items()
               if isinstance(metric["value"], bool)
               or not isinstance(metric["value"], (int, float))
               or not math.isfinite(metric["value"])}
        assert result["metrics"] and not bad, (name, bad)
