"""The library's contract, read off its source: standard library only,
and never a float; and every entry point the benchmark tracer names is
still defined."""

import ast
import importlib.util
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
