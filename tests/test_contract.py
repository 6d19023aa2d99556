"""The library's contract, read off its source: standard library only,
and never a float."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "ohg").glob("*.py"))


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
