"""The library imports nothing at run time but the standard library, numpy
and itself; scipy and the other test tools stay test-only."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "il_lab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "il_lab"}


def imported_roots(tree):
    """The top-level package of every absolute import in the module;
    relative imports are the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_are_found():
    assert len(list(SRC.glob("*.py"))) > 5


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(set(imported_roots(tree)) - ALLOWED) == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import os\nfrom scipy import optimize\n"
                     "from .rng import mix64\nimport numpy.linalg as la\n")
    assert set(imported_roots(tree)) - ALLOWED == {"scipy"}
