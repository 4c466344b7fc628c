"""The library imports nothing at run time but the standard library, numpy
and itself; scipy and the other test tools stay test-only. Every name a
module imports is used there; only __init__.py imports to re-export."""

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


def unused_imports(tree):
    """The names the module's imports bind that no expression reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(unused_imports(tree)) == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import os.path\nimport numpy as np\n"
                     "from .rng import mix64, mix64_array as mixa\n"
                     "x = np.zeros(mixa(1, 2))\n")
    assert unused_imports(tree) == {"os", "mix64"}
