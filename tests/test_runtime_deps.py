"""The library imports nothing at run time but the standard library, numpy
and itself; scipy and the other test tools stay test-only. Every name a
module imports is used there; only __init__.py imports to re-export. LAPACK
and the finite-entries check each run in one function."""

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


def linalg_uses(tree):
    """(function, name) of every numpy.linalg name the module reads, with
    the function it is read in (None at module level); an import of
    numpy.linalg, or of a name from it, counts as ("import", module)."""
    uses = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            uses.append((func, node.attr))
        elif isinstance(node, ast.Import):
            uses.extend(("import", a.name) for a in node.names
                        if "linalg" in a.name)
        elif isinstance(node, ast.ImportFrom) and "linalg" in (
                node.module or "") + "".join(a.name for a in node.names):
            uses.append(("import", node.module))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return uses


def test_lapack_runs_only_in_factor():
    # A LAPACK call's rounding can depend on the BLAS thread count. The
    # match solve calls it once per start basis, in simplex.factor, and
    # nothing else in the lab calls it.
    uses = {(path.name, *use) for path in SRC.glob("*.py")
            for use in linalg_uses(ast.parse(path.read_text()))}
    assert uses == {("simplex.py", "factor", "inv")}


def test_a_linalg_call_anywhere_else_is_caught():
    tree = ast.parse("import numpy as np\nfrom numpy import linalg\n"
                     "def simplex(A):\n    def inner():\n"
                     "        return np.linalg.solve(A, A)\n"
                     "    return np.linalg.LinAlgError\n")
    assert sorted(linalg_uses(tree), key=str) == [
        ("import", "numpy"), ("inner", "solve"), ("simplex", "LinAlgError")]


def attribute_reads(tree, attr):
    """The function (None at module level) of every read of an attribute
    named attr, such as np.isfinite, in the module."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_finite_entries_are_checked_only_in_table():
    # Every float table the lab validates goes through mdp.table, so its
    # finite-entries check is written once.
    reads = [(path.name, func) for path in sorted(SRC.glob("*.py"))
             for func in attribute_reads(ast.parse(path.read_text()),
                                         "isfinite")]
    assert reads == [("mdp.py", "table")]


def test_an_isfinite_read_anywhere_else_is_caught():
    tree = ast.parse("import numpy as np\nok = np.isfinite\n"
                     "class T:\n    def check(self, g):\n"
                     "        return np.all(np.isfinite(g))\n")
    assert attribute_reads(tree, "isfinite") == [None, "check"]


# numpy names of matrix products, which hand the sum to BLAS.
MATRIX_PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "linalg"}


def matrix_products(tree, func):
    """The matrix products in the function named func, each as spelled:
    "@" for the operator, the numpy name (MATRIX_PRODUCTS) for a call, and
    "optimize" for an einsum allowed to pass its sum to BLAS; None when the
    module defines no such function."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == func:
            found = []
            for sub in ast.walk(node):
                if (isinstance(sub, (ast.BinOp, ast.AugAssign))
                        and isinstance(sub.op, ast.MatMult)):
                    found.append("@")
                elif (isinstance(sub, ast.Attribute)
                      and sub.attr in MATRIX_PRODUCTS):
                    found.append(sub.attr)
                elif isinstance(sub, ast.Name) and sub.id in MATRIX_PRODUCTS:
                    found.append(sub.id)
                elif isinstance(sub, ast.keyword) and sub.arg == "optimize":
                    found.append("optimize")
            return found
    return None


def test_the_pivot_loop_takes_no_matrix_product():
    # A BLAS product's rounding can depend on the thread count. The pivot
    # loop forms every entry with elementwise numpy, so no pivot's bytes
    # can.
    tree = ast.parse((SRC / "simplex.py").read_text())
    assert matrix_products(tree, "_iterate") == []


def test_a_matrix_product_in_the_pivot_loop_is_caught():
    tree = ast.parse("import numpy as np\nfrom numpy import matmul\n"
                     "def _iterate(T, x):\n    y = T @ x\n    T @= T\n"
                     "    y += np.dot(T, x) + matmul(T, x) + T.dot(x)\n"
                     "    y += np.einsum('ij,j', T, x, optimize=True)\n"
                     "    return np.linalg.norm(y)\n"
                     "def other(T):\n    return T @ T\n")
    assert sorted(matrix_products(tree, "_iterate")) == [
        "@", "@", "dot", "dot", "linalg", "matmul", "optimize"]
    assert matrix_products(tree, "_pivot") is None
