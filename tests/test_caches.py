"""The clear_caches fixture empties every cache in the library: every
function that src/il_lab decorates with functools.lru_cache or cache, no
more and no fewer. A cache it missed would stay warm in the tests that
compare cold and warm runs. Every cache holds mdp.INSTANCE_CACHE entries,
named as such: one size for every per-instance cache."""

import ast
import importlib
from pathlib import Path

import pytest

from il_lab import mdp

SRC = Path(__file__).resolve().parent.parent / "src" / "il_lab"
CACHE_DECORATORS = {"lru_cache", "cache"}


def _is_cache(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = getattr(decorator, "id", None) or getattr(decorator, "attr", None)
    return name in CACHE_DECORATORS


def cached_functions(tree):
    """The names of the module-level functions of a module that carry a
    cache decorator. A cached function anywhere else (a method, a nested
    function) raises ValueError, as the fixture could not reach it."""
    top = {node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and any(_is_cache(d) for d in node.decorator_list):
            if node not in top:
                raise ValueError(f"cached function {node.name} is not at "
                                 "module level")
            names.append(node.name)
    return names


def cache_sizes(tree):
    """The maxsize argument of each cache decorator of a module, as source
    text; None where the decorator gives none."""
    sizes = []
    for node in ast.walk(tree):
        for d in getattr(node, "decorator_list", ()):
            if _is_cache(d):
                given = [k.value for k in getattr(d, "keywords", ())
                         if k.arg == "maxsize"] + list(getattr(d, "args", ()))
                sizes.append(ast.unparse(given[0]) if given else None)
    return sizes


def library_caches():
    """Every cached function of the library, as the function object."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = importlib.import_module(f"il_lab.{path.stem}")
        found += [getattr(module, name) for name in cached_functions(tree)]
    return found


def full_name(fn):
    return f"{fn.__module__}.{fn.__qualname__}"


def test_caches_are_found():
    assert len(library_caches()) >= 5


def test_the_fixture_clears_every_cache_and_nothing_else(clear_caches,
                                                         monkeypatch):
    # A function clear() names that is no longer cached has no cache_clear
    # and raises AttributeError; one it leaves out is never recorded.
    cleared = []
    for fn in library_caches():
        monkeypatch.setattr(fn, "cache_clear",
                            lambda fn=fn: cleared.append(fn))
    clear_caches()
    assert sorted(map(full_name, cleared)) == \
        sorted(map(full_name, library_caches()))


def test_every_cache_has_the_one_instance_cache_size():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assert set(cache_sizes(tree)) <= {"INSTANCE_CACHE"}, path.name
    for fn in library_caches():
        assert fn.cache_parameters()["maxsize"] == mdp.INSTANCE_CACHE, \
            full_name(fn)
    assert cache_sizes(ast.parse(
        "@lru_cache(maxsize=LP_CACHE)\ndef a(x): pass\n@functools.cache\n"
        "def b(x): pass\n@lru_cache(16)\ndef c(x): pass\n")) == \
        ["LP_CACHE", None, "16"]


def test_every_decorator_spelling_is_found():
    tree = ast.parse("import functools\nfrom functools import cache, "
                     "lru_cache\n@lru_cache(maxsize=4)\ndef a(x): pass\n"
                     "@functools.lru_cache\ndef b(x): pass\n@cache\n"
                     "def c(x): pass\n@staticmethod\ndef d(x): pass\n")
    assert cached_functions(tree) == ["a", "b", "c"]
    with pytest.raises(ValueError, match="e is not at module level"):
        cached_functions(ast.parse("class K:\n    @functools.cache\n"
                                   "    def e(self): pass\n"))
