"""Every module's public surface resolves, so a stale ``__all__`` entry fails
here, and every module uses each name it imports."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import twistor_spectra

MODULES = ["twistor_spectra"] + [f"twistor_spectra.{m.name}"
                                 for m in pkgutil.iter_modules(twistor_spectra.__path__)]


def test_every_module_is_listed():
    assert {"twistor_spectra.exact", "twistor_spectra.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    exec(f"from {name} import *", {})


SOURCES = sorted(p for p in Path(twistor_spectra.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")       # whose imports are re-exports


def used_names(tree):
    """The names a module reads: every ``Name``, the names inside string
    annotations (every module defers its annotations, but a quoted one is
    still text), and the entries of its ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                names |= used_names(ast.parse(annotation.value, mode="eval"))
    return names


def imported_names(tree):
    """Each name an ``import`` binds in the module, at any scope, but the
    ``__future__`` flags."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_the_scan_sees_every_kind_of_use():
    tree = ast.parse("from __future__ import annotations\nimport a.b\nfrom c import d as e, f\n"
                     "from g import h, k, m\n__all__ = ['h']\n"
                     "def fn(x: 'k[int]') -> f: return a.b\n")
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["e", "m"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(set(imported_names(tree)) - used_names(tree)) == []
