"""Hygiene gate over the package source, read with `ast` only: no module
imports a name it never uses, and no `def` has a parameter its body never
reads (`self`, `cls` and names starting with `_` are exempt)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bipgirth"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _loaded(nodes) -> set[str]:
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = _loaded([tree])
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def unread_parameters(tree: ast.Module) -> list[str]:
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = _loaded(node.body)
        hits += [f"{node.name}({p.arg}) (line {node.lineno})" for p in params
                 if p.arg not in ("self", "cls") and not p.arg.startswith("_")
                 and p.arg not in read]
    return hits


def test_detectors_fire():
    tree = ast.parse("import os\nfrom typing import Optional\n"
                     "def f(x, y, _z, *rest):\n    return x\n"
                     "class C:\n    def m(self, w):\n        def inner():\n"
                     "            return w\n        return inner\n")
    assert unused_imports(tree) == ["os (line 1)", "Optional (line 2)"]
    assert unread_parameters(tree) == ["f(y) (line 3)", "f(rest) (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(ast.parse(path.read_text(), str(path))) == []
