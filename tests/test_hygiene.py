"""Hygiene gate over the package source, read with `ast` only: no module
imports a name it never uses, no `def` has a parameter its body never
reads (`self`, `cls` and names starting with `_` are exempt), no
module-level `_` name goes unread by the rest of the package, and no
`assert` statement stands in for a check (`python -O` drops it)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bipgirth"
MODULES = sorted(SRC.glob("*.py"))
PACKAGE = {p.name: ast.parse(p.read_text(), str(p)) for p in MODULES}


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


def _reads(node) -> set[str]:
    """The names that `node` loads, takes as an attribute or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _defines(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level names starting with one `_` that no other top-level
    statement of any of the modules reads."""
    statements = [(name, node, _reads(node)) for name, tree in trees.items()
                  for node in tree.body]
    return [f"{name}: {private} (line {node.lineno})" for name, node, _ in statements
            for private in _defines(node)
            if private.startswith("_") and not private.startswith("__")
            and not any(private in reads for _, other, reads in statements if other is not node)]


def assert_statements(tree: ast.Module) -> list[str]:
    return [f"line {line}" for line in sorted(
        n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert))]


def test_detectors_fire():
    tree = ast.parse("import os\nfrom typing import Optional\n"
                     "def f(x, y, _z, *rest):\n    return x\n"
                     "class C:\n    def m(self, w):\n        def inner():\n"
                     "            return w\n        return inner\n")
    assert unused_imports(tree) == ["os (line 1)", "Optional (line 2)"]
    assert unread_parameters(tree) == ["f(y) (line 3)", "f(rest) (line 3)"]
    package = {"m.py": ast.parse("_A = 1\n_B: int = _A\ndef _f():\n    return _f()\n"
                                 "class _C:\n    pass\n__version__ = '1'\n"),
               "n.py": ast.parse("from m import _C\n")}
    assert unread_private_names(package) == ["m.py: _B (line 2)", "m.py: _f (line 3)"]
    assert assert_statements(ast.parse("def f(x):\n    assert x, 'no'\n    if not x:\n"
                                       "        raise AssertionError\nassert f\n")) == [
        "line 2", "line 5"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(ast.parse(path.read_text(), str(path))) == []


def test_no_assert_statements():
    assert {name: assert_statements(tree) for name, tree in PACKAGE.items()
            if assert_statements(tree)} == {}


def test_no_unread_private_names():
    assert unread_private_names(PACKAGE) == []
