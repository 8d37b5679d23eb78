"""Every name a `src/picodim` module imports is used in that module,
and every private function or method it defines is referenced in
`src/picodim`.

Each CLI run is a fresh interpreter, so an import left behind by a
deletion costs every run; `__init__.py` re-exports and is exempt.  A
private helper whose last caller was deleted is dead code that only
looks alive."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "picodim"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_detected():
    source = "import os\nfrom math import comb, gcd\nimport a.b as c\nprint(gcd)\n"
    assert unused_imports(source) == ["os (line 1)", "comb (line 2)", "c (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_src_modules_import_nothing_unused():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def private_defs(sources: list[str]) -> set[str]:
    """The non-dunder `_name` functions and methods defined in `sources`."""
    return {node.name
            for tree in map(ast.parse, sources) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.endswith("__")}


def unreferenced_private_defs(sources: list[str]) -> list[str]:
    """The private defs of `sources` that none of them names, as a `Name`
    or as an `Attribute`."""
    referenced = set()
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(private_defs(sources) - referenced)


def test_unreferenced_private_defs_are_detected():
    sources = ["def _used():\n    pass\ndef _dead():\n    pass\n",
               "class A:\n    def __init__(self):\n        self._method()\n"
               "    def _method(self):\n        _used()\n    def _orphan(self):\n        pass\n"]
    assert unreferenced_private_defs(sources) == ["_dead", "_orphan"]


def test_src_defines_no_unreferenced_private_function():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_defs(sources) == []
