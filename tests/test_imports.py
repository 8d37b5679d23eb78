"""Every name a `src/picodim` module imports is used in that module.

Each CLI run is a fresh interpreter, so an import left behind by a
deletion costs every run; `__init__.py` re-exports and is exempt."""

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
