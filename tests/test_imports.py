"""Every name a module imports is used in that module.

The package re-exports its API from ``__init__``, so that module is left
out; ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

import toughlab

MODULES = sorted(p for p in Path(toughlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = "import json\nfrom .graphs import Graph, components\n\ndef f(g: Graph): ...\n"
    assert unused_imports(source) == ["line 1: json", "line 2: components"]
