"""Every name a module imports is used in that module, every module
imports only the standard library, ``bounds`` reads no graph-level module,
the test run imports the package that PYTHONPATH names, every package name
the README quotes evaluates, the README's check table names each check's
records, and the README's Python examples run.

The package re-exports its API from ``__init__``, so that module is left
out of the unused-name check; ``from __future__`` imports are directives,
not names.
"""

import ast
import importlib
import itertools
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import toughlab
from toughlab.bounds import EPS_EQ
from toughlab.formats import enumerate_labeled, write_graph6
from toughlab.sweep import Violation

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


def absolute_imports(source: str) -> set[str]:
    """The top-level package of every absolute import, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(Path(toughlab.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    # the package declares no dependencies
    assert absolute_imports(path.read_text(encoding="utf-8")) - sys.stdlib_module_names == set()


def test_absolute_imports_are_found():
    source = ("import numpy.linalg as la, json\nfrom . import graphs\n"
              "from os.path import join\n\ndef f():\n    import scipy\n")
    assert absolute_imports(source) == {"numpy", "json", "os", "scipy"}


def test_bounds_imports_only_graphs_and_not_degree_profile():
    # bounds holds formulas over numbers: GraphFacts reads the degrees and
    # spectra of a graph, and bounds needs graphs only for the biregular
    # structure check
    tree = ast.parse((Path(toughlab.__file__).parent / "bounds.py").read_text(encoding="utf-8"))
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    assert {node.module for node in relative} == {"graphs"}
    assert "degree_profile" not in {alias.name for node in relative for alias in node.names}


def test_a_pythonpath_entry_holding_the_package_is_imported(tmp_path):
    # a copy of the package on PYTHONPATH wins over the checkout's src
    # when pytest runs from the checkout with its configuration
    checkout = Path(__file__).resolve().parents[1]
    copy = tmp_path / "src" / "toughlab"
    shutil.copytree(Path(toughlab.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    probe = tmp_path / "test_probe.py"
    probe.write_text(f"import toughlab\n\ndef test_probe():\n"
                     f"    assert toughlab.__file__ == {str(copy / '__init__.py')!r}\n")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--rootdir", str(checkout), "-c", str(checkout / "pyproject.toml"), str(probe)],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tmp_path / "src")})
    assert child.returncode == 0, child.stdout + child.stderr


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
README_NAMES = sorted(set(re.findall(r"`(toughlab(?:\.\w+)+)`", README)))


def test_the_readme_quotes_package_names():
    assert "toughlab.CHECKS" in README_NAMES


CHECK_TABLE = README[README.index("| name | records | meaning |"):].split("\n\n", 1)[0]


def test_the_readme_check_table_lists_every_check_in_order():
    assert tuple(re.findall(r"^\| `([\w-]+)` \|", CHECK_TABLE, re.M)) == toughlab.CHECK_NAMES


def test_the_readme_check_table_names_every_record_of_each_check():
    # at --tol -5 nearly every inequality fails, and at the default tol
    # the equality records show; each check runs alone, so each record name
    # it yields over every labeled graph with n <= 5 is known to be its own,
    # and must be listed in its row's records cell
    listed = {name: set(re.findall(r"`([\w-]+)`", cell)) for name, cell in
              re.findall(r"^\| `([\w-]+)` \| ([^|]*) \|", CHECK_TABLE, re.M)}
    seen = {name: set() for name in toughlab.CHECK_NAMES}
    for g in (g for n in range(1, 6) for g in enumerate_labeled(n)):
        g6 = write_graph6(g)
        for name, tol in itertools.product(toughlab.CHECK_NAMES, (-5.0, 1e-7)):
            seen[name] |= {r.check if type(r) is Violation else r.tag
                           for r in toughlab.evaluate_graph(g6, g, (name,), tol, EPS_EQ)}
    for name, records in seen.items():
        assert records <= listed[name], (name, records - listed[name])
    assert sum(map(len, seen.values())) >= 13


@pytest.mark.parametrize("name", README_NAMES)
def test_a_package_name_the_readme_quotes_evaluates(name):
    # import each dotted prefix that is a module, then evaluate the name as
    # a reader would write it after ``import toughlab.<module>``
    parts = name.split(".")
    for end in range(2, len(parts)):
        try:
            importlib.import_module(".".join(parts[:end]))
        except ModuleNotFoundError:
            break
    eval(name, {"toughlab": toughlab})


def test_the_readme_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
