"""The package's runtime imports: every module of src/spencerflow imports only
the standard library, numpy and the package itself, as the README promises
numpy as the only runtime dependency, and uses every name it imports. A
host with other packages installed would not show a stray import at run
time, so the source is read instead."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spencerflow"
ALLOWED = {"numpy", "spencerflow"}


def imported(tree):
    """(top-level module, bound name) of each import in tree; the module of
    a relative import is the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                yield root, alias.asname or root
        elif isinstance(node, ast.ImportFrom):
            root = "spencerflow" if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield root, alias.asname or alias.name


MODULES = sorted(SRC.glob("*.py"))


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "euler2d.py", "cartan.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = {root for root, _ in imported(tree)} - ALLOWED - set(sys.stdlib_module_names)
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name for _, name in imported(tree)} - used
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"
