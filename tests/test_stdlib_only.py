"""The package imports nothing outside the standard library, asserts nothing,
and compares family strings only in the catalog."""

import ast
import sys
from pathlib import Path

import pytest

import fivecolor

PACKAGE = Path(fivecolor.__file__).resolve().parent


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_stdlib_only(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {name}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert(path):
    # python -O strips assert statements; an invariant must raise for real
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize(
    "path",
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "catalog.py"),
    ids=lambda p: p.name,
)
def test_family_compared_only_in_catalog(path):
    # the catalog owns the family strings: a rule elsewhere that compares
    # them restates what an entry's own fields already say.  Reading a
    # family as a key or printing it is fine
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(x, ast.Attribute) and x.attr == "family"
            for x in [node.left, *node.comparators]
        )
    ]
    assert not lines, f"{path.name} compares a family on lines {lines}"


def test_all_matches_imports():
    # an export deleted from the imports or from __all__ but not both
    # would break `from fivecolor import *` or leave a name unexported
    names = fivecolor.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(fivecolor, name) for name in names)
    tree = ast.parse(Path(fivecolor.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert set(names) == imported | {"__version__"}
