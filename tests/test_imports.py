"""Every name a `cyclat` module imports is used in that module.

`kernels` is exempt: its imports are its re-exports.  A name listed in
a module's `__all__` counts as used.
"""

import ast
from pathlib import Path

import pytest

import cyclat

MODULES = sorted(path for path in Path(cyclat.__file__).parent.glob("*.py")
                 if path.name != "kernels.py")


def imported(tree):
    """{name bound by an import: its line}, `from __future__` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


def used(tree):
    """The names the module reads, and those its `__all__` lists."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in imported(tree).items() if name not in used(tree)}
    assert unused == {}


def test_unused_import_is_found():
    tree = ast.parse("from bisect import bisect_left, bisect_right\n"
                     "import os.path\n"
                     "from array import array as typed\n"
                     "bisect_left([], 0)\n")
    assert {name for name in imported(tree) if name not in used(tree)} == {
        "bisect_right", "os", "typed"}
