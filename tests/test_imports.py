"""Every name a `cyclat` module imports is used in that module.

`kernels` is exempt: its imports are its re-exports.  A name listed in
a module's `__all__` counts as used.
"""

import ast
import tokenize
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


TOKEN_BUDGET = 8192


def parser_tokens(path):
    """The tokens `tokenize` reads from the file at path, less its
    comments, blank-line newlines and encoding."""
    with path.open("rb") as source:
        return sum(1 for token in tokenize.tokenize(source.readline)
                   if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING))


@pytest.mark.parametrize("path", sorted(Path(cyclat.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_is_under_the_token_budget(path):
    """Every module stays under 8,192 parser tokens.  CPython 3.11's
    parser doubles its token array at that count: `poset.py` at 8,575
    tokens compiled at a 3,424 KB peak under tracemalloc, against
    2,807 KB at 8,044 tokens (CHANGES.md, the FOUND on `poset.py`), and
    the benchmark compiles every module without a bytecode cache."""
    assert parser_tokens(path) < TOKEN_BUDGET


def test_token_count_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("# a comment\n\nx = 1  # another\n")
    assert parser_tokens(path) == 5  # x, =, 1, NEWLINE and ENDMARKER
