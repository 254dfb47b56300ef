"""Every name a package module imports is used in it.

The package has no linter among its dependencies, so this walks each
module's syntax tree with the standard library's ast.
"""

import ast
from pathlib import Path

import pytest

import antiprelie

SOURCES = sorted(Path(antiprelie.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) for every name an import binds and the module never reads:
    not as a name, as the base of an attribute or in a quoted annotation."""
    bound, read, hints = [], set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hints.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            hints.append(node.annotation)
    for hint in hints:
        if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
            read |= {n.id for n in ast.walk(ast.parse(hint.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "from typing import Iterable, Iterator\n\ndef f(xs) -> 'Iterator[int]':\n    return xs\n"
    assert unused_imports(source) == [(1, "Iterable")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
