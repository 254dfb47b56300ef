"""Every name a package module imports is used in it, and every private
module-level name is used somewhere in the package.

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


def unused_private_names(sources: dict) -> list:
    """(module, name) for every private module-level function, class or
    assigned name of the sources ({module: source}) that none of them reads:
    as a name, as an attribute or as a name imported from a module."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return [(module, name) for module, name in defined if name not in read]


def test_the_scan_finds_an_orphaned_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_A, _B = 1, 2\n\ndef _helper(x):\n    return x\n\nclass _Box:\n    pass\n",
        "b.py": "from .a import _helper\n\ndef run():\n    return _helper(_B)\n",
    }
    assert unused_private_names(sources) == [("a.py", "_LIMIT"), ("a.py", "_A"), ("a.py", "_Box")]


def test_every_private_name_is_used():
    assert unused_private_names({p.name: p.read_text(encoding="utf-8") for p in SOURCES}) == []


def test_the_scan_finds_an_unused_import():
    source = "from typing import Iterable, Iterator\n\ndef f(xs) -> 'Iterator[int]':\n    return xs\n"
    assert unused_imports(source) == [(1, "Iterable")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
