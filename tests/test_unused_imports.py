"""Every name a package module imports is used in it, every private
module-level name is used somewhere in the package, and every defaulted
parameter of a private function has two values in use: some call in the
package passes it and some call leaves it at its default.

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


def one_way_defaults(sources: dict) -> list:
    """(module, function, parameter, how) for every defaulted parameter of a
    private function or method of the sources ({module: source}) that their
    calls do not use both ways: how is "never passed" when no call passes
    it, "never defaulted" when every call does.  A call is matched by the
    name it calls (a name or an attribute); a call that unpacks *args or
    **kwargs is not read.  A method's first parameter is bound, not passed."""
    defaults, calls = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
                   if "staticmethod" not in [getattr(d, "id", "") for d in getattr(f, "decorator_list", ())]}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                keywords = [k.arg for k in node.keywords]
                if None not in keywords and not any(isinstance(a, ast.Starred) for a in node.args):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.startswith("_") and not node.name.endswith("__")):
                args = node.args
                positional = args.posonlyargs + args.args
                skip = 1 if id(node) in methods else 0
                first = len(positional) - len(args.defaults)
                defaults += [(module, node.name, a.arg, i - skip)
                             for i, a in enumerate(positional) if i >= first]
                defaults += [(module, node.name, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    out = []
    for module, name, param, index in defaults:
        passed = [(index is not None and len(c.args) > index) or any(k.arg == param for k in c.keywords)
                  for c in calls.get(name, [])]
        if not any(passed):
            out.append((module, name, param, "never passed"))
        elif all(passed):
            out.append((module, name, param, "never defaulted"))
    return out


def test_the_scan_finds_a_one_way_default():
    source = ("def _scale(x, factor=1, offset=0):\n    return x * factor + offset\n\n"
              "def _twice(x, *, times=2):\n    return x * times\n\n"
              "def run(x):\n    return _scale(x, 2) + _scale(x, factor=3) + _scale(x) + _twice(x, times=3)\n")
    assert one_way_defaults({"a.py": source}) == [
        ("a.py", "_scale", "offset", "never passed"), ("a.py", "_twice", "times", "never defaulted")]


def test_every_private_default_has_two_values_in_use():
    assert one_way_defaults({p.name: p.read_text(encoding="utf-8") for p in SOURCES}) == []


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
