"""Where the package reads or builds a dense view, pinned.

Matrices are stored as their nonzero rows and tensors as their nonzero
fibers; both expose an attribute `entries`, a dense view built on first
read.  This lists every function of the package that reads an attribute
named `entries` (the scan cannot tell a matrix from a tensor), which is
none, and every function that builds a value from dense input, by calling
`from_rows`, `from_cols` or `from_entries`.  A new dense read or a new dense
build in a kernel then shows up here as a one-line diff.  Like the other
scans of the package, it walks each module's syntax tree with the standard
library's ast.
"""

import ast
from pathlib import Path

import antiprelie

SOURCES = sorted(Path(antiprelie.__file__).parent.glob("*.py"))

DENSE_READS = {}

DENSE_BUILDS = {
    "algebra": ["MultTable.from_entries"],
    "extension": ["normalize_extension"],
    "linalg": ["Matrix.from_cols"],
}

BUILDERS = {"from_rows", "from_cols", "from_entries"}


def scopes_where(source: str, hit) -> list:
    """The sorted qualified names (function, Class.method, outer.inner) of
    the functions and classes of source that hold a node for which hit is
    true; "<module>" for one at the top level."""
    found = set()

    def visit(node, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if hit(child):
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


def entries_readers(source: str) -> list:
    """The functions of source that read an attribute `entries`."""
    return scopes_where(source, lambda node: isinstance(node, ast.Attribute) and node.attr == "entries")


def dense_builders(source: str) -> list:
    """The functions of source that call an attribute named in BUILDERS."""
    return scopes_where(source, lambda node: isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute) and node.func.attr in BUILDERS)


def test_the_scan_finds_a_dense_read():
    source = ("class T:\n    def view(self):\n        return self.entries\n\n"
              "def kernel(t):\n    def inner():\n        return t.entries[0]\n    return inner\n\n"
              "def clean(t, entries):\n    return t.fibers, entries\n\nTOP = T().entries\n")
    assert entries_readers(source) == ["<module>", "T.view", "kernel.inner"]


def test_the_scan_finds_a_dense_build():
    source = ("class T:\n    @staticmethod\n    def from_rows(rows):\n        return rows\n\n"
              "    def wrap(self, cols):\n        return T.from_cols(cols)\n\n"
              "def build(x):\n    def inner():\n        return Matrix.from_rows(F, x)\n    return inner\n\n"
              "def clean(from_rows):\n    return from_rows(1), Matrix(F, 1, 1, [{}])\n\n"
              "TOP = Tensor3.from_entries(F, [])\n")
    assert dense_builders(source) == ["<module>", "T.wrap", "build.inner"]


def test_dense_reads_are_pinned():
    found = {p.stem: entries_readers(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {module: names for module, names in found.items() if names} == DENSE_READS


def test_dense_builds_are_pinned():
    found = {p.stem: dense_builders(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {module: names for module, names in found.items() if names} == DENSE_BUILDS
