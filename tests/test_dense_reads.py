"""Where the package reads a dense view, pinned.

Matrices are stored dense and tensors as their nonzero fibers; both expose
an attribute `entries`, and for a tensor reading it builds the dense view.
This lists every function of the package that reads an attribute named
`entries` (the scan cannot tell a matrix from a tensor), so a new dense read
in a kernel shows up here as a one-line diff.  Like the other scans of the
package, it walks each module's syntax tree with the standard library's ast.
"""

import ast
from pathlib import Path

import antiprelie

SOURCES = sorted(Path(antiprelie.__file__).parent.glob("*.py"))

DENSE_READS = {
    "algebra": ["check_lie_table", "check_morphism"],
    "cohomology": ["cochain1_to_vec", "cochain2_to_vec"],
    "dendriform": ["check_O_operator", "check_form_invariance", "induced_dendriform"],
    "documents": ["encode_matrix"],
    "extension": ["AbelianExtension._identity_rows", "normalize_extension"],
    "linalg": [
        "Matrix.__add__", "Matrix.__matmul__", "Matrix.__neg__", "Matrix.__post_init__", "Matrix.__sub__",
        "Matrix.apply", "Matrix.col", "Matrix.is_zero", "Matrix.scale", "Matrix.transpose",
        "Tensor3.contract", "Tensor3.entries", "Tensor3.fiber", "_columns", "invert", "kernel_basis",
        "pivot_columns", "rank", "solve",
    ],
    "representation": ["Representation.sparse", "check_lie_representation"],
    "search": ["lift_matrix"],
}


def entries_readers(source: str) -> list:
    """The sorted qualified names (function, Class.method, outer.inner) of
    the functions and classes of source that read an attribute `entries`."""
    found = set()

    def visit(node, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr == "entries":
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


def test_the_scan_finds_a_dense_read():
    source = ("class T:\n    def view(self):\n        return self.entries\n\n"
              "def kernel(t):\n    def inner():\n        return t.entries[0]\n    return inner\n\n"
              "def clean(t, entries):\n    return t.fibers, entries\n\nTOP = T().entries\n")
    assert entries_readers(source) == ["<module>", "T.view", "kernel.inner"]


def test_dense_reads_are_pinned():
    found = {p.stem: entries_readers(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {module: names for module, names in found.items() if names} == DENSE_READS
