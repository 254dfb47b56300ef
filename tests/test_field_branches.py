"""Where the package branches on its number system, pinned.

Every computation runs over Q (`Rationals`) or a prime field
(`PrimeField`), and the kernels run on one int form of both
(`linalg._integral_views`).  This lists every function of the package that
asks which field it has, by a call to `isinstance` whose class argument
names `Rationals` or `PrimeField`, and every function outside `fields.py`
that reads an attribute `value`, the residue of an `Fp`.  A new per-field
fork, or a kernel that reads residues itself instead of through the int
form, then shows up here as a one-line diff.  The scan is the one of
`tests/test_dense_reads.py`, over each module's syntax tree.
"""

import ast

from test_dense_reads import SOURCES, scopes_where

FIELD_BRANCHES = {"linalg": ["_integral_views", "_rref"]}

VALUE_READS = {
    "linalg": ["_integral_views", "_rref"],
    "search": ["_coordinates", "_lift_scalar"],
}

FIELDS = {"Rationals", "PrimeField"}


def field_branches(source: str) -> list:
    """The functions of source that call isinstance with a class argument
    that names a field class, alone, in a tuple or in a union."""
    def hit(node) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            return False
        return any(isinstance(n, ast.Name) and n.id in FIELDS for n in ast.walk(node.args[1]))

    return scopes_where(source, hit)


def value_readers(source: str) -> list:
    """The functions of source that read an attribute `value`."""
    return scopes_where(source, lambda node: isinstance(node, ast.Attribute) and node.attr == "value")


def test_the_scan_finds_a_field_branch():
    source = ("class C:\n    def rational(self, f):\n        return isinstance(f, Rationals)\n\n"
              "def kernel(f):\n    def inner():\n        if isinstance(f, (int, PrimeField)):\n"
              "            return 1\n    return inner\n\n"
              "def union(f):\n    return isinstance(f, Rationals | PrimeField)\n\n"
              "def clean(f, x):\n    return isinstance(x, Fp), isinstance(f, Field), Rationals()\n\n"
              "TOP = isinstance(QQ, Rationals)\n")
    assert field_branches(source) == ["<module>", "C.rational", "kernel.inner", "union"]


def test_field_branches_are_pinned():
    found = {p.stem: field_branches(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {module: names for module, names in found.items() if names} == FIELD_BRANCHES


def test_the_scan_finds_a_value_read():
    source = ("class C:\n    def residue(self, x):\n        return x.value % 2\n\n"
              "def kernel(rows):\n    def inner(row):\n        return {j: v.value for j, v in row.items()}\n"
              "    return inner\n\n"
              "def clean(x, value):\n    return value, x.values(), getattr(x, 'value')\n\n"
              "TOP = ONE.value\n")
    assert value_readers(source) == ["<module>", "C.residue", "kernel.inner"]


def test_value_reads_are_pinned():
    found = {p.stem: value_readers(p.read_text(encoding="utf-8")) for p in SOURCES if p.stem != "fields"}
    assert {module: names for module, names in found.items() if names} == VALUE_READS
