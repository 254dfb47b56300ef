"""Anti-pre-Lie algebras as structure-constant tables.

A product on a based vector space is stored as a rank-3 tensor c with
c[i][j][k] = coefficient of e_k in e_i . e_j, that is as its nonzero fibers
{k: c} per basis pair (linalg.Tensor3), which every kernel here reads and
every builder writes.  An anti-pre-Lie algebra is a table satisfying, for
all x, y, z and with [x,y] = x.y - y.x,

    x.(y.z) - y.(x.z) = [y,x].z            (exchange law)
    [x,y].z + [y,z].x + [z,x].y = 0        (cyclic law)

Checks report exact residual vectors at basis triples.  Every law on basis
triples or pairs in the package (anti-pre-Lie, deformation, Jacobi,
anti-L-dendriform, the form identities, the representation axioms and the
Lie action law) is a list of terms sign * X[p][q] . Y[.][w], read by one
kernel, _support_walk: for each nonzero fiber X[p][q], each w in it and
each z with Y[z][w] nonzero it adds the term at the residual key it places
(p, q, z) at, so a key that no term reaches is never visited (the
co-iteration over sparse operands of Kjolstad et al., "The tensor algebra
compiler", OOPSLA 2017).  It reports the nonzero residuals in lexicographic
key order and, within a key, in law order: the violations, order and
residuals of a walk over all ordered triples.  Both anti-pre-Lie laws come
from _apl_terms of an outer and an inner product: the anti-pre-Lie check
uses one product in both places and the deformation equations sum it over
pairs of deformation terms.  Every walk runs on ints (_law_views,
linalg._integral_views): over Q every table is scaled by one common
denominator D, each residual is homogeneous of degree 2 in the structure
constants and so is D^2 times the rational one; over F_p the views hold the
residues, and a residual is reduced mod p only where it is tested.  Only a
violation's residual is turned back into field scalars, written out densely.
Each law family has one implementation, its check_*, which returns the
Report; its is_* is check_*(...).ok.  One fiber difference, _commutators,
rows[a][b] - c * other[b][a] over the sparse fibers, gives the commutator,
the associated product of a dendriform pair and the antisymmetry residuals
of a Lie table.  A naive nested-loop oracle is kept in the test suite.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional, Sequence

from .fields import Field, _record, _require_field, _set
from .linalg import (Matrix, Tensor3, Vec, _columns, _integral_views, _subtract, _transport, _units,
                     invert, vec_sub)

LAW_EXCHANGE = "exchange"
LAW_CYCLIC = "cyclic"


@_record()
class Violation:
    """One failed identity instance: the law, the basis indices, the exact residual."""

    law: str
    at: tuple
    residual: tuple

    def __init__(self, law: str, at: tuple, residual: tuple):
        # Written out: a failing check makes one per failing instance, where
        # the generic constructor of _record costs about a third more.
        _set(self, "law", law)
        _set(self, "at", at)
        _set(self, "residual", residual)

    def rendered(self) -> list:
        """The residual as canonical scalar strings (a list of rows for a matrix)."""
        if self.residual and isinstance(self.residual[0], tuple):
            return [[str(x) for x in row] for row in self.residual]
        return [str(x) for x in self.residual]

    def describe(self) -> str:
        return f"{self.law} at {self.at}: residual {self.rendered()}"


@_record()
class Report:
    """Outcome of a verification: empty violations means the check passed."""

    subject: str
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def require(self, message: str) -> None:
        """Raise StructureError carrying this report unless it passed;
        ``{count}`` in the message becomes the number of violations."""
        if self.violations:
            raise StructureError(message.format(count=len(self.violations)), self)


class StructureError(ValueError):
    """A verified-structure precondition failed; carries the failing report."""

    def __init__(self, message: str, report: Optional[Report] = None):
        super().__init__(message)
        self.report = report


@_record()
class MultTable:
    """A bilinear product on a based space, as a structure-constant tensor."""

    tensor: Tensor3

    def __post_init__(self):
        d1, d2, d3 = self.tensor.dims
        if not d1 == d2 == d3:
            raise ValueError(f"multiplication table must be cubic, got dims {self.tensor.dims}")

    @property
    def dim(self) -> int:
        return self.tensor.dims[0]

    @property
    def field(self) -> Field:
        return self.tensor.field

    @staticmethod
    def zero(field: Field, n: int) -> "MultTable":
        return MultTable(Tensor3.zero(field, n, n, n))

    @staticmethod
    def from_entries(field: Field, entries) -> "MultTable":
        return MultTable(Tensor3.from_entries(field, entries))

    @staticmethod
    def from_dict(field: Field, n: int, nonzero: dict) -> "MultTable":
        """Build from {(i, j, k): scalar-or-int}; unlisted entries are zero."""
        fibers = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j, k), v in nonzero.items():
            fibers[i][j][k] = field.of_int(v) if isinstance(v, int) else v
        return MultTable(Tensor3(field, (n, n, n), fibers))

    def basis_product(self, i: int, j: int) -> Vec:
        """e_i . e_j as a coordinate vector."""
        return self.tensor.fiber(i, j)

    def multiply(self, x: Vec, y: Vec) -> Vec:
        """Bilinear extension of the table to arbitrary coordinate vectors."""
        return self.tensor.contract(x, y)

    def commutator_basis(self, i: int, j: int) -> Vec:
        return vec_sub(self.basis_product(i, j), self.basis_product(j, i))

    @cached_property
    def left_matrices(self) -> tuple:
        """L(e_i): y -> e_i . y, one matrix per basis vector; column j is e_i . e_j."""
        return tuple(Matrix(self.field, self.dim, self.dim, line).transpose() for line in self.tensor.fibers)

    @cached_property
    def right_matrices(self) -> tuple:
        """R(e_i): y -> y . e_i; column j is e_j . e_i."""
        return tuple(Matrix(self.field, self.dim, self.dim, c).transpose() for c in zip(*self.tensor.fibers))

    @cached_property
    def sparse(self) -> tuple:
        """(rows, comm), each [a][b] a {k: c} fiber: rows[a][b] is the stored
        e_a . e_b and comm[a][b] the commutator [e_a, e_b]."""
        return self.tensor.fibers, _commutators(self.tensor.fibers, self.tensor.fibers, self.field.one())

    def conjugate(self, p: Matrix) -> "MultTable":
        """Basis change: the table of x *' y = P^{-1}(P(x) . P(y))."""
        if not p.is_square() or p.rows != self.dim:
            raise ValueError("change of basis must be a square matrix of the table's dimension")
        _require_field("change of basis", p.field, self.field)
        p_inv = invert(p)
        if p_inv is None:
            raise ValueError("change of basis must be invertible")
        cols = _columns(p)
        return MultTable(Tensor3(self.field, self.tensor.dims,
                                 _transport(self.tensor.fibers, cols, cols, _columns(p_inv))))


def _commutators(rows: tuple, other: tuple, one) -> tuple:
    """[a][b], the fiber rows[a][b] - one * other[b][a] without the entries that
    cancel: with other = rows and one the field's 1, the commutator [e_a, e_b].
    A fiber is copied, and subtracted from, only where other[b][a] is nonzero."""
    comm = tuple(tuple(dict(f) if other[b][a] else f for b, f in enumerate(line)) for a, line in enumerate(rows))
    for a, line in enumerate(comm):
        for b, fiber in enumerate(line):
            if other[b][a]:
                _subtract(fiber, one, other[b][a])
    return comm


def _entries(grid) -> list:
    """The nonzero fibers grid[p][q] as (p, q, fiber), in index order."""
    return [(p, q, f) for p, line in enumerate(grid) for q, f in enumerate(line) if f]


def _by_first(grid) -> list:
    """by_first[w], the nonzero fibers grid[w][z] of line w as (z, fiber)."""
    return [[(z, f) for z, f in enumerate(line) if f] for line in grid]


def _by_second(grid, width: int) -> list:
    """by_second[w], the nonzero fibers grid[z][w] of column w < width as (z, fiber)."""
    return [[(z, line[w]) for z, line in enumerate(grid) if line[w]] for w in range(width)]


def _support_walk(terms: list, laws: tuple, prefix: tuple, nonzero: Callable, scalar: Callable,
                  dims: tuple, width: int, matrix: bool = False) -> tuple:
    """The violations of laws, as a tuple, built from the nonzero terms of
    their residuals.

    A term (law, sign, xs, ys, place) is sign * X[p][q] . Y[.][w]: xs lists
    the nonzero fibers X[p][q] = {w: x} as (p, q, fiber), ys[w] the nonzero
    fibers Y[z][w] = {l: y} as (z, fiber), and each product x * y is added at
    coordinate l < width of residual laws[law] at the key that the word place
    makes of p, q and z ("zpq" is (z, p, q)), a key in the box dims.  A key
    that no term reaches is never visited.  A residual, on the ints of
    linalg._integral_views, is written out only when it is nonzero, each
    coordinate r as scalar(r), in lexicographic key order and, within a key,
    in the order of laws: at (*prefix, *key) as a vector or, with matrix, at
    (*prefix, k0, k1) as the matrix whose row k2 it is.
    """
    _, d1, d2 = dims
    strides = (d1 * d2, d2, 1)
    zero = [0] * width
    per_law = [{} for _ in laws]  # {flat key: residual as a list of ints}
    for law, sign, xs, ys, place in terms:
        acc = per_law[law]
        sp, sq, sz = (strides[place.index(c)] for c in "pqz")
        for p, q, fiber in xs:
            base = p * sp + q * sq
            for w, x in fiber.items():
                x *= sign
                for z, y_fiber in ys[w]:
                    key = base + z * sz
                    res = acc.get(key)
                    if res is None:
                        acc[key] = res = zero.copy()
                    for l, y in y_fiber.items():
                        res[l] += x * y
    rows = d2 if matrix else 1
    failing = sorted({(key // rows, law) for law, acc in enumerate(per_law)
                      for key, res in acc.items() if any(map(nonzero, res))})
    out = []
    for g, law in failing:
        at = divmod(g, d1) if matrix else (g // (d1 * d2), g // d2 % d1, g % d2)
        acc = per_law[law]
        res = [tuple(map(scalar, acc.get(g * rows + r, zero))) for r in range(rows)]
        out.append(Violation(laws[law], (*prefix, *at), tuple(res) if matrix else res[0]))
    return tuple(out)


def _law_views(tables: Sequence[MultTable]) -> tuple:
    """(views, nonzero, scalar) for a walk over the tables: per table the
    supports (prods, comms, left, right) its law terms read, on the ints of
    linalg._integral_views (over Q every table times one common denominator
    D, over F_p the residues).  prods and comms list the nonzero fibers of
    e_a . e_b and [e_a, e_b] as (a, b, fiber); left[w] pairs each z with
    e_z . e_w and right[w] with e_w . e_z.
    """
    planes, nonzero, scalar = _integral_views(tables[0].field, *(t.tensor.fibers for t in tables))
    n = tables[0].dim
    views = [(_entries(rows), _entries(_commutators(rows, rows, 1)), _by_second(rows, n), _by_first(rows))
             for rows in planes]
    return views, nonzero, scalar


def _apl_terms(outer: tuple, inner: tuple) -> list:
    """The _support_walk terms of the residuals (exchange, cyclic) at
    (e_i, e_j, e_k), with . the outer and * the inner product of two _law_views:

        exchange:  e_i . (e_j * e_k) - e_j . (e_i * e_k) + [e_i, e_j]* . e_k
        cyclic:    [e_i, e_j]* . e_k + [e_j, e_k]* . e_i + [e_k, e_i]* . e_j

    With outer = inner these are the anti-pre-Lie laws; summed over outer =
    w_p, inner = w_q with p + q = n, the degree-n deformation equations.
    """
    prods, comms, _, _ = inner
    _, _, left, right = outer
    return [(0, 1, prods, left, "zpq"), (0, -1, prods, left, "pzq"), (0, 1, comms, right, "pqz"),
            (1, 1, comms, right, "pqz"), (1, 1, comms, right, "zpq"), (1, 1, comms, right, "qzp")]


def check_anti_pre_lie(table: MultTable) -> Report:
    """Verify both anti-pre-Lie laws on all basis triples, with exact residuals."""
    (view,), nonzero, scalar = _law_views([table])
    return Report("anti-pre-lie", _support_walk(
        _apl_terms(view, view), (LAW_EXCHANGE, LAW_CYCLIC), (), nonzero, scalar,
        (table.dim,) * 3, table.dim))


def is_anti_pre_lie(table: MultTable) -> bool:
    """Boolean form of check_anti_pre_lie."""
    return check_anti_pre_lie(table).ok


@_record()
class AntiPreLieAlgebra:
    """A multiplication table that passed check_anti_pre_lie; build it with verify."""

    table: MultTable

    @classmethod
    def verify(cls, table: MultTable) -> "AntiPreLieAlgebra":
        check_anti_pre_lie(table).require("not an anti-pre-Lie table: {count} violated triples")
        return cls(table)

    @property
    def dim(self) -> int:
        return self.table.dim

    @property
    def field(self) -> Field:
        return self.table.field


@_record()
class LieTable:
    """Structure constants of a Lie bracket (antisymmetric, Jacobi verified)."""

    tensor: Tensor3

    @property
    def dim(self) -> int:
        return self.tensor.dims[0]

    @property
    def field(self) -> Field:
        return self.tensor.field

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self.tensor.fiber(i, j)


def check_lie_table(table: MultTable) -> Report:
    """Antisymmetry and the Jacobi identity on all basis pairs/triples."""
    n, rows = table.dim, table.tensor.fibers
    # e_i e_j + e_j e_i, written out densely where it is nonzero
    sym = Tensor3(table.field, table.tensor.dims, _commutators(rows, rows, -table.field.one()))
    violations = [Violation("antisymmetry", (i, j), sym.fiber(i, j)) for i, j, _ in _entries(sym.fibers)]
    # (e_i e_j) e_k + (e_j e_k) e_i + (e_k e_i) e_j
    ((prods, _, _, right),), nonzero, scalar = _law_views([table])
    terms = [(0, 1, prods, right, place) for place in ("pqz", "zpq", "qzp")]
    violations.extend(_support_walk(terms, ("jacobi",), (), nonzero, scalar, (n,) * 3, n))
    return Report("lie", tuple(violations))


def commutator_table(table: MultTable) -> MultTable:
    return MultTable(Tensor3(table.field, table.tensor.dims, table.sparse[1]))


def sub_adjacent_lie(alg: AntiPreLieAlgebra) -> LieTable:
    """The commutator bracket [x,y] = x.y - y.x of a verified algebra.

    The bracket of an anti-pre-Lie product always satisfies antisymmetry and
    Jacobi; this is still asserted, and a failure signals a corrupted input.
    """
    bracket = commutator_table(alg.table)
    check_lie_table(bracket).require("commutator of a supposedly verified table fails the Lie laws")
    return LieTable(bracket.tensor)


def check_morphism(f: Matrix, src: MultTable, dst: MultTable) -> Report:
    """f(x . y) = f(x) .' f(y) on all basis pairs of the source."""
    if f.cols != src.dim or f.rows != dst.dim:
        raise ValueError(f"morphism matrix must be {dst.dim}x{src.dim}, got {f.rows}x{f.cols}")
    _require_field("morphism", f.field, src.field)
    _require_field("target table", dst.field, src.field)
    res = _transport(src.tensor.fibers, _units(src.dim), _units(src.dim), _columns(f))
    _transport(dst.tensor.fibers, _columns(f), _columns(-f), _units(dst.dim), res)
    res = Tensor3(src.field, (src.dim, src.dim, dst.dim), res)
    return Report("morphism", tuple(Violation("morphism", (i, j), res.fiber(i, j))
                                    for i, j, _ in _entries(res.fibers)))
