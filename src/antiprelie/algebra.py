"""Anti-pre-Lie algebras as structure-constant tables.

A product on a based vector space is stored as a rank-3 tensor c with
c[i][j][k] = coefficient of e_k in e_i . e_j.  An anti-pre-Lie algebra is a
table satisfying, for all x, y, z and with [x,y] = x.y - y.x,

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
A check_* collects the violations; an is_* builds every residual and stops
at the first violation.  A naive nested-loop oracle is kept in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .fields import Field
from .linalg import (Matrix, Tensor3, Vec, _integral_views, _sparse_rows, _subtract, invert,
                     vec_is_zero, vec_sub)

LAW_EXCHANGE = "exchange"
LAW_CYCLIC = "cyclic"


@dataclass(frozen=True)
class Violation:
    """One failed identity instance: the law, the basis indices, the exact residual."""

    law: str
    at: tuple
    residual: tuple

    def rendered(self) -> list:
        """The residual as canonical scalar strings (a list of rows for a matrix)."""
        if self.residual and isinstance(self.residual[0], tuple):
            return [[str(x) for x in row] for row in self.residual]
        return [str(x) for x in self.residual]

    def describe(self) -> str:
        return f"{self.law} at {self.at}: residual {self.rendered()}"


@dataclass(frozen=True)
class Report:
    """Outcome of a verification: empty violations means the check passed."""

    subject: str
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> list[str]:
        return [v.describe() for v in self.violations]

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


@dataclass(frozen=True)
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
        z = field.zero()
        ent = [[[z for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for (i, j, k), v in nonzero.items():
            ent[i][j][k] = field.of_int(v) if isinstance(v, int) else v
        return MultTable.from_entries(field, ent)

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
        """L(e_i): y -> e_i . y, one matrix per basis vector."""
        n = self.dim
        return tuple(
            Matrix(self.field, n, n,
                   tuple(tuple(self.tensor.entries[i][j][k] for j in range(n)) for k in range(n)))
            for i in range(n)
        )

    @cached_property
    def right_matrices(self) -> tuple:
        """R(e_i): y -> y . e_i."""
        n = self.dim
        return tuple(
            Matrix(self.field, n, n,
                   tuple(tuple(self.tensor.entries[j][i][k] for j in range(n)) for k in range(n)))
            for i in range(n)
        )

    @cached_property
    def sparse_rows(self) -> tuple:
        """rows[a][b], the product e_a . e_b as a {k: c} fiber over its nonzero
        coefficients c of e_k."""
        return tuple(tuple(_sparse_rows(plane)) for plane in self.tensor.entries)

    @cached_property
    def sparse(self) -> tuple:
        """(rows, comm), each [a][b] a fiber as in sparse_rows: rows[a][b] is
        e_a . e_b and comm[a][b] the commutator [e_a, e_b]."""
        return self.sparse_rows, _commutators(self.sparse_rows, self.field.one())

    def conjugate(self, p: Matrix) -> "MultTable":
        """Basis change: the table of x *' y = P^{-1}(P(x) . P(y))."""
        if not p.is_square() or p.rows != self.dim:
            raise ValueError("change of basis must be a square matrix of the table's dimension")
        p_inv = invert(p)
        if p_inv is None:
            raise ValueError("change of basis must be invertible")
        n = self.dim
        cols = [p.col(j) for j in range(n)]
        ent = [[p_inv.apply(self.multiply(cols[i], cols[j])) for j in range(n)] for i in range(n)]
        return MultTable.from_entries(self.field, ent)


def _commutators(rows: tuple, one) -> tuple:
    """comm[a][b], the commutator [e_a, e_b] as a fiber, from the product fibers rows[a][b]."""
    comm = tuple(tuple(dict(fiber) for fiber in line) for line in rows)
    for a, line in enumerate(comm):
        for b, fiber in enumerate(line):
            _subtract(fiber, one, rows[b][a])
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
                  dims: tuple, width: int, matrix: bool = False) -> Iterator[Violation]:
    """The violations of laws, built from the nonzero terms of their residuals.

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
    failing = [{key // rows for key, res in acc.items() if any(map(nonzero, res))}
               for acc in per_law]
    for g in sorted(set().union(*failing)):
        at = divmod(g, d1) if matrix else (g // (d1 * d2), g // d2 % d1, g % d2)
        for law, acc, bad in zip(laws, per_law, failing):
            if g in bad:
                res = tuple(tuple(map(scalar, acc.get(g * rows + r, zero))) for r in range(rows))
                yield Violation(law, (*prefix, *at), res if matrix else res[0])


def _law_views(tables: Sequence[MultTable]) -> tuple:
    """(views, nonzero, scalar) for a walk over the tables: per table the
    supports (prods, comms, left, right) its law terms read, on the ints of
    linalg._integral_views (over Q every table times one common denominator
    D, over F_p the residues).  prods and comms list the nonzero fibers of
    e_a . e_b and [e_a, e_b] as (a, b, fiber); left[w] pairs each z with
    e_z . e_w and right[w] with e_w . e_z.
    """
    planes, nonzero, scalar = _integral_views(tables[0].field, *(t.sparse_rows for t in tables))
    n = tables[0].dim
    views = [(_entries(rows), _entries(_commutators(rows, 1)), _by_second(rows, n), _by_first(rows))
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


def _apl_violations(table: MultTable) -> Iterator[Violation]:
    (view,), nonzero, scalar = _law_views([table])
    return _support_walk(_apl_terms(view, view), (LAW_EXCHANGE, LAW_CYCLIC), (), nonzero, scalar,
                         (table.dim,) * 3, table.dim)


def check_anti_pre_lie(table: MultTable) -> Report:
    """Verify both anti-pre-Lie laws on all basis triples, with exact residuals."""
    return Report("anti-pre-lie", tuple(_apl_violations(table)))


def is_anti_pre_lie(table: MultTable) -> bool:
    """Boolean form of check_anti_pre_lie, stopping at the first violation (used by the search)."""
    return next(_apl_violations(table), None) is None


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    n = table.dim
    violations = []
    for i in range(n):
        for j in range(n):
            s = tuple(a + b for a, b in zip(table.basis_product(i, j), table.basis_product(j, i)))
            if not vec_is_zero(s):
                violations.append(Violation("antisymmetry", (i, j), s))
    # (e_i e_j) e_k + (e_j e_k) e_i + (e_k e_i) e_j
    ((prods, _, _, right),), nonzero, scalar = _law_views([table])
    terms = [(0, 1, prods, right, place) for place in ("pqz", "zpq", "qzp")]
    violations.extend(_support_walk(terms, ("jacobi",), (), nonzero, scalar, (n,) * 3, n))
    return Report("lie", tuple(violations))


def commutator_table(table: MultTable) -> MultTable:
    n = table.dim
    ent = [[table.commutator_basis(i, j) for j in range(n)] for i in range(n)]
    return MultTable.from_entries(table.field, ent)


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
        raise ValueError(
            f"morphism matrix must be {dst.dim}x{src.dim}, got {f.rows}x{f.cols}"
        )
    violations = []
    fcols = [f.col(j) for j in range(src.dim)]
    for i in range(src.dim):
        for j in range(src.dim):
            res = vec_sub(f.apply(src.basis_product(i, j)), dst.multiply(fcols[i], fcols[j]))
            if not vec_is_zero(res):
                violations.append(Violation("morphism", (i, j), res))
    return Report("morphism", tuple(violations))
