"""Anti-pre-Lie algebras as structure-constant tables.

A product on a based vector space is stored as a rank-3 tensor c with
c[i][j][k] = coefficient of e_k in e_i . e_j.  An anti-pre-Lie algebra is a
table satisfying, for all x, y, z and with [x,y] = x.y - y.x,

    x.(y.z) - y.(x.z) = [y,x].z            (exchange law)
    [x,y].z + [y,z].x + [z,x].y = 0        (cyclic law)

Checks run over all ordered basis triples and report exact residual vectors.
Every law on basis triples in the package (anti-pre-Lie, deformation,
anti-L-dendriform, Jacobi) is walked by one routine, _law_violations, from a
residual routine for one triple whose terms are sparse products
(linalg._accumulate) of the cached nonzero structure constants
(MultTable.sparse).  Both anti-pre-Lie laws come from _law_residuals, built
from an outer and an inner product: the anti-pre-Lie check uses one product
in both places and the deformation equations sum it over pairs of
deformation terms.  Over Q these two walks run on ints (_law_views): every
view is scaled by one common denominator D of all the tables walked, each
residual is homogeneous of degree 2 in the structure constants and so is D^2
times the rational one, and only a violation's residual is turned back into
Fractions; over F_p they run on the Fp views.  A residual is written out
densely only when it is nonzero.  Tensor3.contract is kept for products of
arbitrary vectors.  Every law family has one lazy violation walk: its check_*
collects the walk, its is_* stops at the first violation.  A naive nested-loop oracle is kept in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import product
from typing import Callable, Iterator, Optional, Sequence

from .fields import Field, Rationals
from .linalg import (Matrix, Tensor3, Vec, _accumulate, _integral_views, _sparse_rows,
                     _subtract, invert, vec_is_zero, vec_sub)

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
    def sparse(self) -> tuple:
        """(rows, cols, comm), each [a][b] a {k: c} fiber over the nonzero
        coefficients c of e_k: rows[a][b] is e_a . e_b, cols[b][a] the same
        product and comm[a][b] the commutator [e_a, e_b]."""
        return _view(tuple(tuple(_sparse_rows(plane)) for plane in self.tensor.entries),
                     self.field.one())

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


def _view(rows: tuple, one) -> tuple:
    """(rows, cols, comm) of MultTable.sparse from its product fibers rows[a][b]."""
    n = len(rows)
    cols = tuple(tuple(rows[a][b] for a in range(n)) for b in range(n))
    comm = []
    for a in range(n):
        line = []
        for b in range(n):
            d = dict(rows[a][b])
            _subtract(d, one, rows[b][a])
            line.append(d)
        comm.append(tuple(line))
    return rows, cols, tuple(comm)


def _law_views(tables: Sequence[MultTable]) -> tuple:
    """(views, zero, scale) for the anti-pre-Lie or deformation walk over the
    tables, as _law_violations reads them.

    Over a prime field: each table's own sparse view and no scale.  Over Q:
    every view times one common denominator D, the lcm of the denominators
    of all the tables, with int coefficients, and scale D^2.  Every residual
    of these walks is a sum of products of one outer and one inner structure
    constant, so its int value is exactly D^2 times the rational one: zero
    exactly when the rational residual is.
    """
    field = tables[0].field
    if not isinstance(field, Rationals):
        return [t.sparse for t in tables], field.zero(), None
    d, planes = _integral_views(*(t.sparse[0] for t in tables))
    return [_view(rows, 1) for rows in planes], 0, d * d


def _law_residuals(pairs: list, i: int, j: int, k: int) -> tuple:
    """The residuals (exchange, cyclic) at the triple (e_i, e_j, e_k) as sparse
    {l: c} dicts, summed over the (outer, inner) pairs of MultTable.sparse
    views, with the outer product applied to the result of the inner one:

        exchange:  e_i . (e_j * e_k) - e_j . (e_i * e_k) + [e_i, e_j]* . e_k
        cyclic:    [e_i, e_j]* . e_k + [e_j, e_k]* . e_i + [e_k, e_i]* . e_j

    with . the outer and * the inner product.  With outer = inner these are
    the anti-pre-Lie laws; summed over outer = w_p, inner = w_q with p + q = n
    they are the degree-n deformation equations.
    """
    exchange, cyclic = {}, {}
    for (rows, cols, _), (in_rows, _, in_comm) in pairs:
        _accumulate(exchange, in_rows[j][k], rows[i])
        _accumulate(exchange, in_rows[i][k], rows[j], negate=True)
        _accumulate(exchange, in_comm[i][j], cols[k])
        _accumulate(cyclic, in_comm[i][j], cols[k])
        _accumulate(cyclic, in_comm[j][k], cols[i])
        _accumulate(cyclic, in_comm[k][i], cols[j])
    return exchange, cyclic


def _law_violations(residuals: Callable, prefix: tuple, laws: tuple, n: int,
                    zero, scale: Optional[int] = None) -> Iterator[Violation]:
    """Violations at each basis triple (i, j, k) in lexicographic order, at
    (*prefix, i, j, k) and, within one triple, in the order of laws.
    residuals(i, j, k) gives one sparse {l: c} dict of length-n residual
    coordinates per law; a residual is written out only when it is nonzero,
    with zero at the absent coordinates.  With a scale (ints over Q, see
    _law_views) each coordinate r is reported as Fraction(r, scale)."""
    for i, j, k in product(range(n), repeat=3):
        for law, res in zip(laws, residuals(i, j, k)):
            if any(res.values()):
                residual = tuple(res.get(l, zero) for l in range(n))
                if scale is not None:
                    residual = tuple(Fraction(r, scale) for r in residual)
                yield Violation(law, (*prefix, i, j, k), residual)


def _apl_violations(table: MultTable) -> Iterator[Violation]:
    (view,), zero, scale = _law_views([table])
    return _law_violations(partial(_law_residuals, [(view, view)]), (), (LAW_EXCHANGE, LAW_CYCLIC),
                           table.dim, zero, scale)


def check_anti_pre_lie(table: MultTable) -> Report:
    """Verify both anti-pre-Lie laws on all basis triples, with exact residuals."""
    return Report("anti-pre-lie", tuple(_apl_violations(table)))


def is_anti_pre_lie(table: MultTable) -> bool:
    """Early-exit boolean form of check_anti_pre_lie (used by the search corpus)."""
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
    rows, cols, _ = table.sparse

    def jacobi(i, j, k):
        # (e_i e_j) e_k + (e_j e_k) e_i + (e_k e_i) e_j
        res = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            _accumulate(res, rows[a][b], cols[c])
        return (res,)

    violations.extend(_law_violations(jacobi, (), ("jacobi",), n, table.field.zero()))
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
