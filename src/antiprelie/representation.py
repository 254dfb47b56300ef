"""Representations (rho, mu) of anti-pre-Lie algebras.

A representation on V is a pair of linear actions satisfying, for all x, y,

    rho(x)rho(y) - rho(y)rho(x) = rho([y,x])
    mu(x.y) - rho(x)mu(y) = mu(y)rho(x) - mu(y)mu(x)
    mu(y)mu(x) - mu(x)mu(y) + rho([x,y]) = mu(y)rho(x) - mu(x)rho(y)

verified on basis pairs (bilinearity extends them; that is the normative
reading of "for all x, y").  Every law on basis pairs here (the three axioms,
the Lie action law, the symmetry of mu) is walked by one routine,
_matrix_violations, which builds each residual matrix row by row from sparse
products (linalg._accumulate) of the cached nonzero structure constants and
action entries.  Over Q the three axioms run on ints (_pair_views): table
and representation are scaled by one common denominator D, each residual
term is a product of two of their entries, so an int residual is D^2 times
the rational one.  A representation over another field than the table's is
refused before any arithmetic.  The module also builds the regular
representation (L, R), semidirect products, the induced sub-adjacent Lie
action rho - mu, dual representations on V*, and the three-way equivalence
report for (mu - rho, mu) / (rho*, mu*) / mu(x.y) + mu(y.x) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Iterator, Optional, Union

from .algebra import (
    AntiPreLieAlgebra,
    LieTable,
    MultTable,
    Report,
    Violation,
    _view,
    sub_adjacent_lie,
)
from .fields import Field, Rationals
from .linalg import Matrix, _accumulate, _integral_views, _sparse_rows

AlgebraLike = Union[AntiPreLieAlgebra, MultTable]


def as_table(alg: AlgebraLike) -> MultTable:
    return alg.table if isinstance(alg, AntiPreLieAlgebra) else alg


@dataclass(frozen=True)
class Representation:
    """Paired actions on V: rho[i], mu[i] are the matrices of the e_i actions."""

    dim_a: int
    dim_v: int
    rho: tuple  # tuple[Matrix, ...], length dim_a, each dim_v x dim_v
    mu: tuple
    # The field when there are no matrices to read it from (dim_a = 0).
    scalars: Optional[Field] = dataclass_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.rho) != self.dim_a or len(self.mu) != self.dim_a:
            raise ValueError("need one rho and one mu matrix per algebra basis vector")
        for m in (*self.rho, *self.mu):
            if (m.rows, m.cols) != (self.dim_v, self.dim_v):
                raise ValueError(f"action matrices must be {self.dim_v}x{self.dim_v}")

    @property
    def field(self) -> Optional[Field]:
        return self.rho[0].field if self.rho else self.scalars

    @staticmethod
    def zero(field: Field, dim_a: int, dim_v: int) -> "Representation":
        z = Matrix.zero(field, dim_v, dim_v)
        return Representation(dim_a, dim_v, (z,) * dim_a, (z,) * dim_a, field)

    @cached_property
    def sparse(self) -> tuple:
        """(rho, mu) as sparse rows: rho[i][r] = {s: x} over the nonzero entries
        x of row r of the matrix of rho(e_i), and likewise for mu."""
        return tuple(tuple(tuple(_sparse_rows(mat.entries)) for mat in mats)
                     for mats in (self.rho, self.mu))


LAW_RHO = "rep-rho"
LAW_MIXED = "rep-mixed"
LAW_MU = "rep-mu"


def _by_row(mats: tuple, m: int) -> tuple:
    """by_row[r][a] = mats[a][r]: row r of each sparse action matrix, so that
    row r of the action of x = sum x_a e_a is a sparse product over a."""
    return tuple(tuple(mat[r] for mat in mats) for r in range(m))


def _matrix_violations(residual_rows: Callable, laws: tuple, n: int, m: int,
                       zero, scale: Optional[int] = None) -> Iterator[Violation]:
    """Violations at each basis pair (i, j) in lexicographic order and, within
    one pair, in the order of laws.  residual_rows(i, j, r) gives row r of
    each law's m x m residual matrix as a sparse {s: x} dict (row r of A @ B
    is the combination of the rows of B by the entries of row r of A); a
    residual is written out only when it is nonzero.  With a scale (ints
    over Q, see _pair_views) each entry x is reported as Fraction(x, scale)."""
    for i, j in product(range(n), repeat=2):
        mats = zip(*(residual_rows(i, j, r) for r in range(m)))
        for law, rows in zip(laws, mats):
            if any(any(row.values()) for row in rows):
                residual = tuple(tuple(row.get(s, zero) for s in range(m)) for row in rows)
                if scale is not None:
                    residual = tuple(tuple(Fraction(x, scale) for x in row) for row in residual)
                yield Violation(law, (i, j), residual)


def _pair_views(table: MultTable, rep: Representation, integral: bool = True) -> tuple:
    """((prod, comm, rho, mu), zero, scale): the product and commutator
    fibers of the table's sparse view and the representation's sparse rows,
    as algebra._law_views gives them.  Over Q and with integral, all four
    are scaled to ints by one common denominator D, the lcm over table and
    representation, and scale is D^2; otherwise scale is None.  A
    representation over another field than the table's is refused."""
    if rep.field not in (None, table.field):
        raise ValueError(f"representation is over {rep.field}, the table over {table.field}")
    prod, _, comm = table.sparse
    rho, mu = rep.sparse
    if not integral or not isinstance(table.field, Rationals):
        return (prod, comm, rho, mu), table.field.zero(), None
    d, (prod, rho, mu) = _integral_views(prod, rho, mu)
    return (prod, _view(prod, 1)[2], rho, mu), 0, d * d


def _representation_violations(table: MultTable, rep: Representation) -> Iterator[Violation]:
    """The three axioms at each ordered basis pair (i, j), as residual
    matrices; over Q on ints, each residual D^2 times the rational one."""
    n, m = table.dim, rep.dim_v
    if rep.dim_a != n:
        raise ValueError(f"representation is over a dim-{rep.dim_a} algebra, table has dim {n}")
    (prod, comm, rho, mu), zero, scale = _pair_views(table, rep)
    rho_at, mu_at = _by_row(rho, m), _by_row(mu, m)

    def residual_rows(i, j, r):
        # rho_i rho_j - rho_j rho_i - rho([e_j, e_i])
        r1 = {}
        _accumulate(r1, rho[i][r], rho[j])
        _accumulate(r1, rho[j][r], rho[i], negate=True)
        _accumulate(r1, comm[j][i], rho_at[r], negate=True)
        # mu(e_i . e_j) - rho_i mu_j - mu_j rho_i + mu_j mu_i
        r2 = {}
        _accumulate(r2, prod[i][j], mu_at[r])
        _accumulate(r2, rho[i][r], mu[j], negate=True)
        _accumulate(r2, mu[j][r], rho[i], negate=True)
        _accumulate(r2, mu[j][r], mu[i])
        # mu_j mu_i - mu_i mu_j + rho([e_i, e_j]) - mu_j rho_i + mu_i rho_j
        r3 = {}
        _accumulate(r3, mu[j][r], mu[i])
        _accumulate(r3, mu[i][r], mu[j], negate=True)
        _accumulate(r3, comm[i][j], rho_at[r])
        _accumulate(r3, mu[j][r], rho[i], negate=True)
        _accumulate(r3, mu[i][r], rho[j])
        return r1, r2, r3

    return _matrix_violations(residual_rows, (LAW_RHO, LAW_MIXED, LAW_MU), n, m, zero, scale)


def check_representation(alg: AlgebraLike, rep: Representation) -> Report:
    """Verify the three representation axioms on all basis pairs."""
    return Report("representation", tuple(_representation_violations(as_table(alg), rep)))


def is_representation(alg: AlgebraLike, rep: Representation) -> bool:
    return next(_representation_violations(as_table(alg), rep), None) is None


def verify_representation(alg: AlgebraLike, rep: Representation) -> Representation:
    check_representation(alg, rep).require("not a representation: {count} violated basis pairs")
    return rep


def regular_representation(alg: AntiPreLieAlgebra) -> Representation:
    """(A, L, R) with L(e_i): y -> e_i . y and R(e_i): y -> y . e_i."""
    table = as_table(alg)
    return Representation(table.dim, table.dim, table.left_matrices, table.right_matrices,
                          table.field)


def semidirect_product(alg: AntiPreLieAlgebra, rep: Representation) -> AntiPreLieAlgebra:
    """The anti-pre-Lie structure on A + V with product

        (x + u) . (y + v) = x.y + rho(x)(v) + mu(y)(u),

    the abelian extension table with theta = 0, refusing representations that
    fail verification.  The result is verified before it is returned.
    """
    from .cohomology import Cochain2
    from .extension import extension_table

    table = as_table(alg)
    verify_representation(table, rep)
    theta = Cochain2.zero(table.field, table.dim, rep.dim_v)
    return AntiPreLieAlgebra.verify(extension_table(table, rep, theta))


@dataclass(frozen=True)
class LieRepresentation:
    """A single action of a Lie algebra: [action(x), action(y)] = action([x,y])."""

    dim_v: int
    action: tuple  # tuple[Matrix, ...]


def check_lie_representation(lie: LieTable, rep: LieRepresentation) -> Report:
    """action_i action_j - action_j action_i - action([e_i, e_j]) on all basis pairs."""
    n, m = lie.dim, rep.dim_v
    bracket = MultTable(lie.tensor).sparse[0]
    act = tuple(tuple(_sparse_rows(a.entries)) for a in rep.action)
    act_at = _by_row(act, m)

    def residual_rows(i, j, r):
        row = {}
        _accumulate(row, act[i][r], act[j])
        _accumulate(row, act[j][r], act[i], negate=True)
        _accumulate(row, bracket[i][j], act_at[r], negate=True)
        return (row,)

    return Report("lie-representation", tuple(
        _matrix_violations(residual_rows, ("lie-action",), n, m, lie.field.zero())
    ))


def sub_adjacent_representation(alg: AntiPreLieAlgebra, rep: Representation) -> LieRepresentation:
    """(V, rho - mu), an action of the commutator Lie algebra; asserted valid."""
    action = tuple(r - m for r, m in zip(rep.rho, rep.mu))
    lierep = LieRepresentation(rep.dim_v, action)
    check_lie_representation(sub_adjacent_lie(alg), lierep).require(
        "rho - mu fails the Lie action law; input was not a representation"
    )
    return lierep


def dual_representation(rep: Representation) -> Representation:
    """The representation on V* with matrices (rho^T - mu^T, -mu^T).

    V* carries the dual basis, so dualizing an action is transpose-and-negate:
    the action pair (mu* - rho*, mu*) becomes the matrices above.  Applying
    this twice returns the original matrices exactly.
    """
    rho_d = tuple(r.transpose() - m.transpose() for r, m in zip(rep.rho, rep.mu))
    mu_d = tuple(-m.transpose() for m in rep.mu)
    return Representation(rep.dim_a, rep.dim_v, rho_d, mu_d, rep.field)


def special_condition_report(alg: AlgebraLike, rep: Representation) -> tuple:
    """Three independently computed booleans, provably always equal:

    (i)   (V, mu - rho, mu) is a representation of the algebra,
    (ii)  (V*, rho*, mu*) is a representation,
    (iii) mu(x.y) + mu(y.x) = 0 on all basis pairs.
    """
    table = as_table(alg)
    swapped = Representation(
        rep.dim_a, rep.dim_v, tuple(m - r for r, m in zip(rep.rho, rep.mu)), rep.mu, rep.field
    )
    cond1 = is_representation(table, swapped)

    starred = Representation(
        rep.dim_a,
        rep.dim_v,
        tuple(-r.transpose() for r in rep.rho),
        tuple(-m.transpose() for m in rep.mu),
        rep.field,
    )
    cond2 = is_representation(table, starred)

    prod = table.sparse[0]
    mu_at = _by_row(rep.sparse[1], rep.dim_v)

    def symmetric_mu(i, j, r):
        row = {}
        _accumulate(row, prod[i][j], mu_at[r])
        _accumulate(row, prod[j][i], mu_at[r])
        return (row,)

    cond3 = next(_matrix_violations(symmetric_mu, ("mu-symmetric",), table.dim, rep.dim_v,
                                    table.field.zero()), None) is None
    return (cond1, cond2, cond3)
