"""Representations (rho, mu) of anti-pre-Lie algebras.

A representation on V is a pair of linear actions satisfying, for all x, y,

    rho(x)rho(y) - rho(y)rho(x) = rho([y,x])
    mu(x.y) - rho(x)mu(y) = mu(y)rho(x) - mu(y)mu(x)
    mu(y)mu(x) - mu(x)mu(y) + rho([x,y]) = mu(y)rho(x) - mu(x)rho(y)

verified on basis pairs (bilinearity extends them; that is the normative
reading of "for all x, y").  The module also builds the regular
representation (L, R), semidirect products, the induced sub-adjacent Lie
action rho - mu, dual representations on V*, and the three-way equivalence
report for (mu - rho, mu) / (rho*, mu*) / mu(x.y) + mu(y.x) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Iterator, Optional, Union

from .algebra import (
    AntiPreLieAlgebra,
    LieTable,
    MultTable,
    Report,
    Violation,
    _law_operands,
)
from .fields import Field
from .linalg import Matrix, Vec, _accumulate, lincomb

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

    def rho_of(self, x: Vec) -> Matrix:
        return lincomb(x, self.rho)

    def mu_of(self, x: Vec) -> Matrix:
        return lincomb(x, self.mu)

    @cached_property
    def sparse(self) -> tuple:
        """(rho, mu) as sparse rows: rho[i][r] = {s: x} over the nonzero entries
        x of row r of the matrix of rho(e_i), and likewise for mu."""
        return tuple(
            tuple(tuple({s: x for s, x in enumerate(row) if x} for row in mat.entries) for mat in mats)
            for mats in (self.rho, self.mu)
        )


LAW_RHO = "rep-rho"
LAW_MIXED = "rep-mixed"
LAW_MU = "rep-mu"


def _representation_violations(table: MultTable, rep: Representation) -> Iterator[Violation]:
    """The three axioms at each ordered basis pair (i, j), as residual matrices.

    Each residual row is summed from sparse rows (row r of A @ B is the
    combination of the rows of B by the entries of row r of A), and written
    out densely only when the residual is nonzero.
    """
    n, m = table.dim, rep.dim_v
    if rep.dim_a != n:
        raise ValueError(f"representation is over a dim-{rep.dim_a} algebra, table has dim {n}")
    prod = table.sparse
    comm = _law_operands(table)[2]
    rho, mu = rep.sparse
    # rho_at[r][a] is row r of rho(e_a): the fibers of x -> row r of rho_of(x).
    rho_at = tuple(tuple(rho[a][r] for a in range(n)) for r in range(m))
    mu_at = tuple(tuple(mu[a][r] for a in range(n)) for r in range(m))
    zero = table.field.zero()
    for i in range(n):
        for j in range(n):
            r1, r2, r3 = [], [], []
            for r in range(m):
                # rho_i rho_j - rho_j rho_i - rho([e_j, e_i])
                row = {}
                _accumulate(row, rho[i][r], rho[j])
                _accumulate(row, rho[j][r], rho[i], negate=True)
                _accumulate(row, comm[j][i], rho_at[r], negate=True)
                r1.append(row)
                # mu(e_i . e_j) - rho_i mu_j - mu_j rho_i + mu_j mu_i
                row = {}
                _accumulate(row, prod[i][j], mu_at[r])
                _accumulate(row, rho[i][r], mu[j], negate=True)
                _accumulate(row, mu[j][r], rho[i], negate=True)
                _accumulate(row, mu[j][r], mu[i])
                r2.append(row)
                # mu_j mu_i - mu_i mu_j + rho([e_i, e_j]) - mu_j rho_i + mu_i rho_j
                row = {}
                _accumulate(row, mu[j][r], mu[i])
                _accumulate(row, mu[i][r], mu[j], negate=True)
                _accumulate(row, comm[i][j], rho_at[r])
                _accumulate(row, mu[j][r], rho[i], negate=True)
                _accumulate(row, mu[i][r], rho[j])
                r3.append(row)
            for law, res in ((LAW_RHO, r1), (LAW_MIXED, r2), (LAW_MU, r3)):
                if any(any(row.values()) for row in res):
                    yield Violation(law, (i, j), tuple(
                        tuple(row.get(s, zero) for s in range(m)) for row in res
                    ))


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
    return Representation(table.dim, table.dim, table.left_matrices, table.right_matrices)


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

    def action_of(self, x: Vec) -> Matrix:
        return lincomb(x, self.action)


def check_lie_representation(lie: LieTable, rep: LieRepresentation) -> Report:
    violations = []
    n = lie.dim
    for i in range(n):
        for j in range(n):
            res = (
                rep.action[i] @ rep.action[j]
                - rep.action[j] @ rep.action[i]
                - rep.action_of(lie.bracket_basis(i, j))
            )
            if not res.is_zero():
                violations.append(Violation("lie-action", (i, j), res.entries))
    return Report("lie-representation", tuple(violations))


def sub_adjacent_representation(alg: AntiPreLieAlgebra, rep: Representation) -> LieRepresentation:
    """(V, rho - mu), an action of the commutator Lie algebra; asserted valid."""
    from .algebra import sub_adjacent_lie

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
        rep.dim_a, rep.dim_v, tuple(m - r for r, m in zip(rep.rho, rep.mu)), rep.mu
    )
    cond1 = is_representation(table, swapped)

    starred = Representation(
        rep.dim_a,
        rep.dim_v,
        tuple(-r.transpose() for r in rep.rho),
        tuple(-m.transpose() for m in rep.mu),
    )
    cond2 = is_representation(table, starred)

    cond3 = True
    n = table.dim
    for i in range(n):
        for j in range(n):
            s = rep.mu_of(table.basis_product(i, j)) + rep.mu_of(table.basis_product(j, i))
            if not s.is_zero():
                cond3 = False
                break
        if not cond3:
            break
    return (cond1, cond2, cond3)
