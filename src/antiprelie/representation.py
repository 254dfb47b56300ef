"""Representations (rho, mu) of anti-pre-Lie algebras.

A representation on V is a pair of linear actions satisfying, for all x, y,

    rho(x)rho(y) - rho(y)rho(x) = rho([y,x])
    mu(x.y) - rho(x)mu(y) = mu(y)rho(x) - mu(y)mu(x)
    mu(y)mu(x) - mu(x)mu(y) + rho([x,y]) = mu(y)rho(x) - mu(x)rho(y)

verified on basis pairs (bilinearity extends them; that is the normative
reading of "for all x, y").  Every law on basis pairs here (the three axioms,
the Lie action law, the symmetry of mu) is a list of terms for the kernel
algebra._support_walk, which reaches only the nonzero products of the cached
structure constants and action rows: row r of a residual matrix at (e_i, e_j)
is its key (i, j, r), and the matrix is reported whole.  The walks run on
ints (_pair_views, linalg._integral_views): over Q table and representation
are scaled by one common denominator D, each residual term is a product of
two of their entries, so an int residual is D^2 times the rational one; over
F_p they hold their residues, and a residual is reduced mod p only where it
is tested.  A representation over an algebra of another dimension, or over
another field, than the table's is refused before any arithmetic.  The module
also builds the regular representation (L, R), semidirect products, the
induced sub-adjacent Lie action rho - mu, dual representations on V*, and the
three-way equivalence report for (mu - rho, mu) / (rho*, mu*) /
mu(x.y) + mu(y.x) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Optional, Union

from .algebra import (
    AntiPreLieAlgebra,
    LieTable,
    MultTable,
    Report,
    _by_first,
    _by_second,
    _commutators,
    _entries,
    _support_walk,
    sub_adjacent_lie,
)
from .fields import Field, _require_field
from .linalg import Matrix, _integral_views, _sparse_rows

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


def _require_pair(table: MultTable, rep: Representation) -> None:
    """Refuse a representation of an algebra of another dimension or field."""
    if rep.dim_a != table.dim:
        raise ValueError(f"representation is over a dim-{rep.dim_a} algebra, table has dim {table.dim}")
    _require_field("representation", rep.field, table.field)


def _pair_views(table: MultTable, rep: Representation, integral: bool = True) -> tuple:
    """((prod, comm, rho, mu), nonzero, scalar): the product and commutator
    fibers of the table's sparse view and the representation's sparse rows.
    With integral they are on the ints of linalg._integral_views (over Q
    all four scaled by one common denominator D, the lcm over table and
    representation; over F_p the residues), read by its nonzero and scalar;
    otherwise they hold field scalars, and nonzero and scalar are None.  A
    representation of another algebra is refused (_require_pair)."""
    _require_pair(table, rep)
    rho, mu = rep.sparse
    if not integral:
        prod, comm = table.sparse
        return (prod, comm, rho, mu), None, None
    (prod, rho, mu), nonzero, scalar = _integral_views(table.field, table.sparse_rows, rho, mu)
    return (prod, _commutators(prod, 1), rho, mu), nonzero, scalar


def check_representation(alg: AlgebraLike, rep: Representation) -> Report:
    """Verify the three representation axioms on all basis pairs, each
    violation a residual matrix at (i, j), on the ints of _pair_views."""
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    (prod, comm, rho, mu), nonzero, scalar = _pair_views(table, rep)
    prods, comms = _entries(prod), _entries(comm)
    rho_x, rho_first, rho_second = _entries(rho), _by_first(rho), _by_second(rho, m)
    mu_x, mu_first, mu_second = _entries(mu), _by_first(mu), _by_second(mu, m)
    # Row r of each residual at (e_i, e_j) is key (i, j, r): rho_i rho_j is
    # rho[i][r] . rho[j][.], rho([e_j, e_i]) is comm[j][i] . rho[.][r].
    terms = [
        # rho_i rho_j - rho_j rho_i - rho([e_j, e_i])
        (0, 1, rho_x, rho_second, "pzq"), (0, -1, rho_x, rho_second, "zpq"),
        (0, -1, comms, rho_first, "qpz"),
        # mu(e_i . e_j) - rho_i mu_j - mu_j rho_i + mu_j mu_i
        (1, 1, prods, mu_first, "pqz"), (1, -1, rho_x, mu_second, "pzq"),
        (1, -1, mu_x, rho_second, "zpq"), (1, 1, mu_x, mu_second, "zpq"),
        # mu_j mu_i - mu_i mu_j + rho([e_i, e_j]) - mu_j rho_i + mu_i rho_j
        (2, 1, mu_x, mu_second, "zpq"), (2, -1, mu_x, mu_second, "pzq"),
        (2, 1, comms, rho_first, "pqz"), (2, -1, mu_x, rho_second, "zpq"),
        (2, 1, mu_x, rho_second, "pzq"),
    ]
    return Report("representation", _support_walk(
        terms, (LAW_RHO, LAW_MIXED, LAW_MU), (), nonzero, scalar, (n, n, m), m, True))


def is_representation(alg: AlgebraLike, rep: Representation) -> bool:
    return check_representation(alg, rep).ok


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
    for a in rep.action:
        _require_field("action", a.field, lie.field)
    (bracket, act), nonzero, scalar = _integral_views(
        lie.field, MultTable(lie.tensor).sparse_rows,
        tuple(tuple(_sparse_rows(a.entries)) for a in rep.action))
    act_x, act_first, act_second = _entries(act), _by_first(act), _by_second(act, m)
    terms = [(0, 1, act_x, act_second, "pzq"), (0, -1, act_x, act_second, "zpq"),
             (0, -1, _entries(bracket), act_first, "pqz")]
    return Report("lie-representation", _support_walk(
        terms, ("lie-action",), (), nonzero, scalar, (n, n, m), m, True))


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

    (prod, _, _, mu), nonzero, scalar = _pair_views(table, rep)
    prods, mu_first = _entries(prod), _by_first(mu)
    # mu(e_i . e_j) + mu(e_j . e_i)
    terms = [(0, 1, prods, mu_first, "pqz"), (0, 1, prods, mu_first, "qpz")]
    n, m = table.dim, rep.dim_v
    cond3 = not _support_walk(terms, ("mu-symmetric",), (), nonzero, scalar, (n, n, m), m, True)
    return (cond1, cond2, cond3)
