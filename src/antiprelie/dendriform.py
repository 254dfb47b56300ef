"""Anti-L-dendriform algebras and the operator constructions that produce them.

An anti-L-dendriform algebra carries two products (written x > y and x < y
below) satisfying three coupled identities; x > y - y < x is then an
anti-pre-Lie product, and (L_>, -L_<) is a representation of it.  The module
also implements relation-solving operators T: V -> A with

    T(u) . T(v) = T(rho(T(u)) v + mu(T(v)) u),

the induced dendriform structure on V, the compatible structure on A obtained
from an invertible such operator, and the construction from a nondegenerate
invariant bilinear form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .algebra import (
    AntiPreLieAlgebra,
    MultTable,
    Report,
    StructureError,
    Violation,
    _column_violations,
)
from .fields import Field
from .linalg import Matrix, invert, rank, vec_is_zero, vec_sub
from .representation import (
    AlgebraLike,
    Representation,
    as_table,
)

LAW_D1 = "dendriform-1"
LAW_D2 = "dendriform-2"
LAW_D3 = "dendriform-3"


@dataclass(frozen=True)
class AntiLDendriform:
    """Two multiplication tables: ``right`` holds x > y, ``left`` holds x < y."""

    right: MultTable
    left: MultTable

    def __post_init__(self):
        if self.right.dim != self.left.dim:
            raise ValueError("the two tables must share a dimension")
        if self.right.field != self.left.field:
            raise ValueError("the two tables must share a field")

    @property
    def dim(self) -> int:
        return self.right.dim

    @property
    def field(self) -> Field:
        return self.right.field

    @staticmethod
    def zero(field: Field, n: int) -> "AntiLDendriform":
        return AntiLDendriform(MultTable.zero(field, n), MultTable.zero(field, n))


def _dendriform_violations(d: AntiLDendriform) -> Iterator[Violation]:
    """The three identities per ordered pair (i, j), as residual matrices.

    Column k of each matrix is the residual at the triple (e_i, e_j, e_k);
    the identities are evaluated as operator compositions of the left
    multiplications of both tables.
    """
    n = d.dim
    lr = d.right.left_matrices
    ll = d.left.left_matrices
    r_of = d.right.left_matrix
    l_of = d.left.left_matrix
    for i in range(n):
        for j in range(n):
            rij = d.right.basis_product(i, j)
            rji = d.right.basis_product(j, i)
            lij = d.left.basis_product(i, j)
            lji = d.left.basis_product(j, i)
            m1 = lr[i] @ lr[j] - lr[j] @ lr[i] - r_of(rji) + r_of(lij) + r_of(rij) - r_of(lji)
            m2 = lr[i] @ ll[j] - l_of(rij) + l_of(lji) + ll[j] @ ll[i] + ll[j] @ lr[i]
            m3 = (
                ll[j] @ ll[i]
                + ll[j] @ lr[i]
                + r_of(rij)
                - r_of(lji)
                - r_of(rji)
                + r_of(lij)
                - ll[i] @ lr[j]
                - ll[i] @ ll[j]
            )
            yield from _column_violations((i, j), (LAW_D1, LAW_D2, LAW_D3), (m1, m2, m3))


def check_anti_L_dendriform(d: AntiLDendriform) -> Report:
    """Verify the three identities on all basis triples, with exact residuals."""
    return Report("anti-L-dendriform", tuple(_dendriform_violations(d)))


def is_anti_L_dendriform(d: AntiLDendriform) -> bool:
    return next(_dendriform_violations(d), None) is None


def verify_anti_L_dendriform(d: AntiLDendriform) -> AntiLDendriform:
    check_anti_L_dendriform(d).require(
        "not an anti-L-dendriform structure: {count} violated triples"
    )
    return d


def associated_table(d: AntiLDendriform) -> MultTable:
    """The table of x . y = x > y - y < x, with no verification."""
    n = d.dim
    ent = [
        [vec_sub(d.right.basis_product(i, j), d.left.basis_product(j, i)) for j in range(n)]
        for i in range(n)
    ]
    return MultTable.from_entries(d.field, ent)


def associated_anti_pre_lie(d: AntiLDendriform) -> AntiPreLieAlgebra:
    """x . y = x > y - y < x for a verified dendriform structure; the result
    always passes the anti-pre-Lie check, which is asserted."""
    verify_anti_L_dendriform(d)
    return AntiPreLieAlgebra.verify(associated_table(d))


def left_mult_representation(d: AntiLDendriform) -> Representation:
    """(A, L_>, -L_<), the action pair of the associated product.

    The structure d verifies if and only if the associated table is
    anti-pre-Lie and this pair passes check_representation against it; the
    equivalence is exercised by the test suite, the operation itself just
    assembles the matrices.
    """
    rho = d.right.left_matrices
    mu = tuple(-m for m in d.left.left_matrices)
    return Representation(d.dim, d.dim, rho, mu)


LAW_O = "o-operator"


def _o_operator_violations(table: MultTable, rep: Representation, t: Matrix) -> Iterator[Violation]:
    n, m = table.dim, rep.dim_v
    if (t.rows, t.cols) != (n, m):
        raise ValueError(f"operator matrix must be {n}x{m}, got {t.rows}x{t.cols}")
    tcols = [t.col(a) for a in range(m)]
    for a in range(m):
        rho_ta = rep.rho_of(tcols[a])
        for b in range(m):
            mu_tb = rep.mu_of(tcols[b])
            inner = tuple(x + y for x, y in zip(rho_ta.col(b), mu_tb.col(a)))
            res = vec_sub(table.multiply(tcols[a], tcols[b]), t.apply(inner))
            if not vec_is_zero(res):
                yield Violation(LAW_O, (a, b), res)


def check_O_operator(alg: AlgebraLike, rep: Representation, t: Matrix) -> Report:
    """T(u) . T(v) = T(rho(T(u)) v + mu(T(v)) u) on all basis pairs of V."""
    return Report("o-operator", tuple(_o_operator_violations(as_table(alg), rep, t)))


def is_O_operator(alg: AlgebraLike, rep: Representation, t: Matrix) -> bool:
    return next(_o_operator_violations(as_table(alg), rep, t), None) is None


def induced_dendriform(alg: AlgebraLike, rep: Representation, t: Matrix) -> AntiLDendriform:
    """The structure on V with u > v = rho(T(u)) v and u < v = -mu(T(u)) v.

    Refuses matrices that fail the operator relation.  The result passes the
    dendriform check, T is a morphism from its associated product to the
    algebra, and T(V) is closed under the algebra product (all asserted by
    the test suite; the first is asserted here).
    """
    table = as_table(alg)
    check_O_operator(table, rep, t).require("matrix is not an O-operator")
    m = rep.dim_v
    field = table.field
    right = [[None] * m for _ in range(m)]
    left = [[None] * m for _ in range(m)]
    for a in range(m):
        rho_ta = rep.rho_of(t.col(a))
        mu_ta = rep.mu_of(t.col(a))
        for b in range(m):
            right[a][b] = rho_ta.col(b)
            left[a][b] = tuple(-x for x in mu_ta.col(b))
    d = AntiLDendriform(
        MultTable.from_entries(field, right), MultTable.from_entries(field, left)
    )
    return verify_anti_L_dendriform(d)


def compatible_from_invertible_O(
    alg: AlgebraLike, rep: Representation, t: Matrix
) -> AntiLDendriform:
    """Transport the induced structure along an invertible operator:

        x > y = T(rho(x) T^{-1}(y)),   x < y = -T(mu(x) T^{-1}(y)).

    The associated product of the result equals the algebra product exactly.
    """
    table = as_table(alg)
    if not t.is_square():
        raise StructureError("compatible transport needs a square, invertible operator")
    t_inv = invert(t)
    if t_inv is None:
        raise StructureError("operator matrix is singular")
    check_O_operator(table, rep, t).require("matrix is not an O-operator")
    n = table.dim
    field = table.field
    right = [
        [t.apply(rep.rho[i].apply(t_inv.col(j))) for j in range(n)] for i in range(n)
    ]
    left = [
        [tuple(-x for x in t.apply(rep.mu[i].apply(t_inv.col(j)))) for j in range(n)]
        for i in range(n)
    ]
    d = AntiLDendriform(
        MultTable.from_entries(field, right), MultTable.from_entries(field, left)
    )
    verify_anti_L_dendriform(d)
    if associated_table(d).tensor != table.tensor:
        raise StructureError("transported structure is not compatible with the algebra product")
    return d


LAW_FORM = "form-invariance"
LAW_TRANSPORT = "form-transport"
LAW_SKEW = "form-skew"


def check_form_invariance(alg: AlgebraLike, b: Matrix, strict_skew: bool = False) -> Report:
    """Nondegeneracy plus the two pairing identities the construction needs:

        B(x, y.z) - B(y, x.z) = B([y,x], z)            (invariance)
        B(x.y, z) + B(y, [z,x]) + B(x, z.y) = 0        (transport)

    The transport identity is exactly the statement that the inverse of
    x -> B(x, .) solves the operator relation for the dual of the regular
    representation; for a skew form it follows from invariance, but for a
    general form it is independent (the identity matrix on the dim-2 algebra
    with e0.e1 = e1 is invariant yet fails it).  With strict_skew,
    B(x,y) + B(y,x) = 0 is also required.
    """
    table = as_table(alg)
    n = table.dim
    if (b.rows, b.cols) != (n, n):
        raise ValueError(f"form matrix must be {n}x{n}, got {b.rows}x{b.cols}")
    violations = []
    if rank(b) != n:
        violations.append(Violation("form-degenerate", (), (b.field.zero(),)))
    if strict_skew:
        for i in range(n):
            for j in range(i, n):
                s = b.entries[i][j] + b.entries[j][i]
                if s:
                    violations.append(Violation(LAW_SKEW, (i, j), (s,)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                prod_jk = table.basis_product(j, k)
                prod_ik = table.basis_product(i, k)
                comm_ji = table.commutator_basis(j, i)
                acc = b.field.zero()
                for w in range(n):
                    acc = acc + prod_jk[w] * b.entries[i][w] - prod_ik[w] * b.entries[j][w]
                    acc = acc - comm_ji[w] * b.entries[w][k]
                if acc:
                    violations.append(Violation(LAW_FORM, (i, j, k), (acc,)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                prod_ij = table.basis_product(i, j)
                prod_kj = table.basis_product(k, j)
                comm_ki = table.commutator_basis(k, i)
                acc = b.field.zero()
                for w in range(n):
                    acc = acc + prod_ij[w] * b.entries[w][k]
                    acc = acc + comm_ki[w] * b.entries[j][w]
                    acc = acc + prod_kj[w] * b.entries[i][w]
                if acc:
                    violations.append(Violation(LAW_TRANSPORT, (i, j, k), (acc,)))
    return Report("bilinear-form", tuple(violations))


def form_sharp(b: Matrix) -> Matrix:
    """The matrix of x -> B(x, .) from A to A* in dual-basis coordinates."""
    return b.transpose()


def dendriform_from_bilinear_form(
    alg: AlgebraLike, b: Matrix, strict_skew: bool = False
) -> AntiLDendriform:
    """Solve B(x > y, z) = -B(y, [z, x]) and B(x < y, z) = B(y, z . x) for the
    two products; the form must be nondegenerate and invariant (refused
    otherwise).  Both products are unchanged if B is scaled."""
    table = as_table(alg)
    check_form_invariance(table, b, strict_skew=strict_skew).require(
        "bilinear form fails nondegeneracy or invariance"
    )
    n = table.dim
    field = table.field
    bt_inv = invert(b.transpose())
    right = [[None] * n for _ in range(n)]
    left = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rhs_r = []
            rhs_l = []
            for k in range(n):
                comm_ki = table.commutator_basis(k, i)
                prod_ki = table.basis_product(k, i)
                acc_r = field.zero()
                acc_l = field.zero()
                for w in range(n):
                    if comm_ki[w]:
                        acc_r = acc_r - comm_ki[w] * b.entries[j][w]
                    if prod_ki[w]:
                        acc_l = acc_l + prod_ki[w] * b.entries[j][w]
                rhs_r.append(acc_r)
                rhs_l.append(acc_l)
            right[i][j] = bt_inv.apply(tuple(rhs_r))
            left[i][j] = bt_inv.apply(tuple(rhs_l))
    d = AntiLDendriform(
        MultTable.from_entries(field, right), MultTable.from_entries(field, left)
    )
    verify_anti_L_dendriform(d)
    if associated_table(d).tensor != table.tensor:
        raise StructureError("form-derived structure is not compatible with the algebra product")
    return d
