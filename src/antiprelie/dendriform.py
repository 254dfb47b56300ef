"""Anti-L-dendriform algebras and the operator constructions that produce them.

An anti-L-dendriform algebra carries two products (written x > y and x < y
below) satisfying three coupled identities; x > y - y < x is then an
anti-pre-Lie product, and (L_>, -L_<) is a representation of it.  The module
also implements relation-solving operators T: V -> A with

    T(u) . T(v) = T(rho(T(u)) v + mu(T(v)) u),

the induced dendriform structure on V, the compatible structure on A obtained
from an invertible such operator, and the construction from a nondegenerate
invariant bilinear form.

The three identities are residuals at basis triples, walked by
algebra._law_violations; each term is one sparse product (linalg._accumulate)
of the cached nonzero structure constants of the two tables and of their
associated product.  The operator relation is checked through the induced
structure, and both pairing identities of a form are sums over nonzero
structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .algebra import (
    AntiPreLieAlgebra,
    MultTable,
    Report,
    StructureError,
    Violation,
    _law_violations,
)
from .fields import Field
from .linalg import Matrix, _accumulate, invert, rank, vec_is_zero, vec_sub
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
    """The three identities at each basis triple (e_i, e_j, e_k), with
    x o y = x > y - y < x the associated product:

        D1 = e_i>(e_j>e_k) - e_j>(e_i>e_k) + [e_i,e_j]o > e_k
        D2 = e_i>(e_j<e_k) - (e_i o e_j)<e_k + e_j<(e_i>e_k) + e_j<(e_i<e_k)
        D3 = e_j<(e_i<e_k) + e_j<(e_i>e_k) + [e_i,e_j]o > e_k
             - e_i<(e_j>e_k) - e_i<(e_j<e_k)
    """
    r_rows, r_cols, _ = d.right.sparse
    l_rows, l_cols, _ = d.left.sparse
    o_rows, _, o_comm = associated_table(d).sparse

    def residuals(i, j, k):
        d1, d2, d3 = {}, {}, {}
        _accumulate(d1, r_rows[j][k], r_rows[i])
        _accumulate(d1, r_rows[i][k], r_rows[j], negate=True)
        _accumulate(d1, o_comm[i][j], r_cols[k])
        _accumulate(d2, l_rows[j][k], r_rows[i])
        _accumulate(d2, o_rows[i][j], l_cols[k], negate=True)
        _accumulate(d2, r_rows[i][k], l_rows[j])
        _accumulate(d2, l_rows[i][k], l_rows[j])
        _accumulate(d3, l_rows[i][k], l_rows[j])
        _accumulate(d3, r_rows[i][k], l_rows[j])
        _accumulate(d3, o_comm[i][j], r_cols[k])
        _accumulate(d3, r_rows[j][k], l_rows[i], negate=True)
        _accumulate(d3, l_rows[j][k], l_rows[i], negate=True)
        return d1, d2, d3

    return _law_violations(residuals, (), (LAW_D1, LAW_D2, LAW_D3), d.dim, d.field.zero())


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


def _induced(table: MultTable, rep: Representation, t: Matrix) -> AntiLDendriform:
    """The products u > v = rho(T u) v and u < v = -mu(T u) v on the basis of
    V, summed over the nonzero action entries: (v_a > v_b)_w is the sum over
    s of T[s][a] rho(e_s)[w][b]."""
    n, m = table.dim, rep.dim_v
    if rep.dim_a != n:
        raise ValueError(f"representation is over a dim-{rep.dim_a} algebra, table has dim {n}")
    if (t.rows, t.cols) != (n, m):
        raise ValueError(f"operator matrix must be {n}x{m}, got {t.rows}x{t.cols}")
    field = table.field
    zero, one = field.zero(), field.one()
    tables = []
    for mats, sign in zip(rep.sparse, (one, -one)):
        ent = [[[zero] * m for _ in range(m)] for _ in range(m)]
        for s, mat in enumerate(mats):
            coeffs = [(a, sign * c) for a, c in enumerate(t.entries[s]) if c]
            for w, row in enumerate(mat):
                for b, x in row.items():
                    for a, c in coeffs:
                        ent[a][b][w] = ent[a][b][w] + c * x
        tables.append(MultTable.from_entries(field, ent))
    return AntiLDendriform(*tables)


def _o_operator_violations(table: MultTable, rep: Representation, t: Matrix) -> Iterator[Violation]:
    """T(v_a) . T(v_b) - T(v_a o v_b) on basis pairs of V, with o the
    associated product of the induced structure: v_a o v_b is
    rho(T v_a) v_b + mu(T v_b) v_a."""
    assoc = associated_table(_induced(table, rep, t))
    tcols = [t.col(a) for a in range(rep.dim_v)]
    for a, b in product(range(rep.dim_v), repeat=2):
        res = vec_sub(table.multiply(tcols[a], tcols[b]), t.apply(assoc.basis_product(a, b)))
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
    return verify_anti_L_dendriform(_induced(table, rep, t))


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


def _pair(fiber: dict, row, zero):
    """B(x, e_r) for the sparse fiber x and row r of B^T, or B(e_r, x) for
    row r of B: the sum of fiber[w] * row[w] over the nonzero coefficients."""
    return sum((c * row[w] for w, c in fiber.items()), zero)


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
    rows, _, comm = table.sparse
    be, bt = b.entries, b.transpose().entries
    zero = b.field.zero()
    laws = (
        (LAW_FORM, lambda i, j, k: _pair(rows[j][k], be[i], zero) - _pair(rows[i][k], be[j], zero)
         - _pair(comm[j][i], bt[k], zero)),
        (LAW_TRANSPORT, lambda i, j, k: _pair(rows[i][j], bt[k], zero)
         + _pair(comm[k][i], be[j], zero) + _pair(rows[k][j], be[i], zero)),
    )
    for law, residual in laws:
        for i, j, k in product(range(n), repeat=3):
            acc = residual(i, j, k)
            if acc:
                violations.append(Violation(law, (i, j, k), (acc,)))
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
    rows, _, comm = table.sparse
    zero = field.zero()
    # Row j of B against e_k . e_i and [e_k, e_i]: B(y, z . x) and -B(y, [z, x]).
    right = [[bt_inv.apply(tuple(-_pair(comm[k][i], b.entries[j], zero) for k in range(n)))
              for j in range(n)] for i in range(n)]
    left = [[bt_inv.apply(tuple(_pair(rows[k][i], b.entries[j], zero) for k in range(n)))
             for j in range(n)] for i in range(n)]
    d = AntiLDendriform(
        MultTable.from_entries(field, right), MultTable.from_entries(field, left)
    )
    verify_anti_L_dendriform(d)
    if associated_table(d).tensor != table.tensor:
        raise StructureError("form-derived structure is not compatible with the algebra product")
    return d
