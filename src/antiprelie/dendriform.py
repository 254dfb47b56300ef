"""Anti-L-dendriform algebras and the operator constructions that produce them.

An anti-L-dendriform algebra carries two products (written x > y and x < y
below) satisfying three coupled identities; x > y - y < x is then an
anti-pre-Lie product, and (L_>, -L_<) is a representation of it.  The module
also implements relation-solving operators T: V -> A with

    T(u) . T(v) = T(rho(T(u)) v + mu(T(v)) u),

the induced dendriform structure on V, the compatible structure on A obtained
from an invertible such operator, and the construction from a nondegenerate
invariant bilinear form.  Both constructions on A are linalg._transport
calls (an action along (Id, T^{-1}, +-T), the form along (Id, B^T,
-+(B^T)^{-1})), and x > y - y < x is one algebra._commutators difference.

The three identities are residuals at basis triples, stated as terms for
the kernel algebra._support_walk over the nonzero structure constants of the
two tables and of their associated product, on the ints of
algebra._law_views (over Q all three scaled by one common denominator, over
F_p their residues).  Both pairing identities of a form are terms for the
same kernel, on the ints of the table and the form.  The operator relation is
summed over the nonzero entries of T, the table and the actions, on their
ints from one linalg._integral_views call (degree 3 in them, the induced
products degree 2), so no function here asks which field it has.  An
operator, form or representation over another field than the table's is
refused.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from .algebra import (
    AntiPreLieAlgebra,
    MultTable,
    Report,
    StructureError,
    Violation,
    _by_first,
    _by_second,
    _commutators,
    _entries,
    _law_views,
    _support_walk,
)
from .fields import Field, _record, _require_field
from .linalg import Matrix, Tensor3, _columns, _integral_views, _transport, _transpose, _units, invert, rank
from .representation import AlgebraLike, Representation, _require_pair, as_table

LAW_D1 = "dendriform-1"
LAW_D2 = "dendriform-2"
LAW_D3 = "dendriform-3"


@_record()
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


def check_anti_L_dendriform(d: AntiLDendriform) -> Report:
    """Verify the three identities on all basis triples (e_i, e_j, e_k), with
    exact residuals, where x o y = x > y - y < x is the associated product:

        D1 = e_i>(e_j>e_k) - e_j>(e_i>e_k) + [e_i,e_j]o > e_k
        D2 = e_i>(e_j<e_k) - (e_i o e_j)<e_k + e_j<(e_i>e_k) + e_j<(e_i<e_k)
        D3 = e_j<(e_i<e_k) + e_j<(e_i>e_k) + [e_i,e_j]o > e_k
             - e_i<(e_j>e_k) - e_i<(e_j<e_k)
    """
    views, nonzero, scalar = _law_views([d.right, d.left, associated_table(d)])
    (r_prods, _, r_left, r_right), (l_prods, _, l_left, l_right), (o_prods, o_comms, _, _) = views
    terms = [
        (0, 1, r_prods, r_left, "zpq"), (0, -1, r_prods, r_left, "pzq"),
        (0, 1, o_comms, r_right, "pqz"),
        (1, 1, l_prods, r_left, "zpq"), (1, -1, o_prods, l_right, "pqz"),
        (1, 1, r_prods, l_left, "pzq"), (1, 1, l_prods, l_left, "pzq"),
        (2, 1, l_prods, l_left, "pzq"), (2, 1, r_prods, l_left, "pzq"),
        (2, 1, o_comms, r_right, "pqz"), (2, -1, r_prods, l_left, "zpq"),
        (2, -1, l_prods, l_left, "zpq"),
    ]
    return Report("anti-L-dendriform", _support_walk(
        terms, (LAW_D1, LAW_D2, LAW_D3), (), nonzero, scalar, (d.dim,) * 3, d.dim))


def is_anti_L_dendriform(d: AntiLDendriform) -> bool:
    return check_anti_L_dendriform(d).ok


def verify_anti_L_dendriform(d: AntiLDendriform) -> AntiLDendriform:
    check_anti_L_dendriform(d).require(
        "not an anti-L-dendriform structure: {count} violated triples"
    )
    return d


def associated_table(d: AntiLDendriform) -> MultTable:
    """The table of x . y = x > y - y < x, with no verification."""
    return MultTable(Tensor3(d.field, d.right.tensor.dims,
                             _commutators(d.right.tensor.fibers, d.left.tensor.fibers, d.field.one())))


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
    return Representation(d.dim, d.dim, rho, mu, d.field)


LAW_O = "o-operator"


def _induced(rows_t: tuple, rho: tuple, mu: tuple, m: int) -> Iterator[list]:
    """u > v = rho(T u) v, then u < v = -mu(T u) v, on the basis of V as [a][b]
    fibers {w: int}, from the int views of T's rows and the actions' rows
    (linalg._integral_views): (v_a > v_b)_w is the sum over s of
    T[s][a] rho(e_s)[w][b], over the stored rows of T and the actions."""
    for mats, sign in ((rho, 1), (mu, -1)):
        fibers = [[{} for _ in range(m)] for _ in range(m)]
        for row_t, mat in zip(rows_t, mats):
            coeffs = [(fibers[a], sign * c) for a, c in row_t.items()]
            for w, row in enumerate(mat):
                for b, x in row.items():
                    for line, c in coeffs:
                        line[b][w] = line[b].get(w, 0) + c * x
        yield fibers


def check_O_operator(alg: AlgebraLike, rep: Representation, t: Matrix) -> Report:
    """T(u) . T(v) = T(rho(T(u)) v + mu(T(v)) u) on all basis pairs of V: the
    residual T(v_a) . T(v_b) - T(v_a o v_b) at (a, b), with o the associated
    product v_a > v_b - v_b < v_a of the induced structure.  It is summed on
    the ints of linalg._integral_views, homogeneous of degree 3 in them."""
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    _require_pair(table, rep)
    if (t.rows, t.cols) != (n, m):
        raise ValueError(f"operator matrix must be {n}x{m}, got {t.rows}x{t.cols}")
    _require_field("operator", t.field, table.field)
    rho, mu = rep.sparse
    (prod, rho, mu, (rows_t,)), nonzero, scalar = _integral_views(
        table.field, table.tensor.fibers, rho, mu, (t.nonzero,), degree=3)
    cols = _transpose(rows_t, m)
    assoc = _commutators(*_induced(rows_t, rho, mu, m), 1)
    violations = []
    for a, b in product(range(m), repeat=2):
        res = [0] * n
        for w, u in assoc[a][b].items():
            for z, x in cols[w].items():
                res[z] -= x * u
        for p, x in cols[a].items():
            for q, y in cols[b].items():
                for z, c in prod[p][q].items():
                    res[z] += x * y * c
        if any(map(nonzero, res)):
            violations.append(Violation(LAW_O, (a, b), tuple(map(scalar, res))))
    return Report("o-operator", tuple(violations))


def is_O_operator(alg: AlgebraLike, rep: Representation, t: Matrix) -> bool:
    return check_O_operator(alg, rep, t).ok


def induced_dendriform(alg: AlgebraLike, rep: Representation, t: Matrix) -> AntiLDendriform:
    """The structure on V with u > v = rho(T(u)) v and u < v = -mu(T(u)) v.

    Refuses matrices that fail the operator relation.  The result passes the
    dendriform check, T is a morphism from its associated product to the
    algebra, and T(V) is closed under the algebra product (all asserted by
    the test suite; the first is asserted here).
    """
    table = as_table(alg)
    check_O_operator(table, rep, t).require("matrix is not an O-operator")
    (rho, mu, (rows_t,)), _, scalar = _integral_views(table.field, *rep.sparse, (t.nonzero,))
    grids = ([[{w: scalar(x) for w, x in f.items()} for f in line] for line in g]
             for g in _induced(rows_t, rho, mu, rep.dim_v))
    return verify_anti_L_dendriform(AntiLDendriform(*(MultTable(Tensor3(table.field, (rep.dim_v,) * 3, g))
                                                      for g in grids)))


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
    # Each action, read as the bilinear map (x, v) -> rho(x) v, moved along (Id, T^{-1}, +-T).
    d = AntiLDendriform(*(MultTable(Tensor3(table.field, table.tensor.dims, _transport(
        [_columns(a) for a in mats], _units(table.dim), _columns(t_inv), _columns(out))))
        for mats, out in ((rep.rho, t), (rep.mu, -t))))
    verify_anti_L_dendriform(d)
    if associated_table(d).tensor != table.tensor:
        raise StructureError("transported structure is not compatible with the algebra product")
    return d


LAW_FORM = "form-invariance"
LAW_TRANSPORT = "form-transport"
LAW_SKEW = "form-skew"
LAW_DEGENERATE = "form-degenerate"


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
    _require_field("form", b.field, table.field)
    violations, z, rows = [], b.field.zero(), b.nonzero
    if rank(b) != n:
        violations.append(Violation(LAW_DEGENERATE, (), (z,)))
    if strict_skew:
        for i in range(n):
            for j in range(i, n):
                s = rows[i].get(j, z) + rows[j].get(i, z)
                if s:
                    violations.append(Violation(LAW_SKEW, (i, j), (s,)))
    # Each law is walked on its own over the ints of the table and of B:
    # B(e_i, e_j.e_k) - B(e_j, e_i.e_k) - B([e_j, e_i], e_k) and
    # B(e_i.e_j, e_k) + B(e_j, [e_k, e_i]) + B(e_i, e_k.e_j).
    form = tuple(tuple({0: row[j]} if j in row else {} for j in range(n)) for row in rows)
    (prod, form), nonzero, scalar = _integral_views(table.field, table.tensor.fibers, form)
    prods, comms = _entries(prod), _entries(_commutators(prod, prod, 1))
    left, right = _by_second(form, n), _by_first(form)
    for law, terms in (
        (LAW_FORM, [(0, 1, prods, left, "zpq"), (0, -1, prods, left, "pzq"),
                    (0, -1, comms, right, "qpz")]),
        (LAW_TRANSPORT, [(0, 1, prods, right, "pqz"), (0, 1, comms, left, "qzp"),
                         (0, 1, prods, left, "zqp")]),
    ):
        violations.extend(_support_walk(terms, (law,), (), nonzero, scalar, (n,) * 3, 1))
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
    n, bt, (rows, comm) = table.dim, b.transpose(), table.sparse
    bt_inv = invert(bt)
    # B(e_j, w(e_z, e_i)) over z is R[i][k] = {z: w(e_z, e_i)_k} moved along (Id, B^T),
    # with w the bracket for > and the product for <; then out is -(B^T)^{-1} or (B^T)^{-1}.
    d = AntiLDendriform(*(MultTable(Tensor3(table.field, table.tensor.dims, _transport(
        [_transpose(column, n) for column in zip(*w)], _units(n), _columns(bt), _columns(out))))
        for w, out in ((comm, -bt_inv), (rows, bt_inv))))
    verify_anti_L_dendriform(d)
    if associated_table(d).tensor != table.tensor:
        raise StructureError("form-derived structure is not compatible with the algebra product")
    return d
