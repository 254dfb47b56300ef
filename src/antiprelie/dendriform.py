"""Anti-L-dendriform algebras and the operator constructions that produce them.

An anti-L-dendriform algebra carries two products (written x > y and x < y
below) satisfying three coupled identities; x > y - y < x is then an
anti-pre-Lie product, and (L_>, -L_<) is a representation of it.  The module
also implements relation-solving operators T: V -> A with

    T(u) . T(v) = T(rho(T(u)) v + mu(T(v)) u),

the induced dendriform structure on V, the compatible structure on A obtained
from an invertible such operator, and the construction from a nondegenerate
invariant bilinear form.

The three identities are residuals at basis triples, stated as terms for
the kernel algebra._support_walk over the nonzero structure constants of the
two tables and of their associated product, on the ints of
algebra._law_views (over Q all three scaled by one common denominator, over
F_p their residues).  Both pairing identities of a form are terms for the
same kernel, on the ints of the table and the form.  The operator relation is
summed over the nonzero entries of T, the table and the actions, in Fractions
over Q and ints over F_p.  An operator, form or representation over another
field than the table's is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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
from .fields import Field, Rationals, _require_field
from .linalg import Matrix, _apply_rows, _integral_views, invert, rank, vec_sub
from .representation import AlgebraLike, Representation, _require_pair, as_table

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
    return Representation(d.dim, d.dim, rho, mu, d.field)


LAW_O = "o-operator"


def _numbers(field: Field) -> tuple:
    """(num, nonzero, scalar) for sums on plain numbers: the Fractions
    themselves over Q, unreduced ints over F_p, tested and reduced mod p."""
    if isinstance(field, Rationals):
        return (lambda x: x), bool, Fraction
    return (lambda x: x.value), field.p.__rmod__, field.of_int


def _induced(rep: Representation, tm: list, num) -> tuple:
    """u > v = rho(T u) v and u < v = -mu(T u) v on the basis of V as [a][b][w]
    arrays, from tm, the entries of T as num makes them: (v_a > v_b)_w is the
    sum over s of T[s][a] rho(e_s)[w][b], over the nonzero action entries."""
    m = rep.dim_v
    out = []
    for mats, sign in zip(rep.sparse, (1, -1)):
        ent = [[[0] * m for _ in range(m)] for _ in range(m)]
        for s, mat in enumerate(mats):
            coeffs = [(a, sign * c) for a, c in enumerate(tm[s]) if c]
            for w, row in enumerate(mat):
                for b, x in row.items():
                    x = num(x)
                    for a, c in coeffs:
                        ent[a][b][w] += c * x
        out.append(ent)
    return tuple(out)


def check_O_operator(alg: AlgebraLike, rep: Representation, t: Matrix) -> Report:
    """T(u) . T(v) = T(rho(T(u)) v + mu(T(v)) u) on all basis pairs of V: the
    residual T(v_a) . T(v_b) - T(v_a o v_b) at (a, b), with o the associated
    product v_a > v_b - v_b < v_a of the induced structure, summed on
    Fractions over Q and on unreduced ints over F_p."""
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    _require_pair(table, rep)
    if (t.rows, t.cols) != (n, m):
        raise ValueError(f"operator matrix must be {n}x{m}, got {t.rows}x{t.cols}")
    _require_field("operator", t.field, table.field)
    num, nonzero, scalar = _numbers(table.field)
    tm = [[num(x) for x in row] for row in t.entries]
    right, left = _induced(rep, tm, num)
    cols = [[(s, row[a]) for s, row in enumerate(tm) if row[a]] for a in range(m)]
    rows = [[{z: num(c) for z, c in f.items()} for f in line] for line in table.sparse_rows]
    violations = []
    for a, b in product(range(m), repeat=2):
        o = [x - y for x, y in zip(right[a][b], left[b][a])]
        res = [-sum(tm[z][w] * u for w, u in enumerate(o) if u) for z in range(n)]
        for p, x in cols[a]:
            for q, y in cols[b]:
                for z, c in rows[p][q].items():
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
    num, _, scalar = _numbers(table.field)
    products = _induced(rep, [[num(x) for x in row] for row in t.entries], num)
    return verify_anti_L_dendriform(AntiLDendriform(*(MultTable.from_entries(
        table.field, [[map(scalar, f) for f in line] for line in ent]) for ent in products)))


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
    violations = []
    if rank(b) != n:
        violations.append(Violation(LAW_DEGENERATE, (), (b.field.zero(),)))
    if strict_skew:
        for i in range(n):
            for j in range(i, n):
                s = b.entries[i][j] + b.entries[j][i]
                if s:
                    violations.append(Violation(LAW_SKEW, (i, j), (s,)))
    # Each law is walked on its own over the ints of the table and of B:
    # B(e_i, e_j.e_k) - B(e_j, e_i.e_k) - B([e_j, e_i], e_k) and
    # B(e_i.e_j, e_k) + B(e_j, [e_k, e_i]) + B(e_i, e_k.e_j).
    form = tuple(tuple({0: x} if x else {} for x in row) for row in b.entries)
    (prod, form), nonzero, scalar = _integral_views(table.field, table.sparse_rows, form)
    prods, comms = _entries(prod), _entries(_commutators(prod, 1))
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
    n = table.dim
    field = table.field
    bt_inv = invert(b.transpose())
    rows, comm = table.sparse
    zero = field.zero()
    # Row j of B against e_k . e_i and [e_k, e_i]: B(y, z . x) and -B(y, [z, x]).
    right = [[bt_inv.apply(tuple(-x for x in _apply_rows([comm[k][i] for k in range(n)],
                                                         b.entries[j], zero)))
              for j in range(n)] for i in range(n)]
    left = [[bt_inv.apply(tuple(_apply_rows([rows[k][i] for k in range(n)], b.entries[j], zero)))
             for j in range(n)] for i in range(n)]
    d = AntiLDendriform(
        MultTable.from_entries(field, right), MultTable.from_entries(field, left)
    )
    verify_anti_L_dendriform(d)
    if associated_table(d).tensor != table.tensor:
        raise StructureError("form-derived structure is not compatible with the algebra product")
    return d
