"""Second cohomology of an anti-pre-Lie algebra with representation coefficients.

1-cochains are linear maps A -> V (m x n matrices); 2-cochains are arbitrary
bilinear maps A (x) A -> V stored as (n, n, m) coefficient tensors.  No
skew-symmetry is imposed on 2-cochains: the extension cocycles and deformation
terms this module feeds are generally non-alternating.

The coboundary of a 1-cochain f is

    (d1 f)(x, y) = rho(x) f(y) + mu(y) f(x) - f(x.y),

and a 2-cochain f has a pair of degree-3 coboundary components

    (d2_1 f)(x, y, z) = rho(x) f(y,z) - rho(y) f(x,z) - mu(z) f(y,x)
                        + mu(z) f(x,y) - f(y, x.z) + f(x, y.z) + f([x,y], z)
    (d2_2 f)(x, y, z) = mu(x)(f(y,z) - f(z,y)) + mu(y)(f(z,x) - f(x,z))
                        + mu(z)(f(x,y) - f(y,x))
                        + f([x,y], z) + f([y,z], x) + f([z,x], y).

Z2 is the joint kernel, B2 the image of d1, and H2 = Z2/B2.  The spaces are
computed from a direct matrix linearization of the operators over the n^2 m
coordinates of C1 and C2.  The rows of d1 and of d2 are each assembled by one
routine, from the nonzero structure constants and action entries only.  Z2 is
eliminated straight from the sparse d2 rows and is_cocycle applies them to a
cochain one row at a time; d1_matrix and d2_matrix are the dense views of the
same rows.  The pointwise evaluation of d2 on all basis triples lives in the
test suite, as the independent oracle for that linearization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .algebra import AntiPreLieAlgebra, MultTable, StructureError
from .fields import Field
from .linalg import Matrix, Tensor3, Vec, _kernel, pivot_columns, solve, vec_sub
from .representation import AlgebraLike, Representation, as_table


@dataclass(frozen=True)
class Cochain2:
    """A bilinear map A (x) A -> V; t[i][j][k] = coefficient of v_k in f(e_i, e_j)."""

    tensor: Tensor3  # dims (n, n, m)

    @property
    def dim_a(self) -> int:
        return self.tensor.dims[0]

    @property
    def dim_v(self) -> int:
        return self.tensor.dims[2]

    @property
    def field(self) -> Field:
        return self.tensor.field

    @staticmethod
    def zero(field: Field, n: int, m: int) -> "Cochain2":
        return Cochain2(Tensor3.zero(field, n, n, m))

    @staticmethod
    def from_table(table: MultTable) -> "Cochain2":
        """Reinterpret a multiplication table as a 2-cochain with V = A."""
        return Cochain2(table.tensor)

    def as_table(self) -> MultTable:
        if self.dim_a != self.dim_v:
            raise ValueError("only square (V = A) 2-cochains can be read as tables")
        return MultTable(self.tensor)

    def value(self, i: int, j: int) -> Vec:
        return self.tensor.fiber(i, j)

    def __add__(self, other: "Cochain2") -> "Cochain2":
        return Cochain2(self.tensor + other.tensor)

    def __sub__(self, other: "Cochain2") -> "Cochain2":
        return Cochain2(self.tensor - other.tensor)

    def is_zero(self) -> bool:
        return self.tensor.is_zero()


def d1(alg: AlgebraLike, rep: Representation, f: Matrix) -> Cochain2:
    """Pointwise coboundary of a 1-cochain f (an m x n matrix)."""
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    if (f.rows, f.cols) != (m, n):
        raise ValueError(f"1-cochain must be {m}x{n}, got {f.rows}x{f.cols}")
    ent = [
        [
            vec_sub(
                tuple(
                    a + b
                    for a, b in zip(rep.rho[i].apply(f.col(j)), rep.mu[j].apply(f.col(i)))
                ),
                f.apply(table.basis_product(i, j)),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    return Cochain2(Tensor3.from_entries(table.field, ent))


def cochain1_to_vec(f: Matrix) -> Vec:
    """The C1 vectorization: F[l][i] (component l of F(e_i)) at coordinate l n + i."""
    return tuple(x for row in f.entries for x in row)


def cochain1_from_vec(field: Field, n: int, m: int, v: Vec) -> Matrix:
    return Matrix(field, m, n, tuple(tuple(v[l * n + i] for i in range(n)) for l in range(m)))


def cochain2_to_vec(f: Cochain2) -> Vec:
    """The C2 vectorization, lexicographic: t[i][j][k] at coordinate (i n + j) m + k."""
    return tuple(x for plane in f.tensor.entries for fiber in plane for x in fiber)


def cochain2_from_vec(field: Field, n: int, m: int, v: Vec) -> Cochain2:
    ent = tuple(
        tuple(tuple(v[(i * n + j) * m + k] for k in range(m)) for j in range(n))
        for i in range(n)
    )
    return Cochain2(Tensor3(field, (n, n, m), ent))


def _dense(field: Field, rows, ncols: int) -> Matrix:
    """The matrix of sparse {column: value} rows, with the field zero elsewhere."""
    z = field.zero()
    out = []
    for r in rows:
        dense = [z] * ncols
        for idx, x in r.items():
            dense[idx] = x
        out.append(tuple(dense))
    return Matrix.from_rows(field, out, ncols)


def _d1_rows(table: MultTable, rep: Representation) -> Iterator[dict]:
    """The rows of the d1 linearization in order, each as {C1 coordinate: value}.

    Row (i n + j) m + l, the C2 coordinate of t[i][j][l], is component l of
    (d1 F)(e_i, e_j): row l of rho(e_i) placed at the C1 coordinates of
    F(e_j) (base j, stride n, as F[l'][j] sits at l' n + j), row l of mu(e_j)
    at those of F(e_i), and minus e_i . e_j at those of component l of F
    (base l n, stride 1).
    """
    n, m = table.dim, rep.dim_v
    prod = table.sparse[0]
    rho, mu = rep.sparse
    for i in range(n):
        for j in range(n):
            for l in range(m):
                r = {}
                _add_at(r, j, n, rho[i][l])
                _add_at(r, i, n, mu[j][l])
                _add_at(r, l * n, 1, prod[i][j], negate=True)
                yield r


def d1_matrix(alg: AlgebraLike, rep: Representation) -> Matrix:
    """Linearization of d1 as an (n^2 m) x (n m) matrix over C1 coordinates.

    Assembled directly from structure constants and action entries, not by
    evaluating d1 on basis cochains, so it can serve as the second route in
    the oracle-equivalence tests.
    """
    table = as_table(alg)
    return _dense(table.field, _d1_rows(table, rep), table.dim * rep.dim_v)


def _add_at(row: dict, base: int, stride: int, coeffs: dict, negate: bool = False) -> None:
    """row[base + stride * k] += coeffs[k] for every k (-= with negate), in place."""
    for k, x in coeffs.items():
        idx = base + stride * k
        if negate:
            x = -x
        v = row.get(idx)
        row[idx] = x if v is None else v + x


def _d2_rows(table: MultTable, rep: Representation) -> Iterator[dict]:
    """The rows of the d2 linearization in order, each as {C2 coordinate: value}.

    Row ((a n + b) n + c) m + l of the first n^3 m is component l of
    (d2_1 f)(e_a, e_b, e_c), the next n^3 m rows are d2_2 in the same order.
    Each term of the formulas in the module docstring adds one sparse fiber
    {k: x} at the C2 coordinates base + stride * k: row l of an action
    matrix, with k the V index of f(e_p, e_q) (stride 1), or a product or
    bracket, with k the basis index w of f(e_p, e_w) (stride m) or of
    f(e_w, e_q) (stride n m).  Only nonzero fibers are visited; an entry that
    cancels stays as a zero, which cohomology_spaces drops before elimination.
    """
    n, m = table.dim, rep.dim_v
    prod, _, comm = table.sparse
    rho, mu = rep.sparse
    nm = n * m

    # Terms at (a, b, c): (action matrix rows, base, negate) for rows[l], and
    # (product or bracket fiber, base, stride, negate), placed at base + l.
    def first(a, b, c):
        return (
            ((rho[a], (b * n + c) * m, False), (rho[b], (a * n + c) * m, True),
             (mu[c], (b * n + a) * m, True), (mu[c], (a * n + b) * m, False)),
            ((prod[a][c], b * nm, m, True), (prod[b][c], a * nm, m, False),
             (comm[a][b], c * m, nm, False)),
        )

    def second(a, b, c):
        return (
            ((mu[a], (b * n + c) * m, False), (mu[a], (c * n + b) * m, True),
             (mu[b], (c * n + a) * m, False), (mu[b], (a * n + c) * m, True),
             (mu[c], (a * n + b) * m, False), (mu[c], (b * n + a) * m, True)),
            ((comm[a][b], c * m, nm, False), (comm[b][c], a * m, nm, False),
             (comm[c][a], b * m, nm, False)),
        )

    for component in (first, second):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    actions, products = component(a, b, c)
                    products = [t for t in products if t[0]]
                    for l in range(m):
                        r = {}
                        for rows, base, negate in actions:
                            if rows[l]:
                                _add_at(r, base, 1, rows[l], negate)
                        for fiber, base, stride, negate in products:
                            _add_at(r, base + l, stride, fiber, negate)
                        yield r


def d2_matrix(alg: AlgebraLike, rep: Representation) -> Matrix:
    """Linearization of both d2 components as a (2 n^3 m) x (n^2 m) matrix."""
    table = as_table(alg)
    return _dense(table.field, _d2_rows(table, rep), table.dim ** 2 * rep.dim_v)


@dataclass(frozen=True)
class CohomologySpaces:
    """Bases of Z2 and B2 plus a deterministic set of H2 representatives."""

    z2_basis: tuple  # tuple[Cochain2, ...]
    b2_basis: tuple
    h2_dim: int
    h2_representatives: tuple

    @property
    def z2_dim(self) -> int:
        return len(self.z2_basis)

    @property
    def b2_dim(self) -> int:
        return len(self.b2_basis)


def cohomology_spaces(alg: AntiPreLieAlgebra, rep: Representation) -> CohomologySpaces:
    """Z2 as the kernel of the d2 linearization (eliminated from its sparse
    rows, never written out dense), B2 as the column space of d1,
    and H2 representatives chosen by greedily extending the B2 basis along the
    deterministic Z2 kernel basis (lexicographic coordinate order).

    The representatives and the check that B2 lies inside Z2 both come from
    one elimination of the column block [B2 | Z2].  Its pivot columns are the
    lexicographically first independent columns: B2 is independent, so it is
    all pivots, and a Z2 vector is a pivot exactly when it lies outside the
    span of B2 and the Z2 vectors before it, which is the greedy choice, in
    the same order.  Z2 is independent too, so the block has exactly len(Z2)
    pivots if and only if B2 lies inside Z2.
    """
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    field = table.field
    d2_rows = ({j: x for j, x in r.items() if x} for r in _d2_rows(table, rep))
    z2_vecs = _kernel(field, d2_rows, n * n * m)
    dd1 = d1_matrix(table, rep)
    b2_vecs = [dd1.col(c) for c in pivot_columns(dd1)]
    pivots = pivot_columns(Matrix.from_cols(field, b2_vecs + z2_vecs, rows=n * n * m))
    if len(pivots) != len(z2_vecs):
        raise StructureError("a coboundary fell outside Z2; (alg, rep) was not verified")
    reps = [z2_vecs[c - len(b2_vecs)] for c in pivots[len(b2_vecs):]]
    mk = lambda v: cochain2_from_vec(field, n, m, v)
    return CohomologySpaces(
        tuple(mk(v) for v in z2_vecs),
        tuple(mk(v) for v in b2_vecs),
        len(reps),
        tuple(mk(v) for v in reps),
    )


def is_cocycle(alg: AlgebraLike, rep: Representation, f: Cochain2) -> bool:
    """Whether d2 f = 0: the rows of d2 applied to f, stopping at the first
    nonzero component."""
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    if (f.dim_a, f.dim_v) != (n, m):
        raise ValueError(f"2-cochain dims {(f.dim_a, f.dim_v)} do not match ({n}, {m})")
    v = cochain2_to_vec(f)
    zero = table.field.zero()
    for r in _d2_rows(table, rep):
        acc = zero
        for idx, x in r.items():
            y = v[idx]
            if y:
                acc = acc + x * y
        if acc:
            return False
    return True


def cohomologous(
    alg: AlgebraLike, rep: Representation, f: Cochain2, g: Cochain2
) -> Optional[Matrix]:
    """A 1-cochain phi with f - g = d1(phi), or None when none exists."""
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    diff = cochain2_to_vec(f - g)
    x = solve(d1_matrix(table, rep), diff)
    if x is None:
        return None
    return cochain1_from_vec(table.field, n, m, x)
