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
coordinates of C2; the pointwise evaluators above serve as an independent
oracle for that linearization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import AntiPreLieAlgebra, MultTable, StructureError
from .fields import Field
from .linalg import Matrix, Tensor3, Vec, basis_vec, kernel_basis, pivot_columns, solve, vec_sub
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


@dataclass(frozen=True)
class Cochain3Pair:
    """Values of the two degree-3 coboundary components on all basis triples.

    comp1[a][b][c] and comp2[a][b][c] are vectors in V.  The first component
    is antisymmetric in (a, b); the second is alternating in (a, b, c); both
    are re-checked on every evaluation as an evaluator self-test.
    """

    dim_a: int
    dim_v: int
    comp1: tuple  # [a][b][c] -> Vec
    comp2: tuple

    def is_zero(self) -> bool:
        return not any(
            any(self.comp1[a][b][c]) or any(self.comp2[a][b][c])
            for a in range(self.dim_a)
            for b in range(self.dim_a)
            for c in range(self.dim_a)
        )


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


def _vadd(*vs: Vec) -> Vec:
    out = vs[0]
    for v in vs[1:]:
        out = tuple(a + b for a, b in zip(out, v))
    return out


def d2(alg: AlgebraLike, rep: Representation, f: Cochain2) -> Cochain3Pair:
    """Pointwise degree-3 coboundary pair of a 2-cochain, on all basis triples."""
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    if (f.dim_a, f.dim_v) != (n, m):
        raise ValueError(f"2-cochain dims {(f.dim_a, f.dim_v)} do not match ({n}, {m})")
    rho, mu = rep.rho, rep.mu
    comm = [[table.commutator_basis(i, j) for j in range(n)] for i in range(n)]
    prod = [[table.basis_product(i, j) for j in range(n)] for i in range(n)]
    e = [basis_vec(table.field, n, i) for i in range(n)]
    f_of = f.tensor.contract
    c1 = []
    c2 = []
    for a in range(n):
        p1 = []
        p2 = []
        for b in range(n):
            q1 = []
            q2 = []
            for c in range(n):
                v1 = _vadd(
                    rho[a].apply(f.value(b, c)),
                    tuple(-x for x in rho[b].apply(f.value(a, c))),
                    tuple(-x for x in mu[c].apply(f.value(b, a))),
                    mu[c].apply(f.value(a, b)),
                    tuple(-x for x in f_of(e[b], prod[a][c])),
                    f_of(e[a], prod[b][c]),
                    f_of(comm[a][b], e[c]),
                )
                v2 = _vadd(
                    mu[a].apply(vec_sub(f.value(b, c), f.value(c, b))),
                    mu[b].apply(vec_sub(f.value(c, a), f.value(a, c))),
                    mu[c].apply(vec_sub(f.value(a, b), f.value(b, a))),
                    f_of(comm[a][b], e[c]),
                    f_of(comm[b][c], e[a]),
                    f_of(comm[c][a], e[b]),
                )
                q1.append(v1)
                q2.append(v2)
            p1.append(tuple(q1))
            p2.append(tuple(q2))
        c1.append(tuple(p1))
        c2.append(tuple(p2))
    pair = Cochain3Pair(n, m, tuple(c1), tuple(c2))
    _assert_symmetries(pair)
    return pair


def _assert_symmetries(pair: Cochain3Pair) -> None:
    n = pair.dim_a
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if any(x + y for x, y in zip(pair.comp1[a][b][c], pair.comp1[b][a][c])):
                    raise RuntimeError("d2 first component lost its (x,y) antisymmetry")
                if any(x + y for x, y in zip(pair.comp2[a][b][c], pair.comp2[b][a][c])):
                    raise RuntimeError("d2 second component lost its alternation")
                if any(
                    x - y for x, y in zip(pair.comp2[a][b][c], pair.comp2[b][c][a])
                ):
                    raise RuntimeError("d2 second component lost its cyclic symmetry")


def c1_index(n: int, l: int, i: int) -> int:
    """Flat coordinate of F[l][i] in the C1 vectorization."""
    return l * n + i


def c2_index(n: int, m: int, i: int, j: int, k: int) -> int:
    """Flat coordinate of t[i][j][k] in the C2 vectorization (lexicographic)."""
    return (i * n + j) * m + k


def cochain1_to_vec(f: Matrix) -> Vec:
    return tuple(x for row in f.entries for x in row)


def cochain1_from_vec(field: Field, n: int, m: int, v: Vec) -> Matrix:
    return Matrix(field, m, n, tuple(tuple(v[l * n + i] for i in range(n)) for l in range(m)))


def cochain2_to_vec(f: Cochain2) -> Vec:
    return tuple(x for plane in f.tensor.entries for fiber in plane for x in fiber)


def cochain2_from_vec(field: Field, n: int, m: int, v: Vec) -> Cochain2:
    ent = tuple(
        tuple(tuple(v[(i * n + j) * m + k] for k in range(m)) for j in range(n))
        for i in range(n)
    )
    return Cochain2(Tensor3(field, (n, n, m), ent))


def d1_matrix(alg: AlgebraLike, rep: Representation) -> Matrix:
    """Linearization of d1 as an (n^2 m) x (n m) matrix over C1 coordinates.

    Assembled directly from structure constants and action entries, not by
    evaluating d1 on basis cochains, so it can serve as the second route in
    the oracle-equivalence tests.
    """
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    field = table.field
    z = field.zero()
    rows = [[z] * (n * m) for _ in range(n * n * m)]
    for i in range(n):
        for j in range(n):
            prod = table.basis_product(i, j)
            for l in range(m):
                row = rows[c2_index(n, m, i, j, l)]
                for k in range(m):
                    rik = rep.rho[i].entries[l][k]
                    if rik:
                        row[c1_index(n, k, j)] = row[c1_index(n, k, j)] + rik
                    mjk = rep.mu[j].entries[l][k]
                    if mjk:
                        row[c1_index(n, k, i)] = row[c1_index(n, k, i)] + mjk
                for w in range(n):
                    if prod[w]:
                        row[c1_index(n, l, w)] = row[c1_index(n, l, w)] - prod[w]
    return Matrix(field, n * n * m, n * m, tuple(tuple(r) for r in rows))


def d2_matrix(alg: AlgebraLike, rep: Representation) -> Matrix:
    """Linearization of both d2 components as a (2 n^3 m) x (n^2 m) matrix."""
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    field = table.field
    z = field.zero()
    nrows = 2 * n * n * n * m
    rows = [[z] * (n * n * m) for _ in range(nrows)]
    comm = [[table.commutator_basis(i, j) for j in range(n)] for i in range(n)]
    prod = [[table.basis_product(i, j) for j in range(n)] for i in range(n)]

    def row1(a, b, c, l):
        return ((a * n + b) * n + c) * m + l

    def row2(a, b, c, l):
        return n * n * n * m + ((a * n + b) * n + c) * m + l

    for a in range(n):
        for b in range(n):
            for c in range(n):
                for l in range(m):
                    r = rows[row1(a, b, c, l)]
                    for k in range(m):
                        if rep.rho[a].entries[l][k]:
                            idx = c2_index(n, m, b, c, k)
                            r[idx] = r[idx] + rep.rho[a].entries[l][k]
                        if rep.rho[b].entries[l][k]:
                            idx = c2_index(n, m, a, c, k)
                            r[idx] = r[idx] - rep.rho[b].entries[l][k]
                        if rep.mu[c].entries[l][k]:
                            idx = c2_index(n, m, b, a, k)
                            r[idx] = r[idx] - rep.mu[c].entries[l][k]
                            idx = c2_index(n, m, a, b, k)
                            r[idx] = r[idx] + rep.mu[c].entries[l][k]
                    for w in range(n):
                        if prod[a][c][w]:
                            idx = c2_index(n, m, b, w, l)
                            r[idx] = r[idx] - prod[a][c][w]
                        if prod[b][c][w]:
                            idx = c2_index(n, m, a, w, l)
                            r[idx] = r[idx] + prod[b][c][w]
                        if comm[a][b][w]:
                            idx = c2_index(n, m, w, c, l)
                            r[idx] = r[idx] + comm[a][b][w]

                    r = rows[row2(a, b, c, l)]
                    for k in range(m):
                        if rep.mu[a].entries[l][k]:
                            idx = c2_index(n, m, b, c, k)
                            r[idx] = r[idx] + rep.mu[a].entries[l][k]
                            idx = c2_index(n, m, c, b, k)
                            r[idx] = r[idx] - rep.mu[a].entries[l][k]
                        if rep.mu[b].entries[l][k]:
                            idx = c2_index(n, m, c, a, k)
                            r[idx] = r[idx] + rep.mu[b].entries[l][k]
                            idx = c2_index(n, m, a, c, k)
                            r[idx] = r[idx] - rep.mu[b].entries[l][k]
                        if rep.mu[c].entries[l][k]:
                            idx = c2_index(n, m, a, b, k)
                            r[idx] = r[idx] + rep.mu[c].entries[l][k]
                            idx = c2_index(n, m, b, a, k)
                            r[idx] = r[idx] - rep.mu[c].entries[l][k]
                    for w in range(n):
                        if comm[a][b][w]:
                            idx = c2_index(n, m, w, c, l)
                            r[idx] = r[idx] + comm[a][b][w]
                        if comm[b][c][w]:
                            idx = c2_index(n, m, w, a, l)
                            r[idx] = r[idx] + comm[b][c][w]
                        if comm[c][a][w]:
                            idx = c2_index(n, m, w, b, l)
                            r[idx] = r[idx] + comm[c][a][w]
    return Matrix(field, nrows, n * n * m, tuple(tuple(r) for r in rows))


def cochain3_to_vec(pair: Cochain3Pair) -> Vec:
    """Flatten a degree-3 pair in the same row order used by d2_matrix."""
    n, m = pair.dim_a, pair.dim_v
    flat1 = [
        pair.comp1[a][b][c][l]
        for a in range(n)
        for b in range(n)
        for c in range(n)
        for l in range(m)
    ]
    flat2 = [
        pair.comp2[a][b][c][l]
        for a in range(n)
        for b in range(n)
        for c in range(n)
        for l in range(m)
    ]
    return tuple(flat1 + flat2)


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
    """Z2 as the kernel of the d2 linearization, B2 as the column space of d1,
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
    z2_vecs = kernel_basis(d2_matrix(table, rep))
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
    return d2(alg, rep, f).is_zero()


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
