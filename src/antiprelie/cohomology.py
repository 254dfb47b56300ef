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
coordinates of C1 and C2, whose rows are each assembled by one routine from
the nonzero structure constants and action entries only.  Over Q the d2 rows
are assembled on ints, from views scaled by one common denominator.  Nothing
on the way to H2 is dense: Z2 is eliminated from the sparse d2 rows, B2 and
cohomologous read the sparse d1 rows, Z2 and B2 stay sparse vectors, the
[B2 | Z2] block is their transpose, and each cochain is sliced from one flat
list.  The complex of one (table, representation) pair is one private value,
_Complex, which refuses a representation of another algebra and assembles
its d1 and d2 rows once each, for H2, the cocycle gate, d1 and cohomologous.
d1_matrix and d2_matrix are the dense views of the same rows.  The pointwise
evaluations of d1 and d2 on basis pairs and triples live in the test suite,
as the independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, Optional

from .algebra import AntiPreLieAlgebra, MultTable, StructureError
from .fields import Field, Rationals, _require_field
from .linalg import Matrix, Tensor3, Vec, _apply_rows, _integral, _kernel, _rref, _solve, vec_sub
from .representation import AlgebraLike, Representation, _pair_views, _require_pair, as_table


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
    """The coboundary of a 1-cochain f (an m x n matrix): the rows of the d1
    linearization applied to the C1 vector of f, read back as a 2-cochain."""
    cx = _Complex(as_table(alg), rep)
    field, n, m = cx.table.field, cx.table.dim, rep.dim_v
    if (f.rows, f.cols) != (m, n):
        raise ValueError(f"1-cochain must be {m}x{n}, got {f.rows}x{f.cols}")
    _require_field("cochain", f.field, field)
    return cochain2_from_vec(field, n, m, tuple(_apply_rows(cx.d1, cochain1_to_vec(f), field.zero())))


def cochain1_to_vec(f: Matrix) -> Vec:
    """The C1 vectorization: F[l][i] (component l of F(e_i)) at coordinate l n + i."""
    return tuple(x for row in f.entries for x in row)


def cochain1_from_vec(field: Field, n: int, m: int, v: Vec) -> Matrix:
    return Matrix(field, m, n, tuple(tuple(v[l * n + i] for i in range(n)) for l in range(m)))


def cochain2_to_vec(f: Cochain2) -> Vec:
    """The C2 vectorization, lexicographic: t[i][j][k] at coordinate (i n + j) m + k."""
    return tuple(x for plane in f.tensor.entries for fiber in plane for x in fiber)


def cochain2_from_vec(field: Field, n: int, m: int, v: Vec) -> Cochain2:
    return _cochain2(field, n, m, dict(enumerate(v)))


def _cochain2(field: Field, n: int, m: int, v: dict) -> Cochain2:
    """A sparse C2 vector as a 2-cochain: one flat list, sliced into n^2 fibers."""
    flat = [field.zero()] * (n * n * m)
    for j, x in v.items():
        flat[j] = x
    return Cochain2(Tensor3(field, (n, n, m), tuple(
        tuple(tuple(flat[(i * n + j) * m:(i * n + j + 1) * m]) for j in range(n)) for i in range(n))))


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


@dataclass(frozen=True)
class _Complex:
    """The cochain complex C*(A; V) of a (table, rep) pair that fits
    (_require_pair); its d1 and d2 rows are each assembled once, on first use."""

    table: MultTable
    rep: Representation

    def __post_init__(self):
        _require_pair(self.table, self.rep)

    @cached_property
    def d1(self) -> list:
        """The rows of the d1 linearization in order, as {C1 coordinate: nonzero value}.

        Row (i n + j) m + l, the C2 coordinate of t[i][j][l], is component l of
        (d1 F)(e_i, e_j): row l of rho(e_i) placed at the C1 coordinates of
        F(e_j) (base j, stride n, as F[l'][j] sits at l' n + j), row l of mu(e_j)
        at those of F(e_i), and minus e_i . e_j at those of component l of F
        (base l n, stride 1).
        """
        n, m = self.table.dim, self.rep.dim_v
        prod = self.table.sparse_rows
        rho, mu = self.rep.sparse
        rows = []
        for i, j, l in product(range(n), range(n), range(m)):
            r = {}
            _add_at(r, j, n, rho[i][l])
            _add_at(r, i, n, mu[j][l])
            _add_at(r, l * n, 1, prod[i][j], negate=True)
            rows.append({c: x for c, x in r.items() if x})
        return rows

    @cached_property
    def d2(self) -> list:
        """The nonzero rows of d2, without the entries that cancelled; over Q on
        ints (D times the rational rows, see _d2_rows), with the same kernel."""
        integral = isinstance(self.table.field, Rationals)
        rows = ({j: x for j, x in r.items() if x} for r in _d2_rows(self.table, self.rep, integral))
        return [r for r in rows if r]

    def vec(self, f: Cochain2) -> Vec:
        """The C2 vector of f, refused unless f is a 2-cochain of this pair."""
        n, m = self.table.dim, self.rep.dim_v
        if (f.dim_a, f.dim_v) != (n, m):
            raise ValueError(f"2-cochain dims {(f.dim_a, f.dim_v)} do not match ({n}, {m})")
        _require_field("cochain", f.field, self.table.field)
        return cochain2_to_vec(f)

    def is_cocycle(self, f: Cochain2) -> bool:
        """Whether the d2 rows vanish on f, stopping at the first that does
        not; over Q f is scaled to ints by the lcm of its own denominators."""
        v = self.vec(f)
        if isinstance(self.table.field, Rationals):
            return not any(_apply_rows(self.d2, _integral(dict(enumerate(v))), 0))
        return not any(_apply_rows(self.d2, v, self.table.field.zero()))

    def spaces(self) -> "CohomologySpaces":
        """cohomology_spaces of the pair, from its d2 and d1 rows."""
        n, m = self.table.dim, self.rep.dim_v
        field, size = self.table.field, n * n * m
        z2 = _kernel(field, self.d2, size)
        d1_cols = _transpose(self.d1, n * m)
        b2 = [d1_cols[c] for c in _rref(field, self.d1)[1]]
        pivots = _rref(field, _transpose(b2 + z2, size))[1]
        if len(pivots) != len(z2):
            raise StructureError("a coboundary fell outside Z2; (alg, rep) was not verified")
        reps = [z2[c - len(b2)] for c in pivots[len(b2):]]
        mk = lambda vecs: tuple(_cochain2(field, n, m, v) for v in vecs)
        return CohomologySpaces(mk(z2), mk(b2), len(reps), mk(reps))


def d1_matrix(alg: AlgebraLike, rep: Representation) -> Matrix:
    """Linearization of d1 as an (n^2 m) x (n m) matrix over C1 coordinates.

    Assembled directly from structure constants and action entries, not by
    evaluating d1 on basis cochains, so it can serve as the second route in
    the oracle-equivalence tests.
    """
    cx = _Complex(as_table(alg), rep)
    return _dense(cx.table.field, cx.d1, cx.table.dim * rep.dim_v)


def _add_at(row: dict, base: int, stride: int, coeffs: dict, negate: bool = False) -> None:
    """row[base + stride * k] += coeffs[k] for every k (-= with negate), in place."""
    for k, x in coeffs.items():
        idx = base + stride * k
        if negate:
            x = -x
        v = row.get(idx)
        row[idx] = x if v is None else v + x


def _d2_rows(table: MultTable, rep: Representation, integral: bool = False) -> Iterator[dict]:
    """The rows of the d2 linearization in order, each as {C2 coordinate: value}.

    Row ((a n + b) n + c) m + l of the first n^3 m is component l of
    (d2_1 f)(e_a, e_b, e_c), the next n^3 m rows are d2_2 in the same order.
    Each term of the formulas in the module docstring adds one sparse fiber
    {k: x} at the C2 coordinates base + stride * k: row l of an action
    matrix, with k the V index of f(e_p, e_q) (stride 1), or a product or
    bracket, with k the basis index w of f(e_p, e_w) (stride m) or of
    f(e_w, e_q) (stride n m).  Only nonzero fibers are visited; an entry that
    cancels stays as a zero, which _Complex.d2 drops.
    With integral (over Q) the views are first scaled to ints by one common
    denominator D (_pair_views); d2 is linear in them, so each row is D times
    the rational one.
    """
    n, m = table.dim, rep.dim_v
    (prod, comm, rho, mu), _, _ = _pair_views(table, rep, integral)
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

    for component, a, b, c in product((first, second), range(n), range(n), range(n)):
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
    """Z2 as the kernel of the d2 linearization, B2 as the column space of d1,
    and H2 representatives chosen by greedily extending the B2 basis along the
    deterministic Z2 kernel basis (lexicographic coordinate order).

    Both stay sparse {C2 coordinate: value} vectors: Z2 read off the reduced
    d2 rows, B2 the columns of the d1 rows at their pivots.  The
    representatives and the check that B2 lies inside Z2 both come from one
    elimination of the column block [B2 | Z2], given as the transpose of
    those vectors.  Its pivot columns are the lexicographically first
    independent columns: B2 is independent, so it is all pivots, and a Z2
    vector is a pivot exactly when it lies outside the span of B2 and the Z2
    vectors before it, which is the greedy choice, in the same order.  Z2 is
    independent too, so the block has exactly len(Z2) pivots if and only if
    B2 lies inside Z2.
    """
    return _Complex(as_table(alg), rep).spaces()


def _transpose(vecs: list, size: int) -> list:
    """The size sparse rows of the matrix whose columns are the sparse vecs."""
    rows = [{} for _ in range(size)]
    for k, v in enumerate(vecs):
        for i, x in v.items():
            rows[i][k] = x
    return rows


def is_cocycle(alg: AlgebraLike, rep: Representation, f: Cochain2) -> bool:
    """Whether d2 f = 0: the nonzero rows of d2 applied to f, stopping at the
    first nonzero component."""
    return _Complex(as_table(alg), rep).is_cocycle(f)


def cohomologous(
    alg: AlgebraLike, rep: Representation, f: Cochain2, g: Cochain2
) -> Optional[Matrix]:
    """A 1-cochain phi with f - g = d1(phi), or None when none exists."""
    cx = _Complex(as_table(alg), rep)
    field, n, m = cx.table.field, cx.table.dim, rep.dim_v
    x = _solve(field, cx.d1, n * m, vec_sub(cx.vec(f), cx.vec(g)))
    return None if x is None else cochain1_from_vec(field, n, m, x)
