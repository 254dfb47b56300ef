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
coordinates of C1 and C2.  The rows of both are assembled by one placement
loop, _placed, from the nonzero structure constants and action entries only:
each term of a formula puts one sparse fiber at its coordinates, and each row
comes out without the entries that cancel.  One route, _d2_rows, takes the
grids it reads: the ints of _pair_views for H2 and the gate over either field
(nothing here asks which), the stored values for d2_matrix.  Nothing on the
way to H2 is dense: Z2 is eliminated from the sparse d2 rows, B2 and
cohomologous read the sparse d1 rows, Z2 and B2 stay sparse vectors, the
[B2 | Z2] block is their transpose, and each cochain is written as the
nonzero fibers of its tensor (linalg.Tensor3).  The complex of one (table, representation) pair is one
private value, _Complex, which refuses a representation of another algebra and
assembles its d1 and d2 rows once each, for H2, the cocycle gate, d1 and
cohomologous; the gate reads the d2 rows indexed by column, once per pair.
One check, _require_cochain, refuses a 2-cochain of other dims or of another
field than the pair, for the complex and for extension_table.  d1_matrix and
d2_matrix are the matrices of the same rows.  The pointwise evaluations of d1
and d2 on basis pairs and triples live in the test suite, as the independent
oracles.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Iterator, Optional

from .algebra import AntiPreLieAlgebra, MultTable, StructureError
from .fields import Field, _record, _require_field
from .linalg import Matrix, Tensor3, Vec, _add_scaled, _integral_views, _kernel, _rref, _solve, _transpose
from .representation import AlgebraLike, Representation, _pair_views, _require_pair, as_table


@_record()
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
    return cochain2_from_vec(field, n, m, Matrix(field, n * n * m, n * m, cx.d1).apply(cochain1_to_vec(f)))


def cochain1_to_vec(f: Matrix) -> Vec:
    """The C1 vectorization: F[l][i] (component l of F(e_i)) at coordinate l n + i."""
    z = f.field.zero()
    return tuple(row.get(i, z) for row in f.nonzero for i in range(f.cols))


def cochain1_from_vec(field: Field, n: int, m: int, v: Vec) -> Matrix:
    return Matrix(field, m, n, [{i: v[l * n + i] for i in range(n) if v[l * n + i]} for l in range(m)])


def cochain2_to_vec(f: Cochain2) -> Vec:
    """The C2 vectorization, lexicographic: t[i][j][k] at coordinate (i n + j) m + k."""
    v, z = _c2(f), f.field.zero()
    return tuple(v.get(c, z) for c in range(f.dim_a ** 2 * f.dim_v))


def _c2(f: Cochain2) -> dict:
    """The nonzero coordinates of the C2 vectorization of f, {coordinate: value}."""
    n, m = f.dim_a, f.dim_v
    return {(i * n + j) * m + k: x for i, line in enumerate(f.tensor.fibers)
            for j, fiber in enumerate(line) for k, x in fiber.items()}


def cochain2_from_vec(field: Field, n: int, m: int, v: Vec) -> Cochain2:
    return _cochain2(field, n, m, {c: x for c, x in enumerate(v) if x})


def _cochain2(field: Field, n: int, m: int, v: dict) -> Cochain2:
    """A sparse C2 vector {coordinate: value} as a 2-cochain, written into the
    fibers of its tensor.  Its fibers with no entry share one empty dict (no
    operation writes a stored fiber): a dict each cost the dim-16 H2 12 MB
    and four times the build time, half of it in the cyclic collector."""
    empty = {}
    fibers = [[empty] * n for _ in range(n)]
    for c, x in v.items():
        i, j = divmod(c // m, n)
        if fibers[i][j] is empty:
            fibers[i][j] = {}
        fibers[i][j][c % m] = x
    return Cochain2(Tensor3(field, (n, n, m), fibers))


def _require_cochain(table: MultTable, rep: Representation, f: Cochain2) -> None:
    """Refuse a 2-cochain of other dims, then of another field, than the pair."""
    if (f.dim_a, f.dim_v) != (table.dim, rep.dim_v):
        raise ValueError(f"2-cochain dims {(f.dim_a, f.dim_v)} do not match ({table.dim}, {rep.dim_v})")
    _require_field("cochain", f.field, table.field)


@_record()
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
        (d1 F)(e_i, e_j) (_placed): row l of rho(e_i) placed at the C1
        coordinates of F(e_j) (base j, stride n, as F[l'][j] sits at l' n + j),
        row l of mu(e_j) at those of F(e_i), and minus e_i . e_j at those of
        component l of F (base l n, stride 1).
        """
        n, m = self.table.dim, self.rep.dim_v
        prod = self.table.tensor.fibers
        rho, mu = self.rep.sparse
        return [r for i, j in product(range(n), range(n))
                for r in _placed(((rho[i], j, 0, n, False), (mu[j], i, 0, n, False),
                                  ((prod[i][j],) * m, 0, n, 1, True)), m)]

    @cached_property
    def d2(self) -> list:
        """The nonzero rows of d2 in order (_d2_rows), on the ints of
        _pair_views: over Q D times the rational rows, over F_p sums of
        residues not yet reduced, so with the same kernel either way."""
        grids = _pair_views(self.table, self.rep)[0]
        return list(filter(None, _d2_rows(self.table.dim, self.rep.dim_v, *grids)))

    @cached_property
    def d2_columns(self) -> list:
        """The d2 rows indexed by column: column c as {row: value}, over the
        rows of _Complex.d2 (linalg._transpose)."""
        return _transpose(self.d2, self.table.dim ** 2 * self.rep.dim_v)

    def is_cocycle(self, f: Cochain2) -> bool:
        """Whether the d2 rows vanish on f, a 2-cochain of this pair (refused
        otherwise): d2 f is summed as f_c times column c of d2 over the
        support of f, on the ints of linalg._integral_views, and every entry
        of the sum must be zero, as the views' nonzero tests it."""
        _require_cochain(self.table, self.rep, f)
        (((v,),),), nonzero, _ = _integral_views(self.table.field, ((_c2(f),),))
        acc: dict = {}
        for c, x in v.items():
            _add_scaled(acc, x, self.d2_columns[c])
        return not any(map(nonzero, acc.values()))

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
        z2_basis = tuple(_cochain2(field, n, m, v) for v in z2)
        reps = tuple(z2_basis[c - len(b2)] for c in pivots[len(b2):])
        return CohomologySpaces(z2_basis, tuple(_cochain2(field, n, m, v) for v in b2), len(reps), reps)


def d1_matrix(alg: AlgebraLike, rep: Representation) -> Matrix:
    """Linearization of d1 as an (n^2 m) x (n m) matrix over C1 coordinates.

    Assembled directly from structure constants and action entries, not by
    evaluating d1 on basis cochains, so it can serve as the second route in
    the oracle-equivalence tests.
    """
    cx = _Complex(as_table(alg), rep)
    return Matrix(cx.table.field, len(cx.d1), cx.table.dim * rep.dim_v, cx.d1)


def _placed(terms: tuple, m: int) -> Iterator[dict]:
    """The m rows l < m of a coboundary, each as {coordinate: nonzero value}:
    a term (fibers, base, step, stride, negate) adds each entry x of the
    sparse fiber fibers[l] = {k: x} at base + step * l + stride * k (-x with
    negate).  Only nonzero fibers are visited; an entry that cancels is
    dropped, and a row is copied only then."""
    terms = [t for t in terms if any(t[0])]
    for l in range(m):
        row = {}
        for fibers, base, step, stride, negate in terms:
            if fibers[l]:
                at = base + step * l
                for k, x in fibers[l].items():
                    idx = at + stride * k
                    if negate:
                        x = -x
                    v = row.get(idx)
                    row[idx] = x if v is None else v + x
        yield row if all(row.values()) else {j: x for j, x in row.items() if x}


def _d2_rows(n: int, m: int, prod, comm, rho, mu) -> Iterator[dict]:
    """The rows of the d2 linearization in order, each as {C2 coordinate: value},
    of a dim-n table with fibers prod and comm (MultTable.sparse) and actions
    on a dim-m space with rows rho and mu (Representation.sparse).

    Row ((a n + b) n + c) m + l of the first n^3 m is component l of
    (d2_1 f)(e_a, e_b, e_c), the next n^3 m rows are d2_2 in the same order.
    Each term of the formulas in the module docstring places one sparse
    fiber {k: x} (_placed): row l of an action matrix, with k the V index of
    f(e_p, e_q) (stride 1), or a product or bracket, the same for every l,
    with k the basis index w of f(e_p, e_w) (stride m) or of f(e_w, e_q)
    (stride n m), moved by l (step 1).  Only nonzero entries are visited.  d2
    is linear in the grids, so grids scaled by D give D times the rows.
    """
    nm = n * m

    def first(a, b, c):
        return ((rho[a], (b * n + c) * m, 0, 1, False), (rho[b], (a * n + c) * m, 0, 1, True),
                (mu[c], (b * n + a) * m, 0, 1, True), (mu[c], (a * n + b) * m, 0, 1, False),
                ((prod[a][c],) * m, b * nm, 1, m, True), ((prod[b][c],) * m, a * nm, 1, m, False),
                ((comm[a][b],) * m, c * m, 1, nm, False))

    def second(a, b, c):
        return ((mu[a], (b * n + c) * m, 0, 1, False), (mu[a], (c * n + b) * m, 0, 1, True),
                (mu[b], (c * n + a) * m, 0, 1, False), (mu[b], (a * n + c) * m, 0, 1, True),
                (mu[c], (a * n + b) * m, 0, 1, False), (mu[c], (b * n + a) * m, 0, 1, True),
                ((comm[a][b],) * m, c * m, 1, nm, False), ((comm[b][c],) * m, a * m, 1, nm, False),
                ((comm[c][a],) * m, b * m, 1, nm, False))

    for component, a, b, c in product((first, second), range(n), range(n), range(n)):
        yield from _placed(component(a, b, c), m)


def d2_matrix(alg: AlgebraLike, rep: Representation) -> Matrix:
    """Linearization of both d2 components as a (2 n^3 m) x (n^2 m) matrix."""
    table = as_table(alg)
    _require_pair(table, rep)
    rows = list(_d2_rows(table.dim, rep.dim_v, *table.sparse, *rep.sparse))
    return Matrix(table.field, len(rows), table.dim ** 2 * rep.dim_v, rows)


@_record()
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


def is_cocycle(alg: AlgebraLike, rep: Representation, f: Cochain2) -> bool:
    """Whether d2 f = 0: the columns of d2 summed over the nonzero
    coordinates of f (_Complex.is_cocycle)."""
    return _Complex(as_table(alg), rep).is_cocycle(f)


def cohomologous(
    alg: AlgebraLike, rep: Representation, f: Cochain2, g: Cochain2
) -> Optional[Matrix]:
    """A 1-cochain phi with f - g = d1(phi), or None when none exists."""
    cx = _Complex(as_table(alg), rep)
    field, n, m = cx.table.field, cx.table.dim, rep.dim_v
    for h in (f, g):
        _require_cochain(cx.table, rep, h)
    x = _solve(field, cx.d1, n * m, _c2(f - g))
    return None if x is None else cochain1_from_vec(field, n, m, x)
