"""Exact linear algebra on immutable matrices and rank-3 tensors.

Matrices and tensors are stored dense.  Elimination works on sparse rows
({column: value} over the nonzero entries), because the cochain operators it
runs on are mostly zero (the dim-8 d2 is 8192x512 with 0.2 % nonzeros).  One
routine, `_rref`, computes the reduced row echelon form behind `rank`,
`pivot_columns`, `kernel_basis`, `solve` and `invert`.  That form is unique,
so pivots, kernel bases, solutions and inverses are fully determined by the
input and reproducible across runs and platforms.  The kernel core `_kernel`
takes sparse rows as they are, so an operator assembled row by row (like d2)
reaches elimination without ever being written out dense.

Over Q, `_rref` eliminates modulo a word-size prime and certifies the result
(Wang, Guy & Davenport, SIGSAM Bull. 1982; Dixon, Numer. Math. 1982).  Each
row is replaced by its primitive integer multiple (coprime ints, positive at
its first column), which leaves the row space unchanged, so a row repeated at
any nonzero scale is eliminated and certified once.  The same elimination
runs on residues mod p, and every reduced entry is lifted to a fraction by
rational reconstruction.  The lift is kept only if every distinct input row
equals, exactly over Z, the combination of the lifted rows that its own
pivot-column entries prescribe; that is A K = 0 for the kernel basis K read
off the lift.  For an integer matrix the rank mod p is at most the rank over
Q, and K holds n - r independent vectors, so the two ranks agree and the lift
is the reduced form over Q entry for entry (see `_rref_modular`).  When the
lift or the check fails at every prime of `_PRIMES`, the rows are eliminated
in `Fraction` arithmetic instead, so no result rests on trusting a prime.
Everything is pure Python ints and fractions; the package has no
dependencies.  Over a prime field the elimination runs on `Fp` values.

`Tensor3.contract` evaluates a product of two arbitrary coordinate vectors.
The law residuals on basis triples and pairs are not evaluated here: they
are summed from their nonzero terms by `algebra._support_walk`, on the ints
of `_integral_views` (the residuals are homogeneous of degree 2: over Q an
int residual is the rational one times the views' common denominator
squared, over F_p it is reduced mod p only where it is tested and reported).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

from .fields import Field, Rationals, Scalar

Vec = tuple  # tuple[Scalar, ...]


def basis_vec(field: Field, n: int, i: int) -> Vec:
    z, o = field.zero(), field.one()
    return tuple(o if k == i else z for k in range(n))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_is_zero(a: Vec) -> bool:
    return not any(a)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with exact entries, stored row-major."""

    field: Field
    rows: int
    cols: int
    entries: tuple  # tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entries shape does not match declared rows x cols")

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable[Scalar]], cols: Optional[int] = None) -> "Matrix":
        ent = tuple(tuple(r) for r in rows)
        if ent:
            cols = len(ent[0])
        elif cols is None:
            raise ValueError("cols required for a matrix with no rows")
        return Matrix(field, len(ent), cols, ent)

    @staticmethod
    def from_cols(field: Field, cols: Sequence[Sequence[Scalar]], rows: Optional[int] = None) -> "Matrix":
        if cols:
            rows = len(cols[0])
        elif rows is None:
            raise ValueError("rows required for a matrix with no columns")
        ent = tuple(tuple(c[i] for c in cols) for i in range(rows))
        return Matrix(field, rows, len(cols), ent)

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(-a for a in r) for r in self.entries))

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(c * a for a in r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.transpose().entries
        return Matrix(self.field, self.rows, other.cols,
                      tuple(tuple(_dot(r, c, self.field) for c in ot) for r in self.entries))

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} does not match {self.rows}x{self.cols} matrix")
        return tuple(_dot(r, v, self.field) for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def is_zero(self) -> bool:
        return not any(any(r) for r in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def _dot(a: Sequence[Scalar], b: Sequence[Scalar], field: Field) -> Scalar:
    acc = field.zero()
    for x, y in zip(a, b):
        if x and y:
            acc = acc + x * y
    return acc


def _sparse_rows(rows: Iterable[Sequence[Scalar]]) -> list:
    """Each row as {column: value} over its nonzero entries."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def _subtract(row: dict, f: Scalar, other: dict) -> None:
    """row -= f * other in place, dropping entries that cancel."""
    for j, y in other.items():
        x = row.get(j)
        if x is None:
            row[j] = -(f * y)
        else:
            x = x - f * y
            if x:
                row[j] = x
            else:
                del row[j]


# Word-size primes for elimination over Q, tried in order.  A lift mod p
# reaches numerators and denominators up to sqrt(p / 2): 2^15 for 2^31 - 1,
# 2^30 for 2^61 - 1.  A second prime also covers one that divides a minor.
_PRIMES = (2**31 - 1, 2**61 - 1)


def _rref(field: Field, rows_in: Iterable[dict]):
    """Reduced row echelon form of sparse rows; returns (rows, pivot columns).

    `rows_in` holds {column: value} dicts of nonzero entries (they may be
    consumed); the result lists the nonzero reduced rows, as such dicts, in
    pivot-column order.  Over a prime field this is `_rref_field`.  Over Q
    the empty rows are dropped, every other row is replaced by its
    `_primitive` multiple and only the first copy of each distinct one is
    kept: the row space, and so the form, is unchanged.  `_rref_modular`
    tries each of `_PRIMES` in turn on those rows; only when every prime
    fails are they eliminated by `_rref_field` in `Fraction` arithmetic.
    Both routes give the one reduced row echelon form.
    """
    if not isinstance(field, Rationals):
        return _rref_field(field, rows_in)
    primitive = (_primitive(row) for row in rows_in if row)
    rows = list({frozenset(row.items()): row for row in primitive}.values())
    for p in _PRIMES:
        result = _rref_modular(rows, p)
        if result is not None:
            return result
    return _rref_field(field, [{j: Fraction(x) for j, x in row.items()} for row in rows])


def _rref_field(field: Field, rows_in: Iterable[dict]):
    """`_rref` by arithmetic in the field itself.

    Each incoming row is reduced against the pivot rows found so far, which
    are kept fully reduced (zero in every other pivot column), so only nonzero
    entries are touched.  A row left nonzero gets its first column as pivot
    and is cleared from the earlier pivot rows.  The reduced row echelon form
    of a matrix is unique, so pivots and rows equal those of column-by-column
    Gauss-Jordan elimination exactly.
    """
    one = field.one()
    pivot_rows: dict = {}
    for row in rows_in:
        for c, f in [(c, f) for c, f in row.items() if c in pivot_rows]:
            _subtract(row, f, pivot_rows[c])
        if not row:
            continue
        p = min(row)
        lead = row[p]
        if lead != one:
            inv = one / lead
            row = {j: inv * x for j, x in row.items()}
        for other in pivot_rows.values():
            f = other.get(p)
            if f is not None:
                _subtract(other, f, row)
        pivot_rows[p] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots], pivots


def _integral(row: dict, scale: Optional[int] = None) -> dict:
    """A sparse rational row times scale, as ints; scale is by default the
    lcm of the row's denominators, and must be a multiple of each of them."""
    dens = [x.denominator for x in row.values()]
    if scale is None:
        scale = lcm(*dens)
    if scale == 1:
        return {j: x.numerator for j, x in row.items()}
    return {j: x.numerator * (scale // d) for (j, x), d in zip(row.items(), dens)}


def _integral_views(field: Field, *views) -> tuple:
    """(scaled, nonzero, scalar) for a walk whose residuals are sums of
    products of two view values.  Each view is a tuple of tuples of sparse
    {index: value} fibers, and scaled holds every view with int values.

    Over Q every view is multiplied by d, the lcm of all their denominators,
    so an int residual r is d^2 times the rational one: scalar(r) is
    Fraction(r, d^2) and nonzero(r) is bool(r).  Over F_p every value is its
    residue in [0, p), r is congruent to the residual mod p: scalar(r) is
    r mod p and nonzero(r) is r % p, true when r is nonzero mod p.
    """
    if isinstance(field, Rationals):
        d = lcm(*(x.denominator for v in views for line in v for f in line for x in f.values()))
        scaled = tuple(tuple(tuple(_integral(f, d) for f in line) for line in v) for v in views)
        scale = d * d
        return scaled, bool, lambda r: Fraction(r, scale)
    scaled = tuple(tuple(tuple({j: x.value for j, x in f.items()} for f in line) for line in v)
                   for v in views)
    return scaled, field.p.__rmod__, field.of_int  # p.__rmod__(r) is r % p


def _primitive(row: dict) -> dict:
    """The primitive integer multiple of a nonzero sparse rational row: ints
    with gcd 1, positive at the first column.  A row of ints is scaled only
    when it is not primitive already, and is otherwise returned as it is."""
    if not all(type(x) is int for x in row.values()):
        row = _integral(row)
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _subtract_mod(row: dict, f: int, other: dict, p: int) -> None:
    """row -= f * other modulo p in place, dropping entries that cancel."""
    for j, y in other.items():
        x = row.get(j)
        if x is None:
            row[j] = -f * y % p
        else:
            x = (x - f * y) % p
            if x:
                row[j] = x
            else:
                del row[j]


def _reconstruct(u: int, p: int) -> Optional[tuple]:
    """The fraction (a, b), b > 0 and gcd(a, b) = 1, with a = u b mod p and
    |a|, b <= sqrt(p / 2), or None when there is none (Wang's half-extended
    Euclid); such a fraction is unique when it exists."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _rref_modular(rows: list, p: int):
    """`_rref` of integer rows, eliminated modulo p and certified over Q, or
    None when the lift or its certificate fails.

    The elimination is `_rref_field`'s, step for step, on residues, so a pivot
    row has its 1 at its pivot column, nothing at other pivot columns and
    nothing before its pivot.  Every entry is lifted by `_reconstruct` and the
    lift is checked by `_certify`.  A lift that passes has n - r kernel
    vectors, one per non-pivot column, so rank over Q is at most the rank r
    mod p, which for an integer matrix is at most the rank over Q.  The ranks
    agree; each non-pivot column is then a combination of earlier pivot
    columns, the r pivot columns are independent over Q, and the pivots and
    lifted rows are the reduced row echelon form over Q, entry for entry.
    """
    pivot_rows: dict = {}
    for source in rows:
        row = {}
        for j, x in source.items():
            x %= p
            if x:
                row[j] = x
        for c, f in [(c, f) for c, f in row.items() if c in pivot_rows]:
            _subtract_mod(row, f, pivot_rows[c], p)
        if not row:
            continue
        c = min(row)
        lead = row[c]
        if lead != 1:
            inv = pow(lead, -1, p)
            row = {j: inv * x % p for j, x in row.items()}
        for other in pivot_rows.values():
            f = other.get(c)
            if f is not None:
                _subtract_mod(other, f, row, p)
        pivot_rows[c] = row
    lifts = {}
    for row in pivot_rows.values():
        for x in row.values():
            if x not in lifts:
                lift = _reconstruct(x, p)
                if lift is None:
                    return None
                lifts[x] = lift
    if not _certify(rows, pivot_rows, lifts):
        return None
    value = {x: Fraction(a, b) for x, (a, b) in lifts.items()}
    pivots = sorted(pivot_rows)
    return [{j: value[x] for j, x in pivot_rows[c].items()} for c in pivots], pivots


def _certify(rows: list, pivot_rows: dict, lifts: dict) -> bool:
    """Whether every integer row equals the sum over its pivot columns c of
    row[c] * (lifted pivot row c), that is A K = 0 for the kernel basis K of
    the lift.  It is checked in integers: pivot row c is kept as numerators
    over one denominator, and each row is compared after scaling by the lcm
    of the denominators it uses."""
    den, num = {}, {}
    for c, row in pivot_rows.items():
        d = lcm(*(lifts[x][1] for x in row.values()))
        den[c] = d
        num[c] = {j: lifts[x][0] * (d // lifts[x][1]) for j, x in row.items()}
    for row in rows:
        cols = [c for c in row if c in num]
        scale = lcm(*(den[c] for c in cols))
        acc: dict = {}
        for c in cols:
            k = row[c] * (scale // den[c])
            for j, y in num[c].items():
                acc[j] = acc.get(j, 0) + k * y
        for j, x in row.items():
            if acc.pop(j, 0) != scale * x:
                return False
        if any(acc.values()):
            return False
    return True


def rank(m: Matrix) -> int:
    return len(_rref(m.field, _sparse_rows(m.entries))[1])


def pivot_columns(m: Matrix) -> list[int]:
    """Indices of the lexicographically-first maximal independent column set."""
    return _rref(m.field, _sparse_rows(m.entries))[1]


def kernel_basis(m: Matrix) -> list[Vec]:
    """Deterministic basis of the right null space {v : Mv = 0}."""
    z = m.field.zero()
    return [tuple(v.get(c, z) for c in range(m.cols))
            for v in _kernel(m.field, _sparse_rows(m.entries), m.cols)]


def _kernel(field: Field, rows: Iterable[dict], ncols: int) -> list[dict]:
    """The kernel basis of sparse rows over ncols columns, as sparse vectors.

    One vector per free column f, with 1 at f and minus the RREF column f at
    the pivots; a pivot row is nonzero only at its pivot and at free columns.
    """
    reduced, pivots = _rref(field, rows)
    pivot_set = set(pivots)
    basis = {f: {f: field.one()} for f in range(ncols) if f not in pivot_set}
    for pc, row in zip(pivots, reduced):
        for f, x in row.items():
            if f != pc:
                basis[f][pc] = -x
    return list(basis.values())


def solve(m: Matrix, b: Vec) -> Optional[Vec]:
    """One exact solution of Mx = b (free variables set to zero), or None."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} does not match {m.rows} rows")
    return _solve(m.field, _sparse_rows(m.entries), m.cols, b)


def _solve(field: Field, rows: list, ncols: int, b: Vec) -> Optional[Vec]:
    """solve on sparse rows (consumed) over ncols columns, one per entry of b."""
    for row, bb in zip(rows, b):
        if bb:
            row[ncols] = bb
    reduced, pivots = _rref(field, rows)
    if pivots and pivots[-1] == ncols:
        return None
    z = field.zero()
    x = [z] * ncols
    for pc, row in zip(pivots, reduced):
        x[pc] = row.get(ncols, z)
    return tuple(x)


def invert(m: Matrix) -> Optional[Matrix]:
    """Exact inverse, or None when singular; non-square input is an error."""
    if not m.is_square():
        raise ValueError(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    aug = _sparse_rows(m.entries)
    o = m.field.one()
    for i, row in enumerate(aug):
        row[n + i] = o
    rows, pivots = _rref(m.field, aug)
    if pivots != list(range(n)):
        return None
    z = m.field.zero()
    inverse = tuple(tuple(row.get(j, z) for j in range(n, 2 * n)) for row in rows)
    return Matrix(m.field, n, n, inverse)


@dataclass(frozen=True)
class Tensor3:
    """Immutable rank-3 tensor, indexed [i][j][k] with i-major layout."""

    field: Field
    dims: tuple  # (d1, d2, d3)
    entries: tuple  # tuple[tuple[tuple[Scalar, ...], ...], ...]

    def __post_init__(self):
        d1, d2, d3 = self.dims
        if len(self.entries) != d1 or any(len(p) != d2 for p in self.entries) or any(
            len(f) != d3 for p in self.entries for f in p
        ):
            raise ValueError("entries shape does not match declared dims")

    @staticmethod
    def zero(field: Field, d1: int, d2: int, d3: int) -> "Tensor3":
        z = field.zero()
        return Tensor3(field, (d1, d2, d3),
                       tuple(tuple(tuple(z for _ in range(d3)) for _ in range(d2)) for _ in range(d1)))

    @staticmethod
    def from_entries(field: Field, entries) -> "Tensor3":
        ent = tuple(tuple(tuple(f) for f in p) for p in entries)
        d1 = len(ent)
        d2 = len(ent[0]) if d1 else 0
        d3 = len(ent[0][0]) if d1 and d2 else 0
        return Tensor3(field, (d1, d2, d3), ent)

    def fiber(self, i: int, j: int) -> Vec:
        """The vector [i][j][.] along the third index."""
        return self.entries[i][j]

    def contract(self, x: Vec, y: Vec) -> Vec:
        """The bilinear map the tensor represents: sum over i, j of x_i y_j [i][j][.]."""
        d1, d2, d3 = self.dims
        if len(x) != d1 or len(y) != d2:
            raise ValueError(f"operands must have lengths {d1} and {d2}")
        out = [self.field.zero()] * d3
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, t in enumerate(self.entries[i][j]):
                    if t:
                        out[k] = out[k] + c * t
        return tuple(out)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        if self.dims != other.dims:
            raise ValueError("tensor dims mismatch")
        return Tensor3(self.field, self.dims,
                       tuple(tuple(tuple(a + b for a, b in zip(fa, fb))
                                   for fa, fb in zip(pa, pb))
                             for pa, pb in zip(self.entries, other.entries)))

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        if self.dims != other.dims:
            raise ValueError("tensor dims mismatch")
        return Tensor3(self.field, self.dims,
                       tuple(tuple(tuple(a - b for a, b in zip(fa, fb))
                                   for fa, fb in zip(pa, pb))
                             for pa, pb in zip(self.entries, other.entries)))

    def scale(self, c: Scalar) -> "Tensor3":
        return Tensor3(self.field, self.dims,
                       tuple(tuple(tuple(c * a for a in f) for f in p) for p in self.entries))

    def is_zero(self) -> bool:
        return not any(any(any(f) for f in p) for p in self.entries)
