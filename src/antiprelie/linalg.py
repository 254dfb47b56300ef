"""Exact linear algebra on immutable matrices and rank-3 tensors.

Both are stored as their nonzero entries, in the compressed storage of
Davis, Direct Methods for Sparse Linear Systems, SIAM 2006, ch. 2.  A
matrix, the storage of every linear map (an action, an O-operator, a form,
a 1-cochain, the structure maps of an extension), is its nonzero rows
({column: value} per row); a rank-3 tensor, the storage of every product
table, 2-cochain and Lie bracket, is its nonzero fibers ({k: value} per index
pair [i][j]).  Their dense entries are views built on demand; the kernels
read and write the stored rows and fibers, and `_transpose` is the one
change from rows to columns.  Elimination works on the same sparse rows,
because the cochain operators it runs on are mostly zero (the dim-8 d2 is
8192x512 with 0.2 % nonzeros).  One routine, `_rref`, computes the reduced
row echelon form behind `rank`, `pivot_columns`, `kernel_basis`, `solve` and
`invert`, which hand it the stored rows.  That form is unique, so pivots,
kernel bases, solutions and inverses are fully determined by the input and
reproducible across runs and platforms.  The kernel core `_kernel` takes
sparse rows as they are, so an operator assembled row by row (like d2)
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
dependencies.  Before any arithmetic, on every route, `_singletons` fixes the
pivots that single-entry rows decide and deletes their columns from the other
rows, repeating while that leaves new singletons; on the d2 rows of the dim-8
tower it fixes 244 of the 396 pivots and leaves 275 of the 762 distinct rows.
One loop, `_eliminate`, does every elimination of the rows left: on residues
mod p for the modular route over Q and over a prime field, where `Fp` values
are made only for the reduced rows returned, and on `Fraction` values for the
fallback.

One kernel, `_transport`, moves a bilinear map w along linear maps,
out(w(left., right.)), over the nonzero entries of w and the maps only,
never multiplying a unit entry: basis changes, morphism checks, deformation
pull-backs, extension read-backs and `Tensor3.contract` call it.  The law
residuals on basis triples and pairs are summed by `algebra._support_walk`
instead, on the ints of `_integral_views`, the one int form of both fields
(values times a common denominator over Q, residues over F_p): the d2 rows,
the cocycle gate, the law walks and the operator relation all run on it, and
it and `_rref` are the only code that asks which field it has.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

from .fields import Field, Rationals, Scalar, _record

Vec = tuple  # tuple[Scalar, ...]


def basis_vec(field: Field, n: int, i: int) -> Vec:
    z, o = field.zero(), field.one()
    return tuple(o if k == i else z for k in range(n))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_is_zero(a: Vec) -> bool:
    return not any(a)


@_record()
class Matrix:
    """Immutable matrix with exact entries, stored as its nonzero rows
    nonzero[r] = {column: value} (_stored), so == and hash mean equal
    entries; the dense entries are a view, built on use."""

    field: Field
    rows: int
    cols: int
    nonzero: tuple  # tuple[dict, ...]

    def __post_init__(self):
        object.__setattr__(self, "nonzero", _stored(self.nonzero, self.rows, self.cols))

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(frozenset(r.items()) for r in self.nonzero)))

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable[Scalar]], cols: Optional[int] = None) -> "Matrix":
        """The matrix of dense rows; ragged rows are refused."""
        ent = [tuple(r) for r in rows]
        if ent:
            cols = len(ent[0])
        elif cols is None:
            raise ValueError("cols required for a matrix with no rows")
        if any(len(r) != cols for r in ent):
            raise ValueError("entries shape is ragged")
        return Matrix(field, len(ent), cols, [{j: x for j, x in enumerate(r) if x} for r in ent])

    @staticmethod
    def from_cols(field: Field, cols: Sequence[Sequence[Scalar]], rows: Optional[int] = None) -> "Matrix":
        """The matrix of dense columns; ragged columns are refused."""
        if not cols and rows is None:
            raise ValueError("rows required for a matrix with no columns")
        return Matrix.from_rows(field, cols, rows).transpose()

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, [{}] * rows)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        o = field.one()
        return Matrix(field, n, n, [{i: o} for i in range(n)])

    @cached_property
    def entries(self) -> tuple:
        """The dense view, row-major, with the field's zero off the stored rows."""
        z, cols = self.field.zero(), range(self.cols)
        return tuple(tuple(r.get(j, z) for j in cols) for r in self.nonzero)

    def col(self, j: int) -> Vec:
        z = self.field.zero()
        return tuple(r.get(j, z) for r in self.nonzero)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        out = [dict(r) for r in self.nonzero]
        for r, o in zip(out, other.nonzero):
            _add_scaled(r, None, o)
        return Matrix(self.field, self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return self.scale(-self.field.one())

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, [{j: c * x for j, x in r.items()} for r in self.nonzero])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for r in self.nonzero:
            acc = {}
            for k, x in r.items():
                _add_scaled(acc, x, other.nonzero[k])
            out.append(acc)
        return Matrix(self.field, self.rows, other.cols, out)

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} does not match {self.rows}x{self.cols} matrix")
        z = self.field.zero()
        return tuple(sum((x * v[j] for j, x in r.items() if v[j]), z) for r in self.nonzero)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows, _transpose(self.nonzero, self.cols))

    def is_zero(self) -> bool:
        return not any(self.nonzero)

    def is_square(self) -> bool:
        return self.rows == self.cols


def _stored(rows: Iterable[dict], count: int, width: int) -> tuple:
    """count sparse rows {index: value}, index in range(width), as Matrix and
    Tensor3 store them: a tuple of dicts with no zero, a row copied only when
    it holds one.  It costs O(count + nonzeros); another count of rows, a row
    that is not a dict or an index outside range(width) is a ValueError."""
    rows = tuple(rows)
    full = list(filter(None, rows))
    if (len(rows) != count or not set(map(type, rows)) <= {dict}
            or full and (min(map(min, full)) < 0 or max(map(max, full)) >= width)):
        raise ValueError(f"rows do not match the declared dims {count} x {width}")
    if all(map(all, map(dict.values, full))):
        return rows
    return tuple(r if all(r.values()) else {k: x for k, x in r.items() if x} for r in rows)


def _transpose(rows: Iterable[dict], size: int) -> list:
    """The size sparse rows of the transpose of sparse rows {column: value},
    column < size: the columns of the matrix whose rows they are."""
    out = [{} for _ in range(size)]
    for r, row in enumerate(rows):
        for j, x in row.items():
            out[j][r] = x
    return out


def _columns(m: Matrix) -> list:
    """The sparse columns of m, {row: value} for the image of each basis vector."""
    return _transpose(m.nonzero, m.cols)


def _units(n: int, start: int = 0) -> list:
    """The columns e_start, .., e_(start+n-1), their units as None (see _transport)."""
    return [{start + a: None} for a in range(n)]


def _add_scaled(acc: dict, c, fiber: dict) -> None:
    """acc += c * fiber in place; c None, or a value None in the fiber, is 1."""
    for k, x in fiber.items():
        t = x if c is None else c if x is None else c * x
        old = acc.get(k)
        acc[k] = t if old is None else old + t


def _transport(rows, left: Sequence[dict], right: Sequence[dict], out: Sequence[dict],
               acc: Optional[list] = None) -> list:
    """[a][b] = out(w(left e_a, right e_b)) as {k: value} fibers (a cancelled
    entry stays, as a zero), added into acc when given; w(e_p, e_q) is the
    fiber rows[p][q], as in Tensor3.fibers.  A map is a list of sparse
    columns, left[a] = {p: x}, where x None is 1 and never multiplied (see
    _units).  Only nonzero fibers and entries are visited (the co-iteration of
    Kjolstad et al., OOPSLA 2017), and x * y is formed outside the fiber loop."""
    if acc is None:
        acc = [[{} for _ in right] for _ in left]
    for col_a, line in zip(left, acc):
        for col_b, fiber_ab in zip(right, line):
            inner = {}
            for p, x in col_a.items():
                row = rows[p]
                for q, y in col_b.items():
                    if row[q]:
                        _add_scaled(inner, y if x is None else x if y is None else x * y, row[q])
            for k, v in inner.items():
                if v:
                    _add_scaled(fiber_ab, v, out[k])
    return acc


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

    `rows_in` holds {column: value} dicts of nonzero entries, which are left
    unchanged; an int entry (`_integral_views`) is read as its residue over
    F_p.  The result lists the nonzero reduced rows, as dicts of values, in
    pivot-column order.  Every route takes the same steps, none of which
    changes the row space, and so the form:
    - empty rows and exact duplicates are dropped;
    - each row is scaled, to its `_primitive` multiple of ints over Q and
      to its monic residues over F_p, and duplicates are dropped again;
    - `_singletons` fixes the pivots the rows' structure alone decides, with
      no arithmetic, and deletes their columns from the other rows, which
      are then scaled and deduplicated once more;
    - the one loop `_eliminate` reduces the rows left: over F_p on
      residues, and over Q by `_rref_modular` at each of `_PRIMES` in turn,
      or in `Fraction` arithmetic only when every prime fails.
    Values of the field are made only for the reduced rows returned.
    """
    rational = isinstance(field, Rationals)
    if rational:
        scaled = _primitive
    else:
        p = field.p
        rows_in = ({j: v for j, x in row.items() if (v := x % p if type(x) is int else x.value)}
                   for row in rows_in)

        def scaled(row):
            inv = pow(row[min(row)], -1, p)
            return row if inv == 1 else {j: x * inv % p for j, x in row.items()}

    def distinct(rows):
        return list({frozenset(row.items()): row for row in map(scaled, rows)}.values())

    unique = {frozenset(row.items()): row for row in rows_in if row}
    fixed, rows = _singletons(distinct(unique.values()))
    if fixed:
        rows = distinct(rows)
    if rational:
        for q in _PRIMES:
            pivot_rows = _rref_modular(rows, q)
            if pivot_rows is not None:
                break
        else:
            pivot_rows = _eliminate(rows)
    else:
        pivot_rows = {c: {j: field.of_int(x) for j, x in row.items()}
                      for c, row in _eliminate(rows, p).items()}
    one = field.one()
    pivot_rows.update((j, {j: one}) for j in fixed)
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots], pivots


def _singletons(rows: list) -> tuple:
    """(fixed, rest): the pivot columns that singleton rows decide, and the
    other rows without those columns, with the rows left empty dropped.

    A row {j: x} puts e_j in the row space, so column j is a pivot, its
    reduced row is e_j and every other reduced row is zero at j: the form is
    {e_j} together with the form of the other rows with column j deleted.
    Deleting j may leave new singletons; they are fixed in turn until none
    is left (the first step of structured Gaussian elimination: LaMacchia
    and Odlyzko, CRYPTO 1990).  The closure, and so the result, does not
    depend on the order in which singletons are taken.  A row is copied only
    when it loses a column; the rows handed in are never written.
    """
    cols: dict = {}
    for r, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, []).append(r)
    live = [len(row) for row in rows]
    stack = [r for r, k in enumerate(live) if k == 1]
    fixed: set = set()
    while stack:
        r = stack.pop()
        if live[r] == 1:
            j = next(j for j in rows[r] if j not in fixed)
            fixed.add(j)
            for s in cols[j]:
                live[s] -= 1
                if live[s] == 1:
                    stack.append(s)
    return fixed, [row if k == len(row) else {j: x for j, x in row.items() if j not in fixed}
                   for row, k in zip(rows, live) if k]


def _eliminate(rows: Iterable[dict], p: Optional[int] = None) -> dict:
    """{pivot column: fully reduced row} of sparse rows of ints, eliminated
    on residues mod p, or on `Fraction` values when p is None.

    Each incoming row is copied (the rows handed in are never written) and
    reduced against the pivot rows found so far, which are kept fully reduced
    (zero in every other pivot column), so only nonzero entries are touched.
    A row left nonzero gets its first column as pivot, is scaled to 1 there
    and is cleared from the earlier pivot rows.  The reduced row echelon form
    of a matrix is unique, so pivots and rows equal those of column-by-column
    Gauss-Jordan elimination exactly.
    """
    if p is None:
        entry, subtract = Fraction, _subtract
    else:
        entry = p.__rmod__  # entry(x) is x % p

        def subtract(row, f, other):
            _subtract_mod(row, f, other, p)
    pivot_rows: dict = {}
    for source in rows:
        row = {j: y for j, x in source.items() if (y := entry(x))}
        for c, f in [(c, f) for c, f in row.items() if c in pivot_rows]:
            subtract(row, f, pivot_rows[c])
        if not row:
            continue
        c = min(row)
        lead = row[c]
        if lead != 1:
            inv = pow(lead, -1, p)
            row = {j: entry(inv * x) for j, x in row.items()}
        for other in pivot_rows.values():
            f = other.get(c)
            if f is not None:
                subtract(other, f, row)
        pivot_rows[c] = row
    return pivot_rows


def _integral(row: dict, scale: Optional[int] = None) -> dict:
    """A sparse rational row times scale, as ints; scale is by default the
    lcm of the row's denominators, and must be a multiple of each of them."""
    dens = [x.denominator for x in row.values()]
    if scale is None:
        scale = lcm(*dens)
    if scale == 1:
        return {j: x.numerator for j, x in row.items()}
    return {j: x.numerator * (scale // d) for (j, x), d in zip(row.items(), dens)}


def _integral_views(field: Field, *views, degree: int = 2) -> tuple:
    """(scaled, nonzero, scalar): the int form every kernel sums on, for sums
    of products of degree view values (3 for the operator relation).  Each
    view is a tuple of tuples of sparse {index: value} fibers, and scaled
    holds every view with int values.

    Over Q every view is multiplied by d, the lcm of all their denominators,
    so an int sum r is d^degree times the rational one: scalar(r) is
    Fraction(r, d^degree) and nonzero(r) is bool(r).  Over F_p every value
    is its residue in [0, p), r is congruent to the sum mod p: scalar(r) is
    r mod p and nonzero(r) is r % p, true when r is nonzero mod p.
    """
    if isinstance(field, Rationals):
        d = lcm(*(x.denominator for v in views for line in v for f in line for x in f.values()))
        scaled = tuple(tuple(tuple(f and _integral(f, d) for f in line) for line in v) for v in views)
        scale = d ** degree
        return scaled, bool, lambda r: Fraction(r, scale)
    scaled = tuple(tuple(tuple(f and {j: x.value for j, x in f.items()} for f in line) for line in v)
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


def _rref_modular(rows: list, p: int) -> Optional[dict]:
    """{pivot column: reduced row} of integer rows, eliminated modulo p and
    certified over Q, or None when the lift or its certificate fails.

    `_eliminate` runs on the residues of the rows mod p, so a pivot row has
    its 1 at its pivot column, nothing at other pivot columns and nothing
    before its pivot.  Every entry is lifted by `_reconstruct` and the
    lift is checked by `_certify`.  A lift that passes has n - r kernel
    vectors, one per non-pivot column, so rank over Q is at most the rank r
    mod p, which for an integer matrix is at most the rank over Q.  The ranks
    agree; each non-pivot column is then a combination of earlier pivot
    columns, the r pivot columns are independent over Q, and the pivots and
    lifted rows are the reduced row echelon form over Q, entry for entry.

    `_rref` hands it the rows `_singletons` left, which are zero at every
    fixed column.  A distinct row is the sum of its entries at the fixed
    columns and the row handed here, and every reduced row is zero at the
    fixed columns but e_j at j, so the certificate of the rows handed is the
    certificate of every distinct row, singletons included.
    """
    pivot_rows = _eliminate(rows, p)
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
    return {c: {j: value[x] for j, x in row.items()} for c, row in pivot_rows.items()}


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
    return len(_rref(m.field, m.nonzero)[1])


def pivot_columns(m: Matrix) -> list[int]:
    """Indices of the lexicographically-first maximal independent column set."""
    return _rref(m.field, m.nonzero)[1]


def kernel_basis(m: Matrix) -> list[Vec]:
    """Deterministic basis of the right null space {v : Mv = 0}."""
    z = m.field.zero()
    return [tuple(v.get(c, z) for c in range(m.cols))
            for v in _kernel(m.field, m.nonzero, m.cols)]


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
    return _solve(m.field, m.nonzero, m.cols, {i: x for i, x in enumerate(b) if x})


def _solve(field: Field, rows: Sequence[dict], ncols: int, b: dict) -> Optional[Vec]:
    """solve on sparse rows over ncols columns, with the right-hand side b
    sparse too, {row: value}: each value is appended to a copy of its row as
    column ncols."""
    rows = [{**row, ncols: b[i]} if i in b else row for i, row in enumerate(rows)]
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
    o = m.field.one()
    rows, pivots = _rref(m.field, [{**row, n + i: o} for i, row in enumerate(m.nonzero)])
    if pivots != list(range(n)):
        return None
    return Matrix(m.field, n, n, [{j - n: x for j, x in row.items() if j >= n} for row in rows])


@_record()
class Tensor3:
    """Immutable rank-3 tensor [i][j][k], stored as its nonzero fibers: a
    d1 x d2 grid of dicts fibers[i][j] = {k: value}, k in range(d3), kept as
    tuples of dicts with no zero (a fiber is copied only when it holds one), so
    == and hash mean equal entries; the dense entries are a view, built on use."""

    field: Field
    dims: tuple  # (d1, d2, d3)
    fibers: tuple  # tuple[tuple[dict, ...], ...]

    def __post_init__(self):
        # Each line is stored as the rows of a d2 x d3 matrix: O(d1 d2 + nonzeros).
        d1, d2, d3 = self.dims
        fibers = tuple(_stored(line, d2, d3) for line in self.fibers)
        if len(fibers) != d1:
            raise ValueError("fibers do not match the declared dims")
        object.__setattr__(self, "fibers", fibers)

    def __hash__(self):
        return hash((self.field, self.dims, tuple(frozenset(f.items()) for line in self.fibers for f in line)))

    @staticmethod
    def zero(field: Field, d1: int, d2: int, d3: int) -> "Tensor3":
        return Tensor3(field, (d1, d2, d3), [[{} for _ in range(d2)] for _ in range(d1)])

    @staticmethod
    def from_entries(field: Field, entries) -> "Tensor3":
        """The tensor of dense nested entries [i][j][k]; ragged input is refused."""
        ent = [[tuple(f) for f in p] for p in entries]
        d1 = len(ent)
        d2 = len(ent[0]) if d1 else 0
        d3 = len(ent[0][0]) if d1 and d2 else 0
        if any(len(p) != d2 or any(len(f) != d3 for f in p) for p in ent):
            raise ValueError("entries shape is ragged")
        return Tensor3(field, (d1, d2, d3), [[{k: x for k, x in enumerate(f) if x} for f in p] for p in ent])

    @cached_property
    def entries(self) -> tuple:
        """The dense view [i][j][k], with the field's zero off the stored fibers."""
        z, d3 = self.field.zero(), range(self.dims[2])
        return tuple(tuple(tuple(f.get(k, z) for k in d3) for f in line) for line in self.fibers)

    def fiber(self, i: int, j: int) -> Vec:
        """The vector [i][j][.] along the third index."""
        f, z = self.fibers[i][j], self.field.zero()
        return tuple(f.get(k, z) for k in range(self.dims[2]))

    def contract(self, x: Vec, y: Vec) -> Vec:
        """The bilinear map the tensor represents: sum over i, j of x_i y_j [i][j][.]."""
        d1, d2, d3 = self.dims
        if len(x) != d1 or len(y) != d2:
            raise ValueError(f"operands must have lengths {d1} and {d2}")
        xs, ys = ({i: a for i, a in enumerate(v) if a} for v in (x, y))
        f, z = _transport(self.fibers, [xs], [ys], _units(d3))[0][0], self.field.zero()
        return tuple(f.get(k, z) for k in range(d3))

    def __add__(self, other: "Tensor3") -> "Tensor3":
        if self.dims != other.dims:
            raise ValueError("tensor dims mismatch")
        out = [[dict(f) for f in line] for line in self.fibers]
        for line, other_line in zip(out, other.fibers):
            for f, g in zip(line, other_line):
                _add_scaled(f, None, g)
        return Tensor3(self.field, self.dims, out)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        return self + Tensor3(other.field, other.dims, [[{k: -x for k, x in f.items()} for f in line]
                                                        for line in other.fibers])

    def is_zero(self) -> bool:
        return not any(any(line) for line in self.fibers)
