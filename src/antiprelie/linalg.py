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

Bilinear maps are evaluated in two ways, each with its own job.  Every law
residual on basis triples (and pairs) is summed by `_accumulate` from the
nonzero structure constants and action entries only; `Tensor3.contract`
evaluates a product of two arbitrary coordinate vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .fields import Field, Scalar

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


def _accumulate(acc: dict, coeffs: dict, fibers, negate: bool = False) -> None:
    """acc += sum over a of coeffs[a] * fibers[a] in place (-= with negate),
    where acc, coeffs and every fibers[a] are sparse {index: value} dicts.

    Only nonzero products are formed; an entry that cancels stays as a zero.
    """
    for a, x in coeffs.items():
        if negate:
            x = -x
        for j, y in fibers[a].items():
            v = acc.get(j)
            acc[j] = x * y if v is None else v + x * y


def _rref(field: Field, rows_in: Iterable[dict]):
    """Reduced row echelon form of sparse rows; returns (rows, pivot columns).

    `rows_in` holds {column: value} dicts of nonzero entries (they are
    consumed); the result lists the nonzero reduced rows, as such dicts, in
    pivot-column order.  Each incoming row is reduced against the pivot rows
    found so far, which are kept fully reduced (zero in every other pivot
    column), so only nonzero entries are touched.  A row left nonzero gets its
    first column as pivot and is cleared from the earlier pivot rows.  The
    reduced row echelon form of a matrix is unique, so pivots and rows equal
    those of column-by-column Gauss-Jordan elimination exactly.
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


def rank(m: Matrix) -> int:
    return len(_rref(m.field, _sparse_rows(m.entries))[1])


def pivot_columns(m: Matrix) -> list[int]:
    """Indices of the lexicographically-first maximal independent column set."""
    return _rref(m.field, _sparse_rows(m.entries))[1]


def kernel_basis(m: Matrix) -> list[Vec]:
    """Deterministic basis of the right null space {v : Mv = 0}."""
    return _kernel(m.field, _sparse_rows(m.entries), m.cols)


def _kernel(field: Field, rows: Iterable[dict], ncols: int) -> list[Vec]:
    """The kernel basis of sparse rows of nonzero entries over ncols columns.

    One vector per free column f, with 1 at f and minus the RREF column f at
    the pivots; a pivot row is nonzero only at its pivot and at free columns.
    """
    reduced, pivots = _rref(field, rows)
    z, o = field.zero(), field.one()
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = {f: [z] * ncols for f in free}
    for f, v in basis.items():
        v[f] = o
    for pc, row in zip(pivots, reduced):
        for f, x in row.items():
            if f != pc:
                basis[f][pc] = -x
    return [tuple(v) for v in basis.values()]


def solve(m: Matrix, b: Vec) -> Optional[Vec]:
    """One exact solution of Mx = b (free variables set to zero), or None."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} does not match {m.rows} rows")
    aug = _sparse_rows(m.entries)
    for row, bb in zip(aug, b):
        if bb:
            row[m.cols] = bb
    rows, pivots = _rref(m.field, aug)
    if pivots and pivots[-1] == m.cols:
        return None
    z = m.field.zero()
    x = [z] * m.cols
    for pc, row in zip(pivots, rows):
        x[pc] = row.get(m.cols, z)
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
