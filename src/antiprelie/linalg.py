"""Dense exact linear algebra on immutable matrices and rank-3 tensors.

Everything is pure and deterministic: Gaussian elimination always picks the
first nonzero pivot in column order, so kernel bases, solutions and inverses
are reproducible across runs and platforms.  Dimensions stay at desk scale,
so dense storage is used throughout.
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


def lincomb(coeffs: Vec, mats: Sequence[Matrix]) -> Matrix:
    """Sum of coeffs[a] * mats[a]; mats must be nonempty and same shape."""
    acc = Matrix.zero(mats[0].field, mats[0].rows, mats[0].cols)
    for c, m in zip(coeffs, mats, strict=True):
        if c:
            acc = acc + m.scale(c)
    return acc


def _rref(field: Field, rows_in: Sequence[Sequence[Scalar]], ncols: int):
    """Reduced row echelon form; returns (rows, pivot column indices).

    Pivot choice is the first row with a nonzero entry, scanning columns left
    to right: fully deterministic.
    """
    rows = [list(r) for r in rows_in]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.one() / rows[r][c]
        rows[r] = [inv * x if x else x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(m: Matrix) -> int:
    return len(_rref(m.field, m.entries, m.cols)[1])


def pivot_columns(m: Matrix) -> list[int]:
    """Indices of the lexicographically-first maximal independent column set."""
    return _rref(m.field, m.entries, m.cols)[1]


def kernel_basis(m: Matrix) -> list[Vec]:
    """Deterministic basis of the right null space {v : Mv = 0}."""
    rows, pivots = _rref(m.field, m.entries, m.cols)
    z, o = m.field.zero(), m.field.one()
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [z] * m.cols
        v[f] = o
        for r_idx, pc in enumerate(pivots):
            v[pc] = -rows[r_idx][f]
        basis.append(tuple(v))
    return basis


def solve(m: Matrix, b: Vec) -> Optional[Vec]:
    """One exact solution of Mx = b (free variables set to zero), or None."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} does not match {m.rows} rows")
    aug = [list(r) + [bb] for r, bb in zip(m.entries, b)]
    rows, pivots = _rref(m.field, aug, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    z = m.field.zero()
    x = [z] * m.cols
    for r_idx, pc in enumerate(pivots):
        x[pc] = rows[r_idx][m.cols]
    return tuple(x)


def invert(m: Matrix) -> Optional[Matrix]:
    """Exact inverse, or None when singular; non-square input is an error."""
    if not m.is_square():
        raise ValueError(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    ident = Matrix.identity(m.field, n)
    aug = [list(r) + list(ir) for r, ir in zip(m.entries, ident.entries)]
    rows, pivots = _rref(m.field, aug, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) != n:
        return None
    return Matrix(m.field, n, n, tuple(tuple(r[n:]) for r in rows))


def in_span(vectors: Sequence[Vec], v: Vec, field: Field) -> bool:
    """Whether v lies in the span of the given vectors (all of equal length)."""
    if vec_is_zero(v):
        return True
    if not vectors:
        return False
    m = Matrix.from_cols(field, list(vectors), rows=len(v))
    return solve(m, v) is not None


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
