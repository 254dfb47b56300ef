"""Exhaustive and sampled search for small verified instances over prime fields.

There are no worked numeric examples to import from anywhere, so the test
fixtures come from here: enumerate the cells of candidate structure tables,
operator matrices, bilinear forms or action pairs over F_p (p in {2, 3, 5},
dim <= 3), keep the ones that pass the exact verification for their kind, and
optionally lift small instances to the rationals (centered residues) for
re-verification over Q.

The exhaustive search is a depth-first backtracker on ints mod p (Golomb and
Baumert, J. ACM 1965).  Every residual coordinate (law, at, index) of the four
kinds is a polynomial of degree <= 2 in the cells, so its coefficients are read
off the kind's own check_* report at 0, e_a, 2e_a (odd p) and e_a + e_b
(polarization); no law is written out here.  Cells are assigned in index order
with values ascending, a branch is cut as soon as a coordinate whose last cell
was just assigned is nonzero, and every surviving leaf is built and confirmed
by the exact check, so the hits, and their lexicographic order, are those of
the full scan.  Form nondegeneracy is not a polynomial and is decided only by
that leaf check.  Bounded random sampling (seeded, deterministic) draws
candidates instead, each confirmed by the same check.

Exhaustive enumeration refuses spaces larger than MAX_EXHAUSTIVE candidates
before their size p**cells is computed, reporting it in that form; a sampled
search refuses more than MAX_EXHAUSTIVE draws, and spaces whose size does not
print in MAX_SPACE_DIGITS digits.  Negative dimensions, sample counts and
result limits are rejected when the spec is made.  Each kind imports the
modules of its own checks when it runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from .algebra import MultTable, Report, check_anti_pre_lie, is_anti_pre_lie
from .fields import Fp, PrimeField, QQ, _record
from .linalg import Matrix, Tensor3

if TYPE_CHECKING:
    from .representation import Representation

MAX_EXHAUSTIVE = 2_000_000
# The space size is reported as an exact JSON integer, and Python reads and
# writes integers of at most 4300 digits by default, so even a sampled search
# refuses a space with more digits than that.
MAX_SPACE_DIGITS = 4300


class SearchRefused(ValueError):
    """A search too large to run: too many candidates to scan or draw, or a
    space too large to report."""


class SearchSpaceTooLarge(SearchRefused):
    def __init__(self, p: int, cells: int, bound: str = f"exhaustive bound is {MAX_EXHAUSTIVE}"):
        super().__init__(f"search space has {p}**{cells} candidates; {bound}")
        self.p, self.cells = p, cells

    @property
    def size(self) -> int:
        return self.p**self.cells


def _exceeds(p: int, cells: int, bound: int) -> bool:
    """Whether p**cells > bound, without computing p**cells when it is far larger.

    p >= 2**(b - 1) for b = p.bit_length(), so once cells * (b - 1) reaches
    bound.bit_length() the space already exceeds the bound; below that
    p**cells has at most twice the bits of the bound and is compared exactly.
    """
    return cells * (p.bit_length() - 1) >= bound.bit_length() or p**cells > bound


@_record()
class SearchSpec:
    """What to enumerate: kind, dimensions, prime, and the enumeration mode.

    With exhaustive=True the full space is scanned (refused when too large);
    otherwise `samples` random candidates are drawn with the given seed.
    max_results truncates the verified output list.
    """

    kind: str  # "algebra" | "representation" | "o-operator" | "bilinear-form"
    dim: int
    p: int
    dim_v: int = 0
    exhaustive: bool = True
    samples: int = 0
    max_results: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "dim_v", "samples", "max_results"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must not be negative, got {value}")


def _size(spec: SearchSpec, cells: int) -> int:
    """p**cells, refused before it is computed for an exhaustive scan above
    MAX_EXHAUSTIVE and for any space with more than MAX_SPACE_DIGITS digits;
    a sampled search of more than MAX_EXHAUSTIVE draws is refused too."""
    p = spec.p
    if not spec.exhaustive and spec.samples > MAX_EXHAUSTIVE:
        raise SearchRefused(f"a sampled search draws at most {MAX_EXHAUSTIVE} candidates")
    if spec.exhaustive and _exceeds(p, cells, MAX_EXHAUSTIVE):
        raise SearchSpaceTooLarge(p, cells)
    if _exceeds(p, cells, 10**MAX_SPACE_DIGITS - 1):
        raise SearchSpaceTooLarge(
            p, cells, f"a reported size has at most {MAX_SPACE_DIGITS} digits"
        )
    return p**cells


def space_size(spec: SearchSpec) -> int:
    """Candidates in the space; a spec whose search would be refused is refused here."""
    cells = {
        "algebra": spec.dim**3,
        "representation": 2 * spec.dim * spec.dim_v * spec.dim_v,
        "o-operator": spec.dim * spec.dim_v,
        "bilinear-form": spec.dim * spec.dim,
    }
    if spec.kind not in cells:
        raise ValueError(f"unknown search kind: {spec.kind!r}")
    return _size(spec, cells[spec.kind])


def _coordinates(report: Report) -> dict:
    """{(law, at, index): residue} over the nonzero residual coordinates of a
    report, matrix residuals read row-major; nondegeneracy, whose residual
    is zero, is left out."""
    out = {}
    for v in report.violations:
        flat = v.residual
        if flat and isinstance(flat[0], tuple):
            flat = [x for row in flat for x in row]
        for index, x in enumerate(flat):
            if x.value:
                out[(v.law, v.at, index)] = x.value
    return out


def polarize(residuals: Callable, n_cells: int, p: int) -> dict:
    """{coordinate: {monomial: coefficient mod p}} for residuals(cells), a map
    of nonzero coordinates that is a polynomial of degree <= 2 in the cells.

    Monomial () is the constant, (a,) the linear term in cell a and (a, b),
    a <= b, the quadratic one.  With R(x) = c + sum l_a x_a + sum q_ab x_a x_b:
    c = R(0); R(e_a) - c = l_a + q_aa; (R(2e_a) - c) / 2 - (l_a + q_aa) = q_aa;
    R(e_a + e_b) - c - (l_a + q_aa) - (l_b + q_bb) = q_ab.  Over F_2, x*x = x,
    so q_aa is folded into l_a and 2e_a is never probed.

    The 1 + 2N + N(N-1)/2 probes (N cells; 1 + N + N(N-1)/2 over F_2) are
    law checks of fixed points, not of candidates: a candidate is an
    assignment that the backtracker reaches and the search confirms.
    """
    def probe(*assigned) -> dict:
        cells = [0] * n_cells
        for a, v in assigned:
            cells[a] = v
        return residuals(tuple(cells))

    def combine(*terms) -> dict:
        out = {}
        for coef, values in terms:
            for key, x in values.items():
                out[key] = (out.get(key, 0) + coef * x) % p
        return {key: x for key, x in out.items() if x}

    polys = {}

    def put(monomial: tuple, values: dict) -> None:
        for key, x in values.items():
            polys.setdefault(key, {})[monomial] = x

    const = probe()
    put((), const)
    half = (p + 1) // 2  # the inverse of 2 mod an odd p
    units = []
    for a in range(n_cells):
        unit = combine((1, probe((a, 1))), (-1, const))
        units.append(unit)
        if p == 2:
            put((a,), unit)
            continue
        square = combine((half, probe((a, 2))), (-half, const), (-1, unit))
        put((a,), combine((1, unit), (-1, square)))
        put((a, a), square)
    for a, b in combinations(range(n_cells), 2):
        put((a, b), combine((1, probe((a, 1), (b, 1))), (-1, const), (-1, units[a]),
                            (-1, units[b])))
    return polys


def _constraints(polys: dict, n_cells: int) -> Optional[list]:
    """The polynomials grouped by the last cell they read, or None when one is
    a nonzero constant (no assignment passes).

    With x_c the last cell, a polynomial is rest + x_c (slope + square x_c),
    where rest is a list of (coef, a, b) for coef x_a x_b and slope a list of
    (coef, a) for coef x_a, over cells before c and the index n_cells of a
    cell fixed at 1.
    """
    one = n_cells
    groups = [[] for _ in range(n_cells)]
    for poly in polys.values():
        last = max((max(m) for m in poly if m), default=None)
        if last is None:
            return None
        rest, slope, square = [], [], 0
        for monomial, coef in poly.items():
            a, b = (*monomial, one, one)[:2]
            if last not in (a, b):
                rest.append((coef, a, b))
            elif a == b:
                square = coef
            else:
                slope.append((coef, b if a == last else a))
        groups[last].append((rest, slope, square))
    return groups


def _backtrack(p: int, n_cells: int, groups: list) -> Iterator[tuple]:
    """Assignments of the cells in lexicographic order that zero every
    polynomial of groups, each checked once its last cell is assigned."""
    if n_cells == 0:
        yield ()
        return
    x = [0] * n_cells + [1]

    def values(c: int) -> Iterator[int]:
        passing = range(p)
        for rest, slope, square in groups[c]:
            r = sum(coef * x[a] * x[b] for coef, a, b in rest)
            s = sum(coef * x[a] for coef, a in slope)
            passing = [v for v in passing if (r + v * (s + v * square)) % p == 0]
            if not passing:
                break
        return iter(passing)

    stack = [values(0)]
    while stack:
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        c = len(stack) - 1
        x[c] = v
        if c + 1 == n_cells:
            yield tuple(x[:n_cells])
        else:
            stack.append(values(c + 1))


def _draws(spec: SearchSpec, n_cells: int, size: int) -> Iterator[tuple]:
    """spec.samples seeded draws from the space, repeats skipped."""
    rng = random.Random(spec.seed)
    seen = set()
    for _ in range(spec.samples):
        idx = rng.randrange(size)
        if idx in seen:
            continue
        seen.add(idx)
        digits = []
        for _ in range(n_cells):
            digits.append(idx % spec.p)
            idx //= spec.p
        yield tuple(reversed(digits))


def _scan(spec: SearchSpec, n_cells: int, build: Callable, check: Callable) -> list:
    """The candidates build(cells) whose Report check(obj) is ok, in candidate
    order and at most spec.max_results of them; polarize derives the
    exhaustive backtracker's constraints from the same Report."""
    size = _size(spec, n_cells)
    if spec.max_results == 0:
        return []
    if spec.exhaustive:
        polys = polarize(lambda cells: _coordinates(check(build(cells))), n_cells, spec.p)
        groups = _constraints(polys, n_cells)
        candidates = () if groups is None else _backtrack(spec.p, n_cells, groups)
    else:
        candidates = _draws(spec, n_cells, size)
    out = []
    for cells in candidates:
        obj = build(cells)
        if check(obj).ok:
            out.append(obj)
            if len(out) == spec.max_results:
                break
    return out


def _residues(spec: SearchSpec, kind: str) -> tuple:
    """F_p and its elements 0..p-1, shared by every candidate; a spec of another kind is refused."""
    if spec.kind != kind:
        raise ValueError(f"a {spec.kind!r} spec cannot drive a {kind!r} search")
    field = PrimeField(spec.p)
    return field, tuple(field.of_int(v) for v in range(spec.p))


def _matrix(field: PrimeField, x: tuple, rows: int, cols: int, cells: tuple) -> Matrix:
    return Matrix(field, rows, cols, [{c: x[v] for c, v in enumerate(cells[r * cols:r * cols + cols]) if v}
                                      for r in range(rows)])


def search_algebras(spec: SearchSpec) -> list:
    """All (or sampled) tables over F_p passing the anti-pre-Lie check."""
    field, x = _residues(spec, "algebra")
    n = spec.dim

    def build(cells):
        """The table whose entry [i][j][k] is cell (i n + j) n + k, written as its fibers."""
        fibers = [{k: x[c] for k, c in enumerate(cells[ij * n:ij * n + n]) if c} for ij in range(n * n)]
        return MultTable(Tensor3(field, (n, n, n), [fibers[i * n:i * n + n] for i in range(n)]))

    return _scan(spec, n**3, build, check_anti_pre_lie)


def search_representations(spec: SearchSpec, table: MultTable) -> list:
    """Action pairs (rho, mu) on F_p^m passing the representation axioms."""
    from .representation import Representation, check_representation

    field, x = _residues(spec, "representation")
    n, m = spec.dim, spec.dim_v
    if table.dim != n:
        raise ValueError("table dimension does not match the spec")
    per_mat = m * m

    def build(cells):
        mats = tuple(_matrix(field, x, m, m, cells[t * per_mat:(t + 1) * per_mat])
                     for t in range(2 * n))
        return Representation(n, m, mats[:n], mats[n:], field)

    return _scan(spec, 2 * n * per_mat, build, lambda rep: check_representation(table, rep))


def search_o_operators(spec: SearchSpec, table: MultTable, rep: Representation) -> list:
    """Matrices V -> A over F_p satisfying the operator relation."""
    from .dendriform import check_O_operator

    field, x = _residues(spec, "o-operator")
    n, m = spec.dim, spec.dim_v
    if table.dim != n or rep.dim_v != m:
        raise ValueError("context dimensions do not match the spec")
    return _scan(spec, n * m, lambda cells: _matrix(field, x, n, m, cells),
                 lambda t: check_O_operator(table, rep, t))


def search_bilinear_forms(spec: SearchSpec, table: MultTable, strict_skew: bool = False) -> list:
    """Nondegenerate forms satisfying both pairing identities (and optionally
    full skewness)."""
    from .dendriform import check_form_invariance

    field, x = _residues(spec, "bilinear-form")
    n = spec.dim
    if table.dim != n:
        raise ValueError("table dimension does not match the spec")
    return _scan(spec, n * n, lambda cells: _matrix(field, x, n, n, cells),
                 lambda b: check_form_invariance(table, b, strict_skew=strict_skew))


def _lift_scalar(x: Fp) -> Fraction:
    """Centered lift: residues above p/2 become negative integers."""
    return Fraction(x.value if x.value <= x.p // 2 else x.value - x.p)


def lift_matrix(m: Matrix) -> Matrix:
    return Matrix(QQ, m.rows, m.cols, [{j: _lift_scalar(x) for j, x in r.items()} for r in m.nonzero])


def lift_table(t: MultTable) -> MultTable:
    return MultTable(Tensor3(QQ, t.tensor.dims, [[{k: _lift_scalar(x) for k, x in f.items()} for f in line]
                                                 for line in t.tensor.fibers]))


def lift_representation(rep: Representation) -> Representation:
    from .representation import Representation

    return Representation(
        rep.dim_a,
        rep.dim_v,
        tuple(lift_matrix(m) for m in rep.rho),
        tuple(lift_matrix(m) for m in rep.mu),
        QQ,
    )


def rational_algebra_corpus(dim: int, p: int = 3, max_results: Optional[int] = None) -> list:
    """Lift every F_p-verified table to Q and keep the ones passing over Q.

    Deterministic: enumeration order is lexicographic over cells, duplicates
    (tables equal after centering) are dropped.
    """
    spec = SearchSpec(kind="algebra", dim=dim, p=p)
    out = []
    seen = set()
    for table in search_algebras(spec):
        lifted = lift_table(table)
        if lifted.tensor in seen:
            continue
        seen.add(lifted.tensor)
        if is_anti_pre_lie(lifted):
            out.append(lifted)
            if max_results is not None and len(out) >= max_results:
                break
    return out
