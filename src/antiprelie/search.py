"""Brute-force search for small verified instances over prime fields.

There are no worked numeric examples to import from anywhere, so the test
fixtures come from here: enumerate candidate structure tables, operator
matrices, bilinear forms or action pairs over F_p (p in {2, 3, 5}, dim <= 3),
keep the ones that pass the exact verification for their kind, and optionally
lift small instances to the rationals (centered residues) for re-verification
over Q.

Exhaustive enumeration refuses spaces larger than MAX_EXHAUSTIVE candidates
before their size p**cells is computed, reporting it in that form; bounded
random sampling (seeded, deterministic) covers the rest, up to spaces whose
size still prints in MAX_SPACE_DIGITS digits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional

from .algebra import MultTable, is_anti_pre_lie
from .dendriform import check_form_invariance, is_O_operator
from .fields import Fp, PrimeField, QQ
from .linalg import Matrix, Tensor3
from .representation import Representation, is_representation

MAX_EXHAUSTIVE = 2_000_000
# The space size is reported as an exact JSON integer, and Python reads and
# writes integers of at most 4300 digits by default, so even a sampled search
# refuses a space with more digits than that.
MAX_SPACE_DIGITS = 4300


class SearchSpaceTooLarge(ValueError):
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


def _size(p: int, cells: int, exhaustive: bool) -> int:
    """p**cells, refused before it is computed for an exhaustive scan above
    MAX_EXHAUSTIVE and for any space with more than MAX_SPACE_DIGITS digits."""
    if exhaustive and _exceeds(p, cells, MAX_EXHAUSTIVE):
        raise SearchSpaceTooLarge(p, cells)
    if _exceeds(p, cells, 10**MAX_SPACE_DIGITS - 1):
        raise SearchSpaceTooLarge(
            p, cells, f"a reported size has at most {MAX_SPACE_DIGITS} digits"
        )
    return p**cells


@dataclass(frozen=True)
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


def space_size(spec: SearchSpec) -> int:
    """Candidates in the space; an exhaustive spec beyond MAX_EXHAUSTIVE, or any spec beyond
    MAX_SPACE_DIGITS digits, is refused."""
    cells = {
        "algebra": spec.dim**3,
        "representation": 2 * spec.dim * spec.dim_v * spec.dim_v,
        "o-operator": spec.dim * spec.dim_v,
        "bilinear-form": spec.dim * spec.dim,
    }
    if spec.kind not in cells:
        raise ValueError(f"unknown search kind: {spec.kind!r}")
    return _size(spec.p, cells[spec.kind], spec.exhaustive)


def _candidates(spec: SearchSpec, n_cells: int) -> Iterator[tuple]:
    """Cell-value tuples in deterministic order (lexicographic or seeded)."""
    size = _size(spec.p, n_cells, spec.exhaustive)
    if spec.exhaustive:
        yield from product(range(spec.p), repeat=n_cells)
    else:
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


def _table_from_cells(field: PrimeField, n: int, cells: tuple) -> MultTable:
    it = iter(cells)
    ent = [[[Fp(next(it), field.p) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return MultTable(Tensor3.from_entries(field, ent))


def search_algebras(spec: SearchSpec) -> list:
    """All (or sampled) tables over F_p passing the anti-pre-Lie check."""
    field = PrimeField(spec.p)
    n = spec.dim
    out = []
    for cells in _candidates(spec, n**3):
        table = _table_from_cells(field, n, cells)
        if is_anti_pre_lie(table):
            out.append(table)
            if spec.max_results is not None and len(out) >= spec.max_results:
                break
    return out


def search_representations(spec: SearchSpec, table: MultTable) -> list:
    """Action pairs (rho, mu) on F_p^m passing the representation axioms."""
    field = PrimeField(spec.p)
    n, m = spec.dim, spec.dim_v
    if table.dim != n:
        raise ValueError("table dimension does not match the spec")
    out = []
    per_mat = m * m
    for cells in _candidates(spec, 2 * n * per_mat):
        mats = []
        for t in range(2 * n):
            chunk = cells[t * per_mat:(t + 1) * per_mat]
            mats.append(Matrix(field, m, m, tuple(
                tuple(Fp(chunk[r * m + c], spec.p) for c in range(m)) for r in range(m)
            )))
        rep = Representation(n, m, tuple(mats[:n]), tuple(mats[n:]))
        if is_representation(table, rep):
            out.append(rep)
            if spec.max_results is not None and len(out) >= spec.max_results:
                break
    return out


def search_o_operators(spec: SearchSpec, table: MultTable, rep: Representation) -> list:
    """Matrices V -> A over F_p satisfying the operator relation."""
    field = PrimeField(spec.p)
    n, m = spec.dim, spec.dim_v
    if table.dim != n or rep.dim_v != m:
        raise ValueError("context dimensions do not match the spec")
    out = []
    for cells in _candidates(spec, n * m):
        t = Matrix(field, n, m, tuple(
            tuple(Fp(cells[r * m + c], spec.p) for c in range(m)) for r in range(n)
        ))
        if is_O_operator(table, rep, t):
            out.append(t)
            if spec.max_results is not None and len(out) >= spec.max_results:
                break
    return out


def search_bilinear_forms(spec: SearchSpec, table: MultTable, strict_skew: bool = False) -> list:
    """Nondegenerate forms satisfying both pairing identities (and optionally
    full skewness)."""
    field = PrimeField(spec.p)
    n = spec.dim
    if table.dim != n:
        raise ValueError("table dimension does not match the spec")
    out = []
    for cells in _candidates(spec, n * n):
        b = Matrix(field, n, n, tuple(
            tuple(Fp(cells[r * n + c], spec.p) for c in range(n)) for r in range(n)
        ))
        if check_form_invariance(table, b, strict_skew=strict_skew).ok:
            out.append(b)
            if spec.max_results is not None and len(out) >= spec.max_results:
                break
    return out


def _lift_scalar(x: Fp) -> Fraction:
    """Centered lift: residues above p/2 become negative integers."""
    return Fraction(x.value if x.value <= x.p // 2 else x.value - x.p)


def lift_matrix(m: Matrix) -> Matrix:
    return Matrix(QQ, m.rows, m.cols, tuple(tuple(_lift_scalar(x) for x in r) for r in m.entries))


def lift_table(t: MultTable) -> MultTable:
    ent = tuple(tuple(tuple(_lift_scalar(x) for x in f) for f in p) for p in t.tensor.entries)
    return MultTable(Tensor3(QQ, t.tensor.dims, ent))


def lift_representation(rep: Representation) -> Representation:
    return Representation(
        rep.dim_a,
        rep.dim_v,
        tuple(lift_matrix(m) for m in rep.rho),
        tuple(lift_matrix(m) for m in rep.mu),
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
        key = lifted.tensor.entries
        if key in seen:
            continue
        seen.add(key)
        if is_anti_pre_lie(lifted):
            out.append(lifted)
            if max_results is not None and len(out) >= max_results:
                break
    return out
