"""Truncated 1-parameter formal deformations of an anti-pre-Lie algebra.

A deformation of order N replaces the product w by w_t = w + w_1 t + ... +
w_N t^N and requires, for every degree n = 1..N and all x, y, z,

    sum_{i+j=n} w_i(x, w_j(y,z)) - w_i(y, w_j(x,z))
                - w_i(w_j(y,x), z) + w_i(w_j(x,y), z) = 0
    sum_{i+j=n} w_i(w_j(x,y) - w_j(y,x), z) + w_i(w_j(y,z) - w_j(z,y), x)
                + w_i(w_j(z,x) - w_j(x,z), y) = 0

with w_0 = w.  Series are truncated at the chosen order everywhere: products
and inverses of truncated series simply discard higher terms, matching the
degree-by-degree way the equations are indexed.

The degree-1 part of a verified deformation is a 2-cocycle for the regular
representation; pulling a deformation back along a truncated isomorphism
Id + phi_1 t + ... preserves verification and shifts that cocycle by the
coboundary of phi_1.  When H2(A;A) = 0 every deformation can be flattened
order by order, which rigidity_certificate performs and records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Sequence

from .algebra import (
    AntiPreLieAlgebra,
    MultTable,
    Report,
    StructureError,
    Violation,
    _law_residuals,
    _law_violations,
)
from .cohomology import (
    Cochain2,
    cochain1_from_vec,
    cochain2_to_vec,
    cohomology_spaces,
    d1_matrix,
    is_cocycle,
)
from .fields import Field
from .linalg import Matrix, solve
from .representation import regular_representation

LAW_DEF_EXCHANGE = "deformation-exchange"
LAW_DEF_CYCLIC = "deformation-cyclic"


@dataclass(frozen=True)
class TruncatedDeformation:
    """Base algebra plus the bilinear terms w_1..w_N, each a MultTable shape."""

    base: AntiPreLieAlgebra
    terms: tuple  # tuple[MultTable, ...]

    def __post_init__(self):
        n = self.base.dim
        for t in self.terms:
            if t.dim != n or t.field != self.base.field:
                raise ValueError("deformation terms must match the base algebra")

    @property
    def order(self) -> int:
        return len(self.terms)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def field(self) -> Field:
        return self.base.field

    def tables(self) -> tuple:
        """(w_0, w_1, ..., w_N) with w_0 the base product."""
        return (self.base.table, *self.terms)

    @staticmethod
    def trivial(base: AntiPreLieAlgebra, order: int) -> "TruncatedDeformation":
        zero = MultTable.zero(base.field, base.dim)
        return TruncatedDeformation(base, (zero,) * order)


@dataclass(frozen=True)
class TruncatedIsomorphism:
    """Degree parts phi_1..phi_N of Id + phi_1 t + ...; phi_0 = Id implicitly."""

    phis: tuple  # tuple[Matrix, ...]

    def __post_init__(self):
        if self.phis:
            n = self.phis[0].rows
            for p in self.phis:
                if (p.rows, p.cols) != (n, n):
                    raise ValueError("all degree parts must be square of equal size")

    @property
    def order(self) -> int:
        return len(self.phis)

    @property
    def field(self) -> Optional[Field]:
        """None at order 0, where no scalars are held."""
        return self.phis[0].field if self.phis else None

    @staticmethod
    def identity(field: Field, n: int, order: int) -> "TruncatedIsomorphism":
        return TruncatedIsomorphism((Matrix.zero(field, n, n),) * order)

    def padded(self, field: Field, n: int, order: int) -> list:
        """[phi_0 .. phi_order] with phi_0 = Id, padding or truncating with zeros."""
        out = [Matrix.identity(field, n)]
        for k in range(order):
            out.append(self.phis[k] if k < len(self.phis) else Matrix.zero(field, n, n))
        return out


def _deformation_violations(d: TruncatedDeformation) -> Iterator[Violation]:
    """Both equation families per degree n and triple (a, b, c).

    The degree-n residuals are the anti-pre-Lie law residuals with w_i as the
    outer and w_j as the inner product, summed over i + j = n.
    """
    views = [t.sparse for t in d.tables()]
    zero = d.field.zero()
    laws = (LAW_DEF_EXCHANGE, LAW_DEF_CYCLIC)
    for deg in range(1, d.order + 1):
        pairs = [(views[i], views[deg - i]) for i in range(deg + 1)]
        yield from _law_violations(partial(_law_residuals, pairs), (deg,), laws, d.dim, zero)


def check_deformation(d: TruncatedDeformation) -> Report:
    """Verify both deformation equation families for every degree 1..order."""
    return Report("deformation", tuple(_deformation_violations(d)))


def is_deformation(d: TruncatedDeformation) -> bool:
    return next(_deformation_violations(d), None) is None


def verify_deformation(d: TruncatedDeformation) -> TruncatedDeformation:
    check_deformation(d).require("deformation equations fail at {count} places")
    return d


def infinitesimal(d: TruncatedDeformation) -> Cochain2:
    """The degree-1 term as a 2-cochain with coefficients in the regular
    representation; it must be a cocycle, and a failure of that assertion
    signals an unverified or corrupted deformation."""
    if d.order == 0:
        return Cochain2.zero(d.field, d.dim, d.dim)
    w1 = Cochain2.from_table(d.terms[0])
    if not is_cocycle(d.base, regular_representation(d.base), w1):
        raise StructureError("degree-1 term is not a 2-cocycle; deformation is corrupt")
    return w1


def inverse_series(phis: Sequence[Matrix]) -> list:
    """[psi_0 .. psi_N] of the truncated inverse of sum phi_k t^k, given [phi_0 = Id .. phi_N]."""
    ident = phis[0]
    psis = [ident]
    for k in range(1, len(phis)):
        acc = Matrix.zero(ident.field, ident.rows, ident.cols)
        for i in range(1, k + 1):
            acc = acc + phis[i] @ psis[k - i]
        psis.append(-acc)
    return psis


def inverse_isomorphism(iso: TruncatedIsomorphism, field: Field, n: int, order: int) -> TruncatedIsomorphism:
    psis = inverse_series(iso.padded(field, n, order))
    return TruncatedIsomorphism(tuple(psis[1:]))


def compose_isomorphisms(
    outer: TruncatedIsomorphism, inner: TruncatedIsomorphism, field: Field, n: int, order: int
) -> TruncatedIsomorphism:
    """Degree parts of the composite series (outer o inner), truncated.

    Pulling a deformation back along inner and then along outer equals one
    pullback along this composite.
    """
    phis_o = outer.padded(field, n, order)
    phis_i = inner.padded(field, n, order)
    out = []
    for k in range(1, order + 1):
        acc = Matrix.zero(field, n, n)
        for i in range(0, k + 1):
            acc = acc + phis_o[i] @ phis_i[k - i]
        out.append(acc)
    return TruncatedIsomorphism(tuple(out))


def apply_isomorphism(d: TruncatedDeformation, iso: TruncatedIsomorphism) -> TruncatedDeformation:
    """Pull the deformed product back along Phi_t = Id + phi_1 t + ...:

        w'_t = Phi_t^{-1} o w_t o (Phi_t (x) Phi_t),   truncated at d.order.

    For a verified input the result verifies as well, and its degree-1 term
    differs from the input's by the coboundary of phi_1.
    """
    n = d.dim
    field = d.field
    order = d.order
    phis = iso.padded(field, n, order)
    psis = inverse_series(phis)
    tables = d.tables()
    new_terms = []
    for deg in range(0, order + 1):
        ent = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                acc = [field.zero()] * n
                for r in range(0, min(deg, order) + 1):
                    for s in range(0, deg - r + 1):
                        for t in range(0, deg - r - s + 1):
                            q = deg - r - s - t
                            val = psis[q].apply(
                                tables[r].multiply(phis[s].col(a), phis[t].col(b))
                            )
                            acc = [x + y for x, y in zip(acc, val)]
                ent[a][b] = tuple(acc)
        new_terms.append(MultTable.from_entries(field, ent))
    if new_terms[0].tensor != d.base.table.tensor:
        raise RuntimeError("degree-0 part changed under an isomorphism with phi_0 = Id")
    return TruncatedDeformation(d.base, tuple(new_terms[1:]))


def trivialize_step(d: TruncatedDeformation, n: int) -> Optional[tuple]:
    """Flatten the first nonzero order.

    Requires w_1 = ... = w_{n-1} = 0.  When w_n is a coboundary, returns
    (phi_n, transformed deformation) where the transform by Id + phi_n t^n
    has zero terms through order n; returns None when w_n is not exact.
    """
    if not 1 <= n <= d.order:
        raise ValueError(f"order {n} outside 1..{d.order}")
    for k in range(n - 1):
        if not d.terms[k].tensor.is_zero():
            raise StructureError(f"term at order {k + 1} is nonzero; flatten lower orders first")
    field = d.field
    dim = d.dim
    w_n = d.terms[n - 1]
    reg = regular_representation(d.base)
    dd1 = d1_matrix(d.base.table, reg)
    target = tuple(-x for x in cochain2_to_vec(Cochain2.from_table(w_n)))
    phi_vec = solve(dd1, target)
    if phi_vec is None:
        return None
    phi = cochain1_from_vec(field, dim, dim, phi_vec)
    zero = Matrix.zero(field, dim, dim)
    iso = TruncatedIsomorphism(tuple(zero if k != n - 1 else phi for k in range(n)))
    transformed = apply_isomorphism(d, iso)
    for k in range(n):
        if not transformed.terms[k].tensor.is_zero():
            raise RuntimeError("trivialization step failed to cancel the target order")
    return phi, transformed


@dataclass(frozen=True)
class RigidityCertificate:
    """Outcome of trivializing sample deformations against a computed H2."""

    h2_dim: int
    order: int
    eliminations: Optional[tuple]  # per sample: tuple of phi matrices, or None

    @property
    def rigid_verified(self) -> bool:
        return self.h2_dim == 0 and self.eliminations is not None


def rigidity_certificate(
    alg: AntiPreLieAlgebra, sample_defs: Sequence[TruncatedDeformation], order: int
) -> RigidityCertificate:
    """Compute dim H2(A;A); when it is zero, flatten every sample through the
    given order by repeated trivialize_step and record each eliminating map.
    A nonzero dimension is reported as-is with no trivialization attempted."""
    spaces = cohomology_spaces(alg, regular_representation(alg))
    if spaces.h2_dim != 0:
        return RigidityCertificate(spaces.h2_dim, order, None)
    runs = []
    for d in sample_defs:
        if d.base.table.tensor != alg.table.tensor:
            raise ValueError("sample deformation has a different base algebra")
        current = d
        phis = []
        for n in range(1, min(order, d.order) + 1):
            step = trivialize_step(current, n)
            if step is None:
                raise StructureError(
                    "H2 = 0 yet an order failed to flatten; deformation was not verified"
                )
            phi, current = step
            phis.append(phi)
        for t in current.terms[: min(order, d.order)]:
            if not t.tensor.is_zero():
                raise RuntimeError("trivialization left a nonzero term in range")
        runs.append(tuple(phis))
    return RigidityCertificate(0, order, tuple(runs))
