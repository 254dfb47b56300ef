"""Abelian extensions of an anti-pre-Lie algebra by a representation.

An abelian extension is a short exact sequence 0 -> V -> E -> A -> 0 of
anti-pre-Lie algebras in which V squares to zero.  Extensions are always
materialized in the standard coordinates A + V (first n coordinates project
to A, last m carry V), which makes the canonical section explicit and
comparisons decidable; externally supplied extensions are normalized into
these coordinates first.  An AbelianExtension therefore stores only its
total algebra and the two dimensions: iota, proj and the canonical section
are derived from that layout, not stored.

Given a 2-cocycle theta, the product

    (x + u) . (y + v) = x.y + theta(x, y) + rho(x)(v) + mu(y)(u)

defines an extension; conversely a section s recovers a cocycle via
theta(x, y) = s(x) . s(y) - s(x.y) together with the actions rho(x)(u) =
s(x) . u and mu(x)(u) = u . s(x).  Two extensions over a fixed (algebra,
representation) are isomorphic exactly when their cocycles are cohomologous,
with the isomorphism zeta(x + u) = x + u + phi(x); classification is by the
second cohomology group.  Both build an extension through one cocycle gate,
the cochain complex of the pair (cohomology._Complex): classify_extensions
asks one complex for H2 and then gates each representative against the d2
rows Z2 was eliminated from, and every extension table is re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import (
    AntiPreLieAlgebra,
    MultTable,
    StructureError,
    check_morphism,
)
from .cohomology import Cochain2, _Complex, cohomologous
from .fields import Field
from .linalg import Matrix, Tensor3, kernel_basis, rank, solve, vec_is_zero, vec_sub
from .representation import Representation, _require_pair, check_representation, semidirect_product


@dataclass(frozen=True)
class AbelianExtension:
    """A verified total algebra in standard A + V coordinates.

    The structure maps are derived from the layout, not stored: iota embeds
    V as the last m coordinates, proj projects onto the first n, and section
    is the canonical splitting x -> (x, 0).
    """

    total: AntiPreLieAlgebra
    dim_a: int
    dim_v: int

    @property
    def field(self) -> Field:
        return self.total.field

    def _identity_rows(self, start: int, stop: Optional[int] = None) -> Matrix:
        size = self.dim_a + self.dim_v
        return Matrix.from_rows(self.field, Matrix.identity(self.field, size).entries[start:stop], size)

    @property
    def iota(self) -> Matrix:
        """(n+m) x m."""
        return self._identity_rows(self.dim_a).transpose()

    @property
    def proj(self) -> Matrix:
        """n x (n+m)."""
        return self._identity_rows(0, self.dim_a)

    @property
    def section(self) -> Matrix:
        """(n+m) x n."""
        return self.proj.transpose()

    def base_table(self) -> MultTable:
        """The induced product on A: the first-n block of the total product."""
        n = self.dim_a
        ent = [
            [tuple(self.total.table.basis_product(i, j)[:n]) for j in range(n)]
            for i in range(n)
        ]
        return MultTable.from_entries(self.field, ent)


def extension_table(alg_table: MultTable, rep: Representation, theta: Cochain2) -> MultTable:
    """The standard-coordinate product table built from (product, theta, rho, mu).

    No verification happens here; build_extension adds the cocycle gate.
    """
    n, m = alg_table.dim, rep.dim_v
    _require_pair(alg_table, rep)
    if (theta.dim_a, theta.dim_v) != (n, m):
        raise ValueError(f"cocycle dims {(theta.dim_a, theta.dim_v)} do not match ({n}, {m})")
    z = alg_table.field.zero()
    total = [[[z] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            total[i][j] = alg_table.basis_product(i, j) + theta.value(i, j)
        for b in range(m):
            total[i][n + b][n:] = rep.rho[i].col(b)
            total[n + b][i][n:] = rep.mu[i].col(b)
    return MultTable.from_entries(alg_table.field, total)


def build_extension(
    alg: AntiPreLieAlgebra, rep: Representation, theta: Cochain2
) -> AbelianExtension:
    """Materialize the extension of a verified algebra by a 2-cocycle.

    A non-cocycle is refused: its table would fail the anti-pre-Lie check.
    Extracting along the canonical section returns theta exactly.
    """
    return _extension(alg, _Complex(alg.table, rep), theta)


def _extension(alg: AntiPreLieAlgebra, cx: _Complex, theta: Cochain2) -> AbelianExtension:
    """build_extension, gated by the complex cx of alg and the representation."""
    if not cx.is_cocycle(theta):
        raise StructureError("theta is not a 2-cocycle; the extension product would not verify")
    table = extension_table(alg.table, cx.rep, theta)
    return AbelianExtension(AntiPreLieAlgebra.verify(table), alg.dim, cx.rep.dim_v)


def semidirect_extension(alg: AntiPreLieAlgebra, rep: Representation) -> AbelianExtension:
    """The extension with theta = 0: the semidirect product, which refuses a
    non-representation before it verifies the total table."""
    return AbelianExtension(semidirect_product(alg, rep), alg.dim, rep.dim_v)


def extract_cocycle(ext: AbelianExtension, section: Optional[Matrix] = None) -> tuple:
    """(theta, representation) read off a section.

    theta(x, y) = s(x) . s(y) - s(x.y) (its A-component vanishes by
    exactness, which is asserted); rho and mu are the actions of s(e_i) on
    the embedded V from the left and right.  The recovered pair always
    passes check_representation against the base algebra.
    """
    n, m = ext.dim_a, ext.dim_v
    field = ext.field
    s = ext.section if section is None else section
    if (s.rows, s.cols) != (n + m, n):
        raise ValueError(f"section must be {n + m}x{n}, got {s.rows}x{s.cols}")
    if ext.proj @ s != Matrix.identity(field, n):
        raise ValueError("not a section: proj o s is not the identity")
    base = ext.base_table()
    total = ext.total.table
    scols = [s.col(i) for i in range(n)]
    vcols = [ext.iota.col(b) for b in range(m)]
    theta_ent = []
    for i in range(n):
        row = []
        for j in range(n):
            diff = vec_sub(total.multiply(scols[i], scols[j]), s.apply(base.basis_product(i, j)))
            if not vec_is_zero(diff[:n]):
                raise StructureError("cocycle escaped V; extension coordinates are inconsistent")
            row.append(diff[n:])
        theta_ent.append(row)
    theta = Cochain2(Tensor3.from_entries(field, theta_ent))
    rho = []
    mu = []
    for i in range(n):
        rho_cols = []
        mu_cols = []
        for b in range(m):
            left = total.multiply(scols[i], vcols[b])
            right = total.multiply(vcols[b], scols[i])
            if not (vec_is_zero(left[:n]) and vec_is_zero(right[:n])):
                raise StructureError("action of A does not preserve V; not an abelian extension")
            rho_cols.append(left[n:])
            mu_cols.append(right[n:])
        rho.append(Matrix.from_cols(field, rho_cols, rows=m))
        mu.append(Matrix.from_cols(field, mu_cols, rows=m))
    rep = Representation(n, m, tuple(rho), tuple(mu), field)
    check_representation(base, rep).require("extracted action pair fails the representation axioms")
    return theta, rep


def normalize_extension(
    total: AntiPreLieAlgebra,
    iota: Matrix,
    proj: Matrix,
    section: Optional[Matrix] = None,
) -> AbelianExtension:
    """Validate a general extension and rewrite it in standard coordinates.

    Checks exactness (proj o iota = 0, iota injective, proj surjective,
    image(iota) = kernel(proj)), that the embedded V squares to zero, and
    that proj is a morphism onto the induced base product.  The change of
    basis (section columns, then iota columns) transports the product.
    """
    nm = total.dim
    m = iota.cols
    n = proj.rows
    field = total.field
    if iota.rows != nm or proj.cols != nm or n + m != nm:
        raise ValueError("iota/proj shapes do not assemble a short exact sequence")
    if not (proj @ iota).is_zero():
        raise StructureError("proj o iota is nonzero; sequence is not a complex")
    if rank(iota) != m:
        raise StructureError("iota is not injective")
    if rank(proj) != n:
        raise StructureError("proj is not surjective")
    ker = kernel_basis(proj)
    joint = Matrix.from_cols(field, list(ker) + [iota.col(b) for b in range(m)], rows=nm)
    if rank(joint) != m:
        raise StructureError("image(iota) differs from kernel(proj)")
    if section is None:
        cols = []
        for i in range(n):
            x = solve(proj, Matrix.identity(field, n).col(i))
            cols.append(x)
        section = Matrix.from_cols(field, cols, rows=nm)
    if (section.rows, section.cols) != (nm, n) or proj @ section != Matrix.identity(field, n):
        raise StructureError("supplied section does not split proj")
    for a in range(m):
        for b in range(m):
            if not vec_is_zero(total.table.multiply(iota.col(a), iota.col(b))):
                raise StructureError("embedded V does not square to zero; extension is not abelian")
    change = Matrix.from_cols(
        field, [section.col(i) for i in range(n)] + [iota.col(b) for b in range(m)], rows=nm
    )
    std_table = total.table.conjugate(change)
    ext = AbelianExtension(AntiPreLieAlgebra.verify(std_table), n, m)
    base = ext.base_table()
    check_morphism(proj, total.table, base).require("projection is not an algebra morphism")
    return ext


def are_isomorphic(ext1: AbelianExtension, ext2: AbelianExtension) -> Optional[Matrix]:
    """An isomorphism zeta commuting with iota and proj, or None.

    Both extensions must induce the same base algebra and the same
    representation (checked via extraction; a mismatch is refused).  When the
    extracted cocycles are cohomologous via phi, zeta(x + u) = x + u + phi(x),
    the matrix I + iota phi proj, is returned after being re-verified as a
    morphism fixing V and covering the identity on A.
    """
    if (ext1.dim_a, ext1.dim_v) != (ext2.dim_a, ext2.dim_v):
        raise ValueError("extensions have different dimensions")
    base1 = ext1.base_table()
    base2 = ext2.base_table()
    if base1.tensor != base2.tensor:
        raise ValueError("extensions are over different base algebras")
    theta1, rep1 = extract_cocycle(ext1)
    theta2, rep2 = extract_cocycle(ext2)
    if rep1 != rep2:
        raise ValueError("extensions induce different representations")
    phi = cohomologous(base1, rep1, theta1, theta2)
    if phi is None:
        return None
    zeta = Matrix.identity(ext1.field, ext1.total.dim) + ext1.iota @ phi @ ext1.proj
    morph = check_morphism(zeta, ext1.total.table, ext2.total.table)
    if not morph.ok:
        raise RuntimeError("cohomologous cocycles produced a non-morphism; solver inconsistency")
    if zeta @ ext1.iota != ext2.iota or ext2.proj @ zeta != ext1.proj:
        raise RuntimeError("isomorphism does not commute with the exact sequences")
    return zeta


def classify_extensions(alg: AntiPreLieAlgebra, rep: Representation) -> tuple:
    """One extension per cohomology class representative.

    Returns ((theta, extension), ...) where the thetas are the deterministic
    second-cohomology representatives; distinct entries are pairwise
    non-isomorphic, and the class of the semidirect product (theta = 0) is
    the zero class not listed here.
    """
    cx = _Complex(alg.table, rep)
    return tuple((theta, _extension(alg, cx, theta)) for theta in cx.spaces().h2_representatives)
