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
s(x) . u and mu(x)(u) = u . s(x), each a linalg._transport of the total
product along s and iota.  Two extensions over a fixed (algebra,
representation) are isomorphic exactly when their cocycles are cohomologous,
with the isomorphism zeta(x + u) = x + u + phi(x); classification is by the
second cohomology group.  Both build an extension through one cocycle gate,
the cochain complex of the pair (cohomology._Complex): classify_extensions
asks one complex for H2 and then gates each representative against the d2
rows Z2 was eliminated from, and every extension table is re-verified.
"""

from __future__ import annotations

from typing import Optional

from .algebra import AntiPreLieAlgebra, MultTable, StructureError, check_morphism
from .cohomology import Cochain2, _Complex, _require_cochain, cohomologous
from .fields import Field, _record, _require_field
from .linalg import Matrix, Tensor3, _columns, _kernel, _transport, _transpose, _units, basis_vec, rank, solve
from .representation import Representation, _require_pair, check_representation, semidirect_product


@_record()
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
        one, size = self.field.one(), self.dim_a + self.dim_v
        rows = [{i: one} for i in range(size)[start:stop]]
        return Matrix(self.field, len(rows), size, rows)

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
        """The induced product on A: proj(s(x) . s(y)) along the canonical section s."""
        n = self.dim_a
        return MultTable(Tensor3(self.field, (n, n, n), _transport(
            self.total.table.tensor.fibers, _units(n), _units(n), _units(n) + [{}] * self.dim_v)))


def extension_table(alg_table: MultTable, rep: Representation, theta: Cochain2) -> MultTable:
    """The standard-coordinate product table built from (product, theta, rho, mu).

    Its fibers are written from theirs, theta's at the V coordinates n + k,
    and only where they are nonzero: one empty dict stands for every empty
    fiber, and a product fiber is kept as stored where theta's is empty.
    No verification happens here; build_extension adds the cocycle gate.
    """
    n, m = alg_table.dim, rep.dim_v
    _require_pair(alg_table, rep)
    _require_cochain(alg_table, rep, theta)
    empty = {}
    total = [[empty] * (n + m) for _ in range(n + m)]
    for i, (prods, values) in enumerate(zip(alg_table.tensor.fibers, theta.tensor.fibers)):
        total[i][:n] = [{**p, **{n + k: x for k, x in t.items()}} if t else p for p, t in zip(prods, values)]
    for i, mats in enumerate(zip(*rep.sparse)):
        for b, (rho_col, mu_col) in enumerate(zip(*(_transpose(mat, m) for mat in mats))):
            if rho_col:
                total[i][n + b] = {n + r: x for r, x in rho_col.items()}
            if mu_col:
                total[n + b][i] = {n + r: x for r, x in mu_col.items()}
    return MultTable(Tensor3(alg_table.field, (n + m,) * 3, total))


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
    n, m, field = ext.dim_a, ext.dim_v, ext.field
    s = ext.section if section is None else section
    _require_field("section", s.field, field)
    if (s.rows, s.cols) != (n + m, n):
        raise ValueError(f"section must be {n + m}x{n}, got {s.rows}x{s.cols}")
    if ext.proj @ s != Matrix.identity(field, n):
        raise ValueError("not a section: proj o s is not the identity")
    rows = ext.total.table.tensor.fibers
    cols, iota, units = _columns(s), _units(m, n), _units(n + m)
    # s(x.y), with x.y = proj(e_x . e_y), is the product read out through -s o proj.
    values = _transport(rows, cols, cols, units)
    _transport(rows, _units(n), _units(n), _columns(-s) + [{}] * m, values)

    def v_part(grid: list, message: str) -> list:
        if any(x for line in grid for f in line for k, x in f.items() if k < n):
            raise StructureError(message)
        return [[{k - n: x for k, x in f.items() if x} for f in line] for line in grid]

    theta = Cochain2(Tensor3(field, (n, n, m), v_part(
        values, "cocycle escaped V; extension coordinates are inconsistent")))
    # rho(e_i) e_b = s(e_i) . e_(n+b); mu(e_i) e_b is the same with the factors swapped.
    rho, mu = (tuple(Matrix(field, m, m, _transpose(line, m)) for line in v_part(
        _transport(w, cols, iota, units), "action of A does not preserve V; not an abelian extension"))
        for w in (rows, tuple(zip(*rows))))
    rep = Representation(n, m, rho, mu, field)
    check_representation(ext.base_table(), rep).require(
        "extracted action pair fails the representation axioms")
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
    nm, m, n, field = total.dim, iota.cols, proj.rows, total.field
    if iota.rows != nm or proj.cols != nm or n + m != nm:
        raise ValueError("iota/proj shapes do not assemble a short exact sequence")
    if not (proj @ iota).is_zero():
        raise StructureError("proj o iota is nonzero; sequence is not a complex")
    if rank(iota) != m:
        raise StructureError("iota is not injective")
    if rank(proj) != n:
        raise StructureError("proj is not surjective")
    # The kernel of proj and the image of iota, as the rows of one matrix.
    v_cols = _columns(iota)
    spans = _kernel(field, proj.nonzero, nm) + v_cols
    if rank(Matrix(field, len(spans), nm, spans)) != m:
        raise StructureError("image(iota) differs from kernel(proj)")
    if section is None:
        section = Matrix.from_cols(field, [solve(proj, basis_vec(field, n, i)) for i in range(n)], rows=nm)
    if (section.rows, section.cols) != (nm, n) or proj @ section != Matrix.identity(field, n):
        raise StructureError("supplied section does not split proj")
    squares = _transport(total.table.tensor.fibers, v_cols, v_cols, _units(nm))
    if any(any(f.values()) for line in squares for f in line):
        raise StructureError("embedded V does not square to zero; extension is not abelian")
    change = Matrix(field, nm, nm, _columns(section) + v_cols).transpose()
    ext = AbelianExtension(AntiPreLieAlgebra.verify(total.table.conjugate(change)), n, m)
    check_morphism(proj, total.table, ext.base_table()).require("projection is not an algebra morphism")
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
