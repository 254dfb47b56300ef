"""Naive nested-loop evaluators, pointwise coboundaries, the explicit-sum
basis change of a table and associated product of a dendriform pair, the
products of an invariant form solved pair by pair, the triple-sum pullback of
a deformation, a second nullspace solver, dense elimination and the
brute-force prime-field search.

Everything here is written straight off the defining identities with explicit
index sums over structure constants, or (the pointwise d2) by evaluating the
coboundary formula on basis triples, deliberately sharing no code with the
sparse law walks and the d2 row assembly in the package.  The acceptance
suite demands exact agreement between the two routes on random inputs.
"""

from dataclasses import dataclass
from itertools import product

from antiprelie.algebra import MultTable, is_anti_pre_lie
from antiprelie.cohomology import Cochain2
from antiprelie.deformation import TruncatedDeformation
from antiprelie.dendriform import check_form_invariance, is_O_operator
from antiprelie.fields import Field, Fp, PrimeField
from antiprelie.linalg import Matrix, Tensor3, basis_vec, vec_sub
from antiprelie.representation import Representation, as_table, is_representation


def _c(table):
    return table.tensor.entries


def naive_action(mats, x):
    """The matrix sum over a of x[a] * mats[a], by explicit entry sums."""
    first = mats[0]
    rows = []
    for r in range(first.rows):
        row = []
        for s in range(first.cols):
            acc = first.field.zero()
            for a, mat in enumerate(mats):
                acc = acc + x[a] * mat.entries[r][s]
            row.append(acc)
        rows.append(row)
    return Matrix.from_rows(first.field, rows, first.cols)


def naive_apl_residuals(table):
    """{(law, i, j, k): residual vector} for the two anti-pre-Lie laws."""
    c = _c(table)
    n = table.dim
    z = table.field.zero()
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r1 = [z] * n
                r2 = [z] * n
                for l in range(n):
                    acc = z
                    for a in range(n):
                        acc = acc + c[j][k][a] * c[i][a][l]
                        acc = acc - c[i][k][a] * c[j][a][l]
                        acc = acc - (c[j][i][a] - c[i][j][a]) * c[a][k][l]
                    r1[l] = acc
                    acc = z
                    for a in range(n):
                        acc = acc + (c[i][j][a] - c[j][i][a]) * c[a][k][l]
                        acc = acc + (c[j][k][a] - c[k][j][a]) * c[a][i][l]
                        acc = acc + (c[k][i][a] - c[i][k][a]) * c[a][j][l]
                    r2[l] = acc
                if any(r1):
                    out[("exchange", i, j, k)] = tuple(r1)
                if any(r2):
                    out[("cyclic", i, j, k)] = tuple(r2)
    return out


def naive_rep_residuals(table, rep):
    """{(law, i, j): residual matrix entries} for the three axioms."""
    c = _c(table)
    n, m = table.dim, rep.dim_v
    z = table.field.zero()
    rho = [mat.entries for mat in rep.rho]
    mu = [mat.entries for mat in rep.mu]
    out = {}
    for i in range(n):
        for j in range(n):
            m1 = [[z] * m for _ in range(m)]
            m2 = [[z] * m for _ in range(m)]
            m3 = [[z] * m for _ in range(m)]
            for r in range(m):
                for s in range(m):
                    acc = z
                    for t in range(m):
                        acc = acc + rho[i][r][t] * rho[j][t][s] - rho[j][r][t] * rho[i][t][s]
                    for a in range(n):
                        acc = acc - (c[j][i][a] - c[i][j][a]) * rho[a][r][s]
                    m1[r][s] = acc
                    acc = z
                    for a in range(n):
                        acc = acc + c[i][j][a] * mu[a][r][s]
                    for t in range(m):
                        acc = acc - rho[i][r][t] * mu[j][t][s]
                        acc = acc - mu[j][r][t] * rho[i][t][s]
                        acc = acc + mu[j][r][t] * mu[i][t][s]
                    m2[r][s] = acc
                    acc = z
                    for t in range(m):
                        acc = acc + mu[j][r][t] * mu[i][t][s] - mu[i][r][t] * mu[j][t][s]
                        acc = acc - mu[j][r][t] * rho[i][t][s] + mu[i][r][t] * rho[j][t][s]
                    for a in range(n):
                        acc = acc + (c[i][j][a] - c[j][i][a]) * rho[a][r][s]
                    m3[r][s] = acc
            for law, mat in (("rep-rho", m1), ("rep-mixed", m2), ("rep-mu", m3)):
                if any(any(row) for row in mat):
                    out[(law, i, j)] = tuple(tuple(row) for row in mat)
    return out


def naive_dendriform_residuals(d):
    """{(law, i, j, k): residual vector} for the three dendriform identities."""
    r = _c(d.right)
    le = _c(d.left)
    n = d.dim
    z = d.field.zero()
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v1 = [z] * n
                v2 = [z] * n
                v3 = [z] * n
                for l in range(n):
                    acc = z
                    for a in range(n):
                        acc = acc + r[j][k][a] * r[i][a][l] - r[i][k][a] * r[j][a][l]
                        acc = acc - r[j][i][a] * r[a][k][l] + le[i][j][a] * r[a][k][l]
                        acc = acc + r[i][j][a] * r[a][k][l] - le[j][i][a] * r[a][k][l]
                    v1[l] = acc
                    acc = z
                    for a in range(n):
                        acc = acc + le[j][k][a] * r[i][a][l]
                        acc = acc - r[i][j][a] * le[a][k][l] + le[j][i][a] * le[a][k][l]
                        acc = acc + le[i][k][a] * le[j][a][l] + r[i][k][a] * le[j][a][l]
                    v2[l] = acc
                    acc = z
                    for a in range(n):
                        acc = acc + le[i][k][a] * le[j][a][l] + r[i][k][a] * le[j][a][l]
                        acc = acc + r[i][j][a] * r[a][k][l] - le[j][i][a] * r[a][k][l]
                        acc = acc - r[j][i][a] * r[a][k][l] + le[i][j][a] * r[a][k][l]
                        acc = acc - r[j][k][a] * le[i][a][l] - le[j][k][a] * le[i][a][l]
                    v3[l] = acc
                for law, v in (("dendriform-1", v1), ("dendriform-2", v2), ("dendriform-3", v3)):
                    if any(v):
                        out[(law, i, j, k)] = tuple(v)
    return out


def naive_associated_table(d):
    """The table of x . y = x > y - y < x entry by entry:
    [i][j][k] = right[i][j][k] - left[j][i][k]."""
    r, le = _c(d.right), _c(d.left)
    n = d.dim
    return MultTable.from_entries(d.field, [[[r[i][j][k] - le[j][i][k] for k in range(n)]
                                             for j in range(n)] for i in range(n)])


def solved_form_products(table, b):
    """(right, left), the tables of x > y and x < y that a nondegenerate form
    B defines, one dense_solve per basis pair: over z, B(e_i > e_j, e_z) =
    -B(e_j, [e_z, e_i]) and B(e_i < e_j, e_z) = B(e_j, e_z . e_i), a linear
    system in the coordinates of the product with matrix B^T."""
    c = _c(table)
    n, be, z = table.dim, b.entries, table.field.zero()
    bt = Matrix.from_rows(table.field, [[be[a][k] for a in range(n)] for k in range(n)], n)

    def product_table(bracket):
        ent = [[None] * n for _ in range(n)]
        for i, j in product(range(n), repeat=2):
            rhs = []
            for k in range(n):
                acc = z
                for w in range(n):
                    acc = acc + be[j][w] * (c[k][i][w] - c[i][k][w] if bracket else c[k][i][w])
                rhs.append(-acc if bracket else acc)
            ent[i][j] = dense_solve(bt, rhs)
            if ent[i][j] is None:
                raise ValueError("the form is degenerate")
        return MultTable.from_entries(table.field, ent)

    return product_table(True), product_table(False)


def naive_o_operator_residuals(table, rep, t):
    """{(a, b): residual vector} of the operator relation on V basis pairs."""
    c = _c(table)
    n, m = table.dim, rep.dim_v
    z = table.field.zero()
    rho = [mat.entries for mat in rep.rho]
    mu = [mat.entries for mat in rep.mu]
    te = t.entries
    out = {}
    for a in range(m):
        for b in range(m):
            res = [z] * n
            for l in range(n):
                acc = z
                for s in range(n):
                    for u in range(n):
                        acc = acc + te[s][a] * te[u][b] * c[s][u][l]
                for w in range(m):
                    inner = z
                    for s in range(n):
                        inner = inner + te[s][a] * rho[s][w][b]
                        inner = inner + te[s][b] * mu[s][w][a]
                    acc = acc - te[l][w] * inner
                res[l] = acc
            if any(res):
                out[(a, b)] = tuple(res)
    return out


def naive_morphism_residuals(f, src, dst):
    cs = _c(src)
    cd = _c(dst)
    z = f.field.zero()
    n_src, n_dst = src.dim, dst.dim
    fe = f.entries
    out = {}
    for i in range(n_src):
        for j in range(n_src):
            res = [z] * n_dst
            for l in range(n_dst):
                acc = z
                for w in range(n_src):
                    acc = acc + cs[i][j][w] * fe[l][w]
                for a in range(n_dst):
                    for b in range(n_dst):
                        acc = acc - fe[a][i] * fe[b][j] * cd[a][b][l]
                res[l] = acc
            if any(res):
                out[(i, j)] = tuple(res)
    return out


def naive_conjugate(table, p):
    """The table of x *' y = P^{-1}(P(x) . P(y)) by explicit index sums,

        [a][b][l] = sum_{i, j, k} Pinv[l][k] c[i][j][k] P[i][a] P[j][b],

    with P^{-1} from dense_invert."""
    c = _c(table)
    n = table.dim
    pe, qe = p.entries, dense_invert(p).entries
    z = table.field.zero()
    ent = [[[z] * n for _ in range(n)] for _ in range(n)]
    for a, b, i, j, k, l in product(range(n), repeat=6):
        ent[a][b][l] = ent[a][b][l] + qe[l][k] * c[i][j][k] * pe[i][a] * pe[j][b]
    return MultTable.from_entries(table.field, ent)


def naive_form_residuals(table, b):
    """{(law, i, j, k): scalar residual} for both pairing identities."""
    c = _c(table)
    n = table.dim
    z = table.field.zero()
    be = b.entries
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = z
                for w in range(n):
                    acc = acc + c[j][k][w] * be[i][w] - c[i][k][w] * be[j][w]
                    acc = acc - (c[j][i][w] - c[i][j][w]) * be[w][k]
                if acc:
                    out[("form-invariance", i, j, k)] = acc
                acc = z
                for w in range(n):
                    acc = acc + c[i][j][w] * be[w][k]
                    acc = acc + (c[k][i][w] - c[i][k][w]) * be[j][w]
                    acc = acc + c[k][j][w] * be[i][w]
                if acc:
                    out[("form-transport", i, j, k)] = acc
    return out


def naive_lie_residuals(table):
    """{("antisymmetry", i, j): vector} on basis pairs, then
    {("jacobi", i, j, k): vector} on basis triples."""
    c = _c(table)
    n = table.dim
    z = table.field.zero()
    out = {}
    for i in range(n):
        for j in range(n):
            v = tuple(c[i][j][l] + c[j][i][l] for l in range(n))
            if any(v):
                out[("antisymmetry", i, j)] = v
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = [z] * n
                for l in range(n):
                    acc = z
                    for a in range(n):
                        acc = acc + c[i][j][a] * c[a][k][l]
                        acc = acc + c[j][k][a] * c[a][i][l]
                        acc = acc + c[k][i][a] * c[a][j][l]
                    v[l] = acc
                if any(v):
                    out[("jacobi", i, j, k)] = tuple(v)
    return out


def naive_lie_action_residuals(lie, rep):
    """{("lie-action", i, j): residual matrix} of
    action(e_i) action(e_j) - action(e_j) action(e_i) - action([e_i, e_j])."""
    c = lie.tensor.entries
    n, m = lie.dim, rep.dim_v
    z = lie.field.zero()
    act = [mat.entries for mat in rep.action]
    out = {}
    for i in range(n):
        for j in range(n):
            res = [[z] * m for _ in range(m)]
            for r in range(m):
                for s in range(m):
                    acc = z
                    for t in range(m):
                        acc = acc + act[i][r][t] * act[j][t][s] - act[j][r][t] * act[i][t][s]
                    for a in range(n):
                        acc = acc - c[i][j][a] * act[a][r][s]
                    res[r][s] = acc
            if any(any(row) for row in res):
                out[("lie-action", i, j)] = tuple(tuple(row) for row in res)
    return out


def naive_deformation_residuals(d):
    """{(law, deg, a, b, c): residual vector} for the convolution equations."""
    tables = [t.tensor.entries for t in d.tables()]
    n = d.dim
    big_n = d.order
    z = d.field.zero()
    out = {}
    for deg in range(1, big_n + 1):
        for a in range(n):
            for b in range(n):
                for cc in range(n):
                    r1 = [z] * n
                    r2 = [z] * n
                    for u in range(0, deg + 1):
                        v = deg - u
                        if u > big_n or v > big_n:
                            continue
                        tu = tables[u]
                        tv = tables[v]
                        for l in range(n):
                            acc = r1[l]
                            for w in range(n):
                                acc = acc + tv[b][cc][w] * tu[a][w][l]
                                acc = acc - tv[a][cc][w] * tu[b][w][l]
                                acc = acc - tv[b][a][w] * tu[w][cc][l]
                                acc = acc + tv[a][b][w] * tu[w][cc][l]
                            r1[l] = acc
                            acc = r2[l]
                            for w in range(n):
                                acc = acc + (tv[a][b][w] - tv[b][a][w]) * tu[w][cc][l]
                                acc = acc + (tv[b][cc][w] - tv[cc][b][w]) * tu[w][a][l]
                                acc = acc + (tv[cc][a][w] - tv[a][cc][w]) * tu[w][b][l]
                            r2[l] = acc
                    if any(r1):
                        out[("deformation-exchange", deg, a, b, cc)] = tuple(r1)
                    if any(r2):
                        out[("deformation-cyclic", deg, a, b, cc)] = tuple(r2)
    return out


def naive_pullback(d, iso):
    """The deformation d pulled back along iso, by the triple sum

        w'_deg(e_a, e_b) = sum_{q+r+s+t=deg} psi_q w_r(phi_s e_a, phi_t e_b)

    over explicit structure constants, with phi_0 = psi_0 = Id, iso padded
    with zeros or truncated at d.order, and psi the inverse series computed
    here by its own recursion psi_k = -sum_{i=1..k} phi_i psi_{k-i}.
    """
    n, order, field = d.dim, d.order, d.field
    z, o = field.zero(), field.one()
    ident = [[o if i == j else z for j in range(n)] for i in range(n)]
    phis = [ident] + [iso.phis[k].entries if k < iso.order else [[z] * n for _ in range(n)]
                      for k in range(order)]
    psis = [ident]
    for k in range(1, order + 1):
        psi = [[z] * n for _ in range(n)]
        for i in range(1, k + 1):
            for r, c, w in product(range(n), repeat=3):
                psi[r][c] = psi[r][c] - phis[i][r][w] * psis[k - i][w][c]
        psis.append(psi)
    c = [t.tensor.entries for t in d.tables()]
    terms = []
    for deg in range(1, order + 1):
        ent = [[[z] * n for _ in range(n)] for _ in range(n)]
        for r in range(deg + 1):
            for s in range(deg - r + 1):
                for t in range(deg - r - s + 1):
                    q = deg - r - s - t
                    for a, b, i, j, k, l in product(range(n), repeat=6):
                        ent[a][b][l] = ent[a][b][l] + (
                            psis[q][l][k] * c[r][i][j][k] * phis[s][i][a] * phis[t][j][b]
                        )
        terms.append(MultTable.from_entries(field, ent))
    return TruncatedDeformation(d.base, tuple(terms))


def naive_d1_values(table, rep, f):
    """[i][j] -> vector, the 1-cochain coboundary by explicit sums."""
    c = _c(table)
    n, m = table.dim, rep.dim_v
    z = table.field.zero()
    rho = [mat.entries for mat in rep.rho]
    mu = [mat.entries for mat in rep.mu]
    fe = f.entries
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = [z] * m
            for l in range(m):
                acc = z
                for k in range(m):
                    acc = acc + rho[i][l][k] * fe[k][j] + mu[j][l][k] * fe[k][i]
                for w in range(n):
                    acc = acc - c[i][j][w] * fe[l][w]
                vec[l] = acc
            row.append(tuple(vec))
        out.append(row)
    return out


def naive_d2_values(table, rep, f):
    """([a][b][c] -> vec, [a][b][c] -> vec): both coboundary components."""
    c = _c(table)
    n, m = table.dim, rep.dim_v
    z = table.field.zero()
    rho = [mat.entries for mat in rep.rho]
    mu = [mat.entries for mat in rep.mu]
    t = f.tensor.entries
    comp1 = []
    comp2 = []
    for a in range(n):
        p1 = []
        p2 = []
        for b in range(n):
            q1 = []
            q2 = []
            for cc in range(n):
                v1 = [z] * m
                v2 = [z] * m
                for l in range(m):
                    acc = z
                    for k in range(m):
                        acc = acc + rho[a][l][k] * t[b][cc][k] - rho[b][l][k] * t[a][cc][k]
                        acc = acc - mu[cc][l][k] * t[b][a][k] + mu[cc][l][k] * t[a][b][k]
                    for w in range(n):
                        acc = acc - c[a][cc][w] * t[b][w][l] + c[b][cc][w] * t[a][w][l]
                        acc = acc + (c[a][b][w] - c[b][a][w]) * t[w][cc][l]
                    v1[l] = acc
                    acc = z
                    for k in range(m):
                        acc = acc + mu[a][l][k] * (t[b][cc][k] - t[cc][b][k])
                        acc = acc + mu[b][l][k] * (t[cc][a][k] - t[a][cc][k])
                        acc = acc + mu[cc][l][k] * (t[a][b][k] - t[b][a][k])
                    for w in range(n):
                        acc = acc + (c[a][b][w] - c[b][a][w]) * t[w][cc][l]
                        acc = acc + (c[b][cc][w] - c[cc][b][w]) * t[w][a][l]
                        acc = acc + (c[cc][a][w] - c[a][cc][w]) * t[w][b][l]
                    v2[l] = acc
                q1.append(tuple(v1))
                q2.append(tuple(v2))
            p1.append(q1)
            p2.append(q2)
        comp1.append(p1)
        comp2.append(p2)
    return comp1, comp2


def oracle_d2_rows(table, rep):
    """The 2 n^3 m rows of the d2 linearization, each as {C2 coordinate:
    nonzero value}, written straight off the two formulas of the cohomology
    module docstring.  Row ((a n + b) n + c) m + l of the first n^3 m is
    component l of (d2_1 f)(e_a, e_b, e_c), the next n^3 m rows are d2_2 in
    the same order, and f(e_p, e_q)_k is C2 coordinate (p n + q) m + k.
    Only the dense entries of the table and the actions are read; their
    nonzero ones are listed here, so each row costs its terms only."""
    n, m = table.dim, rep.dim_v
    c = _c(table)
    prod = [[[(w, x) for w, x in enumerate(c[p][q]) if x] for q in range(n)] for p in range(n)]
    br = [[[(w, c[p][q][w] - c[q][p][w]) for w in range(n) if c[p][q][w] != c[q][p][w]]
           for q in range(n)] for p in range(n)]
    rho, mu = ([[[(k, x) for k, x in enumerate(line) if x] for line in mat.entries] for mat in mats]
               for mats in (rep.rho, rep.mu))

    def at(p, q, k):
        return (p * n + q) * m + k

    def row(terms):
        out = {}
        for x, coord in terms:
            out[coord] = x if coord not in out else out[coord] + x
        return {coord: x for coord, x in out.items() if x}

    first, second = [], []
    for a, b, cc in product(range(n), repeat=3):
        for l in range(m):
            first.append(row(
                [(x, at(b, cc, k)) for k, x in rho[a][l]] + [(-x, at(a, cc, k)) for k, x in rho[b][l]]
                + [(-x, at(b, a, k)) for k, x in mu[cc][l]] + [(x, at(a, b, k)) for k, x in mu[cc][l]]
                + [(-x, at(b, w, l)) for w, x in prod[a][cc]] + [(x, at(a, w, l)) for w, x in prod[b][cc]]
                + [(x, at(w, cc, l)) for w, x in br[a][b]]))
            second.append(row(
                [(x, at(b, cc, k)) for k, x in mu[a][l]] + [(-x, at(cc, b, k)) for k, x in mu[a][l]]
                + [(x, at(cc, a, k)) for k, x in mu[b][l]] + [(-x, at(a, cc, k)) for k, x in mu[b][l]]
                + [(x, at(a, b, k)) for k, x in mu[cc][l]] + [(-x, at(b, a, k)) for k, x in mu[cc][l]]
                + [(x, at(w, cc, l)) for w, x in br[a][b]] + [(x, at(w, a, l)) for w, x in br[b][cc]]
                + [(x, at(w, b, l)) for w, x in br[cc][a]]))
    return first + second


def rank_mod_p(rows, p: int) -> int:
    """The rank mod p of sparse rows {column: value} (Fraction or Fp), by
    plain row reduction in the order given: no singleton pass, no scaling to
    primitive rows, no reordering.  A Fraction is read as its residue, so
    its denominator must be prime to p."""
    def residue(x):
        if isinstance(x, Fp):
            return x.value
        return x.numerator * pow(x.denominator, -1, p) % p

    pivots = {}
    for source in rows:
        row = {j: r for j, x in source.items() if (r := residue(x))}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, p)
                pivots[col] = {j: x * inv % p for j, x in row.items()}
                break
            f = row[col]
            for j, y in pivots[col].items():
                x = (row.get(j, 0) - f * y) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return len(pivots)


@dataclass(frozen=True)
class Cochain3Pair:
    """Values of the two degree-3 coboundary components on all basis triples.

    comp1[a][b][c] and comp2[a][b][c] are vectors in V.  The first component
    is antisymmetric in (a, b); the second is alternating in (a, b, c); both
    are re-checked on every evaluation as an evaluator self-test.
    """

    dim_a: int
    dim_v: int
    comp1: tuple  # [a][b][c] -> Vec
    comp2: tuple

    def is_zero(self) -> bool:
        return not any(
            any(self.comp1[a][b][c]) or any(self.comp2[a][b][c])
            for a in range(self.dim_a)
            for b in range(self.dim_a)
            for c in range(self.dim_a)
        )


def _vadd(*vs):
    out = vs[0]
    for v in vs[1:]:
        out = tuple(a + b for a, b in zip(out, v))
    return out


def d2(alg, rep, f: Cochain2) -> Cochain3Pair:
    """Pointwise degree-3 coboundary pair of a 2-cochain, on all basis triples."""
    table = as_table(alg)
    n, m = table.dim, rep.dim_v
    if (f.dim_a, f.dim_v) != (n, m):
        raise ValueError(f"2-cochain dims {(f.dim_a, f.dim_v)} do not match ({n}, {m})")
    rho, mu = rep.rho, rep.mu
    comm = [[table.commutator_basis(i, j) for j in range(n)] for i in range(n)]
    prod = [[table.basis_product(i, j) for j in range(n)] for i in range(n)]
    e = [basis_vec(table.field, n, i) for i in range(n)]
    f_of = f.tensor.contract
    c1 = []
    c2 = []
    for a in range(n):
        p1 = []
        p2 = []
        for b in range(n):
            q1 = []
            q2 = []
            for c in range(n):
                v1 = _vadd(
                    rho[a].apply(f.value(b, c)),
                    tuple(-x for x in rho[b].apply(f.value(a, c))),
                    tuple(-x for x in mu[c].apply(f.value(b, a))),
                    mu[c].apply(f.value(a, b)),
                    tuple(-x for x in f_of(e[b], prod[a][c])),
                    f_of(e[a], prod[b][c]),
                    f_of(comm[a][b], e[c]),
                )
                v2 = _vadd(
                    mu[a].apply(vec_sub(f.value(b, c), f.value(c, b))),
                    mu[b].apply(vec_sub(f.value(c, a), f.value(a, c))),
                    mu[c].apply(vec_sub(f.value(a, b), f.value(b, a))),
                    f_of(comm[a][b], e[c]),
                    f_of(comm[b][c], e[a]),
                    f_of(comm[c][a], e[b]),
                )
                q1.append(v1)
                q2.append(v2)
            p1.append(tuple(q1))
            p2.append(tuple(q2))
        c1.append(tuple(p1))
        c2.append(tuple(p2))
    pair = Cochain3Pair(n, m, tuple(c1), tuple(c2))
    _assert_symmetries(pair)
    return pair


def _assert_symmetries(pair: Cochain3Pair) -> None:
    n = pair.dim_a
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if any(x + y for x, y in zip(pair.comp1[a][b][c], pair.comp1[b][a][c])):
                    raise RuntimeError("d2 first component lost its (x,y) antisymmetry")
                if any(x + y for x, y in zip(pair.comp2[a][b][c], pair.comp2[b][a][c])):
                    raise RuntimeError("d2 second component lost its alternation")
                if any(
                    x - y for x, y in zip(pair.comp2[a][b][c], pair.comp2[b][c][a])
                ):
                    raise RuntimeError("d2 second component lost its cyclic symmetry")


def cochain3_to_vec(pair: Cochain3Pair):
    """Flatten a degree-3 pair in the same row order used by d2_matrix."""
    n, m = pair.dim_a, pair.dim_v
    flat1 = [
        pair.comp1[a][b][c][l]
        for a in range(n)
        for b in range(n)
        for c in range(n)
        for l in range(m)
    ]
    flat2 = [
        pair.comp2[a][b][c][l]
        for a in range(n)
        for b in range(n)
        for c in range(n)
        for l in range(m)
    ]
    return tuple(flat1 + flat2)


def bareiss_kernel(m: Matrix):
    """Null-space basis via fraction-free forward elimination plus back
    substitution; an algorithmically independent check on the package solver."""
    field = m.field
    rows = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    one = field.one()
    zero = field.zero()
    prev = one
    piv_positions = []
    r = 0
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nr):
            f = rows[i][c]
            row_i = rows[i]
            row_r = rows[r]
            for j in range(c + 1, nc):
                vij = row_i[j]
                vrj = row_r[j]
                if vij or vrj:
                    row_i[j] = (vij * piv - f * vrj) / prev
            row_i[c] = zero
        piv_positions.append((r, c))
        prev = piv
        r += 1
        if r == nr:
            break
    piv_cols = [c for _, c in piv_positions]
    free_cols = [c for c in range(nc) if c not in piv_cols]
    basis = []
    for fc in free_cols:
        v = [zero] * nc
        v[fc] = one
        for ri, ci in reversed(piv_positions):
            acc = zero
            for j in range(ci + 1, nc):
                if rows[ri][j] and v[j]:
                    acc = acc + rows[ri][j] * v[j]
            v[ci] = -acc / rows[ri][ci]
        basis.append(tuple(v))
    return basis


def dense_rref(field: Field, rows_in, ncols: int):
    """Column-by-column Gauss-Jordan elimination on dense rows; returns
    (rows, pivot column indices), zero rows included at the bottom.

    The exact reference for the package's sparse-row elimination: the
    reduced row echelon form is unique, so both must agree entry for entry.
    """
    rows = [list(r) for r in rows_in]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
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


def dense_kernel_basis(m: Matrix):
    """Right null-space basis read off dense_rref, one vector per free column."""
    rows, pivots = dense_rref(m.field, m.entries, m.cols)
    z, o = m.field.zero(), m.field.one()
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [z] * m.cols
        v[f] = o
        for r_idx, pc in enumerate(pivots):
            v[pc] = -rows[r_idx][f]
        basis.append(tuple(v))
    return basis


def dense_solve(m: Matrix, b):
    """The solution of Mx = b with free variables zero, or None, via dense_rref."""
    aug = [list(r) + [bb] for r, bb in zip(m.entries, b)]
    rows, pivots = dense_rref(m.field, aug, m.cols + 1)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [m.field.zero()] * m.cols
    for r_idx, pc in enumerate(pivots):
        x[pc] = rows[r_idx][m.cols]
    return tuple(x)


def dense_invert(m: Matrix):
    """Inverse of a square matrix by dense_rref on [M | I], or None when singular."""
    n = m.rows
    z, o = m.field.zero(), m.field.one()
    aug = [list(r) + [o if i == j else z for j in range(n)] for i, r in enumerate(m.entries)]
    rows, pivots = dense_rref(m.field, aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return Matrix.from_rows(m.field, [r[n:] for r in rows[:n]], n)


def dense_rank(field: Field, vecs, length: int) -> int:
    return len(dense_rref(field, vecs, length)[1])


def dense_in_span(field: Field, vecs, v, length: int) -> bool:
    """Whether v lies in the span of vecs, by two dense ranks."""
    return dense_rank(field, list(vecs) + [v], length) == dense_rank(field, vecs, length)


def greedy_h2_representatives(field: Field, z2_vecs, b2_vecs, length: int):
    """H2 representatives by greedy extension of B2 along Z2: each Z2 vector
    outside the span of B2 and the vectors already taken is kept, in order,
    with one from-scratch span test per candidate."""
    span = list(b2_vecs)
    reps = []
    for v in z2_vecs:
        if not dense_in_span(field, span, v, length):
            reps.append(v)
            span.append(v)
    return reps


def same_span(field: Field, vecs_a, vecs_b, length: int) -> bool:
    """Exact equality of two spans inside field^length via three ranks."""
    if not vecs_a and not vecs_b:
        return True
    if not vecs_a or not vecs_b:
        return False
    both = list(vecs_a) + list(vecs_b)
    return len({dense_rank(field, vecs, length) for vecs in (vecs_a, vecs_b, both)}) == 1


def search_kind(spec, table=None, rep=None, strict_skew=False):
    """(cells, build, passes) for a search spec: the number of cells, the
    candidate object of a tuple of cell values in 0..p-1 (each cell one fresh
    Fp) and the kind's exact check."""
    p, n, m = spec.p, spec.dim, spec.dim_v
    field = PrimeField(p)

    def matrix(cells, rows, cols):
        return Matrix.from_rows(field, [
            [Fp(cells[r * cols + c], p) for c in range(cols)] for r in range(rows)
        ], cols)

    if spec.kind == "algebra":
        def build(cells):
            it = iter(cells)
            return MultTable(Tensor3.from_entries(
                field, [[[Fp(next(it), p) for _ in range(n)] for _ in range(n)] for _ in range(n)]
            ))

        return n**3, build, is_anti_pre_lie
    if spec.kind == "representation":
        def build(cells):
            mats = [matrix(cells[t * m * m:(t + 1) * m * m], m, m) for t in range(2 * n)]
            return Representation(n, m, tuple(mats[:n]), tuple(mats[n:]))

        return 2 * n * m * m, build, lambda r: is_representation(table, r)
    if spec.kind == "o-operator":
        return n * m, lambda cells: matrix(cells, n, m), lambda t: is_O_operator(table, rep, t)
    return (n * n, lambda cells: matrix(cells, n, n),
            lambda b: check_form_invariance(table, b, strict_skew=strict_skew).ok)


def brute_force_search(spec, table=None, rep=None, strict_skew=False):
    """The exhaustive scan as a plain loop: every cell tuple in lexicographic
    order (itertools.product), built and kept when the kind's check passes, at
    most spec.max_results of them."""
    cells, build, passes = search_kind(spec, table, rep, strict_skew)
    out = []
    if spec.max_results == 0:
        return out
    for values in product(range(spec.p), repeat=cells):
        obj = build(values)
        if passes(obj):
            out.append(obj)
            if len(out) == spec.max_results:
                break
    return out


def residual_entry(report, key):
    """The residue that a report gives at key = (law, at, index), read from
    that violation's residual: entry [index // m][index % m] of a matrix
    residual with m columns, entry [index] of a vector; 0 when the report has
    no violation of law at `at`."""
    law, at, index = key
    for v in report.violations:
        if (v.law, v.at) == (law, at):
            r = v.residual
            if isinstance(r[0], tuple):
                m = len(r[0])
                return r[index // m][index % m].value
            return r[index].value
    return 0


def nonzero_residual_entries(report):
    """How many residual entries of a report are nonzero; nondegeneracy,
    which is no polynomial in the cells, is left out."""
    count = 0
    for v in report.violations:
        if v.law != "form-degenerate":
            rows = v.residual if v.residual and isinstance(v.residual[0], tuple) else (v.residual,)
            count += sum(1 for row in rows for x in row if x.value)
    return count
