import random
from fractions import Fraction

import pytest

from antiprelie.algebra import (
    MultTable,
    StructureError,
    check_morphism,
    is_anti_pre_lie,
)
from antiprelie.dendriform import (
    AntiLDendriform,
    associated_anti_pre_lie,
    associated_table,
    check_anti_L_dendriform,
    check_form_invariance,
    check_O_operator,
    compatible_from_invertible_O,
    dendriform_from_bilinear_form,
    form_sharp,
    induced_dendriform,
    is_anti_L_dendriform,
    left_mult_representation,
)
from antiprelie.fields import QQ
from antiprelie.linalg import Matrix, invert, solve
from antiprelie.representation import (
    Representation,
    check_representation,
    dual_representation,
    is_representation,
    regular_representation,
)
from antiprelie.search import SearchSpec, search_o_operators

from conftest import rand_matrix, rand_table
from oracles import (
    naive_action,
    naive_dendriform_residuals,
    naive_form_residuals,
    naive_o_operator_residuals,
)


def rand_dendriform(rng, n):
    return AntiLDendriform(rand_table(rng, n), rand_table(rng, n))


def test_zero_dendriform_passes():
    assert check_anti_L_dendriform(AntiLDendriform.zero(QQ, 2)).ok


def test_a2_right_only_dendriform(named_algebras):
    """Right product = the e0.e1 = e1 table, left = 0.  All three identities
    reduce to statements about compositions of its left multiplications,
    which vanish here; the outcome (pass) is pinned by the naive oracle."""
    a2 = named_algebras["a2"].table
    d = AntiLDendriform(a2, MultTable.zero(QQ, 2))
    assert naive_dendriform_residuals(d) == {}
    assert check_anti_L_dendriform(d).ok


def test_dendriform_matches_naive_oracle():
    rng = random.Random(13)
    for _ in range(30):
        d = rand_dendriform(rng, rng.choice([1, 2]))
        report = check_anti_L_dendriform(d)
        got = {(v.law, *v.at): v.residual for v in report.violations}
        assert got == naive_dendriform_residuals(d)
        assert is_anti_L_dendriform(d) == (not got)


def test_associated_of_zero_is_zero():
    alg = associated_anti_pre_lie(AntiLDendriform.zero(QQ, 3))
    assert alg.table.tensor.is_zero()


def test_associated_subtracts_transposed_left():
    rng = random.Random(19)
    right = rand_table(rng, 2)
    left = rand_table(rng, 2)
    d = AntiLDendriform(right, left)
    tbl = associated_table(d)
    for i in range(2):
        for j in range(2):
            expect = tuple(
                a - b for a, b in zip(right.basis_product(i, j), left.basis_product(j, i))
            )
            assert tbl.basis_product(i, j) == expect


def test_left_mult_representation_matrices(named_algebras):
    a2 = named_algebras["a2"].table
    d = AntiLDendriform(a2, MultTable.zero(QQ, 2))
    rep = left_mult_representation(d)
    assert rep.rho == a2.left_matrices
    assert all(m.is_zero() for m in rep.mu)


def test_dendriform_iff_associated_and_rep():
    """Perturbation sweep: the dendriform laws hold exactly when the
    associated table passes the anti-pre-Lie check and (L_>, -L_<) passes the
    representation check against it."""
    rng = random.Random(23)
    agree_false = 0
    for _ in range(40):
        d = rand_dendriform(rng, 2)
        lhs = is_anti_L_dendriform(d)
        tbl = associated_table(d)
        rhs = is_anti_pre_lie(tbl) and is_representation(tbl, left_mult_representation(d))
        assert lhs == rhs
        if not lhs:
            agree_false += 1
    assert agree_false > 0


def test_single_entry_perturbation_localizes_failure(named_algebras):
    """Poking one entry of a verified structure breaks the paired
    representation axiom at a matching basis pair: the three identities are
    term-by-term the three axioms of (L_>, -L_<) over the associated table."""
    a2 = named_algebras["a2"].table
    d = AntiLDendriform(a2, MultTable.zero(QQ, 2))
    ent = [[list(f) for f in p] for p in d.left.tensor.entries]
    ent[0][1][0] = Fraction(1)
    poked = AntiLDendriform(d.right, MultTable.from_entries(QQ, ent))
    report = check_anti_L_dendriform(poked)
    assert not report.ok
    rep_report = check_representation(associated_table(poked), left_mult_representation(poked))
    assert not rep_report.ok
    law_to_axiom = {"dendriform-1": "rep-rho", "dendriform-2": "rep-mixed", "dendriform-3": "rep-mu"}
    dend_pairs = {(law_to_axiom[v.law], v.at[0], v.at[1]) for v in report.violations}
    rep_pairs = {(v.law, *v.at) for v in rep_report.violations}
    assert dend_pairs == rep_pairs


def test_dendriform_laws_are_rep_axiom_columns():
    """Sharper form of the correspondence on random structures: law h fails
    at (i, j, k) exactly when column k of rep-axiom-h's residual at (i, j)
    is nonzero."""
    rng = random.Random(47)
    law_to_axiom = {"dendriform-1": "rep-rho", "dendriform-2": "rep-mixed", "dendriform-3": "rep-mu"}
    for _ in range(20):
        d = rand_dendriform(rng, 2)
        report = check_anti_L_dendriform(d)
        rep_report = check_representation(associated_table(d), left_mult_representation(d))
        rep_residuals = {(v.law, *v.at): v.residual for v in rep_report.violations}
        dend_from_rep = set()
        for (law, i, j), mat in rep_residuals.items():
            for k in range(2):
                if any(row[k] for row in mat):
                    dend_from_rep.add((law, i, j, k))
        got = {(law_to_axiom[v.law], *v.at) for v in report.violations}
        assert got == dend_from_rep


def test_o_operator_zero_passes(corpus_pairs):
    for name, alg, rep in corpus_pairs[:6]:
        t = Matrix.zero(QQ, alg.dim, rep.dim_v)
        assert check_O_operator(alg, rep, t).ok, name


def test_o_operator_zero_context_any_matrix(named_algebras):
    rng = random.Random(29)
    alg = named_algebras["zero2"]
    rep = Representation.zero(QQ, 2, 2)
    for _ in range(5):
        assert check_O_operator(alg, rep, rand_matrix(rng, 2, 2)).ok


def test_identity_fails_on_a2_regular(named_algebras):
    """lhs - rhs = u.v - 2(u.v) = -(u.v): nonzero exactly at the pair (0, 1)."""
    a2 = named_algebras["a2"]
    report = check_O_operator(a2, regular_representation(a2), Matrix.identity(QQ, 2))
    assert [v.at for v in report.violations] == [(0, 1)]
    assert report.violations[0].residual == (Fraction(0), Fraction(-1))


def test_o_operator_matches_naive_oracle():
    rng = random.Random(31)
    for _ in range(30):
        n, m = rng.choice([1, 2]), rng.choice([1, 2])
        table = rand_table(rng, n)
        rep = Representation(
            n, m,
            tuple(rand_matrix(rng, m, m) for _ in range(n)),
            tuple(rand_matrix(rng, m, m) for _ in range(n)),
        )
        t = rand_matrix(rng, n, m)
        report = check_O_operator(table, rep, t)
        assert {v.at: v.residual for v in report.violations} == naive_o_operator_residuals(table, rep, t)


def _f3_pairs(f3_algebras):
    out = []
    for name, table in f3_algebras.items():
        reg = Representation(2, 2, table.left_matrices, table.right_matrices)
        out.append((f"{name}/regular", table, reg))
        out.append((f"{name}/dual", table, dual_representation(reg)))
    return out


def test_f3_o_operator_pipeline(f3_algebras):
    """Exhaustive operator search over F3 on dim-2 instances; every hit
    passes the induced-structure, morphism and subalgebra-closure checks,
    its associated product expands to rho(T(u))v + mu(T(v))u, and every
    invertible hit transports to a compatible structure."""
    spec = SearchSpec(kind="o-operator", dim=2, p=3, dim_v=2)
    total_found = 0
    invertible_found = 0
    for name, table, rep in _f3_pairs(f3_algebras):
        found = search_o_operators(spec, table, rep)
        total_found += len(found)
        for t in found:
            d = induced_dendriform(table, rep, t)
            assert check_anti_L_dendriform(d).ok, name
            assoc = associated_anti_pre_lie(d)
            for a in range(2):
                for b in range(2):
                    expanded = tuple(
                        x + y
                        for x, y in zip(
                            naive_action(rep.rho, t.col(a)).col(b),
                            naive_action(rep.mu, t.col(b)).col(a),
                        )
                    )
                    assert assoc.table.basis_product(a, b) == expanded, name
            assert check_morphism(t, assoc.table, table).ok, name
            for a in range(2):
                for b in range(2):
                    image_prod = table.multiply(t.col(a), t.col(b))
                    assert solve(t, image_prod) is not None, name
            if invert(t) is not None:
                invertible_found += 1
                compat = compatible_from_invertible_O(table, rep, t)
                assert associated_table(compat).tensor == table.tensor, name
    assert total_found > 0
    assert invertible_found > 0


def test_dual_of_left_mult_pair(named_algebras):
    """The dual of (L_>, -L_<) is a representation of the associated algebra
    with matrices (right-transpose plus left-transpose, left-transpose)."""
    a2 = named_algebras["a2"].table
    d = AntiLDendriform(a2, MultTable.zero(QQ, 2))
    assoc = associated_anti_pre_lie(d)
    dual = dual_representation(left_mult_representation(d))
    assert check_representation(assoc, dual).ok
    for i in range(2):
        r_t = d.right.left_matrices[i].transpose()
        l_t = d.left.left_matrices[i].transpose()
        assert dual.rho[i] == r_t + l_t
        assert dual.mu[i] == l_t


def test_induced_and_compat_trivial_cases(named_algebras):
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    d = induced_dendriform(a2, reg, Matrix.zero(QQ, 2, 2))
    assert d.right.tensor.is_zero() and d.left.tensor.is_zero()
    z2 = named_algebras["zero2"]
    zrep = Representation.zero(QQ, 2, 2)
    dz = compatible_from_invertible_O(z2, zrep, Matrix.identity(QQ, 2))
    assert dz.right.tensor.is_zero() and dz.left.tensor.is_zero()
    assert associated_table(dz).tensor.is_zero()


def test_identity_is_o_operator_for_left_mult_rep(f3_algebras, named_algebras):
    """Id solves the operator relation for (L_>, -L_<) of a verified
    dendriform structure, and transporting along it returns the structure."""
    a2 = named_algebras["a2"].table
    d = AntiLDendriform(a2, MultTable.zero(QQ, 2))
    rep = left_mult_representation(d)
    assoc = associated_anti_pre_lie(d)
    ident = Matrix.identity(QQ, 2)
    assert check_O_operator(assoc, rep, ident).ok
    back = compatible_from_invertible_O(assoc, rep, ident)
    assert back.right.tensor == d.right.tensor
    assert back.left.tensor == d.left.tensor


def test_compatible_refuses_singular(named_algebras):
    a2 = named_algebras["a2"]
    with pytest.raises(StructureError):
        compatible_from_invertible_O(a2, regular_representation(a2), Matrix.zero(QQ, 2, 2))


def test_induced_refuses_non_operator(named_algebras):
    a2 = named_algebras["a2"]
    with pytest.raises(StructureError):
        induced_dendriform(a2, regular_representation(a2), Matrix.identity(QQ, 2))


def test_form_identity_rejected_on_a2(named_algebras):
    """Invariance alone is not enough: the identity form on e0.e1 = e1
    satisfies it yet fails the transport identity, and the construction
    would produce an incompatible structure."""
    a2 = named_algebras["a2"]
    report = check_form_invariance(a2, Matrix.identity(QQ, 2))
    assert not report.ok
    assert {v.law for v in report.violations} == {"form-transport"}
    with pytest.raises(StructureError):
        dendriform_from_bilinear_form(a2, Matrix.identity(QQ, 2))


def test_form_residuals_match_naive_oracle():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.choice([1, 2])
        table = rand_table(rng, n)
        b = rand_matrix(rng, n, n)
        report = check_form_invariance(table, b)
        got = {
            (v.law, *v.at): v.residual[0]
            for v in report.violations
            if v.law in ("form-invariance", "form-transport")
        }
        assert got == naive_form_residuals(table, b)


def test_degenerate_form_rejected(named_algebras):
    z2 = named_algebras["zero2"]
    report = check_form_invariance(z2, Matrix.zero(QQ, 2, 2))
    assert any(v.law == "form-degenerate" for v in report.violations)


def test_strict_skew_flag(named_algebras):
    z2 = named_algebras["zero2"]
    sym = Matrix.identity(QQ, 2)
    assert check_form_invariance(z2, sym).ok
    assert not check_form_invariance(z2, sym, strict_skew=True).ok
    skew = Matrix.from_rows(QQ, [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    assert check_form_invariance(z2, skew, strict_skew=True).ok


def test_zero_algebra_form_construction(named_algebras):
    d = dendriform_from_bilinear_form(named_algebras["zero2"], Matrix.identity(QQ, 2))
    assert d.right.tensor.is_zero()
    assert d.left.tensor.is_zero()


def test_form_scale_invariance(named_algebras):
    alg = named_algebras["comm2"]
    b = Matrix.from_rows(QQ, [[Fraction(-2), Fraction(-2)], [Fraction(2), Fraction(0)]])
    assert check_form_invariance(alg, b).ok
    d = dendriform_from_bilinear_form(alg, b)
    d5 = dendriform_from_bilinear_form(alg, b.scale(Fraction(5)))
    assert d.right.tensor == d5.right.tensor
    assert d.left.tensor == d5.left.tensor


def test_f5_form_pipeline(f5_form_instances):
    """Every searched form yields a compatible structure whose sharp-inverse
    solves the operator relation for the dual regular representation."""
    assert f5_form_instances
    for name, table, b in f5_form_instances:
        d = dendriform_from_bilinear_form(table, b)
        assert associated_table(d).tensor == table.tensor, name
        reg = Representation(2, 2, table.left_matrices, table.right_matrices)
        t_sharp_inv = invert(form_sharp(b))
        assert t_sharp_inv is not None, name
        assert check_O_operator(table, dual_representation(reg), t_sharp_inv).ok, name


def test_q_form_pipeline(named_algebras):
    """Rational instances: small-entry forms on comm2 found by scan, checked
    through the same pipeline."""
    alg = named_algebras["comm2"]
    vals = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    found = 0
    for b00 in vals:
        for b01 in vals:
            for b10 in vals:
                for b11 in vals:
                    b = Matrix.from_rows(QQ, [[b00, b01], [b10, b11]])
                    if not check_form_invariance(alg, b).ok:
                        continue
                    found += 1
                    d = dendriform_from_bilinear_form(alg, b)
                    assert associated_table(d).tensor == alg.table.tensor
                    t = invert(form_sharp(b))
                    assert check_O_operator(
                        alg, dual_representation(regular_representation(alg)), t
                    ).ok
    assert found == 20  # frozen from the first verified scan
