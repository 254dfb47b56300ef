"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every expected value is either computed in place by an independent oracle or
frozen from a previously oracle-verified run; tolerances are zero everywhere.
Each test prints one PASS line with its runtime (visible with -s, and always
checked against the stated budget).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from antiprelie.algebra import check_anti_pre_lie, check_morphism
from antiprelie.cohomology import (
    Cochain2,
    cochain1_to_vec,
    cochain2_to_vec,
    cohomologous,
    cohomology_spaces,
    d1,
    d1_matrix,
    d2_matrix,
    is_cocycle,
)
from antiprelie.deformation import (
    TruncatedDeformation,
    TruncatedIsomorphism,
    apply_isomorphism,
    infinitesimal,
    is_deformation,
    rigidity_certificate,
)
from antiprelie.dendriform import (
    associated_anti_pre_lie,
    associated_table,
    check_anti_L_dendriform,
    check_form_invariance,
    check_O_operator,
    compatible_from_invertible_O,
    dendriform_from_bilinear_form,
    form_sharp,
    induced_dendriform,
)
from antiprelie.extension import (
    are_isomorphic,
    build_extension,
    classify_extensions,
    extract_cocycle,
)
from antiprelie.fields import QQ
from antiprelie.linalg import Matrix, Tensor3, invert, kernel_basis, solve
from antiprelie.representation import (
    Representation,
    check_representation,
    dual_representation,
    regular_representation,
    semidirect_product,
    special_condition_report,
)
from antiprelie.search import SearchSpec, search_o_operators

from conftest import rand_fraction, rand_matrix, rand_table
from oracles import (
    bareiss_kernel,
    cochain3_to_vec,
    d2,
    naive_apl_residuals,
    naive_d1_values,
    naive_d2_values,
    naive_dendriform_residuals,
    naive_form_residuals,
    naive_morphism_residuals,
    naive_o_operator_residuals,
    naive_rep_residuals,
    same_span,
)


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"{criterion} exceeded its {seconds}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {criterion} PASS ({elapsed:.2f}s)")


def rand_cochain2(rng, n, m):
    return Cochain2(Tensor3.from_entries(
        QQ, [[[rand_fraction(rng) for _ in range(m)] for _ in range(n)] for _ in range(n)]
    ))


def test_criterion_1_coboundaries_are_cocycles(corpus_pairs):
    """d2 o d1 = 0 exactly, >= 100 random 1-cochains over >= 10 pairs."""
    with budget("1 (coboundary composition)", 10.0):
        rng = random.Random(1001)
        assert len(corpus_pairs) >= 10
        checked = 0
        per_pair = max(1, -(-100 // len(corpus_pairs)))
        for name, alg, rep in corpus_pairs:
            for _ in range(per_pair):
                f = rand_matrix(rng, rep.dim_v, alg.dim)
                assert d2(alg, rep, d1(alg, rep, f)).is_zero(), name
                checked += 1
        assert checked >= 100


def test_criterion_2_semidirect_soundness(corpus_pairs):
    with budget("2 (semidirect soundness)", 10.0):
        for name, alg, rep in corpus_pairs:
            total = semidirect_product(alg, rep)
            assert check_anti_pre_lie(total.table).ok, name


def test_criterion_3_dual_representation(corpus_pairs):
    with budget("3 (dual representation)", 5.0):
        for name, alg, rep in corpus_pairs:
            dual = dual_representation(rep)
            assert check_representation(alg, dual).ok, name
            assert dual_representation(dual) == rep, name


def test_criterion_4_three_way_equivalence(corpus_pairs, named_algebras):
    with budget("4 (three-way equivalence)", 5.0):
        seen_all_false = False
        for name, alg, rep in corpus_pairs:
            conds = special_condition_report(alg, rep)
            assert len(set(conds)) == 1, (name, conds)
            if conds == (False, False, False):
                seen_all_false = True
        for name in ("idem1", "idem2"):
            alg = named_algebras[name]
            conds = special_condition_report(alg, regular_representation(alg))
            assert conds == (False, False, False), name
            seen_all_false = True
        assert seen_all_false


def test_criterion_5_cohomology_two_solver(corpus_pairs, named_algebras):
    with budget("5 (cohomology dimensions, two solvers)", 10.0):
        spaces = cohomology_spaces(named_algebras["zero2"], Representation.zero(QQ, 2, 1))
        assert (spaces.z2_dim, spaces.b2_dim, spaces.h2_dim) == (4, 0, 4)
        for name, alg, rep in corpus_pairs:
            dd2 = d2_matrix(alg, rep)
            ours = kernel_basis(dd2)
            theirs = bareiss_kernel(dd2)
            assert len(ours) == len(theirs), name
            assert same_span(QQ, ours, theirs, dd2.cols), name


def test_criterion_6_o_operator_pipeline(f3_algebras):
    with budget("6 (operator pipeline over F3)", 60.0):
        spec = SearchSpec(kind="o-operator", dim=2, p=3, dim_v=2)
        found_total = 0
        invertible_total = 0
        for name, table in f3_algebras.items():
            reg = Representation(2, 2, table.left_matrices, table.right_matrices)
            for rep_name, rep in (("regular", reg), ("dual", dual_representation(reg))):
                for t in search_o_operators(spec, table, rep):
                    found_total += 1
                    dend = induced_dendriform(table, rep, t)
                    assert check_anti_L_dendriform(dend).ok, (name, rep_name)
                    assoc = associated_anti_pre_lie(dend)
                    assert check_morphism(t, assoc.table, table).ok, (name, rep_name)
                    for a in range(2):
                        for b in range(2):
                            prod = table.multiply(t.col(a), t.col(b))
                            assert solve(t, prod) is not None, (name, rep_name)
                    if invert(t) is not None:
                        invertible_total += 1
                        compat = compatible_from_invertible_O(table, rep, t)
                        assert associated_table(compat).tensor == table.tensor, (name, rep_name)
        assert found_total > 0 and invertible_total > 0


def test_criterion_7_bilinear_form_construction(f5_form_instances, named_algebras):
    with budget("7 (bilinear-form construction)", 30.0):
        instances = list(f5_form_instances)
        comm2 = named_algebras["comm2"]
        vals = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
        for b00 in vals:
            for b01 in vals:
                for b10 in vals:
                    for b11 in vals:
                        b = Matrix.from_rows(QQ, [[b00, b01], [b10, b11]])
                        if check_form_invariance(comm2, b).ok:
                            instances.append(("comm2/Q", comm2.table, b))
        zero2 = named_algebras["zero2"]
        instances.append(("zero2/Q-identity", zero2.table, Matrix.identity(QQ, 2)))
        assert len(instances) > 20
        for name, table, b in instances:
            dend = dendriform_from_bilinear_form(table, b)
            assert associated_table(dend).tensor == table.tensor, name
            reg = Representation(table.dim, table.dim, table.left_matrices, table.right_matrices)
            sharp_inv = invert(form_sharp(b))
            assert sharp_inv is not None, name
            assert check_O_operator(table, dual_representation(reg), sharp_inv).ok, name


def test_criterion_8_deformation_suite(corpus_algebras):
    with budget("8 (deformation suite)", 60.0):
        rng = random.Random(8008)
        bases = [corpus_algebras[k] for k in ("a2", "comm2", "rigid2", "lift1")]
        deformations = []
        for alg in bases:
            deformations.append(TruncatedDeformation.trivial(alg, 3))
            iso = TruncatedIsomorphism(tuple(rand_matrix(rng, alg.dim, alg.dim) for _ in range(3)))
            deformations.append(apply_isomorphism(deformations[-1], iso))
        for d in deformations:
            assert is_deformation(d)
            w1 = infinitesimal(d)
            assert is_cocycle(d.base, regular_representation(d.base), w1)

        iso_count = 0
        while iso_count < 20:
            d = deformations[iso_count % len(deformations)]
            iso = TruncatedIsomorphism(tuple(rand_matrix(rng, d.dim, d.dim) for _ in range(3)))
            moved = apply_isomorphism(d, iso)
            assert is_deformation(moved)
            reg = regular_representation(d.base)
            shift = Cochain2(moved.terms[0].tensor - d.terms[0].tensor)
            assert cochain2_to_vec(shift) == cochain2_to_vec(d1(d.base, reg, iso.phis[0]))
            assert cohomologous(d.base, reg, Cochain2.from_table(moved.terms[0]),
                                Cochain2.from_table(d.terms[0])) is not None
            iso_count += 1

        rigid = corpus_algebras["rigid2"]
        samples = [TruncatedDeformation.trivial(rigid, 3)]
        for _ in range(5):
            iso = TruncatedIsomorphism(tuple(rand_matrix(rng, 2, 2) for _ in range(3)))
            samples.append(apply_isomorphism(samples[0], iso))
        cert = rigidity_certificate(rigid, samples, 3)
        assert cert.h2_dim == 0
        assert cert.rigid_verified
        assert len(cert.eliminations) == len(samples)


def test_criterion_9_extension_classification(named_algebras):
    with budget("9 (extension classification)", 30.0):
        rng = random.Random(909)
        a2 = named_algebras["a2"]
        reg = regular_representation(a2)
        classes = classify_extensions(a2, reg)
        for theta, ext in classes:
            got, rep_got = extract_cocycle(ext)
            assert cochain2_to_vec(got) == cochain2_to_vec(theta)
            assert rep_got == reg
        for i, (_, e1) in enumerate(classes):
            for j, (_, e2) in enumerate(classes):
                if i < j:
                    assert are_isomorphic(e1, e2) is None
        theta = classes[0][0]
        for _ in range(3):
            phi = rand_matrix(rng, 2, 2)
            shifted = Cochain2((theta + d1(a2, reg, phi)).tensor)
            ext2 = build_extension(a2, reg, shifted)
            zeta = are_isomorphic(classes[0][1], ext2)
            assert zeta is not None
            assert check_morphism(zeta, classes[0][1].total.table, ext2.total.table).ok

        zero2 = named_algebras["zero2"]
        zrep = Representation.zero(QQ, 2, 1)
        zclasses = classify_extensions(zero2, zrep)
        assert len(zclasses) == cohomology_spaces(zero2, zrep).h2_dim == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert are_isomorphic(zclasses[i][1], zclasses[j][1]) is None


def test_criterion_10_oracle_equivalence():
    with budget("10 (matrix route vs naive oracle)", 30.0):
        rng = random.Random(10_000)

        for _ in range(100):
            t = rand_table(rng, rng.choice([1, 2, 3]))
            report = check_anti_pre_lie(t)
            assert {(v.law, *v.at): v.residual for v in report.violations} == naive_apl_residuals(t)

        for _ in range(100):
            n, m = rng.choice([1, 2]), rng.choice([1, 2])
            t = rand_table(rng, n)
            rep = Representation(
                n, m,
                tuple(rand_matrix(rng, m, m) for _ in range(n)),
                tuple(rand_matrix(rng, m, m) for _ in range(n)),
            )
            report = check_representation(t, rep)
            assert {(v.law, *v.at): v.residual for v in report.violations} == naive_rep_residuals(t, rep)

        from antiprelie.dendriform import AntiLDendriform

        for _ in range(100):
            d = AntiLDendriform(rand_table(rng, 2), rand_table(rng, 2))
            report = check_anti_L_dendriform(d)
            assert {(v.law, *v.at): v.residual for v in report.violations} == naive_dendriform_residuals(d)

        for _ in range(100):
            n, m = rng.choice([1, 2]), rng.choice([1, 2])
            t = rand_table(rng, n)
            rep = Representation(
                n, m,
                tuple(rand_matrix(rng, m, m) for _ in range(n)),
                tuple(rand_matrix(rng, m, m) for _ in range(n)),
            )
            op = rand_matrix(rng, n, m)
            report = check_O_operator(t, rep, op)
            assert {v.at: v.residual for v in report.violations} == naive_o_operator_residuals(t, rep, op)

        for _ in range(100):
            n = rng.choice([1, 2])
            src, dst = rand_table(rng, n), rand_table(rng, n)
            f = rand_matrix(rng, n, n)
            report = check_morphism(f, src, dst)
            assert {v.at: v.residual for v in report.violations} == naive_morphism_residuals(f, src, dst)

        for _ in range(100):
            n = rng.choice([1, 2])
            t = rand_table(rng, n)
            b = rand_matrix(rng, n, n)
            report = check_form_invariance(t, b)
            got = {
                (v.law, *v.at): v.residual[0]
                for v in report.violations
                if v.law in ("form-invariance", "form-transport")
            }
            assert got == naive_form_residuals(t, b)

        for _ in range(100):
            n, m = rng.choice([1, 2]), rng.choice([1, 2])
            t = rand_table(rng, n)
            rep = Representation(
                n, m,
                tuple(rand_matrix(rng, m, m) for _ in range(n)),
                tuple(rand_matrix(rng, m, m) for _ in range(n)),
            )
            f = rand_matrix(rng, m, n)
            point = d1(t, rep, f)
            assert naive_d1_values(t, rep, f) == [
                [point.value(i, j) for j in range(n)] for i in range(n)
            ]
            assert d1_matrix(t, rep).apply(cochain1_to_vec(f)) == cochain2_to_vec(point)
            g = rand_cochain2(rng, n, m)
            pair = d2(t, rep, g)
            nv1, nv2 = naive_d2_values(t, rep, g)
            assert all(
                nv1[a][b][c] == pair.comp1[a][b][c] and nv2[a][b][c] == pair.comp2[a][b][c]
                for a in range(n) for b in range(n) for c in range(n)
            )
            assert d2_matrix(t, rep).apply(cochain2_to_vec(g)) == cochain3_to_vec(pair)
