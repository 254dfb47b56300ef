import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie.algebra import (
    AntiPreLieAlgebra,
    MultTable,
    StructureError,
    check_anti_pre_lie,
    check_lie_table,
    check_morphism,
    commutator_table,
    is_anti_pre_lie,
    sub_adjacent_lie,
)
from antiprelie.extension import extract_cocycle, semidirect_extension
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import Matrix, basis_vec, invert, vec_is_zero
from antiprelie.representation import regular_representation

from conftest import fp_table, q_table, rand_fraction, rand_matrix, rand_table
from oracles import dense_invert, naive_apl_residuals, naive_conjugate, naive_morphism_residuals

E0 = basis_vec(QQ, 2, 0)
E1 = basis_vec(QQ, 2, 1)


def test_zero_table_passes():
    zero = MultTable.zero(QQ, 3)
    assert check_anti_pre_lie(zero).ok
    x = (Fraction(1), Fraction(-2), Fraction(3, 4))
    assert vec_is_zero(zero.multiply(x, x))


def test_commutative_associative_passes(named_algebras):
    assert check_anti_pre_lie(named_algebras["comm2"].table).ok
    assert check_anti_pre_lie(named_algebras["idem2"].table).ok


def test_a2_multiply_reads_table(named_algebras):
    a2 = named_algebras["a2"].table
    assert a2.multiply(E0, E1) == E1
    assert vec_is_zero(a2.multiply(E1, E0))


def test_bilinearity_spot_check(named_algebras):
    a2 = named_algebras["a2"].table
    two_e0 = tuple(Fraction(2) * x for x in E0)
    three_e1 = tuple(Fraction(3) * x for x in E1)
    assert a2.multiply(two_e0, three_e1) == tuple(Fraction(6) * x for x in a2.multiply(E0, E1))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6))
def test_multiply_bilinear_random(n, seed):
    rng = random.Random(seed)
    t = rand_table(rng, n)
    x = tuple(rand_fraction(rng) for _ in range(n))
    y = tuple(rand_fraction(rng) for _ in range(n))
    y2 = tuple(rand_fraction(rng) for _ in range(n))
    c = rand_fraction(rng)
    left = t.multiply(x, tuple(a + c * b for a, b in zip(y, y2)))
    right = tuple(
        a + c * b for a, b in zip(t.multiply(x, y), t.multiply(x, y2))
    )
    assert left == right


def test_abar2_fails_at_named_triple(abar2_table):
    report = check_anti_pre_lie(abar2_table)
    assert not report.ok
    v = report.violations[0]
    assert v.law == "exchange"
    assert v.at == (0, 1, 0)
    # left side is 0, right side is [y,x].z = e1, so the residual is -e1
    assert v.residual == (Fraction(0), Fraction(-1))


def test_report_names_concrete_triples(abar2_table):
    report = check_anti_pre_lie(abar2_table)
    for v in report.violations:
        assert len(v.at) == 3
        assert not vec_is_zero(v.residual)


def test_verify_raises_with_report(abar2_table):
    with pytest.raises(StructureError) as exc:
        AntiPreLieAlgebra.verify(abar2_table)
    assert exc.value.report is not None
    assert not exc.value.report.ok


def test_sub_adjacent_zero_and_commutative(named_algebras):
    for name in ("zero2", "comm2"):
        lie = sub_adjacent_lie(named_algebras[name])
        assert lie.tensor.is_zero()


def test_sub_adjacent_a2_nonabelian(named_algebras):
    lie = sub_adjacent_lie(named_algebras["a2"])
    assert lie.bracket_basis(0, 1) == E1
    assert lie.bracket_basis(1, 0) == tuple(-x for x in E1)
    assert check_lie_table(MultTable(lie.tensor)).ok


def test_lie_check_catches_non_jacobi():
    bad = q_table(2, {(0, 1, 0): 1, (1, 0, 0): -1, (0, 0, 0): 1})
    report = check_lie_table(bad)
    assert not report.ok


def test_corpus_sub_adjacent_always_lie(corpus_algebras):
    for name, alg in corpus_algebras.items():
        lie = sub_adjacent_lie(alg)
        assert check_lie_table(MultTable(lie.tensor)).ok, name


def test_morphism_identity_and_zero(named_algebras):
    a2 = named_algebras["a2"].table
    comm2 = named_algebras["comm2"].table
    assert check_morphism(Matrix.identity(QQ, 2), a2, a2).ok
    assert check_morphism(Matrix.zero(QQ, 2, 2), a2, comm2).ok


def test_morphism_swap_fails_on_a2(named_algebras):
    a2 = named_algebras["a2"].table
    swap = Matrix.from_rows(QQ, [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    report = check_morphism(swap, a2, a2)
    assert not report.ok
    assert any(v.at == (0, 1) for v in report.violations)


def test_morphism_shape_contract(named_algebras):
    a2 = named_algebras["a2"].table
    with pytest.raises(ValueError):
        check_morphism(Matrix.zero(QQ, 3, 3), a2, a2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_matrix_route_matches_naive_oracle(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3])
    t = rand_table(rng, n)
    report = check_anti_pre_lie(t)
    oracle = naive_apl_residuals(t)
    got = {(v.law, *v.at): v.residual for v in report.violations}
    assert got == oracle
    assert is_anti_pre_lie(t) == (not oracle)


def scalar(rng, field):
    return rand_fraction(rng) if field == QQ else field.of_int(rng.randrange(field.p))


def field_table(rng, field, n):
    return MultTable.from_entries(field, [[[scalar(rng, field) for _ in range(n)] for _ in range(n)]
                                          for _ in range(n)])


def field_matrix(rng, field, rows, cols):
    return Matrix.from_rows(field, [[scalar(rng, field) for _ in range(cols)] for _ in range(rows)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([QQ, PrimeField(3)]), st.booleans())
def test_morphism_matches_naive_oracle(seed, field, square):
    """Square and rectangular (dst dim != src dim) morphisms, over Q and F_3."""
    rng = random.Random(seed)
    n = rng.choice([1, 2])
    m = n if square else rng.choice([k for k in (1, 2, 3) if k != n])
    src = field_table(rng, field, n)
    dst = field_table(rng, field, m)
    f = field_matrix(rng, field, m, n)
    report = check_morphism(f, src, dst)
    oracle = naive_morphism_residuals(f, src, dst)
    assert {v.at: v.residual for v in report.violations} == oracle


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_check_is_basis_equivariant(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    p = rand_matrix(rng, n, n)
    while invert(p) is None:
        p = rand_matrix(rng, n, n)
    t = rand_table(rng, n) if rng.random() < 0.5 else MultTable.zero(QQ, n)
    conj = t.conjugate(p)
    assert is_anti_pre_lie(t) == is_anti_pre_lie(conj)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([QQ, PrimeField(3)]), st.integers(1, 3))
def test_conjugate_matches_naive_oracle(seed, field, n):
    rng = random.Random(seed)
    t = field_table(rng, field, n)
    p = field_matrix(rng, field, n, n)
    while dense_invert(p) is None:
        p = field_matrix(rng, field, n, n)
    assert t.conjugate(p).tensor == naive_conjugate(t, p).tensor


F3 = PrimeField(3)


@pytest.mark.parametrize("call", [
    lambda a2: a2.table.conjugate(Matrix.identity(F3, 2)),
    lambda a2: check_morphism(Matrix.identity(F3, 2), a2.table, a2.table),
    lambda a2: check_morphism(Matrix.identity(QQ, 2), a2.table, fp_table(3, 2, {(0, 1, 1): 1})),
    lambda a2: extract_cocycle(semidirect_extension(a2, regular_representation(a2)),
                               Matrix.from_cols(F3, Matrix.identity(F3, 4).entries[:2])),
], ids=["conjugate", "morphism-map", "morphism-target", "extract-section"])
def test_matrix_or_table_over_another_field_is_refused(named_algebras, call):
    with pytest.raises(ValueError, match=r"is over PrimeField\(p=3\), the table over Rationals"):
        call(named_algebras["a2"])


def test_equivariance_on_verified_instance(named_algebras):
    rng = random.Random(11)
    a2 = named_algebras["a2"].table
    for _ in range(5):
        p = rand_matrix(rng, 2, 2)
        if invert(p) is None:
            continue
        assert is_anti_pre_lie(a2.conjugate(p))


def test_commutator_table_antisymmetry(corpus_algebras):
    for name, alg in corpus_algebras.items():
        ct = commutator_table(alg.table)
        n = ct.dim
        for i in range(n):
            for j in range(n):
                assert ct.basis_product(i, j) == tuple(-x for x in ct.basis_product(j, i))


def test_operator_matrices_match_products(named_algebras):
    a2 = named_algebras["a2"].table
    for i in range(2):
        for j in range(2):
            e_i = basis_vec(QQ, 2, i)
            e_j = basis_vec(QQ, 2, j)
            assert a2.left_matrices[i].apply(e_j) == a2.multiply(e_i, e_j)
            assert a2.right_matrices[i].apply(e_j) == a2.multiply(e_j, e_i)


def test_regular_rep_example_matrices(named_algebras):
    a2 = named_algebras["a2"].table
    assert a2.left_matrices[0].apply(E1) == E1
    assert vec_is_zero(a2.left_matrices[0].apply(E0))
    assert a2.right_matrices[1].apply(E0) == E1
    assert a2.left_matrices[1].is_zero()
    assert a2.right_matrices[0].is_zero()
    comm2 = named_algebras["comm2"].table
    assert comm2.left_matrices[0] == comm2.right_matrices[0]
    assert comm2.left_matrices[0].apply(E0) == E1
