import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie.algebra import AntiPreLieAlgebra, MultTable, StructureError, check_anti_pre_lie
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import Matrix, basis_vec
from antiprelie.representation import (
    LieRepresentation,
    Representation,
    check_lie_representation,
    check_representation,
    dual_representation,
    is_representation,
    regular_representation,
    semidirect_product,
    special_condition_report,
    sub_adjacent_representation,
)

from conftest import fp_table, rand_matrix, rand_table
from oracles import naive_rep_residuals


def rand_rep(rng, n, m):
    return Representation(
        n, m,
        tuple(rand_matrix(rng, m, m) for _ in range(n)),
        tuple(rand_matrix(rng, m, m) for _ in range(n)),
    )


def test_zero_rep_passes(corpus_algebras):
    for name, alg in corpus_algebras.items():
        rep = Representation.zero(QQ, alg.dim, 2)
        assert check_representation(alg, rep).ok, name


def test_regular_rep_passes_everywhere(corpus_algebras):
    for name, alg in corpus_algebras.items():
        assert check_representation(alg, regular_representation(alg)).ok, name


def test_left_action_with_zero_mu_on_a2(named_algebras):
    """(L, 0) satisfies all three axioms exactly when L kills the derived
    bracket; for the table with e0.e1 = e1 that holds (L(e1) = 0), computed by
    both evaluation routes."""
    a2 = named_algebras["a2"]
    rep = Representation(2, 2, a2.table.left_matrices, (Matrix.zero(QQ, 2, 2),) * 2)
    assert check_representation(a2, rep).ok
    assert naive_rep_residuals(a2.table, rep) == {}


def test_left_action_with_zero_mu_can_fail(named_algebras):
    """rigid2 has e1.e1 = e0 so L([e0,e1]) = L(e1) != 0 and axiom 3 breaks."""
    alg = named_algebras["rigid2"]
    rep = Representation(2, 2, alg.table.left_matrices, (Matrix.zero(QQ, 2, 2),) * 2)
    report = check_representation(alg, rep)
    assert not report.ok
    assert any(v.law == "rep-mu" for v in report.violations)


def test_corpus_pairs_all_verify(corpus_pairs):
    for name, alg, rep in corpus_pairs:
        assert check_representation(alg, rep).ok, name


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_rep_check_matches_naive_oracle(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2])
    m = rng.choice([1, 2])
    table = rand_table(rng, n)
    rep = rand_rep(rng, n, m)
    report = check_representation(table, rep)
    got = {(v.law, *v.at): v.residual for v in report.violations}
    assert got == naive_rep_residuals(table, rep)


def test_regular_rep_reads_columns(named_algebras):
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    e0 = basis_vec(QQ, 2, 0)
    e1 = basis_vec(QQ, 2, 1)
    assert reg.rho[0].apply(e1) == e1
    assert reg.rho[0].apply(e0) == (Fraction(0), Fraction(0))
    assert reg.mu[1].apply(e0) == e1
    zero_alg = AntiPreLieAlgebra.verify(MultTable.zero(QQ, 2))
    zreg = regular_representation(zero_alg)
    assert all(m.is_zero() for m in zreg.rho + zreg.mu)


def test_semidirect_blocks_and_soundness(corpus_pairs):
    for name, alg, rep in corpus_pairs:
        total = semidirect_product(alg, rep)
        n, m = alg.dim, rep.dim_v
        assert total.dim == n + m
        assert check_anti_pre_lie(total.table).ok
        table = total.table
        for i in range(n):
            for j in range(n):
                prod = table.basis_product(i, j)
                assert prod[:n] == alg.table.basis_product(i, j)
                assert not any(prod[n:])
        for i in range(n):
            for b in range(m):
                prod = table.basis_product(i, n + b)
                assert not any(prod[:n])
                assert prod[n:] == rep.rho[i].col(b)
                prod = table.basis_product(n + b, i)
                assert not any(prod[:n])
                assert prod[n:] == rep.mu[i].col(b)
        for a in range(m):
            for b in range(m):
                assert not any(table.basis_product(n + a, n + b))


def test_semidirect_refuses_invalid_rep(named_algebras):
    rng = random.Random(5)
    a2 = named_algebras["a2"]
    bad = rand_rep(rng, 2, 2)
    while is_representation(a2, bad):
        bad = rand_rep(rng, 2, 2)
    with pytest.raises(StructureError):
        semidirect_product(a2, bad)


def test_sub_adjacent_representation(corpus_pairs):
    for name, alg, rep in corpus_pairs:
        lierep = sub_adjacent_representation(alg, rep)
        assert lierep.action == tuple(r - m for r, m in zip(rep.rho, rep.mu))


def test_sub_adjacent_rep_equal_actions_vanish(named_algebras):
    a2 = named_algebras["a2"]
    rep = Representation.zero(QQ, 2, 2)
    lierep = sub_adjacent_representation(a2, rep)
    assert all(m.is_zero() for m in lierep.action)


def test_dual_representation_passes(corpus_pairs):
    for name, alg, rep in corpus_pairs:
        dual = dual_representation(rep)
        assert check_representation(alg, dual).ok, name


def test_dual_involution_bit_exact(corpus_pairs):
    for name, alg, rep in corpus_pairs:
        assert dual_representation(dual_representation(rep)) == rep, name


def test_dual_matrices_convention(named_algebras):
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    dual = dual_representation(reg)
    for i in range(2):
        ell = a2.table.left_matrices[i]
        arr = a2.table.right_matrices[i]
        assert dual.rho[i] == ell.transpose() - arr.transpose()
        assert dual.mu[i] == -arr.transpose()


def test_dual_of_zero_is_zero():
    rep = Representation.zero(QQ, 2, 2)
    assert dual_representation(rep) == rep


def test_special_conditions_mu_zero(named_algebras):
    a2 = named_algebras["a2"]
    rep = Representation(2, 2, regular_representation(a2).rho, (Matrix.zero(QQ, 2, 2),) * 2)
    assert check_representation(a2, rep).ok
    assert special_condition_report(a2, rep) == (True, True, True)


def test_special_conditions_always_agree(corpus_pairs):
    for name, alg, rep in corpus_pairs:
        conds = special_condition_report(alg, rep)
        assert len(set(conds)) == 1, (name, conds)


def test_special_conditions_engineered_all_false(named_algebras):
    """The idempotent table's regular action has mu(e0.e0) + mu(e0.e0) =
    2 R(e0) != 0, so all three equivalent conditions are false."""
    for name in ("idem1", "idem2"):
        alg = named_algebras[name]
        conds = special_condition_report(alg, regular_representation(alg))
        assert conds == (False, False, False), name


def test_special_conditions_commutative_all_true(named_algebras):
    """For e0.e0 = e1 the right action of the product image vanishes, so
    condition (iii) holds and the other two follow."""
    alg = named_algebras["comm2"]
    conds = special_condition_report(alg, regular_representation(alg))
    assert conds == (True, True, True)


def test_special_conditions_zero_algebra_equal_actions(named_algebras):
    """Over a zero algebra an equal pair with vanishing pairwise products is
    a representation, and all products being zero makes every condition hold."""
    z2 = named_algebras["zero2"]
    nil = Matrix.from_rows(QQ, [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])
    rep = Representation(2, 2, (nil, nil), (nil, nil))
    assert check_representation(z2, rep).ok
    assert special_condition_report(z2, rep) == (True, True, True)


def test_special_conditions_swap_closure(corpus_pairs):
    """When the conditions hold, (mu - rho, mu) is itself a verified
    representation and its own three conditions hold as well."""
    for name, alg, rep in corpus_pairs:
        conds = special_condition_report(alg, rep)
        if conds[0]:
            swapped = Representation(
                rep.dim_a, rep.dim_v,
                tuple(m - r for r, m in zip(rep.rho, rep.mu)), rep.mu,
            )
            assert check_representation(alg, swapped).ok, name
            assert special_condition_report(alg, swapped) == (True, True, True), name


def test_lie_representation_check(named_algebras):
    a2 = named_algebras["a2"]
    from antiprelie.algebra import sub_adjacent_lie

    lie = sub_adjacent_lie(a2)
    good = sub_adjacent_representation(a2, regular_representation(a2))
    assert check_lie_representation(lie, good).ok
    bad = LieRepresentation(2, (Matrix.identity(QQ, 2), Matrix.from_rows(
        QQ, [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]])))
    assert not check_lie_representation(lie, bad).ok


def test_negated_rho_is_lie_action(corpus_pairs):
    """The first axiom alone forces -rho to act on the commutator bracket;
    with the regular pair this is the negated left multiplication."""
    from antiprelie.algebra import sub_adjacent_lie

    for name, alg, rep in corpus_pairs:
        lie = sub_adjacent_lie(alg)
        neg_rho = LieRepresentation(rep.dim_v, tuple(-r for r in rep.rho))
        assert check_lie_representation(lie, neg_rho).ok, name


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_representation_over_another_field_is_refused(field):
    """A representation over F_3 against a table over Q or F_5 is refused
    by both the check and the boolean, before any arithmetic."""
    table = MultTable.from_dict(field, 2, {(0, 0, 0): 1})
    rep = regular_representation(AntiPreLieAlgebra.verify(fp_table(3, 2, {(0, 1, 1): 1})))
    with pytest.raises(ValueError, match="representation is over PrimeField"):
        check_representation(table, rep)
    with pytest.raises(ValueError, match="representation is over PrimeField"):
        is_representation(table, rep)


def test_representation_refuses_mixed_fields():
    """Action matrices over more than one field, or scalars other than
    theirs, are refused when the representation is made; a rho over Q with
    a mu over F_3 used to reach the checks and fail there on an Fp value."""
    f3 = PrimeField(3)
    q_one, f3_one = Matrix.identity(QQ, 1), Matrix.identity(f3, 1)
    with pytest.raises(ValueError, match="mix fields"):
        Representation(1, 1, (q_one,), (f3_one,))
    with pytest.raises(ValueError, match="mix fields"):
        Representation(2, 1, (f3_one, f3_one), (f3_one, Matrix.zero(PrimeField(5), 1, 1)))
    with pytest.raises(ValueError, match="mix fields"):
        Representation(1, 1, (q_one,), (q_one,), f3)
    assert Representation(1, 1, (f3_one,), (f3_one,), f3).field == f3
    assert Representation(0, 2, (), (), f3).field == f3
