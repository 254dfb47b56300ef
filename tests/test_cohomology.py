import random
from fractions import Fraction

import pytest

from antiprelie.algebra import AntiPreLieAlgebra, MultTable
from antiprelie.cohomology import (
    Cochain2,
    cochain1_from_vec,
    cochain1_to_vec,
    cochain2_from_vec,
    cochain2_to_vec,
    cohomologous,
    cohomology_spaces,
    d1,
    d1_matrix,
    d2_matrix,
    is_cocycle,
)
from antiprelie.fields import QQ
from antiprelie.linalg import Matrix, Tensor3, vec_is_zero
from antiprelie.representation import Representation, regular_representation

from conftest import rand_fraction, rand_matrix, rand_table
from oracles import (
    bareiss_kernel,
    cochain3_to_vec,
    d2,
    dense_in_span,
    naive_action,
    naive_d1_values,
    naive_d2_values,
    same_span,
)


def rand_cochain2(rng, n, m):
    return Cochain2(Tensor3.from_entries(
        QQ, [[[rand_fraction(rng) for _ in range(m)] for _ in range(n)] for _ in range(n)]
    ))


def test_d1_of_zero_is_zero(corpus_pairs):
    for name, alg, rep in corpus_pairs:
        f = Matrix.zero(QQ, rep.dim_v, alg.dim)
        assert d1(alg, rep, f).is_zero(), name


def test_d1_zero_rep_formula(named_algebras):
    """With rho = mu = 0 the coboundary collapses to -f(x.y); for the
    identity 1-cochain on the e0.e1 = e1 table that is -e1 at (0, 1)."""
    a2 = named_algebras["a2"]
    rep = Representation.zero(QQ, 2, 2)
    out = d1(a2, rep, Matrix.identity(QQ, 2))
    assert out.value(0, 1) == (Fraction(0), Fraction(-1))
    for i, j in ((0, 0), (1, 0), (1, 1)):
        assert vec_is_zero(out.value(i, j))


def test_d2_of_zero_is_zero(corpus_pairs):
    for name, alg, rep in corpus_pairs:
        f = Cochain2.zero(QQ, alg.dim, rep.dim_v)
        assert d2(alg, rep, f).is_zero(), name


def test_d2_kills_coboundaries(corpus_pairs):
    rng = random.Random(42)
    for name, alg, rep in corpus_pairs:
        for _ in range(3):
            f = rand_matrix(rng, rep.dim_v, alg.dim)
            assert d2(alg, rep, d1(alg, rep, f)).is_zero(), name


def test_zero_context_kills_everything(named_algebras):
    alg = named_algebras["zero2"]
    rep = Representation.zero(QQ, 2, 1)
    rng = random.Random(0)
    for _ in range(5):
        f = rand_cochain2(rng, 2, 1)
        assert d2(alg, rep, f).is_zero()
        g = rand_matrix(rng, 1, 2)
        assert d1(alg, rep, g).is_zero()


def test_d2_symmetries_hold_on_random_inputs():
    """comp1 antisymmetric in (x, y), comp2 alternating: structural for any
    table and action pair, enforced by the evaluator's self-check."""
    rng = random.Random(9)
    for _ in range(10):
        n, m = rng.choice([1, 2, 3]), rng.choice([1, 2])
        table = rand_table(rng, n)
        rep = Representation(
            n, m,
            tuple(rand_matrix(rng, m, m) for _ in range(n)),
            tuple(rand_matrix(rng, m, m) for _ in range(n)),
        )
        pair = d2(table, rep, rand_cochain2(rng, n, m))
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert pair.comp1[a][b][c] == tuple(-x for x in pair.comp1[b][a][c])
                    assert pair.comp2[a][b][c] == tuple(-x for x in pair.comp2[b][a][c])
                    assert pair.comp2[a][b][c] == pair.comp2[b][c][a]


def test_linearizations_match_pointwise_and_naive(corpus_pairs):
    rng = random.Random(17)
    for name, alg, rep in corpus_pairs[:8]:
        n, m = alg.dim, rep.dim_v
        dd1 = d1_matrix(alg, rep)
        dd2 = d2_matrix(alg, rep)
        for _ in range(3):
            f = rand_matrix(rng, m, n)
            point = d1(alg, rep, f)
            assert dd1.apply(cochain1_to_vec(f)) == cochain2_to_vec(point), name
            assert naive_d1_values(alg.table, rep, f) == [
                [point.value(i, j) for j in range(n)] for i in range(n)
            ], name
            g = rand_cochain2(rng, n, m)
            pair = d2(alg, rep, g)
            assert dd2.apply(cochain2_to_vec(g)) == cochain3_to_vec(pair), name
            nv1, nv2 = naive_d2_values(alg.table, rep, g)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert nv1[a][b][c] == pair.comp1[a][b][c], name
                        assert nv2[a][b][c] == pair.comp2[a][b][c], name


def test_zero_fixture_dimensions(named_algebras):
    spaces = cohomology_spaces(named_algebras["zero2"], Representation.zero(QQ, 2, 1))
    assert (spaces.z2_dim, spaces.b2_dim, spaces.h2_dim) == (4, 0, 4)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_zero_algebra_h2_is_full_cochain_space(n, m):
    alg = AntiPreLieAlgebra.verify(MultTable.zero(QQ, n))
    spaces = cohomology_spaces(alg, Representation.zero(QQ, n, m))
    assert spaces.h2_dim == n * n * m
    assert spaces.b2_dim == 0


def test_a2_regular_dimensions(named_algebras):
    """Frozen from the first verified run; the second solver re-derives the
    kernel dimension below on every corpus instance."""
    a2 = named_algebras["a2"]
    spaces = cohomology_spaces(a2, regular_representation(a2))
    assert (spaces.z2_dim, spaces.b2_dim, spaces.h2_dim) == (5, 3, 2)


def test_rigid2_has_trivial_h2(named_algebras):
    alg = named_algebras["rigid2"]
    spaces = cohomology_spaces(alg, regular_representation(alg))
    assert spaces.h2_dim == 0


def test_two_solver_agreement(corpus_pairs):
    for name, alg, rep in corpus_pairs:
        dd2 = d2_matrix(alg, rep)
        ours = [cochain2_to_vec(c) for c in cohomology_spaces(alg, rep).z2_basis]
        theirs = bareiss_kernel(dd2)
        assert len(ours) == len(theirs), name
        assert same_span(QQ, ours, theirs, dd2.cols), name


def test_space_structure(corpus_pairs):
    for name, alg, rep in corpus_pairs[:10]:
        spaces = cohomology_spaces(alg, rep)
        assert spaces.h2_dim == spaces.z2_dim - spaces.b2_dim, name
        length = alg.dim * alg.dim * rep.dim_v
        z2_vecs = [cochain2_to_vec(c) for c in spaces.z2_basis]
        for b in spaces.b2_basis:
            assert dense_in_span(QQ, z2_vecs, cochain2_to_vec(b), length), name
        for r in spaces.h2_representatives:
            assert is_cocycle(alg, rep, r), name
        b2_vecs = [cochain2_to_vec(c) for c in spaces.b2_basis]
        for r in spaces.h2_representatives:
            assert not dense_in_span(QQ, b2_vecs, cochain2_to_vec(r), length), name


def test_dimensions_are_basis_invariant(named_algebras):
    """Conjugating the table by an invertible P (and pulling the actions back
    through P) must leave all three dimensions unchanged; this exercises the
    whole linearization assembly under coordinate change."""
    import random as _random

    from antiprelie.linalg import invert

    rng = _random.Random(61)
    for name in ("a2", "comm2", "rigid2"):
        alg = named_algebras[name]
        rep = regular_representation(alg)
        base = cohomology_spaces(alg, rep)
        for _ in range(3):
            p = rand_matrix(rng, 2, 2)
            if invert(p) is None:
                continue
            alg_c = AntiPreLieAlgebra.verify(alg.table.conjugate(p))
            rep_c = Representation(
                2, 2,
                tuple(naive_action(rep.rho, p.col(i)) for i in range(2)),
                tuple(naive_action(rep.mu, p.col(i)) for i in range(2)),
            )
            moved = cohomology_spaces(alg_c, rep_c)
            assert (moved.z2_dim, moved.b2_dim, moved.h2_dim) == (
                base.z2_dim, base.b2_dim, base.h2_dim,
            ), name


def test_representatives_pairwise_non_cohomologous(named_algebras):
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    reps = cohomology_spaces(a2, reg).h2_representatives
    for i in range(len(reps)):
        for j in range(len(reps)):
            if i != j:
                assert cohomologous(a2, reg, reps[i], reps[j]) is None


def test_cohomologous_identical(corpus_pairs):
    rng = random.Random(23)
    name, alg, rep = corpus_pairs[0]
    f = rand_cochain2(rng, alg.dim, rep.dim_v)
    phi = cohomologous(alg, rep, f, f)
    assert phi is not None
    assert d1(alg, rep, phi).is_zero()


def test_cohomologous_recovers_coboundary(corpus_pairs):
    rng = random.Random(29)
    for name, alg, rep in corpus_pairs[:6]:
        h = rand_matrix(rng, rep.dim_v, alg.dim)
        f = d1(alg, rep, h)
        phi = cohomologous(alg, rep, f, Cochain2.zero(QQ, alg.dim, rep.dim_v))
        assert phi is not None, name
        assert cochain2_to_vec(d1(alg, rep, phi)) == cochain2_to_vec(f), name


def test_cohomologous_absent_for_zero_context(named_algebras):
    alg = named_algebras["zero2"]
    rep = Representation.zero(QQ, 2, 1)
    rng = random.Random(31)
    f = rand_cochain2(rng, 2, 1)
    while f.is_zero():
        f = rand_cochain2(rng, 2, 1)
    assert cohomologous(alg, rep, f, Cochain2.zero(QQ, 2, 1)) is None


def test_is_cocycle_matches_d2(corpus_pairs):
    rng = random.Random(37)
    name, alg, rep = corpus_pairs[2]
    for _ in range(5):
        f = rand_cochain2(rng, alg.dim, rep.dim_v)
        assert is_cocycle(alg, rep, f) == d2(alg, rep, f).is_zero()


def test_vectorization_round_trip():
    rng = random.Random(41)
    f = rand_cochain2(rng, 3, 2)
    assert cochain2_from_vec(QQ, 3, 2, cochain2_to_vec(f)).tensor == f.tensor
    g = rand_matrix(rng, 2, 3)
    assert cochain1_from_vec(QQ, 3, 2, cochain1_to_vec(g)) == g
