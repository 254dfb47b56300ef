from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import (
    Matrix,
    Tensor3,
    invert,
    kernel_basis,
    pivot_columns,
    rank,
    solve,
    vec_is_zero,
)

from oracles import bareiss_kernel, same_span

fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def mat_strategy(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(fracs, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Matrix.from_rows(QQ, rows))
        )
    )


@settings(max_examples=60, deadline=None)
@given(mat_strategy())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(mat_strategy())
def test_kernel_vectors_annihilate(m):
    for v in kernel_basis(m):
        assert vec_is_zero(m.apply(v))


@settings(max_examples=60, deadline=None)
@given(mat_strategy(), st.lists(fracs, min_size=1, max_size=4))
def test_solve_exactness(m, xs):
    x = tuple((xs * m.cols)[: m.cols])
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None
    assert m.apply(got) == b


@settings(max_examples=40, deadline=None)
@given(mat_strategy(3))
def test_bareiss_agrees_with_rref_kernel(m):
    ours = kernel_basis(m)
    theirs = bareiss_kernel(m)
    assert len(ours) == len(theirs)
    for v in theirs:
        assert vec_is_zero(m.apply(v))
    assert same_span(QQ, ours, theirs, m.cols)


def test_kernel_zero_matrix():
    m = Matrix.zero(QQ, 2, 2)
    basis = kernel_basis(m)
    assert len(basis) == 2
    assert same_span(QQ, basis, [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))], 2)


def test_kernel_identity():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_one_one_row():
    m = Matrix.from_rows(QQ, [[Fraction(1), Fraction(1)]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert rank(m) == 1
    v = basis[0]
    assert vec_is_zero(m.apply(v))
    # spans {(1, -1)} up to scale
    assert v[0] == -v[1]


def test_solve_identity_and_zero():
    ident = Matrix.identity(QQ, 3)
    b = (Fraction(1), Fraction(-2), Fraction(5, 3))
    assert solve(ident, b) == b
    z = Matrix.zero(QQ, 2, 2)
    assert solve(z, (Fraction(0), Fraction(0))) == (Fraction(0), Fraction(0))
    assert solve(z, (Fraction(1), Fraction(0))) is None


def test_solve_dimension_mismatch_is_error():
    with pytest.raises(ValueError):
        solve(Matrix.zero(QQ, 2, 2), (Fraction(0),))


def test_invert_examples():
    assert invert(Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 3)
    two = Matrix.from_rows(QQ, [[Fraction(2)]])
    assert invert(two).entries == ((Fraction(1, 2),),)
    singular = Matrix.from_rows(QQ, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert invert(singular) is None
    with pytest.raises(ValueError):
        invert(Matrix.zero(QQ, 2, 3))


@settings(max_examples=40, deadline=None)
@given(mat_strategy(3))
def test_invert_round_trip(m):
    if not m.is_square():
        m = Matrix.from_rows(QQ, [list(r)[: min(m.rows, m.cols)] for r in m.entries[: min(m.rows, m.cols)]])
    inv = invert(m)
    if inv is not None:
        n = m.rows
        assert m @ inv == Matrix.identity(QQ, n)
        assert inv @ m == Matrix.identity(QQ, n)


def test_determinism_identical_runs():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(7)]]
    m = Matrix.from_rows(QQ, rows)
    assert kernel_basis(m) == kernel_basis(m)
    assert solve(m, (Fraction(1), Fraction(2))) == solve(m, (Fraction(1), Fraction(2)))
    assert pivot_columns(m) == pivot_columns(m) == [0, 2]


def test_prime_field_linalg():
    f3 = PrimeField(3)
    m = Matrix.from_rows(f3, [[f3.of_int(1), f3.of_int(2)], [f3.of_int(2), f3.of_int(4)]])
    assert rank(m) == 1
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert vec_is_zero(m.apply(basis[0]))
    inv = invert(Matrix.from_rows(f3, [[f3.of_int(2)]]))
    assert inv.entries[0][0] == f3.of_int(2)  # 2 * 2 = 4 = 1 mod 3


def test_tensor3_shape_validation():
    with pytest.raises(ValueError):
        Tensor3(QQ, (2, 2, 2), ((((Fraction(0),),),),))
    t = Tensor3.zero(QQ, 2, 3, 4)
    assert t.dims == (2, 3, 4)
    assert len(t.fiber(1, 2)) == 4
