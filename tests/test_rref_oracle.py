"""The sparse-row elimination against the dense reference in oracles.py.

The reduced row echelon form of a matrix is unique, so the package's
elimination and the dense column-by-column one must agree exactly: same
pivots, same reduced rows, same kernel basis, same solution, same inverse.
Matching spans would not be enough, since H2 representatives, documents and
golden outputs are read off these vectors.  H2 representatives from one
elimination of [B2 | Z2] must equal the greedy choice, in the same order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie.algebra import StructureError
from antiprelie.cohomology import cochain2_to_vec, cohomology_spaces, d1_matrix, d2_matrix
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import (
    Matrix,
    _rref,
    _sparse_rows,
    invert,
    kernel_basis,
    pivot_columns,
    rank,
    solve,
)
from antiprelie.representation import Representation, regular_representation

from conftest import bump_matrix

from oracles import (
    dense_invert,
    dense_kernel_basis,
    dense_rref,
    dense_rank,
    dense_solve,
    greedy_h2_representatives,
)

FIELDS = (QQ, PrimeField(2), PrimeField(5))


def scalars(field):
    """Zero-heavy entries; zeros come both as one shared object and as fresh ones."""
    if field is QQ:
        nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))
    else:
        nonzero = st.integers(1, field.p - 1).map(field.of_int)
    return st.one_of(st.just(field.zero()), st.builds(field.zero), nonzero)


@st.composite
def matrices(draw, square=False):
    """Wide, tall and square matrices up to 7x7 (empty ones included), some of
    them a product through at most 3 inner dimensions (rank-deficient), with
    chosen rows and columns set to zero."""
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 7))
    cols = rows if square else draw(st.integers(0, 7))
    entry = scalars(field)
    if draw(st.booleans()):
        inner = draw(st.integers(0, 3))
        left = Matrix(field, rows, inner, tuple(
            tuple(draw(entry) for _ in range(inner)) for _ in range(rows)))
        right = Matrix(field, inner, cols, tuple(
            tuple(draw(entry) for _ in range(cols)) for _ in range(inner)))
        ent = [list(r) for r in (left @ right).entries]
    else:
        ent = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)) if cols else set()
    z = field.zero()
    for i in range(rows):
        for j in range(cols):
            if i in zero_rows or j in zero_cols:
                ent[i][j] = z
    return Matrix(field, rows, cols, tuple(tuple(r) for r in ent))


def _dense(row: dict, ncols: int, zero) -> list:
    return [row.get(j, zero) for j in range(ncols)]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_equals_dense_reference(m):
    rows, pivots = _rref(m.field, _sparse_rows(m.entries))
    ref_rows, ref_pivots = dense_rref(m.field, m.entries, m.cols)
    assert pivots == ref_pivots
    assert rank(m) == len(ref_pivots)
    assert pivot_columns(m) == ref_pivots
    z = m.field.zero()
    assert [_dense(r, m.cols, z) for r in rows] == ref_rows[: len(pivots)]
    assert not any(any(r) for r in ref_rows[len(pivots):])
    assert all(x for r in rows for x in r.values()), "a stored entry is zero"


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_basis_equals_dense_reference(m):
    assert kernel_basis(m) == dense_kernel_basis(m)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_equals_dense_reference(m, data):
    entry = scalars(m.field)
    x = tuple(data.draw(entry) for _ in range(m.cols))
    consistent = m.apply(x)
    assert solve(m, consistent) == dense_solve(m, consistent) is not None
    b = tuple(data.draw(entry) for _ in range(m.rows))
    assert solve(m, b) == dense_solve(m, b)


@settings(max_examples=200, deadline=None)
@given(matrices(square=True))
def test_invert_equals_dense_reference(m):
    assert invert(m) == dense_invert(m)


def _check_h2_against_oracle(name, alg, rep):
    spaces = cohomology_spaces(alg, rep)
    dd1 = d1_matrix(alg, rep)
    z2 = dense_kernel_basis(d2_matrix(alg, rep))
    b2 = [dd1.col(c) for c in dense_rref(dd1.field, dd1.entries, dd1.cols)[1]]
    assert [cochain2_to_vec(c) for c in spaces.z2_basis] == z2, name
    assert [cochain2_to_vec(c) for c in spaces.b2_basis] == b2, name
    reps = [cochain2_to_vec(c) for c in spaces.h2_representatives]
    assert reps == greedy_h2_representatives(dd1.field, z2, b2, dd1.rows), name
    assert spaces.h2_dim == len(reps) == len(z2) - len(b2), name


def test_h2_representatives_equal_greedy_choice(corpus_pairs):
    for name, alg, rep in corpus_pairs:
        _check_h2_against_oracle(name, alg, rep)


def test_h2_representatives_equal_greedy_choice_over_f3(f3_algebras):
    for name, table in f3_algebras.items():
        rep = Representation(table.dim, table.dim, table.left_matrices, table.right_matrices)
        _check_h2_against_oracle(name, table, rep)


def test_coboundary_outside_z2_is_refused(named_algebras):
    """Bumping one entry of mu in the regular rep of a2 breaks d2 d1 = 0 for most
    entries; cohomology_spaces refuses exactly when the dense oracle finds a
    B2 vector outside Z2."""
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    refused = 0
    for i in range(2):
        for r in range(2):
            for c in range(2):
                mu = list(reg.mu)
                mu[i] = bump_matrix(mu[i], r, c)
                rep = Representation(2, 2, reg.rho, tuple(mu))
                dd1 = d1_matrix(a2, rep)
                z2 = dense_kernel_basis(d2_matrix(a2, rep))
                b2 = [dd1.col(k) for k in dense_rref(dd1.field, dd1.entries, dd1.cols)[1]]
                if dense_rank(dd1.field, b2 + z2, dd1.rows) > len(z2):
                    refused += 1
                    with pytest.raises(StructureError, match="a coboundary fell outside Z2"):
                        cohomology_spaces(a2, rep)
                else:
                    _check_h2_against_oracle((i, r, c), a2, rep)
    assert refused == 7
