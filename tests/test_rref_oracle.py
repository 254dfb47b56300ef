"""The sparse-row elimination against the dense reference in oracles.py.

The reduced row echelon form of a matrix is unique, so the package's
elimination and the dense column-by-column one must agree exactly: same
pivots, same reduced rows, same kernel basis, same solution, same inverse.
Matching spans would not be enough, since H2 representatives, documents and
golden outputs are read off these vectors.  H2 representatives from one
elimination of [B2 | Z2] must equal the greedy choice, in the same order.

Over Q the package eliminates modulo a word-size prime and certifies the
lifted result, falling back to `Fraction` elimination only when every prime
fails.  The Q cases count the eliminations that ran in `Fraction` arithmetic,
so they show which route produced the result they compare; the fallback is
forced in two more tests (a tiny prime, a wrong lift) and must still give the
reference result.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie.algebra import AntiPreLieAlgebra, MultTable, StructureError
from antiprelie.cohomology import cochain2_to_vec, cohomology_spaces, d1_matrix, d2_matrix
from antiprelie import linalg
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


@contextmanager
def fraction_eliminations(**patches):
    """Count the eliminations over Q that run in `Fraction` arithmetic (the
    fallback of the modular path), with the given linalg names patched."""
    count = [0]
    inner = linalg._eliminate

    def counted(rows, p=None):
        count[0] += p is None
        return inner(rows, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_eliminate", counted)
        for name, value in patches.items():
            mp.setattr(linalg, name, value)
        yield count


# Every reduced entry a/b with |a|, b up to this bound is lifted mod the last prime.
LIFT_BOUND = isqrt(linalg._PRIMES[-1] // 2)


def assert_modular(m, fallbacks):
    """Over Q, no Fraction elimination ran when every reference RREF entry lies
    within the last prime's lifting bound (an unlucky prime that drops the
    rank at every prime is left out of account)."""
    if m.field == QQ and all(abs(x.numerator) <= LIFT_BOUND and x.denominator <= LIFT_BOUND
                             for r in dense_rref(QQ, m.entries, m.cols)[0] for x in r):
        assert fallbacks[0] == 0, "the modular path fell back"


def check_rref(m):
    """_rref, rank and pivot_columns of m equal the dense reference, and over
    Q the modular path produced them; returns the Fraction eliminations."""
    ref_rows, ref_pivots = dense_rref(m.field, m.entries, m.cols)
    with fraction_eliminations() as fallbacks:
        rows, pivots = _rref(m.field, _sparse_rows(m.entries))
        assert rank(m) == len(ref_pivots)
        assert pivot_columns(m) == ref_pivots
    assert pivots == ref_pivots
    z = m.field.zero()
    assert [_dense(r, m.cols, z) for r in rows] == ref_rows[: len(pivots)]
    assert not any(any(r) for r in ref_rows[len(pivots):])
    assert all(x for r in rows for x in r.values()), "a stored entry is zero"
    assert_modular(m, fallbacks)
    return fallbacks[0]


def check_kernel(m):
    with fraction_eliminations() as fallbacks:
        basis = kernel_basis(m)
    assert basis == dense_kernel_basis(m)
    assert_modular(m, fallbacks)


@st.composite
def rational_matrices(draw):
    """Q matrices up to 6x6 with denominators up to 12, some rank-deficient."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    nonzero = st.builds(Fraction, st.integers(-50, 50).filter(bool), st.integers(1, 12))
    entry = st.one_of(st.just(QQ.zero()), nonzero)
    ent = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    if rows > 2 and draw(st.booleans()):
        c = draw(nonzero)
        ent[-1] = [x + c * y for x, y in zip(ent[0], ent[1])]
    return Matrix(QQ, rows, cols, tuple(tuple(r) for r in ent))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_equals_dense_reference(m):
    check_rref(m)


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_modular_rref_with_denominators_equals_dense_reference(m):
    check_rref(m)
    check_kernel(m)


@pytest.mark.parametrize("entries", [
    [[1, 40000]],  # 40000 does not lift mod 2^31 - 1
    [[1, 1], [1, 1 + 2**31 - 1]],  # rank 1 mod 2^31 - 1, rank 2 over Q
    [[Fraction(1, 70000), Fraction(1, 3)]],  # 70000/3 does not lift mod 2^31 - 1
])
def test_modular_rref_moves_on_to_the_next_prime(entries):
    m = Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in entries])
    scaled = [linalg._integral(r) for r in _sparse_rows(m.entries)]
    assert linalg._rref_modular(scaled, linalg._PRIMES[0]) is None
    assert check_rref(m) == 0


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_kernel_basis_equals_dense_reference(m):
    check_kernel(m)


@pytest.mark.parametrize("field", (QQ, PrimeField(2), PrimeField(3), PrimeField(5)))
def test_elimination_leaves_its_rows_unchanged(field):
    """_rref, _kernel and _solve read the rows they are handed and never
    write them, so a caller can eliminate rows it keeps (as classify keeps the
    d2 rows)."""
    m = Matrix.from_rows(field, [[field.of_int(x) for x in r]
                                 for r in [[1, 1, 0], [1, 2, 1], [2, 0, 1], [0, 1, 1]]])
    b = tuple(field.of_int(x) for x in (1, 0, 2, 1))
    for eliminate in (lambda rows: _rref(field, rows), lambda rows: linalg._kernel(field, rows, 3),
                      lambda rows: linalg._solve(field, rows, 3, b)):
        rows = _sparse_rows(m.entries)
        before = [dict(r) for r in rows]
        eliminate(rows)
        assert rows == before


def test_prime_field_elimination_makes_fp_only_for_the_rows_it_returns(monkeypatch):
    """Over F_3 the d2 rows of the dim-4 tower are eliminated on residues:
    the only `Fp` values constructed are the entries of the reduced rows."""
    from antiprelie.cohomology import _Complex
    from antiprelie.fields import Fp
    from antiprelie.representation import semidirect_product

    f3 = PrimeField(3)
    a2 = AntiPreLieAlgebra.verify(MultTable.from_dict(f3, 2, {(0, 1, 1): 1}))
    a4 = semidirect_product(a2, regular_representation(a2))
    d2_rows = _Complex(a4.table, regular_representation(a4)).d2
    made = [0]
    init = Fp.__init__

    def counted(self, value, p):
        made[0] += 1
        init(self, value, p)

    monkeypatch.setattr(Fp, "__init__", counted)
    rows, pivots = _rref(f3, d2_rows)
    monkeypatch.undo()
    assert pivots and made[0] <= sum(map(len, rows))
    m = Matrix.from_rows(f3, [[r.get(j, f3.zero()) for j in range(16)] for r in d2_rows])
    assert [_dense(r, 16, f3.zero()) for r in rows] == dense_rref(f3, m.entries, 16)[0][: len(pivots)]


# Over F_5 every residue lifts to -1, 0 or 1 or to nothing: the lifts of 6 and
# of 2/3 are wrong, 7 does not lift, and [[1, 1], [1, 6]] loses its rank.
TINY_PRIME_CASES = [
    [[1, 6]],
    [[1, 7]],
    [[3, 2]],
    [[1, 1], [1, 6]],
    [[2, 4, 1], [1, 0, 6], [0, 5, 5]],
]


@pytest.mark.parametrize("entries", TINY_PRIME_CASES)
def test_tiny_prime_falls_back_to_fractions(entries):
    m = Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in entries])
    ref_rows, ref_pivots = dense_rref(QQ, m.entries, m.cols)
    with fraction_eliminations(_PRIMES=(5,)) as fallbacks:
        rows, pivots = _rref(QQ, _sparse_rows(m.entries))
        basis = kernel_basis(m)
    assert fallbacks[0] == 2
    assert pivots == ref_pivots
    assert [_dense(r, m.cols, QQ.zero()) for r in rows] == ref_rows[: len(pivots)]
    assert basis == dense_kernel_basis(m)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_tiny_prime_gives_the_dense_reference(m):
    with fraction_eliminations(_PRIMES=(5,)):
        basis = kernel_basis(m)
    assert basis == dense_kernel_basis(m)


def test_certificate_rejects_a_wrong_lift():
    """Every lift except the pivot 1 is off by one; the certificate refuses
    it at each prime and the Fraction elimination gives the right form."""
    right = linalg._reconstruct

    def wrong(u, p):
        lift = right(u, p)
        return lift if lift in (None, (1, 1)) else (lift[0] + lift[1], lift[1])

    m = Matrix.from_rows(QQ, [[Fraction(x) for x in r] for r in ([2, 4, 1, 0], [1, 0, 3, 5])])
    ref_rows, ref_pivots = dense_rref(QQ, m.entries, m.cols)
    with fraction_eliminations(_reconstruct=wrong) as fallbacks:
        rows, pivots = _rref(QQ, _sparse_rows(m.entries))
        basis = kernel_basis(m)
    assert fallbacks[0] == 2
    assert pivots == ref_pivots == [0, 1]
    assert [_dense(r, m.cols, QQ.zero()) for r in rows] == ref_rows
    assert basis == dense_kernel_basis(m)


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


def _up_to_scale(rows):
    """The distinct nonzero rows of a dense list, up to a nonzero scale:
    each divided by its first nonzero entry."""
    out = set()
    for r in rows:
        lead = next((x for x in r if x), None)
        if lead is not None:
            out.add(tuple(x / lead for x in r))
    return out


@st.composite
def repeated_rows(draw):
    """(m, scaled, b, scaled_b): m from matrices() or rational_matrices(), and
    the matrix of its rows each repeated one to three times at random nonzero
    scales (negative ones included), interleaved in a random order, with a
    right-hand side b of m and the same copies of it."""
    m = draw(st.one_of(matrices(), rational_matrices()))
    field = m.field
    scale = (st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5))
             if field == QQ else st.integers(1, field.p - 1).map(field.of_int))
    b = tuple(draw(scalars(field)) for _ in range(m.rows))
    copies = [(i, draw(scale)) for i in range(m.rows) for _ in range(draw(st.integers(1, 3)))]
    copies = draw(st.permutations(copies))
    scaled = Matrix(field, len(copies), m.cols,
                    tuple(tuple(s * x for x in m.entries[i]) for i, s in copies))
    return m, scaled, b, tuple(s * b[i] for i, s in copies)


def check_repeated(m, scaled, b, scaled_b):
    ref_rows, ref_pivots = dense_rref(m.field, m.entries, m.cols)
    rows, pivots = _rref(m.field, _sparse_rows(scaled.entries))
    assert pivots == ref_pivots
    assert [_dense(r, m.cols, m.field.zero()) for r in rows] == ref_rows[: len(pivots)]
    assert kernel_basis(scaled) == dense_kernel_basis(m)
    assert solve(scaled, scaled_b) == dense_solve(m, b)


@settings(max_examples=200, deadline=None)
@given(repeated_rows())
def test_repeated_scaled_rows_give_the_reference_of_the_original(case):
    """Over Q each distinct row up to scale reaches the modular elimination
    once; on every field the result is that of the original matrix."""
    m, scaled, b, scaled_b = case
    handed = []
    inner = linalg._rref_modular

    def spy(rows, p):
        handed.append(len(rows))
        return inner(rows, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_rref_modular", spy)
        rows, _ = _rref(m.field, _sparse_rows(scaled.entries))
    if m.field == QQ:
        assert handed and set(handed) == {len(_up_to_scale(m.entries))}
    check_repeated(m, scaled, b, scaled_b)


@settings(max_examples=100, deadline=None)
@given(repeated_rows())
def test_repeated_scaled_rows_through_the_fraction_fallback(case):
    with fraction_eliminations(_PRIMES=(5,)):
        check_repeated(*case)
