"""The stored form of matrices and rank-3 tensors: their nonzero entries.

A matrix is stored as its nonzero rows and a tensor as its nonzero fibers.
Every route that builds one must leave them in canonical form, with no
stored zero, so that == and hash on the stored fields mean equal entries.
The rows and fibers are dicts, so "every value is immutable" rests on no
operation writing the rows or fibers of its inputs; the second half of this
file checks that, against deep copies taken before each operation.
"""

import copy
from fractions import Fraction

import pytest

from antiprelie import documents as docs
from antiprelie.algebra import (AntiPreLieAlgebra, MultTable, check_anti_pre_lie, check_morphism,
                                sub_adjacent_lie)
from antiprelie.cohomology import (_cochain2, cochain1_from_vec, cochain1_to_vec, cohomologous,
                                   cohomology_spaces, d1, is_cocycle)
from antiprelie.deformation import (TruncatedDeformation, TruncatedIsomorphism, apply_isomorphism,
                                    compose_isomorphisms, inverse_isomorphism)
from antiprelie.dendriform import (AntiLDendriform, associated_anti_pre_lie, associated_table,
                                   check_anti_L_dendriform, check_O_operator, compatible_from_invertible_O,
                                   dendriform_from_bilinear_form, induced_dendriform, left_mult_representation)
from antiprelie.extension import (are_isomorphic, build_extension, classify_extensions, extension_table,
                                  extract_cocycle, normalize_extension)
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import (Matrix, Tensor3, _transport, _units, invert, kernel_basis, pivot_columns, rank,
                               solve)
from antiprelie.representation import (check_representation, dual_representation, regular_representation,
                                       semidirect_product, sub_adjacent_representation)
from antiprelie.search import (SearchSpec, lift_matrix, search_bilinear_forms, search_o_operators,
                               search_representations)

from conftest import fp_table, q_table

F3 = PrimeField(3)
DENSE_CHANGE = ((1, 2, 2, -2), (0, 1, 1, 2), (0, 0, 1, 2), (0, 0, 0, 1))


def q_matrix(rows) -> Matrix:
    return Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in rows])


def tower():
    """(a4, its regular representation, a nonzero H2 representative)."""
    a2 = AntiPreLieAlgebra.verify(q_table(2, {(0, 1, 1): 1}))
    a4 = semidirect_product(a2, regular_representation(a2))
    rep = regular_representation(a4)
    return a4, rep, cohomology_spaces(a4, rep).h2_representatives[0]


def transport_that_cancels():
    """A 1 x 1 x 1 grid whose one entry is 1 - 1: _transport keeps it as a zero."""
    one = Fraction(1)
    grid = _transport(((({0: one, 1: one},),)), _units(1), _units(1), [{0: one}, {0: -one}])
    assert grid == [[{0: 0}]]
    return Tensor3(QQ, (1, 1, 1), grid)


def pulled_back():
    """Every term of a pull-back whose degree parts cancel against each other."""
    a2 = AntiPreLieAlgebra.verify(q_table(2, {(0, 1, 1): 1}))
    d = TruncatedDeformation(a2, (q_table(2, {(0, 1, 0): 1}), MultTable.zero(QQ, 2)))
    iso = TruncatedIsomorphism((q_matrix([[0, 1], [0, 0]]), q_matrix([[1, 0], [0, -1]])))
    return [t.tensor for t in apply_isomorphism(d, iso).terms]


ROUTES = {
    "from_entries-Q-zeros": lambda: [Tensor3.from_entries(
        QQ, [[[Fraction(0), Fraction(1)], [Fraction(0, 5), QQ.zero()]]])],
    "from_entries-F3-zeros": lambda: [Tensor3.from_entries(
        F3, [[[F3.of_int(3), F3.of_int(1)], [F3.zero(), F3.of_int(-3)]]])],
    "from_dict": lambda: [MultTable.from_dict(QQ, 2, {(0, 1, 1): 1, (1, 1, 0): 0, (0, 0, 0): Fraction(0)}).tensor,
                          MultTable.from_dict(F3, 2, {(0, 1, 1): 3, (1, 0, 1): F3.zero()}).tensor],
    "zero": lambda: [Tensor3.zero(QQ, 2, 3, 1), Tensor3.zero(F3, 0, 2, 2), MultTable.zero(QQ, 3).tensor],
    "conjugate-identity": lambda: [tower()[0].table.conjugate(Matrix.identity(QQ, 4)).tensor],
    "conjugate-dense": lambda: [tower()[0].table.conjugate(q_matrix(DENSE_CHANGE)).tensor],
    "transport-cancels": lambda: [transport_that_cancels()],
    "extension_table": lambda: [extension_table(a4.table, rep, theta).tensor
                                for a4, rep, theta in [tower()]],
    "associated_table": lambda: [associated_table(AntiLDendriform(t, t)).tensor
                                 for t in (q_table(2, {(0, 0, 1): 1, (0, 1, 1): 1}), tower()[0].table)],
    "apply_isomorphism": pulled_back,
    "_cochain2": lambda: [_cochain2(QQ, 2, 3, {0: Fraction(0), 5: Fraction(2), 7: QQ.zero()}).tensor,
                          _cochain2(F3, 2, 1, {1: F3.of_int(3), 2: F3.one()}).tensor],
    "decode_tensor3": lambda: [docs.decode_tensor3(QQ, [[["0", "1/2"], ["0", "-3"]]], (1, 2, 2)),
                               docs.decode_tensor3(F3, [[["3 mod 3", "2 mod 3"]]], (1, 1, 2))],
    "difference": lambda: [(t.tensor - t.tensor) for t in (tower()[0].table,)],
}


def assert_canonical(t: Tensor3) -> None:
    """Tuples of dicts inside dims with no stored zero, agreeing with the dense
    view; the same entries written with explicit zeros compare equal and hash
    the same, and one changed entry compares unequal."""
    d1, d2, d3 = t.dims
    zero = t.field.zero()
    assert type(t.fibers) is tuple and len(t.fibers) == d1
    for i, line in enumerate(t.fibers):
        assert type(line) is tuple and len(line) == d2
        for j, fiber in enumerate(line):
            assert type(fiber) is dict and all(fiber.values()), (i, j, fiber)
            assert all(0 <= k < d3 for k in fiber)
            assert t.entries[i][j] == tuple(fiber.get(k, zero) for k in range(d3))
    padded = Tensor3(t.field, t.dims, [[{**dict.fromkeys(range(d3), zero), **f} for f in line]
                                       for line in t.fibers])
    assert padded.fibers == t.fibers
    assert padded == t and hash(padded) == hash(t)
    if d1 and d2 and d3:
        bumped = [[dict(f) for f in line] for line in t.fibers]
        bumped[0][0][0] = bumped[0][0].get(0, zero) + t.field.one()
        other = Tensor3(t.field, t.dims, bumped)
        assert other != t and other.entries != t.entries


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_stores_canonical_fibers(route):
    for t in ROUTES[route]():
        assert_canonical(t)


def test_equal_entries_mean_equal_tensors():
    """Tensors built by different routes with the same entries are == with one
    hash; the fibers' key order does not matter."""
    one, two = Fraction(1), Fraction(2)
    dense = Tensor3.from_entries(QQ, [[[0, one], [two, 0]], [[0, 0], [0, 0]]])
    fibers = Tensor3(QQ, (2, 2, 2), [[{1: one}, {0: two, 1: Fraction(0)}], [{}, {}]])
    table = MultTable.from_dict(QQ, 2, {(0, 1, 0): 2, (0, 0, 1): 1}).tensor
    reordered = Tensor3(QQ, (2, 2, 2), [[{1: one}, {0: two}], [{}, {}]])
    assert dense == fibers == table == reordered
    assert len({hash(dense), hash(fibers), hash(table), hash(reordered)}) == 1
    assert dense != Tensor3.from_entries(F3, [[[0, F3.one()], [F3.of_int(2), 0]], [[0, 0], [0, 0]]])
    assert dense + (table - dense) == table and (dense - table).is_zero()


def snapshot(tensors) -> list:
    """A deep copy of each tensor's fibers."""
    return copy.deepcopy([t.fibers for t in tensors])


def test_no_operation_writes_the_fibers_of_its_inputs():
    a4, rep, theta = tower()
    a2 = AntiPreLieAlgebra.verify(q_table(2, {(0, 1, 1): 1}))
    change = q_matrix(DENSE_CHANGE)
    conjugate = a4.table.conjugate(change)
    ext = build_extension(a4, rep, theta)
    deformation = TruncatedDeformation(a2, (q_table(2, {(0, 1, 0): 1}), q_table(2, {(1, 1, 1): 1})))
    iso = TruncatedIsomorphism((q_matrix([[0, 1], [0, 0]]), q_matrix([[1, 0], [0, -1]])))
    dendriform = AntiLDendriform(q_table(2, {(0, 1, 1): 1}), q_table(2, {(1, 0, 1): 1, (0, 0, 0): 2}))
    bracket = sub_adjacent_lie(a2)
    inputs = [a4.table.tensor, conjugate.tensor, theta.tensor, ext.total.table.tensor,
              *(t.tensor for t in deformation.tables()), dendriform.right.tensor, dendriform.left.tensor,
              bracket.tensor]
    before = snapshot(inputs)
    operations = [
        lambda: check_anti_pre_lie(a4.table),
        lambda: check_anti_pre_lie(ext.total.table),
        lambda: a4.table.conjugate(change),
        lambda: check_morphism(change, conjugate, a4.table),
        lambda: classify_extensions(a4, rep),
        lambda: extract_cocycle(ext),
        lambda: apply_isomorphism(deformation, iso),
        lambda: check_anti_L_dendriform(dendriform),
        lambda: docs.encode_algebra(a4),
        lambda: docs.encode_lie(bracket),
        lambda: docs.encode_cochain2(theta),
        lambda: docs.encode_dendriform(dendriform),
        lambda: docs.encode_deformation(deformation),
        lambda: docs.encode_extension(ext),
        lambda: docs.encode_tensor3(a4.table.tensor),
    ]
    for k, operation in enumerate(operations):
        operation()
        assert snapshot(inputs) == before, k
    # the products classify builds are left alone by what reads them next
    [(theta0, ext0), *_] = classify_extensions(a4, rep)
    built = [theta0.tensor, ext0.total.table.tensor]
    before = snapshot(built)
    assert is_cocycle(a4, rep, theta0) and cohomologous(a4, rep, theta0, theta0) is not None
    extract_cocycle(ext0)
    docs.encode_extension(ext0)
    docs.encode_cochain2(theta0 + theta0 - theta0)
    assert snapshot(built) == before


def f3_matrix(rows) -> Matrix:
    return Matrix.from_rows(F3, [[F3.of_int(x) for x in row] for row in rows])


def f3_algebra():
    return AntiPreLieAlgebra.verify(fp_table(3, 2, {(0, 1, 1): 1}))


def extracted_actions():
    """The actions extract_cocycle reads off an extension, over Q and F_3."""
    a4, rep, theta = tower()
    f3 = f3_algebra()
    f3_rep = regular_representation(f3)
    _, over_q = extract_cocycle(build_extension(a4, rep, theta))
    _, over_f3 = extract_cocycle(build_extension(f3, f3_rep, cohomology_spaces(f3, f3_rep).z2_basis[0]))
    return [*over_q.rho, *over_q.mu, *over_f3.rho, *over_f3.mu]


def search_candidates():
    """Every matrix the F_3 searches accept, each written from its cells."""
    f3 = f3_algebra()
    table, rep = f3.table, regular_representation(f3)
    reps = search_representations(SearchSpec(kind="representation", dim=2, p=3, dim_v=1), table)
    return [*search_o_operators(SearchSpec(kind="o-operator", dim=2, p=3, dim_v=2), table, rep),
            *search_bilinear_forms(SearchSpec(kind="bilinear-form", dim=2, p=3), table),
            *(m for r in reps for m in (*r.rho, *r.mu))]


MATRIX_ROUTES = {
    "from_rows-Q-zeros": lambda: [Matrix.from_rows(QQ, [[Fraction(0), Fraction(1)], [Fraction(0, 5), QQ.zero()]]),
                                  Matrix.from_rows(QQ, [], 3)],
    "from_rows-F3-zeros": lambda: [f3_matrix([[3, 1], [0, -3]]), f3_matrix([[0, 0, 0]])],
    "from_cols": lambda: [Matrix.from_cols(QQ, [[Fraction(0), Fraction(2)], [Fraction(1), QQ.zero()], [0, 0]]),
                          Matrix.from_cols(F3, [[F3.of_int(3)], [F3.one()]]), Matrix.from_cols(F3, [], rows=2)],
    "zero": lambda: [Matrix.zero(QQ, 2, 3), Matrix.zero(F3, 0, 2), Matrix.zero(F3, 2, 0)],
    "identity": lambda: [Matrix.identity(QQ, 3), Matrix.identity(F3, 2), Matrix.identity(QQ, 0)],
    "add-sub-cancel": lambda: [q_matrix(DENSE_CHANGE) + -q_matrix(DENSE_CHANGE),
                               q_matrix(DENSE_CHANGE) - q_matrix(DENSE_CHANGE),
                               q_matrix([[1, 2], [0, 1]]) - q_matrix([[1, 0], [3, 1]]),
                               f3_matrix([[1, 2], [0, 1]]) + f3_matrix([[2, 1], [0, 0]])],
    "scale-zero": lambda: [q_matrix(DENSE_CHANGE).scale(Fraction(0)), f3_matrix([[1, 2]]).scale(F3.of_int(3))],
    "matmul-cancels": lambda: [q_matrix([[1, 1]]) @ q_matrix([[1], [-1]]),
                               q_matrix([[1, 2], [0, 0]]) @ q_matrix([[2, 0], [-1, 1]]),
                               f3_matrix([[1, 1]]) @ f3_matrix([[1], [2]])],
    "transpose": lambda: [q_matrix(DENSE_CHANGE).transpose(), f3_matrix([[1, 0, 2]]).transpose()],
    "invert": lambda: [invert(q_matrix(DENSE_CHANGE)), invert(f3_matrix([[1, 1], [0, 2]])),
                       invert(q_matrix([[0, 2], [Fraction(1, 2), 0]]))],
    "decode_matrix": lambda: [docs.decode_matrix(QQ, [["0", "1/2"], ["0", "-3"]]),
                              docs.decode_matrix(F3, [["3 mod 3", "2 mod 3"]]), docs.decode_matrix(QQ, [], cols=2)],
    "left-right-matrices": lambda: [*tower()[0].table.left_matrices, *tower()[0].table.right_matrices,
                                    *f3_algebra().table.left_matrices, *f3_algebra().table.right_matrices],
    "extract_cocycle-actions": extracted_actions,
    "search-candidates": search_candidates,
    "lift_matrix": lambda: [lift_matrix(f3_matrix([[1, 2], [0, 3]])), lift_matrix(f3_matrix([[0, 0]]))],
    "cochain1_from_vec": lambda: [
        cochain1_from_vec(QQ, 2, 3, (Fraction(0), Fraction(1), QQ.zero(), Fraction(-1), Fraction(0), Fraction(2))),
        cochain1_from_vec(F3, 1, 2, (F3.of_int(3), F3.one()))],
}


def assert_canonical_matrix(m: Matrix) -> None:
    """A tuple of dicts inside the shape with no stored zero, agreeing with
    the dense view; the same entries written with explicit zeros, or as
    dense rows, compare equal and hash the same, and one changed entry
    compares unequal."""
    zero = m.field.zero()
    assert type(m.nonzero) is tuple and len(m.nonzero) == m.rows == len(m.entries)
    for r, row in enumerate(m.nonzero):
        assert type(row) is dict and all(row.values()), (r, row)
        assert all(0 <= j < m.cols for j in row)
        assert m.entries[r] == tuple(row.get(j, zero) for j in range(m.cols))
    padded = Matrix(m.field, m.rows, m.cols, [{**dict.fromkeys(range(m.cols), zero), **row} for row in m.nonzero])
    assert padded.nonzero == m.nonzero
    assert padded == m and hash(padded) == hash(m)
    dense = Matrix.from_rows(m.field, m.entries, m.cols)
    assert dense == m and hash(dense) == hash(m)
    if m.rows and m.cols:
        bumped = [dict(row) for row in m.nonzero]
        bumped[0][0] = bumped[0].get(0, zero) + m.field.one()
        other = Matrix(m.field, m.rows, m.cols, bumped)
        assert other != m and other.entries != m.entries


@pytest.mark.parametrize("route", MATRIX_ROUTES)
def test_every_route_stores_canonical_rows(route):
    built = MATRIX_ROUTES[route]()
    assert built
    for m in built:
        assert_canonical_matrix(m)


def test_no_operation_writes_the_rows_of_its_input_matrices():
    a4, rep, theta = tower()
    a2 = AntiPreLieAlgebra.verify(q_table(2, {(0, 1, 1): 1}))
    change = q_matrix(DENSE_CHANGE)
    f3 = f3_matrix([[1, 1], [0, 2]])
    ext = build_extension(a4, rep, theta)
    iota, proj, section = ext.iota, ext.proj, ext.section
    phis = (q_matrix([[0, 1], [0, 0]]), q_matrix([[1, 0], [0, -1]]))
    iso = TruncatedIsomorphism(phis)
    deformation = TruncatedDeformation(a2, (q_table(2, {(0, 1, 0): 1}), q_table(2, {(1, 1, 1): 1})))
    dendriform = AntiLDendriform(a2.table, MultTable.zero(QQ, 2))
    assoc, left_rep = associated_anti_pre_lie(dendriform), left_mult_representation(dendriform)
    ident = Matrix.identity(QQ, 2)
    comm2 = q_table(2, {(0, 0, 1): 1})
    form = q_matrix([[-2, -2], [2, 0]])
    one_cochain = q_matrix([[1, 0, 2, 0], [0, -1, 0, 0], [0, 0, 0, 3], [1, 1, 0, 0]])
    inputs = [change, f3, *rep.rho, *rep.mu, iota, proj, section, *phis, *left_rep.rho, *left_rep.mu, ident,
              form, one_cochain]
    before = copy.deepcopy([m.nonzero for m in inputs])
    b = tuple(Fraction(k) for k in range(4))
    operations = [
        lambda: change + change, lambda: change - change.transpose(), lambda: -change,
        lambda: change.scale(Fraction(3)), lambda: change @ change, lambda: f3 @ f3 + f3,
        lambda: change.apply(b), lambda: change.col(2), lambda: change.entries,
        lambda: rank(change), lambda: pivot_columns(change), lambda: kernel_basis(change),
        lambda: solve(change, b), lambda: invert(change), lambda: invert(f3), lambda: lift_matrix(f3),
        lambda: a4.table.conjugate(change),
        lambda: check_morphism(change, a4.table.conjugate(change), a4.table),
        lambda: check_representation(a4, rep), lambda: dual_representation(rep),
        lambda: sub_adjacent_representation(a4, rep), lambda: extension_table(a4.table, rep, theta),
        lambda: classify_extensions(a4, rep), lambda: extract_cocycle(ext, section),
        lambda: normalize_extension(ext.total, iota, proj, section), lambda: normalize_extension(ext.total, iota, proj),
        lambda: are_isomorphic(ext, ext),
        lambda: d1(a4, rep, one_cochain), lambda: cochain1_to_vec(one_cochain),
        lambda: apply_isomorphism(deformation, iso), lambda: inverse_isomorphism(iso, QQ, 2, 3),
        lambda: compose_isomorphisms(iso, iso, QQ, 2, 3),
        lambda: check_O_operator(assoc, left_rep, ident), lambda: induced_dendriform(assoc, left_rep, ident),
        lambda: compatible_from_invertible_O(assoc, left_rep, ident),
        lambda: dendriform_from_bilinear_form(comm2, form, strict_skew=False),
        lambda: docs.encode_matrix(change), lambda: docs.encode_representation(rep),
        lambda: docs.encode_extension(ext), lambda: docs.encode_isomorphism(iso, QQ),
    ]
    for k, operation in enumerate(operations):
        operation()
        assert [m.nonzero for m in inputs] == before, k
    # the matrices an extension and cohomologous return are left alone by what reads them next
    phi = cohomologous(a4, rep, d1(a4, rep, one_cochain), theta - theta)
    built = [iota, phi]
    before = copy.deepcopy([m.nonzero for m in built])
    assert d1(a4, rep, phi) == d1(a4, rep, one_cochain)
    assert (iota @ phi - iota @ phi).is_zero()
    docs.encode_matrix(iota)
    assert [m.nonzero for m in built] == before
