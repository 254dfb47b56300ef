"""The stored form of a rank-3 tensor: its nonzero fibers.

Every route that builds a table, a cochain or a bracket must leave the
fibers in canonical form, with no stored zero, so that == and hash on the
stored fields mean equal entries.  The fibers are dicts, so "every value is
immutable" rests on no operation writing the fibers of its inputs; the
second half of this file checks that.
"""

from fractions import Fraction

import pytest

from antiprelie import documents as docs
from antiprelie.algebra import (AntiPreLieAlgebra, MultTable, check_anti_pre_lie, check_morphism,
                                sub_adjacent_lie)
from antiprelie.cohomology import _cochain2, cohomologous, cohomology_spaces, is_cocycle
from antiprelie.deformation import TruncatedDeformation, TruncatedIsomorphism, apply_isomorphism
from antiprelie.dendriform import AntiLDendriform, associated_table, check_anti_L_dendriform
from antiprelie.extension import build_extension, classify_extensions, extension_table, extract_cocycle
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import Matrix, Tensor3, _transport, _units
from antiprelie.representation import regular_representation, semidirect_product

from conftest import q_table

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
    """A copy of each tensor's fibers, dict by dict; the scalars are immutable
    values, and `Fp` ones cannot be deep-copied."""
    return [tuple(tuple(dict(f) for f in line) for line in t.fibers) for t in tensors]


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
