"""An independent certificate of d2 on the semidirect tower, and the `Fp`
boundary of cohomology over a prime field.

The d2 rows are rebuilt by `oracles.oracle_d2_rows` straight from the two
formulas of the cohomology module docstring, with none of the package's
assembly or elimination.  On the tower a2 -> dim 4 -> dim 8 -> dim 16 over
its regular representation they must equal `d2_matrix`, kill every Z2 vector
and every column of d1, and give dim Z2 = n^2 m - rank d2 with the rank taken
mod a prime by the plain routine `oracles.rank_mod_p`.  For an integral d2,
rank mod p is at most the rank over Q, so a rank mod 2^31 - 1 above the
package's proves it wrong, and one below it would flag the prime.
"""

from fractions import Fraction

import pytest

from antiprelie.algebra import AntiPreLieAlgebra, MultTable
from antiprelie.cohomology import Cochain2, _Complex, cohomology_spaces, d1_matrix, d2_matrix
from antiprelie.fields import QQ, Fp, PrimeField
from antiprelie.representation import regular_representation, semidirect_product

from oracles import oracle_d2_rows, rank_mod_p

F3 = PrimeField(3)


def tower(field, dim: int) -> AntiPreLieAlgebra:
    """The semidirect tower from a2 (e0.e1 = e1) up to dim, over its regular representations."""
    a = AntiPreLieAlgebra.verify(MultTable.from_dict(field, 2, {(0, 1, 1): 1}))
    while a.dim < dim:
        a = semidirect_product(a, regular_representation(a))
    return a


def columns(rows: list, ncols: int) -> list:
    """The sparse columns {row: value} of sparse rows {column: value}."""
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            cols[c][r] = x
    return cols


def applied(cols: list, v: dict) -> list:
    """The nonzero entries of the matrix with columns cols times the sparse
    vector v {coordinate: value}, summed column by column."""
    acc = {}
    for c, y in v.items():
        for r, x in cols[c].items():
            acc[r] = x * y if r not in acc else acc[r] + x * y
    return [x for x in acc.values() if x]


@pytest.mark.parametrize("field, dim, p", [(QQ, 8, 2**31 - 1), (F3, 8, 3), (QQ, 16, 2**31 - 1)],
                         ids=["Q-dim8", "F3-dim8", "Q-dim16"])
def test_d2_certificate_on_the_tower(field, dim, p):
    a = tower(field, dim)
    rep = regular_representation(a)
    n, m = a.dim, rep.dim_v
    rows = oracle_d2_rows(a.table, rep)
    assert len(rows) == 2 * n ** 3 * m
    assert list(d2_matrix(a, rep).nonzero) == rows
    d2_cols = columns(rows, n * n * m)
    spaces = cohomology_spaces(a, rep)
    for z in spaces.z2_basis:
        assert not applied(d2_cols, {(i * n + j) * m + k: x for i, line in enumerate(z.tensor.fibers)
                                     for j, fiber in enumerate(line) for k, x in fiber.items()})
    for col in columns(d1_matrix(a, rep).nonzero, n * m):
        assert not applied(d2_cols, col)
    assert spaces.z2_dim == n * n * m - rank_mod_p(rows, p)


def test_the_certificate_oracles_tell_a_wrong_d2():
    """One structure constant changed changes the oracle rows, and the plain
    rank reads Fractions and `Fp` values as residues."""
    a = tower(QQ, 4)
    rep = regular_representation(a)
    bent = MultTable(a.table.tensor + MultTable.from_dict(QQ, 4, {(0, 0, 0): 1}).tensor)
    assert oracle_d2_rows(bent, rep) != oracle_d2_rows(a.table, rep)
    half = [{0: Fraction(1, 2), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(2)}]
    assert rank_mod_p(half, 7) == 1
    close = [{0: Fraction(1), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(4)}]
    assert (rank_mod_p(close, 3), rank_mod_p(close, 5)) == (1, 2)
    assert rank_mod_p([{0: F3.one(), 2: F3.of_int(2)}, {0: F3.of_int(2), 2: F3.one()}, {}], 3) == 1


def counting_fp(monkeypatch) -> list:
    """made[0] counts the `Fp` values constructed from here on."""
    made = [0]
    init = Fp.__init__

    def counted(self, value, p):
        made[0] += 1
        init(self, value, p)

    monkeypatch.setattr(Fp, "__init__", counted)
    return made


def test_f3_d2_assembly_and_gate_make_no_fp(monkeypatch):
    """Over F_3 the d2 rows and the cocycle gate run on the int form: building
    the rows, their columns and gating cocycles and a non-cocycle (a unit
    cochain at a column of d2 that is not zero) makes no `Fp` value, and the
    dim-8 H2 makes fewer than 1,000 in all.  The gate tests its int sums mod
    3: on -z, whose residues are 3 - x, d2 sums to 3 times an int row that is
    not always zero, and every -z must pass."""
    a = tower(F3, 8)
    rep = regular_representation(a)
    spaces = cohomology_spaces(a, rep)
    cocycle = spaces.h2_representatives[0]
    other = next(z for z in spaces.z2_basis if z != cocycle)
    bent = other + spaces.b2_basis[0] + cocycle
    zero = Cochain2.zero(F3, 8, 8)
    negated = [zero - z for z in spaces.z2_basis]
    c = min(next(row for row in oracle_d2_rows(a.table, rep) if row))
    broken = Cochain2(MultTable.from_dict(F3, 8, {(*divmod(c // 8, 8), c % 8): 1}).tensor)
    made = counting_fp(monkeypatch)
    cx = _Complex(a.table, rep)
    assert cx.d2 and cx.d2_columns
    assert cx.is_cocycle(cocycle) and cx.is_cocycle(bent)
    assert all(map(cx.is_cocycle, negated))
    assert not cx.is_cocycle(broken)
    assert made[0] == 0
    cohomology_spaces(a, rep)
    assert made[0] < 1000
