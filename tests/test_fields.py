from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from antiprelie.fields import MAX_PRIME, Fp, PrimeField, QQ, field_from_json

from conftest import fp_table

fracs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))


@given(fracs)
def test_rational_round_trip(x):
    assert QQ.parse(QQ.to_str(x)) == x


@given(fracs)
def test_rational_canonical_form(x):
    s = QQ.to_str(x)
    assert x.denominator > 0
    if x.denominator == 1:
        assert "/" not in s
    else:
        assert s == f"{x.numerator}/{x.denominator}"


@given(st.sampled_from([2, 3, 5]), st.integers(-20, 20))
def test_prime_round_trip(p, k):
    field = PrimeField(p)
    x = field.of_int(k)
    assert 0 <= x.value < p
    assert field.parse(field.to_str(x)) == x


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_field_axioms_exhaustive(p):
    field = PrimeField(p)
    elems = list(field.elements())
    assert len(elems) == p
    for a in elems:
        assert a + field.zero() == a
        assert a * field.one() == a
        assert a - a == field.zero()
        if a:
            assert a * (field.one() / a) == field.one()
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_fp_mixed_modulus_rejected():
    with pytest.raises(ValueError):
        Fp(1, 3) + Fp(1, 5)


def test_fp_equality_agrees_with_hash():
    """An Fp equals only elements of its own field, so equal values hash alike."""
    assert Fp(1, 3) != 4
    assert Fp(0, 3) != 0
    assert len({Fp(1, 3), Fp(4, 3)}) == 1
    assert len({Fp(1, 3), 4}) == 2


@pytest.mark.parametrize("op", [
    lambda: Fp(1, 3) + 1, lambda: 1 + Fp(1, 3), lambda: Fp(1, 3) - 1, lambda: 1 - Fp(1, 3),
    lambda: Fp(1, 3) * 2, lambda: 2 * Fp(1, 3), lambda: Fp(1, 3) / 1,
])
def test_fp_does_not_mix_with_int(op):
    """An Fp computes only with elements of its own field, not with ints."""
    with pytest.raises(TypeError):
        op()


def test_fp_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fp(1, 5) / Fp(0, 5)


def test_scalar_strings():
    assert QQ.to_str(Fraction(-1, 2)) == "-1/2"
    assert QQ.to_str(Fraction(7)) == "7"
    assert PrimeField(5).to_str(Fp(8, 5)) == "3 mod 5"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        QQ.parse("1.5x")
    with pytest.raises(ValueError):
        PrimeField(5).parse("3 mod 7")
    with pytest.raises(ValueError):
        PrimeField(5).parse("nope")


def test_field_descriptors():
    assert field_from_json({"type": "rational"}) == QQ
    assert field_from_json({"type": "prime", "p": 3}) == PrimeField(3)
    with pytest.raises(ValueError):
        field_from_json({"type": "real"})


@pytest.mark.parametrize("p", [3.0, 3.7, "5", True, None])
def test_prime_field_needs_an_integer(p):
    with pytest.raises(ValueError, match="must be an integer"):
        PrimeField(p)


def test_prime_ceiling_is_decided_before_trial_division():
    assert PrimeField(MAX_PRIME).p == 2**31 - 1
    with pytest.raises(ValueError, match="ceiling"):
        PrimeField(MAX_PRIME + 2)
    with pytest.raises(ValueError, match="ceiling"):
        PrimeField(10**40 + 1)




def _entry_points():
    """{name: (operand, call)} for each operation that takes an operand beside
    a table, each called on the Q algebra a2 (or its Lie bracket) with one
    operand over F_3."""
    from antiprelie.algebra import AntiPreLieAlgebra, MultTable, sub_adjacent_lie
    from antiprelie.cohomology import Cochain2, cohomologous, d1, is_cocycle
    from antiprelie.dendriform import (check_form_invariance, check_O_operator,
                                       dendriform_from_bilinear_form, is_O_operator)
    from antiprelie.linalg import Matrix
    from antiprelie.representation import (LieRepresentation, check_lie_representation,
                                           regular_representation)

    f3 = PrimeField(3)
    alg = AntiPreLieAlgebra.verify(MultTable.from_dict(QQ, 2, {(0, 1, 1): 1}))
    rep = regular_representation(alg)
    zero, q_zero = Cochain2.zero(f3, 2, 2), Cochain2.zero(QQ, 2, 2)
    nonzero = Cochain2(MultTable.from_dict(f3, 2, {(0, 0, 1): 1}).tensor)
    ident = Matrix.identity(f3, 2)
    return {
        "is_cocycle-zero": ("cochain", lambda: is_cocycle(alg, rep, zero)),
        "is_cocycle": ("cochain", lambda: is_cocycle(alg, rep, nonzero)),
        "cohomologous-zero": ("cochain", lambda: cohomologous(alg, rep, zero, q_zero)),
        "cohomologous": ("cochain", lambda: cohomologous(alg, rep, q_zero, nonzero)),
        "d1": ("cochain", lambda: d1(alg, rep, ident)),
        "check_O_operator": ("operator", lambda: check_O_operator(alg, rep, ident)),
        "is_O_operator": ("operator", lambda: is_O_operator(alg, rep, ident)),
        "check_form_invariance": ("form", lambda: check_form_invariance(alg, ident)),
        "dendriform_from_bilinear_form": (
            "form", lambda: dendriform_from_bilinear_form(alg, ident)),
        "check_lie_representation": ("action", lambda: check_lie_representation(
            sub_adjacent_lie(alg), LieRepresentation(2, (ident, ident)))),
    }


@pytest.mark.parametrize("name", list(_entry_points()))
def test_operand_over_another_field_is_refused(name):
    """An F_3 cochain, operator, form or action against a Q algebra (or its
    Lie bracket) is refused with a ValueError naming both fields, zero
    operands included: no TypeError from mixing Fraction and Fp, and no
    answer over Q."""
    operand, call = _entry_points()[name]
    message = rf"{operand} is over PrimeField\(p=3\), the table over Rationals"
    with pytest.raises(ValueError, match=message):
        call()


def test_values_survive_pickle_and_copy():
    """An Fp, and the F_3 values built from them, round-trip through pickle,
    copy.copy and copy.deepcopy and compare equal: Fp rebuilds through its
    constructor instead of the refusing __setattr__."""
    import copy
    import pickle

    from antiprelie.algebra import AntiPreLieAlgebra, check_anti_pre_lie
    from antiprelie.cohomology import cohomology_spaces
    from antiprelie.linalg import Matrix
    from antiprelie.representation import regular_representation

    f3 = PrimeField(3)
    table = AntiPreLieAlgebra.verify(fp_table(3, 2, {(0, 1, 1): 1})).table
    rep = regular_representation(AntiPreLieAlgebra(table))
    failing = check_anti_pre_lie(fp_table(3, 2, {(0, 0, 1): 1, (1, 1, 0): 1}))
    assert not failing.ok
    values = [f3.of_int(2), table, Matrix.from_rows(f3, [[f3.of_int(2), f3.zero()], [f3.one(), f3.one()]]),
              rep, cohomology_spaces(AntiPreLieAlgebra(table), rep).z2_basis[0], failing]
    for value in values:
        for route in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
            assert route(value) == value, value
    x = copy.deepcopy(values[0])
    assert (x.value, x.p) == (2, 3) and x + x == f3.one()
    with pytest.raises(AttributeError):
        x.value = 1
