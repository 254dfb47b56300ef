from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from antiprelie.fields import MAX_PRIME, Fp, PrimeField, QQ, field_from_json

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

