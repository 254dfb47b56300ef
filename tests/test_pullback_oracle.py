"""apply_isomorphism against the triple-sum pullback oracle.

Over Q and F_3, generated by hypothesis: a verified base of dimension 1 to 3,
deformation terms that are arbitrary sparse tables (the pullback formula
needs no verification), deformation orders 0 to 3 and isomorphism orders 0
to 4, so that the isomorphism is padded with zeros as well as truncated;
and the shape trivialize_step pulls back, where only phi_n is nonzero and
the deformation terms vanish below order n.  The two routes must give
exactly the same terms.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie.algebra import AntiPreLieAlgebra, MultTable
from antiprelie.deformation import TruncatedDeformation, TruncatedIsomorphism, apply_isomorphism
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import Matrix

from oracles import naive_pullback

# Verified over Q with integer constants, so over F_3 as well.
BASES = [
    (1, {}),
    (1, {(0, 0, 0): 1}),
    (2, {(0, 1, 1): 1}),
    (2, {(0, 1, 1): 1, (1, 1, 0): 1}),
    (3, {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): 1}),
    (3, {(0, 1, 1): 1, (0, 2, 2): 1}),
]


@st.composite
def scalars(draw, field):
    if field == QQ:
        return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return field.of_int(draw(st.integers(0, field.p - 1)))


@st.composite
def pullbacks(draw):
    field = draw(st.sampled_from([QQ, PrimeField(3)]))
    n, nonzero = draw(st.sampled_from(BASES))
    base = AntiPreLieAlgebra.verify(MultTable.from_dict(field, n, nonzero))
    cells = st.tuples(*(st.integers(0, n - 1),) * 3)
    terms = tuple(
        MultTable.from_dict(field, n, draw(st.dictionaries(cells, scalars(field), max_size=4)))
        for _ in range(draw(st.integers(0, 3)))
    )
    phis = tuple(
        Matrix.from_rows(field, [[draw(scalars(field)) for _ in range(n)] for _ in range(n)])
        for _ in range(draw(st.integers(0, 4)))
    )
    return TruncatedDeformation(base, terms), TruncatedIsomorphism(phis)


@settings(max_examples=80, deadline=None)
@given(pullbacks())
def test_apply_isomorphism_matches_naive_pullback(case):
    d, iso = case
    got = apply_isomorphism(d, iso)
    want = naive_pullback(d, iso)
    assert got.base == d.base
    assert [t.tensor for t in got.terms] == [t.tensor for t in want.terms]


@st.composite
def trivialize_steps(draw):
    """The shape trivialize_step pulls back: deformation terms zero below
    order n and a dense w_n (and above), along Id + phi_n t^n with a dense
    phi_n and every other phi_k zero."""
    field = draw(st.sampled_from([QQ, PrimeField(3)]))
    dim, nonzero = draw(st.sampled_from(BASES))
    base = AntiPreLieAlgebra.verify(MultTable.from_dict(field, dim, nonzero))
    order = draw(st.integers(1, 3))
    n = draw(st.integers(1, order))

    def dense(shape):
        return [draw(scalars(field)) for _ in range(shape)]

    zero = MultTable.zero(field, dim)
    terms = tuple(zero if k < n - 1 else MultTable.from_entries(
        field, [[dense(dim) for _ in range(dim)] for _ in range(dim)]) for k in range(order))
    phi = Matrix.from_rows(field, [dense(dim) for _ in range(dim)])
    zero_phi = Matrix.zero(field, dim, dim)
    return (TruncatedDeformation(base, terms),
            TruncatedIsomorphism(tuple(phi if k == n - 1 else zero_phi for k in range(order))))


@settings(max_examples=60, deadline=None)
@given(trivialize_steps())
def test_trivialize_shaped_pullback_matches_naive_pullback(case):
    d, iso = case
    got = apply_isomorphism(d, iso)
    assert [t.tensor for t in got.terms] == [t.tensor for t in naive_pullback(d, iso).terms]
