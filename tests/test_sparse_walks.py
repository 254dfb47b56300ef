"""The sparse law walks and the cocycle test against the naive oracles.

Over Q, F_3 and F_5, generated by hypothesis: sparse tables, dense conjugates
of verified algebras and one-entry bumps of both; regular and bumped
representations; deformations pulled back along random truncated
isomorphisms, and bumped ones; sparse and conjugated anti-L-dendriform
structures and bumps of them; sparse, dense and bumped operators, forms and
Lie actions.  Rational scalars take pairwise coprime denominators, one of
them above 2^31.  Each check must give exactly the violations of its
nested-loop oracle, with the same residuals as scalars of the field, in walk
order ((i, j), then k, then law; the form check walks each law over all
triples in turn), and is_cocycle must agree with the pointwise coboundary on
cocycles and on bumped cochains.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie.algebra import (
    AntiPreLieAlgebra,
    LieTable,
    MultTable,
    check_anti_pre_lie,
    check_lie_table,
    commutator_table,
    is_anti_pre_lie,
)
from antiprelie.cohomology import Cochain2, d1, is_cocycle
from antiprelie.deformation import (
    TruncatedDeformation,
    TruncatedIsomorphism,
    apply_isomorphism,
    check_deformation,
    is_deformation,
)
from antiprelie.dendriform import (
    LAW_FORM,
    LAW_TRANSPORT,
    AntiLDendriform,
    check_anti_L_dendriform,
    check_form_invariance,
    check_O_operator,
    is_anti_L_dendriform,
    is_O_operator,
)
from antiprelie.fields import QQ, Fp, PrimeField
from antiprelie.linalg import Matrix, Tensor3
from antiprelie.representation import (
    LieRepresentation,
    Representation,
    check_lie_representation,
    check_representation,
    is_representation,
    regular_representation,
)

from conftest import bump_matrix, bump_table
from oracles import (
    naive_apl_residuals,
    naive_d2_values,
    naive_deformation_residuals,
    naive_dendriform_residuals,
    naive_form_residuals,
    naive_lie_action_residuals,
    naive_lie_residuals,
    naive_o_operator_residuals,
    naive_rep_residuals,
)

FIELDS = st.sampled_from([QQ, PrimeField(3), PrimeField(5)])
# Verified over Q with integer constants, so over every prime field as well.
BASES = [
    (2, {(0, 1, 1): 1}),
    (2, {(0, 0, 1): 1}),
    (2, {(0, 1, 1): 1, (1, 1, 0): 1}),
    (3, {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): 1}),
    (3, {(0, 1, 1): 1, (0, 2, 2): 1}),
]
# (dim, x > y, x < y), anti-L-dendriform over Q with integer constants, so over
# every prime field as well: a2 with zero left product, two induced by
# O-operators and the structures of invariant forms.
DENDRIFORM_BASES = [
    (2, {(0, 1, 1): 1}, {}),
    (2, {(1, 1, 0): 1}, {(1, 1, 0): -1}),
    (2, {}, {(0, 0, 1): -1}),
    (3, {(0, 1, 1): 1, (0, 2, 2): 1, (1, 2, 0): 1, (2, 1, 0): -1}, {(1, 2, 0): -1, (2, 1, 0): 1}),
]
SETTINGS = settings(max_examples=60, deadline=None)


# Pairwise coprime denominators, so that one table (or the terms of one
# deformation) can need a common denominator that no entry has, and one above
# 2^31 (the prime 2^31 + 11).
DENOMINATORS = (1, 2, 3, 7, 11, 13, 2**31 + 11)


@st.composite
def scalars(draw, field):
    if field == QQ:
        return Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from(DENOMINATORS)))
    return field.of_int(draw(st.integers(0, field.p - 1)))


@st.composite
def sparse_tables(draw, field, n=None):
    n = n or draw(st.integers(1, 3))
    cells = st.tuples(*(st.integers(0, n - 1),) * 3)
    nonzero = draw(st.dictionaries(cells, scalars(field), max_size=6))
    return MultTable.from_dict(field, n, nonzero)


@st.composite
def invertible(draw, field, n):
    """A dense invertible matrix: a unit upper times a unit lower triangle."""
    def triangle(upper):
        return Matrix.from_rows(field, [
            [field.one() if i == j else draw(scalars(field)) if (j > i) == upper else field.zero()
             for j in range(n)]
            for i in range(n)
        ])
    return triangle(True) @ triangle(False)


@st.composite
def verified_algebras(draw, field):
    """A dense conjugate of one of BASES, verified."""
    n, nonzero = draw(st.sampled_from(BASES))
    table = MultTable.from_dict(field, n, nonzero).conjugate(draw(invertible(field, n)))
    return AntiPreLieAlgebra.verify(table)


@st.composite
def bumped(draw, table):
    n = table.dim
    return bump_table(table, *draw(st.tuples(*(st.integers(0, n - 1),) * 3)))


@st.composite
def tables(draw):
    field = draw(FIELDS)
    kind = draw(st.sampled_from(["sparse", "conjugate", "bumped"]))
    if kind == "sparse":
        return draw(sparse_tables(field))
    table = draw(verified_algebras(field)).table
    return draw(bumped(table)) if kind == "bumped" else table


@st.composite
def algebras_with_reps(draw):
    field = draw(FIELDS)
    alg = draw(verified_algebras(field))
    rep = regular_representation(alg)
    kind = draw(st.sampled_from(["regular", "bumped-rho", "bumped-mu", "random"]))
    n = alg.dim
    if kind == "random":
        m = draw(st.integers(1, 2))
        mats = [Matrix.from_rows(field, [[draw(scalars(field)) for _ in range(m)] for _ in range(m)])
                for _ in range(2 * n)]
        rep = Representation(n, m, tuple(mats[:n]), tuple(mats[n:]))
    elif kind != "regular":
        a, r, c = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1)))
        rho, mu = list(rep.rho), list(rep.mu)
        target = rho if kind == "bumped-rho" else mu
        target[a] = bump_matrix(target[a], r, c)
        rep = Representation(n, n, tuple(rho), tuple(mu))
    return alg, rep


@st.composite
def deformations(draw):
    field = draw(FIELDS)
    alg = draw(verified_algebras(field))
    n = alg.dim
    order = draw(st.integers(1, 3))
    phis = tuple(
        Matrix.from_rows(field, [[draw(scalars(field)) for _ in range(n)] for _ in range(n)])
        for _ in range(order)
    )
    d = apply_isomorphism(TruncatedDeformation.trivial(alg, order), TruncatedIsomorphism(phis))
    if draw(st.booleans()):
        k = draw(st.integers(0, order - 1))
        terms = list(d.terms)
        terms[k] = draw(bumped(terms[k]))
        d = TruncatedDeformation(alg, tuple(terms))
    return d


@st.composite
def matrices(draw, field, rows, cols):
    """A sparse or dense random matrix, or a one-entry bump of zero."""
    kind = draw(st.sampled_from(["sparse", "dense", "bumped"]))
    if kind == "dense":
        return Matrix.from_rows(field, [[draw(scalars(field)) for _ in range(cols)]
                                        for _ in range(rows)], cols)
    z = field.zero()
    ent = [[z] * cols for _ in range(rows)]
    if rows and cols:
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        if kind == "bumped":
            r, c = draw(cells)
            ent[r][c] = field.one()
        else:
            for (r, c), x in draw(st.dictionaries(cells, scalars(field), max_size=3)).items():
                ent[r][c] = x
    return Matrix.from_rows(field, ent, cols)


@st.composite
def dendriforms(draw):
    field = draw(FIELDS)
    kind = draw(st.sampled_from(["sparse", "conjugate", "bumped"]))
    if kind == "sparse":
        right = draw(sparse_tables(field))
        return AntiLDendriform(right, draw(sparse_tables(field, right.dim)))
    n, right, left = draw(st.sampled_from(DENDRIFORM_BASES))
    p = draw(invertible(field, n))
    d = AntiLDendriform(MultTable.from_dict(field, n, right).conjugate(p),
                        MultTable.from_dict(field, n, left).conjugate(p))
    assert not naive_dendriform_residuals(d)
    if kind == "bumped":
        if draw(st.booleans()):
            return AntiLDendriform(draw(bumped(d.right)), d.left)
        return AntiLDendriform(d.right, draw(bumped(d.left)))
    return d


@st.composite
def lie_actions(draw):
    """The commutator table of a verified algebra (or a bump of it, or a
    sparse table) with rho - mu of a possibly bumped representation, or a
    random action."""
    alg, rep = draw(algebras_with_reps())
    bracket = commutator_table(alg.table)
    kind = draw(st.sampled_from(["commutator", "bumped", "sparse"]))
    if kind == "bumped":
        bracket = draw(bumped(bracket))
    elif kind == "sparse":
        bracket = draw(sparse_tables(alg.field, alg.dim))
    action = tuple(r - m for r, m in zip(rep.rho, rep.mu))
    if draw(st.booleans()):
        action = tuple(draw(matrices(alg.field, rep.dim_v, rep.dim_v)) for _ in range(alg.dim))
    return bracket, LieRepresentation(rep.dim_v, action)


def walk(report, field):
    """The violations as ((law, *at), residual), once every residual
    coordinate is checked to be a scalar of field: a Fraction over Q, an Fp
    over F_p (a matrix residual is checked entry by entry)."""
    kind = Fraction if field == QQ else Fp
    for v in report.violations:
        for c in v.residual:
            assert all(isinstance(x, kind) for x in (c if isinstance(c, tuple) else (c,))), v
    return [((v.law, *v.at), v.residual) for v in report.violations]


@SETTINGS
@given(tables())
def test_anti_pre_lie_walk_equals_oracle(table):
    report = check_anti_pre_lie(table)
    assert walk(report, table.field) == list(naive_apl_residuals(table).items())
    assert is_anti_pre_lie(table) == report.ok


@SETTINGS
@given(algebras_with_reps())
def test_representation_walk_equals_oracle(pair):
    alg, rep = pair
    report = check_representation(alg, rep)
    assert walk(report, alg.field) == list(naive_rep_residuals(alg.table, rep).items())
    assert is_representation(alg, rep) == report.ok


@SETTINGS
@given(deformations())
def test_deformation_walk_equals_oracle(d):
    report = check_deformation(d)
    assert walk(report, d.field) == list(naive_deformation_residuals(d).items())
    assert is_deformation(d) == report.ok


# Denominators of the table and of the representation in coprime_pairs: no
# one of them divides another, so the common denominator D needs both.
TABLE_DENOMINATORS = (1, 2, 3, 6)
REP_DENOMINATORS = (1, 7, 11, 2**31 + 11)


@st.composite
def coprime_pairs(draw):
    """A Q table with denominators in TABLE_DENOMINATORS and a representation
    with denominators in REP_DENOMINATORS: random actions on a random table,
    or rho = 0 and mu(e_0) = a N with N^2 = 0 on a table whose products have
    no e_0 component, which is a representation."""
    n = draw(st.integers(2, 3))
    table_scalar = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                             st.sampled_from(TABLE_DENOMINATORS))
    rep_scalar = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                           st.sampled_from(REP_DENOMINATORS))
    passing = draw(st.booleans())
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(1 if passing else 0, n - 1))
    table = MultTable.from_dict(QQ, n, draw(st.dictionaries(cells, table_scalar, max_size=6)))
    if passing:
        zero = Matrix.zero(QQ, 2, 2)
        a = draw(rep_scalar)
        nil = Matrix.from_rows(QQ, [[QQ.zero(), a], [QQ.zero(), QQ.zero()]])
        return table, Representation(n, 2, (zero,) * n, (nil,) + (zero,) * (n - 1))
    m = draw(st.integers(1, 2))
    mats = [Matrix.from_rows(QQ, [[draw(st.one_of(st.just(QQ.zero()), rep_scalar))
                                   for _ in range(m)] for _ in range(m)])
            for _ in range(2 * n)]
    return table, Representation(n, m, tuple(mats[:n]), tuple(mats[n:]))


@SETTINGS
@given(coprime_pairs())
def test_representation_walk_with_coprime_denominators_equals_oracle(pair):
    """The walk runs on ints scaled by the lcm over table and representation,
    and reports exactly the oracle's residuals, as Fractions."""
    import antiprelie.representation as representation

    table, rep = pair
    coefficients = []
    inner = representation._support_walk

    def spy(terms, *args, **kwargs):
        coefficients.extend(_term_values(terms))
        return inner(terms, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(representation, "_support_walk", spy)
        report = check_representation(table, rep)
    assert all(type(x) is int for x in coefficients)
    assert walk(report, QQ) == list(naive_rep_residuals(table, rep).items())
    assert is_representation(table, rep) == report.ok


def _naive_is_cocycle(table, rep, f):
    comp1, comp2 = naive_d2_values(table, rep, f)
    return not any(any(v) for comp in (comp1, comp2) for p in comp for q in p for v in q)


@SETTINGS
@given(algebras_with_reps(), st.data())
def test_is_cocycle_equals_pointwise_oracle(pair, data):
    """Coboundaries are cocycles whenever rep is a representation; a bumped
    coboundary usually is not.  is_cocycle agrees with the oracle on both."""
    alg, rep = pair
    field, n, m = alg.field, alg.dim, rep.dim_v
    phi = Matrix.from_rows(field, [[data.draw(scalars(field)) for _ in range(n)] for _ in range(m)])
    f = d1(alg, rep, phi)
    assert is_cocycle(alg, rep, f) == _naive_is_cocycle(alg.table, rep, f)
    i, j, k = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, m - 1)))
    ent = [[list(fiber) for fiber in plane] for plane in f.tensor.entries]
    ent[i][j][k] += field.one()
    g = Cochain2(Tensor3.from_entries(field, ent))
    assert is_cocycle(alg, rep, g) == _naive_is_cocycle(alg.table, rep, g)


@SETTINGS
@given(dendriforms())
def test_dendriform_walk_equals_oracle(d):
    report = check_anti_L_dendriform(d)
    assert walk(report, d.field) == list(naive_dendriform_residuals(d).items())
    assert is_anti_L_dendriform(d) == report.ok


@SETTINGS
@given(algebras_with_reps(), st.data())
def test_o_operator_walk_equals_oracle(pair, data):
    alg, rep = pair
    t = data.draw(matrices(alg.field, alg.dim, rep.dim_v))
    report = check_O_operator(alg, rep, t)
    expected = [(("o-operator", *at), r) for at, r in naive_o_operator_residuals(alg.table, rep, t).items()]
    assert walk(report, alg.field) == expected
    assert is_O_operator(alg, rep, t) == report.ok


@SETTINGS
@given(tables(), st.data())
def test_form_walk_equals_oracle(table, data):
    b = data.draw(matrices(table.field, table.dim, table.dim))
    laws = (LAW_FORM, LAW_TRANSPORT)
    got = [(at, residual[0]) for at, residual in walk(check_form_invariance(table, b), table.field)
           if at[0] in laws]
    expected = sorted(naive_form_residuals(table, b).items(),
                      key=lambda item: (laws.index(item[0][0]), item[0][1:]))
    assert got == expected


@SETTINGS
@given(lie_actions())
def test_lie_walks_equal_oracles(pair):
    bracket, action = pair
    assert walk(check_lie_table(bracket), bracket.field) == list(naive_lie_residuals(bracket).items())
    lie = LieTable(bracket.tensor)
    assert walk(check_lie_representation(lie, action), bracket.field) == list(
        naive_lie_action_residuals(lie, action).items()
    )


def _term_values(terms):
    """Every value the terms of a support walk hand it: the coefficients of
    their X fibers and the entries of their Y fibers."""
    for _, _, xs, ys, _ in terms:
        for _, _, fiber in xs:
            yield from fiber.values()
        for line in ys:
            for _, fiber in line:
                yield from fiber.values()


def test_law_walks_over_q_run_on_ints(monkeypatch):
    """Over Q the anti-pre-Lie and deformation walks hand the support walk
    terms scaled to ints, one walk per deformation degree; the Fractions are
    only made for the report."""
    import antiprelie.algebra as algebra
    import antiprelie.deformation as deformation

    halves = MultTable.from_dict(QQ, 3, {(0, 1, 2): Fraction(1, 2), (1, 2, 0): Fraction(2, 3),
                                         (0, 0, 1): Fraction(-1, 2), (2, 0, 2): Fraction(3, 4)})
    base = AntiPreLieAlgebra.verify(MultTable.from_dict(QQ, 3, {(0, 1, 1): 1, (0, 2, 2): 1}))
    coprime = TruncatedDeformation(base, tuple(
        MultTable.from_dict(QQ, 3, {cell: Fraction(1, den)})
        for cell, den in (((1, 2, 0), 7), ((2, 1, 0), 11), ((1, 2, 1), 2**31 + 11))
    ))
    seen = []

    def spy(terms, *args, **kwargs):
        seen.append(terms)
        return support_walk(terms, *args, **kwargs)

    support_walk = algebra._support_walk
    monkeypatch.setattr(algebra, "_support_walk", spy)
    monkeypatch.setattr(deformation, "_support_walk", spy)
    assert not check_anti_pre_lie(halves).ok
    assert not check_deformation(coprime).ok
    assert len(seen) == 1 + coprime.order
    for terms in seen:
        values = list(_term_values(terms))
        assert values and all(type(x) is int for x in values)


def test_law_walks_over_f3_run_on_ints(monkeypatch):
    """Over F_3 the algebra, deformation, representation and dendriform walks
    hand the support walk residues as ints, not Fp values; only a
    violation's residual is made of Fp values, for the report."""
    import antiprelie.algebra as algebra
    import antiprelie.deformation as deformation
    import antiprelie.dendriform as dendriform
    import antiprelie.representation as representation
    from antiprelie.representation import special_condition_report

    f3 = PrimeField(3)
    base = AntiPreLieAlgebra.verify(MultTable.from_dict(f3, 3, {(0, 1, 1): 1, (0, 2, 2): 1}))
    bumped = bump_table(base.table, 1, 2, 0)
    rep = regular_representation(base)
    bad_rep = Representation(3, 3, (bump_matrix(rep.rho[0], 1, 2), *rep.rho[1:]), rep.mu, f3)
    d = AntiLDendriform(MultTable.from_dict(f3, 2, {(0, 1, 1): 2, (1, 0, 1): 1}),
                        MultTable.from_dict(f3, 2, {(1, 1, 0): 1}))
    lie = LieTable(commutator_table(bumped).tensor)
    seen = set()

    def spy(terms, *args, **kwargs):
        seen.update(type(x) for x in _term_values(terms))
        return support_walk(terms, *args, **kwargs)

    support_walk = algebra._support_walk
    for module in (algebra, deformation, representation, dendriform):
        monkeypatch.setattr(module, "_support_walk", spy)
    reports = [
        check_anti_pre_lie(bumped),
        check_deformation(TruncatedDeformation(base, (bumped,))),
        check_lie_table(bumped),
        check_representation(base, bad_rep),
        check_lie_representation(lie, LieRepresentation(3, bad_rep.rho)),
        check_anti_L_dendriform(d),
    ]
    assert special_condition_report(base, bad_rep) is not None
    assert seen == {int}
    for report in reports:
        assert not report.ok, report.subject
        for v in report.violations:
            flat = [x for row in v.residual for x in (row if isinstance(row, tuple) else (row,))]
            assert all(type(x) is Fp and x.p == 3 for x in flat), v


# Orderings a support walk could get wrong: keys that no term reaches, the
# last key, residuals reached only through the rotated placements of the
# cyclic law, and the dim-8 extension tables that classify re-verifies.  Each
# check gives its oracle's report, and each is_* agrees with its check_*.


def _apl_equals_oracle(table):
    report = check_anti_pre_lie(table)
    assert walk(report, table.field) == list(naive_apl_residuals(table).items())
    assert is_anti_pre_lie(table) == report.ok
    return report


def test_walks_with_empty_rows_and_columns_equal_oracles():
    """Only e_1 and e_3 of a dim-5 table take part in its products, and only
    e_1 and e_3 act on V, so no key with an index 0, 2 or 4 is reached."""
    table = MultTable.from_dict(QQ, 5, {(1, 3, 3): 1, (3, 3, 1): 2, (3, 1, 3): Fraction(-1, 2)})
    assert not _apl_equals_oracle(table).ok
    assert walk(check_lie_table(table), QQ) == list(naive_lie_residuals(table).items())
    base = AntiPreLieAlgebra.verify(MultTable.from_dict(QQ, 5, {(1, 3, 3): 1}))
    zero = MultTable.zero(QQ, 5)
    d = TruncatedDeformation(base, (zero, table))
    report = check_deformation(d)
    assert walk(report, QQ) == list(naive_deformation_residuals(d).items())
    assert is_deformation(d) == report.ok
    dend = AntiLDendriform(table, MultTable.from_dict(QQ, 5, {(3, 1, 1): 1}))
    report = check_anti_L_dendriform(dend)
    assert walk(report, QQ) == list(naive_dendriform_residuals(dend).items())
    assert is_anti_L_dendriform(dend) == report.ok
    z = Matrix.zero(QQ, 3, 3)
    rho1 = Matrix.from_rows(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    mu1 = Matrix.from_rows(QQ, [[0, 0, 0], [Fraction(1, 2), 0, 0], [0, 0, 0]])
    rep = Representation(5, 3, (z, rho1, z, z, z), (z, mu1, z, mu1, z))
    report = check_representation(base, rep)
    assert not report.ok
    assert walk(report, QQ) == list(naive_rep_residuals(base.table, rep).items())
    assert is_representation(base, rep) == report.ok


def test_walks_reach_the_last_key():
    """The exchange residual is antisymmetric in (x, y) and vanishes at
    (x, x, z), so the last triple an anti-pre-Lie table can fail at is
    (n-1, n-2, n-1), with its partner (n-2, n-1, n-1).  e_2 < e_2 = e_2 fails
    dendriform-2 at (2, 2, 2) alone, mu(e_2) = I on a zero table fails
    rep-mixed at (2, 2) alone, and e_2 e_2 = e_2 fails Jacobi at (2, 2, 2)
    alone."""
    table = MultTable.from_dict(QQ, 3, {(1, 2, 1): 1})
    report = _apl_equals_oracle(table)
    assert [v.at for v in report.violations] == [(1, 2, 2), (2, 1, 2)]
    dend = AntiLDendriform(MultTable.zero(QQ, 3), MultTable.from_dict(QQ, 3, {(2, 2, 2): 1}))
    report = check_anti_L_dendriform(dend)
    assert [(v.law, v.at) for v in report.violations] == [("dendriform-2", (2, 2, 2))]
    assert walk(report, QQ) == list(naive_dendriform_residuals(dend).items())
    assert not is_anti_L_dendriform(dend)
    z = Matrix.zero(QQ, 2, 2)
    rep = Representation(3, 2, (z,) * 3, (z, z, Matrix.identity(QQ, 2)))
    zero = MultTable.zero(QQ, 3)
    report = check_representation(zero, rep)
    assert [(v.law, v.at) for v in report.violations] == [("rep-mixed", (2, 2))]
    assert walk(report, QQ) == list(naive_rep_residuals(zero, rep).items())
    assert not is_representation(zero, rep)
    square = MultTable.from_dict(QQ, 3, {(2, 2, 2): 1})
    report = check_lie_table(square)
    assert [(v.law, v.at) for v in report.violations][-1] == ("jacobi", (2, 2, 2))
    assert walk(report, QQ) == list(naive_lie_residuals(square).items())


# e_0 . e_1 = -e_1, e_0 . e_2 = e_2, e_1 . e_3 = e_2: x -> -L_x preserves the
# commutator, so the exchange law holds everywhere, but the commutator fails
# Jacobi and the cyclic law fails at the six orderings of (0, 1, 3).
CYCLIC_ONLY = {(0, 1, 1): -1, (0, 2, 2): 1, (1, 3, 2): 1}
DENSE_CHANGE = ((1, 2, -1, 1), (0, 1, 2, -2), (0, 0, 1, 1), (0, 0, 0, 1))


@pytest.mark.parametrize("field", [QQ, PrimeField(3)])
def test_cyclic_only_violations_equal_oracle(field):
    """A table, and a dense conjugate of it, that fail the anti-pre-Lie laws
    only through the cyclic law, whose terms place their keys rotated."""
    table = MultTable.from_dict(field, 4, CYCLIC_ONLY)
    upper = Matrix.from_rows(field, [[field.of_int(x) for x in row] for row in DENSE_CHANGE])
    for t in (table, table.conjugate(upper @ upper.transpose())):
        report = _apl_equals_oracle(t)
        assert report.violations and {v.law for v in report.violations} == {"cyclic"}


def test_classify_extension_tables_walk_equals_oracle():
    """The extension tables classify builds over the dim-4 tower (a2 and its
    semidirect product with the regular representation) and over a dense
    conjugate of it: all 22 pass check_anti_pre_lie and is_anti_pre_lie, and
    a one-entry bump of the last table of each gives the oracle's violations
    (the oracle takes over a second on a dim-8 table, so it runs on these)."""
    from antiprelie.extension import classify_extensions
    from antiprelie.representation import semidirect_product

    a2 = AntiPreLieAlgebra.verify(MultTable.from_dict(QQ, 2, {(0, 1, 1): 1}))
    a4 = semidirect_product(a2, regular_representation(a2))
    upper = Matrix.from_rows(QQ, [[QQ.of_int(x) for x in row] for row in DENSE_CHANGE])
    dense = AntiPreLieAlgebra.verify(a4.table.conjugate(upper @ upper.transpose()))
    for alg in (a4, dense):
        tables = [ext.total.table for _, ext in classify_extensions(alg, regular_representation(alg))]
        assert len(tables) == 11
        for t in tables:
            assert check_anti_pre_lie(t).ok and is_anti_pre_lie(t)
        assert not _apl_equals_oracle(bump_table(tables[-1], 7, 2, 5)).ok
