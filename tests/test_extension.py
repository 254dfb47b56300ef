import random
import re
from fractions import Fraction

import pytest

from antiprelie.algebra import AntiPreLieAlgebra, MultTable, StructureError, check_anti_pre_lie
from antiprelie.cohomology import (
    Cochain2,
    _Complex,
    cochain2_to_vec,
    cohomologous,
    cohomology_spaces,
    d1,
    is_cocycle,
)
from antiprelie.extension import (
    are_isomorphic,
    build_extension,
    classify_extensions,
    extension_table,
    extract_cocycle,
    normalize_extension,
    semidirect_extension,
)
from antiprelie.documents import encode_representation
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import Matrix, Tensor3, _transpose, invert
from antiprelie.representation import (
    Representation,
    regular_representation,
    semidirect_product,
)

from conftest import fp_table, rand_fraction, rand_matrix


def section_with(ext, phi):
    rows = [list(r) for r in ext.section.entries]
    for a in range(ext.dim_v):
        for i in range(ext.dim_a):
            rows[ext.dim_a + a][i] = phi.entries[a][i]
    return Matrix.from_rows(QQ, rows)


@pytest.fixture(scope="module")
def a2_setup(named_algebras):
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    spaces = cohomology_spaces(a2, reg)
    return a2, reg, spaces


def test_semidirect_is_theta_zero(corpus_pairs):
    for name, alg, rep in corpus_pairs[:8]:
        ext = semidirect_extension(alg, rep)
        sd = semidirect_product(alg, rep)
        assert ext.total.table.tensor == sd.table.tensor, name


def test_zero_context_any_theta_builds(named_algebras):
    """Over a zero algebra and zero action every bilinear theta is a cocycle
    and the product lands entirely in the squared-to-zero V."""
    rng = random.Random(3)
    z2 = named_algebras["zero2"]
    rep = Representation.zero(QQ, 2, 1)
    ent = [[[rand_fraction(rng)] for _ in range(2)] for _ in range(2)]
    theta = Cochain2(Tensor3.from_entries(QQ, ent))
    ext = build_extension(z2, rep, theta)
    got, rep_got = extract_cocycle(ext)
    assert cochain2_to_vec(got) == cochain2_to_vec(theta)


def test_build_extract_round_trip(a2_setup):
    a2, reg, spaces = a2_setup
    for theta in spaces.h2_representatives:
        ext = build_extension(a2, reg, theta)
        got, rep_got = extract_cocycle(ext)
        assert cochain2_to_vec(got) == cochain2_to_vec(theta)
        assert rep_got == reg


def test_extension_invariants(a2_setup):
    a2, reg, spaces = a2_setup
    ext = build_extension(a2, reg, spaces.h2_representatives[0])
    n, m = ext.dim_a, ext.dim_v
    assert (ext.proj @ ext.iota).is_zero()
    assert ext.proj @ ext.section == Matrix.identity(QQ, n)
    for a in range(m):
        for b in range(m):
            assert not any(ext.total.table.multiply(ext.iota.col(a), ext.iota.col(b)))
    assert ext.base_table().tensor == a2.table.tensor
    from antiprelie.algebra import check_morphism

    assert check_morphism(ext.proj, ext.total.table, ext.base_table()).ok


def test_non_cocycle_refused_and_table_fails(a2_setup):
    a2, reg, spaces = a2_setup
    base = spaces.h2_representatives[0]
    ent = [[list(f) for f in p] for p in base.tensor.entries]
    found_bad = None
    for i in range(2):
        for j in range(2):
            poked = [[list(f) for f in p] for p in ent]
            poked[i][j][0] = poked[i][j][0] + 1
            cand = Cochain2(Tensor3.from_entries(QQ, poked))
            if not is_cocycle(a2, reg, cand):
                found_bad = cand
                break
        if found_bad:
            break
    assert found_bad is not None
    with pytest.raises(StructureError):
        build_extension(a2, reg, found_bad)
    raw = extension_table(a2.table, reg, found_bad)
    assert not check_anti_pre_lie(raw).ok


def test_two_sections_same_rep_cohomologous_thetas(a2_setup):
    rng = random.Random(9)
    a2, reg, spaces = a2_setup
    ext = build_extension(a2, reg, spaces.h2_representatives[0])
    theta1, rep1 = extract_cocycle(ext)
    for _ in range(4):
        phi = rand_matrix(rng, 2, 2)
        theta2, rep2 = extract_cocycle(ext, section_with(ext, phi))
        assert rep2 == rep1
        diff = theta2 - theta1
        assert cochain2_to_vec(diff) == cochain2_to_vec(d1(a2, reg, phi))


def test_semidirect_extraction_lands_in_coboundaries(a2_setup):
    rng = random.Random(13)
    a2, reg, _ = a2_setup
    ext = semidirect_extension(a2, reg)
    phi = rand_matrix(rng, 2, 2)
    theta, _ = extract_cocycle(ext, section_with(ext, phi))
    assert cohomologous(a2, reg, theta, Cochain2.zero(QQ, 2, 2)) is not None


def test_self_isomorphism_is_identity_shape(a2_setup):
    a2, reg, spaces = a2_setup
    ext = build_extension(a2, reg, spaces.h2_representatives[0])
    zeta = are_isomorphic(ext, ext)
    assert zeta == Matrix.identity(QQ, 4)


def test_cohomologous_thetas_isomorphic(a2_setup):
    rng = random.Random(17)
    a2, reg, spaces = a2_setup
    theta = spaces.h2_representatives[0]
    ext1 = build_extension(a2, reg, theta)
    for _ in range(4):
        phi = rand_matrix(rng, 2, 2)
        shifted = Cochain2((theta + d1(a2, reg, phi)).tensor)
        ext2 = build_extension(a2, reg, shifted)
        zeta = are_isomorphic(ext1, ext2)
        assert zeta is not None
        assert zeta @ ext1.iota == ext2.iota
        assert ext2.proj @ zeta == ext1.proj


def test_non_cohomologous_not_isomorphic(named_algebras):
    z2 = named_algebras["zero2"]
    rep = Representation.zero(QQ, 2, 1)
    t1 = Cochain2(Tensor3.from_entries(QQ, [[[Fraction(1)], [Fraction(0)]], [[Fraction(0)], [Fraction(0)]]]))
    t2 = Cochain2(Tensor3.from_entries(QQ, [[[Fraction(0)], [Fraction(1)]], [[Fraction(0)], [Fraction(0)]]]))
    ext1 = build_extension(z2, rep, t1)
    ext2 = build_extension(z2, rep, t2)
    assert are_isomorphic(ext1, ext2) is None


def test_mismatched_contexts_refused(named_algebras, a2_setup):
    a2, reg, spaces = a2_setup
    ext1 = build_extension(a2, reg, spaces.h2_representatives[0])
    comm2 = named_algebras["comm2"]
    ext2 = semidirect_extension(comm2, regular_representation(comm2))
    with pytest.raises(ValueError):
        are_isomorphic(ext1, ext2)


def test_zero_fixture_classification(named_algebras):
    z2 = named_algebras["zero2"]
    rep = Representation.zero(QQ, 2, 1)
    classes = classify_extensions(z2, rep)
    assert len(classes) == 4
    for theta, ext in classes:
        got, _ = extract_cocycle(ext)
        assert cochain2_to_vec(got) == cochain2_to_vec(theta)
    for i in range(4):
        for j in range(i + 1, 4):
            assert are_isomorphic(classes[i][1], classes[j][1]) is None


def test_h2_zero_classification_only_trivial_class(corpus_algebras):
    alg = corpus_algebras["rigid2"]
    classes = classify_extensions(alg, regular_representation(alg))
    assert classes == ()


def test_classification_round_trip(a2_setup):
    a2, reg, spaces = a2_setup
    classes = classify_extensions(a2, reg)
    assert len(classes) == spaces.h2_dim
    rebuilt = [build_extension(a2, reg, extract_cocycle(ext)[0]) for _, ext in classes]
    for i in range(len(rebuilt)):
        assert are_isomorphic(classes[i][1], rebuilt[i]) is not None
        for j in range(i + 1, len(rebuilt)):
            assert are_isomorphic(rebuilt[i], rebuilt[j]) is None


def test_normalize_scrambled_extension(a2_setup):
    a2, reg, spaces = a2_setup
    ext = build_extension(a2, reg, spaces.h2_representatives[0])
    p = Matrix.from_rows(QQ, [[Fraction(x) for x in row] for row in
                              [[1, 2, 0, 1], [0, 1, 1, 0], [1, 0, 1, 0], [0, 0, 0, 1]]])
    p_inv = invert(p)
    assert p_inv is not None
    scrambled = AntiPreLieAlgebra.verify(ext.total.table.conjugate(p))
    norm = normalize_extension(scrambled, p_inv @ ext.iota, ext.proj @ p)
    theta_n, rep_n = extract_cocycle(norm)
    assert rep_n == reg
    assert is_cocycle(a2, reg, theta_n)
    theta_orig, _ = extract_cocycle(ext)
    assert cohomologous(a2, reg, theta_n, theta_orig) is not None
    assert are_isomorphic(norm, ext) is not None
    assert are_isomorphic(ext, norm) is not None


def test_prime_field_classification_pipeline(f3_algebras):
    """The whole cohomology/extension stack is field-generic: classify the
    e0.e1 = e1 table over F3 against its regular action."""
    from antiprelie.representation import Representation as Rep

    table = f3_algebras["a2@3"]
    alg = AntiPreLieAlgebra.verify(table)
    reg = Rep(2, 2, table.left_matrices, table.right_matrices)
    spaces = cohomology_spaces(alg, reg)
    assert (spaces.z2_dim, spaces.b2_dim, spaces.h2_dim) == (5, 3, 2)
    classes = classify_extensions(alg, reg)
    assert len(classes) == 2
    for theta, ext in classes:
        got, rep_got = extract_cocycle(ext)
        assert cochain2_to_vec(got) == cochain2_to_vec(theta)
        assert rep_got == reg
    assert are_isomorphic(classes[0][1], classes[1][1]) is None


def test_wide_coefficient_space(named_algebras):
    """dim V > dim A exercises the non-square shapes end to end."""
    z2 = named_algebras["zero2"]
    rep = Representation.zero(QQ, 2, 3)
    ext = semidirect_extension(z2, rep)
    assert ext.total.dim == 5
    theta, rep_got = extract_cocycle(ext)
    assert theta.is_zero()
    assert rep_got == rep
    spaces = cohomology_spaces(z2, rep)
    assert (spaces.z2_dim, spaces.b2_dim, spaces.h2_dim) == (12, 0, 12)


def test_normalize_rejects_broken_sequences(a2_setup):
    a2, reg, spaces = a2_setup
    ext = build_extension(a2, reg, spaces.h2_representatives[0])
    bad_iota = Matrix.zero(QQ, 4, 2)
    with pytest.raises(StructureError):
        normalize_extension(ext.total, bad_iota, ext.proj)
    bad_proj = Matrix.zero(QQ, 2, 4)
    with pytest.raises(StructureError):
        normalize_extension(ext.total, ext.iota, bad_proj)


def test_extract_cocycle_keeps_field_at_dim_0():
    alg = AntiPreLieAlgebra.verify(MultTable.zero(QQ, 0))
    ext = build_extension(alg, Representation.zero(QQ, 0, 2), Cochain2.zero(QQ, 0, 2))
    _, rep = extract_cocycle(ext)
    assert rep.field == QQ
    assert encode_representation(rep)["field"] == {"type": "rational"}


def test_classify_builds_d2_once(named_algebras, monkeypatch):
    """classify_extensions assembles the d2 rows once, for both Z2 and the
    cocycle gate of every representative, and gives the extensions
    build_extension gives one by one."""
    import antiprelie.cohomology as cohomology

    a2 = named_algebras["a2"]
    a4 = semidirect_product(a2, regular_representation(a2))
    rep = regular_representation(a4)
    calls = []
    d2_rows = cohomology._d2_rows

    def counted(*args):
        calls.append(args)
        return d2_rows(*args)

    monkeypatch.setattr(cohomology, "_d2_rows", counted)
    classes = classify_extensions(a4, rep)
    assert len(classes) == 11
    assert len(calls) == 1
    assert [ext for _, ext in classes] == [build_extension(a4, rep, theta) for theta, _ in classes]


def test_classify_over_f3_gates_against_intact_rows(monkeypatch):
    """classify_extensions gates every representative with the complex that
    gave H2, and over F_p elimination leaves the rows it is handed alone, so
    the gate reads exactly the d2 rows Z2 came from: it sums the columns of
    those rows (their transpose), which gating leaves unchanged too."""
    a2 = AntiPreLieAlgebra.verify(fp_table(3, 2, {(0, 1, 1): 1}))
    a4 = semidirect_product(a2, regular_representation(a2))
    rep = regular_representation(a4)
    solved, gated = [], []
    spaces, gate = _Complex.spaces, _Complex.is_cocycle

    def solving(cx):
        solved.append((cx, [dict(r) for r in cx.d2]))
        return spaces(cx)

    def recording(cx, theta):
        rows = [dict(r) for r in cx.d2]
        ok = gate(cx, theta)
        gated.append((cx, rows, [dict(c) for c in cx.d2_columns]))
        return ok

    monkeypatch.setattr(_Complex, "spaces", solving)
    monkeypatch.setattr(_Complex, "is_cocycle", recording)
    classes = classify_extensions(a4, rep)
    [(solver, z2_rows)] = solved
    z2_columns = _transpose(z2_rows, 4 * 4 * 4)
    assert gated and all(cx is solver and rows == z2_rows and columns == z2_columns
                         for cx, rows, columns in gated)
    assert [theta for theta, _ in classes] == list(cohomology_spaces(a4, rep).h2_representatives)
    assert len(classes) == 11
    assert [ext for _, ext in classes] == [build_extension(a4, rep, theta) for theta, _ in classes]


@pytest.mark.parametrize("call", ["extension_table", "is_cocycle"])
@pytest.mark.parametrize("table_p, theta_p", [(None, 3), (3, None), (3, 5)], ids=["Q-F3", "F3-Q", "F3-F5"])
def test_a_cochain_over_another_field_is_refused(call, table_p, theta_p):
    """extension_table refuses theta over another field than the pair, as
    the cocycle gate does, instead of returning a table that holds scalars
    of both fields."""
    def field(p):
        return QQ if p is None else PrimeField(p)

    table = MultTable.from_dict(field(table_p), 2, {(0, 1, 1): 1})
    rep = regular_representation(AntiPreLieAlgebra.verify(table))
    theta = Cochain2.zero(field(theta_p), 2, 2)
    run = {"extension_table": extension_table, "is_cocycle": is_cocycle}[call]
    message = f"cochain is over {field(theta_p)}, the table over {table.field}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run(table, rep, theta)
