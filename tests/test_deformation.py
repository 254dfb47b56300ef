import random

import pytest

from antiprelie.algebra import AntiPreLieAlgebra, MultTable, StructureError
from antiprelie.cohomology import (
    Cochain2,
    cochain2_to_vec,
    cohomology_spaces,
    d1,
    is_cocycle,
)
from antiprelie.deformation import (
    TruncatedDeformation,
    TruncatedIsomorphism,
    apply_isomorphism,
    check_deformation,
    compose_isomorphisms,
    infinitesimal,
    inverse_isomorphism,
    is_deformation,
    rigidity_certificate,
    trivialize_step,
)
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import Matrix
from antiprelie.representation import regular_representation

from conftest import rand_matrix, rand_table
from oracles import naive_deformation_residuals


def rand_iso(rng, n, order):
    return TruncatedIsomorphism(tuple(rand_matrix(rng, n, n) for _ in range(order)))


def iso_deformed(alg, rng, order):
    """A verified deformation: the trivial one pulled back along a random
    truncated isomorphism."""
    return apply_isomorphism(TruncatedDeformation.trivial(alg, order), rand_iso(rng, alg.dim, order))


@pytest.fixture(scope="module")
def q_deformations(corpus_algebras, named_algebras):
    rng = random.Random(101)
    out = []
    for name in ("a2", "comm2", "rigid2", "idem2", "lift0"):
        alg = corpus_algebras[name]
        out.append((f"{name}/trivial", TruncatedDeformation.trivial(alg, 3)))
        for k in range(2):
            out.append((f"{name}/iso{k}", iso_deformed(alg, rng, 3)))
    z2 = named_algebras["zero2"]
    a2 = named_algebras["a2"]
    out.append((
        "zero-base/a2-term",
        TruncatedDeformation(z2, (a2.table, MultTable.zero(QQ, 2), MultTable.zero(QQ, 2))),
    ))
    reps = cohomology_spaces(a2, regular_representation(a2)).h2_representatives
    for k, rep_cochain in enumerate(reps):
        out.append((
            f"a2/cocycle{k}-order1",
            TruncatedDeformation(a2, (rep_cochain.as_table(),)),
        ))
    return out


def test_all_zero_terms_pass(corpus_algebras):
    for name, alg in corpus_algebras.items():
        assert check_deformation(TruncatedDeformation.trivial(alg, 3)).ok, name


def test_zero_base_a2_term_passes(named_algebras):
    """Degree-1 sums vanish over a zero base; degree-2 sums reduce to the two
    structure laws of the term itself; degree 3 is empty."""
    z2 = named_algebras["zero2"]
    a2 = named_algebras["a2"]
    zero = MultTable.zero(QQ, 2)
    d = TruncatedDeformation(z2, (a2.table, zero, zero))
    assert check_deformation(d).ok


def test_zero_base_bad_term_fails_at_degree_two(named_algebras, abar2_table):
    z2 = named_algebras["zero2"]
    zero = MultTable.zero(QQ, 2)
    d = TruncatedDeformation(z2, (abar2_table, zero, zero))
    report = check_deformation(d)
    assert not report.ok
    assert {v.at[0] for v in report.violations} == {2}


def test_corpus_deformations_verify(q_deformations):
    for name, d in q_deformations:
        assert is_deformation(d), name


def test_deformation_matches_naive_oracle(q_deformations):
    rng = random.Random(7)
    for name, d in q_deformations[:6]:
        report = check_deformation(d)
        got = {(v.law, *v.at): v.residual for v in report.violations}
        assert got == naive_deformation_residuals(d), name
    for _ in range(15):
        base_table = rand_table(rng, 2)
        try:
            base = AntiPreLieAlgebra.verify(base_table)
        except StructureError:
            base = AntiPreLieAlgebra.verify(MultTable.zero(QQ, 2))
        d = TruncatedDeformation(base, tuple(rand_table(rng, 2) for _ in range(2)))
        report = check_deformation(d)
        got = {(v.law, *v.at): v.residual for v in report.violations}
        assert got == naive_deformation_residuals(d)


def test_infinitesimal_is_cocycle(q_deformations):
    for name, d in q_deformations:
        w1 = infinitesimal(d)
        assert is_cocycle(d.base, regular_representation(d.base), w1), name


def test_infinitesimal_rejects_corrupt_deformation(named_algebras):
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    bad_term = None
    for i in range(2):
        for j in range(2):
            for k in range(2):
                cand = MultTable.from_dict(QQ, 2, {(i, j, k): 1})
                if not is_cocycle(a2, reg, Cochain2.from_table(cand)):
                    bad_term = cand
                    break
            if bad_term:
                break
        if bad_term:
            break
    assert bad_term is not None
    with pytest.raises(StructureError):
        infinitesimal(TruncatedDeformation(a2, (bad_term,)))


def test_identity_iso_fixes_deformation(q_deformations):
    for name, d in q_deformations[:5]:
        out = apply_isomorphism(d, TruncatedIsomorphism.identity(QQ, d.dim, d.order))
        assert all(a.tensor == b.tensor for a, b in zip(out.terms, d.terms)), name


def test_apply_iso_preserves_verification_and_shifts_w1(q_deformations):
    rng = random.Random(55)
    reg_cache = {}
    for name, d in q_deformations:
        iso = rand_iso(rng, d.dim, d.order)
        out = apply_isomorphism(d, iso)
        assert is_deformation(out), name
        key = id(d.base)
        if key not in reg_cache:
            reg_cache[key] = regular_representation(d.base)
        reg = reg_cache[key]
        shift = infinitesimal_diff(d, out)
        expected = d1(d.base, reg, iso.phis[0]) if iso.phis else None
        assert cochain2_to_vec(shift) == cochain2_to_vec(expected), name


def infinitesimal_diff(before, after):
    return Cochain2(after.terms[0].tensor - before.terms[0].tensor)


def test_iso_inverse_round_trip(q_deformations):
    rng = random.Random(77)
    for name, d in q_deformations[:6]:
        iso = rand_iso(rng, d.dim, d.order)
        inv = inverse_isomorphism(iso, QQ, d.dim, d.order)
        back = apply_isomorphism(apply_isomorphism(d, iso), inv)
        assert all(a.tensor == b.tensor for a, b in zip(back.terms, d.terms)), name


def test_sequential_pullback_equals_composite(q_deformations):
    rng = random.Random(79)
    for name, d in q_deformations[:6]:
        a = rand_iso(rng, d.dim, d.order)
        b = rand_iso(rng, d.dim, d.order)
        sequential = apply_isomorphism(apply_isomorphism(d, a), b)
        composite = apply_isomorphism(d, compose_isomorphisms(a, b, QQ, d.dim, d.order))
        assert all(x.tensor == y.tensor for x, y in zip(sequential.terms, composite.terms)), name


@pytest.mark.parametrize("use", [
    lambda d, iso: apply_isomorphism(d, iso),
    lambda d, iso: inverse_isomorphism(iso, d.field, d.dim, d.order),
    lambda d, iso: compose_isomorphisms(iso, iso, d.field, d.dim, d.order),
    lambda d, iso: compose_isomorphisms(TruncatedIsomorphism(()), iso, d.field, d.dim, d.order),
], ids=["apply", "inverse", "compose-outer", "compose-inner"])
@pytest.mark.parametrize("part, message", [
    (Matrix.zero(QQ, 3, 3), "isomorphism degree parts are 3x3, need 2x2"),
    (Matrix.identity(QQ, 3), "isomorphism degree parts are 3x3, need 2x2"),
    (Matrix.identity(PrimeField(3), 2), "isomorphism is over PrimeField"),
], ids=["zero-3x3", "unit-3x3", "f3"])
def test_isomorphism_that_does_not_fit_the_deformation_is_refused(named_algebras, use, part, message):
    d = TruncatedDeformation.trivial(named_algebras["a2"], 2)
    with pytest.raises(ValueError, match=message):
        use(d, TruncatedIsomorphism((part,)))


def test_apply_iso_pads_and_truncates_orders(named_algebras):
    rng = random.Random(81)
    a2 = named_algebras["a2"]
    d = TruncatedDeformation.trivial(a2, 3)
    short = rand_iso(rng, 2, 1)
    out_short = apply_isomorphism(d, short)
    assert out_short.order == 3
    long = TruncatedIsomorphism(short.phis + (rand_matrix(rng, 2, 2),) * 4)
    out_long = apply_isomorphism(d, TruncatedIsomorphism(long.phis[:3]))
    padded = apply_isomorphism(d, long)
    assert all(x.tensor == y.tensor for x, y in zip(out_long.terms, padded.terms))


def test_trivial_deformation_of_coboundary_round_trip(named_algebras):
    rng = random.Random(88)
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    for n in (1, 2, 3):
        phi = rand_matrix(rng, 2, 2)
        w_n = MultTable(d1(a2, reg, -phi).tensor)
        terms = [MultTable.zero(QQ, 2)] * n
        terms[n - 1] = w_n
        d = TruncatedDeformation(a2, tuple(terms))
        assert is_deformation(d)
        step = trivialize_step(d, n)
        assert step is not None
        phi_n, out = step
        assert all(out.terms[k].tensor.is_zero() for k in range(n))
        assert is_deformation(out)


def test_trivialize_zero_term_returns_zero_phi(named_algebras):
    a2 = named_algebras["a2"]
    d = TruncatedDeformation.trivial(a2, 2)
    phi, out = trivialize_step(d, 1)
    assert phi.is_zero()
    assert all(t.tensor.is_zero() for t in out.terms)


def test_trivialize_absent_when_not_exact(named_algebras):
    z2 = named_algebras["zero2"]
    a2 = named_algebras["a2"]
    d = TruncatedDeformation(z2, (a2.table,))
    assert trivialize_step(d, 1) is None


def test_trivialize_precondition_enforced(named_algebras):
    a2 = named_algebras["a2"]
    rng = random.Random(5)
    d = iso_deformed(a2, rng, 3)
    while d.terms[0].tensor.is_zero():
        d = iso_deformed(a2, rng, 3)
    with pytest.raises(StructureError):
        trivialize_step(d, 2)


def test_rigidity_on_h2_zero_instances(corpus_algebras):
    rng = random.Random(202)
    for name in ("idem1", "rigid2"):
        alg = corpus_algebras[name]
        samples = [iso_deformed(alg, rng, 3) for _ in range(4)]
        samples.append(TruncatedDeformation.trivial(alg, 3))
        cert = rigidity_certificate(alg, samples, 3)
        assert cert.h2_dim == 0, name
        assert cert.rigid_verified, name
        assert all(len(run) == 3 for run in cert.eliminations), name


def test_rigidity_reports_nonzero_h2(named_algebras):
    cert = rigidity_certificate(named_algebras["zero2"], [], 3)
    assert cert.h2_dim == 8
    assert not cert.rigid_verified
    assert cert.eliminations is None


@pytest.mark.parametrize("other", ["comm2", "a2@3"])
def test_rigidity_refuses_a_sample_of_another_base_before_h2(named_algebras, f3_algebras, other):
    """a2 has H2 of dim 2 over its regular representation: a sample of
    another base, or of a2 over F_3, is refused, not reported with that H2."""
    a2 = named_algebras["a2"]
    base = named_algebras.get(other) or AntiPreLieAlgebra.verify(f3_algebras.get(other))
    samples = [TruncatedDeformation.trivial(a2, 2), TruncatedDeformation.trivial(base, 2)]
    with pytest.raises(ValueError, match="sample deformation has a different base algebra"):
        rigidity_certificate(a2, samples, 2)
    assert rigidity_certificate(a2, samples[:1], 2).h2_dim == 2


def test_rigidity_vacuous_at_order_zero(named_algebras):
    alg = named_algebras["rigid2"]
    cert = rigidity_certificate(alg, [TruncatedDeformation.trivial(alg, 0)], 0)
    assert cert.rigid_verified
    assert cert.eliminations == ((),)
