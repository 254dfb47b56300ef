"""Shared corpus of verified instances, over Q and over small prime fields.

The named rational algebras are hand-entered tables whose verification the
tests re-run; everything else comes out of the exhaustive prime-field search
(lifted to Q and re-verified where rational instances are needed), so every
expected value in the suite traces back to a computation.
"""

import random
from fractions import Fraction

import pytest

from antiprelie.algebra import AntiPreLieAlgebra, MultTable
from antiprelie.fields import QQ, PrimeField
from antiprelie.linalg import Matrix
from antiprelie.representation import (
    Representation,
    dual_representation,
    regular_representation,
    semidirect_product,
)
from antiprelie.search import (
    SearchSpec,
    lift_representation,
    rational_algebra_corpus,
    search_algebras,
    search_bilinear_forms,
    search_representations,
)


def rand_fraction(rng: random.Random, span: int = 4, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_matrix(rng: random.Random, rows: int, cols: int, span: int = 4) -> Matrix:
    return Matrix.from_rows(
        QQ, [[rand_fraction(rng, span) for _ in range(cols)] for _ in range(rows)]
    )


def rand_table(rng: random.Random, n: int, span: int = 3) -> MultTable:
    return MultTable.from_entries(
        QQ,
        [
            [[rand_fraction(rng, span) for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ],
    )


def q_table(n: int, nonzero: dict) -> MultTable:
    return MultTable.from_dict(QQ, n, nonzero)


def fp_table(p: int, n: int, nonzero: dict) -> MultTable:
    return MultTable.from_dict(PrimeField(p), n, nonzero)


def bump_table(t: MultTable, i: int, j: int, k: int) -> MultTable:
    """The table with entry [i][j][k] increased by one."""
    ent = [[list(f) for f in plane] for plane in t.tensor.entries]
    ent[i][j][k] += t.field.one()
    return MultTable.from_entries(t.field, ent)


def bump_matrix(m: Matrix, r: int, c: int) -> Matrix:
    """The matrix with entry [r][c] increased by one."""
    rows = [list(row) for row in m.entries]
    rows[r][c] += m.field.one()
    return Matrix.from_rows(m.field, rows)


@pytest.fixture(scope="session")
def named_algebras():
    """Hand-entered rational algebras, each verified on construction.

    a2 is the table with e0.e1 = e1 (nonabelian bracket); abar2 is its
    transpose, which fails the checks and is kept as a raw table; comm2 and
    idem* are commutative associative; rigid2 is a search-found dim-2 table
    with vanishing second cohomology over the regular representation; fat3
    (e0.e0 = e0+e1+e2, found by the sampled dim-3 search) is a dim-3 table
    that is not a block sum.
    """
    return {
        "zero1": AntiPreLieAlgebra.verify(MultTable.zero(QQ, 1)),
        "zero2": AntiPreLieAlgebra.verify(MultTable.zero(QQ, 2)),
        "zero3": AntiPreLieAlgebra.verify(MultTable.zero(QQ, 3)),
        "a2": AntiPreLieAlgebra.verify(q_table(2, {(0, 1, 1): 1})),
        "comm2": AntiPreLieAlgebra.verify(q_table(2, {(0, 0, 1): 1})),
        "idem1": AntiPreLieAlgebra.verify(q_table(1, {(0, 0, 0): 1})),
        "idem2": AntiPreLieAlgebra.verify(q_table(2, {(0, 0, 0): 1})),
        "rigid2": AntiPreLieAlgebra.verify(q_table(2, {(0, 1, 1): 1, (1, 1, 0): 1})),
        "fat3": AntiPreLieAlgebra.verify(
            q_table(3, {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): 1})
        ),
    }


@pytest.fixture(scope="session")
def abar2_table():
    """e1.e0 = e1: the transposed table that fails the anti-pre-Lie laws."""
    return q_table(2, {(1, 0, 1): 1})


@pytest.fixture(scope="session")
def lifted_algebras():
    """Rational lifts of the exhaustive dim-2 F3 search, re-verified over Q."""
    return rational_algebra_corpus(2, p=3)


@pytest.fixture(scope="session")
def corpus_algebras(named_algebras, lifted_algebras):
    """Names plus a deterministic slice of lifted tables and two semidirects."""
    out = dict(named_algebras)
    picks = [10, 40, 90, 150, 200]
    for rank, idx in enumerate(picks):
        out[f"lift{rank}"] = AntiPreLieAlgebra.verify(lifted_algebras[idx])
    a2 = named_algebras["a2"]
    out["sd_a2_reg"] = semidirect_product(a2, regular_representation(a2))
    out["sd_a2_triv"] = semidirect_product(a2, Representation.zero(QQ, 2, 1))
    return out


@pytest.fixture(scope="session")
def corpus_pairs(corpus_algebras):
    """(name, algebra, representation) with every representation verified.

    Regular and dual-regular pairs for each corpus algebra, zero coefficients
    in two sizes for the small ones, and searched-and-lifted rank-1 actions
    for a2 and comm2.
    """
    pairs = []
    for name, alg in corpus_algebras.items():
        reg = regular_representation(alg)
        pairs.append((f"{name}/regular", alg, reg))
        pairs.append((f"{name}/dual", alg, dual_representation(reg)))
    for name in ("zero2", "a2", "comm2", "idem2"):
        alg = corpus_algebras[name]
        pairs.append((f"{name}/zero-m1", alg, Representation.zero(QQ, 2, 1)))
        pairs.append((f"{name}/zero-m2", alg, Representation.zero(QQ, 2, 2)))
    from antiprelie.representation import is_representation

    for name in ("a2", "comm2"):
        alg = corpus_algebras[name]
        table3 = fp_table(3, 2, _nonzero_of(alg.table))
        found = search_representations(
            SearchSpec(kind="representation", dim=2, p=3, dim_v=1), table3
        )
        kept = 0
        for rep in found:
            lifted = lift_representation(rep)
            if is_representation(alg.table, lifted):
                pairs.append((f"{name}/searched-m1-{kept}", alg, lifted))
                kept += 1
            if kept == 2:
                break
    return pairs


def _nonzero_of(table: MultTable) -> dict:
    n = table.dim
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x = table.tensor.entries[i][j][k]
                if x:
                    out[(i, j, k)] = int(x)
    return out


@pytest.fixture(scope="session")
def f3_algebras():
    """Dim-2 tables over F3: the named ones re-entered mod 3 plus the first
    verified tables from the exhaustive search."""
    named = {
        "zero2@3": MultTable.zero(PrimeField(3), 2),
        "a2@3": fp_table(3, 2, {(0, 1, 1): 1}),
        "comm2@3": fp_table(3, 2, {(0, 0, 1): 1}),
        "idem2@3": fp_table(3, 2, {(0, 0, 0): 1}),
    }
    searched = search_algebras(SearchSpec(kind="algebra", dim=2, p=3, max_results=40))
    known = {t.tensor.entries for t in named.values()}
    rank = 0
    for t in searched:
        if t.tensor.entries not in known and rank < 4:
            named[f"search{rank}@3"] = t
            known.add(t.tensor.entries)
            rank += 1
    return named


@pytest.fixture(scope="session")
def f5_form_instances():
    """(name, algebra, form) over F5 from the exhaustive dim-2 form search."""
    tables = {
        "zero2@5": MultTable.zero(PrimeField(5), 2),
        "a2@5": fp_table(5, 2, {(0, 1, 1): 1}),
        "comm2@5": fp_table(5, 2, {(0, 0, 1): 1}),
        "idem2@5": fp_table(5, 2, {(0, 0, 0): 1}),
    }
    out = []
    for name, table in tables.items():
        forms = search_bilinear_forms(SearchSpec(kind="bilinear-form", dim=2, p=5), table)
        for k, b in enumerate(forms[:6]):
            out.append((f"{name}/form{k}", table, b))
    return out
