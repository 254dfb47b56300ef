"""The backtracking prime-field search against the brute-force scan.

Every exhaustive spec of the four kinds whose space has at most 3**8
candidates, over F_2, F_3 and F_5, must give exactly the hits of the plain
lexicographic loop in `oracles.brute_force_search`, in the same order, for
max_results None, 0, 1 and 5; no leaf the backtracker reaches may fail the
exact check; and the constraints derived by polarization must equal the
residual coordinates of the kind's check_* report on any full assignment.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie import search
from antiprelie.algebra import MultTable, check_anti_pre_lie
from antiprelie.dendriform import check_form_invariance, check_O_operator
from antiprelie.fields import PrimeField
from antiprelie.representation import check_representation, regular_representation
from antiprelie.search import (
    MAX_EXHAUSTIVE,
    SearchRefused,
    SearchSpec,
    search_algebras,
    search_bilinear_forms,
    search_o_operators,
    search_representations,
    space_size,
)

from oracles import brute_force_search, nonzero_residual_entries, residual_entry, search_kind

PRIMES = (2, 3, 5)
LIMIT = 3**8
MAX_RESULTS = (None, 0, 1, 5)
# The named tables of the conftest corpus, entered over each prime.
NAMED = {
    "zero1": (1, {}),
    "idem1": (1, {(0, 0, 0): 1}),
    "zero2": (2, {}),
    "a2": (2, {(0, 1, 1): 1}),
    "comm2": (2, {(0, 0, 1): 1}),
    "idem2": (2, {(0, 0, 0): 1}),
    "rigid2": (2, {(0, 1, 1): 1, (1, 1, 0): 1}),
    "zero3": (3, {}),
    "fat3": (3, {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): 1}),
}


def _contexts(p, f3_algebras):
    """(name, table) over F_p: the named tables, and for p = 3 the searched
    dim-2 tables of the conftest corpus."""
    out = [(name, MultTable.from_dict(PrimeField(p), n, nonzero))
           for name, (n, nonzero) in NAMED.items()]
    if p == 3:
        out += [(name, t) for name, t in f3_algebras.items() if name.startswith("search")]
    return out


def _specs(kind, p, f3_algebras):
    """(label, spec, table, rep, strict_skew) for every exhaustive spec of the
    kind over F_p with at most LIMIT candidates."""
    if kind == "algebra":
        for n in range(4):
            yield f"d{n}", SearchSpec(kind, n, p), None, None, False
        return
    for name, table in _contexts(p, f3_algebras):
        n = table.dim
        if kind == "representation":
            for m in range(3):
                yield f"{name}/m{m}", SearchSpec(kind, n, p, dim_v=m), table, None, False
        elif kind == "o-operator":
            rep = regular_representation(table)
            yield f"{name}/regular", SearchSpec(kind, n, p, dim_v=n), table, rep, False
        else:
            for skew in (False, True):
                yield f"{name}/skew{int(skew)}", SearchSpec(kind, n, p), table, None, skew


def _run(spec, table, rep, skew):
    if spec.kind == "algebra":
        return search_algebras(spec)
    if spec.kind == "representation":
        return search_representations(spec, table)
    if spec.kind == "o-operator":
        return search_o_operators(spec, table, rep)
    return search_bilinear_forms(spec, table, strict_skew=skew)


def _with_limit(spec, limit):
    return SearchSpec(spec.kind, spec.dim, spec.p, spec.dim_v, max_results=limit)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("kind", ["algebra", "representation", "o-operator", "bilinear-form"])
def test_backtracker_equals_brute_force(kind, p, f3_algebras, monkeypatch):
    """Same hits in the same order as the lexicographic scan, and every leaf
    the backtracker reaches passes the exact check, up to the nondegeneracy
    of a form, which only the leaf check decides."""
    rejected = []
    current = {}
    scan, backtrack = search._scan, search._backtrack

    def recording_scan(spec, n_cells, build, check):
        current.update(build=build, check=check)
        return scan(spec, n_cells, build, check)

    def checked_backtrack(p, n_cells, groups):
        for cells in backtrack(p, n_cells, groups):
            report = current["check"](current["build"](cells))
            rejected.extend(v.law for v in report.violations)
            yield cells

    monkeypatch.setattr(search, "_scan", recording_scan)
    monkeypatch.setattr(search, "_backtrack", checked_backtrack)
    checked = 0
    for label, spec, table, rep, skew in _specs(kind, p, f3_algebras):
        if spec.p ** search_kind(spec, table, rep, skew)[0] > LIMIT:
            continue
        expected = brute_force_search(spec, table, rep, skew)
        for limit in MAX_RESULTS:
            found = _run(_with_limit(spec, limit), table, rep, skew)
            assert found == expected[:limit], (label, limit)
        assert set(rejected) <= {"form-degenerate"}, label
        checked += 1
    assert checked >= 2


def test_brute_force_honours_max_results():
    """The oracle's own truncation, which the comparison above relies on."""
    full = brute_force_search(SearchSpec("algebra", 2, 2))
    for limit in MAX_RESULTS:
        assert brute_force_search(SearchSpec("algebra", 2, 2, max_results=limit)) == full[:limit]


def _check_of(spec, table, rep, skew):
    if spec.kind == "algebra":
        return check_anti_pre_lie
    if spec.kind == "representation":
        return lambda r: check_representation(table, r)
    if spec.kind == "o-operator":
        return lambda t: check_O_operator(table, rep, t)
    return lambda b: check_form_invariance(table, b, strict_skew=skew)


def _polynomial_cases():
    """(spec, table, rep, strict_skew) covering each kind over each prime,
    with spaces too large to scan by brute force among them."""
    cases = []
    for p in PRIMES:
        field = PrimeField(p)
        a2 = MultTable.from_dict(field, 2, {(0, 1, 1): 1})
        fat3 = MultTable.from_dict(field, 3, {(0, 0, 0): 1, (0, 0, 1): 1, (0, 0, 2): 1})
        cases.append((SearchSpec("algebra", 2, p), None, None, False))
        cases.append((SearchSpec("representation", 2, p, dim_v=2), a2, None, False))
        cases.append((SearchSpec("o-operator", 3, p, dim_v=3), fat3,
                      regular_representation(fat3), False))
        for table in (a2, fat3):
            for skew in (False, True):
                cases.append((SearchSpec("bilinear-form", table.dim, p), table, None, skew))
    return cases


CASES = _polynomial_cases()


@lru_cache(maxsize=None)
def _derived(index):
    spec, table, rep, skew = CASES[index]
    cells, build, _ = search_kind(spec, table, rep, skew)
    check = _check_of(spec, table, rep, skew)
    polys = search.polarize(lambda x: search._coordinates(check(build(x))), cells, spec.p)
    return cells, build, check, polys


@st.composite
def assignments(draw):
    index = draw(st.integers(0, len(CASES) - 1))
    p = CASES[index][0].p
    cells = _derived(index)[0]
    return index, tuple(draw(st.lists(st.integers(0, p - 1), min_size=cells, max_size=cells)))


@settings(max_examples=120, deadline=None)
@given(assignments())
def test_polarized_components_equal_check_residuals(case):
    """Each derived polynomial, evaluated at a full assignment, is the residue
    the kind's check reports at its coordinate (zero where none is reported),
    and the check reports no nonzero residue that no polynomial gives."""
    index, x = case
    p = CASES[index][0].p
    _, build, check, polys = _derived(index)
    report = check(build(x))
    nonzero = 0
    for key, poly in polys.items():
        acc = 0
        for monomial, coef in poly.items():
            term = coef
            for a in monomial:
                term *= x[a]
            acc += term
        assert acc % p == residual_entry(report, key), key
        nonzero += acc % p != 0
    assert nonzero == nonzero_residual_entries(report)


def test_nonzero_constant_component_means_no_hits():
    """A coordinate that is a nonzero constant fails on every assignment, so
    the constraints are refused as a whole rather than grouped by cell."""
    polys = {("law", (), 0): {(): 1}, ("law", (), 1): {(0,): 1}}
    assert search._constraints(polys, 1) is None


def test_search_spec_rejects_negative_arguments():
    for field in ("dim", "dim_v", "samples", "max_results"):
        with pytest.raises(ValueError, match=field):
            SearchSpec("algebra", **{"dim": 1, "p": 2, field: -1})


def test_max_results_zero_is_empty():
    assert search_algebras(SearchSpec("algebra", 1, 2, max_results=0)) == []
    spec = SearchSpec("algebra", 1, 2, exhaustive=False, samples=10, max_results=0)
    assert search_algebras(spec) == []


def test_sampled_search_refuses_too_many_draws():
    spec = SearchSpec("algebra", 1, 2, exhaustive=False, samples=MAX_EXHAUSTIVE + 1)
    with pytest.raises(SearchRefused):
        space_size(spec)
    with pytest.raises(SearchRefused):
        search_algebras(spec)
    assert space_size(SearchSpec("algebra", 1, 2, exhaustive=False, samples=MAX_EXHAUSTIVE)) == 2
