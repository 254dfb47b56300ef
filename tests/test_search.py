import pytest

from antiprelie.algebra import is_anti_pre_lie
from antiprelie.dendriform import check_form_invariance, is_O_operator
from antiprelie.documents import encode_representation
from antiprelie.fields import QQ, PrimeField
from antiprelie.representation import Representation, is_representation
from antiprelie.search import (
    SearchSpec,
    SearchSpaceTooLarge,
    lift_representation,
    lift_table,
    search_algebras,
    search_bilinear_forms,
    search_o_operators,
    search_representations,
    space_size,
)

from conftest import fp_table
from oracles import naive_apl_residuals


def test_space_sizes():
    assert space_size(SearchSpec(kind="algebra", dim=2, p=2)) == 256
    assert space_size(SearchSpec(kind="algebra", dim=2, p=3)) == 6561
    assert space_size(SearchSpec(kind="o-operator", dim=2, p=3, dim_v=2)) == 81
    assert space_size(SearchSpec(kind="bilinear-form", dim=2, p=5)) == 5**4
    assert space_size(SearchSpec(kind="representation", dim=2, p=3, dim_v=1)) == 3**4


def test_dim1_p2_all_tables_pass():
    found = search_algebras(SearchSpec(kind="algebra", dim=1, p=2))
    assert len(found) == 2


def test_dim2_p2_frozen_count():
    """Frozen after the first verified run; every hit is re-checked here with
    the naive oracle so the count cannot drift silently."""
    found = search_algebras(SearchSpec(kind="algebra", dim=2, p=2))
    assert len(found) == 58
    for table in found:
        assert naive_apl_residuals(table) == {}


def test_exhaustive_refusal_reports_size():
    spec = SearchSpec(kind="algebra", dim=3, p=3)
    with pytest.raises(SearchSpaceTooLarge) as exc:
        search_algebras(spec)
    assert exc.value.size == 3**27


def test_bounded_random_is_deterministic():
    spec = SearchSpec(kind="algebra", dim=3, p=3, exhaustive=False, samples=300, seed=5)
    first = search_algebras(spec)
    second = search_algebras(spec)
    assert [t.tensor.entries for t in first] == [t.tensor.entries for t in second]
    for t in first:
        assert is_anti_pre_lie(t)


def test_max_results_truncates():
    found = search_algebras(SearchSpec(kind="algebra", dim=2, p=2, max_results=5))
    assert len(found) == 5


def test_searched_representations_verify(f3_algebras):
    table = f3_algebras["a2@3"]
    found = search_representations(SearchSpec(kind="representation", dim=2, p=3, dim_v=1), table)
    assert found
    for rep in found:
        assert is_representation(table, rep)


def test_searched_o_operators_verify(f3_algebras):
    table = f3_algebras["a2@3"]
    reg = Representation(2, 2, table.left_matrices, table.right_matrices)
    found = search_o_operators(SearchSpec(kind="o-operator", dim=2, p=3, dim_v=2), table, reg)
    assert found
    for t in found:
        assert is_O_operator(table, reg, t)


def test_searched_forms_verify(f5_form_instances):
    for name, table, b in f5_form_instances:
        assert check_form_invariance(table, b).ok, name


def test_lift_centers_residues():
    table = fp_table(5, 1, {(0, 0, 0): 4})
    lifted = lift_table(table)
    assert int(lifted.tensor.entries[0][0][0]) == -1


def test_rational_corpus_counts(lifted_algebras):
    """217 of the 273 F3-verified dim-2 tables stay verified over Q after the
    centered lift; frozen from the first verified run."""
    assert len(lifted_algebras) == 217
    for t in lifted_algebras[::20]:
        assert naive_apl_residuals(t) == {}


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        space_size(SearchSpec(kind="magic", dim=2, p=3))


def test_sampled_space_bound_is_exact():
    """2**14284 has 4300 digits and is reported; 2**14285 has 4301 and is refused."""
    size = space_size(SearchSpec(kind="o-operator", dim=14284, p=2, dim_v=1, exhaustive=False))
    assert size == 2**14284 and len(str(size)) == 4300
    with pytest.raises(SearchSpaceTooLarge):
        space_size(SearchSpec(kind="o-operator", dim=14285, p=2, dim_v=1, exhaustive=False))


def test_lift_representation_keeps_field_at_dim_0():
    lifted = lift_representation(Representation.zero(PrimeField(3), 0, 1))
    assert lifted.field == QQ
    assert encode_representation(lifted)["field"] == {"type": "rational"}


@pytest.mark.parametrize("kind", ["algebra", "representation", "o-operator", "bilinear-form"])
def test_search_refuses_a_spec_of_another_kind(kind, f3_algebras):
    """Each search runs only the kind its spec names: a bilinear-form spec
    handed to search_algebras used to scan tables anyway, against a
    space_size of forms."""
    table = f3_algebras["a2@3"]
    reg = Representation(2, 2, table.left_matrices, table.right_matrices)
    spec = SearchSpec(kind=kind, dim=2, p=3, dim_v=2)
    searches = {
        "algebra": lambda: search_algebras(spec),
        "representation": lambda: search_representations(spec, table),
        "o-operator": lambda: search_o_operators(spec, table, reg),
        "bilinear-form": lambda: search_bilinear_forms(spec, table),
    }
    for other, search in searches.items():
        if other != kind:
            with pytest.raises(ValueError, match=f"cannot drive a '{other}' search"):
                search()
