"""The public surface of the package, pinned.

A change that adds, drops or renames a public name, or reshapes the fields
of a public dataclass, shows up here as a one-line diff.
"""

import dataclasses

import antiprelie

PUBLIC_NAMES = [
    "AbelianExtension", "AntiLDendriform", "AntiPreLieAlgebra", "Cochain2", "CohomologySpaces",
    "Field", "Fp", "LieRepresentation", "LieTable", "Matrix", "MultTable", "PrimeField", "QQ",
    "Rationals", "Report", "Representation", "RigidityCertificate", "Scalar", "SearchRefused",
    "SearchSpaceTooLarge", "SearchSpec", "StructureError", "Tensor3", "TruncatedDeformation",
    "TruncatedIsomorphism", "Vec", "Violation", "algebra", "apply_isomorphism", "are_isomorphic",
    "associated_anti_pre_lie", "build_extension", "check_O_operator", "check_anti_L_dendriform",
    "check_anti_pre_lie", "check_deformation", "check_form_invariance",
    "check_lie_representation", "check_lie_table", "check_morphism", "check_representation",
    "classify_extensions", "cohomologous", "cohomology", "cohomology_spaces", "commutator_table",
    "compatible_from_invertible_O", "compose_isomorphisms", "d1", "d1_matrix", "d2_matrix",
    "deformation", "dendriform", "dendriform_from_bilinear_form", "dual_representation",
    "extension", "extension_table", "extract_cocycle", "fields", "form_sharp",
    "induced_dendriform", "infinitesimal", "inverse_isomorphism", "invert", "is_O_operator",
    "is_anti_L_dendriform", "is_anti_pre_lie", "is_cocycle", "is_deformation",
    "is_representation", "kernel_basis", "left_mult_representation", "lift_matrix",
    "lift_representation", "lift_table", "linalg", "normalize_extension", "rank",
    "rational_algebra_corpus", "regular_representation", "representation",
    "rigidity_certificate", "search", "search_algebras", "search_bilinear_forms",
    "search_o_operators", "search_representations", "semidirect_extension",
    "semidirect_product", "solve", "space_size", "special_condition_report", "sub_adjacent_lie",
    "sub_adjacent_representation", "trivialize_step", "verify_deformation",
    "verify_representation",
]

DATACLASS_FIELDS = {
    "AbelianExtension": ("total", "dim_a", "dim_v"),
    "AntiLDendriform": ("right", "left"),
    "AntiPreLieAlgebra": ("table",),
    "Cochain2": ("tensor",),
    "CohomologySpaces": ("z2_basis", "b2_basis", "h2_dim", "h2_representatives"),
    "LieRepresentation": ("dim_v", "action"),
    "LieTable": ("tensor",),
    "Matrix": ("field", "rows", "cols", "entries"),
    "MultTable": ("tensor",),
    "PrimeField": ("p",),
    "Rationals": (),
    "Report": ("subject", "violations"),
    "Representation": ("dim_a", "dim_v", "rho", "mu", "scalars"),
    "RigidityCertificate": ("h2_dim", "order", "eliminations"),
    "SearchSpec": ("kind", "dim", "p", "dim_v", "exhaustive", "samples", "max_results", "seed"),
    "Tensor3": ("field", "dims", "entries"),
    "TruncatedDeformation": ("base", "terms"),
    "TruncatedIsomorphism": ("phis",),
    "Violation": ("law", "at", "residual"),
}


def test_public_names():
    assert sorted(antiprelie.__all__) == PUBLIC_NAMES


def test_public_dataclass_fields():
    found = {
        name: tuple(f.name for f in dataclasses.fields(obj))
        for name in antiprelie.__all__
        if isinstance(obj := getattr(antiprelie, name), type) and dataclasses.is_dataclass(obj)
    }
    assert found == DATACLASS_FIELDS
