"""Exact-arithmetic workbench for finite-dimensional anti-pre-Lie algebras.

The public names load on demand (PEP 562): importing the package loads no
submodule, and a name is looked up on its home module each time it is read
here, so a command loads only the modules it uses.  Nothing is cached in the
package namespace, so a wrapper installed on a home module (a profiler, a
span tracer) is what the package hands out.
"""

import importlib

# Home module -> the public names it defines.
_EXPORTS = {
    "fields": ("Field", "Fp", "PrimeField", "QQ", "Rationals", "Scalar"),
    "linalg": ("Matrix", "Tensor3", "Vec", "invert", "kernel_basis", "rank", "solve"),
    "algebra": (
        "AntiPreLieAlgebra", "LieTable", "MultTable", "Report", "StructureError", "Violation",
        "check_anti_pre_lie", "check_lie_table", "check_morphism", "commutator_table",
        "is_anti_pre_lie", "sub_adjacent_lie",
    ),
    "representation": (
        "LieRepresentation", "Representation", "check_lie_representation",
        "check_representation", "dual_representation", "is_representation",
        "regular_representation", "semidirect_product", "special_condition_report",
        "sub_adjacent_representation", "verify_representation",
    ),
    "cohomology": (
        "Cochain2", "CohomologySpaces", "cohomologous", "cohomology_spaces", "d1", "d1_matrix",
        "d2_matrix", "is_cocycle",
    ),
    "dendriform": (
        "AntiLDendriform", "associated_anti_pre_lie", "check_anti_L_dendriform",
        "check_form_invariance", "check_O_operator", "compatible_from_invertible_O",
        "dendriform_from_bilinear_form", "form_sharp", "induced_dendriform",
        "is_anti_L_dendriform", "is_O_operator", "left_mult_representation",
    ),
    "deformation": (
        "RigidityCertificate", "TruncatedDeformation", "TruncatedIsomorphism",
        "apply_isomorphism", "check_deformation", "compose_isomorphisms", "infinitesimal",
        "inverse_isomorphism", "is_deformation", "rigidity_certificate", "trivialize_step",
        "verify_deformation",
    ),
    "extension": (
        "AbelianExtension", "are_isomorphic", "build_extension", "classify_extensions",
        "extension_table", "extract_cocycle", "normalize_extension", "semidirect_extension",
    ),
    "search": (
        "SearchRefused", "SearchSpec", "SearchSpaceTooLarge", "lift_matrix",
        "lift_representation", "lift_table", "rational_algebra_corpus", "search_algebras",
        "search_bilinear_forms", "search_o_operators", "search_representations", "space_size",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__})
