"""Exact-arithmetic workbench for finite-dimensional anti-pre-Lie algebras."""

from .fields import Field, Fp, PrimeField, QQ, Rationals, Scalar
from .linalg import Matrix, Tensor3, Vec, invert, kernel_basis, rank, solve
from .algebra import (
    AntiPreLieAlgebra,
    LieTable,
    MultTable,
    Report,
    StructureError,
    Violation,
    check_anti_pre_lie,
    check_lie_table,
    check_morphism,
    commutator_table,
    is_anti_pre_lie,
    sub_adjacent_lie,
)
from .representation import (
    LieRepresentation,
    Representation,
    check_lie_representation,
    check_representation,
    dual_representation,
    is_representation,
    regular_representation,
    semidirect_product,
    special_condition_report,
    sub_adjacent_representation,
    verify_representation,
)
from .cohomology import (
    Cochain2,
    CohomologySpaces,
    cohomologous,
    cohomology_spaces,
    d1,
    d1_matrix,
    d2_matrix,
    is_cocycle,
)
from .dendriform import (
    AntiLDendriform,
    associated_anti_pre_lie,
    check_anti_L_dendriform,
    check_form_invariance,
    check_O_operator,
    compatible_from_invertible_O,
    dendriform_from_bilinear_form,
    form_sharp,
    induced_dendriform,
    is_anti_L_dendriform,
    is_O_operator,
    left_mult_representation,
)
from .deformation import (
    RigidityCertificate,
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
    verify_deformation,
)
from .extension import (
    AbelianExtension,
    are_isomorphic,
    build_extension,
    classify_extensions,
    extension_table,
    extract_cocycle,
    normalize_extension,
    semidirect_extension,
)
from .search import (
    SearchSpec,
    SearchSpaceTooLarge,
    lift_matrix,
    lift_representation,
    lift_table,
    rational_algebra_corpus,
    search_algebras,
    search_bilinear_forms,
    search_o_operators,
    search_representations,
    space_size,
)

__all__ = [name for name in dir() if not name.startswith("_")]
