"""charmat: characteristic matrices of linear operators.

A dense-matrix laboratory for the projection-onto-the-graph picture of
operator theory: build the 2x2-block characteristic matrix of an operator
and check its algebraic identity suite, assemble direct integrals of
operator families and confirm that adjoints, moduli, inverses and
polynomials pass through the fibers, exercise the self-adjoint functional
calculus (spectral projections, resolvents, unitary groups and the
quadrature identities linking them), and study the classical
boundary-condition family of first-derivative operators on [0,1] where all
of this machinery becomes concrete.

Everything acts on finite ``numpy`` arrays; inner products are linear in
the second argument.  On a finite grid every fiber is a bounded matrix, so
the distinctions between weak, strong and projection-valued measurability
that animate the infinite-dimensional theory all collapse: the maximal
fiberwise operator and the block-diagonal assembly here are one and the
same object, and the library deliberately exposes a single type for both.
"""

from .boundary import (
    GridDiscretization,
    boundary_mismatch,
    deficiency_vector,
    derivative_operator,
    grid_norm,
    laplacian,
    laplacian_eigenvalues,
    rank_one_extension,
    separation_witness,
    trapezoid_norm,
)
from .calculus import (
    bounded_calculus_step_check,
    fourier_resolvent_check,
    resolvent,
    spectral_decomposition,
    spectral_projection,
    spectral_transform_check,
    stone_formula_check,
    unitary_group,
)
from .family import (
    FamilyVector,
    OperatorFamily,
    ParameterGrid,
    char_matrix_fiberwise,
    decomposition_suite,
    family_norm,
    lennon_product,
    lennon_sum,
    resolvent_limit_check,
    resolvent_reconstruct,
    truncate_family_vector,
)
from .graph import (
    CharacteristicMatrix,
    IdentityReport,
    adjoint_char_matrix,
    char_matrix,
    char_matrix_oracle,
    inverse_char_matrix,
    operator_from_char_matrix,
    verify_identities,
)
from .hilbert import adjoint

__version__ = "0.1.0"

__all__ = [
    "adjoint",
    "CharacteristicMatrix", "IdentityReport", "char_matrix", "char_matrix_oracle",
    "verify_identities", "adjoint_char_matrix", "inverse_char_matrix",
    "operator_from_char_matrix",
    "ParameterGrid", "OperatorFamily", "FamilyVector", "family_norm",
    "char_matrix_fiberwise",
    "decomposition_suite", "lennon_sum", "lennon_product", "resolvent_reconstruct",
    "resolvent_limit_check", "truncate_family_vector",
    "spectral_decomposition", "spectral_projection",
    "resolvent", "unitary_group", "fourier_resolvent_check", "stone_formula_check",
    "spectral_transform_check", "bounded_calculus_step_check",
    "GridDiscretization", "grid_norm", "trapezoid_norm",
    "derivative_operator", "laplacian", "laplacian_eigenvalues", "separation_witness",
    "deficiency_vector", "rank_one_extension", "boundary_mismatch",
]
