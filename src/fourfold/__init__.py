"""Rational homotopy of closed oriented simply connected four-manifolds.

From an intersection form (a symmetric unimodular integer matrix) the
package derives the rational cohomology algebra, constructs its Sullivan
minimal model stage by stage with exact rational arithmetic, reads off the
ranks of the rational homotopy groups, checks them against the closed-form
tables and, in every degree, against the loop-space series, and classifies
rational homotopy type by rank and signature.
"""

from .forms import (
    CohomologyAlgebra,
    IntersectionForm,
    NotUnimodular,
    RankTable,
    algebra_from_split,
    canonical_connected_sum,
    closed_form_ranks,
    cohomology_algebra,
    complete_intersection_b2,
    connected_sum_form,
    diagonal_form,
    e8_form,
    empty_form,
    hyperbolic_form,
    hypersurface_b2,
    k3_form,
    loop_space_ranks,
    make_form,
    rationally_equivalent,
)
from .gca import (
    DEFAULT_GUARD,
    BasisTooLarge,
    DegreeMismatch,
    Derivation,
    Generator,
    GeneratorSet,
    Poly,
    basis,
    check_d_squared,
    decomposable_subspace,
    format_poly,
    mul,
)
from .linalg import (
    NotContained,
    NotSymmetric,
    QMatrix,
    Subspace,
    complement_in,
)
from .sullivan import (
    MinimalModelStage,
    NotSimplyConnected,
    QuasiMorphism,
    StageReport,
    VerifyReport,
    build,
    extend_stage,
    init_stage,
    stage_cohomology,
    verify_stage,
)

__version__ = "0.1.0"

__all__ = [
    "BasisTooLarge",
    "CohomologyAlgebra",
    "DEFAULT_GUARD",
    "DegreeMismatch",
    "Derivation",
    "Generator",
    "GeneratorSet",
    "IntersectionForm",
    "MinimalModelStage",
    "NotContained",
    "NotSimplyConnected",
    "NotSymmetric",
    "NotUnimodular",
    "Poly",
    "QMatrix",
    "QuasiMorphism",
    "RankTable",
    "StageReport",
    "Subspace",
    "VerifyReport",
    "algebra_from_split",
    "basis",
    "build",
    "canonical_connected_sum",
    "check_d_squared",
    "closed_form_ranks",
    "cohomology_algebra",
    "complement_in",
    "complete_intersection_b2",
    "connected_sum_form",
    "decomposable_subspace",
    "diagonal_form",
    "e8_form",
    "empty_form",
    "extend_stage",
    "format_poly",
    "hyperbolic_form",
    "hypersurface_b2",
    "init_stage",
    "k3_form",
    "loop_space_ranks",
    "make_form",
    "mul",
    "rationally_equivalent",
    "stage_cohomology",
    "verify_stage",
]
