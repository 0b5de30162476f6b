"""Geometric moduli of two-dimensional normed planes.

Computation of classical and orthogonality-based moduli (convexity and
smoothness curves, supporting-functional moduli, quasi-orthogonal extension
moduli) together with a numerical verification suite for the inequalities
relating them.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    InputError,
    PreconditionError,
    RepresentationError,
    UnsupportedNormError,
)
from .norms import (
    EuclideanNorm,
    LpNorm,
    Norm,
    PolygonNorm,
    SupportSet,
    WeightedLpNorm,
    euclidean_norm,
    lp_norm,
    norm_from_json,
    norm_key,
    norm_to_json_dict,
    polygon_norm,
    regular_polygon_norm,
    weighted_lp_norm,
)
from .triangle import (
    QuasiNormalCone,
    TriangleFigure,
    build_figure,
    is_quasi_orthogonal,
    lambda_point,
    lambda_point_batch,
    projection_bound_margin,
    quasi_normal_cone,
)
from .engine import ExtremizeResult, Problem, extremize, extremize_batch
from .moduli import (
    KIND_NAMES,
    AreaAdditivity,
    CurveSample,
    ModulusCurve,
    ModulusKind,
    area_additivity_check,
    beta_t,
    canonical_json,
    curve_to_csv,
    curve_to_json_dict,
    delta_t,
    hilbert_reference,
    kind_domain,
    modulus,
    modulus_batch,
    modulus_curve,
    parse_curve_csv,
    reevaluate_witness,
    rows_to_csv,
)
from .verify import (
    PROBE_FAMILIES,
    CheckDef,
    CheckRecord,
    CheckSpec,
    ModulusCache,
    Relation,
    SuiteSettings,
    Term,
    VerificationReport,
    check_ids,
    default_check_ids,
    default_suite,
    gamma_monotonicity_check,
    norm_label,
    probe_conjectures,
    register_check,
    replay_witness,
    resolve_check_ids,
    run_suite,
    standard_norms,
)
