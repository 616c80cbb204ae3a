"""Numerical laboratory for analytic maps between the unit disc, the upper
half-plane, the plane, and the Riemann sphere: derivative norms, image arc
lengths and areas with multiplicity, area characteristics, boundary
decompositions, and executable checks of the length/area growth bounds.
"""

from .errors import (
    ArclabError,
    BoundarySingularityError,
    ConstructionError,
    DataError,
    DivergenceError,
    DomainError,
    EvaluationError,
    IndeterminateFormError,
    NormalizationError,
    ParseError,
    PrecisionError,
    RangeError,
    ResolutionError,
    StructureError,
    TagMismatchError,
)
from .funcspec import parse, parse_complex, unparse
from .geodesics import (
    AREA_DEFAULT,
    DISC_RHO_MAX,
    HALF_PLANE_RHO_MAX,
    LENGTH_DEFAULT,
    GrowthSample,
    QuadConfig,
    RadialArc,
    adaptive_integrate,
    arc_length,
    arc_length_profile,
    area,
    area_from_coefficients,
    area_with_bound,
    circle_energy,
    disc_arc,
    halfplane_arc,
)
from .maps import (
    BlaschkeDisc,
    BlaschkeHalfPlane,
    Compose,
    ConstMap,
    ExpMap,
    Identity,
    Jet,
    Koebe,
    LogMap,
    MapExpr,
    MobiusMap,
    PowerSeries,
    Product,
    Quotient,
    Scale,
    Shift,
    cayley_map,
    evaluate,
    inv_cayley_map,
    symmetry_check,
)
from .metrics import (
    INFINITY,
    MetricId,
    MobiusTransform,
    cayley,
    chordal,
    density,
    deriv_norm,
    disc_automorphism,
    distance,
    is_infinite,
    mobius_apply,
    mobius_inverse,
    norm_from_jet,
)
from .nevanlinna import (
    CharacteristicCurve,
    Decomposition,
    characteristic_curve,
    fatou_decompose,
    origin_identity_T,
    rho_of_r,
    shimizu_S,
    shimizu_T,
    uniform_characteristic_delta,
)
from .verifier import (
    GrowthFit,
    GrowthModel,
    VerdictReport,
    alpha_growth_check,
    annulus_report,
    check_area_derivative_bound,
    check_localized_bound,
    check_spherical_bound,
    check_sqrt_trend,
    check_uniform_char_length_bound,
    default_probe_grid,
    growth_fit,
    scenario_annulus,
    scenario_blaschke_quotient,
    scenario_symmetric_blaschke,
)

__version__ = "0.1.0"
