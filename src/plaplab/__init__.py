"""Desk-scale laboratory for sharp interior regularity of p-Laplacian flows."""

from .exponents import (
    INF,
    CompatibilityReport,
    ExponentSet,
    LayerReport,
    ProblemParams,
    admissible_region,
    check_compatibility,
    check_compatibility_values,
    epsilon_layers,
    sharp_exponents,
    theta,
    theta_bounds,
)
from .grids import (
    GridFunction,
    Region,
    SpaceTimeGrid,
    anisotropic_norm,
    read_binary,
    sup_oscillation,
    write_binary,
)
from .cylinders import (
    Cylinder,
    RescaledProblem,
    corrected_cylinder,
    critical_zone,
    rescale_outside,
)
from .solver import (
    BoundarySpec,
    CflError,
    SolveConfig,
    SolverError,
    SourceSpec,
    caccioppoli_gap,
    make_source,
    reference_solutions,
    solve,
    weak_residual,
)
from .probe import (
    ExponentFit,
    OscillationProfile,
    UnresolvableCylinderError,
    check_dyadic_bound,
    check_pointwise_c1alpha,
    fit_exponent,
    oscillation_profile,
    p_caloric_proximity,
)

__version__ = "0.1.0"
