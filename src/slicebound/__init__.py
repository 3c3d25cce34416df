"""Numerical bounds for volumes of sections of convex bodies in John
position, with independent Monte-Carlo / exact oracles."""

from .bodies import (
    HPolytopeSection,
    KpBall,
    cross_polytope_ball,
    cube_decomposition,
    hadamard_decomposition,
    hadamard_section_exact,
    nonsym_section_polytope,
    section_polytope,
    simplex_decomposition,
    sylvester_hadamard,
)
from .bounds import (
    ALL_BOUNDS,
    BoundReport,
    bound_ab_old,
    bound_k1_intermediate,
    bound_k1_lower,
    bound_k1_upper,
    bound_kp_lower,
    bound_kp_upper,
    bound_mean_width,
    bound_nonsym_fourier,
    bound_nonsym_hyperplane,
    bound_symmetric_case1,
    bound_symmetric_case1_coarse,
    bound_symmetric_case2,
    bound_volume_via_wills,
    bound_wills_functional,
    build_report,
    inputs_digest,
)
from .decomp import (
    JohnDecomposition,
    Lift,
    NonsymLift,
    ProjectedDecomposition,
    Subspace,
    lift,
    lift_nonsymmetric,
    project,
    validate,
)
from .errors import (
    DegenerateRegimeError,
    DomainError,
    GateError,
    SliceboundError,
    StructuralError,
)
from .oracle import (
    McEstimate,
    exact_volume_smallk,
    mc_kp_section_volume,
    mc_volume,
    parseval_check,
    v1_oracle,
    wills_oracle,
)

__version__ = "0.1.0"
