"""Singular forward self-similar profiles of the fast diffusion equation
u_t = div(grad(u^m / m)) in the very-fast range 0 < m < (n-2)/n, plus the
weighted-L1 machinery used to show that radial solutions trapped between two
rescaled profiles contract onto the self-similar orbit.

Public surface: parameter derivation (params), profile construction via a
contraction map (profile), origin/far-field expansions and the Kelvin-type
inversion (asymptotics), the superharmonic comparison weight (weight), the
radial evolution and its experiments (pde), shared numerics (numerics), the
exception taxonomy (errors), and the fdx console entry point (cli).
"""

from .errors import (
    BlowUpError,
    BoundViolationError,
    ConfigError,
    DegenerateError,
    ExtrapolationError,
    FastDiffError,
    GridMismatchError,
    InternalError,
    NewtonDivergence,
    NonContractionError,
    PositivityError,
    RangeError,
    ResolutionError,
    SandwichViolationError,
    StiffnessError,
    ToleranceError,
)
from .params import FPConstants, ParamSet, derive_fp_constants, derive_params
from .numerics import (
    cumulative_integral,
    deriv_uniform,
    integrate_table,
    lsoda_at,
)
from .profile import (
    Profile,
    TailSolution,
    continue_left,
    lambda_for_amplitude,
    picard_solve,
    profile_interpolator,
    rescale_profile,
    solve_for_eta,
    tail_residual,
)
from .asymptotics import (
    ExpansionReport,
    InversionReport,
    expansion_check,
    f_ode_residual,
    inversion_report,
    wbar_ode_residual,
)
from .weight import (
    BumpSpec,
    WeightFunction,
    build_weight,
    eval_weight,
    weighted_grid,
)
from .pde import (
    ContractionResult,
    ConvergenceResult,
    EvolveConfig,
    EvolveStats,
    RadialField,
    barenblatt,
    contraction_experiment,
    convergence_experiment,
    evolve,
    log_grid,
    power_bump_initial,
    random_sandwiched_pair,
    rescale_field,
    sample_solution,
    self_similar_solution,
)

__version__ = "0.1.0"
