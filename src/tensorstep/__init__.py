"""Inexact and stochastic higher-order (tensor) methods for convex optimization."""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InsufficientDataError,
    StartPointError,
    SubsolverError,
    TensorStepError,
)
from .linalg import (
    RankOneSumTensor3,
    opnorm_mat,
    t3_norm_estimate,
    zero_tensor3,
)
from .models import (
    DerivativeBundle,
    InexactnessBudget,
    ModelConfig,
    TaylorModel,
    zeta_radial_coefficients,
)
from .problems import (
    LipschitzProfile,
    LogisticProblem,
    QuadraticProblem,
    StochasticDraw,
    make_logistic,
    make_online_logistic,
    make_quadratic,
)
from .sampling import (
    EXACT,
    BatchPlan,
    ConditionReport,
    batch_size_offline,
    batch_size_online,
    plan_batches,
    sample_bundle,
    verify_condition,
)
from .subsolvers import (
    RegularizedQuartic,
    bregman_minimize_zeta,
    relative_smoothness_constant,
    solve_model_p2,
    solve_regularized_quartic,
)
from .methods import (
    IterationRecord,
    RunConfig,
    RunTrace,
    exact_bundle,
    itm_run,
    iteration_budget,
    kappa_defaults,
    monotonicity_guard,
    reference_solution,
    stm_run,
    theoretical_residual_bound,
)
from .bench import (
    ComplexitySummary,
    ExperimentConfig,
    RateFit,
    complexity_sweep,
    fit_rate,
    gd_baseline,
    load_trace_csv,
    run_experiment,
    write_trace_csv,
)

__version__ = "0.1.0"
