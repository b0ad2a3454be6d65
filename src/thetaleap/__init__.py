"""Discrete-state reverse-diffusion sampling toolkit.

Forward CTMC marginals, two exact reverse-process models (a uniform toy and
a masked absorbing-state toy) whose rates come from exact scores, a batched
sampler engine (Euler, tau-leaping, uniformization, and the two-stage theta
schemes), and a statistical harness for KL-based convergence studies.
"""

from .ctmc import (
    ProbabilityVector,
    RateMatrix,
    build_uniform_rate_matrix,
    forward_marginal_closed,
    forward_marginal_general,
)
from .masked import (
    ConditionalOracle,
    NoiseSchedule,
    TargetTable,
    TokenSequence,
    forward_mask_sample,
    load_target_table,
    random_target_table,
    save_target_table,
)
from .metrics import (
    ConvergenceFit,
    EmpiricalDistribution,
    KLReport,
    bootstrap_kl_ci,
    empirical_distribution,
    fit_loglog_slope,
    kl_divergence,
    noise_floor,
)
from .models import MaskedToyModel, ToyUniformModel, sample_simplex
from .solvers import (
    SolverConfig,
    StepTelemetry,
    TimeGrid,
    alpha_coefficients,
    make_time_grid,
    run_sampler,
)

__version__ = "0.1.0"
