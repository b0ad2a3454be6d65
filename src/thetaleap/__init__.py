"""Discrete-state reverse-diffusion sampling toolkit.

Two exact reverse-process models (a uniform toy and a masked
absorbing-state toy) whose rates come from exact scores, a batched sampler
engine (Euler, tau-leaping, uniformization, and the two-stage theta
schemes) run by :func:`thetaleap.engine.run_sampler`, and a statistical
harness for KL-based convergence studies.
"""

from .engine import SolverConfig, StepTelemetry, TimeGrid, alpha_coefficients, run_sampler
from .masked import (
    ConditionalOracle,
    NoiseSchedule,
    TargetTable,
    load_target_table,
    random_target_table,
)
from .metrics import (
    ConvergenceFit,
    KLReport,
    bootstrap_kl_ci,
    empirical_distribution,
    fit_loglog_slope,
    kl_divergence,
    noise_floor,
)
from .models import MaskedToyModel, ToyUniformModel, sample_simplex

__version__ = "0.1.0"
