"""Sampler configuration for reverse-time jump processes.

Five methods are available: Euler (linearized categorical), tau-leaping,
uniformization (exact via thinning), and the two-stage theta-RK-2 and
theta-Trapezoidal schemes.  This module holds what describes a run (the
time grid, the extrapolation weights, :class:`SolverConfig`) and what it
reports (:class:`StepTelemetry`); :func:`run_sampler` hands the run to the
batched engine in :mod:`thetaleap.engine`, which implements every scheme.

Jump bookkeeping: a drawn update is rejected outright if any coordinate
draws more than one jump, which keeps every accepted update well-posed.
Extrapolated intensities are clamped at zero by default; clamping events are
counted so the positive fraction can be reported.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

METHODS = ("euler", "tau-leaping", "uniformization", "theta-rk2", "theta-trapezoidal")
CLAMP_AT_ZERO = "clamp-at-zero"
ERROR_ON_NEGATIVE = "error-on-negative"

# Relative slack when checking a dominating bound against observed totals.
BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Reverse-time discretization 0 = s_0 < ... < s_N = T - delta.

    ``rho[n] = (1 - theta) s_n + theta s_{n+1}`` are the section points at
    which two-stage methods evaluate the intermediate intensity.
    """

    points: np.ndarray
    theta: float
    horizon: float
    early_stop: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.flags.writeable = False
        if pts.ndim != 1 or pts.size < 2:
            raise ConfigError("grid needs at least one interval")
        if pts[0] != 0.0 or np.any(np.diff(pts) <= 0):
            raise ConfigError("grid points must start at 0 and increase strictly")
        if not (0.0 < self.theta <= 1.0):
            raise ConfigError(f"theta must lie in (0, 1], got {self.theta}")
        object.__setattr__(self, "points", pts)

    @property
    def n_intervals(self) -> int:
        return self.points.size - 1

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def rho(self) -> np.ndarray:
        return self.points[:-1] + self.theta * self.deltas

    @property
    def kappa(self) -> float:
        """Largest step size."""
        return float(self.deltas.max())


def make_time_grid(
    T: float, delta: float, N: int, theta: float, schedule: str = "uniform"
) -> TimeGrid:
    """Uniform grid over [0, T - delta] with N steps and theta-section points."""
    if not (0.0 <= delta < T):
        raise ConfigError(f"need 0 <= delta < T, got delta={delta}, T={T}")
    if N < 1:
        raise ConfigError(f"need at least one step, got N={N}")
    if not (0.0 < theta <= 1.0):
        raise ConfigError(f"theta must lie in (0, 1], got {theta}")
    if schedule != "uniform":
        raise ConfigError(f"unknown schedule {schedule!r}")
    return TimeGrid(np.linspace(0.0, T - delta, N + 1), theta, T, delta)


def alpha_coefficients(theta: float) -> tuple[float, float]:
    """Extrapolation weights (alpha1, alpha2) with alpha1 - alpha2 = 1.

    alpha1 = 1 / (2 theta (1 - theta)) and
    alpha2 = ((1 - theta)^2 + theta^2) / (2 theta (1 - theta)); both diverge
    at theta in {0, 1}, where the trapezoidal split degenerates.
    """
    if not (0.0 < theta < 1.0):
        raise ConfigError(f"alpha coefficients need theta in (0, 1), got {theta}")
    denom = 2.0 * theta * (1.0 - theta)
    a1 = 1.0 / denom
    a2 = ((1.0 - theta) ** 2 + theta**2) / denom
    return a1, a2


@dataclass
class StepTelemetry:
    """Counters accumulated over one or many step updates.

    ``nfe`` counts intensity evaluations, one per trajectory per call.  ``attempted_updates`` and
    ``drawn_jumps`` are bookkeeping beyond the core counters: the former
    normalizes rejection rates, the latter exposes pre-rejection Poisson
    counts for distributional checks.
    """

    nfe: int = 0
    rejected_steps: int = 0
    negative_intensity_events: int = 0
    total_intensity_terms: int = 0
    attempted_updates: int = 0
    drawn_jumps: int = 0
    final_fill_evals: int = 0

    @property
    def positivity_fraction(self) -> float:
        if self.total_intensity_terms == 0:
            return 1.0
        return 1.0 - self.negative_intensity_events / self.total_intensity_terms

    @property
    def rejection_fraction(self) -> float:
        if self.attempted_updates == 0:
            return 0.0
        return self.rejected_steps / self.attempted_updates

    def merge(self, other: "StepTelemetry") -> None:
        self.nfe += other.nfe
        self.rejected_steps += other.rejected_steps
        self.negative_intensity_events += other.negative_intensity_events
        self.total_intensity_terms += other.total_intensity_terms
        self.attempted_updates += other.attempted_updates
        self.drawn_jumps += other.drawn_jumps
        self.final_fill_evals += other.final_fill_evals


@dataclass(frozen=True)
class SolverConfig:
    """Method selection plus everything needed to reproduce a run."""

    method: str
    grid: TimeGrid
    seed: int
    clamp_policy: str = CLAMP_AT_ZERO

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.clamp_policy not in (CLAMP_AT_ZERO, ERROR_ON_NEGATIVE):
            raise ConfigError(f"unknown clamp policy {self.clamp_policy!r}")
        theta = self.grid.theta
        if self.method == "theta-trapezoidal" and not (0.0 < theta < 1.0):
            raise ConfigError(
                "theta-trapezoidal needs theta in (0, 1); the extrapolation "
                "weights are undefined at theta = 1"
            )
        if self.method == "theta-rk2" and theta > 0.5:
            warnings.warn(
                f"theta-rk2 with theta={theta} > 1/2: second-order accuracy is "
                "only guaranteed for theta <= 1/2",
                stacklevel=2,
            )


def run_sampler(config: SolverConfig, model, n_samples: int, workers: int = 1, collect_nfe: bool = False):
    """Sample ``n_samples`` independent trajectories through the grid.

    Results are bit-reproducible from (seed, n_samples) alone: randomness is
    keyed by fixed-size trajectory chunks, so the worker count only affects
    wall time.  Returns ``(samples, telemetry)``; with ``collect_nfe`` a third
    item holds per-trajectory NFE counts for uniformization and ``None`` for
    the stepping methods, whose NFE is the same for every trajectory.
    """
    from . import engine

    if n_samples < 1:
        raise ConfigError(f"need at least one trajectory, got {n_samples}")
    return engine.run_batches(config, model, n_samples, workers=workers, collect_nfe=collect_nfe)
