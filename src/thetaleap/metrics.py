"""Statistical evaluation: histograms, KL divergence, bootstrap CIs,
plug-in noise floor, and log-log convergence-order fits.

Laws are plain float arrays (a target's ``TargetTable.flat()``) and a
sampler's terminal law is its int64 histogram.  KL against a histogram with
empty cells is reported as infinity, not smoothed away: the plug-in
estimator is the quantity of interest here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

# How far from 1 the mass of a law given to kl_divergence may be: rounding
# only, so a histogram passed where its frequencies belong is caught.
LAW_SUM_ATOL = 1e-9


@dataclass(frozen=True)
class KLReport:
    """Plug-in KL estimate with a basic bootstrap interval."""

    estimate: float
    ci_lo: float
    ci_hi: float
    n_resamples: int
    n_samples: int
    n_infinite_resamples: int = 0


@dataclass(frozen=True)
class ConvergenceFit:
    """OLS fit of log KL against log N; order of convergence is -slope."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int

    @property
    def order(self) -> float:
        return -self.slope


def empirical_distribution(samples: np.ndarray, n_states: int) -> np.ndarray:
    """Exact int64 counts of integer samples over [0, n_states)."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ConfigError("need at least one sample")
    if np.any(samples < 0) or np.any(samples >= n_states):
        raise ConfigError(f"samples must lie in [0, {n_states})")
    return np.bincount(samples, minlength=n_states)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """Plug-in KL divergence sum_i p_i log(p_i / q_i) in nats, for each law ``q``
    along its last axis: a float for one law, an array for a stack of them.

    ``p`` and every ``q`` must sum to 1 within ``LAW_SUM_ATOL``.  The value
    is inf where q lacks mass somewhere p has it.
    """
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    if pv.ndim != 1 or qv.shape[-1:] != pv.shape:
        raise ConfigError(f"shape mismatch: {pv.shape} vs {qv.shape}")
    for name, law in (("p", pv), ("q", qv)):
        off = np.abs(law.sum(axis=-1) - 1.0)
        if np.any(off > LAW_SUM_ATOL):
            raise ConfigError(f"{name} is not a law: its mass is off 1 by {off.max():.6g}")
    support = pv > 0.0
    pv = pv[support]
    with np.errstate(divide="ignore"):
        kl = np.sum(pv * np.log(pv / qv[..., support]), axis=-1)
    return float(kl) if kl.ndim == 0 else kl


def noise_floor(n_samples: int, support: int) -> float:
    """First-order bias (support-1)/(2M) of the plug-in KL estimator at p = q."""
    if n_samples < 1 or support < 2:
        raise ConfigError("need n_samples >= 1 and support >= 2")
    return (support - 1) / (2.0 * n_samples)


def bootstrap_kl_ci(
    counts: np.ndarray, p0: np.ndarray, n_resamples: int, level: float, rng: np.random.Generator
) -> KLReport:
    """Basic bootstrap interval for the plug-in KL(p0 || counts / M).

    ``counts`` is a histogram from :func:`empirical_distribution`.
    Resampling M draws with replacement is done as one multinomial draw over
    the observed frequencies per resample, and the resample KLs are taken by
    one :func:`kl_divergence` call over those draws.  Infinite resample KLs
    are counted and left out of the quantiles ``lo`` and ``hi``.  The interval
    [2k - hi, 2k - lo], each end clamped at 0, reflects them about the estimate
    k, which takes off the plug-in bias that resampling adds once more.
    """
    if n_resamples < 2:
        raise ConfigError(f"need at least 2 resamples, got {n_resamples}")
    if not (0.0 < level < 1.0):
        raise ConfigError(f"level must lie in (0, 1), got {level}")
    m = int(counts.sum())
    if m < 1:
        raise ConfigError("the histogram holds no samples")
    freqs = counts / m
    estimate = kl_divergence(p0, freqs)
    # one resample missing a support cell reads inf
    kls = kl_divergence(p0, rng.multinomial(m, freqs, size=n_resamples) / m)
    finite = np.isfinite(kls)
    n_inf = int(n_resamples - finite.sum())
    if not finite.any():
        return KLReport(estimate, math.inf, math.inf, n_resamples, m, n_inf)
    tail = (1.0 - level) / 2.0
    lo, hi = np.quantile(kls[finite], [tail, 1.0 - tail])
    # the quantiles, and so their reflection, should bracket the plug-in
    # estimate up to resampling noise: one resample standard error plus the
    # (support-1)/(2M) first-order bias that resampling re-adds on top of it
    slack = float(kls[finite].std()) + noise_floor(m, p0.size)
    if math.isfinite(estimate) and not (lo - slack <= estimate <= hi + slack):
        raise NumericalError(
            f"bootstrap quantiles [{lo:.6g}, {hi:.6g}] do not bracket the "
            f"estimate {estimate:.6g} within the resampling slack {slack:.3g}"
        )
    ci_lo, ci_hi = (max(0.0, float(2.0 * estimate - end)) for end in (hi, lo))
    return KLReport(estimate, ci_lo, ci_hi, n_resamples, m, n_inf)


def fit_loglog_slope(points, min_steps: int | None = None) -> ConvergenceFit:
    """Least-squares slope of log KL vs log N over (N, KL) pairs.

    ``min_steps`` drops points below a step-count threshold (used to exclude
    the pre-asymptotic regime); at least two points must survive.
    """
    kept = [(n, kl) for n, kl in points if min_steps is None or n >= min_steps]
    if len(kept) < 2:
        raise ConfigError(f"need at least 2 points to fit, got {len(kept)}")
    n_arr = np.array([n for n, _ in kept], dtype=float)
    kl_arr = np.array([kl for _, kl in kept], dtype=float)
    if np.any(kl_arr <= 0.0) or not np.all(np.isfinite(kl_arr)):
        raise ConfigError("log-log fit needs finite positive KL values")
    x = np.log(n_arr)
    y = np.log(kl_arr)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ConvergenceFit(float(slope), float(intercept), min(1.0, max(0.0, r2)), len(kept))
