import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaleap import cli
from thetaleap.engine import substream
from thetaleap.errors import ConfigError
from thetaleap.metrics import (
    bootstrap_kl_ci,
    empirical_distribution,
    fit_loglog_slope,
    kl_divergence,
    noise_floor,
)
from thetaleap.models import sample_simplex

from kernel_oracle import exact_scheme_distribution


def test_empirical_distribution_counts():
    counts = empirical_distribution(np.array([0, 0, 1]), 3)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, [2, 1, 0])


def test_empirical_distribution_rejects_empty_and_out_of_range():
    with pytest.raises(ConfigError, match="at least one sample"):
        empirical_distribution(np.array([], dtype=int), 3)
    with pytest.raises(ConfigError, match=r"samples must lie in \[0, 3\)"):
        empirical_distribution(np.array([0, 3]), 3)


def test_empirical_distribution_large_uniform_draw():
    m, S = 10**6, 15
    rng = np.random.default_rng(0)
    counts = empirical_distribution(rng.integers(0, S, size=m), S)
    assert np.abs(counts / m - 1 / S).max() < 5 / np.sqrt(m)


def test_kl_identity_is_zero():
    p = np.array([0.1, 0.2, 0.7])
    assert kl_divergence(p, p) == 0.0


def test_kl_hand_value():
    got = kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(got - want) < 1e-15
    assert abs(got - 0.14384103622589045) < 1e-15


def test_kl_infinite_flag():
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == math.inf


def test_kl_smoothing_mode_is_finite():
    # no smoothing is needed where p has no mass: empty cells of q there
    # leave the plug-in KL finite
    assert kl_divergence(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    got = kl_divergence(np.array([0.5, 0.5, 0.0]), np.array([0.25, 0.75, 0.0]))
    assert abs(got - 0.14384103622589045) < 1e-15


def test_kl_rejects_a_law_that_does_not_sum_to_one():
    # a histogram where its frequencies belong, in either argument and in
    # any row of a stack of laws
    counts = empirical_distribution(np.array([0, 1, 2] * 10), 3)
    uniform = np.full(3, 1 / 3)
    for p, q in ((uniform, counts), (counts, uniform), (uniform, np.stack([uniform, counts]))):
        with pytest.raises(ConfigError, match="not a law"):
            kl_divergence(p, q)
    assert kl_divergence(uniform, counts / 30) == 0.0
    assert np.array_equal(kl_divergence(uniform, np.stack([uniform, [0.5, 0.5, 0.0]])), [0.0, math.inf])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_kl_nonnegative_gibbs(S, seed):
    rng = np.random.default_rng(seed)
    p = rng.random(S) + 1e-9
    q = rng.random(S) + 1e-9
    assert kl_divergence(p / p.sum(), q / q.sum()) >= 0.0


def test_noise_floor_values():
    assert abs(noise_floor(10**6, 15) - 7e-6) < 1e-18
    assert noise_floor(10**12, 15) < 1e-11


def test_bootstrap_point_mass_zero_width():
    p0 = np.array([1.0, 0.0])
    report = bootstrap_kl_ci(np.array([100, 0]), p0, 200, 0.95, np.random.default_rng(0))
    assert report.estimate == 0.0
    assert report.ci_lo == report.ci_hi == 0.0


def test_bootstrap_interval_brackets_estimate():
    rng = np.random.default_rng(1)
    p0 = np.full(10, 0.1)
    counts = empirical_distribution(rng.integers(0, 10, size=50_000), 10)
    report = bootstrap_kl_ci(counts, p0, 1000, 0.95, np.random.default_rng(2))
    assert report.ci_lo <= report.estimate <= report.ci_hi
    assert report.n_samples == 50_000
    assert report.n_infinite_resamples == 0


def test_bootstrap_ci_width_shrinks_with_sample_size():
    p0 = np.full(6, 1 / 6)
    rng = np.random.default_rng(3)
    widths = []
    for m in (10**3, 10**5):
        counts = empirical_distribution(rng.integers(0, 6, size=m), 6)
        r = bootstrap_kl_ci(counts, p0, 1000, 0.95, np.random.default_rng(4))
        widths.append(r.ci_hi - r.ci_lo)
    assert widths[1] / widths[0] < 0.2


def test_bootstrap_converges_to_plugin_estimate():
    rng = np.random.default_rng(5)
    p0 = np.full(5, 0.2)
    counts = empirical_distribution(rng.integers(0, 5, size=20_000), 5)
    r = bootstrap_kl_ci(counts, p0, 10_000, 0.95, np.random.default_rng(6))
    # resample mean exceeds the plug-in estimate by about one more bias unit;
    # reflected about the estimate, the interval still brackets it within a
    # resample sd
    assert r.ci_lo <= r.estimate <= r.ci_hi + 2 * noise_floor(20_000, 5)


def test_bootstrap_interval_covers_the_exact_toy_kl():
    # histograms drawn as Multinomial(M, q) from kernel_oracle's exact laws on
    # the default toy target (p0-seed 0, T = 12, theta = 1/2): tau-leaping at
    # N = 4, far above the noise floor; theta-trapezoidal at N = 128, below
    # it; and q = p0, an exact sampler.  Far from the floor the coverage must
    # be 0.95 within three binomial standard errors.  Near the floor and at
    # KL = 0 the interval may over-cover, since its lower end is clamped at 0,
    # so there only under-coverage fails.
    p0 = sample_simplex(cli.TOY_STATES, substream(0, cli.TAG_TARGET)).flat()
    cells = {
        "far": exact_scheme_distribution("tau-leaping", p0, 12.0, 4, 0.5),
        "near": exact_scheme_distribution("theta-trapezoidal", p0, 12.0, 128, 0.5),
        "exact": p0,
    }
    replicates, m = 1000, 4096
    band = 3 * math.sqrt(0.95 * 0.05 / replicates)
    rng = np.random.default_rng(0)
    coverage = {}
    for name, q in cells.items():
        truth = kl_divergence(p0, q)
        reports = [bootstrap_kl_ci(rng.multinomial(m, q), p0, 200, 0.95, rng) for _ in range(replicates)]
        coverage[name] = np.mean([r.ci_lo <= truth <= r.ci_hi for r in reports])
    assert abs(coverage["far"] - 0.95) <= band, coverage
    assert min(coverage.values()) >= 0.95 - band, coverage


def test_bootstrap_infinite_resamples_flagged():
    # one never-observed state with tiny target mass: resamples are all
    # infinite for the plug-in estimator
    p0 = np.array([0.5, 0.49, 0.01])
    r = bootstrap_kl_ci(np.array([50, 50, 0]), p0, 100, 0.95, np.random.default_rng(7))
    assert r.estimate == math.inf
    assert r.n_infinite_resamples == 100


def test_bootstrap_matches_per_resample_kl_divergence():
    # the array pass equals kl_divergence resample by resample, infinite
    # resamples (state 2 not redrawn) and a zero-mass target cell included
    p0 = np.array([0.45, 0.45, 0.1, 0.0])
    counts = np.array([100, 97, 3, 0])
    r = bootstrap_kl_ci(counts, p0, 500, 0.95, np.random.default_rng(8))
    draws = np.random.default_rng(8).multinomial(200, counts / 200, size=500)
    kls = np.array([kl_divergence(p0, d / 200) for d in draws])
    finite = np.isfinite(kls)
    assert 0 < r.n_infinite_resamples == (~finite).sum() < 500
    lo, hi = np.quantile(kls[finite], [0.025, 0.975])
    k = kl_divergence(p0, counts / 200)
    assert r.ci_lo == pytest.approx(max(0.0, 2 * k - hi), rel=1e-12)
    assert r.ci_hi == pytest.approx(max(0.0, 2 * k - lo), rel=1e-12)


def test_bootstrap_validation():
    p0 = np.array([1.0, 0.0])
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="at least 2 resamples"):
        bootstrap_kl_ci(np.array([10, 0]), p0, 1, 0.95, rng)
    with pytest.raises(ConfigError, match="level must lie"):
        bootstrap_kl_ci(np.array([10, 0]), p0, 1000, 1.2, rng)
    with pytest.raises(ConfigError, match="holds no samples"):
        bootstrap_kl_ci(np.array([0, 0]), p0, 1000, 0.95, rng)


def test_fit_exact_slopes():
    fit = fit_loglog_slope([(10, 1e-2), (100, 1e-4)])
    assert abs(fit.slope + 2.0) < 1e-12 and abs(fit.r_squared - 1.0) < 1e-12
    fit = fit_loglog_slope([(10, 1e-1), (100, 1e-2)])
    assert abs(fit.slope + 1.0) < 1e-12
    assert abs(fit.order - 1.0) < 1e-12


def test_fit_constant_kl_slope_zero():
    fit = fit_loglog_slope([(10, 0.5), (100, 0.5), (1000, 0.5)])
    assert abs(fit.slope) < 1e-12


def test_fit_rescale_invariance():
    pts = [(8, 0.31), (16, 0.11), (32, 0.028), (64, 0.0071)]
    base = fit_loglog_slope(pts)
    scaled = fit_loglog_slope([(n, 7.3 * kl) for n, kl in pts])
    assert abs(base.slope - scaled.slope) < 1e-12
    assert abs(base.r_squared - scaled.r_squared) < 1e-12
    assert scaled.intercept > base.intercept


def test_fit_min_steps_filter():
    pts = [(4, 0.5), (8, 0.4), (16, 0.1), (32, 0.025), (64, 0.00625)]
    fit = fit_loglog_slope(pts, min_steps=16)
    assert fit.n_points == 3
    assert abs(fit.slope + 2.0) < 1e-12


def test_fit_errors():
    with pytest.raises(ConfigError, match="at least 2 points"):
        fit_loglog_slope([(10, 0.1)])
    with pytest.raises(ConfigError, match="finite positive KL"):
        fit_loglog_slope([(10, 0.1), (20, 0.0)])
    with pytest.raises(ConfigError, match="finite positive KL"):
        fit_loglog_slope([(10, 0.1), (20, -0.5)])
