"""Batch engine checks: agreement with the exact scheme kernels, determinism
across worker counts, and telemetry accounting."""

import numpy as np
import pytest

from thetaleap.engine import CHUNK_SIZE, substream
from thetaleap.errors import StepSizeError
from thetaleap.metrics import empirical_distribution, kl_divergence, noise_floor
from thetaleap.models import ToyUniformModel, sample_simplex
from thetaleap.solvers import SolverConfig, make_time_grid, run_sampler

from kernel_oracle import exact_scheme_distribution

HORIZON = 12.0


@pytest.fixture(scope="module")
def toy():
    p0 = sample_simplex(15, substream(42, 999))
    return ToyUniformModel(p0, horizon=HORIZON)


@pytest.mark.parametrize("method", ["tau-leaping", "theta-rk2", "theta-trapezoidal"])
def test_batch_sampler_matches_exact_scheme_kernel(toy, method):
    # the engine's empirical law must sit at the plug-in noise floor of the
    # scheme's exact terminal law computed by kernel composition
    n_steps, m = 8, 120_000
    grid = make_time_grid(HORIZON, 0.0, n_steps, 0.5)
    samples, tel = run_sampler(SolverConfig(method, grid, seed=5), toy, m)
    exact = exact_scheme_distribution(method, toy.p0.probs, HORIZON, n_steps, 0.5)
    emp = empirical_distribution(samples, 15)
    kl = kl_divergence(exact, emp)
    assert kl < 3 * noise_floor(m, 15)


def test_worker_count_does_not_change_samples(toy):
    grid = make_time_grid(HORIZON, 0.0, 4, 0.5)
    cfg = SolverConfig("theta-trapezoidal", grid, seed=9)
    m = CHUNK_SIZE + 1000  # force two chunks
    s1, t1 = run_sampler(cfg, toy, m, workers=1)
    s2, t2 = run_sampler(cfg, toy, m, workers=2)
    assert np.array_equal(s1, s2)
    assert t1.nfe == t2.nfe and t1.rejected_steps == t2.rejected_steps
    assert t1.negative_intensity_events == t2.negative_intensity_events


def test_nfe_accounting(toy):
    m = 5000
    for method, per_step in (("tau-leaping", 1), ("theta-rk2", 2), ("theta-trapezoidal", 2)):
        grid = make_time_grid(HORIZON, 0.0, 6, 0.5)
        _, tel = run_sampler(SolverConfig(method, grid, seed=1), toy, m)
        assert tel.nfe == per_step * 6 * m


def test_rejection_fraction_decreases_with_steps(toy):
    fracs = []
    for n_steps in (8, 16, 32, 64, 128):
        grid = make_time_grid(HORIZON, 0.0, n_steps, 0.5)
        _, tel = run_sampler(SolverConfig("theta-trapezoidal", grid, seed=2), toy, 50_000)
        fracs.append(tel.rejection_fraction)
    assert all(a > b for a, b in zip(fracs, fracs[1:]))


def test_uniformity_preservation(toy):
    # uniform target: scores are identically one, so every sampler keeps the
    # uniform law (up to sampling error)
    from thetaleap.ctmc import ProbabilityVector

    uniform_model = ToyUniformModel(ProbabilityVector(np.full(15, 1 / 15)), horizon=HORIZON)
    m = 200_000
    for method in ("euler", "tau-leaping", "theta-rk2", "theta-trapezoidal", "uniformization"):
        n_steps = 16 if method == "euler" else 8
        grid = make_time_grid(HORIZON, 0.0, n_steps, 0.5)
        samples, _ = run_sampler(SolverConfig(method, grid, seed=3), uniform_model, m)
        freqs = empirical_distribution(samples, 15).frequencies
        assert np.abs(freqs - 1 / 15).max() < 5 * np.sqrt((1 / 15) * (14 / 15) / m)


def test_euler_batch_step_size_error(toy):
    grid = make_time_grid(HORIZON, 0.0, 2, 0.5)  # dt = 6: probabilities overflow
    with pytest.raises(StepSizeError):
        run_sampler(SolverConfig("euler", grid, seed=4), toy, 1000)


def test_exact_sampler_distribution(toy):
    # uniformization reproduces the target at the estimator's noise floor
    grid = make_time_grid(HORIZON, 0.0, 32, 0.5)
    samples, tel, nfe = run_sampler(
        SolverConfig("uniformization", grid, seed=6), toy, 150_000, collect_nfe=True
    )
    kl = kl_divergence(toy.p0, empirical_distribution(samples, 15))
    assert kl < 5 * noise_floor(150_000, 15)
    assert nfe.var() > 0  # jump counts fluctuate across trajectories
    assert tel.nfe == nfe.sum()
