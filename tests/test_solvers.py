"""Time grids, extrapolation weights and solver configuration, plus the
pinned per-trajectory behaviour of every scheme, checked through
:func:`run_sampler` on tiny constant-rate or time-switched batch models."""

import numpy as np
import pytest

from thetaleap import engine
from thetaleap.errors import BoundViolationError, ConfigError, NumericalError, StepSizeError
from thetaleap.solvers import (
    ERROR_ON_NEGATIVE,
    SolverConfig,
    alpha_coefficients,
    make_time_grid,
    run_sampler,
)

from kernel_oracle import two_state_marginal
from tiny_models import ConstantRates, SwitchedRates, TwoState, drawn_per_trajectory, record_poisson


def _sample(model, method, horizon, m, n_steps=1, theta=0.5, seed=0, **kwargs):
    """Run ``m`` trajectories of ``method`` over [0, horizon] in ``n_steps`` intervals."""
    config = SolverConfig(method, make_time_grid(horizon, 0.0, n_steps, theta), seed, **kwargs)
    return run_sampler(config, model, m, collect_nfe=method == "uniformization")


# time grids


def test_make_time_grid_arithmetic_example():
    g = make_time_grid(12.0, 0.0, 4, 0.5)
    assert np.array_equal(g.points, [0.0, 3.0, 6.0, 9.0, 12.0])
    assert np.array_equal(g.rho, [1.5, 4.5, 7.5, 10.5])
    assert g.kappa == 3.0


def test_make_time_grid_theta_one_sections_at_right_endpoint():
    g = make_time_grid(2.0, 0.0, 4, 1.0)
    assert np.allclose(g.rho, g.points[1:])


def test_make_time_grid_single_interval():
    g = make_time_grid(1.0, 1e-3, 1, 0.5)
    assert g.n_intervals == 1
    assert np.allclose(g.points, [0.0, 1.0 - 1e-3])


def test_make_time_grid_section_point_identity():
    g = make_time_grid(7.3, 0.1, 9, 0.37)
    assert np.abs((g.rho - g.points[:-1]) - 0.37 * g.deltas).max() < 1e-15
    assert np.all(g.rho > g.points[:-1]) and np.all(g.rho <= g.points[1:])


def test_make_time_grid_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        make_time_grid(1.0, 1.0, 4, 0.5)  # delta == T
    with pytest.raises(ConfigError):
        make_time_grid(1.0, 0.0, 0, 0.5)
    with pytest.raises(ConfigError):
        make_time_grid(1.0, 0.0, 4, 0.0)
    with pytest.raises(ConfigError):
        make_time_grid(1.0, 0.0, 4, 0.5, schedule="geometric")


# alpha coefficients


def test_alpha_values_half_and_third():
    assert alpha_coefficients(0.5) == (2.0, 1.0)
    a1, a2 = alpha_coefficients(1 / 3)
    assert abs(a1 - 2.25) < 1e-14 and abs(a2 - 1.25) < 1e-14


def test_alpha_identity_random_thetas():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(0.01, 0.99, size=1000):
        a1, a2 = alpha_coefficients(theta)
        assert abs((a1 - a2) - 1.0) < 1e-12


def test_alpha_rejects_endpoints():
    for theta in (0.0, 1.0):
        with pytest.raises(ConfigError):
            alpha_coefficients(theta)


# tau-leaping


def test_tau_leap_zero_rates_never_moves():
    samples, tel = _sample(ConstantRates([[0.0, 0.0]]), "tau-leaping", 0.5, 1000, seed=1)
    assert np.all(samples == 0) and tel.rejected_steps == 0 and tel.drawn_jumps == 0


def test_tau_leap_single_jump_probabilities():
    # P(applied) = lam*e^-lam, P(reject) = 1 - e^-lam (1+lam) at lam = 0.1
    lam = 0.1
    n = 200_000
    samples, tel = _sample(ConstantRates([[0.0, 1.0]]), "tau-leaping", lam, n, seed=2)
    p_apply = lam * np.exp(-lam)
    p_reject = 1 - np.exp(-lam) * (1 + lam)
    for freq, p in (((samples == 1).mean(), p_apply), (tel.rejected_steps / n, p_reject)):
        se = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 4 * se


def test_tau_leap_rejects_multijump_per_coordinate():
    # two jump slots on one coordinate with enormous rates: always >= 2 draws
    m = 1000
    samples, tel = _sample(ConstantRates([[0.0, 50.0, 50.0]]), "tau-leaping", 1.0, m, seed=3)
    assert np.all(samples == 0) and tel.rejected_steps == m


def test_tau_leap_applies_at_most_one_jump_per_coordinate(monkeypatch):
    # from the recorded per-slot counts: a row with two draws on one
    # coordinate stays put, any other row moves exactly its drawn coordinates
    draws = record_poisson(monkeypatch)
    m = 500
    samples, tel = _sample(ConstantRates([[0.0, 0.8], [0.0, 0.8]]), "tau-leaping", 1.0, m, seed=4)
    per_coord = draws[(engine.TAG_STEP, 0, 0, 0)].reshape(m, 2, 2).sum(axis=2)
    reject = (per_coord > 1).any(axis=1)
    moved = np.where(reject[:, None], 0, per_coord)
    assert 0 < reject.sum() < m and tel.rejected_steps == reject.sum()
    assert np.array_equal(samples, moved[:, 0] + 2 * moved[:, 1])


# euler


def test_euler_zero_rates_stays():
    samples, _ = _sample(ConstantRates([[0.0, 0.0]]), "euler", 1.0, 1000, seed=6)
    assert np.all(samples == 0)


def test_euler_jump_probability():
    n = 100_000
    samples, _ = _sample(ConstantRates([[0.0, 0.25]]), "euler", 1.0, n, seed=7)
    se = np.sqrt(0.25 * 0.75 / n)
    assert abs((samples == 1).mean() - 0.25) < 4 * se


def test_euler_step_too_large():
    with pytest.raises(StepSizeError):
        _sample(ConstantRates([[0.0, 2.0]]), "euler", 1.0, 100, seed=8)


def test_euler_vs_tau_leap_total_variation_is_second_order():
    # Exact one-step laws on a single jump: tau applies with lam*e^-lam,
    # euler with lam; their TV gap lam(1-e^-lam) ~= lam^2 shows up in the
    # empirical frequencies.
    lam = 0.2
    n = 200_000
    model = ConstantRates([[0.0, 1.0]])
    tau, _ = _sample(model, "tau-leaping", lam, n, seed=9)
    eul, _ = _sample(model, "euler", lam, n, seed=10)
    gap = (eul == 1).mean() - (tau == 1).mean()
    expected_gap = lam * (1 - np.exp(-lam))  # = lam^2 + O(lam^3)
    se = np.sqrt(2 * lam / n)
    assert abs(gap - expected_gap) < 4 * se
    assert expected_gap < lam**2 * 1.1


# two-stage schemes


def test_two_stage_zero_intensity_is_identity():
    m = 100
    for method in ("theta-rk2", "theta-trapezoidal"):
        samples, tel = _sample(ConstantRates([[0.0, 0.0]]), method, 1.0, m, n_steps=4, seed=10)
        assert np.all(samples == 0)
        assert tel.nfe == 2 * 4 * m  # two intensity evaluations per interval


def test_rk2_half_theta_uses_intermediate_intensity_only():
    # with theta=1/2 the stage-2 weights are (0, 1); a jump whose rate
    # vanishes at the section point can never fire in stage 2, although
    # stage 1 draws it
    model = SwitchedRates([[0.0, 2.0]], switch=0.25)
    samples, tel = _sample(model, "theta-rk2", 1.0, 200, n_steps=2, seed=11)
    assert tel.drawn_jumps > 0
    assert np.all(samples == 0)


def test_trapezoidal_constant_intensity_total_counts_poisson(monkeypatch):
    # alpha1 - alpha2 = 1 makes the two-stage draw Poisson(mu * dt) overall
    mu, dt, theta = 0.8, 1.0, 0.3
    n = 30_000
    draws = record_poisson(monkeypatch)
    _, tel = _sample(ConstantRates([[mu]]), "theta-trapezoidal", dt, n, theta=theta, seed=12)
    counts = drawn_per_trajectory(draws)
    assert counts.size == n and counts.sum() == tel.drawn_jumps
    lam = mu * dt
    mean, var = counts.mean(), counts.var()
    assert abs(mean - lam) < 4 * np.sqrt(lam / n)
    assert abs(var - lam) < 5 * np.sqrt(2 * lam**2 / n) + 0.01


def test_trapezoidal_rejects_theta_one():
    with pytest.raises(ConfigError):
        _sample(ConstantRates([[0.0, 0.5]]), "theta-trapezoidal", 1.0, 10, n_steps=2, theta=1.0)


def test_negative_intensity_clamping_and_telemetry():
    # stage-1 rate positive, section-point rate zero: the trapezoidal
    # extrapolation alpha1*0 - alpha2*mu is negative on every row of the
    # first interval and must be clamped, not drawn; the second interval has
    # no rate at either stage and adds no terms
    m = 100
    model = SwitchedRates([[0.0, 1.0]], switch=0.1)
    _, tel = _sample(model, "theta-trapezoidal", 1.0, m, n_steps=2, seed=13)
    assert tel.negative_intensity_events == tel.total_intensity_terms == m


def test_error_on_negative_policy_raises():
    model = SwitchedRates([[0.0, 1.0]], switch=0.1)
    with pytest.raises(NumericalError):
        _sample(model, "theta-trapezoidal", 1.0, 100, n_steps=2, seed=14, clamp_policy=ERROR_ON_NEGATIVE)


def test_solver_config_validation_and_warning():
    grid = make_time_grid(1.0, 0.0, 2, 0.8)
    with pytest.raises(ConfigError):
        SolverConfig("unknown-method", grid, seed=0)
    with pytest.raises(ConfigError):
        SolverConfig("theta-trapezoidal", make_time_grid(1.0, 0.0, 2, 1.0), seed=0)
    with pytest.warns(UserWarning):
        SolverConfig("theta-rk2", grid, seed=0)


# uniformization


def test_uniformization_two_state_matches_analytic_marginal():
    a, b = 0.3, 0.7
    n = 100_000
    samples, _, _ = _sample(TwoState(a, b), "uniformization", 1.0, n, seed=15)
    want = two_state_marginal(1.0, a, b, 1.0)[0]
    se = np.sqrt(want * (1 - want) / n)
    assert abs((samples == 0).mean() - want) < 3 * se


def test_uniformization_candidate_count_mean():
    # the bound equals the total rate, so every candidate is a jump
    lam, n = 2.0, 20_000
    _, tel, nfe = _sample(ConstantRates([[0.0, lam]], bound=lam), "uniformization", 1.5, n, seed=16)
    assert tel.nfe == nfe.sum()
    assert abs(nfe.mean() - lam * 1.5) < 4 * np.sqrt(lam * 1.5 / n)
    assert abs(tel.drawn_jumps / n - lam * 1.5) < 4 * np.sqrt(lam * 1.5 / n)


def test_uniformization_bound_violation_raises():
    model = ConstantRates([[0.0, 2.0]], bound=1.0)  # declared bound is a lie
    with pytest.raises(BoundViolationError):
        _sample(model, "uniformization", 1.0, 50, seed=17)
