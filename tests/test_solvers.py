"""Time grids, extrapolation weights and solver configuration, plus the
pinned per-trajectory behaviour of every scheme, checked through
:func:`thetaleap.engine.run_sampler` on tiny constant-rate or time-switched batch models."""

from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from thetaleap import engine
from thetaleap.engine import SolverConfig, StepTelemetry, TimeGrid, alpha_coefficients
from thetaleap.errors import BoundViolationError, ConfigError, NumericalError, StepSizeError

from kernel_oracle import two_state_marginal
from tiny_models import (
    ConstantRates,
    RampRates,
    RecordingSwitched,
    SwitchedRates,
    TwoState,
    drawn_per_trajectory,
    record_poisson,
)


def _sample(model, method, horizon, m, n_steps=1, theta=0.5, seed=0):
    """Run ``m`` trajectories of ``method`` over [0, horizon] in ``n_steps`` intervals."""
    config = SolverConfig(method, TimeGrid(horizon, 0.0, n_steps, theta), seed)
    return engine.run_sampler(config, model, m)


# time grids


def _intervals(g):
    """Columns (s_n, dt_n, rho_n) of every interval, as the engine reads them."""
    return np.array([g.interval(n) for n in range(g.n_intervals)]).T


def test_make_time_grid_arithmetic_example():
    g = TimeGrid(12.0, 0.0, 4, 0.5)
    assert np.array_equal(g.points, [0.0, 3.0, 6.0, 9.0, 12.0])
    s, dt, rho = _intervals(g)
    assert np.array_equal(s, [0.0, 3.0, 6.0, 9.0])
    assert np.array_equal(rho, [1.5, 4.5, 7.5, 10.5])
    assert np.array_equal(dt, [3.0, 3.0, 3.0, 3.0])
    assert not g.points.flags.writeable


def test_make_time_grid_theta_one_sections_at_right_endpoint():
    g = TimeGrid(2.0, 0.0, 4, 1.0)
    assert np.allclose(_intervals(g)[2], g.points[1:])


def test_make_time_grid_single_interval():
    g = TimeGrid(1.0, 1e-3, 1, 0.5)
    assert g.n_intervals == 1
    assert np.allclose(g.points, [0.0, 1.0 - 1e-3])
    s, dt, rho = g.interval(0)
    assert s == 0.0 and dt == g.points[1] and rho == 0.5 * g.points[1]


def test_make_time_grid_section_point_identity():
    g = TimeGrid(7.3, 0.1, 9, 0.37)
    s, dt, rho = _intervals(g)
    assert np.array_equal(s, g.points[:-1]) and np.array_equal(dt, np.diff(g.points))
    assert np.abs((rho - s) - 0.37 * dt).max() < 1e-15
    assert np.all(rho > s) and np.all(rho <= g.points[1:])


def test_make_time_grid_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        TimeGrid(1.0, 1.0, 4, 0.5)  # delta == T
    with pytest.raises(ConfigError):
        TimeGrid(1.0, 0.0, 0, 0.5)
    with pytest.raises(ConfigError):
        TimeGrid(1.0, -0.1, 4, 0.5)
    with pytest.raises(ConfigError):
        TimeGrid(float("inf"), 0.0, 4, 0.5)
    # above the cap the grid is refused before any array is built
    with pytest.raises(ConfigError, match=f"N={engine.MAX_INTERVALS + 1}"):
        TimeGrid(1.0, 0.0, engine.MAX_INTERVALS + 1, 0.5)
    for theta in (0.0, 1.5):
        with pytest.raises(ConfigError):
            TimeGrid(1.0, 0.0, 4, theta)


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
    samples, tel, _ = _sample(ConstantRates([[0.0, 0.0]]), "tau-leaping", 0.5, 1000, seed=1)
    assert np.all(samples == 0) and tel.rejected_steps == 0 and tel.drawn_jumps == 0


def test_tau_leap_single_jump_probabilities():
    # P(applied) = lam*e^-lam, P(reject) = 1 - e^-lam (1+lam) at lam = 0.1
    lam = 0.1
    n = 200_000
    samples, tel, _ = _sample(ConstantRates([[0.0, 1.0]]), "tau-leaping", lam, n, seed=2)
    p_apply = lam * np.exp(-lam)
    p_reject = 1 - np.exp(-lam) * (1 + lam)
    for freq, p in (((samples == 1).mean(), p_apply), (tel.rejected_steps / n, p_reject)):
        se = np.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 4 * se


def test_tau_leap_rejects_multijump_per_coordinate():
    # two jump slots on one coordinate with enormous rates: always >= 2 draws
    m = 1000
    samples, tel, _ = _sample(ConstantRates([[0.0, 50.0, 50.0]]), "tau-leaping", 1.0, m, seed=3)
    assert np.all(samples == 0) and tel.rejected_steps == m


def test_tau_leap_applies_at_most_one_jump_per_coordinate(monkeypatch):
    # from the recorded per-slot counts: a row with two draws on one
    # coordinate stays put, any other row moves exactly its drawn coordinates
    draws = record_poisson(monkeypatch)
    m = 500
    samples, tel, _ = _sample(ConstantRates([[0.0, 0.8], [0.0, 0.8]]), "tau-leaping", 1.0, m, seed=4)
    per_coord = draws[0][0].reshape(m, 2, 2).sum(axis=2)
    reject = (per_coord > 1).any(axis=1)
    moved = np.where(reject[:, None], 0, per_coord)
    assert 0 < reject.sum() < m and tel.rejected_steps == reject.sum()
    assert np.array_equal(samples, moved[:, 0] + 2 * moved[:, 1])


# euler


def test_euler_zero_rates_stays():
    samples, _, _ = _sample(ConstantRates([[0.0, 0.0]]), "euler", 1.0, 1000, seed=6)
    assert np.all(samples == 0)


def test_euler_jump_probability():
    n = 100_000
    samples, _, _ = _sample(ConstantRates([[0.0, 0.25]]), "euler", 1.0, n, seed=7)
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
    tau, _, _ = _sample(model, "tau-leaping", lam, n, seed=9)
    eul, _, _ = _sample(model, "euler", lam, n, seed=10)
    gap = (eul == 1).mean() - (tau == 1).mean()
    expected_gap = lam * (1 - np.exp(-lam))  # = lam^2 + O(lam^3)
    se = np.sqrt(2 * lam / n)
    assert abs(gap - expected_gap) < 4 * se
    assert expected_gap < lam**2 * 1.1


# two-stage schemes


def test_two_stage_zero_intensity_is_identity():
    m = 100
    for method in ("theta-rk2", "theta-trapezoidal"):
        samples, tel, _ = _sample(ConstantRates([[0.0, 0.0]]), method, 1.0, m, n_steps=4, seed=10)
        assert np.all(samples == 0)
        assert tel.nfe == 2 * 4 * m  # two intensity evaluations per interval


def test_rk2_half_theta_uses_intermediate_intensity_only():
    # with theta=1/2 the stage-2 weights are (0, 1); a jump whose rate
    # vanishes at the section point can never fire in stage 2, although
    # stage 1 draws it
    model = SwitchedRates([[0.0, 2.0]], switch=0.25)
    samples, tel, _ = _sample(model, "theta-rk2", 1.0, 200, n_steps=2, seed=11)
    assert tel.drawn_jumps > 0
    assert np.all(samples == 0)


def test_trapezoidal_constant_intensity_total_counts_poisson(monkeypatch):
    # alpha1 - alpha2 = 1 makes the two-stage draw Poisson(mu * dt) overall
    mu, dt, theta = 0.8, 1.0, 0.3
    n = 30_000
    draws = record_poisson(monkeypatch)
    _, tel, _ = _sample(ConstantRates([[mu]]), "theta-trapezoidal", dt, n, theta=theta, seed=12)
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
    _, tel, _ = _sample(model, "theta-trapezoidal", 1.0, m, n_steps=2, seed=13)
    assert tel.negative_intensity_events == tel.total_intensity_terms == m


def test_error_on_negative_policy_raises(monkeypatch):
    # a negative extrapolated intensity never reaches the Poisson draw, which
    # raises a NumericalError on one: stage 2 draws from the clamped zero
    draws = record_poisson(monkeypatch)
    model = SwitchedRates([[0.0, 1.0]], switch=0.1)
    _, tel, _ = _sample(model, "theta-trapezoidal", 1.0, 100, n_steps=2, seed=14)
    assert tel.negative_intensity_events == 100
    assert np.all(draws[0][1] == 0)  # chunk 0's second draw: interval 0, stage 2


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_bad_rate_at_the_poisson_draw_is_a_numerical_error(bad):
    # the leap hands rates straight to the Poisson draw, which rejects them
    with pytest.raises(NumericalError, match="clamping failed upstream"):
        _sample(ConstantRates([[0.0, bad]]), "tau-leaping", 1.0, 10)


def test_solver_config_validation_and_warning():
    grid = TimeGrid(1.0, 0.0, 2, 0.8)
    with pytest.raises(ConfigError):
        SolverConfig("unknown-method", grid, seed=0)
    with pytest.raises(ConfigError):
        SolverConfig("theta-trapezoidal", TimeGrid(1.0, 0.0, 2, 1.0), seed=0)
    with pytest.warns(UserWarning) as warned:
        SolverConfig("theta-rk2", grid, seed=0)
    assert warned[0].filename == __file__  # attributed to the caller


def test_step_telemetry_merge_sums_every_counter():
    names = [f.name for f in fields(StepTelemetry)]
    a = StepTelemetry(*range(1, len(names) + 1))
    b = StepTelemetry(*(10 ** (k + 1) for k in range(len(names))))
    a.merge(b)
    assert [getattr(a, n) for n in names] == [k + 1 + 10 ** (k + 1) for k in range(len(names))]


# uniformization


def test_uniformization_two_state_matches_analytic_marginal():
    # 4 SE on 180k trajectories: an absolute bar of 0.0037, false alarms 6e-5
    a, b = 0.3, 0.7
    n = 180_000
    samples, _, _ = _sample(TwoState(a, b), "uniformization", 1.0, n, seed=15)
    want = two_state_marginal(1.0, a, b, 1.0)[0]
    se = np.sqrt(want * (1 - want) / n)
    assert abs((samples == 0).mean() - want) < 4 * se


def test_uniformization_candidate_count_mean():
    # the bound equals the total rate, so every candidate is a jump
    lam, n = 2.0, 20_000
    _, tel, nfe = _sample(ConstantRates([[0.0, lam]], bound=lam), "uniformization", 1.5, n, seed=16)
    assert tel.nfe == nfe.sum()
    assert abs(nfe.mean() - lam * 1.5) < 4 * np.sqrt(lam * 1.5 / n)
    assert abs(tel.drawn_jumps / n - lam * 1.5) < 4 * np.sqrt(lam * 1.5 / n)


def test_uniformization_candidate_times_are_sorted_uniforms():
    # every rate evaluation is recorded with its trajectory id: each
    # trajectory's candidates come in increasing time, one per counted
    # evaluation, and pooled over trajectories they are uniform in each
    # window; the terminal law is the exact one of the switched chain
    lam, switch, windows, n = 2.0, 0.6, 4, 20_000
    model = RecordingSwitched(lam, switch)
    samples, tel, nfe = _sample(model, "uniformization", 1.0, n, n_steps=windows, seed=18)
    ids = np.concatenate([c[0] for c in model.calls])
    times = np.concatenate([c[1] for c in model.calls])
    order = np.argsort(ids, kind="stable")  # keeps each trajectory's call order
    ids, times = ids[order], times[order]
    assert np.array_equal(np.bincount(ids, minlength=n), nfe) and tel.nfe == ids.size
    assert np.all(np.diff(times)[ids[1:] == ids[:-1]] > 0.0)
    edges = TimeGrid(1.0, 0.0, windows, 0.5).points
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = times[(times > lo) & (times <= hi)]
        assert stats.kstest(inside, "uniform", args=(lo, hi - lo)).pvalue > 1e-3
    want = 1.0 - np.exp(-lam * switch)
    se = np.sqrt(want * (1 - want) / n)
    assert abs(samples.mean() - want) < 4 * se


def _ramp_envelope(a, edges):
    """Piece edges, bounds a * piece_hi and cumulative masses of each window's envelope."""
    k = engine.ENVELOPE_PIECES
    for lo, hi in zip(edges[:-1], edges[1:]):
        piece_edges = lo + (hi - lo) * np.arange(k + 1) / k
        mass = a * piece_edges[1:] * np.diff(piece_edges)
        yield lo, hi, piece_edges, np.concatenate([[0.0], np.cumsum(mass)])


def test_uniformization_candidates_follow_the_piecewise_envelope():
    # on the ramp a * s the envelope is a * piece_hi on each of the
    # ENVELOPE_PIECES pieces of a window, so pooled candidate times have
    # the envelope's piecewise-linear CDF there, not a uniform one
    a, windows, n = 4.0, 4, 20_000
    model = RampRates(a)
    _, tel, nfe = _sample(model, "uniformization", 1.0, n, n_steps=windows, seed=19)
    ids = np.concatenate([c[0] for c in model.calls])
    times = np.concatenate([c[1] for c in model.calls])
    assert np.array_equal(np.bincount(ids, minlength=n), nfe) and tel.nfe == ids.size
    edges = TimeGrid(1.0, 0.0, windows, 0.5).points
    for lo, hi, piece_edges, cum in _ramp_envelope(a, edges):
        inside = times[(times > lo) & (times <= hi)]
        envelope_cdf = np.interp(inside, piece_edges, cum / cum[-1])
        assert stats.kstest(envelope_cdf, "uniform").pvalue > 1e-3


def test_uniformization_ramp_nfe_is_the_envelope_mass_and_the_law_is_exact():
    a, windows, n = 4.0, 4, 20_000
    samples, _, nfe = _sample(RampRates(a), "uniformization", 1.0, n, n_steps=windows, seed=20)
    edges = TimeGrid(1.0, 0.0, windows, 0.5).points
    envelope = sum(cum[-1] for *_, cum in _ramp_envelope(a, edges))
    window_max = float(np.sum(a * edges[1:] * np.diff(edges)))
    se = np.sqrt(envelope / n)  # the NFE is Poisson(envelope mass)
    assert abs(nfe.mean() - envelope) < 4 * se
    assert envelope + 8 * se < window_max
    want = 1.0 - np.exp(-a / 2.0)
    se = np.sqrt(want * (1 - want) / n)
    assert abs(samples.mean() - want) < 4 * se


def test_uniformization_bound_violation_raises():
    model = ConstantRates([[0.0, 2.0]], bound=1.0)  # declared bound is a lie
    with pytest.raises(BoundViolationError):
        _sample(model, "uniformization", 1.0, 50, seed=17)


class _OnePieceLies(ConstantRates):
    """The true total rate as bound on every envelope piece but one, which gets half of it."""

    def total_bound(self, s_lo, s_hi):
        bounds = np.full(np.shape(s_hi), self.bound)
        bounds[0, 5] /= 2.0
        return bounds


def test_uniformization_bound_violation_on_one_piece_raises():
    # 2000 trajectories put about 2000 * 2 / 16 = 250 candidates on the
    # lying piece, each with total rate 2 > 1
    model = _OnePieceLies([[0.0, 2.0]])
    with pytest.raises(BoundViolationError, match=r"exceeds declared bound 1 on piece \(0.3125, 0.375\]"):
        _sample(model, "uniformization", 1.0, 2000, seed=17)
    # told the truth on every piece, the same run passes
    _sample(ConstantRates([[0.0, 2.0]]), "uniformization", 1.0, 2000, seed=17)
