"""The toy's target as a d = 1 table, its forward marginal and reverse rates.

The marginal is checked against ``scipy.linalg.expm`` of the uniform
all-to-all generator, built here independently of the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from thetaleap.engine import SolverConfig, TimeGrid, run_sampler
from thetaleap.errors import ConfigError, NumericalError
from thetaleap.masked import TargetTable, load_target_table
from thetaleap.models import ToyUniformModel

from kernel_oracle import toy_reverse_rates, two_state_marginal


def _generator(S):
    """Uniform all-to-all generator (1/S) E - I; entry (y, x) is the rate from x to y."""
    return np.full((S, S), 1.0 / S) - np.eye(S)


def _toy(probs, horizon=1.0):
    return ToyUniformModel(TargetTable(probs), horizon=horizon)


def _point_mass(S, x=0):
    p = np.zeros(S)
    p[x] = 1.0
    return p


def _rate_of_change(model, h=1e-7):
    """d p_t / dt at forward time t = 0, one-sided over a step of h."""
    return (model.marginal(model.horizon - h) - model.p0.probs) / h


# the uniform generator, seen through the rate of change of the marginal at t = 0


def test_uniform_rate_matrix_s2():
    # from a point mass on state 0, mass leaves at rate 1/2 and arrives at rate 1/2
    assert np.allclose(_rate_of_change(_toy(_point_mass(2))), [-0.5, 0.5], atol=1e-6)


def test_uniform_rate_matrix_s15_diagonal():
    assert abs(_rate_of_change(_toy(_point_mass(15, 4)))[4] - (1 / 15 - 1)) < 1e-6


def test_uniform_rate_matrix_columns_sum_to_zero():
    # columns of the generator sum to zero: the marginal keeps unit mass
    rng = np.random.default_rng(2)
    for S in (2, 3, 7, 40):
        w = rng.random(S)
        model = _toy(w / w.sum(), horizon=12.0)
        assert np.abs(model.marginal(np.linspace(0.0, 12.0, 9)).sum(axis=1) - 1.0).max() < 1e-12


def test_uniform_rate_matrix_rejects_small_s(tmp_path):
    with pytest.raises(ConfigError, match="target table mass"):
        TargetTable(np.array([]))
    path = tmp_path / "t.txt"
    path.write_text("# d=1 S=0\n")
    with pytest.raises(ConfigError, match="out of range"):
        load_target_table(path)


def test_probability_vector_validation():
    with pytest.raises(ConfigError, match="target table mass"):
        TargetTable(np.array([0.6, 0.6]))
    with pytest.raises(ConfigError, match="negative entries"):
        TargetTable(np.array([-0.1, 1.1]))
    # NaN fails every comparison, so the sign and mass checks alone let it through
    for bad in ([0.5, np.nan], [np.nan, np.nan], [1.0, np.inf], [np.inf, -np.inf]):
        with pytest.raises(ConfigError, match="NaN or infinite"):
            TargetTable(np.array(bad))


def _reverse_generator(model, s):
    """The toy's reverse rates with the diagonal set to minus each row's total."""
    g = model.rates_batch(s, np.arange(model.S))
    return g - np.diag(g.sum(axis=1))


def test_rate_matrix_validation():
    # the reverse rates are a valid generator: nonnegative jump rates, no
    # self-jumps, rows summing to zero once the diagonal holds the exit rate
    model = _toy([0.5, 0.3, 0.2 - 1e-9, 1e-9], horizon=3.0)
    for s in (0.0, 1.5, 2.9, 3.0):
        rates = model.rates_batch(s, np.arange(4))
        assert np.all(rates >= 0.0) and np.all(np.diag(rates) == 0.0)
        assert np.abs(_reverse_generator(model, s).sum(axis=1)).max() < 1e-9 * rates.max()


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_random_rate_matrix_construction_properties(S, seed):
    # the reverse generator carries the marginal backward in time:
    # p_{T-s} G(s) = d/ds p_{T-s} = p_{T-s} - 1/S
    rng = np.random.default_rng(seed)
    w = rng.random(S) + 1e-3
    model = _toy(w / w.sum(), horizon=2.0)
    s = rng.uniform(0.0, 2.0)
    p = model.marginal(s)
    assert np.abs(p @ _reverse_generator(model, s) - (p - 1.0 / S)).max() < 1e-12


# the closed-form marginal


def test_closed_marginal_t_zero_identity():
    model = _toy([0.3, 0.2, 0.5], horizon=4.0)
    assert np.array_equal(model.marginal(4.0), model.p0.probs)


def test_closed_marginal_uniform_fixed_point():
    model = _toy(np.full(15, 1 / 15), horizon=60.0)
    for t in (0.5, 3.0, 50.0):
        assert np.abs(model.marginal(60.0 - t) - 1 / 15).max() < 1e-15


def test_closed_marginal_point_mass_t12():
    # direct evaluation of the closed form for p0 = delta_0, S = 15
    out = _toy(_point_mass(15), horizon=12.0).marginal(0.0)
    expected_peak = (1 - np.exp(-12.0)) / 15 + np.exp(-12.0)
    expected_rest = (1 - np.exp(-12.0)) / 15
    assert abs(out[0] - expected_peak) < 1e-15
    assert np.abs(out[1:] - expected_rest).max() < 1e-15


def test_closed_marginal_rejects_negative_time():
    # the sampler never asks for a negative forward time: neither the model
    # nor the grid reaches past the horizon
    with pytest.raises(ConfigError):
        _toy([1.0, 0.0], horizon=-0.1)
    # a NaN or infinite horizon fails as TimeGrid's does, not at the first rate call
    for horizon in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            _toy([1.0, 0.0], horizon=horizon)
    with pytest.raises(ConfigError):
        TimeGrid(1.0, -0.1, 4, 0.5)


def test_general_marginal_identity_at_t_zero():
    model = _toy([0.25, 0.75])
    want = expm(0.0 * _generator(2)) @ model.p0.probs
    assert np.abs(model.marginal(1.0) - want).max() < 1e-15


def test_general_marginal_matches_closed_form_uniform_toy():
    rng = np.random.default_rng(7)
    w = rng.random(15)
    model = _toy(w / w.sum(), horizon=12.0)
    for t in (0.1, 1.0, 12.0):
        want = expm(t * _generator(15)) @ model.p0.probs
        assert np.abs(model.marginal(12.0 - t) - want).max() < 1e-10


def test_general_marginal_matches_two_state_eigen_solution():
    # on two states the uniform generator is the chain with rates 1/2 each way
    model = _toy([0.9, 0.1], horizon=5.0)
    for t in (0.2, 1.0, 5.0):
        want = two_state_marginal(0.9, 0.5, 0.5, t)
        assert np.abs(model.marginal(5.0 - t) - want).max() < 1e-12
        assert np.abs(expm(t * _generator(2)) @ model.p0.probs - want).max() < 1e-12


def test_semigroup_property_random_generators():
    # evolving for t and then for u is evolving for t + u, checked against
    # expm at the same forward times
    rng = np.random.default_rng(11)
    for _ in range(10):
        S = int(rng.integers(2, 6))
        w = rng.random(S)
        model = _toy(w / w.sum(), horizon=4.0)
        t, u = rng.random() * 2, rng.random() * 2
        direct = model.marginal(4.0 - (t + u))
        chained = _toy(model.marginal(4.0 - t), horizon=4.0).marginal(4.0 - u)
        assert np.abs(direct - chained).max() < 1e-12
        assert np.abs(direct - expm((t + u) * _generator(S)) @ model.p0.probs).max() < 1e-10


# score ratios and reverse intensities, as computed by ToyUniformModel.rates_batch:
# the rate from y to w at reverse time s is p_t(w) / (S p_t(y)) with t = T - s


def _all_rows(model, s):
    return model.rates_batch(s, np.arange(model.S))


def test_score_uniform_is_all_ones():
    model = _toy(np.full(5, 0.2))
    for s in (0.0, 0.5, 1.0):
        assert np.array_equal(5 * _all_rows(model, s), 1.0 - np.eye(5))


def test_score_hand_ratios():
    # at s = T the marginal is the target itself
    scores = 2 * _all_rows(_toy([0.2, 0.8]), 1.0)
    assert np.allclose(scores, [[0.0, 4.0], [0.25, 0.0]])


def test_score_zero_mass_raises():
    with pytest.raises(NumericalError, match="zero-mass state"):
        _toy([0.0, 1.0]).rates_batch(1.0, np.array([0]))
    # the per-row path raises the same error for a row on a zero-mass state,
    # rather than returning NaN rates; an empty batch has no such row
    model = _toy([0.5, 0.5, 0.0], horizon=2.0)
    with pytest.raises(NumericalError, match="reverse time 2 has a zero-mass state"):
        model.rates_batch(np.array([2.0]), np.array([2]))
    assert model.rates_batch(np.array([]), np.array([], dtype=np.int64)).shape == (0, 3)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1), st.floats(0.1, 100.0))
def test_score_scale_invariance(S, seed, c):
    rng = np.random.default_rng(seed)
    w = rng.random(S) + 1e-3
    p, scaled = _toy(w / w.sum()), _toy((c * w) / (c * w).sum())
    for s in (0.3, 1.0):
        assert np.allclose(_all_rows(p, s), _all_rows(scaled, s), rtol=1e-12)


def test_score_base_state_exactly_one():
    # the base state's own ratio is 1 and carries no jump: the diagonal is exactly zero
    rng = np.random.default_rng(3)
    w = rng.random(9) + 1e-6
    model = _toy(w / w.sum())
    for s in (0.0, 0.7, 1.0):
        assert np.all(np.diag(_all_rows(model, s)) == 0.0)


def test_backward_intensity_uniform_case():
    model = _toy(np.full(15, 1 / 15), horizon=12.0)
    for row in _all_rows(model, 6.0):
        assert np.count_nonzero(row) == 14
        assert np.abs(row[row > 0] - 1 / 15).max() < 1e-15


def test_backward_intensity_matches_score_ratio_formula():
    rng = np.random.default_rng(5)
    w = rng.random(15)
    model = _toy(w / w.sum(), horizon=12.0)
    for s in (0.0, 6.0, 11.9, 12.0):
        want = toy_reverse_rates(model.p0.probs, 12.0, s)
        assert np.abs(_all_rows(model, s) - want).max() < 1e-14


def test_backward_intensity_zero_mass_target_rate_zero():
    # the rate toward a zero-mass target state vanishes as t -> 0
    model = _toy([0.5, 0.5, 0.0])
    rates = [model.rates_batch(1.0 - t, np.array([0]))[0, 2] for t in (1e-3, 1e-6, 1e-9)]
    assert all(a > b > 0.0 for a, b in zip(rates, rates[1:])) and rates[-1] < 1e-9


def test_backward_intensity_nonnegative_finite_for_positive_marginals():
    rng = np.random.default_rng(9)
    w = rng.random(8) + 1e-4
    model = _toy(w / w.sum())
    for s in (0.0, 0.5, 1.0):
        vals = _all_rows(model, s)
        assert np.all(vals >= 0) and np.all(np.isfinite(vals))


def test_backward_intensity_infinite_score_raises():
    # theta = 1 puts the section point at s = T, where a zero-mass target
    # state has an infinite score: the engine raises a typed error naming the
    # trajectories instead of drawing from an infinite rate
    with pytest.warns(UserWarning):
        config = SolverConfig("theta-rk2", TimeGrid(1.0, 0.0, 2, 1.0), seed=0)
    with pytest.raises(NumericalError, match=r"zero-mass state.*\[trajectories 0\.\.99\]"):
        run_sampler(config, _toy([0.5, 0.5, 0.0]), 100)


def test_total_intensity():
    # total rate out of y is (1 - p_t(y)) / (S p_t(y)); 14/15 on the uniform toy
    assert np.abs(_all_rows(_toy(np.full(15, 1 / 15)), 0.5).sum(axis=1) - 14 / 15).max() < 1e-12
    rng = np.random.default_rng(8)
    w = rng.random(6) + 1e-3
    model = _toy(w / w.sum())
    p = model.marginal(0.4)
    assert np.allclose(_all_rows(model, 0.4).sum(axis=1), (1 - p) / (6 * p), rtol=1e-12)
