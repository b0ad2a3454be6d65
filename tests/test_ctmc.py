import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetaleap.ctmc import (
    ProbabilityVector,
    RateMatrix,
    build_uniform_rate_matrix,
    forward_marginal_closed,
    forward_marginal_general,
)
from thetaleap.errors import ConfigError, SingularScoreError
from thetaleap.models import ToyUniformModel
from thetaleap.solvers import SolverConfig, make_time_grid, run_sampler

from kernel_oracle import toy_reverse_rates, two_state_marginal


def test_uniform_rate_matrix_s2():
    q = build_uniform_rate_matrix(2).entries
    assert q[0, 1] == q[1, 0] == 0.5
    assert q[0, 0] == q[1, 1] == -0.5


def test_uniform_rate_matrix_s15_diagonal():
    q = build_uniform_rate_matrix(15).entries
    assert np.allclose(np.diag(q), 1 / 15 - 1)


def test_uniform_rate_matrix_columns_sum_to_zero():
    for S in (2, 3, 7, 40):
        q = build_uniform_rate_matrix(S).entries
        assert np.abs(q.sum(axis=0)).max() < 1e-12


def test_uniform_rate_matrix_rejects_small_s():
    with pytest.raises(ConfigError):
        build_uniform_rate_matrix(1)


def test_probability_vector_validation():
    with pytest.raises(ConfigError):
        ProbabilityVector(np.array([0.6, 0.6]))
    with pytest.raises(ConfigError):
        ProbabilityVector(np.array([-0.1, 1.1]))


def test_rate_matrix_validation():
    with pytest.raises(ConfigError):
        RateMatrix(np.array([[0.5, 0.2], [0.5, -0.3]]))  # columns do not sum to 0
    with pytest.raises(ConfigError):
        RateMatrix(np.array([[-1.0, -0.5], [1.0, 0.5]]))  # negative off-diagonal


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_random_rate_matrix_construction_properties(S, seed):
    rng = np.random.default_rng(seed)
    off = rng.random((S, S))
    np.fill_diagonal(off, 0.0)
    q = off.copy()
    q[np.arange(S), np.arange(S)] = -off.sum(axis=0)
    rm = RateMatrix(q)
    assert np.abs(rm.entries.sum(axis=0)).max() < 1e-12
    hollow = rm.off_diagonal()
    assert hollow.min() >= 0


def test_closed_marginal_t_zero_identity():
    p0 = ProbabilityVector(np.array([0.3, 0.2, 0.5]))
    assert np.array_equal(forward_marginal_closed(p0, 0.0).probs, p0.probs)


def test_closed_marginal_uniform_fixed_point():
    p0 = ProbabilityVector(np.full(15, 1 / 15))
    for t in (0.5, 3.0, 50.0):
        assert np.abs(forward_marginal_closed(p0, t).probs - 1 / 15).max() < 1e-15


def test_closed_marginal_point_mass_t12():
    # direct evaluation of the closed form for p0 = delta_0, S = 15
    p0 = np.zeros(15)
    p0[0] = 1.0
    out = forward_marginal_closed(ProbabilityVector(p0), 12.0).probs
    expected_peak = (1 - np.exp(-12.0)) / 15 + np.exp(-12.0)
    expected_rest = (1 - np.exp(-12.0)) / 15
    assert abs(out[0] - expected_peak) < 1e-15
    assert np.abs(out[1:] - expected_rest).max() < 1e-15


def test_closed_marginal_rejects_negative_time():
    p0 = ProbabilityVector(np.array([1.0, 0.0]))
    with pytest.raises(ConfigError):
        forward_marginal_closed(p0, -0.1)


def test_general_marginal_identity_at_t_zero():
    p0 = ProbabilityVector(np.array([0.25, 0.75]))
    q = build_uniform_rate_matrix(2)
    assert np.abs(forward_marginal_general(p0, q, 0.0).probs - p0.probs).max() < 1e-15


def test_general_marginal_matches_closed_form_uniform_toy():
    rng = np.random.default_rng(7)
    w = rng.random(15)
    p0 = ProbabilityVector(w / w.sum())
    q = build_uniform_rate_matrix(15)
    for t in (0.1, 1.0, 12.0):
        a = forward_marginal_closed(p0, t).probs
        b = forward_marginal_general(p0, q, t).probs
        assert np.abs(a - b).max() < 1e-10


def test_general_marginal_matches_two_state_eigen_solution():
    a, b = 0.7, 0.4  # rates 0->1 and 1->0
    q = RateMatrix(np.array([[-a, b], [a, -b]]))
    p0 = ProbabilityVector(np.array([0.9, 0.1]))
    for t in (0.2, 1.0, 5.0):
        got = forward_marginal_general(p0, q, t).probs
        want = two_state_marginal(0.9, a, b, t)
        assert np.abs(got - want).max() < 1e-10


def test_semigroup_property_random_generators():
    rng = np.random.default_rng(11)
    for _ in range(10):
        S = int(rng.integers(2, 6))
        off = rng.random((S, S)) * 0.5
        np.fill_diagonal(off, 0.0)
        q = off.copy()
        q[np.arange(S), np.arange(S)] = -off.sum(axis=0)
        Q = RateMatrix(q)
        w = rng.random(S)
        p0 = ProbabilityVector(w / w.sum())
        s, t = rng.random() * 2, rng.random() * 2
        direct = forward_marginal_general(p0, Q, s + t).probs
        chained = forward_marginal_general(forward_marginal_general(p0, Q, s), Q, t).probs
        assert np.abs(direct - chained).max() < 1e-9


# score ratios and reverse intensities, as computed by ToyUniformModel.rates_batch:
# the rate from y to w at reverse time s is p_t(w) / (S p_t(y)) with t = T - s


def _toy(probs, horizon=1.0):
    return ToyUniformModel(ProbabilityVector(np.asarray(probs, dtype=float)), horizon=horizon)


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
    with pytest.raises(SingularScoreError):
        _toy([0.0, 1.0]).rates_batch(1.0, np.array([0]))


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
        config = SolverConfig("theta-rk2", make_time_grid(1.0, 0.0, 2, 1.0), seed=0)
    with pytest.raises(SingularScoreError, match="trajectories"):
        run_sampler(config, _toy([0.5, 0.5, 0.0]), 100)


def test_total_intensity():
    # total rate out of y is (1 - p_t(y)) / (S p_t(y)); 14/15 on the uniform toy
    assert np.abs(_all_rows(_toy(np.full(15, 1 / 15)), 0.5).sum(axis=1) - 14 / 15).max() < 1e-12
    rng = np.random.default_rng(8)
    w = rng.random(6) + 1e-3
    model = _toy(w / w.sum())
    p = forward_marginal_closed(model.p0, 1.0 - 0.4).probs
    assert np.allclose(_all_rows(model, 0.4).sum(axis=1), (1 - p) / (6 * p), rtol=1e-12)
