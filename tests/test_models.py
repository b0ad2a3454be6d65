import numpy as np
import pytest

from thetaleap.ctmc import ProbabilityVector, forward_marginal_closed
from thetaleap.engine import substream
from thetaleap.errors import ConfigError
from thetaleap.masked import NoiseSchedule, random_target_table
from thetaleap.metrics import empirical_distribution, kl_divergence, noise_floor
from thetaleap.models import MaskedToyModel, ToyUniformModel, sample_simplex
from thetaleap.solvers import SolverConfig, make_time_grid, run_sampler

from kernel_oracle import brute_force_conditionals, toy_reverse_rates


@pytest.fixture(scope="module")
def toy():
    return ToyUniformModel(sample_simplex(15, substream(1, 50)), horizon=12.0)


def test_sample_simplex_is_valid_distribution():
    for seed in range(5):
        p = sample_simplex(15, np.random.default_rng(seed))
        assert p.probs.min() > 0
        assert abs(p.probs.sum() - 1.0) < 1e-12


def test_toy_scalar_rates_match_score_ratio(toy):
    # the rate of jumping from y to w is the score ratio p_t(w)/p_t(y) times 1/S
    s = 4.0
    p = forward_marginal_closed(toy.p0, toy.horizon - s).probs
    row = toy.rates_batch(s, np.array([3]))[0]
    assert row[3] == 0.0 and np.count_nonzero(row) == 14
    for w in range(15):
        if w != 3:
            assert abs(row[w] - p[w] / p[3] / 15) < 1e-14


def test_toy_batch_rates_match_scalar(toy):
    # every row agrees with the per-state formula of the test oracle
    states = np.arange(15, dtype=np.int64)
    for s in (0.0, 5.0, 11.5, 12.0):
        batch = toy.rates_batch(s, states)
        want = toy_reverse_rates(toy.p0.probs, toy.horizon, s)
        assert np.abs(batch - want).max() < 1e-14


def test_toy_batch_rates_vector_times(toy):
    states = np.array([2, 9, 14], dtype=np.int64)
    s_vec = np.array([1.0, 6.0, 11.0])
    batch = toy.rates_batch(s_vec, states)
    for i, (s, y) in enumerate(zip(s_vec, states)):
        single = toy.rates_batch(float(s), np.array([y], dtype=np.int64))[0]
        assert np.abs(batch[i] - single).max() < 1e-14


def test_toy_total_bound_dominates(toy):
    rng = np.random.default_rng(0)
    for _ in range(40):
        s_lo = rng.uniform(0, 11.9)
        s_hi = rng.uniform(s_lo + 0.01, 12.0)
        bound = toy.total_bound(s_lo, s_hi)
        s = rng.uniform(s_lo, s_hi)
        totals = toy.rates_batch(s, np.arange(15, dtype=np.int64)).sum(axis=1)
        assert totals.max() <= bound * (1 + 1e-12)


def test_toy_zero_mass_target_needs_early_stop():
    p0 = ProbabilityVector(np.array([0.5, 0.5, 0.0]))
    model = ToyUniformModel(p0, horizon=5.0)
    with pytest.raises(ConfigError):
        model.total_bound(0.0, 5.0)


def test_masked_unmask_rate_scale_is_inverse_time():
    # under the log-linear schedule sigma(t) * prefactor(t) collapses to 1/t
    table = random_target_table(3, 4, np.random.default_rng(1))
    model = MaskedToyModel(table, NoiseSchedule(1e-3))
    for s in (0.0, 0.5, 0.9, 0.999):
        t = 1.0 - s
        assert abs(float(model._coef(s)) - 1.0 / t) < 1e-9 / t


def test_masked_scalar_rates_structure():
    # only masked positions carry rate: coef(s) times the exact conditional
    table = random_target_table(3, 4, np.random.default_rng(2))
    model = MaskedToyModel(table, NoiseSchedule(1e-3))
    y = np.array([4, 1, 4])  # positions 0 and 2 masked
    rates = model.rates_batch(0.5, y[None, :])[0].reshape(3, 4)
    assert np.all(rates[1] == 0.0)  # no jumps out of the unmasked position
    cond = brute_force_conditionals(table.probs, y, 4)
    coef = float(model._coef(0.5))
    for l in (0, 2):
        assert np.abs(rates[l] - coef * cond[l]).max() < 1e-10


def test_masked_batch_rates_match_scalar():
    # every row agrees with brute-force conditionals times coef on masked positions
    table = random_target_table(3, 4, np.random.default_rng(3))
    model = MaskedToyModel(table, NoiseSchedule(1e-3))
    states = np.array([[4, 4, 4], [0, 4, 2], [1, 2, 3]], dtype=np.int8)
    batch = model.rates_batch(0.3, states)
    coef = float(model._coef(0.3))
    for i in range(states.shape[0]):
        cond = brute_force_conditionals(table.probs, states[i].astype(np.int64), 4)
        want = coef * cond * (states[i] == 4)[:, None]
        assert np.abs(batch[i] - want.ravel()).max() < 1e-10


def test_masked_q0_is_all_mask():
    # states use the smallest signed type that holds MASK (= S)
    for d, S, dtype in ((2, 3, np.int8), (1, 127, np.int8), (1, 128, np.int16), (1, 200, np.int16)):
        model = MaskedToyModel(random_target_table(d, S, np.random.default_rng(4)))
        q0 = model.sample_q0_batch(np.random.default_rng(0), 7)
        assert q0.dtype == dtype and np.all(q0 == S)


def test_masked_finalize_fill_is_conditionally_exact():
    # filling an all-MASK batch draws exactly from the joint target
    table = random_target_table(3, 4, np.random.default_rng(5))
    model = MaskedToyModel(table)
    m = 200_000
    states = model.sample_q0_batch(np.random.default_rng(1), m)
    from thetaleap.solvers import StepTelemetry

    tel = StepTelemetry()
    filled = model.finalize_batch(states, np.random.default_rng(2), tel)
    assert not np.any(filled == 4)
    assert tel.final_fill_evals == 3 * m
    emp = empirical_distribution(model.encode(filled), 64)
    kl = kl_divergence(table.flat(), emp)
    assert kl < 3 * noise_floor(m, 64)


def test_masked_encode_rejects_mask():
    table = random_target_table(2, 3, np.random.default_rng(6))
    model = MaskedToyModel(table)
    with pytest.raises(ConfigError):
        model.encode(np.array([[3, 0]], dtype=np.int8))


def test_masked_uniformization_unsupported():
    table = random_target_table(2, 3, np.random.default_rng(7))
    model = MaskedToyModel(table)
    with pytest.raises(ConfigError):
        model.total_bound(0.0, 0.5)


def test_masked_reverse_consistency_medium_scale():
    # a fine trapezoidal grid reproduces the joint target near the noise floor
    table = random_target_table(3, 4, substream(0, 102))
    model = MaskedToyModel(table, NoiseSchedule(1e-3))
    target = ProbabilityVector(table.flat())
    m = 60_000
    grid = make_time_grid(1.0, 1e-3, 128, 0.5)
    samples, tel = run_sampler(SolverConfig("theta-trapezoidal", grid, seed=8), model, m)
    kl = kl_divergence(target, empirical_distribution(samples, 64))
    assert kl < 3 * noise_floor(m, 64)


def test_masked_determinism_across_workers():
    table = random_target_table(3, 4, substream(2, 102))
    model = MaskedToyModel(table)
    grid = make_time_grid(1.0, 1e-3, 8, 0.5)
    cfg = SolverConfig("theta-trapezoidal", grid, seed=11)
    from thetaleap.engine import CHUNK_SIZE

    m = CHUNK_SIZE + 500
    s1, _ = run_sampler(cfg, model, m, workers=1)
    s2, _ = run_sampler(cfg, model, m, workers=2)
    assert np.array_equal(s1, s2)
