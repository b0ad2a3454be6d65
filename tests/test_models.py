import numpy as np
import pytest

from thetaleap.engine import (
    CHUNK_SIZE,
    ChunkPool,
    SolverConfig,
    StepTelemetry,
    TimeGrid,
    run_sampler,
    substream,
)
from thetaleap.errors import ConfigError, NumericalError
from thetaleap.masked import NoiseSchedule, TargetTable, random_target_table
from thetaleap.metrics import empirical_distribution, kl_divergence, noise_floor
from thetaleap.models import MaskedToyModel, ToyUniformModel, sample_simplex

from kernel_oracle import brute_force_conditionals, masked_label, masked_tokens, toy_reverse_rates


@pytest.fixture(scope="module")
def toy():
    return ToyUniformModel(sample_simplex(15, substream(1, 50)), horizon=12.0)


def test_sample_simplex_is_valid_distribution():
    for seed in range(5):
        p = sample_simplex(15, np.random.default_rng(seed))
        assert p.d == 1 and p.S == 15
        assert p.probs.min() > 0
        assert abs(p.probs.sum() - 1.0) < 1e-12


def test_toy_scalar_rates_match_score_ratio(toy):
    # the rate of jumping from y to w is the score ratio p_t(w)/p_t(y) times 1/S
    s = 4.0
    p = toy.marginal(s)
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
    # elementwise over arrays of windows, as the engine asks for its envelope
    s_lo = np.sort(rng.uniform(0, 11.9, size=(3, 8)), axis=1)
    s_hi = s_lo + rng.uniform(0.01, 0.1, size=s_lo.shape)
    bounds = toy.total_bound(s_lo, s_hi)
    assert bounds.shape == s_lo.shape
    want = [toy.total_bound(lo, hi) for lo, hi in zip(s_lo.ravel(), s_hi.ravel())]
    assert np.array_equal(bounds.ravel(), want)
    s = rng.uniform(s_lo, s_hi)
    states = np.arange(15, dtype=np.int64)
    worst = [toy.rates_batch(t, states).sum(axis=1).max() for t in s.ravel()]
    assert np.all(np.array(worst) <= bounds.ravel() * (1 + 1e-12))


def test_toy_zero_mass_target_needs_early_stop():
    # the same model error the toy's rates raise at a zero-mass marginal
    p0 = TargetTable(np.array([0.5, 0.5, 0.0]))
    model = ToyUniformModel(p0, horizon=5.0)
    with pytest.raises(NumericalError, match="zero-mass state"):
        model.total_bound(0.0, 5.0)


def test_toy_rejects_multi_dimensional_table():
    # the toy's p0 is a d = 1 table; a joint table over [S]^2 is not one
    with pytest.raises(ConfigError):
        ToyUniformModel(random_target_table(2, 3, np.random.default_rng(0)))


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
    rates = model.rates_batch(0.5, np.array([masked_label(y, 4)]))[0].reshape(3, 4)
    assert np.all(rates[1] == 0.0)  # no jumps out of the unmasked position
    cond = brute_force_conditionals(table.probs, y, 4)
    coef = float(model._coef(0.5))
    for l in (0, 2):
        assert np.abs(rates[l] - coef * cond[l]).max() < 1e-10


def test_masked_batch_rates_match_scalar():
    # every row agrees with brute-force conditionals times coef on masked positions
    table = random_target_table(3, 4, np.random.default_rng(3))
    model = MaskedToyModel(table, NoiseSchedule(1e-3))
    states = np.array([[4, 4, 4], [0, 4, 2], [1, 2, 3]])
    batch = model.rates_batch(0.3, np.array([masked_label(x, 4) for x in states]))
    coef = float(model._coef(0.3))
    for i in range(states.shape[0]):
        cond = brute_force_conditionals(table.probs, states[i], 4)
        want = coef * cond * (states[i] == 4)[:, None]
        assert np.abs(batch[i] - want.ravel()).max() < 1e-10


def test_masked_batch_rates_vector_times():
    table = random_target_table(3, 4, np.random.default_rng(3))
    model = MaskedToyModel(table)
    labels = np.array([masked_label(x, 4) for x in ([4, 4, 4], [0, 4, 2], [1, 4, 3])])
    s_vec = np.array([0.1, 0.5, 0.9])
    batch = model.rates_batch(s_vec, labels)
    for i, (s, y) in enumerate(zip(s_vec, labels)):
        single = model.rates_batch(float(s), np.array([y], dtype=np.int64))[0]
        assert np.abs(batch[i] - single).max() < 1e-14


def test_masked_q0_is_all_mask():
    # one label per trajectory, every position MASK (= S)
    for d, S in ((2, 3), (1, 127), (1, 128), (1, 200)):
        model = MaskedToyModel(random_target_table(d, S, np.random.default_rng(4)))
        q0 = model.sample_q0_batch(np.random.default_rng(0), 7)
        assert q0.shape == (7,) and np.all(q0 == masked_label([S] * d, S))
        assert np.all(masked_tokens(int(q0[0]), d, S) == S)


def test_masked_finalize_fill_is_conditionally_exact():
    # filling an all-MASK batch draws exactly from the joint target
    table = random_target_table(3, 4, np.random.default_rng(5))
    model = MaskedToyModel(table)
    m = 200_000
    states = model.sample_q0_batch(np.random.default_rng(1), m)
    tel = StepTelemetry()
    filled = model.finalize_batch(states, np.random.default_rng(2), tel)
    assert not any(np.any(masked_tokens(label, 3, 4) == 4) for label in np.unique(filled))
    assert tel.final_fill_evals == 3 * m
    kl = kl_divergence(table.flat(), empirical_distribution(model.encode(filled), 64) / m)
    assert kl < 3 * noise_floor(m, 64)


class _LargestUniform:
    """A generator stand-in whose every uniform is the largest one below 1."""

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


def test_masked_fill_never_draws_a_zero_weight_token():
    # this conditional's cumulative total rounds below the largest uniform,
    # so a draw that reads past the total must not fall to the last token,
    # which has no mass
    table = TargetTable(np.array([0.07396306519631642, 0.4835753438551581, 0.4424615909485256, 0.0]))
    model = MaskedToyModel(table)
    assert model._conditionals(np.array([4]))[4].cumsum()[-1] < np.nextafter(1.0, 0.0)
    filled = model.finalize_batch(model.sample_q0_batch(None, 3), _LargestUniform(), StepTelemetry())
    assert model.encode(filled).tolist() == [2, 2, 2]


@pytest.mark.parametrize("horizon", [-1.0, 0.0, 1.5, 5.0])
def test_masked_rejects_a_horizon_outside_the_schedule_domain(horizon):
    with pytest.raises(ConfigError, match="horizon"):
        MaskedToyModel(random_target_table(2, 3, np.random.default_rng(6)), horizon=horizon)


def test_masked_encode_rejects_mask():
    table = random_target_table(2, 3, np.random.default_rng(6))
    model = MaskedToyModel(table)
    with pytest.raises(ConfigError):
        model.encode(np.array([masked_label([3, 0], 3)]))
    # a full sequence encodes to its row-major table index
    assert model.encode(np.array([masked_label([2, 1], 3)])).tolist() == [2 * 3 + 1]


def test_masked_total_bound_dominates():
    # the total rate out of a label is (#masked) coef(s): at most d coef(s_hi)
    # on a piece, and exactly that with every position masked at s_hi.  The
    # pieces split each window of a 4-window grid in 16, as the engine's
    # envelope does, and every label of this dense table has positive mass
    model = MaskedToyModel(random_target_table(3, 4, np.random.default_rng(7)))
    labels = np.arange(5**3)
    points = TimeGrid(1.0, 1e-3, 4, 0.5).points
    edges = points[:-1, None] + np.diff(points)[:, None] * np.linspace(0.0, 1.0, 17)
    s_lo, s_hi = edges[:, :-1], edges[:, 1:]
    bounds = model.total_bound(s_lo, s_hi)
    assert bounds.shape == s_lo.shape
    want = [model.total_bound(lo, hi) for lo, hi in zip(s_lo.ravel(), s_hi.ravel())]
    assert np.array_equal(bounds.ravel(), want)
    s = np.random.default_rng(0).uniform(s_lo, s_hi)
    worst = [model.rates_batch(t, labels).sum(axis=1).max() for t in s.ravel()]
    assert np.all(np.array(worst) <= bounds.ravel() * (1 + 1e-12))
    all_mask = model.sample_q0_batch(None, 1)
    at_hi = np.array([model.rates_batch(t, all_mask).sum() for t in s_hi.ravel()])
    assert np.all(np.abs(at_hi - bounds.ravel()) <= 1e-12 * bounds.ravel())


def test_masked_reverse_consistency_medium_scale():
    # a fine trapezoidal grid reproduces the joint target near the noise floor
    table = random_target_table(3, 4, substream(0, 102))
    model = MaskedToyModel(table, NoiseSchedule(1e-3))
    m = 60_000
    grid = TimeGrid(1.0, 1e-3, 128, 0.5)
    samples, _ = run_sampler(SolverConfig("theta-trapezoidal", grid, seed=8), model, m)
    kl = kl_divergence(table.flat(), empirical_distribution(samples, 64) / m)
    assert kl < 3 * noise_floor(m, 64)


def test_masked_determinism_across_workers():
    table = random_target_table(3, 4, substream(2, 102))
    model = MaskedToyModel(table)
    grid = TimeGrid(1.0, 1e-3, 8, 0.5)
    cfg = SolverConfig("theta-trapezoidal", grid, seed=11)
    m = CHUNK_SIZE + 500
    s1, _ = run_sampler(cfg, model, m)
    with ChunkPool(model, 2) as pool:
        s2, _ = run_sampler(cfg, model, m, pool=pool)
    assert np.array_equal(s1, s2)
