import numpy as np
import pytest
from scipy import stats

from thetaleap.errors import ConfigError, DataError, SingularScoreError, UnreachableContextError
from thetaleap.masked import (
    ConditionalOracle,
    NoiseSchedule,
    TargetTable,
    TokenSequence,
    forward_mask_sample,
    load_target_table,
    random_target_table,
    save_target_table,
)
from thetaleap.models import MaskedToyModel

from kernel_oracle import brute_force_conditionals

EPS = 1e-3


@pytest.fixture
def sched():
    return NoiseSchedule(EPS)


# noise schedule


def test_sigma_at_zero(sched):
    assert abs(sched.sigma(0.0) - (1 - EPS)) < 1e-15


def test_sigma_at_one_is_999(sched):
    assert abs(sched.sigma(1.0) - (1 - EPS) / EPS) < 1e-9
    assert abs(sched.sigma(1.0) - 999.0) < 1e-9


def test_sigma_domain_error(sched):
    with pytest.raises(ConfigError):
        sched.sigma(1.5)
    with pytest.raises(ConfigError):
        sched.sigma(-0.1)


def test_sigma_bar_endpoints(sched):
    assert sched.sigma_bar(0.0) == 0.0
    assert abs(sched.sigma_bar(1.0) - (-np.log(EPS))) < 1e-12


def test_sigma_bar_strictly_increasing(sched):
    ts = np.linspace(0, 1, 101)
    vals = sched.sigma_bar(ts)
    assert np.all(np.diff(vals) > 0)


def test_sigma_bar_derivative_matches_sigma(sched):
    h = 1e-5
    for t in (0.1, 0.4, 0.9):
        fd = (sched.sigma_bar(t + h) - sched.sigma_bar(t - h)) / (2 * h)
        assert abs(fd - sched.sigma(t)) < 1e-6


def test_schedule_rejects_bad_eps():
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(ConfigError):
            NoiseSchedule(eps)


# score prefactor, carried by the masked model's unmask rate scale
# coef = sigma(t) * prefactor(t) with prefactor = e^{-sigma_bar} / (1 - e^{-sigma_bar})


@pytest.fixture
def model(sched):
    return MaskedToyModel(random_target_table(2, 3, np.random.default_rng(6)), sched)


def _prefactor(model, t):
    return float(model._coef(1.0 - t) / model.schedule.sigma(t))


def test_prefactor_one_at_sigma_bar_log2(sched, model):
    t = 1.0 / (2.0 * (1 - EPS))  # sigma_bar = log 2
    assert abs(sched.sigma_bar(t) - np.log(2)) < 1e-12
    assert abs(_prefactor(model, t) - 1.0) < 1e-12


def test_prefactor_limit_toward_one(model):
    assert abs(_prefactor(model, 1.0) - EPS / (1 - EPS)) < 1e-12


def test_prefactor_singular_at_zero(model):
    with pytest.raises(SingularScoreError):
        model._coef(1.0)  # reverse time s = horizon is forward time t = 0


def test_prefactor_strictly_decreasing(model):
    ts = np.linspace(0.01, 1.0, 50)
    vals = [_prefactor(model, t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# forward masking


def test_forward_mask_t_zero_unchanged(sched):
    seq = TokenSequence(np.array([0, 1, 2, 3]), 4)
    out = forward_mask_sample(seq, sched, 0.0, np.random.default_rng(0))
    assert np.array_equal(out.tokens, seq.tokens)


def test_forward_mask_fraction_matches_formula(sched):
    t = 0.6
    d, n = 8, 20_000
    rng = np.random.default_rng(1)
    seq = TokenSequence(np.zeros(d, dtype=int), 4)
    masked = sum(
        int((forward_mask_sample(seq, sched, t, rng).tokens == 4).sum()) for _ in range(n)
    )
    p = float(sched.mask_probability(t))
    se = np.sqrt(p * (1 - p) / (n * d))
    assert abs(masked / (n * d) - p) < 3 * se


def test_forward_mask_count_is_binomial(sched):
    t, d, n = 0.5, 6, 30_000
    rng = np.random.default_rng(2)
    seq = TokenSequence(np.zeros(d, dtype=int), 3)
    counts = np.bincount(
        [int((forward_mask_sample(seq, sched, t, rng).tokens == 3).sum()) for _ in range(n)],
        minlength=d + 1,
    )
    p = float(sched.mask_probability(t))
    expected = n * stats.binom.pmf(np.arange(d + 1), d, p)
    keep = expected >= 5
    chi2 = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    pval = stats.chi2.sf(chi2, keep.sum() - 1)
    assert pval > 0.001


def test_forward_mask_requires_unmasked_input(sched):
    seq = TokenSequence(np.array([0, 4, 1]), 4)
    with pytest.raises(DataError):
        forward_mask_sample(seq, sched, 0.3, np.random.default_rng(0))


# target tables


def test_target_table_validation():
    with pytest.raises(DataError):
        TargetTable(np.array([0.5, 0.6]))
    with pytest.raises(DataError):
        TargetTable(np.array([[0.5, 0.5], [0.2, -0.2]]) / 1.0)


def test_target_table_roundtrip(tmp_path):
    table = random_target_table(3, 4, np.random.default_rng(3))
    path = tmp_path / "table.txt"
    save_target_table(table, path)
    loaded = load_target_table(path)
    assert loaded.d == 3 and loaded.S == 4
    assert np.abs(loaded.probs - table.probs).max() < 1e-15


def test_target_table_load_renormalizes_small_drift(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# d=1 S=2\n0 0.5\n1 0.5000000001\n")
    table = load_target_table(path)
    assert abs(table.probs.sum() - 1.0) < 1e-15


def test_target_table_load_rejects_large_drift(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# d=1 S=2\n0 0.5\n1 0.6\n")
    with pytest.raises(DataError):
        load_target_table(path)


# conditional oracle


def test_conditionals_uniform_target():
    table = TargetTable(np.full((3, 3), 1 / 9))
    oracle = ConditionalOracle(table)
    seq = TokenSequence(np.array([3, 3]), 3)  # both masked
    probs = oracle.conditional_probs(seq)
    assert np.abs(probs - 1 / 3).max() < 1e-12


def test_conditionals_point_mass():
    probs = np.zeros((3, 3))
    probs[0, 1] = 1.0
    oracle = ConditionalOracle(TargetTable(probs))
    seq = TokenSequence(np.array([0, 3]), 3)  # first observed as 0, second masked
    out = oracle.conditional_probs(seq)
    assert np.array_equal(out[1], [0.0, 1.0, 0.0])
    assert np.array_equal(out[0], [1.0, 0.0, 0.0])  # observed row is one-hot


def test_conditionals_match_brute_force_enumeration():
    rng = np.random.default_rng(4)
    table = random_target_table(3, 4, rng)
    oracle = ConditionalOracle(table)
    for _ in range(25):
        tokens = rng.integers(0, 5, size=3)  # 4 = MASK
        seq = TokenSequence(tokens, 4)
        got = oracle.conditional_probs(seq)
        want = brute_force_conditionals(table.probs, tokens, 4)
        assert np.abs(got - want).max() < 1e-12


def test_conditional_rows_sum_to_one_and_one_hot():
    rng = np.random.default_rng(5)
    table = random_target_table(3, 4, rng)
    oracle = ConditionalOracle(table)
    for _ in range(20):
        tokens = rng.integers(0, 5, size=3)
        out = oracle.conditional_probs(TokenSequence(tokens, 4))
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
        for l, tok in enumerate(tokens):
            if tok != 4:
                expected = np.zeros(4)
                expected[tok] = 1.0
                assert np.array_equal(out[l], expected)


def test_unreachable_context_raises():
    probs = np.zeros((2, 2))
    probs[0, 0] = probs[0, 1] = 0.5  # first token is always 0
    oracle = ConditionalOracle(TargetTable(probs))
    with pytest.raises(UnreachableContextError):
        oracle.conditional_probs(TokenSequence(np.array([1, 2]), 2))


# masked score: the model's unmask rates are coef(s) times the conditionals


def test_masked_score_equals_conditionals_at_unit_prefactor(sched, model):
    t = 1.0 / (2.0 * (1 - EPS))
    seq = TokenSequence(np.array([3, 1]), 3)
    got = model.rates_batch(1.0 - t, seq.tokens[None, :])[0].reshape(2, 3)
    want = float(sched.sigma(t)) * model.oracle.conditional_probs(seq)
    assert np.abs(got[0] - want[0]).max() < 1e-12
    assert np.all(got[1] == 0.0)  # the observed position carries no rate


def test_masked_score_singular_at_zero(model):
    with pytest.raises(SingularScoreError):
        model.rates_batch(1.0, np.array([[3, 3]]))


def test_absorbing_rate_matrix_structure(model):
    # MASK is absorbing forward, so in reverse only MASK -> token jumps carry
    # rate: a fully unmasked sequence never moves, and no slot re-masks
    tokens = np.array([[0, 2], [1, 1], [3, 0], [3, 3]])
    rates = model.rates_batch(0.4, tokens)
    assert rates.shape == (4, 2 * 3)  # slots are tokens 0..S-1 only, MASK has none
    assert np.all(rates[:2] == 0.0)
    assert np.all(rates[2].reshape(2, 3)[1] == 0.0) and rates[2].reshape(2, 3)[0].sum() > 0
