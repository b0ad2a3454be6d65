import numpy as np
import pytest
from scipy import stats

from thetaleap.engine import SolverConfig, StepTelemetry, TimeGrid, run_sampler
from thetaleap.errors import ConfigError, NumericalError
from thetaleap.masked import (
    MAX_TABLE_CELLS,
    ConditionalOracle,
    NoiseSchedule,
    TargetTable,
    load_target_table,
    random_target_table,
)
from thetaleap.models import MaskedToyModel

from kernel_oracle import brute_force_conditionals, masked_label, masked_tokens

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
    with pytest.raises(NumericalError, match="unmask rate diverges at t = 0"):
        model._coef(1.0)  # reverse time s = horizon is forward time t = 0


def test_prefactor_strictly_decreasing(model):
    ts = np.linspace(0.01, 1.0, 50)
    vals = [_prefactor(model, t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# forward masking, seen from the reverse sampler: the exact reverse process
# at forward time t has the masked positions of forward masking, each masked
# independently with probability 1 - e^{-sigma_bar(t)}.  A fine
# theta-trapezoidal grid from the all-MASK start (forward time 1, where
# forward masking has masked 1 - eps of the positions) that stops at forward
# time delta leaves exactly those positions to the final fill.


def _mask_probability(sched, t):
    return float(-np.expm1(-sched.sigma_bar(t)))


def _masked_counts_at_grid_end(model, delta, m, seed):
    """Per-trajectory counts of masked positions handed to the final fill, and the telemetry."""
    counts = []
    fill = model.finalize_batch

    def recording_fill(labels, rng, tel):
        tokens = np.array([masked_tokens(label, model.d, model.S) for label in labels])
        counts.append((tokens == model.S).sum(axis=1))
        return fill(labels, rng, tel)

    model.finalize_batch = recording_fill
    grid = TimeGrid(1.0, delta, 128, 0.5)
    _, tel = run_sampler(SolverConfig("theta-trapezoidal", grid, seed), model, m)
    return np.concatenate(counts), tel


def test_forward_mask_t_zero_unchanged(sched, model):
    # at forward time 0 nothing is masked, and the final fill leaves an
    # unmasked sequence as it is
    assert _mask_probability(sched, 0.0) == 0.0
    labels = np.array([masked_label([0, 1], 3), masked_label([2, 2], 3)])
    tel = StepTelemetry()
    out = model.finalize_batch(labels, np.random.default_rng(0), tel)
    assert np.array_equal(out, labels) and tel.final_fill_evals == 0


def test_forward_mask_fraction_matches_formula(sched):
    delta, d, m = 0.5, 3, 20_000
    model = MaskedToyModel(random_target_table(d, 4, np.random.default_rng(1)), sched)
    counts, tel = _masked_counts_at_grid_end(model, delta, m, seed=1)
    assert counts.sum() == tel.final_fill_evals
    p = _mask_probability(sched, delta)
    se = np.sqrt(p * (1 - p) / (m * d))
    assert abs(tel.final_fill_evals / (m * d) - p) < 4 * se


def test_forward_mask_count_is_binomial(sched):
    delta, d, m = 0.5, 6, 20_000
    model = MaskedToyModel(random_target_table(d, 3, np.random.default_rng(2)), sched)
    counts, _ = _masked_counts_at_grid_end(model, delta, m, seed=2)
    observed = np.bincount(counts, minlength=d + 1)
    expected = m * stats.binom.pmf(np.arange(d + 1), d, _mask_probability(sched, delta))
    keep = expected >= 5
    chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    pval = stats.chi2.sf(chi2, keep.sum() - 1)
    assert pval > 0.001


def test_forward_mask_requires_unmasked_input():
    # a context holds tokens 0..S-1 and MASK (= S), nothing else, one row of d per context
    oracle = ConditionalOracle(random_target_table(3, 4, np.random.default_rng(0)))
    for contexts, message in (
        ([[0, 5, 1]], "tokens must lie"),
        ([[-1, 4, 1]], "tokens must lie"),
        ([0, 4, 1], "contexts must be"),
        ([[0, 4]], "contexts must be"),
        ([[0.0, 4.0, 1.0]], "contexts must be"),
    ):
        with pytest.raises(ConfigError, match=message):
            oracle.conditional_probs(np.array(contexts))


# target tables


def test_target_table_validation():
    with pytest.raises(ConfigError, match="target table mass"):
        TargetTable(np.array([0.5, 0.6]))
    with pytest.raises(ConfigError, match="negative entries"):
        TargetTable(np.array([[0.5, 0.5], [0.2, -0.2]]) / 1.0)
    # NaN fails every comparison, so the sign and mass checks alone let it through
    for bad in ([0.5, np.nan], [[np.nan, 0.5], [0.25, 0.25]], [1.0, np.inf]):
        with pytest.raises(ConfigError, match="NaN or infinite"):
            TargetTable(np.array(bad))


def test_target_table_load_rejects_a_repeated_index(tmp_path):
    # a repeated index used to keep its last row, so a duplicated or
    # mistyped index passed the mass check
    path = tmp_path / "t.txt"
    path.write_text("# d=1 S=2\n0 0.5\n0 0.5\n1 0.5\n")
    with pytest.raises(ConfigError, match="index 0 appears more than once"):
        load_target_table(path)


def test_target_table_roundtrip(tmp_path):
    table = random_target_table(3, 4, np.random.default_rng(3))
    path = tmp_path / "table.txt"
    rows = "".join(f"{i} {p:.17g}\n" for i, p in enumerate(table.flat()))
    path.write_text("# d=3 S=4\n" + rows)
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
    with pytest.raises(ConfigError, match="deviates from 1"):
        load_target_table(path)


@pytest.mark.parametrize(
    "text,message",
    [
        ("# d=1 S=2\nzero 0.5\n1 0.5\n", "malformed"),  # non-integer index
        ("# d=1 S=2\n0 half\n1 0.5\n", "malformed"),  # non-float probability
        ("# d=x S=2\n0 0.5\n1 0.5\n", "malformed"),  # bad header
        ("# d=2 S=-3\n0 1.0\n", "out of range"),  # negative vocabulary
        ("# d=-1 S=3\n0 1.0\n", "out of range"),  # negative dimension
        ("# d=30 S=10\n0 1.0\n", "out of range"),  # 10**30 cells
        ("# d=21 S=2\n0 1.0\n", "out of range"),  # more dimensions than any table under the cap
        ("# d=1 S=2\n0 nan\n1 0.5\n", "NaN or infinite"),  # NaN probability
        ("# d=1 S=2\n0 inf\n1 0.5\n", "deviates from 1"),  # infinite probability
    ],
    ids=[
        "index", "probability", "header", "negative-S", "negative-d", "too-many-cells", "too-many-dims",
        "nan-probability", "inf-probability",
    ],
)
def test_target_table_load_rejects_malformed_fields(tmp_path, text, message):
    path = tmp_path / "t.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_target_table(path)


def test_target_table_load_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"# d=1 S=2\n0 0.5\n1 0.5 \xff\n")
    with pytest.raises(ConfigError, match="not UTF-8") as excinfo:
        load_target_table(path)
    assert str(path) in str(excinfo.value)


def test_target_table_load_accepts_the_largest_table_under_the_cap(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# d=6 S=10\n0 1.0\n")
    assert load_target_table(path).probs.size == MAX_TABLE_CELLS


# conditional oracle


def test_conditionals_uniform_target():
    table = TargetTable(np.full((3, 3), 1 / 9))
    oracle = ConditionalOracle(table)
    probs = oracle.conditional_probs(np.array([[3, 3]]))  # both masked
    assert probs.shape == (1, 2, 3)
    assert np.abs(probs - 1 / 3).max() < 1e-12


def test_conditionals_point_mass():
    probs = np.zeros((3, 3))
    probs[0, 1] = 1.0
    oracle = ConditionalOracle(TargetTable(probs))
    (out,) = oracle.conditional_probs(np.array([[0, 3]]))  # first observed as 0, second masked
    assert np.array_equal(out[1], [0.0, 1.0, 0.0])
    assert np.array_equal(out[0], [1.0, 0.0, 0.0])  # observed row is one-hot


def test_conditionals_match_brute_force_enumeration():
    rng = np.random.default_rng(4)
    table = random_target_table(3, 4, rng)
    oracle = ConditionalOracle(table)
    contexts = rng.integers(0, 5, size=(25, 3))  # 4 = MASK
    got = oracle.conditional_probs(contexts)
    for tokens, out in zip(contexts, got):
        want = brute_force_conditionals(table.probs, tokens, 4)
        assert np.abs(out - want).max() < 1e-12


def test_conditional_rows_sum_to_one_and_one_hot():
    rng = np.random.default_rng(5)
    table = random_target_table(3, 4, rng)
    oracle = ConditionalOracle(table)
    contexts = rng.integers(0, 5, size=(20, 3))
    for tokens, out in zip(contexts, oracle.conditional_probs(contexts)):
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
    with pytest.raises(NumericalError, match=r"context \(1, 2\) has zero mass"):
        oracle.conditional_probs(np.array([[0, 2], [1, 2]]))


def test_masked_model_raises_at_a_zero_mass_context(sched):
    probs = np.zeros((2, 2))
    probs[0, 0] = probs[0, 1] = 0.5  # first token is always 0
    model = MaskedToyModel(TargetTable(probs), sched)
    reachable, unreachable = masked_label([0, 2], 2), masked_label([1, 2], 2)
    assert model.rates_batch(0.5, np.array([reachable])).sum() > 0
    for labels in ([unreachable], [reachable, masked_label([1, 0], 2)]):
        with pytest.raises(NumericalError, match="has zero mass"):
            model.rates_batch(0.5, np.array(labels))
    with pytest.raises(NumericalError, match=r"context \(1, 2\) has zero mass"):
        model.finalize_batch(np.array([reachable, unreachable]), np.random.default_rng(0), StepTelemetry())


def test_masked_sampling_puts_no_sample_on_a_zero_cell(sched):
    # Euler moves one position per update and the fill draws one position at
    # a time from its exact conditional, so the zero cells (0, 1) and (1, 0)
    # are never reached
    model = MaskedToyModel(TargetTable(np.array([[0.5, 0.0], [0.0, 0.5]])), sched)
    grid = TimeGrid(1.0, 0.5, 16, 0.5)
    samples, tel = run_sampler(SolverConfig("euler", grid, seed=3), model, 20_000)
    assert tel.final_fill_evals > 0
    counts = np.bincount(samples, minlength=4)
    assert counts[1] == counts[2] == 0 and counts[0] > 0 and counts[3] > 0


# masked score: the model's unmask rates are coef(s) times the conditionals


def test_masked_score_equals_conditionals_at_unit_prefactor(sched, model):
    t = 1.0 / (2.0 * (1 - EPS))
    tokens = np.array([3, 1])
    got = model.rates_batch(1.0 - t, np.array([masked_label(tokens, 3)]))[0].reshape(2, 3)
    want = float(sched.sigma(t)) * model.oracle.conditional_probs(tokens[None, :])[0]
    assert np.abs(got[0] - want[0]).max() < 1e-12
    assert np.all(got[1] == 0.0)  # the observed position carries no rate


def test_masked_score_singular_at_zero(model):
    with pytest.raises(NumericalError, match="unmask rate diverges at t = 0"):
        model.rates_batch(1.0, np.array([masked_label([3, 3], 3)]))


def test_absorbing_rate_matrix_structure(model):
    # MASK is absorbing forward, so in reverse only MASK -> token jumps carry
    # rate: a fully unmasked sequence never moves, and no slot re-masks
    tokens = np.array([[0, 2], [1, 1], [3, 0], [3, 3]])
    rates = model.rates_batch(0.4, np.array([masked_label(x, 3) for x in tokens]))
    assert rates.shape == (4, 2 * 3)  # slots are tokens 0..S-1 only, MASK has none
    assert np.all(rates[:2] == 0.0)
    assert np.all(rates[2].reshape(2, 3)[1] == 0.0) and rates[2].reshape(2, 3)[0].sum() > 0
