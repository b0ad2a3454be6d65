"""Batch engine checks: agreement with the exact scheme kernels, determinism
across worker counts, and telemetry accounting."""

import multiprocessing
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from thetaleap import engine
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

from kernel_oracle import exact_masked_distribution, exact_scheme_distribution
from tiny_models import ConstantRates, drawn_per_trajectory, record_poisson

HORIZON = 12.0


@pytest.fixture(scope="module")
def toy():
    p0 = sample_simplex(15, substream(42, 999))
    return ToyUniformModel(p0, horizon=HORIZON)


@pytest.mark.parametrize("method", ["euler", "tau-leaping", "theta-rk2", "theta-trapezoidal"])
def test_batch_sampler_matches_exact_scheme_kernel(toy, method):
    # the engine's empirical law must sit at the plug-in noise floor of the
    # scheme's exact terminal law computed by kernel composition; on this
    # target Euler needs 24 steps or more for its transition probabilities
    # to stay below 1
    n_steps, m = (32 if method == "euler" else 8), 120_000
    grid = TimeGrid(HORIZON, 0.0, n_steps, 0.5)
    samples, _ = run_sampler(SolverConfig(method, grid, seed=5), toy, m)
    exact = exact_scheme_distribution(method, toy.p0.probs, HORIZON, n_steps, 0.5)
    kl = kl_divergence(exact, empirical_distribution(samples, 15) / m)
    assert kl < 3 * noise_floor(m, 15)


@pytest.mark.parametrize("method", ["euler", "tau-leaping", "theta-rk2", "theta-trapezoidal", "uniformization"])
def test_masked_sampler_matches_exact_scheme_kernel(method):
    # a coarse grid keeps the scheme's law far from the target, so this
    # checks the engine on masked labels against the scheme itself; Euler
    # stops early at T - 0.5, where its transition probabilities stay below 1.
    # Uniformization is exact up to T - delta and the fill completes from the
    # exact conditionals, so its law is the target itself
    eps, n_steps, m = 1e-3, 4, 200_000
    delta = 0.5 if method == "euler" else 1e-3
    table = random_target_table(2, 3, substream(3, 103))
    model = MaskedToyModel(table, NoiseSchedule(eps))
    grid = TimeGrid(1.0, delta, n_steps, 0.5)
    samples, _ = run_sampler(SolverConfig(method, grid, seed=9), model, m)
    if method == "uniformization":
        exact = table.flat()
    else:
        exact = exact_masked_distribution(method, table.probs, eps, 1.0, delta, n_steps, 0.5)
    observed = np.bincount(samples, minlength=9)
    expected = m * exact
    chi2 = ((observed - expected) ** 2 / expected).sum()
    assert stats.chi2.sf(chi2, 8) > 1e-3


def test_worker_count_does_not_change_samples(toy):
    grid = TimeGrid(HORIZON, 0.0, 4, 0.5)
    cfg = SolverConfig("theta-trapezoidal", grid, seed=9)
    m = CHUNK_SIZE + 1000  # force two chunks
    s1, t1 = run_sampler(cfg, toy, m)
    with ChunkPool(toy, 2) as pool:
        s2, t2 = run_sampler(cfg, toy, m, pool=pool)
    assert np.array_equal(s1, s2)
    assert t1.nfe == t2.nfe and t1.rejected_steps == t2.rejected_steps
    assert t1.negative_intensity_events == t2.negative_intensity_events


def test_run_sampler_without_a_pool_opens_and_joins_its_own(toy, pool_log):
    # without a pool every chunk runs in this process; a pool of two workers
    # gets one task per chunk and joins them when its block ends
    pools, tasks = pool_log
    cfg = SolverConfig("tau-leaping", TimeGrid(HORIZON, 0.0, 2, 0.5), seed=9)
    run_sampler(cfg, toy, CHUNK_SIZE + 10)
    assert pools == [] and tasks == []
    with ChunkPool(toy, 2) as pool:
        run_sampler(cfg, toy, CHUNK_SIZE + 10, pool=pool)
    assert len(pools) == 1
    assert [task[1:] for task in tasks] == [(0, CHUNK_SIZE), (1, 10)]
    assert multiprocessing.active_children() == []


def test_chunk_pool_serves_only_its_model(toy):
    cfg = SolverConfig("tau-leaping", TimeGrid(HORIZON, 0.0, 2, 0.5), seed=9)
    with ChunkPool(toy, workers=2) as pool:
        with pytest.raises(ConfigError):
            run_sampler(cfg, ToyUniformModel(toy.p0, horizon=HORIZON), 10, pool=pool)


@pytest.mark.parametrize("kind,method", [(kind, method) for kind in ("toy", "masked") for method in engine.METHODS])
def test_one_substream_per_chunk(toy, monkeypatch, kind, method):
    # a chunk draws its initial states, every interval or window and the
    # masked fill from one stream keyed by (seed, chunk)
    if kind == "toy":
        model, grid = toy, TimeGrid(HORIZON, 0.0, 32, 0.5)
    else:
        model = MaskedToyModel(random_target_table(2, 3, substream(3, 103)))
        grid = TimeGrid(1.0, 0.5, 4, 0.5)
    keys = []
    real = engine.substream
    monkeypatch.setattr(engine, "substream", lambda *key: keys.append(key) or real(*key))
    monkeypatch.setattr(engine, "CHUNK_SIZE", 50)
    _, tel = run_sampler(SolverConfig(method, grid, seed=7), model, 120)
    assert keys == [(7, engine.TAG_SAMPLE, chunk) for chunk in range(3)]
    assert tel.drawn_jumps > 0 and (tel.final_fill_evals > 0) == (kind == "masked")


def test_nfe_accounting(toy):
    m = 5000
    for method, per_step in (("tau-leaping", 1), ("theta-rk2", 2), ("theta-trapezoidal", 2)):
        grid = TimeGrid(HORIZON, 0.0, 6, 0.5)
        _, tel = run_sampler(SolverConfig(method, grid, seed=1), toy, m)
        assert tel.nfe == per_step * 6 * m


def test_rejection_fraction_decreases_with_steps(toy):
    fracs = []
    for n_steps in (8, 16, 32, 64, 128):
        grid = TimeGrid(HORIZON, 0.0, n_steps, 0.5)
        _, tel = run_sampler(SolverConfig("theta-trapezoidal", grid, seed=2), toy, 50_000)
        fracs.append(tel.rejection_fraction)
    assert all(a > b for a, b in zip(fracs, fracs[1:]))


def test_uniformity_preservation(toy):
    # uniform target: scores are identically one, so every sampler keeps the
    # uniform law (up to sampling error)
    uniform_model = ToyUniformModel(TargetTable(np.full(15, 1 / 15)), horizon=HORIZON)
    m = 200_000
    for method in ("euler", "tau-leaping", "theta-rk2", "theta-trapezoidal", "uniformization"):
        n_steps = 16 if method == "euler" else 8
        grid = TimeGrid(HORIZON, 0.0, n_steps, 0.5)
        samples, _ = run_sampler(SolverConfig(method, grid, seed=3), uniform_model, m)
        freqs = empirical_distribution(samples, 15) / m
        assert np.abs(freqs - 1 / 15).max() < 5 * np.sqrt((1 / 15) * (14 / 15) / m)


def test_jump_never_lands_on_a_zero_weight_slot(toy):
    # Euler compares its uniform with probs.sum(axis=1), which can exceed the
    # row's cumulative total; a uniform at that total, or past it, must
    # still land on a slot with weight, never on the empty slot 0
    rng = np.random.default_rng(0)
    weights = rng.random((1000, 15))
    weights[:, 0] = 0.0
    row = weights[np.argmax(weights.sum(axis=1) > weights.cumsum(axis=1)[:, -1])]
    assert row.sum() > row.cumsum()[-1]
    for u in (row.cumsum()[-1], np.nextafter(row.sum(), 0.0)):
        states = np.zeros(1, dtype=np.int64)
        engine._jump(toy, states, np.array([0]), row[None, :], np.array([u]), StepTelemetry())
        assert row[states[0]] > 0.0


def test_euler_batch_step_size_error(toy):
    grid = TimeGrid(HORIZON, 0.0, 2, 0.5)  # dt = 6: probabilities overflow
    with pytest.raises(NumericalError, match="reduce the step size"):
        run_sampler(SolverConfig("euler", grid, seed=4), toy, 1000)


def test_exact_sampler_distribution(toy, monkeypatch):
    # uniformization reproduces the target at the estimator's noise floor
    draws = record_poisson(monkeypatch)
    grid = TimeGrid(HORIZON, 0.0, 32, 0.5)
    samples, tel = run_sampler(SolverConfig("uniformization", grid, seed=6), toy, 150_000)
    kl = kl_divergence(toy.p0.probs, empirical_distribution(samples, 15) / 150_000)
    assert kl < 5 * noise_floor(150_000, 15)
    nfe = drawn_per_trajectory(draws)  # each trajectory's candidate counts, summed over windows
    assert nfe.size == 150_000 and nfe.var() > 0  # candidate counts fluctuate across trajectories
    assert tel.nfe == nfe.sum()


def _combine_out_of_place(method, mu0, mustar, theta, tel):
    """The stage-2 combine written out of place, with the explicit considered mask."""
    if method == "theta-rk2":
        considered = mu0 > 0.0
        combo = (1.0 - 0.5 / theta) * mu0
        combo += (0.5 / theta) * mustar
        combo[~considered] = 0.0
    else:
        a1, a2 = engine.alpha_coefficients(theta)
        considered = (mu0 > 0.0) | (mustar > 0.0)
        combo = a1 * mustar
        combo -= a2 * mu0
    tel.total_intensity_terms += np.count_nonzero(considered)
    tel.negative_intensity_events += np.count_nonzero((combo < 0.0) & considered)
    return np.maximum(combo, 0.0)


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("method", ["theta-rk2", "theta-trapezoidal"])
def test_in_place_combine_matches_the_out_of_place_formula(method, theta):
    # zero slots in mu0 only, in mu* only and in both, and mu* far below mu0
    # on many slots, where the combination goes negative (theta-rk2's weights
    # are both nonnegative from theta = 1/2 on)
    rng = np.random.default_rng(11)
    mu0 = rng.exponential(size=(400, 12))
    mustar = mu0 * rng.uniform(0.0, 2.0, size=mu0.shape)
    zero = rng.integers(0, 4, size=mu0.shape)
    mu0[(zero == 1) | (zero == 3)] = 0.0
    mustar[(zero == 2) | (zero == 3)] = 0.0
    want_tel, got_tel = StepTelemetry(), StepTelemetry()
    want = _combine_out_of_place(method, mu0, mustar, theta, want_tel)
    buffer = mustar.copy()
    got = engine._combine_stage2(method, mu0.copy(), buffer, theta, got_tel)
    assert got is buffer and want.tobytes() == got.tobytes()
    assert got_tel == want_tel
    assert (want_tel.negative_intensity_events > 0) == (method == "theta-trapezoidal" or theta < 0.5)


@pytest.mark.parametrize("method", ["tau-leaping", "theta-rk2", "theta-trapezoidal"])
@pytest.mark.parametrize("kind", ["toy", "masked"])
def test_chunk_working_set_in_full_width_arrays(toy, kind, method):
    # tracemalloc peak of one full chunk at N = 8, in arrays of rows x slots
    # float64.  An interval runs in row blocks of BLOCK_ROWS = CHUNK_SIZE / 8,
    # so every rates array, Poisson count and mask is one block wide; only a
    # two-stage step's stage-1 rates (one full-width array) and its
    # intermediate states span the chunk.  The stage-1 rates sit in an
    # anonymous mapping that tracemalloc does not trace, so they are counted
    # by hand.  Measured with NumPy 2.4.6 on CPython 3.11: toy 1.59 for both
    # two-stage schemes, 0.40 for tau-leaping; masked 1.61-1.62 for the
    # two-stage schemes, 0.41 for tau-leaping.  Part of each peak is NumPy's own
    # temporaries (einsum, fancy indexing, argmax), so a failure after a
    # NumPy upgrade with no engine change points there
    if kind == "toy":
        model, grid = toy, TimeGrid(HORIZON, 0.0, 8, 0.5)
    else:
        model = MaskedToyModel(random_target_table(3, 4, substream(0, 7)))
        grid = TimeGrid(1.0, 1e-3, 8, 0.5)
    config = SolverConfig(method, grid, seed=0)
    engine._run_chunk(config, model, 0, 64)  # builds the model's lazy tables
    tracemalloc.start()
    try:
        engine._run_chunk(config, model, 0, CHUNK_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    width = CHUNK_SIZE * model.n_coords * model.slots_per_coord * 8
    mapped = 0 if method == "tau-leaping" else width
    assert peak + mapped <= (1 if method == "tau-leaping" else 2) * width


@pytest.mark.parametrize("method", ["euler", "tau-leaping", "theta-rk2", "theta-trapezoidal"])
@pytest.mark.parametrize("kind", ["toy", "masked", "tiny"])
def test_row_blocks_move_no_draw(toy, monkeypatch, kind, method):
    # a stage runs on every row block before the next stage starts, so the
    # draws come out of the chunk's stream in the same order whatever the
    # block size: one row, 7 rows (a ragged last block) and the whole chunk
    # give the bytes and counters of the default, which splits these rows
    # into a full block and a ragged one
    if kind == "toy":
        model, grid = toy, TimeGrid(HORIZON, 0.0, 32 if method == "euler" else 4, 0.5)
    elif kind == "masked":
        model = MaskedToyModel(random_target_table(2, 3, substream(3, 103)))
        grid = TimeGrid(1.0, 0.5, 4, 0.5)
    else:
        model, grid = ConstantRates([[0.0, 0.5, 0.3], [0.4, 0.0, 0.6]]), TimeGrid(1.0, 0.0, 4, 0.3)
    config = SolverConfig(method, grid, seed=8)
    m = engine.BLOCK_ROWS + 5
    want, want_tel = engine._run_chunk(config, model, 0, m)
    assert want_tel.drawn_jumps > 0 and want_tel.attempted_updates > 0
    for rows in (1, 7, m):
        monkeypatch.setattr(engine, "BLOCK_ROWS", rows)
        got, got_tel = engine._run_chunk(config, model, 0, m)
        assert got.tobytes() == want.tobytes()
        assert got_tel == want_tel


class _FixedCounts:
    """A generator whose Poisson draw returns the given counts."""

    def __init__(self, counts):
        self.counts = counts

    def poisson(self, lam):
        assert lam.shape == self.counts.shape
        return self.counts.copy()


def _leap_by_mask(model, states, counts, tel):
    """The leap's bookkeeping written with a rejected-row mask and a 2-D nonzero."""
    m = states.shape[0]
    c3 = counts.reshape(m, model.n_coords, model.slots_per_coord)
    per_coord = np.einsum("mcs->mc", c3)
    reject = (per_coord > 1).any(axis=1)
    tel.attempted_updates += m
    tel.rejected_steps += int(reject.sum())
    tel.drawn_jumps += int(counts.sum())
    states = states.copy()
    rows, coords = np.nonzero((~reject)[:, None] & (per_coord == 1))
    if rows.size:
        vals = np.argmax(c3[rows, coords, :], axis=1)
        model.apply(states, rows, coords, vals)
    return states


def _bookkeeping_counts(n_coords, slots, rng):
    """Leap counts, shape (rows, n_coords, slots): an all-zero row, sparse and
    dense rows, a coordinate at 2 beside one at 1 (row 1) and a single jump on
    every coordinate (row 2)."""
    stay = np.zeros((n_coords, slots), dtype=np.int64)
    stay[0, -1] = 2
    stay[-1, 0] += 1  # on the toy's one coordinate this makes a total of 3
    several = np.zeros((n_coords, slots), dtype=np.int64)
    several[np.arange(n_coords), np.arange(1, n_coords + 1) % slots] = 1
    return np.concatenate(
        [
            np.zeros((1, n_coords, slots), dtype=np.int64),
            stay[None],
            several[None],
            rng.poisson(0.02, size=(300, n_coords, slots)),
            rng.poisson(1.0 / slots, size=(300, n_coords, slots)),
            rng.poisson(1.0, size=(300, n_coords, slots)),
        ]
    )


@pytest.mark.parametrize("kind", ["toy", "masked", "tiny"])
def test_leap_bookkeeping_matches_the_mask_formula(toy, kind):
    # the engine finds movers and rejected rows from flat indices of the
    # per-coordinate totals; it must move the same rows to the same slots and
    # count the same as the mask formula, with and without rejected rows
    rng = np.random.default_rng(17)
    # each model with the values a state takes: a label, or a row of values
    if kind == "toy":
        model, n_values, shape = toy, 15, ()
    elif kind == "masked":
        model, n_values, shape = MaskedToyModel(random_target_table(3, 4, substream(0, 7))), 5**3, ()
    else:
        model, n_values, shape = ConstantRates(np.ones((5, 3))), 3, (5,)
    counts = _bookkeeping_counts(model.n_coords, model.slots_per_coord, rng)
    m = counts.shape[0]
    states = rng.integers(0, n_values, size=(m, *shape))
    no_reject = counts.copy()
    no_reject[counts.sum(axis=2) > 1] = 0
    results = []
    for leap_counts in (counts, no_reject):
        flat = leap_counts.reshape(m, -1)
        want_tel, got_tel = StepTelemetry(), StepTelemetry()
        want = _leap_by_mask(model, states, flat, want_tel)
        got = engine._leap_batch(model, states, np.ones(flat.shape), _FixedCounts(flat), got_tel)
        assert got.tobytes() == want.tobytes()
        assert got_tel == want_tel
        results.append((got, got_tel))
    (got, tel), (_, tel_no_reject) = results
    assert np.array_equal(got[:2], states[:2])  # the all-zero row, and row 1 is rejected
    assert not np.array_equal(got[2], states[2])  # every coordinate of row 2 moved once
    assert tel.rejected_steps > 0 and tel_no_reject.rejected_steps == 0
