"""Run description and chunked, vectorized execution: the one implementation of every scheme.

Five methods are available (``METHODS``): Euler (linearized categorical),
tau-leaping, uniformization (exact via thinning), and the two-stage
theta-RK-2 and theta-Trapezoidal schemes.  A run is a :class:`SolverConfig`:
a method, a seed and a :class:`TimeGrid`, the uniform reverse-time grid on
[0, T - delta] with the theta-section points at which the two-stage methods
evaluate their intermediate intensity.  :func:`run_sampler` runs it and
reports the counters of :class:`StepTelemetry`.  The exact one-interval
kernels in ``tests/kernel_oracle.py`` are the reference this engine is
checked against.  They share its update rule: a leap rejects its update whole
when any coordinate draws more than one jump, and the stage-2 combine mixes
the rates of one slot (a move to one value) from two states.  The paper
states its schemes on a Poisson random measure, where jump counts add; the
two rules agree on the masked model and differ on the toy in constants, not
in orders (README, Samplers).

Trajectories are processed in fixed-size chunks.  A chunk runs start to
finish in one process and takes every draw, in a fixed order, from one
stream keyed by (seed, chunk), so the output is a pure function of the seed
and the sample count: worker processes only change wall time, never bytes.
``CHUNK_SIZE`` is part of that reproducibility contract; changing it changes
the streams.  A stepping interval runs over the chunk in row blocks of
``BLOCK_ROWS``, in row order and one stage at a time, so its draws come in
the order of one full-width pass; the block size is not part of the
contract.  Blocks keep every temporary one block wide, except a two-stage
method's stage-1 rates and intermediate states, which one full-width buffer
each holds for the whole chunk (the rates in a memory mapping of their own).

:func:`run_sampler` runs the chunks in this process, or on a
:class:`ChunkPool` that a sweep opens for its model and keeps for all of its
cells.  A pool of more than one worker starts its processes at the first
call with more than one chunk, so a serial or single-chunk sweep never
forks, and they are joined when the pool closes.  The model reaches each
worker once, through the executor's initializer; a chunk task carries only
``(config, chunk_idx, m)``.

Batch models implement:
  - ``n_coords``, ``slots_per_coord``: jump-slot layout, where slot (c, v)
    means "set coordinate c to target v"
  - ``sample_q0_batch(rng, m)``: initial states, one int64 label per
    trajectory, in a new array that the stepping methods update in place
  - ``rates_batch(s, states)``: (m, n_coords * slots_per_coord) intensities;
    ``s`` may be a scalar or a per-row vector.  It returns a new array, which
    the engine owns and overwrites (the stepping methods scale it in place
    into Poisson means), so it must not be a view of the model's own tables.
    The stepping methods pass ``states`` as a contiguous view of one row
    block of the chunk's states, which they overwrite later, so a model must
    not keep a reference to it
  - ``apply(states, rows, coords, vals)``: in-place jump application
  - ``encode(states)``: each trajectory's index into the target's states
  - ``total_bound(s_lo, s_hi)``, which both models implement: a bound on every
    trajectory's total rate over (s_lo, s_hi], elementwise or one scalar for all
  - optionally ``finalize_batch(states, rng, telemetry)``

Uniformization thins a dominating Poisson clock window by window.  Each
window is split into ``ENVELOPE_PIECES`` equal pieces, and the model's
``total_bound(piece_lo, piece_hi)`` (one vectorized call per chunk; a scalar
is broadcast) gives a piecewise-constant envelope that dominates every
trajectory's total rate on its piece.  Each window first draws one
candidate count per trajectory, Poisson(window mass of the envelope): the
trajectory's NFE in the window.  Each round then takes every trajectory with
candidates left to its next candidate time, the next uniform order statistic
in envelope mass mapped to time by the exact piecewise-linear inverse, and
accepts the jump with one uniform against total rate / the piece's bound.
Rounds run over the still-active rows, so the work scales with the NFE, not
with trajectories x the largest count.  ``ENVELOPE_PIECES`` is part of the
reproducibility contract, like ``CHUNK_SIZE``.
"""

from __future__ import annotations

import math
import mmap
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, NumericalError, ThetaLeapError

METHODS = ("euler", "tau-leaping", "uniformization", "theta-rk2", "theta-trapezoidal")

# Relative slack when checking a dominating bound against observed totals.
BOUND_RTOL = 1e-9

CHUNK_SIZE = 16384
ENVELOPE_PIECES = 16

# Rows of one stepping block; not part of the reproducibility contract.
BLOCK_ROWS = CHUNK_SIZE // 8

# Largest step count a grid accepts; its float64 points then take 80 MB.
MAX_INTERVALS = 10**7

# Stream-purpose tag of each chunk's sampling stream; part of the reproducibility contract.
TAG_SAMPLE = 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform reverse-time grid 0 = s_0 < ... < s_N = horizon - delta, N = n_intervals.

    ``rho_n = s_n + theta (s_{n+1} - s_n)`` are the section points at which
    the two-stage methods evaluate the intermediate intensity; ``interval(n)``
    gives them.  The horizon must be finite and N at most ``MAX_INTERVALS``.
    """

    horizon: float
    delta: float
    n_intervals: int
    theta: float

    def __post_init__(self):
        if not (0.0 <= self.delta < self.horizon < math.inf):
            raise ConfigError(f"need 0 <= delta < T < inf, got delta={self.delta}, T={self.horizon}")
        if not (1 <= self.n_intervals <= MAX_INTERVALS):
            raise ConfigError(f"need 1 <= N <= {MAX_INTERVALS} steps, got N={self.n_intervals}")
        if not (0.0 < self.theta <= 1.0):
            raise ConfigError(f"theta must lie in (0, 1], got {self.theta}")
        points = np.linspace(0.0, self.horizon - self.delta, self.n_intervals + 1)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def interval(self, n: int):
        """``(s_n, dt, rho_n)`` of interval ``n``: its start, its length and its section point."""
        s = self.points[n]
        dt = self.points[n + 1] - s
        return s, dt, s + self.theta * dt


def alpha_coefficients(theta: float) -> tuple[float, float]:
    """Extrapolation weights (alpha1, alpha2) with alpha1 - alpha2 = 1.

    alpha1 = 1 / (2 theta (1 - theta)) and
    alpha2 = ((1 - theta)^2 + theta^2) / (2 theta (1 - theta)); both diverge
    at theta in {0, 1}, where the trapezoidal split degenerates.
    """
    if not (0.0 < theta < 1.0):
        raise ConfigError(f"the theta-trapezoidal weights need theta in (0, 1), got {theta}")
    denom = 2.0 * theta * (1.0 - theta)
    a1 = 1.0 / denom
    a2 = ((1.0 - theta) ** 2 + theta**2) / denom
    return a1, a2


@dataclass
class StepTelemetry:
    """Counters accumulated over one or many step updates.

    ``nfe`` counts intensity evaluations, one per trajectory per call.  ``attempted_updates`` and
    ``drawn_jumps`` are bookkeeping beyond the core counters: the former
    normalizes rejection rates, the latter exposes pre-rejection Poisson
    counts for distributional checks.
    """

    nfe: int = 0
    rejected_steps: int = 0
    negative_intensity_events: int = 0
    total_intensity_terms: int = 0
    attempted_updates: int = 0
    drawn_jumps: int = 0
    final_fill_evals: int = 0

    @property
    def positivity_fraction(self) -> float:
        if self.total_intensity_terms == 0:
            return 1.0
        return 1.0 - self.negative_intensity_events / self.total_intensity_terms

    @property
    def rejection_fraction(self) -> float:
        if self.attempted_updates == 0:
            return 0.0
        return self.rejected_steps / self.attempted_updates

    def merge(self, other: "StepTelemetry") -> None:
        """Add every counter of ``other`` to this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass(frozen=True)
class SolverConfig:
    """Method selection plus everything needed to reproduce a run."""

    method: str
    grid: TimeGrid
    seed: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        theta = self.grid.theta
        if self.method == "theta-trapezoidal":
            alpha_coefficients(theta)  # raises where the weights are undefined
        if self.method == "theta-rk2" and theta > 0.5:
            warnings.warn(
                f"theta-rk2 with theta={theta} > 1/2: second-order accuracy is "
                "only guaranteed for theta <= 1/2",
                # past __post_init__ and the dataclass __init__ to the caller
                stacklevel=3,
            )


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for ``key`` under ``seed``.

    A chunk's sampling stream, key (``TAG_SAMPLE``, chunk), is PCG64DXSM,
    whose Poisson and uniform draws are cheaper.  Every other key (the CLI's
    target and bootstrap draws, test fixtures) gets a Philox stream, so a
    seeded target does not depend on the sampler's bit generator.
    """
    bits = np.random.PCG64DXSM if key and key[0] == TAG_SAMPLE else np.random.Philox
    return np.random.Generator(bits(np.random.SeedSequence((seed, *key))))


def _leap_batch(model, states, lam, rng, tel: StepTelemetry):
    """Vectorized tau-leap over one sub-interval, given its Poisson means; returns updated copies.

    ``lam`` is rates x sub-interval length, frozen over the sub-interval:
    independent Poisson counts per slot, whole-update rejection when any
    coordinate draws more than one jump, otherwise every coordinate with a
    single drawn jump moves.  The bookkeeping reads only the per-coordinate
    totals (rows x n_coords): the rows holding a total above one are
    counted as rejected and cleared from the mask of totals equal to one,
    and the movers are that mask's flat indices, split into (row, coord) in
    row-major order.
    """
    m = states.shape[0]
    try:
        counts = rng.poisson(lam)
    except ValueError as exc:  # numpy calls a NaN mean "too large", so lam names the cause
        if np.all(lam >= 0.0):
            raise NumericalError(f"Poisson mean {lam.max():.6g} is above numpy's limit") from exc
        raise NumericalError("negative or NaN Poisson mean; clamping failed upstream") from exc
    c3 = counts.reshape(m, model.n_coords, model.slots_per_coord)
    per_coord = np.einsum("mcs->mc", c3)
    tel.attempted_updates += m
    tel.drawn_jumps += int(per_coord.sum())
    single = per_coord == 1
    bad = np.flatnonzero(per_coord > 1)
    if bad.size:
        bad //= model.n_coords
        single[bad] = False
        # bad is sorted, so each rejected row starts one run of equal entries
        tel.rejected_steps += int(np.count_nonzero(bad[1:] != bad[:-1])) + 1
    states = states.copy()
    rows, coords = np.divmod(np.flatnonzero(single), model.n_coords)
    if rows.size:
        vals = np.argmax(c3[rows, coords, :], axis=1)
        model.apply(states, rows, coords, vals)
    return states


def categorical(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of nonnegative ``weights``, the first slot whose cumulative weight exceeds ``u``.

    ``u`` is clamped just below the row's own cumulative total, which can sit
    below a total summed in another order; the slot found then always has
    positive weight.
    """
    cum = np.cumsum(weights, axis=1)
    u = np.minimum(u, np.nextafter(cum[:, -1], 0.0))
    return (u[:, None] < cum).argmax(axis=1)


def _jump(model, states, rows, weights, u, tel: StepTelemetry) -> None:
    """Move each of ``rows`` to the slot where its uniform ``u`` falls in the
    cumulative ``weights`` (one row each), in place, counting the jumps."""
    idx = categorical(weights, u)
    model.apply(states, rows, idx // model.slots_per_coord, idx % model.slots_per_coord)
    tel.drawn_jumps += rows.size


def _euler_batch(model, states, probs, rng, tel: StepTelemetry):
    m = states.shape[0]
    totals = probs.sum(axis=1)
    worst = totals.max() if m else 0.0
    if worst >= 1.0:
        raise NumericalError(
            f"total transition probability {worst:.6g} >= 1; reduce the step size"
        )
    tel.attempted_updates += m
    u = rng.random(m)
    hit = u < totals
    states = states.copy()
    if hit.any():
        _jump(model, states, np.flatnonzero(hit), probs[hit], u[hit], tel)
    return states


def _combine_stage2(method, mu0, mustar, theta, tel: StepTelemetry):
    """Weighted stage-2 intensity, clamped at zero, with positivity counts.

    Overwrites both inputs and returns ``mustar``'s buffer.  Rates are
    nonnegative, so a negative combination always sits on a considered slot.
    """
    if method == "theta-rk2":
        considered = mu0 > 0.0
        mustar *= 0.5 / theta
        mu0 *= 1.0 - 0.5 / theta
        mustar += mu0
        mustar[~considered] = 0.0
    else:
        a1, a2 = alpha_coefficients(theta)
        considered = mu0 > 0.0
        considered |= mustar > 0.0
        mustar *= a1
        mu0 *= a2
        mustar -= mu0
    tel.total_intensity_terms += np.count_nonzero(considered)
    tel.negative_intensity_events += np.count_nonzero(mustar < 0.0)
    return np.maximum(mustar, 0.0, out=mustar)


def _step_interval(config: SolverConfig, model, states, rng, n: int, tel: StepTelemetry, mu0, ystar):
    """Interval ``n`` of a stepping method, drawn from the chunk's ``rng``; moves ``states`` in place.

    Stage 1 runs on every row block, then stage 2 on every block (module
    docstring), and each block's rates are scaled in place into its Poisson
    means (or Euler probabilities).  ``mu0`` and ``ystar`` are a two-stage
    method's buffers for stage 1's rates and states, ``None`` otherwise.
    """
    grid = config.grid
    theta = grid.theta
    method = config.method
    s, dt, rho = grid.interval(n)
    m = states.shape[0]
    blocks = [slice(lo, lo + BLOCK_ROWS) for lo in range(0, m, BLOCK_ROWS)]
    step = _euler_batch if method == "euler" else _leap_batch
    # stage 1 is the whole step of Euler and tau-leaping, and the leap to y* of the others
    end, span = (states, dt) if mu0 is None else (ystar, theta * dt)
    tel.nfe += m
    for b in blocks:
        r = model.rates_batch(s, states[b])
        if mu0 is not None:
            mu0[b] = r
        end[b] = step(model, states[b], np.multiply(r, span, out=r), rng, tel)
    if mu0 is None:
        return
    # theta-RK-2 leaps from the interval's start over dt, theta-Trapezoidal from y* over the rest
    start, span = (states, dt) if method == "theta-rk2" else (ystar, (1.0 - theta) * dt)
    tel.nfe += m
    for b in blocks:
        lam = _combine_stage2(method, mu0[b], model.rates_batch(rho, ystar[b]), theta, tel)
        states[b] = _leap_batch(model, start[b], np.multiply(lam, span, out=lam), rng, tel)


def _envelope(model, points: np.ndarray):
    """Envelope of every window: piece edges and cumulative masses, shape
    (n_windows, K + 1), and piece bounds, shape (n_windows, K), K = ENVELOPE_PIECES."""
    frac = np.arange(ENVELOPE_PIECES + 1) / ENVELOPE_PIECES
    edges = points[:-1, None] + np.diff(points)[:, None] * frac
    edges[:, -1] = points[1:]
    bound = model.total_bound(edges[:, :-1], edges[:, 1:])
    bounds = np.broadcast_to(bound, edges[:, 1:].shape).astype(float)
    if not np.all(np.isfinite(bounds) & (bounds >= 0.0)):
        raise ConfigError(f"dominating bound must be finite and nonnegative, got {bounds.min()}")
    cum_mass = np.zeros_like(edges)
    np.cumsum(bounds * np.diff(edges, axis=1), axis=1, out=cum_mass[:, 1:])
    return edges, bounds, cum_mass


def _uniformize_chunk(config: SolverConfig, model, states, rng, tel: StepTelemetry):
    """Exact simulation by thinning on the chunk's ``rng``; the draw layout is in the module docstring."""
    m = states.shape[0]
    ones = np.ones(model.n_coords * model.slots_per_coord)
    envelope = _envelope(model, config.grid.points)
    for edges, bounds, cum_mass in zip(*envelope):
        mass = cum_mass[-1]
        # time per unit of envelope mass on each piece (0 on empty pieces)
        slope = np.divide(1.0, bounds, out=np.zeros_like(bounds), where=bounds > 0.0)
        n_cand = rng.poisson(mass, size=m)
        tel.nfe += int(n_cand.sum())
        rows = np.flatnonzero(n_cand)
        left = n_cand[rows]
        lam = np.zeros(rows.size)
        while rows.size:
            v_time, v_acc = rng.random((2, rows.size))
            # the smallest of ``left`` uniform masses on (lam, mass], then its time
            lam += (mass - lam) * (1.0 - v_time ** (1.0 / left))
            piece = np.searchsorted(cum_mass[1:-1], lam, side="right")
            t = edges[piece] + (lam - cum_mass[piece]) * slope[piece]
            bound = bounds[piece]
            r = model.rates_batch(t, states[rows])
            totals = r @ ones
            over = totals > bound * (1.0 + BOUND_RTOL)
            if over.any():
                i = np.argmax(over)
                raise NumericalError(
                    f"total intensity {totals[i]:.6g} exceeds declared bound {bound[i]:.6g} "
                    f"on piece ({edges[piece[i]]:.6g}, {edges[piece[i] + 1]:.6g}]"
                )
            u = v_acc * bound
            hit = u < totals
            if hit.any():
                _jump(model, states, rows[hit], r[hit], u[hit], tel)
            left -= 1
            keep = left > 0
            rows, left, lam = rows[keep], left[keep], lam[keep]
    return states


def _run_chunk(config: SolverConfig, model, chunk_idx: int, m: int):
    tel = StepTelemetry()
    try:
        rng = substream(config.seed, TAG_SAMPLE, chunk_idx)
        states = model.sample_q0_batch(rng, m)
        if config.method == "uniformization":
            states = _uniformize_chunk(config, model, states, rng, tel)
        else:
            mu0 = ystar = None
            if config.method in ("theta-rk2", "theta-trapezoidal"):
                # stage 1's rates get an anonymous mapping of their own, returned
                # whole when the chunk ends: freed into the malloc heap they stayed
                # resident below its trim threshold, which raised the peak RSS
                width = model.n_coords * model.slots_per_coord
                mu0 = np.frombuffer(mmap.mmap(-1, 8 * m * width)).reshape(m, width)
                ystar = np.empty_like(states)
            for n in range(config.grid.n_intervals):
                _step_interval(config, model, states, rng, n, tel, mu0, ystar)
        if hasattr(model, "finalize_batch"):
            states = model.finalize_batch(states, rng, tel)
        samples = model.encode(states)
    except ThetaLeapError as exc:
        lo = chunk_idx * CHUNK_SIZE
        raise type(exc)(f"{exc} [trajectories {lo}..{lo + m - 1}]") from exc
    return samples, tel


# The model of this worker process, set once by the pool's initializer.
_worker_model = None


def _set_worker_model(model) -> None:
    global _worker_model
    _worker_model = model


def _chunk_task(task):
    config, chunk_idx, m = task
    return _run_chunk(config, _worker_model, chunk_idx, m)


class ChunkPool:
    """Worker processes for one model, started by the first call that needs them.

    That call sizes the pool: ``min(workers, its chunk count)``, since a
    worker beyond the chunk count would never get work and every cell of a
    sweep has the same chunk count.

    Use it as a context manager: leaving the block shuts the executor down and
    joins its workers, also when a chunk raised.
    """

    def __init__(self, model, workers: int):
        self.model = model
        self.workers = workers
        self._executor = None

    def run(self, tasks: list) -> list:
        """Results of ``(config, chunk_idx, m)`` tasks, in task order."""
        if self.workers <= 1 or len(tasks) == 1:
            return [_run_chunk(config, self.model, idx, m) for config, idx, m in tasks]
        if self._executor is None:
            # looked up at call time, so a patched module-level name is honoured
            self._executor = ProcessPoolExecutor(
                max_workers=min(self.workers, len(tasks)),
                initializer=_set_worker_model,
                initargs=(self.model,),
            )
        return list(self._executor.map(_chunk_task, tasks, chunksize=1))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def run_sampler(config: SolverConfig, model, n_samples: int, pool: ChunkPool | None = None):
    """Sample ``n_samples`` independent trajectories through the grid.

    ``pool`` is an open :class:`ChunkPool` for ``model``, which sets the
    worker count; without one every chunk runs in this process.  The output
    is the same either way.  Returns ``(samples, telemetry)``: the encoded
    samples, and the counters of every chunk summed.
    """
    if n_samples < 1:
        raise ConfigError(f"need at least one trajectory, got {n_samples}")
    if pool is None:
        pool = ChunkPool(model, 1)
    elif pool.model is not model:
        raise ConfigError("the chunk pool was opened for a different model")
    tasks = [
        (config, idx, min(CHUNK_SIZE, n_samples - idx * CHUNK_SIZE))
        for idx in range((n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE)
    ]
    results = pool.run(tasks)
    samples = np.concatenate([r[0] for r in results])
    telemetry = StepTelemetry()
    for _, tel in results:
        telemetry.merge(tel)
    return samples, telemetry
