"""Chunked, vectorized trajectory execution: the one implementation of every scheme.

The exact one-interval kernels in ``tests/kernel_oracle.py`` are the
reference this engine is checked against.

Trajectories are processed in fixed-size chunks.  Every random draw comes
from a Philox stream keyed by (seed, purpose, chunk, interval, stage), so
the output is a pure function of the seed and the sample count: worker
processes only change wall time, never bytes.  ``CHUNK_SIZE`` is part of
that reproducibility contract; changing it changes the streams.

Batch models implement:
  - ``n_coords``, ``slots_per_coord``: jump-slot layout, where slot (c, v)
    means "set coordinate c to target v"
  - ``sample_q0_batch(rng, m)``: initial states, shape (m,) or (m, d)
  - ``rates_batch(s, states)``: (m, n_coords * slots_per_coord) intensities;
    ``s`` may be a scalar or a per-row vector
  - ``apply(states, rows, coords, vals)``: in-place jump application
  - ``encode(states)``: canonical integer label per trajectory
  - optionally ``total_bound(s_lo, s_hi)`` (uniformization) and
    ``finalize_batch(states, rng, telemetry)``
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import BoundViolationError, ConfigError, NumericalError, StepSizeError, ThetaLeapError
from .solvers import (
    BOUND_RTOL,
    ERROR_ON_NEGATIVE,
    SolverConfig,
    StepTelemetry,
    alpha_coefficients,
)

CHUNK_SIZE = 16384

# Stream-purpose tags; part of the reproducibility contract.
TAG_INIT = 1
TAG_STEP = 2
TAG_UNIF = 3
TAG_FILL = 4


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (purpose, chunk, interval, stage) slot."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *key))))


def _leap_batch(model, states, rates, dt, rng, tel: StepTelemetry):
    """Vectorized tau-leap over one sub-interval; returns updated copies.

    Rates are frozen over the sub-interval: independent Poisson counts per
    slot, whole-update rejection when any coordinate draws more than one
    jump, otherwise every coordinate with a single drawn jump moves.
    """
    m = states.shape[0]
    lam = rates * dt
    if lam.size and not lam.min() >= 0.0:
        raise NumericalError("negative or NaN rate reached the Poisson draw; clamping failed upstream")
    counts = rng.poisson(lam)
    c3 = counts.reshape(m, model.n_coords, model.slots_per_coord)
    per_coord = c3.sum(axis=2)
    reject = (per_coord > 1).any(axis=1)
    tel.attempted_updates += m
    tel.rejected_steps += int(reject.sum())
    tel.drawn_jumps += int(counts.sum())
    states = states.copy()
    apply_mask = (~reject)[:, None] & (per_coord == 1)
    rows, coords = np.nonzero(apply_mask)
    if rows.size:
        vals = np.argmax(c3[rows, coords, :], axis=1)
        model.apply(states, rows, coords, vals)
    return states


def _euler_batch(model, states, rates, dt, rng, tel: StepTelemetry):
    m = states.shape[0]
    probs = rates * dt
    totals = probs.sum(axis=1)
    worst = totals.max() if m else 0.0
    if worst >= 1.0:
        raise StepSizeError(
            f"total transition probability {worst:.6g} >= 1; reduce the step size"
        )
    tel.attempted_updates += m
    u = rng.random(m)
    hit = u < totals
    states = states.copy()
    if hit.any():
        rows = np.nonzero(hit)[0]
        cum = np.cumsum(probs[rows], axis=1)
        idx = (u[rows, None] < cum).argmax(axis=1)
        model.apply(states, rows, idx // model.slots_per_coord, idx % model.slots_per_coord)
        tel.drawn_jumps += int(rows.size)
    return states


def _combine_stage2(method, mu0, mustar, theta, clamp, tel: StepTelemetry):
    """Weighted stage-2 intensity array with clamping and positivity counts."""
    if method == "theta-rk2":
        allowed = mu0 > 0.0
        combo = (1.0 - 0.5 / theta) * mu0 + (0.5 / theta) * mustar
        neg = allowed & (combo < 0.0)
        tel.total_intensity_terms += int(allowed.sum())
        tel.negative_intensity_events += int(neg.sum())
        if clamp == ERROR_ON_NEGATIVE and neg.any():
            raise NumericalError("negative combined intensity in theta-rk2 stage 2")
        return np.where(allowed, np.maximum(combo, 0.0), 0.0)
    a1, a2 = alpha_coefficients(theta)
    considered = (mu0 > 0.0) | (mustar > 0.0)
    combo = a1 * mustar - a2 * mu0
    neg = considered & (combo < 0.0)
    tel.total_intensity_terms += int(considered.sum())
    tel.negative_intensity_events += int(neg.sum())
    if clamp == ERROR_ON_NEGATIVE and neg.any():
        raise NumericalError("negative extrapolated intensity in theta-trapezoidal stage 2")
    return np.maximum(combo, 0.0)


def _step_chunk(config: SolverConfig, model, states, chunk_idx: int, tel: StepTelemetry):
    grid = config.grid
    theta = grid.theta
    method = config.method
    m = states.shape[0]
    for n in range(grid.n_intervals):
        s_n = grid.points[n]
        dt = grid.deltas[n]
        rng1 = substream(config.seed, TAG_STEP, chunk_idx, n, 0)
        mu0 = model.rates_batch(s_n, states)
        tel.nfe += m
        if method == "tau-leaping":
            states = _leap_batch(model, states, mu0, dt, rng1, tel)
        elif method == "euler":
            states = _euler_batch(model, states, mu0, dt, rng1, tel)
        else:
            rng2 = substream(config.seed, TAG_STEP, chunk_idx, n, 1)
            ystar = _leap_batch(model, states, mu0, theta * dt, rng1, tel)
            mustar = model.rates_batch(grid.rho[n], ystar)
            tel.nfe += m
            combo = _combine_stage2(method, mu0, mustar, theta, config.clamp_policy, tel)
            if method == "theta-rk2":
                states = _leap_batch(model, states, combo, dt, rng2, tel)
            else:
                states = _leap_batch(model, ystar, combo, (1.0 - theta) * dt, rng2, tel)
    return states


def _uniformize_chunk(config: SolverConfig, model, states, chunk_idx: int, tel: StepTelemetry):
    grid = config.grid
    m = states.shape[0]
    nfe_per = np.zeros(m, dtype=np.int64)
    spc = model.slots_per_coord
    for w in range(grid.n_intervals):
        s_lo, s_hi = float(grid.points[w]), float(grid.points[w + 1])
        bound = float(model.total_bound(s_lo, s_hi))
        if not (np.isfinite(bound) and bound >= 0.0):
            raise ConfigError(f"dominating bound must be finite and nonnegative, got {bound}")
        rng = substream(config.seed, TAG_UNIF, chunk_idx, w)
        n_cand = rng.poisson(bound * (s_hi - s_lo), size=m)
        nfe_per += n_cand
        max_k = int(n_cand.max()) if m else 0
        if max_k == 0:
            continue
        times = rng.random((m, max_k))
        times[np.arange(max_k)[None, :] >= n_cand[:, None]] = np.inf
        times.sort(axis=1)
        times = s_lo + (s_hi - s_lo) * times
        states = states.copy()
        for j in range(max_k):
            rows = np.nonzero(n_cand > j)[0]
            r = model.rates_batch(times[rows, j], states[rows])
            totals = r.sum(axis=1)
            worst = totals.max()
            if worst > bound * (1.0 + BOUND_RTOL):
                raise BoundViolationError(
                    f"total intensity {worst:.6g} exceeds declared bound {bound:.6g} "
                    f"in window ({s_lo:.6g}, {s_hi:.6g}]"
                )
            u = rng.random(rows.size) * bound
            hit = u < totals
            if hit.any():
                cum = np.cumsum(r[hit], axis=1)
                idx = (u[hit, None] < cum).argmax(axis=1)
                model.apply(states, rows[hit], idx // spc, idx % spc)
                tel.drawn_jumps += int(hit.sum())
    tel.nfe += int(nfe_per.sum())
    return states, nfe_per


def _run_chunk(config: SolverConfig, model, chunk_idx: int, m: int, collect_nfe: bool):
    tel = StepTelemetry()
    try:
        states = model.sample_q0_batch(substream(config.seed, TAG_INIT, chunk_idx), m)
        nfe_per = None
        if config.method == "uniformization":
            states, nfe_per = _uniformize_chunk(config, model, states, chunk_idx, tel)
        else:
            states = _step_chunk(config, model, states, chunk_idx, tel)
        if hasattr(model, "finalize_batch"):
            states = model.finalize_batch(states, substream(config.seed, TAG_FILL, chunk_idx), tel)
        samples = model.encode(states)
    except ThetaLeapError as exc:
        lo = chunk_idx * CHUNK_SIZE
        raise type(exc)(f"{exc} [trajectories {lo}..{lo + m - 1}]") from exc
    return samples, tel, (nfe_per if collect_nfe else None)


def _chunk_task(args):
    return _run_chunk(*args)


def run_batches(config: SolverConfig, model, n_samples: int, workers: int = 1, collect_nfe: bool = False):
    """Run all trajectory chunks, serially or on a process pool."""
    sizes = [
        (idx, min(CHUNK_SIZE, n_samples - idx * CHUNK_SIZE))
        for idx in range((n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE)
    ]
    tasks = [(config, model, idx, m, collect_nfe) for idx, m in sizes]
    if workers <= 1 or len(tasks) == 1:
        results = [_run_chunk(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_chunk_task, tasks, chunksize=1))
    samples = np.concatenate([r[0] for r in results])
    telemetry = StepTelemetry()
    for _, tel, _ in results:
        telemetry.merge(tel)
    if collect_nfe:
        parts = [r[2] for r in results]
        nfe = np.concatenate(parts) if parts[0] is not None else None
        return samples, telemetry, nfe
    return samples, telemetry
