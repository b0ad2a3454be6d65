"""Spans recorded from outside the program, at thetaleap's module boundaries.

Every public callable a layer exposes to the next one is replaced, for the
length of one traced study, by a wrapper that records a span
``[name, start, end, parent, cell, n]``: ``parent`` is the index of the
enclosing span (-1 at the root), ``cell`` counts ``run_sampler`` calls so
far (-1 before the first), and ``n`` is a count taken from the call's result
(rows, variates, resamples).  Names are patched where the caller looks them
up: ``thetaleap.cli`` globals for what the CLI calls, ``thetaleap.engine``
globals for the substream factory and the process pool, and model or oracle
instance attributes for the model protocol.  Spans stay in memory; the
runner writes them once at the end.
"""

from __future__ import annotations

import pickle
from contextlib import ExitStack
from time import perf_counter
from unittest import mock


class Tracer:
    """In-memory span recorder with a per-cell record of sampler calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.cells: list[dict] = []
        self.cell = -1
        self.n_slots = 0  # jump slots per row of the instrumented model
        self._stack: list[int] = []

    def call(self, name, count, fn, *args, **kwargs):
        """Run ``fn`` inside a span; ``count(result)`` fills the span's ``n``."""
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cell, 0]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        if count is not None:
            span[5] = count(result)
        return result

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            return self.call(name, count, fn, *args, **kwargs)

        return traced

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class TracedGenerator:
    """Generator proxy that times the Poisson and uniform draws the engine makes."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def poisson(self, *args, **kwargs):
        return self._tracer.call("engine.poisson", _size, self._gen.poisson, *args, **kwargs)

    def random(self, *args, **kwargs):
        return self._tracer.call("engine.uniform", _size, self._gen.random, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _size(result) -> int:
    return int(getattr(result, "size", 1))


def _rows(result) -> int:
    return int(result.shape[0])


def _resamples(report) -> int:
    return int(report.n_resamples)


def instrument_model(tracer: Tracer, model):
    """Time the model protocol (and the masked oracle) on one model instance."""
    rates_batch = model.rates_batch

    def rates(s, states):
        out = tracer.call("models.rates", _rows, rates_batch, s, states)
        tracer.add("models.rates_bytes", out.nbytes)
        return out

    model.rates_batch = rates
    model.apply = tracer.wrap("models.apply", model.apply)
    model.sample_q0_batch = tracer.wrap("models.q0", model.sample_q0_batch)
    model.encode = tracer.wrap("models.encode", model.encode)
    model.total_bound = tracer.wrap("models.bound", model.total_bound)
    if hasattr(model, "finalize_batch"):
        model.finalize_batch = tracer.wrap("models.finalize", model.finalize_batch)
    oracle = getattr(model, "oracle", None)
    if oracle is not None:
        oracle.conditional_probs = tracer.wrap("masked.cond", oracle.conditional_probs)
    tracer.n_slots = model.n_coords * model.slots_per_coord
    return model


def _traced_pool_class(tracer: Tracer, base):
    class TracedPool(base):
        """Pool whose start-up, result wait and shutdown are spans."""

        def __init__(self, *args, **kwargs):
            tracer.add("engine.pools", 1)
            tracer.call("engine.pool_start", None, super().__init__, *args, **kwargs)

        def map(self, fn, tasks, **kwargs):
            tasks = list(tasks)
            # computed, not measured: the bytes each task pickles to
            tracer.add("engine.task_bytes", sum(len(pickle.dumps(t)) for t in tasks))
            results = tracer.call("engine.pool_start", None, super().map, fn, tasks, **kwargs)
            return iter(tracer.call("engine.pool_wait", None, list, results))

        def shutdown(self, *args, **kwargs):
            tracer.call("engine.pool_shutdown", None, super().shutdown, *args, **kwargs)

    return TracedPool


def instrument(tracer: Tracer, cli, engine, parent_only: bool = False) -> ExitStack:
    """Patch thetaleap's layer boundaries; closing the returned stack restores them.

    With ``parent_only`` the model, the engine's substreams and their draws
    are left alone: a pool pickles the model into every task and forked
    workers inherit patched globals, so only the parent side of the pool is
    traced.
    """
    stack = ExitStack()
    run_sampler = cli.run_sampler

    def traced_run_sampler(config, model, n_samples, **kwargs):
        tracer.cell += 1
        out = tracer.call("engine.run_sampler", None, run_sampler, config, model, n_samples, **kwargs)
        tracer.cells.append(
            {
                "method": config.method,
                "intervals": config.grid.n_intervals,
                "samples": n_samples,
                "telemetry": out[1],
            }
        )
        return out

    patches = {
        "run_sampler": traced_run_sampler,
        "empirical_distribution": tracer.wrap("metrics.hist", cli.empirical_distribution),
        "bootstrap_kl_ci": tracer.wrap("metrics.bootstrap", cli.bootstrap_kl_ci, _resamples),
        "fit_loglog_slope": tracer.wrap("metrics.fit", cli.fit_loglog_slope),
        "noise_floor": tracer.wrap("metrics.floor", cli.noise_floor),
        "emit_results": tracer.wrap("cli.emit", cli.emit_results),
    }
    if not parent_only:
        for name in ("ToyUniformModel", "MaskedToyModel"):
            cls = getattr(cli, name)
            patches[name] = lambda *a, _cls=cls, **k: instrument_model(tracer, _cls(*a, **k))
    for name, value in patches.items():
        stack.enter_context(mock.patch.object(cli, name, value))
    stack.enter_context(
        mock.patch.dict(cli.COMMANDS, {k: tracer.wrap("cli.command", v) for k, v in cli.COMMANDS.items()})
    )
    stack.enter_context(
        mock.patch.object(engine, "ProcessPoolExecutor", _traced_pool_class(tracer, engine.ProcessPoolExecutor))
    )
    if not parent_only:
        substream = tracer.wrap("engine.substream", engine.substream)
        stack.enter_context(
            mock.patch.object(engine, "substream", lambda *key: TracedGenerator(substream(*key), tracer))
        )
    return stack


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans):
    """Per-name inclusive time, self time, span count and summed ``n``."""
    incl, own, calls, total_n = {}, {}, {}, {}
    for span, self_s in zip(spans, self_times(spans)):
        name, start, end, _, _, n = span
        incl[name] = incl.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        total_n[name] = total_n.get(name, 0) + n
    return incl, own, calls, total_n


def root_time(spans) -> float:
    return sum(end - start for _, start, end, parent, *_ in spans if parent < 0)
