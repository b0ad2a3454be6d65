"""Study benchmark: thetaleap's CLI studies, run in-process at reduced sample counts.

    python3 studybench/run.py --workload toy-converge --seed 0 --seconds 20 --trace 0

Each repetition calls ``thetaleap.cli.main`` with the workload's arguments
and the given stream seed; the target is fixed per workload by
``--p0-seed``, so a new seed re-rolls the sampling without changing the
problem.  Repetitions run until the next one would pass ``--seconds``
(at least one runs).  Every study's CSV is then checked, outside the timed
region, against exact laws (see ``gate.py``) and against the first
repetition (for small-cells, a workers=1 pass), so a wrong answer counts as
a failed cell just as an error does.

``--trace 0`` reports the end-to-end metrics: ``study_s`` (median wall time
of the study call), ``setup_s`` (median over fresh interpreters of importing
thetaleap and building the target and model) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics from spans recorded around thetaleap's module boundaries
(see ``tracing.py``), plus the tracing overhead; the spans of the last traced
repetition go to ``.studybench/<workload>-seed<seed>.json``.

The last line of standard output is the JSON result; the line before it is
the environment manifest.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "kernel_oracle.py"
OUT_DIR = ROOT / ".studybench"
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_PROBES = 7
COVERAGE_MIN = 0.95
THETA_METHODS = ("tau-leaping", "theta-rk2", "theta-trapezoidal")


@dataclass(frozen=True)
class Workload:
    command: str
    kind: str  # which exact law the gate uses: "toy", "exact" or "masked"
    samples: int
    workers: int
    p0_seed: int
    methods: tuple
    thetas: tuple
    steps: tuple
    delta: float = 0.0

    def argv(self, seed: int, workers: int | None = None) -> list[str]:
        args = [self.command]
        if self.kind != "exact":
            args += ["--method", ",".join(self.methods)]
        return args + [
            "--theta", ",".join(map(str, self.thetas)),
            "--steps", ",".join(map(str, self.steps)),
            "--delta", str(self.delta),
            "--samples", str(self.samples),
            "--seed", str(seed),
            "--p0-seed", str(self.p0_seed),
            "--workers", str(self.workers if workers is None else workers),
            "--bootstrap", "1000",
            "--out", "-",
        ]


# Sample counts are sized so one study takes seconds, and so that every
# state's expected count under the target stays above ~10 where the gate
# reads a KL: the plug-in KL(p0 || empirical) is infinite whenever a state is
# never drawn.  masked-converge uses p0-seed 2, the first target whose
# smallest mass gives P(any empty state) < 1e-4 at M = 32768 (p0-seed 0
# needs M = 65536 for that, which is too slow to repeat).
WORKLOADS = {
    "toy-converge": Workload(
        "toy-converge", "toy", 4096, 1, 0, THETA_METHODS, (0.5,), (8, 16, 32, 64)
    ),
    "masked-converge": Workload(
        "masked-converge", "masked", 32768, 1, 2,
        ("tau-leaping", "theta-trapezoidal"), (0.5,), (16, 32, 64, 128), delta=1e-3,
    ),
    "exact-check": Workload(
        "exact-check", "exact", 65536, 1, 4, ("uniformization",), (0.5,), (16, 64, 256)
    ),
    "small-cells": Workload(
        "toy-converge", "toy", 32768, 2, 0, THETA_METHODS, (0.3, 0.5, 0.7), (1, 2, 4)
    ),
}


@dataclass
class Study:
    wall: float
    code: int
    csv: str
    err: str


def build_model(name: str):
    """Import thetaleap and build the workload's target and model through public constructors."""
    from thetaleap import cli, engine, masked, models

    w = WORKLOADS[name]
    horizon = cli.DEFAULTS[w.command]["horizon"]
    rng = engine.substream(w.p0_seed, cli.TAG_TARGET)
    if w.kind == "masked":
        table = masked.random_target_table(cli.MASKED_DIMS, cli.MASKED_VOCAB, rng)
        return table.flat(), models.MaskedToyModel(table, masked.NoiseSchedule(), horizon=horizon)
    p0 = models.sample_simplex(cli.TOY_STATES, rng)
    return p0.probs, models.ToyUniformModel(p0, horizon=horizon)


def run_study(cli, argv, tracer=None) -> Study:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", None, cli.main, argv)
        except Exception:  # a crash is a failed study, reported below
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - t0
    return Study(wall, code, out.getvalue(), err.getvalue())


def repeat(seconds: float, once) -> None:
    """Call ``once`` (which returns its own duration) until the next call would overrun."""
    t0 = time.perf_counter()
    durations = []
    while True:
        durations.append(once())
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return


def setup_seconds(name: str) -> float:
    """Median over fresh interpreters of the time to import thetaleap and build the model."""
    probe = (
        "import sys, time\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import run\n"
        "t0 = time.perf_counter()\n"
        "run.build_model(sys.argv[3])\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", probe, str(BENCH_DIR), str(SRC), name],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child (pool worker)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def load_oracle():
    spec = importlib.util.spec_from_file_location("kernel_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exact_laws(w: Workload, p0) -> dict:
    """Exact terminal law of every toy stepping cell, from the independent test oracle."""
    if w.kind != "toy":
        return {}
    from thetaleap import cli

    oracle = load_oracle()
    horizon = cli.DEFAULTS[w.command]["horizon"]
    return {
        (m, th, n): oracle.exact_scheme_distribution(m, p0, horizon, n, th)
        for m in w.methods
        for th in w.thetas
        for n in w.steps
    }


def layer_metrics(tracer: tracing.Tracer, wall: float) -> dict:
    """Per-layer figures of one traced study (see BENCHMARK.json for units)."""
    spans = tracer.spans
    incl, own, calls, n = tracing.summarize(spans)
    cells = tracer.cells
    tels = [c["telemetry"] for c in cells]
    sample_s = incl.get("engine.run_sampler", 0.0)
    attempted = sum(t.attempted_updates for t in tels)
    terms = sum(t.total_intensity_terms for t in tels)
    unif = [c["telemetry"] for c in cells if c["method"] == "uniformization"]
    unif_nfe = sum(t.nfe for t in unif)
    fill = sum(s[5] for s in spans if s[0] == "engine.uniform" and s[3] >= 0 and spans[s[3]][0] == "models.finalize")
    return {
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
        "engine.sample_s": sample_s,
        "engine.traj_steps_per_s": sum(c["samples"] * c["intervals"] for c in cells) / sample_s if sample_s else 0.0,
        "engine.self_s": own.get("engine.run_sampler", 0.0),
        "engine.poisson_s": incl.get("engine.poisson", 0.0),
        "engine.poisson_variates": n.get("engine.poisson", 0),
        "engine.uniform_s": incl.get("engine.uniform", 0.0),
        "engine.uniform_variates": n.get("engine.uniform", 0),
        "engine.substreams": calls.get("engine.substream", 0),
        "engine.substream_s": incl.get("engine.substream", 0.0),
        "engine.pools": tracer.counts.get("engine.pools", 0),
        "engine.pool_start_s": incl.get("engine.pool_start", 0.0),
        "engine.pool_wait_s": incl.get("engine.pool_wait", 0.0),
        "engine.pool_shutdown_s": incl.get("engine.pool_shutdown", 0.0),
        "engine.task_bytes": tracer.counts.get("engine.task_bytes", 0),
        "engine.nfe_per_sample": sum(c["telemetry"].nfe / c["samples"] for c in cells),
        "engine.accept_frac": (attempted - sum(t.rejected_steps for t in tels)) / attempted if attempted else 0.0,
        "engine.thin_accept_frac": sum(t.drawn_jumps for t in unif) / unif_nfe if unif_nfe else 0.0,
        "engine.clamp_frac": sum(t.negative_intensity_events for t in tels) / terms if terms else 0.0,
        "models.rates_s": incl.get("models.rates", 0.0),
        "models.rates_calls": calls.get("models.rates", 0),
        "models.rates_rows": n.get("models.rates", 0),
        "models.rates_bytes": tracer.counts.get("models.rates_bytes", 0),
        "models.apply_s": incl.get("models.apply", 0.0),
        "models.q0_s": incl.get("models.q0", 0.0),
        "models.encode_s": incl.get("models.encode", 0.0),
        "models.finalize_s": incl.get("models.finalize", 0.0),
        "models.fill_evals": fill,
        "masked.cond_s": incl.get("masked.cond", 0.0),
        "masked.cond_calls": calls.get("masked.cond", 0),
        "metrics.hist_s": incl.get("metrics.hist", 0.0),
        "metrics.bootstrap_s": incl.get("metrics.bootstrap", 0.0),
        "metrics.bootstrap_resamples": n.get("metrics.bootstrap", 0),
        "metrics.fit_s": incl.get("metrics.fit", 0.0),
        "trace_coverage_frac": tracing.root_time(spans) / wall,
    }


def count_problems(tracer: tracing.Tracer, metrics: dict) -> list[str]:
    """Counts measured at the boundaries must equal the sampler's own telemetry."""
    cells = tracer.cells
    nfe = sum(c["telemetry"].nfe for c in cells)
    poisson = sum(
        c["samples"] * c["intervals"]
        if c["method"] == "uniformization"
        else c["telemetry"].attempted_updates * tracer.n_slots
        for c in cells
    )
    fills = sum(c["telemetry"].final_fill_evals for c in cells)
    checks = [
        ("models.rates_rows", nfe, "telemetry nfe"),
        ("engine.poisson_variates", poisson, "rows x slots per leap (samples x windows when thinning)"),
        ("models.fill_evals", fills, "telemetry final_fill_evals"),
    ]
    return [f"{k} = {metrics[k]} != {v} ({what})" for k, v, what in checks if metrics[k] != v]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


# Figures a parallel workload keeps from its own (workers > 1) traced run; the
# rest of the engine and model figures come from its workers=1 pass, because
# the pool hides the engine's internals from the parent.
PARENT_SIDE = (
    "engine.sample_s",
    "engine.traj_steps_per_s",
    "engine.pools",
    "engine.pool_start_s",
    "engine.pool_wait_s",
    "engine.pool_shutdown_s",
    "engine.task_bytes",
)


def measure(args, w: Workload):
    """Run the workload; returns (metrics, attempted, failed, problems, spans payload)."""
    import gate  # imports numpy, so it stays out of what the set-up probe imports before timing
    from thetaleap import cli, engine

    argv = w.argv(args.seed)
    studies, walls, traced_walls, traced, tracers, rss = [], [], [], [], [], []

    def plain():
        studies.append(run_study(cli, argv))
        walls.append(studies[-1].wall)
        if not rss:
            # after one study: later repetitions only add allocator fragmentation
            rss.append(peak_rss_mb())
        return walls[-1]

    def pair():
        tracer = tracing.Tracer()
        with tracing.instrument(tracer, cli, engine, parent_only=w.workers > 1):
            study = run_study(cli, argv, tracer)
        studies.append(study)
        traced_walls.append(study.wall)
        traced.append(layer_metrics(tracer, study.wall))
        tracers[:] = [tracer]
        return study.wall + plain()

    repeat(args.seconds, pair if args.trace else plain)

    serial = serial_tracer = None
    if w.workers > 1:
        serial_tracer = tracing.Tracer() if args.trace else None
        patches = tracing.instrument(serial_tracer, cli, engine) if args.trace else contextlib.nullcontext()
        with patches:
            serial = run_study(cli, w.argv(args.seed, workers=1), serial_tracer)

    p0, _ = build_model(args.workload)
    laws = exact_laws(w, p0)
    reference = gate.strip_wall((serial or studies[0]).csv)
    n_cells = len(gate.expected_cells(w.methods, w.thetas, w.steps))
    attempted = failed = 0
    problems = []
    for study in studies + ([serial] if serial else []):
        if study.code != 0:
            why = [f"exit code {study.code}: {study.err.strip()[-500:]}"] * n_cells
        else:
            why = gate.study_failures(w, study.csv, reference, p0, laws, cli.CSV_HEADER)
        attempted += n_cells
        failed += len(why)
        problems += why

    if not args.trace:
        metrics = {
            "study_s": statistics.median(walls),
            "setup_s": setup_seconds(args.workload),
            "peak_rss_mb": rss[0],
        }
        return metrics, attempted, failed, problems, {}

    metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    metrics["trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
    metrics["engine.parallel_efficiency"] = 0.0
    if metrics["trace_coverage_frac"] < COVERAGE_MIN:
        problems.append(f"spans cover {metrics['trace_coverage_frac']:.3f} of the study < {COVERAGE_MIN}")
    payload = {"spans": tracers[0].spans}
    counted, counted_metrics = tracers[0], traced[-1]
    if serial_tracer is not None:
        inner = layer_metrics(serial_tracer, serial.wall)
        for key, value in inner.items():
            if key.startswith(("engine.", "models.", "masked.")) and key not in PARENT_SIDE:
                metrics[key] = value
        metrics["engine.parallel_efficiency"] = inner["engine.sample_s"] / (w.workers * metrics["engine.sample_s"])
        payload["serial_spans"] = serial_tracer.spans
        counted, counted_metrics = serial_tracer, inner
    problems += count_problems(counted, counted_metrics)
    return metrics, attempted, failed, problems, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "thetaleap" / "__init__.py").is_file() or not ORACLE.is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/thetaleap, tests/kernel_oracle.py or BENCHMARK.json", file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    # One CPU for the run and everything it starts (pool workers, set-up
    # probes): on a shared 2-vCPU host the second CPU's availability swings by
    # tens of percent from minute to minute, which swamped small-cells.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import numpy as np

    w = WORKLOADS[args.workload]
    metrics, attempted, failed, problems, payload = measure(args, w)
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    manifest = {
        "workload": args.workload,
        "command": w.argv(args.seed),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "workers": w.workers,
        "samples": w.samples,
        "p0_seed": w.p0_seed,
        "threads": {v: os.environ[v] for v in THREAD_ENV},
        "computed_not_measured": ["engine.task_bytes", "models.rates_bytes"],
    }
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    if payload:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"manifest": manifest, "metrics": metrics, "span_fields": [
            "name", "start", "end", "parent", "cell", "n"], **payload}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
