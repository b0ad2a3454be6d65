"""Tests of the benchmark itself: python3 -m pytest studybench -q"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from thetaleap import cli, engine  # noqa: E402


def _traced(workload: run.Workload, seed: int = 3):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, cli, engine):
        study = run.run_study(cli, workload.argv(seed), tracer)
    assert study.code == 0, study.err
    return tracer, study, run.layer_metrics(tracer, study.wall)


def test_gate_rejects_the_wrong_scheme_law():
    w = run.Workload("toy-converge", "toy", 32768, 1, 0, ("theta-trapezoidal",), (0.5,), (64,))
    study = run.run_study(cli, w.argv(seed=0))
    assert study.code == 0, study.err
    (row,) = gate.parse_csv(study.csv, cli.CSV_HEADER)
    p0, _ = run.build_model("toy-converge")
    oracle = run.load_oracle()
    z_right = gate.kl_z(row["kl"], p0, oracle.exact_scheme_distribution("theta-trapezoidal", p0, 12.0, 64, 0.5), w.samples)
    z_wrong = gate.kl_z(row["kl"], p0, oracle.exact_scheme_distribution("theta-rk2", p0, 12.0, 64, 0.5), w.samples)
    assert abs(z_right) <= gate.Z_LIMIT
    assert abs(z_wrong) > 4 * gate.Z_LIMIT


def test_boundary_counts_equal_telemetry_at_one_worker():
    toy = run.Workload("toy-converge", "toy", 3000, 1, 0, ("tau-leaping", "theta-trapezoidal"), (0.5,), (2, 4))
    tracer, _, metrics = _traced(toy)
    tels = [c["telemetry"] for c in tracer.cells]
    assert metrics["models.rates_rows"] == sum(t.nfe for t in tels)
    assert metrics["engine.poisson_variates"] == sum(t.attempted_updates for t in tels) * 15
    assert run.count_problems(tracer, metrics) == []

    masked = run.Workload("masked-converge", "masked", 2000, 1, 2, ("theta-trapezoidal",), (0.5,), (4,), delta=1e-3)
    tracer, _, metrics = _traced(masked)
    tel = tracer.cells[0]["telemetry"]
    assert metrics["models.rates_rows"] == tel.nfe
    assert metrics["engine.poisson_variates"] == tel.attempted_updates * 12
    assert metrics["models.fill_evals"] == tel.final_fill_evals > 0
    assert metrics["masked.cond_calls"] > 0


def test_instrumentation_is_undone_and_spans_cover_the_study():
    before = (cli.run_sampler, engine.substream, engine.ProcessPoolExecutor, dict(cli.COMMANDS))
    w = run.Workload("exact-check", "exact", 500, 1, 4, ("uniformization",), (0.5,), (4,))
    tracer, study, metrics = _traced(w)
    assert (cli.run_sampler, engine.substream, engine.ProcessPoolExecutor, dict(cli.COMMANDS)) == before
    assert metrics["trace_coverage_frac"] >= run.COVERAGE_MIN
    assert run.count_problems(tracer, metrics) == []
    assert metrics["engine.uniform_variates"] > 0 and metrics["engine.thin_accept_frac"] > 0


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, -1, 0],
        ["engine.run_sampler", 1.0, 4.0, 0, 0, 0],
        ["engine.poisson", 2.0, 3.0, 1, 0, 7],
        ["metrics.bootstrap", 5.0, 9.0, 0, 0, 1000],
        ["engine.run_sampler", 9.5, 9.75, 0, 1, 0],
    ]
    assert tracing.self_times(spans) == [2.75, 2.0, 1.0, 4.0, 0.25]
    incl, own, calls, n = tracing.summarize(spans)
    assert incl["engine.run_sampler"] == 3.25 and own["engine.run_sampler"] == 2.25
    assert calls["engine.run_sampler"] == 2 and n["engine.poisson"] == 7
    assert tracing.root_time(spans) == 10.0


def test_gate_counts_missing_and_wrong_nfe_cells():
    w = run.Workload("masked-converge", "masked", 100, 1, 0, ("tau-leaping",), (0.5,), (2, 4))
    rows = [{"method": "tau-leaping", "theta": 0.5, "steps": 2, "nfe": 3.0, "kl": 0.0}]
    verdicts = gate.check_cells(w, rows, None, {})
    assert len(verdicts) == 2 and all(v is not None for v in verdicts)
