"""Experiment driver.

Subcommands:
  toy-converge     sweep methods x thetas x step counts on the S=15 toy,
                   reporting bootstrapped KL and a log-log convergence fit
  masked-converge  the same sweep on the masked d=3, S=4 joint-table toy
  exact-check      the toy sweep run with uniformization: KL at the noise
                   floor and the per-trajectory NFE distribution

Informational output goes to stderr; the result table goes to --out
(default stdout) as CSV or JSON.  Exit codes: 0 ok, 2 config error,
3 I/O error, 4 numerical/model error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .ctmc import ProbabilityVector
from .engine import substream
from .errors import ConfigError, DataError, NumericalError, ThetaLeapError
from .masked import NoiseSchedule, TargetTable, load_target_table, random_target_table
from .metrics import bootstrap_kl_ci, empirical_distribution, fit_loglog_slope, noise_floor
from .models import MaskedToyModel, ToyUniformModel, sample_simplex
from .solvers import SolverConfig, make_time_grid, run_sampler

WORKERS_ENV = "THETALEAP_WORKERS"
TOY_STATES = 15
MASKED_DIMS = 3
MASKED_VOCAB = 4

# stream-purpose tags local to the CLI (solver tags live in engine)
TAG_BOOT = 101
TAG_TARGET = 102

CSV_HEADER = "method,theta,steps,nfe,kl,ci_lo,ci_hi,positivity_frac,rejection_frac,wall_ms,seed"


@dataclass(frozen=True)
class ResultRow:
    method: str
    theta: float
    steps: int
    nfe: float
    kl: float
    ci_lo: float
    ci_hi: float
    positivity_frac: float
    rejection_frac: float
    wall_ms: float
    seed: int


@dataclass
class ExperimentConfig:
    model: str
    methods: list
    thetas: list
    steps: list
    samples: int
    seed: int
    horizon: float
    delta: float
    target_file: str | None
    out: str
    fmt: str
    workers: int
    bootstrap: int
    ci_level: float
    min_fit_steps: int
    p0_seed: int | None

    def __post_init__(self):
        if not self.steps or any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ConfigError("steps list must be nonempty and strictly increasing")
        if self.samples < 1:
            raise ConfigError(f"need at least one sample, got {self.samples}")
        if any(not (0.0 < th <= 1.0) for th in self.thetas):
            raise ConfigError(f"theta values must lie in (0, 1], got {self.thetas}")
        if not (0.0 < self.ci_level < 1.0):
            raise ConfigError(f"ci level must lie in (0, 1), got {self.ci_level}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")


DEFAULTS = {
    "toy-converge": dict(
        model="toy-uniform",
        methods=["tau-leaping", "theta-rk2", "theta-trapezoidal"],
        thetas=[0.5],
        steps=[4, 8, 16, 32, 64, 128],
        samples=10**6,
        horizon=12.0,
        delta=0.0,
    ),
    "masked-converge": dict(
        model="masked-toy",
        methods=["tau-leaping", "theta-trapezoidal"],
        thetas=[0.5],
        steps=[16, 32, 64, 512],
        samples=2 * 10**5,
        horizon=1.0,
        delta=1e-3,
    ),
    "exact-check": dict(
        model="toy-uniform",
        methods=["uniformization"],
        thetas=[0.5],
        steps=[64],
        samples=10**6,
        horizon=12.0,
        delta=0.0,
    ),
}


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _fmt_float(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _fmt_json_number(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        if math.isnan(x):
            return "NaN"
        return format(x, ".17g")
    return str(x)


def emit_results(rows, path, fmt: str = "csv", fits=None) -> None:
    """Serialize result rows (and optional fits) with 17 significant digits."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in rows:
            lines.append(
                ",".join(
                    [
                        r.method,
                        _fmt_float(r.theta),
                        str(r.steps),
                        _fmt_float(r.nfe),
                        _fmt_float(r.kl),
                        _fmt_float(r.ci_lo),
                        _fmt_float(r.ci_hi),
                        _fmt_float(r.positivity_frac),
                        _fmt_float(r.rejection_frac),
                        _fmt_float(r.wall_ms),
                        str(r.seed),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        row_objs = []
        for r in rows:
            parts = []
            for f in fields(ResultRow):
                v = getattr(r, f.name)
                val = json.dumps(v) if isinstance(v, str) else _fmt_json_number(v)
                parts.append(f"{json.dumps(f.name)}: {val}")
            row_objs.append("{" + ", ".join(parts) + "}")
        fit_objs = []
        for key, fit in fits or []:
            fit_objs.append(
                "{"
                + ", ".join(
                    [
                        f'"method": {json.dumps(key[0])}',
                        f'"theta": {_fmt_json_number(key[1])}',
                        f'"slope": {_fmt_json_number(fit.slope)}',
                        f'"intercept": {_fmt_json_number(fit.intercept)}',
                        f'"r_squared": {_fmt_json_number(fit.r_squared)}',
                        f'"n_points": {fit.n_points}',
                    ]
                )
                + "}"
            )
        text = (
            '{"rows": [' + ", ".join(row_objs) + '], "fits": [' + ", ".join(fit_objs) + "]}\n"
        )
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def parse_results(path) -> list:
    """Read back rows emitted by :func:`emit_results` (either format)."""
    with open(path) as fh:
        text = fh.read()
    rows = []
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        for obj in payload["rows"]:
            rows.append(ResultRow(**obj))
        return rows
    lines = [ln for ln in text.splitlines() if ln]
    if lines[0] != CSV_HEADER:
        raise DataError("unrecognized results header")
    for ln in lines[1:]:
        f = ln.split(",")
        rows.append(
            ResultRow(
                method=f[0],
                theta=float(f[1]),
                steps=int(f[2]),
                nfe=float(f[3]),
                kl=float(f[4]),
                ci_lo=float(f[5]),
                ci_hi=float(f[6]),
                positivity_frac=float(f[7]),
                rejection_frac=float(f[8]),
                wall_ms=float(f[9]),
                seed=int(f[10]),
            )
        )
    return rows


def _toy_target(config: ExperimentConfig) -> ProbabilityVector:
    if config.target_file:
        table = load_target_table(config.target_file, d=1, S=TOY_STATES)
        return ProbabilityVector(table.flat())
    p0_seed = config.seed if config.p0_seed is None else config.p0_seed
    return sample_simplex(TOY_STATES, substream(p0_seed, TAG_TARGET))


def _masked_target(config: ExperimentConfig) -> TargetTable:
    if config.target_file:
        return load_target_table(config.target_file)
    p0_seed = config.seed if config.p0_seed is None else config.p0_seed
    return random_target_table(MASKED_DIMS, MASKED_VOCAB, substream(p0_seed, TAG_TARGET))


def _sweep(config: ExperimentConfig, model, target: ProbabilityVector, n_states: int):
    """Run the (method, theta, steps) product and collect rows plus fits."""
    rows = []
    cell = 0
    for method in config.methods:
        for theta in config.thetas:
            for n_steps in config.steps:
                t0 = time.monotonic()
                grid = make_time_grid(config.horizon, config.delta, n_steps, theta)
                scfg = SolverConfig(method, grid, config.seed)
                samples, tel, nfe = run_sampler(
                    scfg, model, config.samples, workers=config.workers, collect_nfe=True
                )
                emp = empirical_distribution(samples, n_states)
                report = bootstrap_kl_ci(
                    emp,
                    target,
                    n_resamples=config.bootstrap,
                    level=config.ci_level,
                    rng=substream(config.seed, TAG_BOOT, cell),
                )
                wall_ms = (time.monotonic() - t0) * 1e3
                rows.append(
                    ResultRow(
                        method=method,
                        theta=theta,
                        steps=n_steps,
                        nfe=tel.nfe / config.samples,
                        kl=report.estimate,
                        ci_lo=report.ci_lo,
                        ci_hi=report.ci_hi,
                        positivity_frac=tel.positivity_fraction,
                        rejection_frac=tel.rejection_fraction,
                        wall_ms=wall_ms,
                        seed=config.seed,
                    )
                )
                _info(
                    f"{method} theta={theta} N={n_steps}: kl={report.estimate:.4e} "
                    f"[{report.ci_lo:.4e}, {report.ci_hi:.4e}] "
                    f"pos={tel.positivity_fraction:.4f} rej={tel.rejection_fraction:.2e} "
                    f"({wall_ms:.0f} ms)"
                )
                if nfe is not None:
                    _info(f"  nfe mean={nfe.mean():.2f} p95={np.percentile(nfe, 95):.1f}")
                cell += 1
    fits = _fit_rows(config, rows, n_states)
    return rows, fits


def _fit_rows(config: ExperimentConfig, rows, n_states: int):
    """Per (method, theta) log-log fit over the asymptotic window.

    The window keeps step counts >= min_fit_steps and KL above ten times the
    plug-in noise floor, so the slope is contaminated neither by the
    pre-asymptotic regime nor by the sampling floor.
    """
    floor = noise_floor(config.samples, n_states)
    fits = []
    for method in config.methods:
        for theta in config.thetas:
            pts = [
                (r.steps, r.kl)
                for r in rows
                if r.method == method
                and r.theta == theta
                and math.isfinite(r.kl)
                and r.kl > 10.0 * floor
            ]
            try:
                fit = fit_loglog_slope(pts, min_steps=config.min_fit_steps)
            except (ConfigError, DataError):
                _info(f"# fit {method} theta={theta}: too few points in the asymptotic window")
                continue
            fits.append(((method, theta), fit))
            _info(
                f"# fit {method} theta={theta}: order={fit.order:.3f} "
                f"r2={fit.r_squared:.4f} points={fit.n_points}"
            )
    return fits


def cmd_toy_converge(config: ExperimentConfig):
    p0 = _toy_target(config)
    model = ToyUniformModel(p0, horizon=config.horizon)
    return _sweep(config, model, p0, TOY_STATES)


def cmd_masked_converge(config: ExperimentConfig):
    table = _masked_target(config)
    model = MaskedToyModel(table, NoiseSchedule(), horizon=config.horizon)
    target = ProbabilityVector(table.flat())
    return _sweep(config, model, target, table.S**table.d)


COMMANDS = {
    "toy-converge": cmd_toy_converge,
    "masked-converge": cmd_masked_converge,
    "exact-check": cmd_toy_converge,
}


def _read_config_file(path: str) -> dict:
    """Flat key=value overrides; later CLI flags win over file values."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"expected key=value lines in {path}, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_LIST_KEYS = {"method": str, "theta": float, "steps": int}
_SCALAR_KEYS = {
    "samples": int,
    "seed": int,
    "horizon": float,
    "delta": float,
    "target_file": str,
    "out": str,
    "format": str,
    "workers": int,
    "bootstrap": int,
    "ci_level": float,
    "min_fit_steps": int,
    "p0_seed": int,
}


def _split_list(value: str, cast):
    return [cast(v) for v in str(value).split(",") if v != ""]


def build_config(command: str, flag_values: dict) -> ExperimentConfig:
    """Merge subcommand defaults, config-file values, and explicit flags."""
    base = dict(DEFAULTS[command])
    merged = {
        "methods": base["methods"],
        "thetas": base["thetas"],
        "steps": base["steps"],
        "samples": base["samples"],
        "seed": 0,
        "horizon": base["horizon"],
        "delta": base["delta"],
        "target_file": None,
        "out": "-",
        "fmt": "csv",
        "workers": int(os.environ.get(WORKERS_ENV, "1")),
        "bootstrap": 1000,
        "ci_level": 0.95,
        "min_fit_steps": 16,
        "p0_seed": None,
    }
    sources = []
    if flag_values.get("config"):
        sources.append(_read_config_file(flag_values["config"]))
    sources.append({k: v for k, v in flag_values.items() if k != "config" and v is not None})
    for src in sources:
        for key, value in src.items():
            if key in _LIST_KEYS:
                dest = {"method": "methods", "theta": "thetas", "steps": "steps"}[key]
                merged[dest] = _split_list(value, _LIST_KEYS[key]) if isinstance(value, str) else value
            elif key == "format":
                merged["fmt"] = str(value)
            elif key in _SCALAR_KEYS:
                merged[key] = _SCALAR_KEYS[key](value)
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
    return ExperimentConfig(model=DEFAULTS[command]["model"], **merged)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetaleap", description="Reverse-diffusion sampler studies on finite state spaces"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value config file; flags win", default=None)
        p.add_argument("--method", help="comma list of methods", default=None)
        p.add_argument("--theta", help="comma list of theta values", default=None)
        p.add_argument("--steps", help="comma list of step counts", default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--target-file", dest="target_file", default=None)
        p.add_argument("--out", default=None, help="output path, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--bootstrap", type=int, default=None, help="bootstrap resample count")
        p.add_argument("--ci-level", dest="ci_level", type=float, default=None)
        p.add_argument("--min-fit-steps", dest="min_fit_steps", type=int, default=None)
        p.add_argument("--p0-seed", dest="p0_seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        config = build_config(args.command, flag_values)
        rows, fits = COMMANDS[args.command](config)
        emit_results(rows, config.out, config.fmt, fits=fits)
    except (ConfigError, DataError) as exc:
        _info(f"error: {exc}")
        return 2
    except OSError as exc:
        _info(f"i/o error: {exc}")
        return 3
    except (NumericalError, ThetaLeapError) as exc:
        _info(f"model error: {exc}")
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
