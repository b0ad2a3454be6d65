"""Experiment driver.

Subcommands:
  toy-converge     sweep methods x thetas x step counts on the S=15 toy,
                   reporting bootstrapped KL and a log-log convergence fit
  masked-converge  the same sweep on the masked d=3, S=4 joint-table toy
  exact-check      the toy sweep run with uniformization: KL at the noise
                   floor and each cell's mean NFE (the per-trajectory count
                   is Poisson with that mean)

A sweep samples each law once: a method that reads no theta (Euler,
tau-leaping, uniformization) is sampled once per step count, and its rows
at every --theta share that histogram, nfe and fractions.

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
from dataclasses import MISSING, asdict, dataclass, field, fields

from .engine import THETA_METHODS, ChunkPool, SolverConfig, TimeGrid, run_sampler, substream
from .errors import ConfigError, ThetaLeapError
from .masked import TargetTable, load_target_table, random_target_table
from .metrics import bootstrap_kl_ci, empirical_distribution, fit_loglog_slope, noise_floor
from .models import MaskedToyModel, ToyUniformModel, sample_simplex

TOY_STATES = 15
MASKED_DIMS = 3
MASKED_VOCAB = 4
# Largest sizes a study accepts: 10^8 samples hold 0.8 GB of int64 states,
# and 10^5 resamples of the masked table's 64 cells take 51 MB per copy.
MAX_SAMPLES = 10**8
MAX_BOOTSTRAP = 10**5
# Most worker processes a sweep may ask for: a pool forks one per chunk up to
# --workers, and 10^8 samples make 6,104 chunks.
MAX_WORKERS = 256
# Level of every bootstrap KL interval the studies report.
CI_LEVEL = 0.95

# stream-purpose tags local to the CLI (solver tags live in engine)
TAG_BOOT = 101
TAG_TARGET = 102


@dataclass(frozen=True)
class ResultRow:
    """One sweep cell; the field order is the CSV column order."""

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


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


def _setting(cast, help: str, *, listed: bool = False, default=MISSING):
    """Declare one study setting: a config field and the --flag of the same name.

    ``cast`` turns one flag string into the value; a ``listed`` setting takes a
    comma list of such strings.
    """
    return field(default=default, metadata={"cast": cast, "listed": listed, "help": help})


@dataclass
class ExperimentConfig:
    """Every study setting; DEFAULTS supplies the fields without a default per subcommand."""

    method: list = _setting(str, "comma list of methods", listed=True)
    theta: list = _setting(float, "comma list of theta values", listed=True)
    steps: list = _setting(int, "comma list of step counts", listed=True)
    samples: int = _setting(int, "trajectories per cell")
    horizon: float = _setting(float, "diffusion horizon T")
    delta: float = _setting(float, "early stop: sample up to reverse time T - delta")
    seed: int = _setting(int, "sampling and bootstrap seed", default=0)
    target_file: str | None = _setting(str, "target table file (see README)", default=None)
    out: str = _setting(str, "output path, '-' for stdout", default="-")
    format: str = _setting(str, "csv or json", default="csv")
    workers: int = _setting(int, "worker processes", default=1)
    bootstrap: int = _setting(int, "bootstrap resample count", default=1000)
    min_fit_steps: int = _setting(int, "smallest step count in the order fit", default=16)
    p0_seed: int | None = _setting(int, "seed of the random target (default: --seed)", default=None)

    def __post_init__(self):
        if not self.steps or any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ConfigError("steps list must be nonempty and strictly increasing")
        if not self.method or not self.theta:
            raise ConfigError(f"method and theta lists must be nonempty, got {self.method} and {self.theta}")
        # a repeated value would sample the same cell twice under two bootstrap streams
        for name, values in (("method", self.method), ("theta", self.theta)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} list repeats a value: {values}")
        if not (1 <= self.samples <= MAX_SAMPLES):
            raise ConfigError(f"need 1 <= samples <= {MAX_SAMPLES}, got {self.samples}")
        if not (1 <= self.workers <= MAX_WORKERS):
            raise ConfigError(f"need 1 <= workers <= {MAX_WORKERS}, got {self.workers}")
        if not (2 <= self.bootstrap <= MAX_BOOTSTRAP):
            raise ConfigError(f"need 2 <= bootstrap <= {MAX_BOOTSTRAP} resamples, got {self.bootstrap}")
        # SeedSequence rejects negative entropy
        if self.seed < 0 or (self.p0_seed is not None and self.p0_seed < 0):
            raise ConfigError(f"seeds must be >= 0, got seed={self.seed}, p0_seed={self.p0_seed}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")


_SETTINGS = {f.name: f.metadata for f in fields(ExperimentConfig)}

DEFAULTS = {
    "toy-converge": dict(
        method=["tau-leaping", "theta-rk2", "theta-trapezoidal"],
        theta=[0.5],
        steps=[4, 8, 16, 32, 64, 128],
        samples=10**6,
        horizon=12.0,
        delta=0.0,
    ),
    "masked-converge": dict(
        method=["tau-leaping", "theta-trapezoidal"],
        theta=[0.5],
        steps=[16, 32, 64, 512],
        samples=2 * 10**5,
        horizon=1.0,
        delta=1e-3,
    ),
    "exact-check": dict(
        method=["uniformization"],
        theta=[0.5],
        steps=[64],
        samples=10**6,
        horizon=12.0,
        delta=0.0,
    ),
}


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _csv_cell(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def emit_results(rows, path, fmt: str = "csv", fits=None) -> None:
    """Write result rows (and optional fits) as CSV or JSON.

    CSV floats carry 17 significant digits; JSON floats are the shortest text
    that reads back to the same double.  ``fits`` holds
    ``((method, theta), ConvergenceFit)`` pairs; JSON names each fit by the
    result columns it summarizes.
    """
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(_csv_cell(v) for v in asdict(r).values()) for r in rows]
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "rows": [asdict(r) for r in rows],
            "fits": [{"method": method, "theta": theta, **asdict(fit)} for (method, theta), fit in fits or []],
        }
        text = json.dumps(payload) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _check_writable(path: str) -> None:
    """Fail before any sampling unless ``path`` is '-' or a file in a writable directory."""
    parent = os.path.dirname(path) or "."
    if path != "-" and (os.path.isdir(path) or not (os.path.isdir(parent) and os.access(parent, os.W_OK))):
        raise OSError(f"cannot write results to {path!r}: not a file in a writable directory")


def _toy_target(config: ExperimentConfig) -> TargetTable:
    if config.target_file:
        return load_target_table(config.target_file, d=1, S=TOY_STATES)
    p0_seed = config.seed if config.p0_seed is None else config.p0_seed
    return sample_simplex(TOY_STATES, substream(p0_seed, TAG_TARGET))


def _masked_target(config: ExperimentConfig) -> TargetTable:
    if config.target_file:
        return load_target_table(config.target_file)
    p0_seed = config.seed if config.p0_seed is None else config.p0_seed
    return random_target_table(MASKED_DIMS, MASKED_VOCAB, substream(p0_seed, TAG_TARGET))


def _sweep(config: ExperimentConfig, model, target: TargetTable):
    """Run the (method, theta, steps) product and collect rows plus fits.

    Every cell's grid and solver config is built before the first cell runs,
    so a bad method name or theta fails before any sampling.  The cells share
    one chunk pool, whose workers (if any start) are joined before this returns.
    Each law is sampled once: a method outside ``THETA_METHODS`` reads no
    theta and a chunk's stream is keyed by (seed, chunk), so its cells at one
    N share a histogram and telemetry, and a repeated cell's ``wall_ms``
    covers only the histogram lookup and its bootstrap interval, which every
    cell draws from its own stream.
    """
    cells = [
        SolverConfig(method, TimeGrid(config.horizon, config.delta, n_steps, theta), config.seed)
        for method in config.method
        for theta in config.theta
        for n_steps in config.steps
    ]
    p0 = target.flat()
    rows = []
    laws = {}  # (method, N, theta or None) -> (histogram, telemetry)
    with ChunkPool(model, config.workers) as pool:
        for cell, scfg in enumerate(cells):
            method, theta, n_steps = scfg.method, scfg.grid.theta, scfg.grid.n_intervals
            t0 = time.monotonic()
            law = (method, n_steps, theta if method in THETA_METHODS else None)
            if law not in laws:
                samples, tel = run_sampler(scfg, model, config.samples, pool=pool)
                laws[law] = empirical_distribution(samples, p0.size), tel
            counts, tel = laws[law]
            report = bootstrap_kl_ci(
                counts,
                p0,
                n_resamples=config.bootstrap,
                level=CI_LEVEL,
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
                f"[{report.ci_lo:.4e}, {report.ci_hi:.4e}] nfe={tel.nfe / config.samples:.2f} "
                f"pos={tel.positivity_fraction:.4f} rej={tel.rejection_fraction:.2e} "
                f"({wall_ms:.0f} ms)"
            )
    fits = _fit_rows(config, rows, p0.size)
    return rows, fits


def _fit_rows(config: ExperimentConfig, rows, n_states: int):
    """Per (method, theta) log-log fit over the asymptotic window.

    The window keeps step counts >= min_fit_steps and KL above ten times the
    plug-in noise floor, so the slope is contaminated neither by the
    pre-asymptotic regime nor by the sampling floor.
    """
    floor = noise_floor(config.samples, n_states)
    fits = []
    for method in config.method:
        for theta in config.theta:
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
            except ConfigError:
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
    return _sweep(config, model, p0)


def cmd_masked_converge(config: ExperimentConfig):
    table = _masked_target(config)
    model = MaskedToyModel(table, horizon=config.horizon)
    return _sweep(config, model, table)


COMMANDS = {
    "toy-converge": cmd_toy_converge,
    "masked-converge": cmd_masked_converge,
    "exact-check": cmd_toy_converge,
}


def _cast(key: str, value: str):
    """Turn a flag string into the setting's value."""
    cast, listed = _SETTINGS[key]["cast"], _SETTINGS[key]["listed"]
    try:
        return [cast(v) for v in value.split(",") if v != ""] if listed else cast(value)
    except ValueError as exc:
        raise ConfigError(f"bad value {value!r} for {key}: {exc}") from None


def build_config(command: str, flag_values: dict) -> ExperimentConfig:
    """The subcommand's defaults, overridden by each flag that was given."""
    flags = {key: _cast(key, value) for key, value in flag_values.items() if value is not None}
    return ExperimentConfig(**{**DEFAULTS[command], **flags})


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetaleap", description="Reverse-diffusion sampler studies on finite state spaces"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        for key, meta in _SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), help=meta["help"])
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        config = build_config(args.command, flag_values)
        _check_writable(config.out)
        rows, fits = COMMANDS[args.command](config)
        emit_results(rows, config.out, config.format, fits=fits)
    except ConfigError as exc:
        _info(f"error: {exc}")
        return 2
    except OSError as exc:
        _info(f"i/o error: {exc}")
        return 3
    except ThetaLeapError as exc:
        _info(f"model error: {exc}")
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
