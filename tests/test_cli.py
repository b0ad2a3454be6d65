import csv
import hashlib
import json
import math
import multiprocessing
import pickle
import re
import subprocess
import sys

from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from thetaleap import cli
from thetaleap.cli import (
    COMMANDS,
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    build_config,
    emit_results,
    main,
)
from thetaleap.engine import CHUNK_SIZE, SolverConfig, substream
from thetaleap.errors import ConfigError
from thetaleap.masked import random_target_table
from thetaleap.metrics import ConvergenceFit
from thetaleap.models import sample_simplex


def _rows():
    return [
        ResultRow("tau-leaping", 0.5, 8, 8.0, 0.123456789012345678, 0.11, 0.13, 1.0, 0.01, 52.5, 7),
        ResultRow("theta-trapezoidal", 0.5, 16, 32.0, math.inf, 0.0, math.inf, 0.97, 0.0, 9.25, 7),
    ]


# the Python type each result column holds
_KIND = {"str": str, "int": int, "float": float}
_COLUMN_KINDS = {f.name: _KIND[f.type] for f in fields(ResultRow)}


def _csv_cells(path) -> list[dict]:
    """The CLI's CSV read back through the csv module, each cell cast to its column's type."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == CSV_HEADER.split(",")
        return [{k: _COLUMN_KINDS[k](v) for k, v in cells.items()} for cells in reader]


def _read_rows(path) -> list[ResultRow]:
    return [ResultRow(**cells) for cells in _csv_cells(path)]


def test_emit_parse_roundtrip_csv(tmp_path):
    path = tmp_path / "out.csv"
    rows = _rows()
    emit_results(rows, path, "csv")
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert text.splitlines()[2].split(",")[6] == "inf"
    assert _read_rows(path) == rows


def test_emit_parse_roundtrip_json(tmp_path):
    path = tmp_path / "out.json"
    rows = _rows()
    fit = ConvergenceFit(-1.25, 0.5, 0.99, 3)
    emit_results(rows, path, "json", fits=[(("tau-leaping", 0.5), fit)])
    payload = json.loads(path.read_text())
    assert [ResultRow(**obj) for obj in payload["rows"]] == rows
    assert list(payload["rows"][0].keys())[0] == "method"
    # float columns load as floats, also where the value is whole
    assert all(type(obj[k]) is _COLUMN_KINDS[k] for obj in payload["rows"] for k in obj)
    assert payload["fits"] == [{"method": "tau-leaping", "theta": 0.5, **asdict(fit)}]


def test_emit_empty_table_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results([], path, "csv")
    assert path.read_text() == CSV_HEADER + "\n"
    assert _read_rows(path) == []
    emit_results([], path, "json")
    assert json.loads(path.read_text()) == {"rows": [], "fits": []}


def _same(a, b) -> bool:
    return type(a) is type(b) and (a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b)))


def test_json_values_equal_csv_cells_exactly(tmp_path):
    # one seed-0 sweep written both ways, plus a row of non-finite floats
    cfg = build_config(
        "toy-converge",
        {"samples": "2000", "steps": "4,8,16", "method": "tau-leaping,theta-rk2,theta-trapezoidal",
         "bootstrap": "50", "seed": "0", "min_fit_steps": "4"},
    )
    rows, fits = COMMANDS["toy-converge"](cfg)
    assert len(rows) == 9
    rows.append(ResultRow("euler", 0.25, 4, 4.0, math.nan, -math.inf, math.inf, 1.0, 0.0, 0.1, 0))
    emit_results(rows, tmp_path / "out.csv", "csv")
    emit_results(rows, tmp_path / "out.json", "json", fits=fits)
    from_csv = _csv_cells(tmp_path / "out.csv")
    text = (tmp_path / "out.json").read_text()
    from_json = json.loads(text)["rows"]
    assert len(from_json) == len(from_csv) == 10
    for obj, cells in zip(from_json, from_csv):
        assert list(obj) == list(cells)
        assert all(_same(obj[k], cells[k]) for k in cells), (obj, cells)
    assert '"kl": NaN, "ci_lo": -Infinity, "ci_hi": Infinity' in text
    assert fits and len(json.loads(text)["fits"]) == len(fits)


def test_csv_floats_have_17_significant_digits(tmp_path):
    path = tmp_path / "out.csv"
    emit_results(_rows(), path, "csv")
    kl_field = path.read_text().splitlines()[1].split(",")[4]
    assert float(kl_field) == 0.123456789012345678
    assert len(kl_field.replace(".", "").lstrip("0")) >= 17


def test_build_config_defaults_match_study_parameters():
    cfg = build_config("toy-converge", {})
    assert cfg.samples == 10**6
    assert cfg.steps == [4, 8, 16, 32, 64, 128]
    assert cfg.horizon == 12.0 and cfg.delta == 0.0
    assert cfg.theta == [0.5]
    assert cfg.bootstrap == 1000 and cfg.ci_level == 0.95
    masked = build_config("masked-converge", {})
    assert masked.delta == 1e-3 and masked.horizon == 1.0
    assert masked.samples == 2 * 10**5


def test_build_config_flag_and_file_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("samples=500\nsteps=2,4\ntheta=0.25\n# comment\nseed=9\n")
    cfg = build_config("toy-converge", {"config": str(conf), "samples": 700})
    assert cfg.samples == 700  # flag wins over file
    assert cfg.steps == [2, 4] and cfg.theta == [0.25] and cfg.seed == 9


def test_build_config_rejects_bad_values(tmp_path, monkeypatch):
    bad = [
        {"steps": "8,4"},
        {"samples": "0"},
        {"theta": "abc"},
        {"steps": "4,x"},
        {"seed": "-1"},
        {"p0_seed": "-1"},
        {"bootstrap": "1"},
        {"workers": "0"},
        # refused while the config is built, so no pool forks: 10^8 samples
        # make 6,104 chunks, and a pool starts one worker per chunk up to --workers
        {"workers": str(cli.MAX_WORKERS + 1)},
        {"workers": "100000", "samples": str(cli.MAX_SAMPLES)},
    ]
    for flags in bad:
        with pytest.raises(ConfigError):
            build_config("toy-converge", flags)
    conf = tmp_path / "run.conf"
    conf.write_text("samples=abc\n")
    with pytest.raises(ConfigError):
        build_config("toy-converge", {"config": str(conf)})
    monkeypatch.setenv("THETALEAP_WORKERS", "abc")
    with pytest.raises(ConfigError):
        build_config("toy-converge", {})


def test_every_setting_reads_the_same_by_flag_and_by_config_file(tmp_path, monkeypatch):
    values = {
        "method": "tau-leaping,theta-rk2",
        "theta": "0.25,0.5",
        "steps": "2,4",
        "samples": "500",
        "horizon": "3.5",
        "delta": "0.01",
        "seed": "9",
        "target_file": "p0.txt",
        "out": str(tmp_path / "res.json"),
        "format": "json",
        "workers": "2",
        "bootstrap": "50",
        "ci_level": "0.9",
        "min_fit_steps": "4",
        "p0_seed": "5",
    }
    assert set(values) == {f.name for f in fields(ExperimentConfig)}
    seen = []
    monkeypatch.setitem(COMMANDS, "toy-converge", lambda config: seen.append(config) or ([], []))
    argv = ["toy-converge"]
    lines = []
    for i, (key, value) in enumerate(values.items()):
        argv += ["--" + key.replace("_", "-"), value]
        # file keys may be spelled with '-' or '_'
        lines.append(f"{key.replace('_', '-') if i % 2 else key}={value}\n")
    assert main(argv) == 0
    conf = tmp_path / "run.conf"
    conf.write_text("".join(lines))
    assert main(["toy-converge", "--config", str(conf)]) == 0
    by_flag, by_file = seen
    assert by_flag == by_file
    assert by_flag.theta == [0.25, 0.5] and by_flag.steps == [2, 4] and by_flag.p0_seed == 5
    conf.write_text("bogus=1\n")
    assert main(["toy-converge", "--config", str(conf)]) == 2
    assert len(seen) == 2


def _run_cli(tmp_path, name, extra):
    out = tmp_path / name
    code = main(extra + ["--out", str(out)])
    return code, out


def test_cli_toy_small_run_and_determinism_across_workers(tmp_path):
    args = [
        "toy-converge",
        "--samples", "20000",
        "--steps", "4,8",
        "--method", "tau-leaping,theta-trapezoidal",
        "--seed", "3",
        "--bootstrap", "100",
    ]
    code1, out1 = _run_cli(tmp_path, "w1.csv", args + ["--workers", "1"])
    code2, out2 = _run_cli(tmp_path, "w2.csv", args + ["--workers", "2"])
    assert code1 == code2 == 0

    def strip_wall(path):
        lines = path.read_text().splitlines()
        return [",".join(f.split(",")[:9] + f.split(",")[10:]) for f in lines]

    assert strip_wall(out1) == strip_wall(out2)
    rows = _read_rows(out1)
    assert len(rows) == 4
    assert all(r.ci_lo <= r.kl <= r.ci_hi for r in rows)


def test_cli_masked_small_run(tmp_path):
    code, out = _run_cli(
        tmp_path,
        "masked.csv",
        [
            "masked-converge",
            "--samples", "5000",
            "--steps", "4,8",
            "--seed", "1",
            "--bootstrap", "50",
        ],
    )
    assert code == 0
    rows = _read_rows(out)
    assert {r.method for r in rows} == {"tau-leaping", "theta-trapezoidal"}


def test_cli_exact_check_small_run(tmp_path):
    code, out = _run_cli(
        tmp_path,
        "exact.csv",
        ["exact-check", "--samples", "20000", "--steps", "16", "--seed", "2", "--bootstrap", "50"],
    )
    assert code == 0
    row = _read_rows(out)[0]
    assert row.method == "uniformization"
    assert row.nfe > 0 and row.kl < 20 * 14 / (2 * 20000)


def test_cli_exit_code_config_error(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("samples=abc\n")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("# d=1 S=15 \xe9t\xe9\n".encode("latin-1"))
    for argv in (
        ["--samples", "0"],
        ["--steps", "8,4"],
        ["--theta", "abc"],
        ["--steps", "4,x"],
        ["--seed", "-1"],
        ["--p0-seed", "-1"],
        ["--method", ","],
        ["--theta", ","],
        ["--config", str(conf)],
        ["--config", str(latin1)],
        ["--target-file", str(latin1)],
        # sizes whose arrays would not fit in memory
        ["--samples", str(cli.MAX_SAMPLES + 1)],
        ["--samples", "10000000000000"],
        ["--bootstrap", str(cli.MAX_BOOTSTRAP + 1)],
        ["--bootstrap", "100000000"],
        # a repeated method or theta would sample one cell twice
        ["--method", "tau-leaping,tau-leaping", "--samples", "1000"],
        ["--method", "euler,tau-leaping,euler", "--samples", "1000"],
        ["--theta", "0.5,0.5", "--samples", "1000"],
        ["--theta", "0.25,0.250", "--samples", "1000"],
        ["--workers", str(cli.MAX_WORKERS + 1), "--samples", "1000"],
    ):
        assert main(["toy-converge"] + argv) == 2
    monkeypatch.setenv("THETALEAP_WORKERS", "abc")
    assert main(["toy-converge"]) == 2
    assert all(ln.startswith("error: ") for ln in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["toy-converge", "--method", "tau-leaping,bogus", "--theta", "0.5"],
            id="tau-leaping,bogus-0.5",
        ),
        pytest.param(["toy-converge", "--method", "euler,bogus", "--theta", "0.5"], id="euler,bogus-0.5"),
        pytest.param(
            ["toy-converge", "--method", "tau-leaping,theta-trapezoidal", "--theta", "0.5,1"],
            id="tau-leaping,theta-trapezoidal-0.5,1",
        ),
        # TimeGrid rejects theta outside (0, 1] when the sweep builds its cells
        pytest.param(["toy-converge", "--theta", "1.5"], id="theta-1.5"),
        # the masked schedule is defined on (0, 1] only
        pytest.param(["masked-converge", "--horizon", "2"], id="masked-horizon-2"),
        pytest.param(["toy-converge", "--steps", "4,8", "--horizon", "inf"], id="horizon-inf"),
        # step counts above TimeGrid's cap: np.linspace cannot size the first,
        # and N + 1 wraps around int64 for the second
        pytest.param(["toy-converge", "--steps", "100000000000000000000"], id="steps-1e20"),
        pytest.param(["toy-converge", "--steps", "9223372036854775807"], id="steps-int64-max"),
    ],
)
def test_cli_rejects_a_bad_sweep_cell_before_sampling(tmp_path, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli, "run_sampler", lambda *a, **k: calls.append(a))
    command, flags = argv[0], argv[1:]
    # the case's own flags come last, so they win over these defaults
    code = main(
        [command, "--samples", "1000", "--steps", "4", "--bootstrap", "10", "--out", str(tmp_path / "x.csv")]
        + flags
    )
    assert code == 2
    assert calls == []


def test_cli_exit_code_io_error(tmp_path, monkeypatch):
    # an output that cannot be created, in a missing directory or at a path
    # that is a directory, fails before the first cell samples
    calls = []
    monkeypatch.setattr(cli, "run_sampler", lambda *a, **k: calls.append(a))
    for out in (tmp_path / "missing-dir" / "x.csv", tmp_path):
        code = main(
            [
                "toy-converge",
                "--samples", "2000",
                "--steps", "4",
                "--method", "tau-leaping",
                "--bootstrap", "10",
                "--out", str(out),
            ]
        )
        assert code == 3
    assert calls == []


def test_cli_target_file_roundtrip(tmp_path):
    # a user-supplied toy target distribution is honored
    p = np.full(15, 1 / 15)
    path = tmp_path / "p0.txt"
    path.write_text("# d=1 S=15\n" + "\n".join(f"{i} {v:.17g}" for i, v in enumerate(p)) + "\n")
    code, out = _run_cli(
        tmp_path,
        "toy.csv",
        [
            "toy-converge",
            "--samples", "5000",
            "--steps", "4",
            "--method", "tau-leaping",
            "--bootstrap", "20",
            "--target-file", str(path),
        ],
    )
    assert code == 0
    # uniform target: the sampler preserves uniformity, so KL sits near the floor
    assert _read_rows(out)[0].kl < 20 * 14 / (2 * 5000)


def test_cli_toy_target_file_of_another_shape_fails_before_sampling(tmp_path, monkeypatch, capsys):
    # the toy fixes d=1 and S=15, so a 16-cell d=2 S=4 table is refused up front
    calls = []
    monkeypatch.setattr(cli, "run_sampler", lambda *a, **k: calls.append(a))
    path = tmp_path / "p0.txt"
    path.write_text("# d=2 S=4\n" + "".join(f"{i} 0.0625\n" for i in range(16)))
    code = main(
        ["toy-converge", "--samples", "1000", "--steps", "4", "--method", "tau-leaping",
         "--bootstrap", "10", "--target-file", str(path), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "d=2 S=4" in err and "d=1 S=15" in err


def test_cli_exit_code_numerical_error(tmp_path):
    # Euler with a 3-unit step: transition probabilities exceed one; results
    # are written only at the end, so the failed run leaves --out untouched
    (tmp_path / "x.csv").write_text("earlier results\n")
    code = main(
        [
            "toy-converge",
            "--samples", "1000",
            "--steps", "4",
            "--method", "euler",
            "--bootstrap", "10",
            "--out", str(tmp_path / "x.csv"),
        ]
    )
    assert code == 4
    assert (tmp_path / "x.csv").read_text() == "earlier results\n"


def _write_table(path, probs, d, S):
    path.write_text(f"# d={d} S={S}\n" + "\n".join(f"{i} {v:.17g}" for i, v in enumerate(probs)) + "\n")
    return str(path)


def test_cli_masked_large_vocabulary(tmp_path):
    # S = 200 tokens plus MASK: 201 labels, each a table row of 200 slots
    table = _write_table(tmp_path / "s200.txt", np.full(200, 1 / 200), d=1, S=200)
    code, out = _run_cli(
        tmp_path,
        "masked.csv",
        ["masked-converge", "--samples", "2000", "--steps", "4", "--method", "tau-leaping",
         "--bootstrap", "10", "--target-file", table],
    )
    assert code == 0
    assert _read_rows(out)[0].steps == 4


@pytest.mark.parametrize("command,d,S", [("masked-converge", 3, 4), ("toy-converge", 1, 15)])
def test_cli_non_finite_target_file_fails_at_load(tmp_path, monkeypatch, capsys, command, d, S):
    # a NaN entry used to load and fail only once sampling had started (exit 4)
    calls = []
    monkeypatch.setattr(cli, "run_sampler", lambda *a, **k: calls.append(a))
    path = tmp_path / "p0.txt"
    path.write_text(f"# d={d} S={S}\n0 nan\n")
    code = main(
        [command, "--samples", "1000", "--steps", "4", "--bootstrap", "10",
         "--target-file", str(path), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert calls == []
    assert "NaN or infinite" in capsys.readouterr().err


def test_cli_masked_zero_cells_sample_or_fail_as_model_errors(tmp_path, capsys):
    # the target (0.5, 0, 0, 0.5) on d=2, S=2: Euler unmasks one position at
    # a time and never meets a zero-mass context; tau-leaping can unmask both
    # positions in one update onto the zero cell (1, 0), whose rates are then
    # undefined
    table = _write_table(tmp_path / "diag.txt", [0.5, 0.0, 0.0, 0.5], d=2, S=2)
    common = ["masked-converge", "--samples", "20000", "--bootstrap", "10", "--target-file", table,
              "--out", str(tmp_path / "x.csv")]
    assert main(common + ["--method", "euler", "--steps", "16", "--delta", "0.5"]) == 0
    capsys.readouterr()
    assert main(common + ["--method", "tau-leaping", "--steps", "4"]) == 4
    assert "zero mass" in capsys.readouterr().err


def test_cli_zero_mass_target_is_a_model_error(tmp_path):
    # theta = 1 with no early stop evaluates the score at the target itself,
    # where a zero-mass state has none: exit 4, not a raw traceback
    p = np.full(15, 1 / 14)
    p[0] = 0.0
    table = _write_table(tmp_path / "p0.txt", p, d=1, S=15)
    with pytest.warns(UserWarning):
        code = main(
            ["toy-converge", "--samples", "1000", "--steps", "4", "--method", "theta-rk2",
             "--theta", "1", "--delta", "0", "--bootstrap", "10", "--target-file", table,
             "--out", str(tmp_path / "x.csv")]
        )
    assert code == 4


def test_cli_zero_mass_target_error_on_a_pool(tmp_path, capsys):
    # the same model error raised in a worker: exit 4, the failing chunk's
    # trajectories named, and the pool's workers joined
    p = np.full(15, 1 / 14)
    p[0] = 0.0
    table = _write_table(tmp_path / "p0.txt", p, d=1, S=15)
    with pytest.warns(UserWarning):
        code = main(
            ["toy-converge", "--samples", str(CHUNK_SIZE + 1000), "--steps", "4", "--method", "theta-rk2",
             "--theta", "1", "--delta", "0", "--bootstrap", "10", "--target-file", table,
             "--workers", "2", "--out", str(tmp_path / "x.csv")]
        )
    assert code == 4
    assert re.search(r"\[trajectories \d+\.\.\d+\]", capsys.readouterr().err)
    assert multiprocessing.active_children() == []


def _toy_sweep(tmp_path, samples, workers):
    return main(
        ["toy-converge", "--method", "tau-leaping", "--steps", "1,2", "--samples", str(samples),
         "--workers", str(workers), "--bootstrap", "10", "--out", str(tmp_path / "x.csv")]
    )


def test_cli_sweep_runs_on_one_pool_and_tasks_carry_no_model(tmp_path, pool_log):
    pools, tasks = pool_log
    assert _toy_sweep(tmp_path, CHUNK_SIZE + 100, workers=2) == 0
    assert len(pools) == 1
    assert [task[1:] for task in tasks] == [(0, CHUNK_SIZE), (1, 100)] * 2
    for task in tasks:
        assert isinstance(task[0], SolverConfig)
        assert b"ToyUniformModel" not in pickle.dumps(task)


def test_cli_pool_starts_no_more_workers_than_chunks(tmp_path, pool_log):
    # 20000 samples make two chunks, so two of the four requested workers suffice
    pools, _ = pool_log
    assert _toy_sweep(tmp_path, 20000, workers=4) == 0
    assert len(pools) == 1 and pools[0]._max_workers == 2


@pytest.mark.parametrize("samples, workers", [(CHUNK_SIZE + 100, 1), (1000, 2)])
def test_cli_serial_or_single_chunk_sweep_starts_no_pool(tmp_path, pool_log, samples, workers):
    assert _toy_sweep(tmp_path, samples, workers) == 0
    assert pool_log[0] == []


def test_package_and_cli_import_numpy_but_not_scipy():
    # numpy is the only runtime dependency, although the tests use scipy; and
    # the package root holds no re-exports, so importing it loads no submodule
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import thetaleap; "
        "print(sorted(m for m in sys.modules if m.startswith('thetaleap.'))); import thetaleap.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["[]", "[]"]


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("THETALEAP_WORKERS", "3")
    assert build_config("toy-converge", {}).workers == 3
    monkeypatch.setenv("THETALEAP_WORKERS", "1")
    assert build_config("toy-converge", {}).workers == 1


def test_exact_check_nfe_grows_as_delta_shrinks(tmp_path):
    means = []
    for delta in (1.0, 0.1, 0.0):
        cfg = build_config(
            "exact-check",
            {"samples": "20000", "steps": "32", "seed": "4", "bootstrap": "10",
             "delta": str(delta)},
        )
        rows, _ = COMMANDS["exact-check"](cfg)
        means.append(rows[0].nfe)
    assert means[0] < means[1] < means[2]


def test_cli_json_output(tmp_path):
    out = tmp_path / "res.json"
    code = main(
        [
            "toy-converge",
            "--samples", "5000",
            "--steps", "4,8",
            "--method", "tau-leaping",
            "--bootstrap", "20",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["rows"]) == 2
    assert "fits" in payload


# Seed-0 outputs pinned byte for byte, with the wall_ms column dropped.  A
# change that moves a random stream must update these digests openly.
PINNED_OUTPUTS = {
    "toy": (
        ["toy-converge", "--samples", "2000", "--steps", "64,128",
         "--method", "euler,tau-leaping,theta-rk2,theta-trapezoidal", "--bootstrap", "50"],
        "23ee3839a476bc1a3a16851f442f88ea596ea655d9686c6818fa8b32cbff6558",
    ),
    "masked": (
        ["masked-converge", "--samples", "20000", "--steps", "4,8", "--delta", "0.5",
         "--method", "euler,tau-leaping,theta-trapezoidal", "--bootstrap", "50"],
        "64d4fb8ef0b42b2235992d630136a351e61ee5203edb6dee69a913f7ab93061d",
    ),
    "exact-check": (
        ["exact-check", "--samples", "2000", "--steps", "4", "--bootstrap", "50"],
        "93a73bca4387f87107b1ad7c614f23fcf556e2a31a8b66efe23f19acde1ecf3b",
    ),
    "two-chunk": (
        ["toy-converge", "--samples", str(CHUNK_SIZE + 100), "--steps", "2",
         "--method", "theta-trapezoidal", "--bootstrap", "50"],
        "2e462b80e1dca48ed8ae942b48a4ef8243c700b985863ac23ca8e6e09ebb035c",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUTS))
def test_cli_output_bytes_are_pinned(tmp_path, name):
    argv, digest = PINNED_OUTPUTS[name]
    out = tmp_path / "out.csv"
    assert main(argv + ["--seed", "0", "--out", str(out)]) == 0
    wall = CSV_HEADER.split(",").index("wall_ms")
    cells = [line.split(",") for line in out.read_text().splitlines()]
    text = "".join(",".join(c[:wall] + c[wall + 1 :]) + "\n" for c in cells)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Seed-0 JSON text pinned byte for byte, each wall_ms value masked: the rows
# and the two per-method fits, every float the shortest text of its double.
PINNED_JSON = (
    ["toy-converge", "--samples", "2000", "--steps", "4,8,16", "--method", "tau-leaping,theta-trapezoidal",
     "--bootstrap", "50", "--min-fit-steps", "4", "--format", "json"],
    "77fc1e1365145fa6ec69f96aeb449f8d86d918a951de82f0120cd0c87bdcf172",
)


def test_cli_json_bytes_are_pinned(tmp_path):
    argv, digest = PINNED_JSON
    out = tmp_path / "out.json"
    assert main(argv + ["--seed", "0", "--out", str(out)]) == 0
    text, masked = re.subn(r'"wall_ms": [^,]+', '"wall_ms": 0', out.read_text())
    assert masked == 6 and len(json.loads(text)["fits"]) == 2
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The random targets the defaults and studybench use, pinned by the sha256 of
# their float64 bytes: the toy at p0-seeds 0 and 4, the masked table at 2.
# They stay put when the sampler's streams move, so a --p0-seed always names
# the same problem.
PINNED_TARGETS = {
    ("toy", 0): "db4629a851163380dc9ce94dc81ed45a83992d4e8c9fcd00a043997c60fe5300",
    ("toy", 4): "07a45c99e0ef4ea7ee4d175b09c63ae616d6fe5af4bab156a912c4c77c290f6c",
    ("masked", 2): "0d598af47d7a3a4718bf597dc1bd82249fac74f548401131a6569559149bb2b4",
}


@pytest.mark.parametrize("kind,p0_seed", list(PINNED_TARGETS))
def test_random_targets_are_pinned(kind, p0_seed):
    rng = substream(p0_seed, cli.TAG_TARGET)
    if kind == "toy":
        table = sample_simplex(cli.TOY_STATES, rng)
    else:
        table = random_target_table(cli.MASKED_DIMS, cli.MASKED_VOCAB, rng)
    digest = hashlib.sha256(table.flat().tobytes()).hexdigest()
    assert digest == PINNED_TARGETS[kind, p0_seed]
