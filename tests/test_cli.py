import json
import math

import numpy as np
import pytest

from thetaleap.cli import (
    COMMANDS,
    CSV_HEADER,
    ResultRow,
    build_config,
    emit_results,
    main,
    parse_results,
)
from thetaleap.errors import ConfigError


def _rows():
    return [
        ResultRow("tau-leaping", 0.5, 8, 8.0, 0.123456789012345678, 0.11, 0.13, 1.0, 0.01, 52.5, 7),
        ResultRow("theta-trapezoidal", 0.5, 16, 32.0, math.inf, 0.0, math.inf, 0.97, 0.0, 9.25, 7),
    ]


def test_emit_parse_roundtrip_csv(tmp_path):
    path = tmp_path / "out.csv"
    rows = _rows()
    emit_results(rows, path, "csv")
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert parse_results(path) == rows


def test_emit_parse_roundtrip_json(tmp_path):
    path = tmp_path / "out.json"
    rows = _rows()
    emit_results(rows, path, "json")
    assert parse_results(path) == rows
    payload = json.loads(path.read_text())
    assert list(payload["rows"][0].keys())[0] == "method"


def test_emit_empty_table_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results([], path, "csv")
    assert path.read_text() == CSV_HEADER + "\n"


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
    assert cfg.thetas == [0.5]
    assert cfg.bootstrap == 1000 and cfg.ci_level == 0.95
    masked = build_config("masked-converge", {})
    assert masked.delta == 1e-3 and masked.horizon == 1.0
    assert masked.samples == 2 * 10**5


def test_build_config_flag_and_file_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("samples=500\nsteps=2,4\ntheta=0.25\n# comment\nseed=9\n")
    cfg = build_config("toy-converge", {"config": str(conf), "samples": 700})
    assert cfg.samples == 700  # flag wins over file
    assert cfg.steps == [2, 4] and cfg.thetas == [0.25] and cfg.seed == 9


def test_build_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        build_config("toy-converge", {"steps": "8,4"})
    with pytest.raises(ConfigError):
        build_config("toy-converge", {"theta": "1.5"})
    with pytest.raises(ConfigError):
        build_config("toy-converge", {"samples": "0"})


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
    rows = parse_results(out1)
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
    rows = parse_results(out)
    assert {r.method for r in rows} == {"tau-leaping", "theta-trapezoidal"}


def test_cli_exact_check_small_run(tmp_path):
    code, out = _run_cli(
        tmp_path,
        "exact.csv",
        ["exact-check", "--samples", "20000", "--steps", "16", "--seed", "2", "--bootstrap", "50"],
    )
    assert code == 0
    row = parse_results(out)[0]
    assert row.method == "uniformization"
    assert row.nfe > 0 and row.kl < 20 * 14 / (2 * 20000)


def test_cli_exit_code_config_error(tmp_path):
    assert main(["toy-converge", "--samples", "0"]) == 2
    assert main(["toy-converge", "--steps", "8,4"]) == 2


def test_cli_exit_code_io_error(tmp_path):
    code = main(
        [
            "toy-converge",
            "--samples", "2000",
            "--steps", "4",
            "--method", "tau-leaping",
            "--bootstrap", "10",
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
        ]
    )
    assert code == 3


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
    assert parse_results(out)[0].kl < 20 * 14 / (2 * 5000)


def test_cli_exit_code_numerical_error(tmp_path):
    # Euler with a 3-unit step: transition probabilities exceed one
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


def _write_table(path, probs, d, S):
    path.write_text(f"# d={d} S={S}\n" + "\n".join(f"{i} {v:.17g}" for i, v in enumerate(probs)) + "\n")
    return str(path)


def test_cli_masked_large_vocabulary(tmp_path):
    # S = 200 tokens plus MASK do not fit the int8 states used for small S
    table = _write_table(tmp_path / "s200.txt", np.full(200, 1 / 200), d=1, S=200)
    code, out = _run_cli(
        tmp_path,
        "masked.csv",
        ["masked-converge", "--samples", "2000", "--steps", "4", "--method", "tau-leaping",
         "--bootstrap", "10", "--target-file", table],
    )
    assert code == 0
    assert parse_results(out)[0].steps == 4


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
