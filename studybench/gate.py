"""Correctness gate for study output, run outside the timed region.

Each cell of a study's CSV is checked against an exact law:

- toy stepping cells: the plug-in KL(p0 || empirical) must sit within
  ``Z_LIMIT`` standard errors of its expectation under the scheme's exact
  terminal law q (from ``tests/kernel_oracle.exact_scheme_distribution``),
  using the delta-method mean KL(p0||q) + sum p0 (1-q) / (2 M q) and
  variance (sum p0^2 / q - 1) / M;
- uniformization cells: KL below ``EXACT_FLOOR_FACTOR`` times the noise
  floor (acceptance criterion 4);
- masked cells: the finest-grid theta-trapezoidal KL below
  ``MASKED_FLOOR_FACTOR`` times the floor (criterion 7);
- every stepping cell: NFE per sample exactly N times the scheme's stages.
"""

from __future__ import annotations

import itertools

import numpy as np

Z_LIMIT = 4.0
EXACT_FLOOR_FACTOR = 5.0
MASKED_FLOOR_FACTOR = 3.0
STAGES = {"tau-leaping": 1, "theta-rk2": 2, "theta-trapezoidal": 2}
WALL_COLUMN = 9


def parse_csv(text: str, header: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("study output does not start with the CSV header")
    names = header.split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        row = {k: float(v) for k, v in zip(names[1:], fields[1:])}
        row["method"] = fields[0]
        row["steps"] = int(fields[2])
        rows.append(row)
    return rows


def strip_wall(text: str) -> list[str]:
    """CSV lines without the wall-clock column, the only one allowed to vary."""
    return [",".join(f for i, f in enumerate(ln.split(",")) if i != WALL_COLUMN) for ln in text.splitlines()]


def kl(p: np.ndarray, q: np.ndarray) -> float:
    support = p > 0
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


def kl_z(kl_hat: float, p0: np.ndarray, q: np.ndarray, m: int) -> float:
    """Standardized distance of a plug-in KL(p0 || empirical) from its law under q."""
    bias = float(np.sum(p0 * (1.0 - q) / (2.0 * m * q)))
    sd = float(np.sqrt((np.sum(p0**2 / q) - 1.0) / m))
    return (kl_hat - kl(p0, q) - bias) / sd


def floor(m: int, support: int) -> float:
    return (support - 1) / (2.0 * m)


def expected_cells(methods, thetas, steps):
    return [(m, th, n) for m, th, n in itertools.product(methods, thetas, steps)]


def check_cells(spec, rows, p0, laws) -> list[str | None]:
    """One entry per expected cell: None when it passes, else the reason.

    ``spec`` carries ``kind`` ("toy", "exact" or "masked"), ``samples``,
    ``methods``, ``thetas`` and ``steps``; ``laws`` maps (method, theta, steps) to the
    exact scheme law (toy cells only).
    """
    m = spec.samples
    by_key = {(r["method"], r["theta"], r["steps"]): r for r in rows}
    cells = expected_cells(spec.methods, spec.thetas, spec.steps)
    finest = max(spec.steps)
    verdicts = []
    for key in cells:
        method, theta, n = key
        row = by_key.get(key)
        if row is None:
            verdicts.append(f"{key}: missing from the output")
            continue
        stages = STAGES.get(method)
        if stages is not None and row["nfe"] != n * stages:
            verdicts.append(f"{key}: nfe {row['nfe']!r} != {n * stages}")
            continue
        if spec.kind == "toy":
            z = kl_z(row["kl"], p0, laws[key], m)
            verdicts.append(None if abs(z) <= Z_LIMIT else f"{key}: |z| = {abs(z):.2f} > {Z_LIMIT}")
        elif spec.kind == "exact":
            limit = EXACT_FLOOR_FACTOR * floor(m, p0.size)
            verdicts.append(None if row["kl"] < limit else f"{key}: kl {row['kl']:.3e} >= {limit:.3e}")
        elif method == "theta-trapezoidal" and n == finest:
            limit = MASKED_FLOOR_FACTOR * floor(m, p0.size)
            verdicts.append(None if row["kl"] < limit else f"{key}: kl {row['kl']:.3e} >= {limit:.3e}")
        else:
            verdicts.append(None)
    extra = len(rows) - len(cells)
    if extra > 0:
        verdicts.extend([f"unexpected row beyond the {len(cells)} expected cells"] * extra)
    return verdicts


def study_failures(spec, csv: str, reference: list[str], p0, laws, header: str) -> list[str]:
    """Reasons for each failed cell of one study, including rows that differ from the reference bytes."""
    n_cells = len(expected_cells(spec.methods, spec.thetas, spec.steps))
    try:
        rows = parse_csv(csv, header)
    except ValueError as exc:
        return [str(exc)] * n_cells
    verdicts = check_cells(spec, rows, p0, laws)
    for i, line in enumerate(strip_wall(csv)[1 : len(verdicts) + 1]):
        if verdicts[i] is None and (i + 1 >= len(reference) or line != reference[i + 1]):
            verdicts[i] = f"row {i} differs from the reference run"
    return [v for v in verdicts if v is not None]
