"""Absorbing-state (masked) toy diffusion with an exact conditional oracle.

Tokens live in {0, ..., S-1}; the absorbing MASK symbol is encoded as S.
The forward process masks each coordinate independently at rate sigma(t);
the reverse process unmasks using exact conditionals of a small, explicitly
stored joint target, standing in for a learned sequence model.

:class:`TargetTable` is the package's one validated distribution: the
masked toy's joint target, and, as a d = 1 table, the uniform toy's p0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

TABLE_LOAD_ATOL = 1e-9
TABLE_SUM_ATOL = 1e-12
MAX_TABLE_CELLS = 10**6
MAX_COND_TABLE_ENTRIES = 5 * 10**7


@dataclass(frozen=True)
class NoiseSchedule:
    """Log-linear schedule: sigma(t) = (1-eps) / (1 - (1-eps) t) on [0, 1]."""

    eps: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")

    def sigma(self, t):
        """Instantaneous masking rate; finite on [0, 1] since eps > 0."""
        self._check_domain(t)
        return (1.0 - self.eps) / (1.0 - (1.0 - self.eps) * np.asarray(t, dtype=float))

    def sigma_bar(self, t):
        """Accumulated noise: integral of sigma, equal to -log(1 - (1-eps) t)."""
        self._check_domain(t)
        return -np.log(1.0 - (1.0 - self.eps) * np.asarray(t, dtype=float))

    @staticmethod
    def _check_domain(t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ConfigError(f"schedule time must lie in [0, 1], got {t!r}")


@dataclass(frozen=True)
class TargetTable:
    """Explicit joint distribution over [S]^d, enumerable by construction.

    Entries are finite, nonnegative and sum to 1 within ``TABLE_SUM_ATOL``;
    the array is a read-only copy, so a table is safe to share across worker
    processes.  A d = 1 table is a probability vector over S states.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        p.flags.writeable = False
        if p.ndim < 1:
            raise ConfigError("target table must have at least one axis")
        if p.size > MAX_TABLE_CELLS:
            raise ConfigError(f"target table has {p.size} cells, above the {MAX_TABLE_CELLS} cap")
        if len(set(p.shape)) != 1:
            raise ConfigError("target table must have the same number of sites per dimension")
        if not np.all(np.isfinite(p)):
            raise ConfigError("target table has NaN or infinite entries")
        if np.any(p < 0):
            raise ConfigError("target table has negative entries")
        if abs(p.sum() - 1.0) > TABLE_SUM_ATOL:
            raise ConfigError(f"target table mass {p.sum()!r} is outside tolerance {TABLE_SUM_ATOL}")
        object.__setattr__(self, "probs", p)

    @property
    def d(self) -> int:
        return self.probs.ndim

    @property
    def S(self) -> int:
        return self.probs.shape[0]

    def flat(self) -> np.ndarray:
        """Joint probabilities in C order: index = sum_l x_l * S^(d-1-l)."""
        return self.probs.ravel()


def random_target_table(d: int, S: int, rng: np.random.Generator) -> TargetTable:
    """Dense random target: flat-Dirichlet draw over all S^d cells."""
    w = rng.standard_exponential(S**d)
    return TargetTable((w / w.sum()).reshape((S,) * d))


def _parse_field(cast, text: str, line: str):
    try:
        return cast(text)
    except ValueError:
        raise ConfigError(f"malformed target-table line {line!r}") from None


def load_target_table(path, d: int | None = None, S: int | None = None) -> TargetTable:
    """Read an index/probability table; renormalizes small drift, rejects large.

    A caller that fixes ``d`` and ``S`` gets a :class:`ConfigError` when the
    file's ``# d=.. S=..`` header names another shape.
    """
    header = {}
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    for part in line[1:].split():
                        if part[:2] in ("d=", "S="):
                            header[part[0]] = _parse_field(int, part[2:], line)
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise ConfigError(f"expected 'index probability' rows, got {line!r}")
                idx = _parse_field(int, fields[0], line)
                if idx in entries:
                    raise ConfigError(f"index {idx} appears more than once in the target table")
                entries[idx] = _parse_field(float, fields[1], line)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"target file {path} is not UTF-8 text: {exc}") from None
    file_d, file_S = header.get("d", d), header.get("S", S)
    if (d is not None and file_d != d) or (S is not None and file_S != S):
        raise ConfigError(f"target file has shape d={file_d} S={file_S}, but this study needs d={d} S={S}")
    d, S = file_d, file_S
    if d is None or S is None:
        raise ConfigError("table dimensions unknown; provide d and S or a '# d=.. S=..' header")
    # past log2(cap) dimensions any S >= 2 overflows the cap, so S**d stays cheap;
    # S >= 2 gives every table at least two cells, which the noise floor needs
    max_d = MAX_TABLE_CELLS.bit_length()
    if not (1 <= d <= max_d and S >= 2 and S**d <= MAX_TABLE_CELLS):
        raise ConfigError(
            f"table shape d={d} S={S} is out of range: need 1 <= d <= {max_d}, S >= 2 "
            f"and S**d <= {MAX_TABLE_CELLS} cells"
        )
    flat = np.zeros(S**d)
    for idx, p in entries.items():
        if not (0 <= idx < flat.size):
            raise ConfigError(f"index {idx} outside table of size {flat.size}")
        flat[idx] = p
    total = flat.sum()
    if abs(total - 1.0) > TABLE_LOAD_ATOL:
        raise ConfigError(f"table mass {total!r} deviates from 1 by more than {TABLE_LOAD_ATOL}")
    return TargetTable((flat / total).reshape((S,) * d))


class ConditionalOracle:
    """Exact per-position conditionals of the target given unmasked positions.

    A context is a length-d sequence over {0..S-1} plus MASK (= S).  ``mass``
    holds the target's mass of every context (its total over the completions
    of the masked positions) as an (S+1)^d array: the table summed along each
    axis in turn, where index S on an axis is the sum over that axis.
    """

    def __init__(self, table: TargetTable):
        d, S = table.d, table.S
        if (S + 1) ** d * d * S > MAX_COND_TABLE_ENTRIES:
            raise ConfigError("state space too large for the dense conditional table")
        self.table = table
        mass = table.probs
        for axis in range(d):
            mass = np.concatenate([mass, mass.sum(axis=axis, keepdims=True)], axis=axis)
        self.mass = mass

    def conditional_probs(self, contexts) -> np.ndarray:
        """(k, d, S) conditionals for a (k, d) integer array of contexts: row l
        is one-hot on an observed token, or, when l is masked, the mass of the
        context with l set to each value over the mass of the context."""
        ctx = np.asarray(contexts)
        d, S = self.table.d, self.table.S
        if ctx.ndim != 2 or ctx.shape[1] != d or not np.issubdtype(ctx.dtype, np.integer):
            raise ConfigError(f"contexts must be a (k, {d}) integer array, got shape {ctx.shape}")
        if np.any(ctx < 0) or np.any(ctx > S):
            raise ConfigError(f"tokens must lie in [0, {S}] (MASK = {S})")
        mass = self.mass[tuple(ctx.T)]
        if not np.all(mass > 0.0):
            bad = ctx[np.argmin(mass > 0.0)]
            raise NumericalError(f"observed context {tuple(int(t) for t in bad)} has zero mass")
        values = np.arange(S)
        out = np.empty((ctx.shape[0], d, S))
        for l in range(d):
            index = [ctx[:, j, None] for j in range(d)]
            index[l] = values
            tok = ctx[:, l, None]
            out[:, l] = np.where(tok == S, self.mass[tuple(index)] / mass[:, None], tok == values)
        return out
