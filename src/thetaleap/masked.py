"""Absorbing-state (masked) toy diffusion with an exact conditional oracle.

Tokens live in {0, ..., S-1}; the absorbing MASK symbol is encoded as S.
The forward process masks each coordinate independently at rate sigma(t);
the reverse process unmasks using exact conditionals of a small, explicitly
stored joint target, standing in for a learned sequence model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, UnreachableContextError

TABLE_LOAD_ATOL = 1e-9
TABLE_SUM_ATOL = 1e-12
MAX_TABLE_CELLS = 10**6


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

    def mask_probability(self, t):
        """Probability that a coordinate is masked by time t: 1 - e^{-sigma_bar}."""
        return -np.expm1(-self.sigma_bar(t))

    @staticmethod
    def _check_domain(t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ConfigError(f"schedule time must lie in [0, 1], got {t!r}")


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length sequence over {0..S-1} plus the MASK symbol (= S)."""

    tokens: np.ndarray
    vocab_size: int

    def __post_init__(self):
        tok = np.array(self.tokens, dtype=np.int64)
        tok.flags.writeable = False
        if tok.ndim != 1 or tok.size < 1:
            raise DataError("token sequence must be 1-D and nonempty")
        if np.any(tok < 0) or np.any(tok > self.vocab_size):
            raise DataError(f"tokens must lie in [0, {self.vocab_size}] (MASK = {self.vocab_size})")
        object.__setattr__(self, "tokens", tok)

    @property
    def mask_token(self) -> int:
        return self.vocab_size

    @property
    def masked_positions(self) -> np.ndarray:
        return np.nonzero(self.tokens == self.mask_token)[0]


@dataclass(frozen=True)
class TargetTable:
    """Explicit joint distribution over [S]^d, enumerable by construction."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        p.flags.writeable = False
        if p.ndim < 1:
            raise DataError("target table must have at least one axis")
        if p.size > MAX_TABLE_CELLS:
            raise DataError(f"target table has {p.size} cells, above the {MAX_TABLE_CELLS} cap")
        if len(set(p.shape)) != 1:
            raise DataError("target table must have the same number of sites per dimension")
        if np.any(p < 0):
            raise DataError("target table has negative entries")
        if abs(p.sum() - 1.0) > TABLE_SUM_ATOL:
            raise DataError(f"target table mass {p.sum()!r} is outside tolerance {TABLE_SUM_ATOL}")
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


def save_target_table(table: TargetTable, path) -> None:
    flat = table.flat()
    with open(path, "w") as fh:
        fh.write(f"# d={table.d} S={table.S}\n")
        for idx, p in enumerate(flat):
            fh.write(f"{idx} {p:.17g}\n")


def load_target_table(path, d: int | None = None, S: int | None = None) -> TargetTable:
    """Read an index/probability table; renormalizes small drift, rejects large."""
    entries = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for part in line[1:].split():
                    if part.startswith("d="):
                        d = int(part[2:])
                    elif part.startswith("S="):
                        S = int(part[2:])
                continue
            fields = line.split()
            if len(fields) != 2:
                raise DataError(f"expected 'index probability' rows, got {line!r}")
            entries[int(fields[0])] = float(fields[1])
    if d is None or S is None:
        raise DataError("table dimensions unknown; provide d and S or a '# d=.. S=..' header")
    flat = np.zeros(S**d)
    for idx, p in entries.items():
        if not (0 <= idx < flat.size):
            raise DataError(f"index {idx} outside table of size {flat.size}")
        flat[idx] = p
    total = flat.sum()
    if abs(total - 1.0) > TABLE_LOAD_ATOL:
        raise DataError(f"table mass {total!r} deviates from 1 by more than {TABLE_LOAD_ATOL}")
    return TargetTable((flat / total).reshape((S,) * d))


class ConditionalOracle:
    """Exact per-position conditionals of the target given unmasked positions.

    For a partially masked sequence, returns a d x S matrix whose row l is
    the one-hot indicator of an observed token, or the conditional law of
    position l given the observed portion when l is masked.  Every query is
    computed afresh from the table; callers that revisit contexts memoize
    the result themselves (as :class:`thetaleap.models.MaskedToyModel` does).
    """

    def __init__(self, table: TargetTable):
        self.table = table

    def conditional_probs(self, seq: TokenSequence) -> np.ndarray:
        d, S = self.table.d, self.table.S
        if seq.vocab_size != S or seq.tokens.size != d:
            raise DataError("sequence shape does not match the target table")
        tokens = seq.tokens
        mask = tokens == S
        indexer = tuple(slice(None) if mask[l] else int(tokens[l]) for l in range(d))
        sub = self.table.probs[indexer]
        mass = float(sub.sum())
        if mass <= 0.0:
            raise UnreachableContextError(
                f"observed context {tuple(int(t) for t in tokens)} has zero mass"
            )
        out = np.zeros((d, S))
        masked_axes = np.nonzero(mask)[0]
        for pos, l in enumerate(masked_axes):
            other = tuple(a for a in range(masked_axes.size) if a != pos)
            out[l] = sub.sum(axis=other) / mass
        for l in np.nonzero(~mask)[0]:
            out[l, int(tokens[l])] = 1.0
        return out


def forward_mask_sample(
    seq0: TokenSequence, sched: NoiseSchedule, t: float, rng: np.random.Generator
) -> TokenSequence:
    """Mask each token independently with probability 1 - e^{-sigma_bar(t)}."""
    if seq0.masked_positions.size:
        raise DataError("forward masking starts from a fully unmasked sequence")
    p = float(sched.mask_probability(t))
    tokens = seq0.tokens.copy()
    tokens[rng.random(tokens.size) < p] = seq0.mask_token
    return TokenSequence(tokens, seq0.vocab_size)
