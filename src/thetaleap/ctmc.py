"""Finite-state CTMC primitives.

Rate-matrix convention used everywhere in this package: ``entry(y, x)`` is
the jump rate from state ``x`` to state ``y``, so marginals evolve as
``dp/dt = Q p`` and every *column* of ``Q`` sums to zero.  Keeping the
convention in one place avoids transposition bugs; all constructors and
consumers below assume it.

All value types are immutable after construction (arrays are frozen), so
they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

# Default tolerances; every public function accepts an override.
NORMALIZATION_ATOL = 1e-12
CROSSCHECK_ATOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ProbabilityVector:
    """Distribution over S states. Entries nonnegative, summing to 1."""

    probs: np.ndarray
    atol: float = NORMALIZATION_ATOL

    def __post_init__(self):
        p = _frozen(self.probs)
        if p.ndim != 1 or p.size < 1:
            raise ConfigError("probability vector must be 1-D and nonempty")
        if np.any(p < 0):
            raise ConfigError("probability vector has negative entries")
        s = p.sum()
        if abs(s - 1.0) > self.atol:
            raise ConfigError(f"probabilities sum to {s!r}, outside tolerance {self.atol}")
        object.__setattr__(self, "probs", p)

    @property
    def n_states(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class RateMatrix:
    """CTMC generator; entry(y, x) is the rate from x to y, columns sum to 0."""

    entries: np.ndarray
    atol: float = NORMALIZATION_ATOL

    def __post_init__(self):
        q = _frozen(self.entries)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ConfigError("rate matrix must be square")
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ConfigError("off-diagonal rates must be nonnegative")
        colsums = q.sum(axis=0)
        if np.any(np.abs(colsums) > self.atol):
            raise ConfigError(f"columns must sum to 0, got max |sum| = {np.abs(colsums).max()}")
        object.__setattr__(self, "entries", q)

    @property
    def n_states(self) -> int:
        return self.entries.shape[0]

    def off_diagonal(self) -> np.ndarray:
        """The hollow part: jump rates only, zero diagonal."""
        off = self.entries.copy()
        np.fill_diagonal(off, 0.0)
        return off


def build_uniform_rate_matrix(S: int) -> RateMatrix:
    """All-to-all generator (1/S) E - I whose stationary law is uniform."""
    if S < 2:
        raise ConfigError(f"uniform rate matrix needs S >= 2, got {S}")
    q = np.full((S, S), 1.0 / S)
    np.fill_diagonal(q, 1.0 / S - 1.0)
    return RateMatrix(q)


def forward_marginal_closed(p0: ProbabilityVector, t: float) -> ProbabilityVector:
    """Marginal at time t under the uniform all-to-all generator.

    Valid only for Q = (1/S) E - I: p_t(i) = (1 - e^-t)/S + e^-t p0(i).
    """
    if t < 0:
        raise ConfigError(f"time must be nonnegative, got {t}")
    S = p0.n_states
    decay = np.exp(-t)
    return ProbabilityVector((1.0 - decay) / S + decay * p0.probs)


def _expm_taylor(a: np.ndarray, series_atol: float = 1e-16, max_terms: int = 200) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series.

    Squaring count is chosen so the scaled 1-norm is <= 0.5; the series stops
    once the next term's norm drops below ``series_atol``.
    """
    norm = np.linalg.norm(a, 1)
    n_sq = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2.0 ** n_sq)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, max_terms + 1):
        term = term @ b / k
        out += term
        if np.linalg.norm(term, 1) < series_atol:
            break
    else:
        raise NumericalError(
            f"matrix exponential series did not converge in {max_terms} terms "
            f"(input 1-norm {norm:.3g}, {n_sq} squarings)"
        )
    for _ in range(n_sq):
        out = out @ out
    return out


def forward_marginal_general(
    p0: ProbabilityVector, Q: RateMatrix, t: float, atol: float = NORMALIZATION_ATOL
) -> ProbabilityVector:
    """Marginal e^{tQ} p0 for an arbitrary generator."""
    if t < 0:
        raise ConfigError(f"time must be nonnegative, got {t}")
    p = _expm_taylor(t * Q.entries) @ p0.probs
    # exp(tQ) is stochastic, so drift beyond round-off signals a bad input
    s = p.sum()
    if abs(s - 1.0) > atol:
        raise NumericalError(f"marginal mass drifted to {s!r} (tolerance {atol})")
    return ProbabilityVector(np.maximum(p, 0.0) / s)
