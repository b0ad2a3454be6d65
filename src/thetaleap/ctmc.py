"""Probability vectors over a finite state space.

A :class:`ProbabilityVector` is immutable after construction (its array is
frozen), so it is safe to share across threads and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

NORMALIZATION_ATOL = 1e-12


@dataclass(frozen=True)
class ProbabilityVector:
    """Distribution over S states: entries nonnegative, summing to 1 within NORMALIZATION_ATOL."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        p.flags.writeable = False
        if p.ndim != 1 or p.size < 1:
            raise ConfigError("probability vector must be 1-D and nonempty")
        if not np.all(np.isfinite(p)):
            raise ConfigError("probability vector has NaN or infinite entries")
        if np.any(p < 0):
            raise ConfigError("probability vector has negative entries")
        s = p.sum()
        if abs(s - 1.0) > NORMALIZATION_ATOL:
            raise ConfigError(f"probabilities sum to {s!r}, outside tolerance {NORMALIZATION_ATOL}")
        object.__setattr__(self, "probs", p)

    @property
    def n_states(self) -> int:
        return self.probs.size
