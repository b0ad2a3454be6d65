"""Ready-to-sample reverse-process models.

Both models implement the batch model protocol consumed by
:mod:`thetaleap.engine` (see its module docstring).  Their rates are checked
against independent per-state formulas in ``tests/kernel_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from .ctmc import ProbabilityVector
from .errors import ConfigError, SingularScoreError
from .masked import ConditionalOracle, NoiseSchedule, TargetTable, TokenSequence

MAX_COND_CACHE_ENTRIES = 5 * 10**7


def sample_simplex(n: int, rng: np.random.Generator) -> ProbabilityVector:
    """Uniform draw from the probability simplex (normalized exponentials)."""
    w = rng.standard_exponential(n)
    return ProbabilityVector(w / w.sum())


class ToyUniformModel:
    """Reverse diffusion on S states under the all-to-all uniform generator.

    Forward marginals are available in closed form, so the score (and hence
    the reverse intensity) is exact.  Reverse time s corresponds to forward
    time T - s; the reverse process starts from the uniform distribution.
    """

    def __init__(self, p0: ProbabilityVector, horizon: float = 12.0):
        if horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {horizon}")
        self.p0 = p0
        self.horizon = horizon
        self.S = p0.n_states
        self.n_coords = 1
        self.slots_per_coord = self.S

    def total_bound(self, s_lo: float, s_hi: float) -> float:
        """Dominating total intensity over a window.

        The total rate out of y is (1 - p(y)) / (S p(y)), maximized at the
        smallest marginal mass, which over the window occurs at s_hi.
        """
        t = self.horizon - s_hi
        p_floor = (1.0 - np.exp(-t)) / self.S + np.exp(-t) * float(self.p0.probs.min())
        if p_floor <= 0.0:
            raise ConfigError(
                "target has a zero-mass state; run with an early stop delta > 0"
            )
        return (1.0 - p_floor) / (self.S * p_floor)

    def sample_q0_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.integers(0, self.S, size=m, dtype=np.int64)

    def rates_batch(self, s, states: np.ndarray) -> np.ndarray:
        t = self.horizon - np.asarray(s, dtype=float)
        decay = np.exp(-t)
        if t.ndim == 0:
            pt = (1.0 - decay) / self.S + decay * self.p0.probs
            if not pt.min() > 0.0:
                raise SingularScoreError(
                    f"marginal at reverse time {float(s):.6g} has a zero-mass state; "
                    "the score is undefined there (use an early stop delta > 0)"
                )
            r = pt[None, :] / (self.S * pt[states, None])
        else:
            pt = (1.0 - decay[:, None]) / self.S + decay[:, None] * self.p0.probs[None, :]
            own = pt[np.arange(states.size), states]
            r = pt / (self.S * own[:, None])
        r[np.arange(states.size), states] = 0.0
        return r

    def apply(self, states, rows, coords, vals):
        states[rows] = vals
        return states

    def encode(self, states: np.ndarray) -> np.ndarray:
        return np.asarray(states, dtype=np.int64)


class MaskedToyModel:
    """Masked toy diffusion over [S]^d with exact brute-force conditionals.

    Reverse time s maps to forward time t = horizon - s.  Only MASK -> token
    jumps carry rate: the reverse edge of token -> MASK masking, weighted by
    the exact score factors.  Sampling starts from the all-MASK sequence;
    any position still masked when the grid ends is filled from the exact
    conditional given the unmasked portion (a conditionally unbiased
    completion, counted separately from stepping NFE).
    """

    def __init__(self, table: TargetTable, schedule: NoiseSchedule | None = None, horizon: float = 1.0):
        self.table = table
        self.schedule = schedule if schedule is not None else NoiseSchedule()
        self.horizon = horizon
        self.d = table.d
        self.S = table.S
        self.mask_token = self.S
        self.oracle = ConditionalOracle(table)
        # smallest signed type that holds every token and MASK (= S)
        self._dtype = next(t for t in (np.int8, np.int16, np.int32) if np.iinfo(t).max >= self.S)
        self.n_coords = self.d
        self.slots_per_coord = self.S
        n_ctx = (self.S + 1) ** self.d
        if n_ctx * self.d * self.S > MAX_COND_CACHE_ENTRIES:
            raise ConfigError("state space too large for the dense conditional cache")
        self._ctx_pow = (self.S + 1) ** np.arange(self.d, dtype=np.int64)
        self._enc_pow = self.S ** np.arange(self.d - 1, -1, -1, dtype=np.int64)
        self._cond = np.zeros((n_ctx, self.d, self.S))
        self._have = np.zeros(n_ctx, dtype=bool)

    def _coef(self, s):
        """sigma(t) * prefactor(t): the per-conditional unmask rate scale.

        The prefactor e^{-sigma_bar} / (1 - e^{-sigma_bar}) diverges at t = 0.
        """
        t = self.horizon - np.asarray(s, dtype=float)
        if np.any(t <= 0.0):
            raise SingularScoreError(
                "unmask rate diverges at t = 0; simulate with an early stop delta > 0"
            )
        sb = self.schedule.sigma_bar(t)
        return self.schedule.sigma(t) * np.exp(-sb) / -np.expm1(-sb)

    def _ensure_codes(self, codes: np.ndarray) -> None:
        new = np.unique(codes[~self._have[codes]])
        for code in new:
            rest = int(code)
            tokens = np.empty(self.d, dtype=np.int64)
            for l in range(self.d):
                tokens[l] = rest % (self.S + 1)
                rest //= self.S + 1
            seq = TokenSequence(tokens, self.S)
            self._cond[code] = self.oracle.conditional_probs(seq)
            self._have[code] = True

    def total_bound(self, s_lo: float, s_hi: float) -> float:
        raise ConfigError(
            "uniformization is not supported for the masked model: the unmask "
            "intensity is unbounded toward the data end"
        )

    def sample_q0_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.full((m, self.d), self.mask_token, dtype=self._dtype)

    def rates_batch(self, s, states: np.ndarray) -> np.ndarray:
        m = states.shape[0]
        codes = states.astype(np.int64) @ self._ctx_pow
        self._ensure_codes(codes)
        cond = self._cond[codes]
        coef = self._coef(s)
        coef = coef[:, None, None] if np.ndim(coef) else float(coef)
        r = coef * cond * (states == self.mask_token)[:, :, None]
        return r.reshape(m, self.d * self.S)

    def apply(self, states, rows, coords, vals):
        states[rows, coords] = vals
        return states

    def finalize_batch(self, states, rng: np.random.Generator, tel) -> np.ndarray:
        states = states.copy()
        for _ in range(self.d):
            masked = states == self.mask_token
            rows = np.nonzero(masked.any(axis=1))[0]
            if rows.size == 0:
                break
            first = masked[rows].argmax(axis=1)
            codes = states[rows].astype(np.int64) @ self._ctx_pow
            self._ensure_codes(codes)
            cond = self._cond[codes, first, :]
            tel.final_fill_evals += int(rows.size)
            cum = np.cumsum(cond, axis=1)
            u = rng.random(rows.size)
            vals = np.minimum((cum < u[:, None]).sum(axis=1), self.S - 1)
            states[rows, first] = vals
        return states

    def encode(self, states: np.ndarray) -> np.ndarray:
        if np.any(states == self.mask_token):
            raise ConfigError("cannot encode sequences that still contain MASK")
        return states.astype(np.int64) @ self._enc_pow
