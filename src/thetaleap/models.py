"""Ready-to-sample reverse-process models.

Both models take their target as a :class:`~thetaleap.masked.TargetTable`
(the toy's is a d = 1 table over its S states) and implement the batch model
protocol consumed by :mod:`thetaleap.engine` (see its module docstring).
Their rates are checked against independent per-state formulas in
``tests/kernel_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from .engine import categorical
from .errors import ConfigError, NumericalError
from .masked import ConditionalOracle, NoiseSchedule, TargetTable, random_target_table


def sample_simplex(n: int, rng: np.random.Generator) -> TargetTable:
    """Uniform draw from the probability simplex over n states, as a d = 1 table."""
    return random_target_table(1, n, rng)


class ToyUniformModel:
    """Reverse diffusion on S states under the all-to-all uniform generator.

    Forward marginals are available in closed form, so the score (and hence
    the reverse intensity) is exact.  Reverse time s corresponds to forward
    time T - s; the reverse process starts from the uniform distribution.
    """

    def __init__(self, p0: TargetTable, horizon: float = 12.0):
        if not (0.0 < horizon < np.inf):
            raise ConfigError(f"need 0 < horizon < inf, got {horizon}")
        if p0.d != 1:
            raise ConfigError(f"the toy needs a d = 1 target table, got d = {p0.d}")
        self.p0 = p0
        self.horizon = horizon
        self.S = p0.S
        self.n_coords = 1
        self.slots_per_coord = self.S

    def _mixture(self, s):
        """Weights (a, b) of the forward marginal p_t = a + b p0 at reverse time s.

        With forward time t = T - s, a = (1 - e^-t) / S and b = e^-t.
        """
        decay = np.exp(-(self.horizon - np.asarray(s, dtype=float)))
        return (1.0 - decay) / self.S, decay

    def marginal(self, s) -> np.ndarray:
        """Forward marginal at reverse time s, of shape ``np.shape(s) + (S,)``."""
        base, decay = self._mixture(s)
        return base[..., None] + decay[..., None] * self.p0.probs

    def total_bound(self, s_lo, s_hi):
        """Dominating total intensity over a window, elementwise for arrays.

        The total rate out of y is (1 - p(y)) / (S p(y)), maximized at the
        smallest marginal mass, which over the window occurs at s_hi.
        """
        p_floor = self.marginal(s_hi).min(axis=-1)
        if np.any(p_floor <= 0.0):
            raise NumericalError(
                "target has a zero-mass state; run with an early stop delta > 0"
            )
        return (1.0 - p_floor) / (self.S * p_floor)

    def sample_q0_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.integers(0, self.S, size=m, dtype=np.int64)

    def rates_batch(self, s, states: np.ndarray) -> np.ndarray:
        base, decay = self._mixture(s)
        # the masses the score divides by: every state's at one time, else each row's own
        pt = base + decay * (self.p0.probs if np.ndim(s) == 0 else self.p0.probs[states])
        if not np.all(pt > 0.0):
            at = np.broadcast_to(s, pt.shape)[np.argmin(pt > 0.0)]
            raise NumericalError(
                f"marginal at reverse time {float(at):.6g} has a zero-mass state; "
                "the score is undefined there (use an early stop delta > 0)"
            )
        if np.ndim(s) == 0:
            # one S x S table of pt[v] / (S pt[y]) per call, gathered by state
            table = pt[None, :] / (self.S * pt[:, None])
            np.fill_diagonal(table, 0.0)
            return np.take(table, states, axis=0)
        # rank 2: r[i, v] = (base_i + decay_i p0[v]) / (S pt_i(y_i))
        inv_own = 1.0 / (self.S * pt)
        coef = np.stack([base * inv_own, decay * inv_own], axis=1)
        r = coef @ np.stack([np.ones(self.S), self.p0.probs])
        r.reshape(-1)[np.arange(states.size) * self.S + states] = 0.0
        return r

    def apply(self, states, rows, coords, vals):
        states[rows] = vals
        return states

    def encode(self, states: np.ndarray) -> np.ndarray:
        return np.asarray(states, dtype=np.int64)


class MaskedToyModel:
    """Masked toy diffusion over [S]^d with exact conditionals of a joint table.

    Reverse time s maps to forward time t = horizon - s.  Only MASK -> token
    jumps carry rate: the reverse edge of token -> MASK masking, weighted by
    the exact score factors.  A state is one int64 label per trajectory,
    label = sum_l x_l (S+1)^l over tokens x_l in 0..S-1 and MASK (= S).
    Sampling starts from the all-MASK label (S+1)^d - 1; any position still
    masked when the grid ends is filled from the exact conditional given the
    unmasked portion (a conditionally unbiased completion, counted
    separately from stepping NFE).  A per-label table of the target index
    (-1 while a position is masked) is built at construction; the
    conditionals come from one oracle call at the first ``rates_batch`` or
    ``finalize_batch``, which a wrapper put on the oracle after construction
    still sees.
    """

    def __init__(self, table: TargetTable, schedule: NoiseSchedule | None = None, horizon: float = 1.0):
        if not (0.0 < horizon <= 1.0):
            raise ConfigError(f"horizon must lie in (0, 1], the noise schedule's time domain; got {horizon}")
        self.table = table
        self.schedule = schedule if schedule is not None else NoiseSchedule()
        self.horizon = horizon
        self.d = table.d
        self.S = table.S
        self.oracle = ConditionalOracle(table)
        self.n_coords = self.d
        self.slots_per_coord = self.S
        self._digit = (self.S + 1) ** np.arange(self.d, dtype=np.int64)
        self._contexts = np.arange((self.S + 1) ** self.d)[:, None] // self._digit % (self.S + 1)
        masked = self._contexts == self.S
        self._index = np.where(masked.any(axis=1), -1, self._contexts @ self.S ** np.arange(self.d)[::-1])
        self._cond = self._live = None
        self._coef_at = (None, None)  # (s, coef(s)) of the last scalar-time rates_batch call

    def _coef(self, s):
        """sigma(t) * prefactor(t): the per-conditional unmask rate scale.

        The prefactor e^{-sigma_bar} / (1 - e^{-sigma_bar}) diverges at t = 0.
        """
        t = self.horizon - np.asarray(s, dtype=float)
        if np.any(t <= 0.0):
            raise NumericalError(
                "unmask rate diverges at t = 0; simulate with an early stop delta > 0"
            )
        sb = self.schedule.sigma_bar(t)
        return self.schedule.sigma(t) * np.exp(-sb) / -np.expm1(-sb)

    def _conditionals(self, labels: np.ndarray) -> np.ndarray:
        """The (n_labels, d * S) table of conditionals on masked positions (0 on
        observed ones), after checking that every given label has mass."""
        if self._cond is None:
            live = self.oracle.mass[tuple(self._contexts.T)] > 0.0
            cond = np.zeros((live.size, self.d, self.S))
            cond[live] = self.oracle.conditional_probs(self._contexts[live])
            cond *= (self._contexts == self.S)[:, :, None]
            self._live, self._cond = live, cond.reshape(live.size, -1)
        if not self._live[labels].all():
            self.oracle.conditional_probs(self._contexts[labels])  # raises, naming a zero-mass context
        return self._cond

    def total_bound(self, s_lo, s_hi):
        """d coef(s_hi), elementwise: a label's total rate is (#masked) coef(s), growing with s."""
        return self.d * self._coef(s_hi)

    def sample_q0_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.full(m, (self.S + 1) ** self.d - 1, dtype=np.int64)

    def rates_batch(self, s, labels: np.ndarray) -> np.ndarray:
        r = np.take(self._conditionals(labels), labels, axis=0)
        if np.ndim(s):
            r *= self._coef(s)[:, None]
            return r
        # the engine calls once per row block at a stage's one time, and coef
        # costs more than a block's gather
        if self._coef_at[0] != s:
            self._coef_at = (s, float(self._coef(s)))
        r *= self._coef_at[1]
        return r

    def apply(self, labels, rows, coords, vals):
        # unbuffered: one accepted update can move several digits of a row
        digit = self._digit[coords]
        np.add.at(labels, rows, (vals - labels[rows] // digit % (self.S + 1)) * digit)
        return labels

    def finalize_batch(self, labels, rng: np.random.Generator, tel) -> np.ndarray:
        labels = labels.copy()
        # round l fills position l wherever it is masked, so each row fills in position order
        for l in range(self.d):
            rows = np.flatnonzero(self._contexts[labels, l] == self.S)
            todo = labels[rows]
            cond = self._conditionals(todo).reshape(-1, self.d, self.S)[todo, l, :]
            tel.final_fill_evals += int(rows.size)
            vals = categorical(cond, rng.random(rows.size))
            labels[rows] += (vals - self.S) * self._digit[l]
        return labels

    def encode(self, labels: np.ndarray) -> np.ndarray:
        index = self._index[labels]
        if np.any(index < 0):
            raise ConfigError("cannot encode sequences that still contain MASK")
        return index
