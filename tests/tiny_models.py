"""Tiny batch models that pin engine behaviour, and a recorder of its Poisson draws.

Each model follows the batch protocol of :mod:`thetaleap.engine` with states
of shape (m, n_coords), all starting at 0; slot (c, v) sets coordinate c to
value v.
"""

import numpy as np

from thetaleap import engine


class ConstantRates:
    """State- and time-independent rates; ``rates[c, v]`` is the rate of slot (c, v)."""

    def __init__(self, rates, bound=None):
        rates = np.atleast_2d(np.asarray(rates, dtype=float))
        self.n_coords, self.slots_per_coord = rates.shape
        self.row = rates.ravel()
        self.bound = float(self.row.sum()) if bound is None else bound

    def total_bound(self, s_lo, s_hi):
        return self.bound

    def sample_q0_batch(self, rng, m):
        return np.zeros((m, self.n_coords), dtype=np.int64)

    def rates_batch(self, s, states):
        return np.tile(self.row, (states.shape[0], 1))

    def apply(self, states, rows, coords, vals):
        states[rows, coords] = vals
        return states

    def encode(self, states):
        return states @ self.slots_per_coord ** np.arange(self.n_coords)


class SwitchedRates(ConstantRates):
    """The given rates before reverse time ``switch``, zero from then on (stepping only)."""

    def __init__(self, rates, switch):
        super().__init__(rates)
        self.switch = switch

    def rates_batch(self, s, states):
        return super().rates_batch(s, states) * (s < self.switch)


class TwoState(ConstantRates):
    """Two-state chain jumping 0 -> 1 at rate a and 1 -> 0 at rate b."""

    def __init__(self, a, b):
        super().__init__([[0.0, a]], bound=max(a, b))
        self.a, self.b = a, b

    def rates_batch(self, s, states):
        return np.where(states == 0, [[0.0, self.a]], [[self.b, 0.0]])


def record_poisson(monkeypatch) -> dict:
    """Keep every Poisson draw the engine makes, keyed by its stream key minus the seed."""
    draws = {}
    real = engine.substream

    class Recorder:
        def __init__(self, key):
            self._gen = real(*key)
            self._key = key[1:]

        def poisson(self, *args, **kwargs):
            out = self._gen.poisson(*args, **kwargs)
            draws[self._key] = out
            return out

        def __getattr__(self, name):
            return getattr(self._gen, name)

    monkeypatch.setattr(engine, "substream", lambda *key: Recorder(key))
    return draws


def drawn_per_trajectory(draws: dict) -> np.ndarray:
    """Pre-rejection jump counts per trajectory, summed over every leap of its chunk."""
    per_chunk = {}
    for (tag, chunk, *_), counts in draws.items():
        if tag == engine.TAG_STEP:
            per_chunk[chunk] = per_chunk.get(chunk, 0) + counts.sum(axis=1)
    return np.concatenate([per_chunk[c] for c in sorted(per_chunk)])
