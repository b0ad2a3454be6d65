"""Tiny batch models that pin engine behaviour, and a recorder of its Poisson draws.

Each model follows the batch protocol of :mod:`thetaleap.engine`, except that
a state is a row of n_coords values rather than one label (the engine only
indexes and copies trajectories), all starting at 0; slot (c, v) sets
coordinate c to value v.
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
    """The given rates before reverse time ``switch``, zero from then on."""

    def __init__(self, rates, switch):
        super().__init__(rates)
        self.switch = switch

    def rates_batch(self, s, states):
        return super().rates_batch(s, states) * (np.asarray(s) < self.switch)[..., None]


class _Recording:
    """Coordinate 1 holds the trajectory id and carries no rate.  ``calls``
    keeps the (trajectory ids, evaluation times) of every rate evaluation.
    Ids count up across chunks, so they match the engine's per-trajectory
    order when the chunks run in one process.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = []
        self._next_id = 0

    def sample_q0_batch(self, rng, m):
        states = super().sample_q0_batch(rng, m)
        states[:, 1] = np.arange(self._next_id, self._next_id + m)
        self._next_id += m
        return states

    def rates_batch(self, s, states):
        times = np.broadcast_to(np.asarray(s, dtype=float), states.shape[:1])
        self.calls.append((states[:, 1].copy(), times.copy()))
        return super().rates_batch(s, states)

    def encode(self, states):
        return states[:, 0].copy()


class RecordingSwitched(_Recording, SwitchedRates):
    """Coordinate 0 jumps 0 -> 1 at rate ``lam`` before ``switch``; evaluations
    are recorded as in ``_Recording``.
    """

    def __init__(self, lam, switch):
        super().__init__([[0.0, lam], [0.0, 0.0]], switch)


class RampRates(_Recording, ConstantRates):
    """Coordinate 0 jumps 0 -> 1 at rate ``a * s``, dominated on any window by
    ``a * s_hi``; evaluations are recorded as in ``_Recording``.
    """

    def __init__(self, a):
        super().__init__([[0.0, 1.0], [0.0, 0.0]])
        self.a = a

    def total_bound(self, s_lo, s_hi):
        return self.a * np.asarray(s_hi, dtype=float)

    def rates_batch(self, s, states):
        ramp = self.a * np.asarray(s, dtype=float) * (states[:, 0] == 0)
        return super().rates_batch(s, states) * ramp[:, None]


class TwoState(ConstantRates):
    """Two-state chain jumping 0 -> 1 at rate a and 1 -> 0 at rate b."""

    def __init__(self, a, b):
        super().__init__([[0.0, a]], bound=max(a, b))
        self.a, self.b = a, b

    def rates_batch(self, s, states):
        return np.where(states == 0, [[0.0, self.a]], [[self.b, 0.0]])


def record_poisson(monkeypatch) -> dict:
    """Keep every Poisson draw the engine makes: chunk index -> that chunk's draws, in order."""
    draws = {}
    real = engine.substream

    class Recorder:
        def __init__(self, seed, tag, chunk):
            self._gen = real(seed, tag, chunk)
            self._draws = draws.setdefault(chunk, [])

        def poisson(self, *args, **kwargs):
            out = self._gen.poisson(*args, **kwargs)
            self._draws.append(out)
            return out

        def __getattr__(self, name):
            return getattr(self._gen, name)

    monkeypatch.setattr(engine, "substream", Recorder)
    return draws


def drawn_per_trajectory(draws: dict) -> np.ndarray:
    """Poisson counts per trajectory, summed over every draw of its chunk: the
    pre-rejection jump counts of every leap, or uniformization's candidate
    counts (its NFE) of every window."""
    return np.concatenate(
        [sum(c.reshape(len(c), -1).sum(axis=1) for c in draws[chunk]) for chunk in sorted(draws)]
    )
