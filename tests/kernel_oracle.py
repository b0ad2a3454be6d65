"""Independent oracles used by the tests.

The sampler schemes on the 1-D toy admit exact one-step transition kernels:
with frozen per-target rates r_w and the one-jump-per-update rule, the
probability of landing on w is r_w * dt * exp(-lam * dt) (Euler: r_w * dt)
and the rest of the mass stays.  Composing these 15x15 kernels gives the
scheme's *exact* terminal distribution, against which empirical sampler
output is checked.
The masked model gets the same treatment over its (S+1)^d labels: frozen
per-slot rates from brute-force conditionals, a per-coordinate jump count
with whole-update rejection, the same two-stage composition, and the exact
final fill.  These formulas are derived here from first principles (Poisson
thinning), not imported from the library under test.
"""

import itertools

import numpy as np

ALPHA = {
    "a1": lambda th: 1.0 / (2.0 * th * (1.0 - th)),
    "a2": lambda th: ((1.0 - th) ** 2 + th**2) / (2.0 * th * (1.0 - th)),
}


def toy_reverse_rates(p0: np.ndarray, horizon: float, s) -> np.ndarray:
    """rate[y, w] of the exact reverse toy process at reverse time s."""
    S = p0.size
    t = horizon - s
    pt = (1.0 - np.exp(-t)) / S + np.exp(-t) * p0
    r = pt[None, :] / (S * pt[:, None])
    np.fill_diagonal(r, 0.0)
    return r


def _leap_row(rates_row: np.ndarray, dt: float, start: int) -> np.ndarray:
    """One-update law out of toy state ``start`` under frozen rates to each state."""
    lam = rates_row.sum()
    row = rates_row * dt * np.exp(-lam * dt)
    row[start] = 0.0
    row[start] = 1.0 - row.sum()
    return row


def _euler_row(rates_row: np.ndarray, dt: float, start: int) -> np.ndarray:
    """One Euler update out of toy state ``start``: to w with probability
    rate_w * dt, and the rest of the mass stays."""
    row = rates_row * dt
    row[start] = 0.0
    row[start] = 1.0 - row.sum()
    return row


def scheme_kernel(
    method: str,
    rates_at,
    s: float,
    rho: float,
    dt: float,
    theta: float,
    leap_row=_leap_row,
    euler_row=_euler_row,
) -> np.ndarray:
    """Exact one-interval kernel of Euler, tau-leaping or a two-stage scheme.

    ``rates_at(s)`` must return the rate table at reverse time s, one row per
    state, and ``leap_row(rates_row, dt, start)`` and
    ``euler_row(rates_row, dt, start)`` the one-update laws out of state
    ``start`` under those frozen rates (the toy's by default).  Two-stage
    kernels marginalize over the intermediate state reached by the stage-one
    leap.
    """
    mu0 = rates_at(s)
    n = mu0.shape[0]

    def leap(rates, step):
        return np.array([leap_row(rates[y], step, y) for y in range(n)])

    if method == "euler":
        return np.array([euler_row(mu0[y], dt, y) for y in range(n)])
    if method == "tau-leaping":
        return leap(mu0, dt)
    mur = rates_at(rho)
    k1 = leap(mu0, theta * dt)
    out = np.zeros((n, n))
    for y in range(n):
        for ystar in range(n):
            p1 = k1[y, ystar]
            if p1 == 0.0:
                continue
            if method == "theta-rk2":
                combo = (1.0 - 0.5 / theta) * mu0[y] + (0.5 / theta) * mur[ystar]
                combo = np.where(mu0[y] > 0, np.maximum(combo, 0.0), 0.0)
                out[y] += p1 * leap_row(combo, dt, y)
            elif method == "theta-trapezoidal":
                a1, a2 = ALPHA["a1"](theta), ALPHA["a2"](theta)
                combo = np.maximum(a1 * mur[ystar] - a2 * mu0[y], 0.0)
                out[y] += p1 * leap_row(combo, (1.0 - theta) * dt, ystar)
            else:
                raise ValueError(method)
    return out


def exact_scheme_distribution(
    method: str, p0: np.ndarray, horizon: float, n_steps: int, theta: float
) -> np.ndarray:
    """Exact terminal law of a scheme on the toy, starting from uniform."""
    S = p0.size
    pts = np.linspace(0.0, horizon, n_steps + 1)
    q = np.full(S, 1.0 / S)
    for n in range(n_steps):
        s, dt = pts[n], pts[n + 1] - pts[n]
        k = scheme_kernel(
            method,
            lambda u: toy_reverse_rates(p0, horizon, u),
            s,
            s + theta * dt,
            dt,
            theta,
        )
        q = q @ k
    return q


def brute_force_conditionals(table: np.ndarray, tokens: np.ndarray, mask_token: int) -> np.ndarray:
    """Per-position conditionals by plain nested enumeration over completions."""
    d = table.ndim
    S = table.shape[0]
    out = np.zeros((d, S))
    total = 0.0
    weights = np.zeros((d, S))
    for flat in range(S**d):
        x = np.unravel_index(flat, table.shape)
        if any(tokens[l] != mask_token and tokens[l] != x[l] for l in range(d)):
            continue
        p = table[x]
        total += p
        for l in range(d):
            weights[l, x[l]] += p
    if total <= 0:
        raise ZeroDivisionError("context has no mass")
    for l in range(d):
        if tokens[l] == mask_token:
            out[l] = weights[l] / total
        else:
            out[l, tokens[l]] = 1.0
    return out


def masked_label(tokens, S: int) -> int:
    """Label of a masked-model sequence: sum_l x_l (S+1)^l, with MASK = S."""
    return int(sum(int(x) * (S + 1) ** l for l, x in enumerate(tokens)))


def masked_tokens(label: int, d: int, S: int) -> np.ndarray:
    """Inverse of :func:`masked_label`."""
    return np.array([label // (S + 1) ** l % (S + 1) for l in range(d)])


def masked_reverse_rates(table: np.ndarray, eps: float, horizon: float, s: float) -> np.ndarray:
    """rate[label, l * S + v] of the masked model's reverse process at reverse time s.

    Under the log-linear schedule sigma(t) = (1-eps) / (1 - (1-eps) t), with
    sigma_bar = -log(1 - (1-eps) t), a masked position l unmasks to v at rate
    sigma(t) e^{-sigma_bar} / (1 - e^{-sigma_bar}) times its conditional.
    """
    d, S = table.ndim, table.shape[0]
    t = horizon - s
    sigma = (1.0 - eps) / (1.0 - (1.0 - eps) * t)
    kept = 1.0 - (1.0 - eps) * t  # e^{-sigma_bar}
    coef = sigma * kept / (1.0 - kept)
    rows = []
    for label in range((S + 1) ** d):
        tokens = masked_tokens(label, d, S)
        cond = brute_force_conditionals(table, tokens, S)
        rows.append((coef * cond * (tokens == S)[:, None]).ravel())
    return np.array(rows)


def masked_leap_row(rates_row: np.ndarray, dt: float, start: int, S: int) -> np.ndarray:
    """One-update law over labels out of ``start`` under frozen slot rates.

    Each coordinate draws a Poisson jump count from its total rate; the
    update is rejected whole (the label stays) when any count exceeds one,
    and otherwise every coordinate with one jump takes its slot's value,
    chosen in proportion to the slot rates.
    """
    d = rates_row.size // S
    jump = rates_row.reshape(d, S) * dt
    none = np.exp(-jump.sum(axis=1))  # P(no jump) per coordinate
    tokens = masked_tokens(start, d, S)
    row = np.zeros((S + 1) ** d)
    # outcome value S stands for "no jump on this coordinate"
    for outcome in itertools.product(range(S + 1), repeat=d):
        p, end = 1.0, tokens.copy()
        for l, v in enumerate(outcome):
            p *= none[l] if v == S else jump[l, v] * none[l]
            if v < S:
                end[l] = v
        row[masked_label(end, S)] += p
    row[start] += 1.0 - row.sum()
    return row


def masked_euler_row(rates_row: np.ndarray, dt: float, start: int, S: int) -> np.ndarray:
    """One Euler update over labels out of ``start``: slot (l, v) sets position
    l to v with probability rate * dt, and the rest of the mass stays."""
    d = rates_row.size // S
    tokens = masked_tokens(start, d, S)
    row = np.zeros((S + 1) ** d)
    for slot, rate in enumerate(rates_row):
        end = tokens.copy()
        end[slot // S] = slot % S
        row[masked_label(end, S)] += rate * dt
    row[start] += 1.0 - row.sum()
    return row


def masked_fill_kernel(table: np.ndarray) -> np.ndarray:
    """fill[label, index]: the target's law of a full sequence given the label's
    unmasked positions, over row-major table indices."""
    d, S = table.ndim, table.shape[0]
    cells = np.array(list(np.ndindex(table.shape)))
    out = np.zeros(((S + 1) ** d, S**d))
    for label in range(out.shape[0]):
        tokens = masked_tokens(label, d, S)
        fits = np.all((tokens == S) | (cells == tokens), axis=1)
        weight = table.ravel() * fits
        if weight.sum() > 0:
            out[label] = weight / weight.sum()
    return out


def exact_masked_distribution(
    method: str, table: np.ndarray, eps: float, horizon: float, delta: float, n_steps: int, theta: float
) -> np.ndarray:
    """Exact law of a scheme on the masked model: from the all-MASK label over
    a uniform grid on [0, horizon - delta], then the final fill."""
    d, S = table.ndim, table.shape[0]
    pts = np.linspace(0.0, horizon - delta, n_steps + 1)
    q = np.zeros((S + 1) ** d)
    q[-1] = 1.0
    for n in range(n_steps):
        s, dt = pts[n], pts[n + 1] - pts[n]
        k = scheme_kernel(
            method,
            lambda u: masked_reverse_rates(table, eps, horizon, u),
            s,
            s + theta * dt,
            dt,
            theta,
            leap_row=lambda r, h, y: masked_leap_row(r, h, y, S),
            euler_row=lambda r, h, y: masked_euler_row(r, h, y, S),
        )
        q = q @ k
    return q @ masked_fill_kernel(table)


def two_state_marginal(p0_first: float, a: float, b: float, t: float) -> np.ndarray:
    """Hand eigen-solution of the 2-state chain with rates a (0->1), b (1->0)."""
    pi0 = b / (a + b)
    p_first = pi0 + (p0_first - pi0) * np.exp(-(a + b) * t)
    return np.array([p_first, 1.0 - p_first])
