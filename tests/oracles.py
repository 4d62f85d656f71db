"""Independent oracles the tests check the package against.

Each oracle is deliberately implemented from scratch (or on top of scipy,
which the package itself does not use) so that it shares no code path with
the implementation it validates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog


def lp_transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Optimal transport objective by a general-purpose LP solver."""
    n, m = cost.shape
    A_eq = np.zeros((n + m, n * m))
    for i in range(n):
        A_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        A_eq[n + j, j::m] = 1.0
    # Drop one redundant constraint so the equality system has full rank.
    res = linprog(cost.ravel(), A_eq=A_eq[:-1], b_eq=np.concatenate([a, b])[:-1],
                  bounds=(0, None), method="highs")
    assert res.status == 0, f"LP oracle failed: {res.message}"
    return float(res.fun)


def pairwise_c_index(risks, times, events) -> float:
    """Exhaustive O(n^2) concordance with 0.5 tie credit.

    Comparable pairs: i experienced the event and t_i < t_j strictly.
    """
    risks = np.asarray(risks, float)
    times = np.asarray(times, float)
    events = np.asarray(events, bool)
    num = 0.0
    den = 0
    n = len(risks)
    for i in range(n):
        if not events[i]:
            continue
        for j in range(n):
            if times[i] < times[j]:
                den += 1
                if risks[i] > risks[j]:
                    num += 1.0
                elif risks[i] == risks[j]:
                    num += 0.5
    if den == 0:
        raise ZeroDivisionError("no comparable pairs")
    return num / den


def upper_incomplete_gamma_q(a: float, x: float, terms: int = 200) -> float:
    """Regularized upper incomplete gamma Q(a, x) via series / continued fraction.

    Series for the lower function when x < a + 1, Lentz continued fraction
    otherwise; standard numerical-recipes construction.
    """
    if x < 0 or a <= 0:
        raise ValueError("need x >= 0 and a > 0")
    if x == 0:
        return 1.0
    lg = math.lgamma(a)
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        for k in range(1, terms):
            term *= x / (a + k)
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        p = total * math.exp(-x + a * math.log(x) - lg)
        return 1.0 - p
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, terms):
        an = -k * (k - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - lg)


def chi2_sf_1df_oracle(x: float) -> float:
    return upper_incomplete_gamma_q(0.5, x / 2.0)


def central_difference_grad(fn, params_arrays: dict[str, np.ndarray], name: str,
                            idx: tuple, h_rel: float = 1e-4) -> float:
    """Central finite difference of a scalar function of named arrays."""
    arr = params_arrays[name]
    h = h_rel * max(1.0, abs(float(arr[idx])))
    arr[idx] += h
    fp = fn()
    arr[idx] -= 2 * h
    fm = fn()
    arr[idx] += h
    return (fp - fm) / (2 * h)


def km_survival_oracle(times, events):
    """Hand-rolled product-limit steps as (time, survival) pairs."""
    times = np.asarray(times, float)
    events = np.asarray(events, bool)
    out = []
    s = 1.0
    for t in sorted(set(times[events])):
        n_at_risk = int(np.sum(times >= t))
        deaths = int(np.sum(events & (times == t)))
        s *= 1.0 - deaths / n_at_risk
        out.append((t, s))
    return out


def plain_scaling(cost: np.ndarray, a: np.ndarray, b: np.ndarray, epsilon: float,
                  tau: float | None, max_iters: int, tol: float):
    """Textbook plain-domain scaling for entropic transport, no stabilisation.

    ``u = (a / K v)^fi, v = (b / K'u)^fi`` on ``K = (a x b) exp(-C/eps)``
    with ``fi = tau / (tau + eps)``, or ``fi = 1`` (balanced) when tau is
    None.  Stops on the row residual when balanced, else on the largest
    change of log u and log v.  Returns (coupling, log u, log v, iterations).
    """
    fi = 1.0 if tau is None else tau / (tau + epsilon)
    K = np.outer(a, b) * np.exp(-cost / epsilon)
    u = np.ones(a.size)
    v = np.ones(b.size)
    for it in range(1, max_iters + 1):
        u_next = (a / (K @ v)) ** fi
        v_next = (b / (K.T @ u_next)) ** fi
        if tau is None:
            change = None
        else:
            change = max(np.abs(np.log(u_next) - np.log(u)).max(),
                         np.abs(np.log(v_next) - np.log(v)).max())
        u, v = u_next, v_next
        if change is None:
            change = np.abs(u * (K @ v) - a).max()
        if change < tol:
            break
    return u[:, None] * K * v[None, :], np.log(u), np.log(v), it
