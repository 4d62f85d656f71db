"""Independent oracles the tests check the package against.

Each oracle is deliberately implemented from scratch (or on top of scipy,
which the package itself does not use) so that it shares no code path with
the implementation it validates.  The exception is
:func:`per_batch_case_forward`, which rebuilds the per-case forward from the
package's own blocks one micro-batch at a time, to pin the stacked forward
to that arithmetic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from otsurv.autodiff import Tape
from otsurv.microbatch import sample_micro_batches, solve_batch
from otsurv.neural import (attention_pool_t, dense_coattention_t,
                           encode_genomic_t, hazard_t, project_t, wrap_params)
from otsurv.survival import PROB_EPS


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


def logrank_oracle(times_a, events_a, times_b, events_b):
    """Two-group log-rank (statistic, p-value) by a loop over the pooled event
    times, recounting both risk sets at each; p = erfc(sqrt(stat / 2))."""
    ta, ea = np.asarray(times_a, float), np.asarray(events_a, bool)
    tb, eb = np.asarray(times_b, float), np.asarray(events_b, bool)
    observed_minus_expected = 0.0
    variance = 0.0
    for t in np.unique(np.concatenate([ta[ea], tb[eb]])):
        na = int(np.sum(ta >= t))
        nb = int(np.sum(tb >= t))
        da = int(np.sum(ea & (ta == t)))
        db = int(np.sum(eb & (tb == t)))
        n = na + nb
        d = da + db
        observed_minus_expected += da - d * na / n
        if n > 1:
            variance += d * (na / n) * (nb / n) * (n - d) / (n - 1)
    if variance <= 0:
        return 0.0, 1.0
    stat = observed_minus_expected**2 / variance
    return stat, math.erfc(math.sqrt(stat / 2.0))


def plain_scaling(cost: np.ndarray, a: np.ndarray, b: np.ndarray, epsilon: float,
                  tau: float | None, max_iters: int, tol: float):
    """Textbook plain-domain scaling for entropic transport, no stabilisation.

    ``u = (a / K v)^fi, v = (b / K'u)^fi`` on ``K = (a x b) exp(-C/eps)``
    with ``fi = tau / (tau + eps)``, or ``fi = 1`` (balanced) when tau is
    None.  For tau > 0 each pair then takes the optimal translation of the
    dual potentials ``eps log u + lam``, ``eps log v - lam`` (Sejourne,
    Vialard & Peyre, AISTATS 2022): ``lam = (tau/2) (log <a, u^-r> -
    log <b, v^-r>)`` with ``r = eps / tau``, written ``(1 - fi) / fi``.
    Stops on the row residual when balanced, else on the largest change of
    log u and log v.  Returns (coupling, log u, log v, iterations).
    """
    fi = 1.0 if tau is None else tau / (tau + epsilon)
    K = np.outer(a, b) * np.exp(-cost / epsilon)
    u = np.ones(a.size)
    v = np.ones(b.size)
    for it in range(1, max_iters + 1):
        u_next = (a / (K @ v)) ** fi
        v_next = (b / (K.T @ u_next)) ** fi
        if tau is not None and tau > 0:
            r = (1.0 - fi) / fi
            lam_over_eps = (np.log(np.dot(a, u_next ** -r))
                            - np.log(np.dot(b, v_next ** -r))) / (2.0 * r)
            u_next = u_next * np.exp(lam_over_eps)
            v_next = v_next * np.exp(-lam_over_eps)
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


def per_head_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
                       scale: float, g: np.ndarray):
    """Multi-head softmax attention and its VJP, one head at a time on 2-D
    column slices, as a chain of per-head tape ops computes them.

    Head h copies out its column block of q, k and v, takes
    ``softmax(scale * q_h @ k_h.T) @ v_h``, and writes its block of the
    output.  The backward replays each op's VJP in reverse for the output
    cotangent ``g``: ``g_s = g_h @ v_h.T``, the row-softmax VJP times
    ``scale``, then ``g_l @ k_h``, ``(q_h.T @ g_l).T`` and ``s.T @ g_h``.
    Returns (out, dq, dk, dv).
    """
    dh, dv_h = q.shape[1] // n_heads, v.shape[1] // n_heads
    out = np.zeros((q.shape[0], v.shape[1]))
    dq, dk, dv = np.zeros(q.shape), np.zeros(k.shape), np.zeros(v.shape)
    for h in range(n_heads):
        cols, vcols = slice(h * dh, (h + 1) * dh), slice(h * dv_h, (h + 1) * dv_h)
        qh, kh, vh = q[:, cols].copy(), k[:, cols].copy(), v[:, vcols].copy()
        logits = (qh @ kh.T) * scale
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        out[:, vcols] = s @ vh
        gh = g[:, vcols].copy()
        g_s = gh @ vh.T
        g_logits = s * (g_s - np.sum(g_s * s, axis=1, keepdims=True)) * scale
        dq[:, cols] = g_logits @ kh
        dk[:, cols] = (qh.T @ g_logits).T
        dv[:, vcols] = s.T @ gh
    return out, dq, dk, dv


def nll_chain(tape, row, record, weight):
    """The discrete NLL of one (1, T) hazard row as a chain of scalar tape
    ops: ``pick``, ``sub_from`` and ``clamp_min`` per survival factor, their
    running product by ``mul``, then ``clamp_min``, ``log``, ``add`` and
    ``scale`` by ``-weight``; floors at ``PROB_EPS`` inside the logs."""
    t = record.bin

    def survival_prefix(upto):
        prefix = None
        for z in range(upto + 1):
            factor = tape.clamp_min(tape.sub_from(1.0, tape.pick(row, 0, z)), PROB_EPS)
            prefix = factor if prefix is None else tape.mul(prefix, factor)
        return prefix

    if record.censor == 1:
        return tape.scale(tape.log(tape.clamp_min(survival_prefix(t), PROB_EPS)), -weight)
    log_h = tape.log(tape.clamp_min(tape.pick(row, 0, t), PROB_EPS))
    s_prev = survival_prefix(t - 1)
    if s_prev is None:
        return tape.scale(log_h, -weight)
    return tape.scale(tape.add(tape.log(tape.clamp_min(s_prev, PROB_EPS)), log_h),
                      -weight)


def per_batch_case_forward(params, case, m, ot_settings, mode, seed,
                           fixed_couplings=None):
    """``train.case_forward`` as a loop over micro-batches, each a chain of
    2-D tape ops: project, co-attend (through the transposed coupling of its
    own solve, or by dense attention), pool, hazard head, and
    :func:`nll_chain` weighted by its share of the bag; the terms are added
    in batch order.  Returns (tape, wrapped params, loss, hazards, plans)."""
    tape = Tape()
    pv = wrap_params(tape, params)
    b_g = encode_genomic_t(tape, pv, case.profile)
    pooled_g = attention_pool_t(tape, pv, "attn_g", b_g, params.n_heads)
    M_p = case.pathology_raw.shape[0]
    solver = "emd" if mode == "emd" else "uot"
    loss, hazards, couplings = None, [], []
    for k, idx in enumerate(sample_micro_batches(M_p, m, seed)):
        projected = project_t(tape, pv, tape.const(case.pathology_raw[idx]))
        if mode == "dense":
            selected = dense_coattention_t(tape, b_g, projected)
        else:
            plan = (fixed_couplings[k] if fixed_couplings is not None
                    else solve_batch(projected.value, b_g.value, ot_settings, solver))
            couplings.append(plan)
            selected = tape.matmul(tape.const(plan.coupling.T), projected)
        pooled_p = attention_pool_t(tape, pv, "attn_p", selected, params.n_heads)
        row = hazard_t(tape, pv, pooled_p, pooled_g)
        hazards.append(row.value[0].copy())
        term = nll_chain(tape, row, case.record, len(idx) / M_p)
        loss = term if loss is None else tape.add(loss, term)
    return tape, pv, loss, hazards, couplings
