"""Cost matrices and discrete transport solvers.

Three solvers over a nonnegative cost matrix and a pair of marginals:

* :func:`solve_exact_emd` - the linear-program transportation problem,
  solved by a transportation simplex with dual certificates.  Intended for
  small instances and used as the in-package oracle for the entropic pair.
* :func:`sinkhorn` - balanced entropic scaling with the kernel taken
  relative to the product measure, ``K[u,v] = a_u b_v exp(-C[u,v]/eps)``.
* :func:`unbalanced_sinkhorn` - marginal constraints relaxed to KL
  penalties with coefficient tau; alternating scaling updates damped by the
  exponent ``tau / (tau + eps)``.

Both scaling solvers run one kernel, the balanced one with exponent 1.  It
iterates in the plain domain; a scaling that leaves a fixed range is
absorbed into log potentials that the kernel matrix carries (stabilised
absorption), so small eps and unnormalized costs need no separate
log-domain solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .errors import ConstraintError, DataError, ParameterError, ShapeError, SolverError

COST_METRICS = ("l2", "squared_l2", "cosine_distance")

# Relative reduced-cost threshold for simplex optimality.
_RC_TOL = 1e-12


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise ground costs between source and target instances."""

    values: np.ndarray
    metric: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ShapeError(f"cost matrix must be 2-D, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DataError("cost matrix contains non-finite entries")
        if np.any(vals < 0):
            raise DataError("cost matrix contains negative entries")
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class Marginals:
    """A probability vector for each side of the coupling."""

    source: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        for name in ("source", "target"):
            w = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            if w.size == 0 or not np.all(np.isfinite(w)) or np.any(w < 0):
                raise DataError(f"{name} marginal must be nonnegative and finite")
            if abs(w.sum() - 1.0) > 1e-12:
                raise DataError(f"{name} marginal sums to {w.sum()!r}, expected 1")
            object.__setattr__(self, name, w)


def uniform_marginals(n_source: int, n_target: int) -> Marginals:
    return Marginals(np.full(n_source, 1.0 / n_source), np.full(n_target, 1.0 / n_target))


@dataclass(frozen=True)
class SolverSettings:
    epsilon: float | None = None
    tau: float | None = None
    max_iters: int = 1000
    tolerance: float = 1e-6
    log_domain: bool = False  # recorded: the scaling solve absorbed at least once


@dataclass(frozen=True)
class TransportPlan:
    """A coupling with its diagnostics.

    ``objective_value`` is the bare transport cost <P, C>;
    ``objective_regularized`` additionally includes the entropic (and for
    the unbalanced solver the marginal-KL) terms.  Exact solves carry dual
    potentials and a duality gap; scaling solves carry their log scaling
    vectors in the dual slots instead.
    """

    coupling: np.ndarray
    objective_value: float
    marginal_residual: float
    iterations: int
    converged: bool
    settings: SolverSettings
    objective_regularized: float | None = None
    dual_source: np.ndarray | None = None
    dual_target: np.ndarray | None = None
    duality_gap: float | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.coupling)) or np.any(self.coupling < 0):
            raise SolverError("coupling has negative or non-finite entries")

    @property
    def total_mass(self) -> float:
        return float(self.coupling.sum())


# ---------------------------------------------------------------------------
# Cost construction


def build_cost(source, target, metric: str = "l2") -> CostMatrix:
    """Pairwise cost between the rows of two bags (or raw matrices)."""
    xs = source.features if hasattr(source, "features") else np.asarray(source, float)
    xt = target.features if hasattr(target, "features") else np.asarray(target, float)
    if xs.ndim != 2 or xt.ndim != 2:
        raise ShapeError("bags must be 2-D feature matrices")
    if xs.shape[1] != xt.shape[1]:
        raise ShapeError(f"feature dims differ: {xs.shape[1]} vs {xt.shape[1]}")
    if metric not in COST_METRICS:
        raise ParameterError(f"unknown metric {metric!r}, choose from {COST_METRICS}")

    if metric == "cosine_distance":
        ns = np.linalg.norm(xs, axis=1)
        nt = np.linalg.norm(xt, axis=1)
        denom = np.outer(ns, nt)
        sim = np.zeros((xs.shape[0], xt.shape[0]))
        nonzero = denom > 0
        dots = xs @ xt.T
        sim[nonzero] = dots[nonzero] / denom[nonzero]
        vals = 1.0 - sim
    else:
        sq = (np.sum(xs**2, axis=1)[:, None] + np.sum(xt**2, axis=1)[None, :]
              - 2.0 * (xs @ xt.T))
        vals = np.sqrt(np.maximum(sq, 0.0)) if metric == "l2" else np.maximum(sq, 0.0)
    return CostMatrix(np.maximum(vals, 0.0), metric)


def normalize_cost(C: CostMatrix) -> CostMatrix:
    """Scale costs by the maximum entry so eps has a fixed meaning."""
    peak = float(C.values.max(initial=0.0))
    if peak <= 0:
        return C
    return CostMatrix(C.values / peak, C.metric)


# ---------------------------------------------------------------------------
# Exact transportation problem


def solve_exact_emd(C: CostMatrix, marg: Marginals, max_pivots: int = 100_000
                    ) -> TransportPlan:
    """Solve min <P,C> over couplings with the given marginals, exactly.

    Transportation simplex (MODI): northwest-corner start, then pivots on
    the most negative reduced cost with a Bland-rule fallback against
    cycling.  The returned plan carries the dual potentials and the
    resulting duality gap as an optimality certificate.
    """
    cost = C.values
    n, m = cost.shape
    a = marg.source.astype(np.float64).copy()
    b = marg.target.astype(np.float64).copy()
    if a.size != n or b.size != m:
        raise ShapeError(f"marginals ({a.size},{b.size}) do not match cost {cost.shape}")
    if abs(a.sum() - b.sum()) > 1e-9:
        raise ConstraintError(f"marginal sums differ: {a.sum()} vs {b.sum()}")
    total = a.sum()
    b *= total / b.sum()

    settings = SolverSettings(max_iters=max_pivots)
    if n == 1 and m == 1:
        P = np.array([[total]])
        return TransportPlan(P, float(total * cost[0, 0]), 0.0, 0, True, settings,
                             dual_source=np.zeros(1), dual_target=cost[0].copy(),
                             duality_gap=0.0)

    # Northwest-corner initial basis: a staircase of n+m-1 cells.
    alloc = np.zeros((n, m))
    basis: list[tuple[int, int]] = []
    ra, rb = a.copy(), b.copy()
    i = j = 0
    while True:
        q = min(ra[i], rb[j])
        alloc[i, j] += q
        basis.append((i, j))
        ra[i] -= q
        rb[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if j == m - 1:
            i += 1
        elif i == n - 1:
            j += 1
        elif ra[i] <= rb[j]:
            i += 1
        else:
            j += 1

    rc_tol = _RC_TOL * (1.0 + float(np.abs(cost).max()))
    pivots = 0
    bland_after = 50 * (n + m) * max(n, m)
    while True:
        u, v = _duals_from_basis(cost, basis, n, m)
        reduced = cost - u[:, None] - v[None, :]
        if pivots < bland_after:
            flat = int(np.argmin(reduced))
            ei, ej = divmod(flat, m)
            if reduced[ei, ej] >= -rc_tol:
                break
        else:
            # Bland: first admissible cell in row-major order terminates.
            neg = np.argwhere(reduced < -rc_tol)
            if neg.size == 0:
                break
            ei, ej = int(neg[0, 0]), int(neg[0, 1])
        if pivots >= max_pivots:
            raise SolverError(f"transportation simplex exceeded {max_pivots} pivots")
        cycle = _pivot_cycle(basis, (ei, ej), n)
        minus = cycle[1::2]
        theta_idx = min(range(len(minus)), key=lambda k: alloc[minus[k]])
        leave = minus[theta_idx]
        theta = alloc[leave]
        for cell in cycle[0::2]:
            alloc[cell] += theta
        for cell in cycle[1::2]:
            alloc[cell] -= theta
        alloc[leave] = 0.0
        basis[basis.index(leave)] = (ei, ej)
        pivots += 1

    P = np.maximum(alloc, 0.0)
    objective = float(np.sum(P * cost))
    dual_objective = float(a @ u + b @ v)
    residual = max(float(np.abs(P.sum(axis=1) - a).max()),
                   float(np.abs(P.sum(axis=0) - b).max()))
    return TransportPlan(P, objective, residual, pivots, True, settings,
                         dual_source=u, dual_target=v,
                         duality_gap=objective - dual_objective)


def _duals_from_basis(cost, basis, n, m):
    """Potentials with u[0] = 0 from the spanning tree of basis cells."""
    by_row = [[] for _ in range(n)]
    by_col = [[] for _ in range(m)]
    for (i, j) in basis:
        by_row[i].append(j)
        by_col[j].append(i)
    u = np.full(n, np.nan)
    v = np.full(m, np.nan)
    u[0] = 0.0
    stack = [("r", 0)]
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for j in by_row[k]:
                if np.isnan(v[j]):
                    v[j] = cost[k, j] - u[k]
                    stack.append(("c", j))
        else:
            for i in by_col[k]:
                if np.isnan(u[i]):
                    u[i] = cost[i, k] - v[k]
                    stack.append(("r", i))
    if np.any(np.isnan(u)) or np.any(np.isnan(v)):
        raise SolverError("basis does not span the transportation graph")
    return u, v


def _pivot_cycle(basis, entering, n):
    """Cells of the unique cycle the entering cell closes, entering first."""
    ei, ej = entering
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for (i, j) in basis:
        adj.setdefault(i, []).append((n + j, (i, j)))
        adj.setdefault(n + j, []).append((i, (i, j)))
    # Path from the entering row node to the entering column node.
    start, goal = ei, n + ej
    parent: dict[int, tuple[int, tuple[int, int]]] = {start: (-1, (-1, -1))}
    queue = [start]
    while queue:
        node = queue.pop(0)
        if node == goal:
            break
        for nxt, cell in adj.get(node, ()):
            if nxt not in parent:
                parent[nxt] = (node, cell)
                queue.append(nxt)
    if goal not in parent:
        raise SolverError("entering cell closes no cycle; basis is corrupt")
    path_cells = []
    node = goal
    while node != start:
        prev, cell = parent[node]
        path_cells.append(cell)
        node = prev
    # Entering cell then the tree path back: signs alternate +,-,+,...
    return [entering] + path_cells


# ---------------------------------------------------------------------------
# Scaling solvers


# A new scaling outside this range is absorbed into the log potentials
# before it overflows, underflows, or leaves kernel entries it needs at zero.
_ABSORB_LO, _ABSORB_HI = 1e-100, 1e100


def _generalized_kl(x: np.ndarray, y: np.ndarray) -> float:
    """sum(x log(x/y) - x + y), with 0 log 0 = 0; supports y > 0 everywhere."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    pos = x > 0
    val = float(np.sum(np.where(pos, x * (np.log(np.where(pos, x, 1.0)) - np.log(y)), 0.0)))
    return val - float(x.sum()) + float(y.sum())


def sinkhorn(C: CostMatrix, marg: Marginals, epsilon: float,
             max_iters: int = 1000, tol: float = 1e-6) -> TransportPlan:
    """Balanced entropic transport by Sinkhorn-Knopp matrix scaling.

    The coupling has the form diag(u) K diag(v) with the kernel taken
    relative to the product measure.  Convergence is declared when the row
    marginal residual drops below ``tol`` (each update of v matches the
    columns exactly); on non-convergence the last iterate is returned with
    ``converged=False``.
    """
    return _scaling_solve(C, marg, epsilon, None, max_iters, tol)


def unbalanced_sinkhorn(C: CostMatrix, marg: Marginals, epsilon: float, tau: float,
                        max_iters: int = 1000, tol: float = 1e-6) -> TransportPlan:
    """Entropic transport with KL-relaxed marginals.

    Minimizes <P,C> + eps KL(P | a x b) + tau (KL(P 1 | a) + KL(P' 1 | b))
    by alternating scaling updates with damped exponent tau / (tau + eps).
    Convergence is declared when the scaling vectors stop moving (max change
    of log u and log v below ``tol``).  tau = 0 yields the closed form
    ``P = (a x b) exp(-C/eps)`` on the first iteration.
    """
    return _scaling_solve(C, marg, epsilon, tau, max_iters, tol)


def _scaling_solve(C: CostMatrix, marg: Marginals, epsilon: float,
                   tau: float | None, max_iters: int, tol: float) -> TransportPlan:
    """Shared body of the two scaling solvers; ``tau=None`` is balanced.

    Zero-mass rows and columns are dropped before the solve and come back
    as zero coupling with dual -inf.  ``marginal_residual`` is the larger
    of the row and column residuals of the returned coupling.
    """
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    if tau is not None and tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if marg.source.size != C.shape[0] or marg.target.size != C.shape[1]:
        raise ShapeError(f"marginals ({marg.source.size},{marg.target.size}) "
                         f"do not match cost {C.shape}")
    sub_a = marg.source > 0
    sub_b = marg.target > 0
    a = marg.source[sub_a]
    b = marg.target[sub_b]
    cost = C.values[np.ix_(sub_a, sub_b)]
    fi = 1.0 if tau is None else tau / (tau + epsilon)
    P_sub, log_u, log_v, iterations, converged, absorbed = _scale(
        cost, a, b, epsilon, fi, max_iters, tol, row_residual=tau is None)

    P = np.zeros(C.shape)
    P[np.ix_(sub_a, sub_b)] = P_sub
    objective = float(np.sum(P_sub * cost))
    reg = objective + epsilon * _generalized_kl(P_sub, np.outer(a, b))
    if tau is not None:
        reg = (reg + tau * _generalized_kl(P_sub.sum(axis=1), a)
               + tau * _generalized_kl(P_sub.sum(axis=0), b))
    residual = max(float(np.abs(P_sub.sum(axis=1) - a).max()),
                   float(np.abs(P_sub.sum(axis=0) - b).max()))
    settings = SolverSettings(epsilon=epsilon, tau=tau, max_iters=max_iters,
                              tolerance=tol, log_domain=absorbed)
    return TransportPlan(P, objective, residual, iterations, converged, settings,
                         objective_regularized=reg,
                         dual_source=_embed(log_u, sub_a),
                         dual_target=_embed(log_v, sub_b))


def _embed(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.full(mask.size, -np.inf)
    out[mask] = values
    return out


def _logsumexp(x, axis):
    peak = np.max(x, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return np.squeeze(peak, axis) + np.log(np.sum(np.exp(x - peak), axis=axis))


def _scale(cost, a, b, epsilon, fi, max_iters, tol, row_residual):
    """Scaling iterations ``u = (a / K v)^fi, v = (b / K'u)^fi`` with absorption.

    ``K = (a x b) exp(-C/eps + f + g)`` carries the absorbed log potentials
    f and g, which start at zero.  When a new scaling leaves the range
    (_ABSORB_LO, _ABSORB_HI) it is discarded: one log-domain update is taken
    from the potentials ``f + log u`` and ``g + log v`` instead, its result
    becomes the new f and g, K is rebuilt, and u = v = 1 (Schmitzer 2019).
    ``a_s``, ``b_s`` are the marginals rescaled so that the plain update on
    the absorbed K is the same update.

    Stops on the row-marginal residual when ``row_residual``, else on the
    change in log scaling.  Returns the sub-coupling, the log scalings
    ``f + log u`` and ``g + log v``, the iteration count, convergence, and
    whether any absorption happened.
    """
    n = a.size
    la = np.log(a)
    lb = np.log(b)
    G = -cost / epsilon
    f = np.zeros_like(a)
    g = np.zeros_like(b)
    a_s, b_s = a, b
    K = a[:, None] * b[None, :] * np.exp(G + f[:, None] + g[None, :])
    KT = K.T
    # u and v are views into one buffer w, so a single range check and a
    # single log change cover both.  Each iteration writes the other buffer
    # and swaps it in when accepted; log_w carries log(u), log(v) forward.
    w, w_new = np.ones(n + b.size), np.empty(n + b.size)
    u, v = w[:n], w[n:]
    u_new, v_new = w_new[:n], w_new[n:]
    log_w, log_w_new = np.zeros_like(w), np.empty_like(w)
    Kv, Ku = np.empty_like(a), np.empty_like(b)
    absorbed = False
    stop = np.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(1, max_iters + 1):
            np.dot(K, v, out=Kv)
            np.divide(a_s, Kv, out=u_new)
            np.power(u_new, fi, out=u_new)
            np.dot(KT, u_new, out=Ku)
            np.divide(b_s, Ku, out=v_new)
            np.power(v_new, fi, out=v_new)
            # False for any 0, inf or NaN as well.
            if (_ABSORB_LO < np.minimum.reduce(w_new)
                    and np.maximum.reduce(w_new) < _ABSORB_HI):
                if not row_residual:
                    np.log(w_new, out=log_w_new)
                    # The old log_w is discarded by the swap, so it holds the step.
                    np.subtract(log_w_new, log_w, out=log_w)
                    np.abs(log_w, out=log_w)
                    stop = float(np.maximum.reduce(log_w))
                    log_w, log_w_new = log_w_new, log_w
                w, w_new = w_new, w
                u, v, u_new, v_new = u_new, v_new, u, v
            else:
                # fi > 0 here: at fi = 0 every scaling is exactly 1.
                phi = f + np.log(u)
                psi = g + np.log(v)
                f = -fi * _logsumexp(lb[None, :] + G + psi[None, :], axis=1)
                g = -fi * _logsumexp(la[:, None] + G + f[:, None], axis=0)
                stop = max(float(np.abs(f - phi).max()), float(np.abs(g - psi).max()))
                K = a[:, None] * b[None, :] * np.exp(G + f[:, None] + g[None, :])
                KT = K.T
                a_s = a * np.exp(f * (1.0 - 1.0 / fi))
                b_s = b * np.exp(g * (1.0 - 1.0 / fi))
                w.fill(1.0)
                log_w.fill(0.0)
                absorbed = True
            if row_residual:
                stop = float(np.abs(u * (K @ v) - a).max())
            if stop < tol:
                break
    return (u[:, None] * K * v[None, :], f + np.log(u), g + np.log(v),
            it, stop < tol, absorbed)


# ---------------------------------------------------------------------------
# Plan export


def write_plan(plan: TransportPlan, out_prefix, solver: str = "") -> tuple[Path, Path]:
    """Dump a coupling as CSV plus a JSON diagnostics sidecar.

    ``settings.log_domain`` in the JSON is true when a scaling solve
    absorbed at least once (see ``_scale``); it is not an input.
    """
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    coupling_path = prefix.with_name(prefix.name + "_coupling.csv")
    json_path = prefix.with_name(prefix.name + "_plan.json")
    np.savetxt(coupling_path, plan.coupling, delimiter=",", fmt="%.12g")
    doc = {
        "solver": solver,
        "objective_value": plan.objective_value,
        "objective_regularized": plan.objective_regularized,
        "marginal_residual": plan.marginal_residual,
        "iterations": plan.iterations,
        "converged": plan.converged,
        "total_mass": plan.total_mass,
        "duality_gap": plan.duality_gap,
        "settings": asdict(plan.settings),
        "shape": list(plan.coupling.shape),
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return coupling_path, json_path
