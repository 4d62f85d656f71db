"""Cost matrices and discrete transport solvers.

Three solvers over a nonnegative cost matrix and a pair of marginals:

* :func:`solve_exact_emd` - the linear-program transportation problem,
  solved by a transportation simplex with dual certificates.  Intended for
  small instances and used as the in-package oracle for the entropic pair.
* :func:`sinkhorn` - balanced entropic scaling with the kernel taken
  relative to the product measure, ``K[u,v] = a_u b_v exp(-C[u,v]/eps)``.
* :func:`unbalanced_sinkhorn` - marginal constraints relaxed to KL
  penalties with coefficient tau; alternating scaling updates damped by the
  exponent ``tau / (tau + eps)``, each followed by the optimal translation
  of the dual potentials (translation-invariant Sinkhorn).

Both scaling solvers run one kernel, the balanced one with exponent 1.  It
iterates in the plain domain; a scaling that leaves a fixed range is
absorbed into log potentials that the kernel matrix carries (stabilised
absorption), so small eps and unnormalized costs need no separate
log-domain solver.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .bags import check_fields, check_values, write_csv, write_json
from .errors import DataError, ParameterError, ShapeError, SolverError

COST_METRICS = ("l2", "squared_l2", "cosine_distance")

# The scaling solvers' default iteration cap and stop tolerance.
MAX_ITERS, TOLERANCE = 1000, 1e-6

# Relative reduced-cost threshold for simplex optimality, and the pivot cap.
_RC_TOL = 1e-12
_MAX_PIVOTS = 100_000
# Pivots per (n + m) max(n, m) before the simplex falls back to Bland's rule.
_BLAND_AFTER = 50


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise ground costs between source and target instances."""

    values: np.ndarray
    metric: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ShapeError(f"cost matrix must be 2-D, got shape {vals.shape}")
        check_values(vals, "cost matrix", DataError, least=0)
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
            check_values(w, f"{name} marginal", DataError, least=0)
            if abs(w.sum() - 1.0) > 1e-12:
                raise DataError(f"{name} marginal sums to {w.sum()!r}, expected 1")
            object.__setattr__(self, name, w)


@functools.cache
def uniform_marginals(n_source: int, n_target: int) -> Marginals:
    if n_source < 1 or n_target < 1:
        raise DataError(f"uniform marginals need sizes >= 1, got {n_source} and {n_target}")
    source, target = np.full(n_source, 1.0 / n_source), np.full(n_target, 1.0 / n_target)
    source.flags.writeable = target.flags.writeable = False  # every caller shares them
    return Marginals(source, target)


@dataclass(frozen=True)
class SolverSettings:
    """A scaling solve's arguments, checked when built (``bags.check_fields``);
    ``tau=None`` is the balanced solve."""

    epsilon: float
    tau: float | None = None
    max_iters: int = MAX_ITERS
    tolerance: float = TOLERANCE
    log_domain: bool = False  # recorded: the scaling solve absorbed at least once

    LEAST = {"tau": 0, "max_iters": 1}
    ABOVE = {"epsilon": 0, "tolerance": 0}

    def __post_init__(self):
        check_fields(self, ParameterError)


@dataclass(frozen=True)
class TransportPlan:
    """A coupling, how its solver ended, and the problem it solved.

    An exact solve rescales ``marginals.target`` to the source mass.  The
    dual slots hold potentials for an exact solve and log scalings for a
    scaling solve, and ``settings`` is None for an exact solve.  The
    diagnostics are computed from these fields when read.
    """

    coupling: np.ndarray
    iterations: int
    converged: bool
    settings: SolverSettings | None
    cost: CostMatrix
    marginals: Marginals
    dual_source: np.ndarray | None = None
    dual_target: np.ndarray | None = None

    def __post_init__(self):
        check_values(self.coupling, "coupling", SolverError, least=0)

    @property
    def total_mass(self) -> float:
        return float(self.coupling.sum())

    @property
    def objective_value(self) -> float:
        """The bare transport cost <P, C>."""
        return float(np.sum(self.coupling * self.cost.values))

    @property
    def marginal_residual(self) -> float:
        """The larger of the row and column marginal residuals."""
        P, marg = self.coupling, self.marginals
        return max(float(np.abs(P.sum(axis=1) - marg.source).max()),
                   float(np.abs(P.sum(axis=0) - marg.target).max()))

    @property
    def objective_regularized(self) -> float | None:
        """<P, C> + eps KL(P | a x b), plus tau (KL(P 1 | a) + KL(P' 1 | b))
        when unbalanced; None for an exact solve."""
        if self.settings is None:
            return None
        eps, tau = self.settings.epsilon, self.settings.tau
        P, a, b = self.coupling, self.marginals.source, self.marginals.target
        reg = self.objective_value + eps * _generalized_kl(P, np.outer(a, b))
        if tau is not None:
            reg = (reg + tau * _generalized_kl(P.sum(axis=1), a)
                   + tau * _generalized_kl(P.sum(axis=0), b))
        return reg

    @property
    def duality_gap(self) -> float | None:
        """<P, C> minus the dual objective; None unless the duals are potentials."""
        if self.settings is not None or self.dual_source is None:
            return None
        a, b = self.marginals.source, self.marginals.target
        return self.objective_value - float(a @ self.dual_source + b @ self.dual_target)


# ---------------------------------------------------------------------------
# Cost construction


def build_cost(source: np.ndarray, target: np.ndarray, metric: str) -> CostMatrix:
    """Pairwise cost between the rows of two feature matrices."""
    xs, xt = np.asarray(source, float), np.asarray(target, float)
    if xs.ndim != 2 or xt.ndim != 2:
        raise ShapeError("bags must be 2-D feature matrices")
    if xs.shape[1] != xt.shape[1]:
        raise ShapeError(f"feature dims differ: {xs.shape[1]} vs {xt.shape[1]}")
    if metric not in COST_METRICS:
        raise ParameterError(f"unknown metric {metric!r}, choose from {COST_METRICS}")

    if metric == "cosine_distance":
        denom = np.outer(np.linalg.norm(xs, axis=1), np.linalg.norm(xt, axis=1))
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


def _check_shapes(C: CostMatrix, marg: Marginals) -> None:
    """Every solver's rule: one marginal entry per row and per column of C."""
    if marg.source.size != C.shape[0] or marg.target.size != C.shape[1]:
        raise ShapeError(f"marginals ({marg.source.size},{marg.target.size}) "
                         f"do not match cost {C.shape}")


# ---------------------------------------------------------------------------
# Exact transportation problem


def solve_exact_emd(C: CostMatrix, marg: Marginals) -> TransportPlan:
    """Solve min <P,C> over couplings with the given marginals, exactly.

    Transportation simplex (MODI): northwest-corner start, then pivots on
    the most negative reduced cost with a Bland-rule fallback against
    cycling.  The returned plan carries the dual potentials, whose duality
    gap is the optimality certificate.
    """
    _check_shapes(C, marg)
    cost = C.values
    n, m = cost.shape
    a, b = marg.source, marg.target * (marg.source.sum() / marg.target.sum())

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
    bland_after = _BLAND_AFTER * (n + m) * max(n, m)
    while True:
        u, v, parent, depth = _basis_tree(cost, basis, n, m)
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
        if pivots >= _MAX_PIVOTS:
            raise SolverError(f"transportation simplex exceeded {_MAX_PIVOTS} pivots")
        cycle = _pivot_cycle(parent, depth, (ei, ej), n)
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

    return TransportPlan(np.maximum(alloc, 0.0), pivots, True, None, C, Marginals(a, b),
                         dual_source=u, dual_target=v)


def _basis_tree(cost, basis, n, m):
    """One walk of the spanning tree of basis cells, rooted at row 0.

    Nodes are the rows 0..n-1 and the columns n..n+m-1.  Returns the
    potentials u, v with u[0] = 0 and ``u[i] + v[j] = cost[i, j]`` on every
    basis cell, each node's parent link (parent node, joining cell), and
    each node's depth.
    """
    adj = [[] for _ in range(n + m)]
    for cell in basis:
        i, j = cell
        adj[i].append((n + j, cell))
        adj[n + j].append((i, cell))
    pot = [0.0] * (n + m)
    parent = [None] * (n + m)
    parent[0] = (-1, None)
    depth = [0] * (n + m)
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt, cell in adj[node]:
            if parent[nxt] is None:
                parent[nxt] = (node, cell)
                depth[nxt] = depth[node] + 1
                pot[nxt] = cost[cell] - pot[node]
                stack.append(nxt)
    if None in parent:
        raise SolverError("basis does not span the transportation graph")
    return np.array(pot[:n]), np.array(pot[n:]), parent, depth


def _pivot_cycle(parent, depth, entering, n):
    """Cells of the unique cycle the entering cell closes, entering first,
    then the tree path from its column node back to its row node."""
    row, col = entering[0], n + entering[1]
    from_col, from_row = [], []
    while row != col:
        if depth[col] >= depth[row]:
            col, cell = parent[col]
            from_col.append(cell)
        else:
            row, cell = parent[row]
            from_row.append(cell)
    # Signs alternate along the cycle: +, -, +, ...
    return [entering] + from_col + from_row[::-1]


# ---------------------------------------------------------------------------
# Scaling solvers


# A new scaling outside this range is absorbed into the log potentials
# before it overflows, underflows, or leaves kernel entries it needs at zero.
_ABSORB_LO, _ABSORB_HI = 1e-100, 1e100


def _generalized_kl(x: np.ndarray, y: np.ndarray) -> float:
    """sum(x log(x/y) - x + y), with 0 log(0/y) = 0; needs y > 0 wherever x > 0."""
    pos = x > 0
    val = float(np.sum(np.where(pos, x * (np.log(np.where(pos, x, 1.0))
                                          - np.log(np.where(pos, y, 1.0))), 0.0)))
    return val - float(x.sum()) + float(y.sum())


def sinkhorn(C: CostMatrix, marg: Marginals, epsilon: float,
             max_iters: int = MAX_ITERS, tol: float = TOLERANCE) -> TransportPlan:
    """Balanced entropic transport by Sinkhorn-Knopp matrix scaling.

    The coupling has the form diag(u) K diag(v) with the kernel taken
    relative to the product measure.  Convergence is declared when the row
    marginal residual drops below ``tol`` (each update of v matches the
    columns exactly); on non-convergence the last iterate is returned with
    ``converged=False``.
    """
    return _scaling_solve(C, marg, SolverSettings(epsilon, None, max_iters, tol))


def unbalanced_sinkhorn(C: CostMatrix, marg: Marginals, epsilon: float, tau: float,
                        max_iters: int = MAX_ITERS, tol: float = TOLERANCE
                        ) -> TransportPlan:
    """Entropic transport with KL-relaxed marginals.

    Minimizes <P,C> + eps KL(P | a x b) + tau (KL(P 1 | a) + KL(P' 1 | b))
    by alternating scaling updates with damped exponent tau / (tau + eps).
    For tau > 0 each update is followed by the closed-form optimal shift of
    the dual potentials f + lam, g - lam (Sejourne, Vialard & Peyre,
    *Faster Unbalanced Optimal Transport: Translation invariant Sinkhorn
    and 1-D Frank-Wolfe*, AISTATS 2022); it leaves the fixed point as it is
    and takes about 10 iterations where the damped updates alone take about
    75 (eps 0.05, tau 0.5).  Convergence is declared when the scaling
    vectors stop moving (max change of log u and log v below ``tol``).
    tau = 0 yields the closed form ``P = (a x b) exp(-C/eps)`` on the first
    iteration.
    """
    if tau is None:
        raise ParameterError("tau must be float, got None")
    return _scaling_solve(C, marg, SolverSettings(epsilon, tau, max_iters, tol))


def _scaling_solve(C: CostMatrix, marg: Marginals, settings: SolverSettings) -> TransportPlan:
    """Shared body of the two scaling solvers.

    Zero-mass rows and columns are dropped before the solve and come back
    as zero coupling with dual -inf.  The plan carries ``C`` and ``marg``
    whole; it computes no diagnostic.
    """
    _check_shapes(C, marg)
    sub_a, sub_b = marg.source > 0, marg.target > 0
    # Uniform marginals, as training uses, drop nothing: solve on C as it is.
    dropped = not (sub_a.all() and sub_b.all())
    if dropped:
        a, b = marg.source[sub_a], marg.target[sub_b]
        cost = C.values[np.ix_(sub_a, sub_b)]
    else:
        a, b, cost = marg.source, marg.target, C.values
    P, log_u, log_v, iterations, converged, absorbed = _scale(cost, a, b, settings)

    if dropped:
        P_sub, P = P, np.zeros(C.shape)
        P[np.ix_(sub_a, sub_b)] = P_sub
        log_u, log_v = _embed(log_u, sub_a), _embed(log_v, sub_b)
    if absorbed:
        settings = replace(settings, log_domain=True)
    return TransportPlan(P, iterations, converged, settings, C, marg,
                         dual_source=log_u, dual_target=log_v)


def _embed(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = np.full(mask.size, -np.inf)
    out[mask] = values
    return out


def _logsumexp(x, axis):
    peak = np.max(x, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return np.squeeze(peak, axis) + np.log(np.sum(np.exp(x - peak), axis=axis))


def _scale(cost, a, b, settings):
    """Scaling iterations ``u = (a / K v)^fi, v = (b / K'u)^fi`` with absorption,
    where ``fi = tau / (tau + eps)``, or 1 for the balanced solve (``tau`` None).

    ``K = (a x b) exp(-C/eps + f + g)`` carries the absorbed log potentials
    f and g, which start at zero.  When a new scaling leaves the range
    (_ABSORB_LO, _ABSORB_HI) it is discarded: one log-domain update is taken
    from the potentials ``f + log u`` and ``g + log v`` instead, its result
    becomes the new f and g, K is rebuilt, and u = v = 1 (Schmitzer 2019).
    ``a_s``, ``b_s`` are the marginals rescaled so that the plain update on
    the absorbed K is the same update; they equal ``a exp(-r f)`` and
    ``b exp(-r g)`` with ``r = (1 - fi) / fi = eps / tau``.

    When 0 < fi < 1 each new pair then takes the optimal dual translation
    ``f + t, g - t`` in closed form (Sejourne, Vialard & Peyre, AISTATS
    2022): ``u e^t, v e^-t`` with ``t = (log A - log B) / (2 r)``,
    ``A = sum a_s u^-r`` and ``B = sum b_s v^-r``.  Without it the mode
    ``f + t, g - t`` contracts only by fi^2 per iteration.  A sum that is
    0, inf or NaN makes t NaN or infinite, which takes the pair out of
    range, so an absorption step replaces it.  The absorption step takes
    the same translation in log space, ``t = (LSE(log a - r f) - LSE(log b
    - r g)) / (2 r)``, so the rebuilt K starts from translated potentials
    and the next plain step does not leave the range on account of t.

    Stops below ``settings.tolerance``: a balanced solve on the row-marginal
    residual, else on the change in log scaling.  Returns the sub-coupling,
    the log scalings ``f + log u`` and ``g + log v``, the iteration count,
    convergence, and whether any absorption happened.
    """
    epsilon, tol, row_residual = settings.epsilon, settings.tolerance, settings.tau is None
    fi = 1.0 if row_residual else settings.tau / (settings.tau + epsilon)
    n = a.size
    la = np.log(a)
    lb = np.log(b)
    G = -cost / epsilon
    f = np.zeros_like(a)
    g = np.zeros_like(b)
    a_s, b_s = a, b
    translate = 0.0 < fi < 1.0
    r = (1.0 - fi) / fi if translate else 0.0
    def kernel(f, g):
        return a[:, None] * b[None, :] * np.exp(G + f[:, None] + g[None, :])
    K = kernel(f, g)
    KT = K.T
    # u and v are views into one buffer w, so a single range check and a
    # single log change cover both.  Each iteration overwrites w; log_w holds
    # log(u), log(v) of the last accepted pair, which a rejected pair needs.
    w = np.ones(n + b.size)
    u, v = w[:n], w[n:]
    log_w, log_w_new = np.zeros_like(w), np.empty_like(w)
    Kv, Ku = np.empty_like(a), np.empty_like(b)
    absorbed = False
    stop = np.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(1, settings.max_iters + 1):
            np.dot(K, v, out=Kv)
            np.divide(a_s, Kv, out=u)
            np.power(u, fi, out=u)
            np.dot(KT, u, out=Ku)
            np.divide(b_s, Ku, out=v)
            np.power(v, fi, out=v)
            if translate:
                # Kv and Ku are free until the next iteration.
                A = np.dot(a_s, np.power(u, -r, out=Kv))
                B = np.dot(b_s, np.power(v, -r, out=Ku))
                t = (np.log(A) - np.log(B)) / (2.0 * r)
                np.multiply(u, np.exp(t), out=u)
                np.multiply(v, np.exp(-t), out=v)
            # False for any 0, inf or NaN as well.
            if (_ABSORB_LO < np.minimum.reduce(w)
                    and np.maximum.reduce(w) < _ABSORB_HI):
                if row_residual:
                    np.log(w, out=log_w)
                else:
                    np.log(w, out=log_w_new)
                    # The old log_w is discarded by the swap, so it holds the step.
                    np.subtract(log_w_new, log_w, out=log_w)
                    np.abs(log_w, out=log_w)
                    stop = float(np.maximum.reduce(log_w))
                    log_w, log_w_new = log_w_new, log_w
            else:
                # fi > 0 here: at fi = 0 every scaling is exactly 1.
                phi = f + log_w[:n]
                psi = g + log_w[n:]
                f = -fi * _logsumexp(lb[None, :] + G + psi[None, :], axis=1)
                g = -fi * _logsumexp(la[:, None] + G + f[:, None], axis=0)
                if translate:
                    t = (_logsumexp(la - r * f, axis=0)
                         - _logsumexp(lb - r * g, axis=0)) / (2.0 * r)
                    f += t
                    g -= t
                stop = max(float(np.abs(f - phi).max()), float(np.abs(g - psi).max()))
                K = kernel(f, g)
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
    return (u[:, None] * K * v[None, :], f + log_w[:n], g + log_w[n:],
            it, stop < tol, absorbed)


# ---------------------------------------------------------------------------
# Plan export


def write_plan(plan: TransportPlan, out_prefix, solver: str = "") -> tuple[Path, Path]:
    """Dump a coupling as CSV plus a JSON diagnostics sidecar.

    ``settings`` in the JSON is null for an exact solve; ``settings.log_domain``
    is true when a scaling solve absorbed at least once (see ``_scale``); it
    is not an input.
    """
    prefix = Path(out_prefix)
    coupling_path = write_csv(prefix.with_name(prefix.name + "_coupling.csv"),
                              (["%.12g" % v for v in row] for row in plan.coupling))
    fields = ("objective_value", "objective_regularized", "marginal_residual",
              "iterations", "converged", "total_mass", "duality_gap")
    doc = {"solver": solver, **{name: getattr(plan, name) for name in fields},
           "settings": None if plan.settings is None else asdict(plan.settings),
           "shape": list(plan.coupling.shape)}
    json_path = write_json(prefix.with_name(prefix.name + "_plan.json"), doc)
    return coupling_path, json_path
