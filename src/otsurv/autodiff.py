"""Minimal reverse-mode differentiation on a recording tape.

Every differentiable value is a :class:`Var` created through :class:`Tape`
ops; the tape holds the creation order, which is a valid topological order
for the backward sweep.  All values are float64 ndarrays (scalars have
shape ()).  Values are matrices (row vectors are (1, d) arrays) or stacks
of them, ``(B, n, d)``: the micro-batches of one shape, which ``linear``,
``matmul``, ``attention``, ``add``, ``mean_rows``, ``concat_cols`` and
``sigmoid`` process slice by slice.  A stack may meet an unstacked operand
(a parameter, the pooled genomic row), which then stands for every slice.

Backward adds a stack's contribution to an unstacked operand one slice at
a time, last slice first, and a bias sums its rows within each slice
before that.  A stack's slices are the micro-batches in order, so that is
the order in which a sweep over per-micro-batch chains adds them: a
stacked pass gives the per-micro-batch gradients bit for bit.

A node is its value, its parents and one vector-Jacobian product: ``vjp(g)``
returns one contribution per parent, in the parents' order, and backward
adds them in that order, skipping None.  Backward adds nothing into a
const, so ``linear`` and ``matmul`` return None for a const operand rather
than compute a product that would be dropped.  Ops implement exactly the
vector-Jacobian products the survival pipeline needs; gradients are
verified against central finite differences in the test suite.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul

import numpy as np

from .errors import ShapeError, StateError


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from.

    A stack's gradient for an operand of lower rank keeps its stack axis:
    the sums run within each slice, and backward adds the slices.
    """
    g = grad
    lead = 1 if g.ndim == 3 and len(shape) < 3 else 0
    while g.ndim - lead > len(shape):
        g = g.sum(axis=lead)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[lead + ax] != 1:
            g = g.sum(axis=lead + ax, keepdims=True)
    return g


def _t(x: np.ndarray) -> np.ndarray:
    """Transpose each matrix of a stack (a plain transpose for a matrix)."""
    return x.swapaxes(-1, -2)


class Var:
    """A value, the Vars it was computed from, and one VJP into them."""

    __slots__ = ("value", "grad", "parents", "vjp")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents  # None on a const
        self.vjp = vjp  # g -> one contribution (or None) per parent

    @property
    def shape(self):
        return self.value.shape

    @property
    def const(self) -> bool:
        """Whether this is a :meth:`Tape.const` input, which gets no gradient."""
        return self.parents is None


class Tape:
    """Op recorder; one forward pass and one backward sweep per tape."""

    def __init__(self):
        self.nodes: list[Var] = []
        self.consumed = False

    def _emit(self, value, parents=(), vjp=None) -> Var:
        node = Var(value, parents, vjp)
        self.nodes.append(node)
        return node

    # -- leaves ------------------------------------------------------------

    def leaf(self, value) -> Var:
        """A differentiable input (a parameter tensor)."""
        return self._emit(value)

    def const(self, value) -> Var:
        """A non-differentiable input; backward computes no gradient for it."""
        return Var(value, None)

    # -- linear algebra ----------------------------------------------------

    def matmul(self, a: Var, b: Var) -> Var:
        if a.value.shape[-1] != b.value.shape[-2]:
            raise ShapeError(f"matmul shapes {a.shape} @ {b.shape}")
        return self._emit(a.value @ b.value, (a, b), lambda g: (
            None if a.const else g @ _t(b.value), None if b.const else _t(a.value) @ g))

    def linear(self, x: Var, w: Var, b: Var) -> Var:
        """``x @ w + b`` as one node, with the VJPs of ``matmul`` and ``add``."""
        if x.value.shape[-1] != w.value.shape[0]:
            raise ShapeError(f"linear shapes {x.shape} @ {w.shape}")
        return self._emit(x.value @ w.value + b.value, (x, w, b), lambda g: (
            None if x.const else g @ w.value.T, _t(x.value) @ g,
            _unbroadcast(g, b.value.shape)))

    def add(self, a: Var, b: Var) -> Var:
        return self._emit(a.value + b.value, (a, b), lambda g: (
            _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))

    def mul(self, a: Var, b: Var) -> Var:
        return self._emit(a.value * b.value, (a, b), lambda g: (
            _unbroadcast(g * b.value, a.value.shape), _unbroadcast(g * a.value, b.value.shape)))

    def scale(self, a: Var, c: float) -> Var:
        return self._emit(a.value * c, (a,), lambda g: (g * c,))

    def sub_from(self, c: float, a: Var) -> Var:
        """c - a for a plain float c."""
        return self._emit(c - a.value, (a,), lambda g: (-g,))

    # -- nonlinearities ----------------------------------------------------

    def selu(self, a: Var, alpha: float, lam: float) -> Var:
        x = a.value
        pos = x > 0
        e = np.exp(np.minimum(x, 0.0))
        y = lam * np.where(pos, x, alpha * (e - 1.0))
        deriv = lam * np.where(pos, 1.0, alpha * e)
        return self._emit(y, (a,), lambda g: (g * deriv,))

    def sigmoid(self, a: Var) -> Var:
        x = a.value
        z = np.exp(-np.abs(x))  # never overflows; saturates to exact 0/1
        s = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        return self._emit(s, (a,), lambda g: (g * s * (1.0 - s),))

    def log(self, a: Var) -> Var:
        return self._emit(np.log(a.value), (a,), lambda g: (g / a.value,))

    def clamp_min(self, a: Var, floor: float) -> Var:
        mask = a.value > floor
        return self._emit(np.maximum(a.value, floor), (a,), lambda g: (g * mask,))

    # -- shape ops ----------------------------------------------------------

    def mean_rows(self, a: Var) -> Var:
        n = a.value.shape[-2]
        return self._emit(a.value.mean(axis=-2, keepdims=True), (a,),
                          lambda g: (np.broadcast_to(g / n, a.value.shape).copy(),))

    def concat_cols(self, parts: list[Var]) -> Var:
        """Column-wise concatenation; an unstacked part joins every slice of a stack."""
        rows = max((p.value.shape[:-1] for p in parts), key=len)
        offsets = [0]
        for p in parts:
            offsets.append(offsets[-1] + p.value.shape[-1])
        out = np.empty((*rows, offsets[-1]))
        spans = list(zip(offsets, offsets[1:]))
        for p, (k0, k1) in zip(parts, spans):
            out[..., k0:k1] = p.value
        return self._emit(out, tuple(parts),
                          lambda g: tuple(g[..., k0:k1] for k0, k1 in spans))

    def concat_rows(self, parts: list[Var]) -> Var:
        offsets = np.cumsum([0] + [p.value.shape[0] for p in parts])
        return self._emit(np.concatenate([p.value for p in parts], axis=0), tuple(parts),
                          lambda g: tuple(g[k0:k1, :] for k0, k1 in zip(offsets, offsets[1:])))

    def pick(self, a: Var, i: int, j: int) -> Var:
        def vjp(g):
            out = np.zeros(a.value.shape)
            out[i, j] = g
            return (out,)

        return self._emit(a.value[i, j], (a,), vjp)

    # -- attention ------------------------------------------------------------

    def attention(self, q: Var, k: Var, v: Var, n_heads: int) -> Var:
        """Multi-head softmax attention as one node.

        Column block h of ``q``, ``k`` and ``v`` belongs to head h, which
        computes ``softmax(q_h @ k_h.T / sqrt(dh)) @ v_h`` over its rows,
        with ``dh`` the head width; the heads' outputs are concatenated
        column-wise, shape (n_q, v width).  Query and key row counts may
        differ.  Any operand may be a stack; an unstacked query then attends
        within every slice.

        The heads run as C-contiguous ``(..., H, n, dh)`` stacks, so every
        ``matmul`` hands each head's 2-D operands to BLAS gemm with the
        same layout and transpose flags as separate per-head products: the
        value and gradients are bitwise those of the per-head chain.
        """
        d, (n_k, d_k), (n_v, d_v) = q.shape[-1], k.shape[-2:], v.shape[-2:]
        if d != d_k or n_v != n_k or d % n_heads or d_v % n_heads:
            raise ShapeError(f"attention shapes q {q.shape}, k {k.shape}, v {v.shape} "
                             f"with {n_heads} heads")
        scale = 1.0 / np.sqrt(d // n_heads)

        def split(x):  # (..., n, H * dh) -> C-contiguous (..., H, n, dh)
            return np.ascontiguousarray(
                x.reshape(*x.shape[:-1], n_heads, -1).swapaxes(-2, -3))

        def merge(x):  # (..., H, n, dh) -> (..., n, H * dh)
            return x.swapaxes(-2, -3).reshape(*x.shape[:-3], x.shape[-2], -1)

        sq, sk, sv = split(q.value), split(k.value), split(v.value)
        logits = (sq @ _t(sk)) * scale
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)

        def vjp(g):
            g_out = split(g)
            g_s = g_out @ _t(sv)
            g_logits = s * (g_s - np.sum(g_s * s, axis=-1, keepdims=True)) * scale
            return (merge(g_logits @ sk), merge(_t(_t(sq) @ g_logits)), merge(_t(s) @ g_out))

        return self._emit(merge(s @ sv), (q, k, v), vjp)

    # -- survival ---------------------------------------------------------------

    def discrete_nll(self, hazards: list[Var], weights, t: int, censored: bool,
                     floor: float) -> Var:
        """Weighted discrete-time survival NLL over hazard rows, as one node.

        ``hazards`` holds rows of shape (..., 1, T); row r, in order, takes
        weight ``weights[r]``.  A censored row at bin t costs ``-w log
        max(S_t, floor)``; an event costs ``-w (log max(S_{t-1}, floor) +
        log max(h_t, floor))``, without the first log when t = 0.  ``S_z``
        is the running product of the factors ``max(1 - h_j, floor)``,
        j <= z.  The node's value is the rows' terms added in order.

        Value and gradient are bitwise those of the per-row chain of
        ``pick``, ``sub_from``, ``clamp_min``, ``mul``, ``log``, ``scale``
        and ``add`` ops: the running products multiply the same factors in
        the same order, and the VJP takes the chain's products and quotients
        in the chain's order.  A row holds a few bins, so the arithmetic is
        on Python floats, the same IEEE doubles; the logs are numpy's.
        """
        T = hazards[0].value.shape[-1]
        parts = [p.value.reshape(-1, T).tolist() for p in hazards]
        h = [row for part in parts for row in part]
        if len(h) != len(weights) or not 0 <= t < T:
            raise ShapeError(f"discrete_nll: {len(h)} hazard rows of {T} bins, "
                             f"{len(weights)} weights, bin {t}")
        n_f = t + 1 if censored else t  # factors in the survival product
        s = [[1.0 - x for x in row[:n_f]] for row in h]
        f = [[max(x, floor) for x in row] for row in s]
        prefix = [list(accumulate(row, mul)) for row in f]
        surv = [max(row[-1], floor) for row in prefix] if n_f else []
        h_t = [] if censored else [max(row[t], floor) for row in h]
        logs = np.log(surv + h_t).tolist()
        log_s, log_h = logs[:len(surv)], logs[len(surv):]
        if censored:
            terms = [ls * -w for ls, w in zip(log_s, weights)]
        elif t == 0:
            terms = [lh * -w for lh, w in zip(log_h, weights)]
        else:
            terms = [(ls + lh) * -w for ls, lh, w in zip(log_s, log_h, weights)]
        total = terms[0]
        for term in terms[1:]:
            total = total + term

        def vjp(g):
            out = [[0.0] * T for _ in h]
            for r, w in enumerate(weights):
                g_term = float(g) * -w
                if n_f:
                    # S_{z-1}'s gradient is S_z's times f_z; f_z's is S_z's
                    # times S_{z-1}.
                    g_s = g_term / surv[r] * (prefix[r][-1] > floor)
                    for z in range(n_f - 1, 0, -1):
                        out[r][z] = -(g_s * prefix[r][z - 1] * (s[r][z] > floor))
                        g_s = g_s * f[r][z]
                    out[r][0] = -(g_s * (s[r][0] > floor))
                if not censored:
                    out[r][t] = g_term / h_t[r] * (h[r][t] > floor)
            ends = list(accumulate(len(part) for part in parts))
            return [np.array(out[k1 - len(part):k1]).reshape(p.value.shape)
                    for p, part, k1 in zip(hazards, parts, ends)]

        return self._emit(total, tuple(hazards), vjp)


def backward(tape: Tape, root: Var) -> None:
    """Accumulate gradients of ``root`` into every reachable non-const Var's ``.grad``."""
    if tape.consumed:
        raise StateError("tape already consumed by a previous backward pass")
    if root.value.shape != ():
        raise ShapeError(f"backward root must be scalar, got shape {root.value.shape}")
    tape.consumed = True
    root.grad = np.ones(())
    for node in reversed(tape.nodes):
        g = node.grad
        if g is None or not node.parents:
            continue
        for parent, contrib in zip(node.parents, node.vjp(g)):
            if contrib is None or parent.const:  # a const's gradient is never read
                continue
            total = parent.grad
            # A stack into an unstacked operand adds its slices, last first.
            for part in reversed(contrib) if contrib.ndim > parent.value.ndim else (contrib,):
                # A sum from 0.0 (-0.0 becomes +0.0), in C order for later BLAS calls.
                total = np.add(part, 0.0, order="C") if total is None else total + part
            parent.grad = total
