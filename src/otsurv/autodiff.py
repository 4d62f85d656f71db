"""Minimal reverse-mode differentiation on a recording tape.

Every differentiable value is a :class:`Var` created through :class:`Tape`
ops; the tape holds the creation order, which is a valid topological order
for the backward sweep.  All values are float64 ndarrays (scalars have
shape ()).  Matrices are the only first-class citizens: row vectors are
(1, d) arrays.

Ops implement exactly the vector-Jacobian products the survival pipeline
needs; gradients are verified against central finite differences in the
test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, StateError


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Var:
    """A value plus the back-references needed to differentiate through it."""

    __slots__ = ("value", "grad", "backrefs")

    def __init__(self, value, backrefs=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.backrefs = backrefs  # tuple of (parent Var, vjp callable); None on a const

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Op recorder; one forward pass and one backward sweep per tape."""

    def __init__(self):
        self.nodes: list[Var] = []
        self.consumed = False

    def _emit(self, value, backrefs=()) -> Var:
        node = Var(value, backrefs)
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
        if a.value.shape[-1] != b.value.shape[0]:
            raise ShapeError(f"matmul shapes {a.shape} @ {b.shape}")
        return self._emit(
            a.value @ b.value,
            ((a, lambda g, b=b: g @ b.value.T),
             (b, lambda g, a=a: a.value.T @ g)),
        )

    def linear(self, x: Var, w: Var, b: Var) -> Var:
        """``x @ w + b`` as one node, with the VJPs of ``matmul`` and ``add``."""
        if x.value.shape[-1] != w.value.shape[0]:
            raise ShapeError(f"linear shapes {x.shape} @ {w.shape}")
        return self._emit(
            x.value @ w.value + b.value,
            ((x, lambda g, w=w: g @ w.value.T),
             (w, lambda g, x=x: x.value.T @ g),
             (b, lambda g, s=b.value.shape: _unbroadcast(g, s))),
        )

    def add(self, a: Var, b: Var) -> Var:
        return self._emit(
            a.value + b.value,
            ((a, lambda g, s=a.value.shape: _unbroadcast(g, s)),
             (b, lambda g, s=b.value.shape: _unbroadcast(g, s))),
        )

    def mul(self, a: Var, b: Var) -> Var:
        return self._emit(
            a.value * b.value,
            ((a, lambda g, b=b, s=a.value.shape: _unbroadcast(g * b.value, s)),
             (b, lambda g, a=a, s=b.value.shape: _unbroadcast(g * a.value, s))),
        )

    def scale(self, a: Var, c: float) -> Var:
        return self._emit(a.value * c, ((a, lambda g, c=c: g * c),))

    def sub_from(self, c: float, a: Var) -> Var:
        """c - a for a plain float c."""
        return self._emit(c - a.value, ((a, lambda g: -g),))

    def add_n(self, terms: list[Var]) -> Var:
        total = terms[0].value
        for t in terms[1:]:
            total = total + t.value
        return self._emit(total, tuple((t, lambda g: g) for t in terms))

    # -- nonlinearities ----------------------------------------------------

    def selu(self, a: Var, alpha: float, lam: float) -> Var:
        x = a.value
        pos = x > 0
        e = np.exp(np.minimum(x, 0.0))
        y = lam * np.where(pos, x, alpha * (e - 1.0))
        deriv = lam * np.where(pos, 1.0, alpha * e)
        return self._emit(y, ((a, lambda g, d=deriv: g * d),))

    def sigmoid(self, a: Var) -> Var:
        x = a.value
        z = np.exp(-np.abs(x))  # never overflows; saturates to exact 0/1
        s = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        return self._emit(s, ((a, lambda g, s=s: g * s * (1.0 - s)),))

    def log(self, a: Var) -> Var:
        return self._emit(np.log(a.value), ((a, lambda g, a=a: g / a.value),))

    def clamp_min(self, a: Var, floor: float) -> Var:
        mask = a.value > floor
        return self._emit(np.maximum(a.value, floor),
                          ((a, lambda g, m=mask: g * m),))

    # -- shape ops ----------------------------------------------------------

    def mean_rows(self, a: Var) -> Var:
        n = a.value.shape[0]
        return self._emit(
            a.value.mean(axis=0, keepdims=True),
            ((a, lambda g, n=n, shape=a.value.shape: np.broadcast_to(g / n, shape).copy()),),
        )

    def concat_cols(self, parts: list[Var]) -> Var:
        widths = [p.value.shape[1] for p in parts]
        offsets = np.cumsum([0] + widths)
        backrefs = tuple(
            (p, lambda g, k0=offsets[k], k1=offsets[k + 1]: g[:, k0:k1])
            for k, p in enumerate(parts)
        )
        return self._emit(np.concatenate([p.value for p in parts], axis=1), backrefs)

    def concat_rows(self, parts: list[Var]) -> Var:
        heights = [p.value.shape[0] for p in parts]
        offsets = np.cumsum([0] + heights)
        backrefs = tuple(
            (p, lambda g, k0=offsets[k], k1=offsets[k + 1]: g[k0:k1, :])
            for k, p in enumerate(parts)
        )
        return self._emit(np.concatenate([p.value for p in parts], axis=0), backrefs)

    def pick(self, a: Var, i: int, j: int) -> Var:
        def vjp(g, shape=a.value.shape, i=i, j=j):
            out = np.zeros(shape)
            out[i, j] = g
            return out

        return self._emit(a.value[i, j], ((a, vjp),))

    # -- attention ------------------------------------------------------------

    def attention(self, q: Var, k: Var, v: Var, n_heads: int, scale: float) -> Var:
        """Multi-head softmax attention as one node.

        Column block h of ``q``, ``k`` and ``v`` belongs to head h, which
        computes ``softmax(scale * q_h @ k_h.T) @ v_h`` over its rows; the
        heads' outputs are concatenated column-wise, shape (n_q, v width).
        Query and key row counts may differ.

        The heads run as C-contiguous ``(H, n, dh)`` stacks, so every
        ``matmul`` hands each head's 2-D operands to BLAS gemm with the
        same layout and transpose flags as separate per-head products: the
        value and gradients are bitwise those of the per-head chain.  The
        first VJP call computes all three gradients; the others reuse them.
        """
        (_, d), (n_k, d_k), (n_v, d_v) = q.shape, k.shape, v.shape
        if d != d_k or n_v != n_k or d % n_heads or d_v % n_heads:
            raise ShapeError(f"attention shapes q {q.shape}, k {k.shape}, v {v.shape} "
                             f"with {n_heads} heads")

        def split(x):  # (n, H * dh) -> C-contiguous (H, n, dh)
            return np.ascontiguousarray(
                x.reshape(x.shape[0], n_heads, -1).transpose(1, 0, 2))

        def merge(x):  # (H, n, dh) -> (n, H * dh)
            return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

        sq, sk, sv = split(q.value), split(k.value), split(v.value)
        logits = (sq @ sk.transpose(0, 2, 1)) * scale
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        grads = []

        def vjp(g, i):
            if not grads:
                g_out = split(g)
                g_s = g_out @ sv.transpose(0, 2, 1)
                g_logits = s * (g_s - np.sum(g_s * s, axis=-1, keepdims=True)) * scale
                grads.extend((merge(g_logits @ sk),
                              merge((sq.transpose(0, 2, 1) @ g_logits).transpose(0, 2, 1)),
                              merge(s.transpose(0, 2, 1) @ g_out)))
            return grads[i]

        return self._emit(merge(s @ sv),
                          tuple((x, lambda g, i=i: vjp(g, i)) for i, x in enumerate((q, k, v))))


def backward(tape: Tape, root: Var) -> None:
    """Accumulate gradients of ``root`` into every reachable non-const Var's ``.grad``."""
    if tape.consumed:
        raise StateError("tape already consumed by a previous backward pass")
    if root.value.shape != ():
        raise ShapeError(f"backward root must be scalar, got shape {root.value.shape}")
    tape.consumed = True
    root.grad = np.ones(())
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        for parent, vjp in node.backrefs:
            if parent.backrefs is None:  # a const: its gradient is never read
                continue
            contrib = vjp(node.grad)
            if parent.grad is None:
                parent.grad = np.zeros(parent.value.shape)
            parent.grad = parent.grad + contrib
