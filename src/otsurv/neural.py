"""Trainable components: genomic SELU encoders, pathology projection,
single-layer self-attention aggregators, and the hazard head.

All forward passes are built from tape ops so one backward sweep yields
exact gradients.  Raw pathology features are constants (frozen backbone);
only the projection on top of them is trainable.
"""

from __future__ import annotations

import base64
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tape, Var
from .bags import GenomicProfile, check_fields, json_type_ok, read_json, read_record, write_json
from .errors import FormatError, ParameterError

# Standard self-normalizing-network constants.
SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805

# Adam's moment decay rates and denominator floor.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

# The attention aggregators' head count; the model width is a multiple of it.
N_HEADS = 4


def param_names(n_encoders: int) -> list[str]:
    """Every parameter name, in the one order that :meth:`ModelParams.tensors`,
    Adam state, gradient dicts and checkpoints share."""
    names = ["proj.w", "proj.b"]
    for j in range(n_encoders):
        names += [f"enc.{j}.{k}" for k in ("w1", "b1", "w2", "b2")]
    for side in ("attn_p", "attn_g"):
        names += [f"{side}.{k}" for k in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")]
    return names + ["hazard.w", "hazard.b"]


def param_shapes(d_in: int, d: int, attr_dims: list[int], n_bins: int
                 ) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in :func:`param_names` order: a weight maps
    its input width (``d_in``, ``d_j``, ``2 d`` or ``d``) to ``d``, or to
    ``n_bins`` in the hazard head; a bias is as wide as its weight's output."""
    fan_in = {"proj.w": d_in, "hazard.w": 2 * d}
    fan_in.update({f"enc.{j}.w1": dj for j, dj in enumerate(attr_dims)})

    def shape(name):
        width = n_bins if name.startswith("hazard.") else d
        if name.rpartition(".")[2].startswith("b"):
            return (width,)
        return (fan_in.get(name, d), width)

    return {name: shape(name) for name in param_names(len(attr_dims))}


@dataclass
class ModelParams:
    """All trainable tensors by name, in :func:`param_names` order; biases are 1-D."""

    arrays: dict[str, np.ndarray]
    n_heads: int
    seed: int

    def tensors(self):
        """The (name, array) pairs; the arrays are the live ones."""
        return self.arrays.items()

    @property
    def dim(self) -> int:
        return self.arrays["proj.w"].shape[1]

    @property
    def n_bins(self) -> int:
        return self.arrays["hazard.w"].shape[1]

    @property
    def n_encoders(self) -> int:
        return sum(1 for n in self.arrays if n.startswith("enc.") and n.endswith(".w1"))


def init_params(d_in: int, d: int, attr_dims: list[int], n_bins: int,
                n_heads: int = N_HEADS, seed: int = 0) -> ModelParams:
    """Seeded init: weights ~ N(0, 1/sqrt(fan_in)), biases zero."""
    if d % n_heads != 0:
        raise ParameterError(f"model dim {d} must be divisible by n_heads {n_heads}")
    rng = np.random.default_rng(seed)
    shapes = param_shapes(d_in, d, attr_dims, n_bins)
    # The weights are drawn in this order, not in name order: every
    # encoder's w1 then w2, then the other weights in name order (the
    # projection, attn_p, attn_g, the hazard head).  Seeded runs depend on it.
    drawn = sorted((name for name, shape in shapes.items() if len(shape) == 2),
                   key=lambda name: not name.startswith("enc."))
    weights = {name: rng.normal(0.0, 1.0 / math.sqrt(shapes[name][0]), size=shapes[name])
               for name in drawn}
    arrays = {name: weights[name] if name in weights else np.zeros(shape)
              for name, shape in shapes.items()}
    return ModelParams(arrays, n_heads=n_heads, seed=seed)


def wrap_params(tape: Tape, params: ModelParams) -> dict[str, Var]:
    """Wrap every tensor as a tape leaf; a 1-D bias broadcasts over rows."""
    return {name: tape.leaf(t) for name, t in params.tensors()}


# ---------------------------------------------------------------------------
# Tape-level forward blocks


def project_t(tape: Tape, pv: dict[str, Var], raw: Var) -> Var:
    """Trainable linear map on top of frozen instance features."""
    return tape.linear(raw, pv["proj.w"], pv["proj.b"])


def encode_genomic_t(tape: Tape, pv: dict[str, Var], profile: GenomicProfile) -> Var:
    """Per-category two-layer net (SELU after the first layer), stacked M_g x d."""
    rows = []
    for j, (_, attrs) in enumerate(profile.categories):
        x = tape.const(attrs[None, :])
        h = tape.selu(tape.linear(x, pv[f"enc.{j}.w1"], pv[f"enc.{j}.b1"]),
                      SELU_ALPHA, SELU_LAMBDA)
        rows.append(tape.linear(h, pv[f"enc.{j}.w2"], pv[f"enc.{j}.b2"]))
    return tape.concat_rows(rows)


def attention_pool_t(tape: Tape, pv: dict[str, Var], side: str, tokens: Var,
                     n_heads: int) -> Var:
    """Multi-head self-attention with a residual, then mean pooling; a
    stack of token sets pools each slice, shape (B, 1, d)."""
    q, k, v = (tape.linear(tokens, pv[f"{side}.w{x}"], pv[f"{side}.b{x}"])
               for x in "qkv")
    heads = tape.attention(q, k, v, n_heads)
    mixed = tape.linear(heads, pv[f"{side}.wo"], pv[f"{side}.bo"])
    return tape.mean_rows(tape.add(tokens, mixed))


def dense_coattention_t(tape: Tape, queries: Var, tokens: Var) -> Var:
    """Single-head softmax co-attention of the queries over the tokens, as
    keys and as values (the dense comparison arm)."""
    return tape.attention(queries, tokens, tokens, 1)


def hazard_t(tape: Tape, pv: dict[str, Var], pooled_p: Var, pooled_g: Var) -> Var:
    """sigmoid(linear(concat)) over the discrete time bins; shape (1, T), or
    (B, 1, T) for a stack of pooled rows."""
    joint = tape.concat_cols([pooled_p, pooled_g])
    return tape.sigmoid(tape.linear(joint, pv["hazard.w"], pv["hazard.b"]))


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m={n: np.zeros_like(t) for n, t in params.tensors()},
                   v={n: np.zeros_like(t) for n, t in params.tensors()})


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState,
              lr: float, weight_decay: float) -> None:
    """One Adam update in place, with betas ``ADAM_BETAS`` and eps
    ``ADAM_EPS``.  ``grads`` needs every tensor's gradient: a missing one
    raises ``KeyError`` before anything is updated.

    Weight decay is the classic L2-in-gradient form.
    """
    b1, b2 = ADAM_BETAS
    updates = [(name, tensor, grads[name]) for name, tensor in params.tensors()]
    state.step += 1
    t = state.step
    for name, tensor, g in updates:
        if weight_decay:
            g = g + weight_decay * tensor
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1**t)
        v_hat = state.v[name] / (1 - b2**t)
        tensor -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def extract_grads(pv: dict[str, Var]) -> dict[str, np.ndarray]:
    """Gradients accumulated on wrapped parameter leaves (zeros if untouched)."""
    return {name: (var.grad if var.grad is not None else np.zeros(var.value.shape))
            for name, var in pv.items()}


def accumulate(total: dict[str, np.ndarray], part: dict[str, np.ndarray]) -> None:
    for name, g in part.items():
        if name in total:
            np.add(total[name], g, out=total[name])
        else:
            total[name] = g.copy()


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass(frozen=True)
class TensorEntry:
    """One tensor of a :class:`Checkpoint`: its ``shape`` and its ``data``,
    the base64 of its little-endian float64 bytes."""

    shape: list
    data: str

    def __post_init__(self):
        check_fields(self, FormatError)


@dataclass(frozen=True)
class Checkpoint:
    """``checkpoint.json``; ``tensors`` maps each name to a :class:`TensorEntry`."""

    seed: int
    step: int
    n_heads: int
    n_encoders: int
    tensors: dict

    LEAST = {"n_heads": 1, "n_encoders": 0}

    def __post_init__(self):
        check_fields(self, FormatError)


def save_checkpoint(params: ModelParams, out_dir, step: int = 0) -> Path:
    """Write ``checkpoint.json``, a :class:`Checkpoint`.

    The file is replaced atomically, so a save that fails leaves the previous
    checkpoint as it was.  Reloads are bit-exact.
    """
    tensors = {name: TensorEntry(list(t.shape),
                                 base64.b64encode(t.astype("<f8").tobytes()).decode())
               for name, t in params.tensors()}
    return write_json(Path(out_dir) / "checkpoint.json", asdict(
        Checkpoint(params.seed, step, params.n_heads, params.n_encoders, tensors)))


def load_checkpoint(ckpt_dir) -> tuple[ModelParams, int]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A file that :func:`~otsurv.bags.read_record` rejects as a :class:`Checkpoint`
    or a tensor entry as a :class:`TensorEntry` (an unknown, missing or
    mistyped key), lacks a tensor of :func:`param_names` or has one more, has
    a tensor whose ``data`` is not base64 of float64 values filling its
    ``shape`` of integers >= 1, has a tensor whose shape breaks
    :func:`param_shapes` (with ``d_in`` and ``d`` read off ``proj.w``, each
    ``d_j`` off ``enc.<j>.w1`` and ``n_bins`` off ``hazard.w``), or has a
    model width the head count does not divide raises :class:`FormatError`
    naming the file.
    """
    path = Path(ckpt_dir) / "checkpoint.json"
    doc = read_json(path, FormatError)
    try:
        header = read_record(Checkpoint, doc, FormatError)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc

    def tensor(name):
        try:
            entry = read_record(TensorEntry, header.tensors[name], FormatError)
            if not all(json_type_ok(k, "int") and k >= 1 for k in entry.shape):
                raise FormatError(f"shape must hold integers >= 1, got {entry.shape}")
            raw = base64.b64decode(entry.data, validate=True)
            return np.frombuffer(raw, "<f8").reshape(entry.shape).copy()
        except FormatError as exc:
            raise FormatError(f"{path}: tensor {name!r}: {exc}") from exc
        except ValueError as exc:  # binascii.Error is a ValueError
            raise FormatError(f"{path}: tensor {name!r}: data is not base64 of float64 "
                              f"values filling shape {entry.shape} ({exc})") from exc

    names = param_names(header.n_encoders)
    if odd := sorted(set(header.tensors) ^ set(names)):
        raise FormatError(f"{path}: a model with {header.n_encoders} encoders "
                          f"{'needs' if odd[0] in names else 'has no'} tensor {odd[0]!r}")
    arrays = {name: tensor(name) for name in names}

    def matrix(name):
        if arrays[name].ndim != 2:
            raise FormatError(f"{path}: tensor {name!r} must be a matrix, got shape "
                              f"{list(arrays[name].shape)}")
        return arrays[name].shape

    (d_in, d), (_, n_bins) = matrix("proj.w"), matrix("hazard.w")
    attr_dims = [matrix(f"enc.{j}.w1")[0] for j in range(header.n_encoders)]
    for name, shape in param_shapes(d_in, d, attr_dims, n_bins).items():
        if arrays[name].shape != shape:
            raise FormatError(f"{path}: tensor {name!r} has shape "
                              f"{list(arrays[name].shape)}, expected {list(shape)}")
    if d % header.n_heads:
        raise FormatError(f"{path}: model width {d} (from 'proj.w') is not divisible "
                          f"by the head count {header.n_heads}")
    return ModelParams(arrays, n_heads=header.n_heads, seed=header.seed), header.step
