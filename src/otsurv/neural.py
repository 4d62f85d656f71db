"""Trainable components: genomic SELU encoders, pathology projection,
single-layer self-attention aggregators, and the hazard head.

All forward passes are built from tape ops so one backward sweep yields
exact gradients.  Raw pathology features are constants (frozen backbone);
only the projection on top of them is trainable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tape, Var
from .bags import GenomicProfile, atomic_writer, load_tensor64, tensor64_bytes
from .errors import FormatError, ParameterError

# Standard self-normalizing-network constants.
SELU_ALPHA = 1.6732632423543772
SELU_LAMBDA = 1.0507009873554805


@dataclass
class EncoderParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class AttentionParams:
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray


@dataclass
class ModelParams:
    """All trainable tensors, with deterministic naming for optimizer state."""

    proj_w: np.ndarray
    proj_b: np.ndarray
    encoders: list[EncoderParams]
    attn_p: AttentionParams
    attn_g: AttentionParams
    hazard_w: np.ndarray
    hazard_b: np.ndarray
    n_heads: int = 4
    seed: int = field(default=0)

    def tensors(self):
        """Yield (name, array) in a fixed order."""
        yield "proj.w", self.proj_w
        yield "proj.b", self.proj_b
        for j, enc in enumerate(self.encoders):
            yield f"enc.{j}.w1", enc.w1
            yield f"enc.{j}.b1", enc.b1
            yield f"enc.{j}.w2", enc.w2
            yield f"enc.{j}.b2", enc.b2
        for side, attn in (("attn_p", self.attn_p), ("attn_g", self.attn_g)):
            for key in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"):
                yield f"{side}.{key}", getattr(attn, key)
        yield "hazard.w", self.hazard_w
        yield "hazard.b", self.hazard_b

    @property
    def dim(self) -> int:
        return self.proj_w.shape[1]

    @property
    def n_bins(self) -> int:
        return self.hazard_w.shape[1]


def init_params(d_in: int, d: int, attr_dims: list[int], n_bins: int,
                n_heads: int = 4, seed: int = 0) -> ModelParams:
    """Seeded init: weights ~ N(0, 1/sqrt(fan_in)), biases zero."""
    if d % n_heads != 0:
        raise ParameterError(f"model dim {d} must be divisible by n_heads {n_heads}")
    rng = np.random.default_rng(seed)

    def linear(fan_in, fan_out):
        return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))

    def attention():
        return AttentionParams(
            wq=linear(d, d), bq=np.zeros(d), wk=linear(d, d), bk=np.zeros(d),
            wv=linear(d, d), bv=np.zeros(d), wo=linear(d, d), bo=np.zeros(d),
        )

    encoders = [EncoderParams(w1=linear(dj, d), b1=np.zeros(d),
                              w2=linear(d, d), b2=np.zeros(d))
                for dj in attr_dims]
    return ModelParams(
        proj_w=linear(d_in, d), proj_b=np.zeros(d),
        encoders=encoders,
        attn_p=attention(), attn_g=attention(),
        hazard_w=linear(2 * d, n_bins), hazard_b=np.zeros(n_bins),
        n_heads=n_heads, seed=seed,
    )


def wrap_params(tape: Tape, params: ModelParams) -> dict[str, Var]:
    """Wrap every tensor as a tape leaf; biases become (1, k) rows."""
    return {name: tape.leaf(np.atleast_2d(t)) for name, t in params.tensors()}


# ---------------------------------------------------------------------------
# Tape-level forward blocks


def project_t(tape: Tape, pv: dict[str, Var], raw: Var) -> Var:
    """Trainable linear map on top of frozen instance features."""
    return tape.add(tape.matmul(raw, pv["proj.w"]), pv["proj.b"])


def encode_genomic_t(tape: Tape, pv: dict[str, Var], profile: GenomicProfile) -> Var:
    """Per-category two-layer net (SELU after the first layer), stacked M_g x d."""
    rows = []
    for j, (_, attrs) in enumerate(profile.categories):
        x = tape.const(attrs[None, :])
        h = tape.selu(tape.add(tape.matmul(x, pv[f"enc.{j}.w1"]), pv[f"enc.{j}.b1"]),
                      SELU_ALPHA, SELU_LAMBDA)
        rows.append(tape.add(tape.matmul(h, pv[f"enc.{j}.w2"]), pv[f"enc.{j}.b2"]))
    return tape.concat_rows(rows)


def attention_pool_t(tape: Tape, pv: dict[str, Var], side: str, tokens: Var,
                     n_heads: int) -> Var:
    """Multi-head self-attention with a residual, then mean pooling."""
    d = tokens.value.shape[1]
    dh = d // n_heads
    q = tape.add(tape.matmul(tokens, pv[f"{side}.wq"]), pv[f"{side}.bq"])
    k = tape.add(tape.matmul(tokens, pv[f"{side}.wk"]), pv[f"{side}.bk"])
    v = tape.add(tape.matmul(tokens, pv[f"{side}.wv"]), pv[f"{side}.bv"])
    heads = []
    for h in range(n_heads):
        qh = tape.col_slice(q, h * dh, (h + 1) * dh)
        kh = tape.col_slice(k, h * dh, (h + 1) * dh)
        vh = tape.col_slice(v, h * dh, (h + 1) * dh)
        logits = tape.scale(tape.matmul(qh, tape.transpose(kh)), 1.0 / math.sqrt(dh))
        heads.append(tape.matmul(tape.softmax_rows(logits), vh))
    mixed = tape.add(tape.matmul(tape.concat_cols(heads), pv[f"{side}.wo"]),
                     pv[f"{side}.bo"])
    return tape.mean_rows(tape.add(tokens, mixed))


def dense_coattention_t(tape: Tape, queries: Var, keys: Var, values: Var,
                        scale: float) -> Var:
    """Differentiable softmax co-attention (the dense comparison arm)."""
    if scale <= 0:
        raise ParameterError(f"scale must be > 0, got {scale}")
    logits = tape.scale(tape.matmul(queries, tape.transpose(keys)), 1.0 / scale)
    return tape.matmul(tape.softmax_rows(logits), values)


def hazard_t(tape: Tape, pv: dict[str, Var], pooled_p: Var, pooled_g: Var) -> Var:
    """sigmoid(linear(concat)) over the discrete time bins; shape (1, T)."""
    joint = tape.concat_cols([pooled_p, pooled_g])
    return tape.sigmoid(tape.add(tape.matmul(joint, pv["hazard.w"]), pv["hazard.b"]))


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
              lr: float = 2e-4, betas: tuple[float, float] = (0.9, 0.999),
              eps: float = 1e-8, weight_decay: float = 1e-5) -> None:
    """One Adam update in place; missing grads are treated as zero updates.

    Weight decay is the classic L2-in-gradient form.
    """
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, tensor in params.tensors():
        if name not in grads:
            continue
        g = grads[name].reshape(tensor.shape)
        if weight_decay:
            g = g + weight_decay * tensor
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1**t)
        v_hat = state.v[name] / (1 - b2**t)
        tensor -= lr * m_hat / (np.sqrt(v_hat) + eps)


def extract_grads(pv: dict[str, Var]) -> dict[str, np.ndarray]:
    """Gradients accumulated on wrapped parameter leaves (zeros if untouched)."""
    return {name: (var.grad if var.grad is not None else np.zeros(var.value.shape))
            for name, var in pv.items()}


def accumulate(total: dict[str, np.ndarray], part: dict[str, np.ndarray]) -> None:
    for name, g in part.items():
        if name in total:
            total[name] = total[name] + g
        else:
            total[name] = g.copy()


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(params: ModelParams, out_dir, step: int = 0) -> Path:
    """JSON manifest plus one 64-bit tensor blob per parameter; bit-exact.

    A save replaces the checkpoint as one unit.  Each blob is named after a
    digest of its bytes and written atomically, so no blob the current
    manifest names is ever changed; the manifest is then replaced atomically,
    and only after that are blobs it no longer names deleted.  A save that
    fails removes the blobs it added and leaves the previous checkpoint
    loadable as it was.
    """
    out = Path(out_dir)
    blob_dir = out / "tensors"
    blob_dir.mkdir(parents=True, exist_ok=True)
    present = {p.name for p in blob_dir.iterdir()}
    entries, added = {}, []
    path = out / "checkpoint.json"
    try:
        for name, tensor in params.tensors():
            data = tensor64_bytes(tensor)
            fname = f"{name.replace('.', '_')}.{hashlib.sha256(data).hexdigest()[:16]}.bin"
            if fname not in present:
                with atomic_writer(blob_dir / fname, "wb") as fh:
                    fh.write(data)
                added.append(fname)
            entries[name] = {"file": fname, "shape": list(tensor.shape)}
        doc = {
            "seed": params.seed,
            "step": step,
            "n_heads": params.n_heads,
            "n_encoders": len(params.encoders),
            "tensors": entries,
        }
        with atomic_writer(path) as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    except BaseException:
        for fname in added:
            (blob_dir / fname).unlink(missing_ok=True)
        raise
    named = {e["file"] for e in entries.values()}
    for fname in present - named:
        (blob_dir / fname).unlink(missing_ok=True)
    return path


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_checkpoint(ckpt_dir) -> tuple[ModelParams, int]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A manifest that is not a JSON object with integer ``seed``, ``step``,
    ``n_heads`` and ``n_encoders``, lacks a tensor entry, names a blob that
    cannot be read, or gives a tensor a shape its blob cannot take raises
    :class:`FormatError` naming the manifest.
    """
    out = Path(ckpt_dir)
    path = out / "checkpoint.json"
    if not path.exists():
        raise FormatError(f"no checkpoint manifest at {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    for key in ("seed", "step", "n_heads", "n_encoders"):
        if not _is_int(doc.get(key)):
            raise FormatError(f"{path}: {key!r} must be an integer, got {doc.get(key)!r}")
    entries = doc.get("tensors")
    if not isinstance(entries, dict):
        raise FormatError(f"{path}: 'tensors' must be a JSON object")

    def tensor(name):
        entry = entries.get(name)
        if not (isinstance(entry, dict) and isinstance(entry.get("file"), str)
                and isinstance(entry.get("shape"), list)
                and all(_is_int(k) for k in entry["shape"])):
            raise FormatError(f"{path}: tensor {name!r} needs an entry with a "
                              f"'file' name and an integer 'shape' list")
        try:
            arr = load_tensor64(out / "tensors" / entry["file"])
        except OSError as exc:
            raise FormatError(f"{path}: cannot read the blob of tensor {name!r} "
                              f"({exc})") from exc
        try:
            return arr.reshape(entry["shape"])
        except ValueError as exc:
            raise FormatError(f"{path}: tensor {name!r} has {arr.size} values in its "
                              f"blob, which do not fit shape {entry['shape']}") from exc

    encoders = [EncoderParams(tensor(f"enc.{j}.w1"), tensor(f"enc.{j}.b1"),
                              tensor(f"enc.{j}.w2"), tensor(f"enc.{j}.b2"))
                for j in range(doc["n_encoders"])]
    attn = {side: AttentionParams(*[tensor(f"{side}.{k}")
                                    for k in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")])
            for side in ("attn_p", "attn_g")}
    params = ModelParams(
        proj_w=tensor("proj.w"), proj_b=tensor("proj.b"),
        encoders=encoders, attn_p=attn["attn_p"], attn_g=attn["attn_g"],
        hazard_w=tensor("hazard.w"), hazard_b=tensor("hazard.b"),
        n_heads=doc["n_heads"], seed=doc["seed"],
    )
    return params, doc["step"]
