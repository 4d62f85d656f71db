"""Differentiable components: forwards against closed forms, gradients
against central finite differences, Adam against its scalar recurrence."""

import json
import math

import numpy as np
import pytest

from otsurv.autodiff import Tape, backward
from otsurv.bags import GenomicProfile, SurvivalRecord
from otsurv import neural
from otsurv.errors import FormatError, ParameterError, ShapeError, StateError
from otsurv.microbatch import OTSettings
from otsurv.neural import (SELU_ALPHA, SELU_LAMBDA, AdamState, adam_step,
                           attention_pool_t, dense_coattention_t,
                           encode_genomic_t, hazard_t, init_params,
                           load_checkpoint, project_t, save_checkpoint,
                           wrap_params)
from otsurv.train import CaseData, case_forward


def tiny_params(d=8, attr_dims=(3, 5), n_bins=4, seed=0):
    return init_params(d, d, list(attr_dims), n_bins, n_heads=4, seed=seed)


def rand_profile(rng, attr_dims=(3, 5)):
    return GenomicProfile([(f"cat{j}", rng.standard_normal(dj))
                           for j, dj in enumerate(attr_dims)], "p")


# Each forward below runs the tape block training uses on a fresh tape.


def encode(profile, params):
    tape = Tape()
    return encode_genomic_t(tape, wrap_params(tape, params), profile).value


def pool(tokens, params, side="attn_p"):
    tape = Tape()
    return attention_pool_t(tape, wrap_params(tape, params), side,
                            tape.const(tokens), params.n_heads).value[0]


def hazards(H_p, H_g, params):
    tape = Tape()
    return hazard_t(tape, wrap_params(tape, params), tape.const(np.atleast_2d(H_p)),
                    tape.const(np.atleast_2d(H_g))).value[0]


# ---------------------------------------------------------------------------
# Forward closed forms


def test_encoder_zero_params_gives_zero_bag():
    params = tiny_params()
    for enc in params.encoders:
        enc.w1[:] = 0
        enc.w2[:] = 0
    rng = np.random.default_rng(0)
    out = encode(rand_profile(rng), params)
    assert np.all(out == 0.0)
    assert out.shape == (2, 8)


def test_encoder_identity_selu_scaling():
    # identity first layer, identity second layer, positive inputs:
    # output = lambda * x because SELU is lambda*x on the positive branch
    params = init_params(3, 3, [3], 4, n_heads=3, seed=0)
    enc = params.encoders[0]
    enc.w1[:] = np.eye(3)
    enc.b1[:] = 0
    enc.w2[:] = np.eye(3)
    enc.b2[:] = 0
    x = np.array([0.5, 1.0, 2.0])
    out = encode(GenomicProfile([("c", x)], "p"), params)
    assert np.allclose(out[0], SELU_LAMBDA * x, atol=1e-12)


def test_encoder_matches_manual_forward():
    rng = np.random.default_rng(1)
    params = tiny_params(seed=3)
    profile = rand_profile(rng)
    out = encode(profile, params)
    for j, (_, attrs) in enumerate(profile.categories):
        enc = params.encoders[j]
        pre = attrs @ enc.w1 + enc.b1
        hidden = SELU_LAMBDA * np.where(pre > 0, pre, SELU_ALPHA * (np.exp(pre) - 1))
        want = hidden @ enc.w2 + enc.b2
        assert np.allclose(out[j], want, atol=1e-10)


def test_encoder_dim_mismatch():
    params = tiny_params()
    rng = np.random.default_rng(2)
    bad = GenomicProfile([("a", rng.standard_normal(4)),
                          ("b", rng.standard_normal(5))], "p")
    with pytest.raises(ShapeError):
        encode(bad, params)


def test_aggregate_single_token_closed_form():
    # one token: softmax over a single logit is 1, so attention returns the
    # value row and the output is token + (value @ wo + bo), mean-pooled
    params = tiny_params(seed=4)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 8))
    pooled = pool(x, params, "attn_p")
    attn = params.attn_p
    v = x @ attn.wv + attn.bv
    want = (x + (v @ attn.wo + attn.bo))[0]
    assert np.allclose(pooled, want, atol=1e-12)


def test_aggregate_duplicated_rows_match_single():
    params = tiny_params(seed=5)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 8))
    single = pool(x, params, "attn_p")
    triple = pool(np.repeat(x, 3, axis=0), params, "attn_p")
    assert np.allclose(single, triple, atol=1e-12)


def test_aggregate_permutation_invariant():
    params = tiny_params(seed=6)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 8))
    base = pool(x, params, "attn_p")
    perm = pool(x[rng.permutation(7)], params, "attn_p")
    assert np.allclose(base, perm, atol=1e-12)


def test_aggregate_empty_bag_rejected():
    # an empty pathology bag is rejected before it reaches the aggregator
    params = tiny_params()
    case = CaseData("t", np.zeros((0, 8)), rand_profile(np.random.default_rng(7)),
                    SurvivalRecord(5.0, 0, bin=1))
    with pytest.raises(ParameterError):
        case_forward(params, case, 4, OTSettings(), "umbot", 0)


def test_hazard_zero_params_is_half():
    params = tiny_params()
    params.hazard_w[:] = 0
    params.hazard_b[:] = 0
    h = hazards(np.ones(8), np.ones(8), params)
    assert np.allclose(h, 0.5)


def test_hazard_saturates_with_large_bias():
    params = tiny_params()
    params.hazard_w[:] = 0
    params.hazard_b[:] = 50.0
    h = hazards(np.zeros(8), np.zeros(8), params)
    assert np.all(h > 1 - 1e-9)


def test_hazard_matches_manual():
    params = tiny_params(seed=7)
    rng = np.random.default_rng(6)
    hp, hg = rng.standard_normal(8), rng.standard_normal(8)
    h = hazards(hp, hg, params)
    logits = np.concatenate([hp, hg]) @ params.hazard_w + params.hazard_b
    assert np.allclose(h, 1 / (1 + np.exp(-logits)), atol=1e-12)


def test_init_params_deterministic_and_counted():
    p1 = tiny_params(seed=11)
    p2 = tiny_params(seed=11)
    for (n1, t1), (n2, t2) in zip(p1.tensors(), p2.tensors()):
        assert n1 == n2
        assert np.array_equal(t1, t2)
    # projection, two encoders (3 and 5 attributes), two attention blocks
    # of four d x d maps with biases, hazard head over 2d -> 4 bins
    d = 8
    n_expected = (d * d + d + sum(dj * d + d + d * d + d for dj in (3, 5))
                  + 2 * 4 * (d * d + d) + 2 * d * 4 + 4)
    assert sum(t.size for _, t in p1.tensors()) == n_expected


def test_init_rejects_indivisible_heads():
    with pytest.raises(ParameterError):
        init_params(6, 6, [3], 4, n_heads=4, seed=0)


# ---------------------------------------------------------------------------
# Gradients: every layer type against central finite differences


def total(tape, x):
    """Scalar sum of every entry of x, built from ops the model uses."""
    rows = tape.matmul(tape.const(np.ones((1, x.shape[0]))), x)
    return tape.pick(tape.matmul(rows, tape.const(np.ones((x.shape[1], 1)))), 0, 0)


def _grad_check_layer(build_loss, params, names, n_coords=20, seed=0, h_rel=1e-4):
    """Analytic gradient of build_loss vs central differences, per tensor."""
    tape = Tape()
    pv = wrap_params(tape, params)
    loss = build_loss(tape, pv)
    backward(tape, loss)
    rng = np.random.default_rng(seed)
    arrays = dict(params.tensors())
    worst = 0.0
    for name in names:
        grad = pv[name].grad
        assert grad is not None, f"no gradient reached {name}"
        arr = arrays[name]
        for _ in range(n_coords):
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            h = h_rel * max(1.0, abs(float(arr[idx])))
            arr[idx] += h
            tp = Tape()
            fp = float(build_loss(tp, wrap_params(tp, params)).value)
            arr[idx] -= 2 * h
            tm = Tape()
            fm = float(build_loss(tm, wrap_params(tm, params)).value)
            arr[idx] += h
            fd = (fp - fm) / (2 * h)
            ga = float(grad.reshape(arr.shape)[idx])
            rel = abs(fd - ga) / max(abs(fd), abs(ga), 1e-8)
            worst = max(worst, rel)
    return worst


def test_gradcheck_encoder():
    rng = np.random.default_rng(10)
    params = tiny_params(seed=20)
    profile = rand_profile(rng)
    target = rng.standard_normal((2, 8))

    def loss(tape, pv):
        out = encode_genomic_t(tape, pv, profile)
        diff = tape.add(out, tape.const(-target))
        return total(tape, tape.mul(diff, diff))

    names = [f"enc.{j}.{k}" for j in range(2) for k in ("w1", "b1", "w2", "b2")]
    assert _grad_check_layer(loss, params, names) <= 1e-5


def test_gradcheck_attention_pool():
    rng = np.random.default_rng(11)
    params = tiny_params(seed=21)
    tokens = rng.standard_normal((5, 8))

    def loss(tape, pv):
        pooled = attention_pool_t(tape, pv, "attn_p", tape.const(tokens), 4)
        return total(tape, tape.mul(pooled, pooled))

    names = [f"attn_p.{k}" for k in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")]
    assert _grad_check_layer(loss, params, names) <= 1e-5


def test_gradcheck_projection_and_hazard():
    rng = np.random.default_rng(12)
    params = tiny_params(seed=22)
    raw = rng.standard_normal((6, 8))
    hg = rng.standard_normal((1, 8))

    def loss(tape, pv):
        proj = project_t(tape, pv, tape.const(raw))
        pooled = tape.mean_rows(proj)
        h = hazard_t(tape, pv, pooled, tape.const(hg))
        return total(tape, tape.log(h))

    names = ["proj.w", "proj.b", "hazard.w", "hazard.b"]
    assert _grad_check_layer(loss, params, names) <= 1e-5


def test_gradcheck_dense_coattention():
    rng = np.random.default_rng(13)
    params = tiny_params(seed=23)
    keys = rng.standard_normal((6, 8))

    def loss(tape, pv):
        q = encode_genomic_t(tape, pv, rand_profile(np.random.default_rng(9)))
        kv = tape.const(keys)
        out = dense_coattention_t(tape, q, kv, kv, math.sqrt(8))
        return total(tape, tape.mul(out, out))

    names = ["enc.0.w1", "enc.1.w2"]
    assert _grad_check_layer(loss, params, names) <= 1e-5


def test_single_linear_sigmoid_nll_matches_hand_gradient():
    # one feature row x, one weight column w: loss = -log(sigmoid(x @ w));
    # d loss / d w = -(1 - sigmoid(x @ w)) * x
    rng = np.random.default_rng(14)
    x = rng.standard_normal((1, 4))
    w = rng.standard_normal((4, 1))
    tape = Tape()
    wv = tape.leaf(w)
    s = tape.sigmoid(tape.matmul(tape.const(x), wv))
    loss = tape.scale(tape.log(tape.pick(s, 0, 0)), -1.0)
    backward(tape, loss)
    s_val = 1 / (1 + np.exp(-(x @ w)))[0, 0]
    want = -(1 - s_val) * x[0]
    assert np.allclose(wv.grad.ravel(), want, rtol=1e-12)


def test_backward_twice_is_state_error():
    tape = Tape()
    x = tape.leaf(np.ones(()))
    y = tape.mul(x, x)
    backward(tape, y)
    with pytest.raises(StateError):
        backward(tape, y)


def test_backward_requires_scalar_root():
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    y = tape.mul(x, x)
    with pytest.raises(ShapeError):
        backward(tape, y)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_fixed_point():
    params = tiny_params(seed=30)
    before = {n: t.copy() for n, t in params.tensors()}
    state = AdamState.for_params(params)
    grads = {n: np.zeros_like(t) for n, t in params.tensors()}
    adam_step(params, grads, state, lr=1e-3, weight_decay=0.0)
    for n, t in params.tensors():
        assert np.array_equal(t, before[n])
        assert np.all(state.m[n] == 0) and np.all(state.v[n] == 0)


def test_adam_first_step_closed_form():
    params = tiny_params(seed=31)
    state = AdamState.for_params(params)
    rng = np.random.default_rng(15)
    grads = {n: rng.standard_normal(t.shape) for n, t in params.tensors()}
    before = {n: t.copy() for n, t in params.tensors()}
    lr = 1e-3
    adam_step(params, grads, state, lr=lr, weight_decay=0.0)
    for n, t in params.tensors():
        g = grads[n]
        want = before[n] - lr * g / (np.abs(g) + 1e-8)
        assert np.allclose(t, want, atol=1e-9)


def test_adam_constant_gradient_approaches_sign_step():
    # scalar recurrence oracle: after warmup with constant g, the update is
    # lr * g / (|g| sqrt-corrected) -> lr * sign(g)
    params = init_params(4, 4, [2], 2, n_heads=2, seed=32)
    state = AdamState.for_params(params)
    g = {n: np.full_like(t, 0.37) for n, t in params.tensors()}
    lr = 1e-3
    prev = None
    for _ in range(300):
        prev = {n: t.copy() for n, t in params.tensors()}
        adam_step(params, g, state, lr=lr, weight_decay=0.0)
    for n, t in params.tensors():
        step = prev[n] - t
        assert np.allclose(step, lr, rtol=1e-3)


def test_adam_weight_decay_pulls_toward_zero():
    params = tiny_params(seed=33)
    state = AdamState.for_params(params)
    grads = {n: np.zeros_like(t) for n, t in params.tensors()}
    norm_before = sum(float(np.sum(t * t)) for _, t in params.tensors())
    for _ in range(10):
        adam_step(params, grads, state, lr=1e-3, weight_decay=1e-2)
    norm_after = sum(float(np.sum(t * t)) for _, t in params.tensors())
    assert norm_after < norm_before


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_bit_exact_roundtrip(tmp_path):
    params = tiny_params(seed=40)
    save_checkpoint(params, tmp_path, step=17)
    loaded, step = load_checkpoint(tmp_path)
    assert step == 17
    assert loaded.n_heads == params.n_heads
    for (n1, t1), (n2, t2) in zip(params.tensors(), loaded.tensors()):
        assert n1 == n2
        assert np.array_equal(t1, t2)
        assert t1.shape == t2.shape


def _edit_manifest(ckpt_dir, edit):
    path = ckpt_dir / "checkpoint.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_checkpoint_invalid_json_is_format_error(tmp_path):
    save_checkpoint(tiny_params(seed=41), tmp_path)
    path = tmp_path / "checkpoint.json"
    path.write_text(path.read_text(encoding="utf-8")[:-20], encoding="utf-8")
    with pytest.raises(FormatError, match="checkpoint.json"):
        load_checkpoint(tmp_path)


def test_checkpoint_missing_tensor_entry_is_format_error(tmp_path):
    save_checkpoint(tiny_params(seed=42), tmp_path)
    _edit_manifest(tmp_path, lambda doc: doc["tensors"].pop("hazard.w"))
    with pytest.raises(FormatError, match="checkpoint.json.*hazard.w"):
        load_checkpoint(tmp_path)


def test_checkpoint_shape_not_matching_blob_is_format_error(tmp_path):
    save_checkpoint(tiny_params(seed=43), tmp_path)

    def widen(doc):
        doc["tensors"]["proj.w"]["shape"][0] += 1
    _edit_manifest(tmp_path, widen)
    with pytest.raises(FormatError, match="checkpoint.json.*proj.w"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(step="x"),
    lambda doc: doc.update(n_heads="four"),
    lambda doc: doc.update(seed=1.5),
    lambda doc: doc.update(tensors=[]),
    lambda doc: doc["tensors"]["proj.b"].update(shape=8),
    lambda doc: doc["tensors"]["proj.b"].update(file="gone.bin"),
], ids=["step", "n_heads", "seed", "tensors", "shape", "blob"])
def test_checkpoint_malformed_manifest_is_format_error(tmp_path, edit):
    save_checkpoint(tiny_params(seed=44), tmp_path)
    _edit_manifest(tmp_path, edit)
    with pytest.raises(FormatError, match="checkpoint.json"):
        load_checkpoint(tmp_path)


def test_checkpoint_manifest_not_an_object_is_format_error(tmp_path):
    save_checkpoint(tiny_params(seed=45), tmp_path)
    (tmp_path / "checkpoint.json").write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(FormatError, match="checkpoint.json"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("fail_at", ["third blob", "manifest"])
def test_failed_checkpoint_save_keeps_previous_checkpoint(tmp_path, monkeypatch,
                                                          fail_at):
    old = tiny_params(seed=1)
    save_checkpoint(old, tmp_path, step=1)
    files = sorted(tmp_path.rglob("*"))
    calls = []

    def failing(real):
        def wrapped(*args, **kwargs):
            calls.append(1)
            if fail_at == "manifest" or len(calls) == 3:
                raise OSError(28, "No space left on device")
            return real(*args, **kwargs)
        return wrapped

    if fail_at == "manifest":
        monkeypatch.setattr(neural.json, "dump", failing(json.dump))
    else:
        monkeypatch.setattr(neural, "tensor64_bytes", failing(neural.tensor64_bytes))
    new = tiny_params(seed=2)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(new, tmp_path, step=2)
    monkeypatch.undo()

    assert sorted(tmp_path.rglob("*")) == files
    loaded, step = load_checkpoint(tmp_path)
    assert (step, loaded.seed) == (1, 1)
    for (_, t_old), (_, t_loaded) in zip(old.tensors(), loaded.tensors()):
        assert t_old.tobytes() == t_loaded.tobytes()

    # The next save succeeds and leaves only the blobs its manifest names.
    save_checkpoint(new, tmp_path, step=2)
    loaded, step = load_checkpoint(tmp_path)
    assert (step, loaded.seed) == (2, 2)
    for (_, t_new), (_, t_loaded) in zip(new.tensors(), loaded.tensors()):
        assert t_new.tobytes() == t_loaded.tobytes()
    named = {e["file"] for e in json.loads(
        (tmp_path / "checkpoint.json").read_text(encoding="utf-8"))["tensors"].values()}
    assert {p.name for p in (tmp_path / "tensors").iterdir()} == named
