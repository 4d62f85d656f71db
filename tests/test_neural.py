"""Differentiable components: forwards against closed forms, gradients
against central finite differences, Adam against its scalar recurrence."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failing_writes import FailingWrites
from oracles import central_difference_grad, per_head_attention
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
    for j in range(2):
        params.arrays[f"enc.{j}.w1"][:] = 0
        params.arrays[f"enc.{j}.w2"][:] = 0
    rng = np.random.default_rng(0)
    out = encode(rand_profile(rng), params)
    assert np.all(out == 0.0)
    assert out.shape == (2, 8)


def test_encoder_identity_selu_scaling():
    # identity first layer, identity second layer, positive inputs:
    # output = lambda * x because SELU is lambda*x on the positive branch
    params = init_params(3, 3, [3], 4, n_heads=3, seed=0)
    for key in ("w1", "w2"):
        params.arrays[f"enc.0.{key}"][:] = np.eye(3)
    x = np.array([0.5, 1.0, 2.0])
    out = encode(GenomicProfile([("c", x)], "p"), params)
    assert np.allclose(out[0], SELU_LAMBDA * x, atol=1e-12)


def test_encoder_matches_manual_forward():
    rng = np.random.default_rng(1)
    params = tiny_params(seed=3)
    profile = rand_profile(rng)
    out = encode(profile, params)
    for j, (_, attrs) in enumerate(profile.categories):
        w1, b1, w2, b2 = (params.arrays[f"enc.{j}.{k}"] for k in ("w1", "b1", "w2", "b2"))
        pre = attrs @ w1 + b1
        hidden = SELU_LAMBDA * np.where(pre > 0, pre, SELU_ALPHA * (np.exp(pre) - 1))
        want = hidden @ w2 + b2
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
    attn = params.arrays
    v = x @ attn["attn_p.wv"] + attn["attn_p.bv"]
    want = (x + (v @ attn["attn_p.wo"] + attn["attn_p.bo"]))[0]
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
    params.arrays["hazard.w"][:] = 0
    params.arrays["hazard.b"][:] = 0
    h = hazards(np.ones(8), np.ones(8), params)
    assert np.allclose(h, 0.5)


def test_hazard_saturates_with_large_bias():
    params = tiny_params()
    params.arrays["hazard.w"][:] = 0
    params.arrays["hazard.b"][:] = 50.0
    h = hazards(np.zeros(8), np.zeros(8), params)
    assert np.all(h > 1 - 1e-9)


def test_hazard_matches_manual():
    params = tiny_params(seed=7)
    rng = np.random.default_rng(6)
    hp, hg = rng.standard_normal(8), rng.standard_normal(8)
    h = hazards(hp, hg, params)
    arrays = params.arrays
    logits = np.concatenate([hp, hg]) @ arrays["hazard.w"] + arrays["hazard.b"]
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


def test_param_layout_is_written_once(tmp_path):
    params = tiny_params(seed=12)
    names = neural.param_names(2)
    assert [n for n, _ in params.tensors()] == names
    assert params.n_encoders == 2 and params.dim == 8 and params.n_bins == 4
    save_checkpoint(params, tmp_path)
    doc = json.loads((tmp_path / "checkpoint.json").read_text(encoding="utf-8"))
    assert sorted(doc["tensors"]) == sorted(names)
    assert doc["n_encoders"] == 2
    assert [n for n, _ in load_checkpoint(tmp_path)[0].tensors()] == names


def test_init_params_draw_order():
    # The draws run encoder by encoder (w1, w2), then the projection, the
    # four maps of attn_p and of attn_g, then the hazard head.
    d_in, d, attr_dims, n_bins = 6, 8, [3, 5], 4
    rng = np.random.default_rng(13)

    def draw(fan_in, fan_out):
        return rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))

    want = {}
    for j, dj in enumerate(attr_dims):
        want[f"enc.{j}.w1"] = draw(dj, d)
        want[f"enc.{j}.w2"] = draw(d, d)
    want["proj.w"] = draw(d_in, d)
    for side in ("attn_p", "attn_g"):
        for x in "qkvo":
            want[f"{side}.w{x}"] = draw(d, d)
    want["hazard.w"] = draw(2 * d, n_bins)
    params = init_params(d_in, d, attr_dims, n_bins, n_heads=4, seed=13)
    for name, arr in params.tensors():
        if name in want:
            assert arr.tobytes() == want[name].tobytes(), name
        else:
            assert arr.shape == (n_bins if name == "hazard.b" else d,), name
            assert not arr.any(), name


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
        out = dense_coattention_t(tape, q, kv)
        return total(tape, tape.mul(out, out))

    names = ["enc.0.w1", "enc.1.w2"]
    assert _grad_check_layer(loss, params, names) <= 1e-5


def _gradcheck_op(op, arrays, n_coords=15, seed=0):
    """Worst relative error of the tape gradients of sum(op(...)**2) with
    respect to each array against central differences."""
    def loss(tape, inputs):
        out = op(tape, *inputs)
        return total(tape, tape.mul(out, out))

    def loss_at():
        tape = Tape()
        return float(loss(tape, [tape.const(a) for a in arrays.values()]).value)

    tape = Tape()
    leaves = [tape.leaf(a.copy()) for a in arrays.values()]
    backward(tape, loss(tape, leaves))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, leaf in zip(arrays, leaves):
        for _ in range(n_coords):
            idx = tuple(rng.integers(0, s) for s in arrays[name].shape)
            fd = central_difference_grad(loss_at, arrays, name, idx)
            ga = float(leaf.grad[idx])
            worst = max(worst, abs(fd - ga) / max(abs(fd), abs(ga), 1e-8))
    return worst


def test_gradcheck_linear():
    rng = np.random.default_rng(16)
    arrays = {"x": rng.standard_normal((5, 8)), "w": rng.standard_normal((8, 3)),
              "b": rng.standard_normal((1, 3))}
    assert _gradcheck_op(Tape.linear, arrays) <= 1e-6


@pytest.mark.parametrize("n_heads", [1, 2])
def test_gradcheck_attention(n_heads):
    rng = np.random.default_rng(17)
    arrays = {"q": rng.standard_normal((3, 8)), "k": rng.standard_normal((5, 8)),
              "v": rng.standard_normal((5, 8))}

    def op(tape, q, k, v):
        return tape.attention(q, k, v, n_heads)

    assert _gradcheck_op(op, arrays) <= 1e-6


def _gradcheck_stacked(op, arrays, n_coords=10, seed=0):
    """Worst relative error of the tape gradients of sum(c * op(...)), for a
    fixed random c, against central differences.  The tape has no reduction
    over a stack's slices, so the scalar node is emitted here; backward adds
    its stacked gradients into the unstacked operands."""
    shape = op(Tape(), *(Tape().const(a) for a in arrays.values())).shape
    c = np.random.default_rng(seed + 1).standard_normal(shape)

    def loss(tape, inputs):
        out = op(tape, *inputs)
        return tape._emit(np.sum(out.value * c), (out,), lambda g: (g * c,))

    def loss_at():
        tape = Tape()
        return float(loss(tape, [tape.const(a) for a in arrays.values()]).value)

    tape = Tape()
    leaves = [tape.leaf(a.copy()) for a in arrays.values()]
    backward(tape, loss(tape, leaves))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, leaf in zip(arrays, leaves):
        assert leaf.grad.shape == arrays[name].shape
        for _ in range(n_coords):
            idx = tuple(rng.integers(0, s) for s in arrays[name].shape)
            fd = central_difference_grad(loss_at, arrays, name, idx)
            ga = float(leaf.grad[idx])
            worst = max(worst, abs(fd - ga) / max(abs(fd), abs(ga), 1e-8))
    return worst


STACKED_OPS = {
    # name: (op, operand shapes); B = 3 slices, unstacked operands broadcast
    "linear": (Tape.linear, [(3, 5, 8), (8, 4), (4,)]),
    "linear_row_bias": (Tape.linear, [(3, 5, 8), (8, 4), (1, 4)]),
    "matmul": (Tape.matmul, [(3, 4, 5), (3, 5, 6)]),
    "matmul_unstacked_left": (Tape.matmul, [(4, 5), (3, 5, 6)]),
    "attention": (lambda tape, q, k, v: tape.attention(q, k, v, 2),
                  [(3, 4, 8), (3, 5, 8), (3, 5, 8)]),
    "attention_unstacked_query": (lambda tape, q, k, v: tape.attention(q, k, v, 2),
                                  [(4, 8), (3, 5, 8), (3, 5, 8)]),
    "add": (Tape.add, [(3, 4, 5), (3, 4, 5)]),
    "mean_rows": (Tape.mean_rows, [(3, 4, 5)]),
    "concat_cols": (lambda tape, a, b: tape.concat_cols([a, b]), [(3, 1, 4), (1, 3)]),
    "sigmoid": (Tape.sigmoid, [(3, 2, 5)]),
}


@pytest.mark.parametrize("name", sorted(STACKED_OPS))
def test_gradcheck_stacked_op(name):
    op, shapes = STACKED_OPS[name]
    rng = np.random.default_rng(18)
    arrays = {f"x{i}": rng.standard_normal(shape) for i, shape in enumerate(shapes)}
    assert _gradcheck_stacked(op, arrays) <= 1e-6


# ---------------------------------------------------------------------------
# Fused ops: bitwise equal to the chains of single ops they replace


TOKENS = [6, 48, 104, 128]


@given(st.sampled_from([1, 2, 4]), st.sampled_from(TOKENS), st.sampled_from(TOKENS),
       st.sampled_from([0.1, 1.0, 10.0]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_attention_bitwise_equals_per_head_oracle(n_heads, n_q, n_k, spread, seed):
    rng = np.random.default_rng(seed)
    q, k, v, g = (spread * rng.standard_normal((n, 64)) for n in (n_q, n_k, n_k, n_q))
    scale = 1.0 / math.sqrt(64 // n_heads)
    tape = Tape()
    out = tape.attention(tape.leaf(q), tape.leaf(k), tape.leaf(v), n_heads)
    want_out, *want_grads = per_head_attention(q, k, v, n_heads, scale, g)
    assert out.shape == want_out.shape
    assert out.value.tobytes() == want_out.tobytes()
    got_grads = out.vjp(g)
    assert len(got_grads) == len(out.parents) == 3
    for got, want in zip(got_grads, want_grads):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_attention_shape_mismatch_is_shape_error():
    tape = Tape()
    q, k = tape.const(np.ones((3, 8))), tape.const(np.ones((5, 6)))
    with pytest.raises(ShapeError):
        tape.attention(q, k, k, 2)
    with pytest.raises(ShapeError):
        tape.attention(q, q, q, 3)


@given(st.sampled_from([1, 6, 48, 104]), st.sampled_from([8, 64, 128]),
       st.sampled_from([4, 64]), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_linear_bitwise_equals_matmul_add_chain(n, d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    arrays = (rng.standard_normal((n, d_in)), rng.standard_normal((d_in, d_out)),
              rng.standard_normal((1, d_out)))
    target = rng.standard_normal((n, d_out))
    runs = []
    for fused in (True, False):
        tape = Tape()
        x, w, b = (tape.leaf(a) for a in arrays)
        out = tape.linear(x, w, b) if fused else tape.add(tape.matmul(x, w), b)
        diff = tape.add(out, tape.const(-target))
        backward(tape, total(tape, tape.mul(diff, diff)))
        runs.append([out.value.tobytes()] + [leaf.grad.tobytes() for leaf in (x, w, b)])
    assert runs[0] == runs[1]


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


def test_backward_computes_no_gradient_for_consts():
    # The same graph with its input as a const and as a leaf: the const gets
    # no gradient, and the parameters' gradients are byte-equal either way.
    rng = np.random.default_rng(16)
    x, w, b = (rng.standard_normal(s) for s in ((5, 4), (4, 3), (3,)))
    coupling = rng.uniform(size=(2, 5))
    grads = {}
    for kind in ("const", "leaf"):
        tape = Tape()
        make = getattr(tape, kind)
        xv, cv = make(x), make(coupling)
        wv, bv = tape.leaf(w), tape.leaf(b)
        out = tape.matmul(cv, tape.linear(xv, wv, bv))
        backward(tape, total(tape, tape.mul(out, out)))
        grads[kind] = (wv.grad.tobytes(), bv.grad.tobytes())
        if kind == "const":
            assert xv.grad is None and cv.grad is None
    assert grads["const"] == grads["leaf"]


@pytest.mark.parametrize("stack", [(), (3,)], ids=["matrix", "stack"])
def test_linear_and_matmul_return_none_for_a_const_operand(stack):
    # Backward never reads a const's gradient, so these VJPs skip its
    # product (the frozen bag's in the projection) and return None for it.
    rng = np.random.default_rng(17)
    tape = Tape()
    x, c_left, c_right = (tape.const(rng.standard_normal(s))
                          for s in ((*stack, 5, 4), (2, 5), (3, 2)))
    w, b = tape.leaf(rng.standard_normal((4, 3))), tape.leaf(rng.standard_normal(3))
    lin = tape.linear(x, w, b)
    g_x, g_w, g_b = lin.vjp(np.ones(lin.shape))
    assert g_x is None and g_w.shape == (*stack, 4, 3) and g_b.shape == (*stack, 3)
    left, right = tape.matmul(c_left, lin), tape.matmul(lin, c_right)
    g_c, g_lin = left.vjp(np.ones(left.shape))
    assert g_c is None and g_lin.shape == lin.shape
    g_lin, g_c = right.vjp(np.ones(right.shape))
    assert g_c is None and g_lin.shape == lin.shape


@pytest.mark.parametrize("stack", [None, 3], ids=["matrix", "stack"])
def test_backward_first_contribution_of_negative_zero_is_positive_zero(stack):
    # Backward starts a gradient from the first contribution without a zero
    # fill; 0.0 + -0.0 is +0.0, and the first part must read so too, for a
    # whole matrix and for the first slice of a stack.
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    shape = x.shape if stack is None else (stack, *x.shape)
    root = tape._emit(0.0, (x,), lambda g: (np.full(shape, -0.0),))
    backward(tape, root)
    assert x.grad.shape == (2, 2) and x.grad.flags.c_contiguous
    assert not np.signbit(x.grad).any()


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


def test_adam_missing_gradient_raises_before_any_update():
    params = tiny_params(seed=34)
    state = AdamState.for_params(params)
    grads = {n: np.ones_like(t) for n, t in params.tensors()}
    del grads["hazard.b"]
    before = {n: t.copy() for n, t in params.tensors()}
    with pytest.raises(KeyError, match="hazard.b"):
        adam_step(params, grads, state, lr=1e-3, weight_decay=0.0)
    assert state.step == 0
    for n, t in params.tensors():
        assert np.array_equal(t, before[n])
        assert np.all(state.m[n] == 0) and np.all(state.v[n] == 0)


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_bit_exact_roundtrip(tmp_path):
    params = tiny_params(seed=40)
    save_checkpoint(params, tmp_path, step=17)
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
    loaded, step = load_checkpoint(tmp_path)
    assert step == 17
    assert loaded.n_heads == params.n_heads
    for (n1, t1), (n2, t2) in zip(params.tensors(), loaded.tensors()):
        assert n1 == n2
        assert t1.tobytes() == t2.tobytes()
        assert t1.shape == t2.shape
        assert t2.flags.writeable  # Adam updates loaded tensors in place


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


def test_checkpoint_not_utf8_is_format_error(tmp_path):
    save_checkpoint(tiny_params(seed=41), tmp_path)
    (tmp_path / "checkpoint.json").write_bytes(b"\xff\xfe{}")
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


@pytest.mark.parametrize("edit, names", [
    (lambda doc: doc.update(step="x"), "step"),
    (lambda doc: doc.update(n_heads="four"), "n_heads"),
    (lambda doc: doc.update(seed=1.5), "seed"),
    (lambda doc: doc.update(n_heads=0), "n_heads"),
    (lambda doc: doc.update(n_heads=3), "head count 3"),  # does not divide d = 8
    (lambda doc: doc.update(n_encoders=-1), "n_encoders"),
    (lambda doc: doc["tensors"]["proj.w"].update(shape=[64]), "'proj.w'"),
    (lambda doc: doc.update(tensors=[]), "tensors"),
    (lambda doc: doc["tensors"]["proj.b"].update(shape=8), "'proj.b': shape"),
    # numpy's -1 wildcard would read the 64 values as 8 x 8.
    (lambda doc: doc["tensors"]["proj.w"].update(shape=[-1, 8]), "'proj.w': shape"),
    # No values fill it, and every shape is read off proj.w: a d_in of 0.
    (lambda doc: doc["tensors"]["proj.w"].update(shape=[0, 8], data=""), "'proj.w': shape"),
    (lambda doc: doc["tensors"]["proj.b"].update(data="not base64!"), "'proj.b': data"),
    # 63 of the 64 bytes: not a whole number of float64 values.
    (lambda doc: doc["tensors"]["proj.b"].update(
        data=doc["tensors"]["proj.b"]["data"][:-4]), "'proj.b': data"),
    # A tensor entry is a record: a key it does not declare, or one it
    # lacks, is named rather than ignored.
    (lambda doc: doc["tensors"]["proj.w"].update(dtype="float16"), "'proj.w': .*'dtype'"),
    (lambda doc: doc["tensors"]["proj.w"].update(shapes=[8, 8]), "'proj.w': .*'shapes'"),
    (lambda doc: doc["tensors"]["proj.w"].pop("data"), "'proj.w': .*'data'"),
], ids=["step", "n_heads", "seed", "n_heads 0", "n_heads 3", "n_encoders -1",
        "proj.w 1-D", "tensors", "shape", "negative shape", "zero shape", "data",
        "short data", "dtype", "shapes", "no data"])
def test_checkpoint_malformed_manifest_is_format_error(tmp_path, edit, names):
    save_checkpoint(tiny_params(seed=44), tmp_path)
    _edit_manifest(tmp_path, edit)
    with pytest.raises(FormatError, match=f"checkpoint.json: .*{names}"):
        load_checkpoint(tmp_path)


def test_checkpoint_with_fewer_encoders_than_entries_is_format_error(tmp_path):
    save_checkpoint(tiny_params(seed=46), tmp_path)  # two encoders
    _edit_manifest(tmp_path, lambda doc: doc.update(n_encoders=1))
    with pytest.raises(FormatError, match="checkpoint.json.*enc.1"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("name, shape", [
    ("attn_p.wq", [4, 16]),    # same 64 values as 8 x 8
    ("enc.0.w2", [3, 8]),      # the encoder's first layer is 3 wide
    ("attn_g.bo", [4]),
    ("hazard.b", [8]),         # 4 bins
    ("hazard.w", [8, 4]),      # takes 2 d = 16 inputs
])
def test_checkpoint_tensor_shape_breaking_layout_is_format_error(tmp_path, name, shape):
    params = tiny_params(seed=47)
    arrays = dict(params.arrays)
    arrays[name] = np.zeros(shape)
    save_checkpoint(neural.ModelParams(arrays, n_heads=4, seed=0), tmp_path)
    with pytest.raises(FormatError, match=f"checkpoint.json.*{name}"):
        load_checkpoint(tmp_path)


def test_param_shapes_match_init_params():
    params = tiny_params()
    shapes = neural.param_shapes(8, 8, [3, 5], 4)
    assert list(shapes) == neural.param_names(2)
    assert {n: t.shape for n, t in params.tensors()} == shapes


def test_checkpoint_manifest_not_an_object_is_format_error(tmp_path):
    save_checkpoint(tiny_params(seed=45), tmp_path)
    (tmp_path / "checkpoint.json").write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(FormatError, match="checkpoint.json"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("fail_at", ["third write", "manifest"])
def test_failed_checkpoint_save_keeps_previous_checkpoint(tmp_path, monkeypatch,
                                                          fail_at):
    old = tiny_params(seed=1)
    save_checkpoint(old, tmp_path, step=1)
    files = {p: p.read_bytes() for p in tmp_path.rglob("*")}
    real_dump = json.dump

    def failing_dump(doc, fh, **kwargs):
        if fail_at == "manifest":
            raise OSError(28, "No space left on device")
        real_dump(doc, FailingWrites(fh), **kwargs)

    monkeypatch.setattr(json, "dump", failing_dump)
    new = tiny_params(seed=2)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(new, tmp_path, step=2)
    monkeypatch.undo()

    assert {p: p.read_bytes() for p in tmp_path.rglob("*")} == files
    loaded, step = load_checkpoint(tmp_path)
    assert (step, loaded.seed) == (1, 1)
    for (_, t_old), (_, t_loaded) in zip(old.tensors(), loaded.tensors()):
        assert t_old.tobytes() == t_loaded.tobytes()

    # The next save succeeds and replaces the one file.
    save_checkpoint(new, tmp_path, step=2)
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
    loaded, step = load_checkpoint(tmp_path)
    assert (step, loaded.seed) == (2, 2)
    for (_, t_new), (_, t_loaded) in zip(new.tensors(), loaded.tensors()):
        assert t_new.tobytes() == t_loaded.tobytes()
