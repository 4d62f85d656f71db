"""Micro-batch sampling, co-attention selection, and pipeline equivalences.

Co-attention is checked where training runs it: inside ``case_forward``.
The pathology tokens handed to the ``attn_p`` aggregator are the selected
features, so a spy on ``train.attention_pool_t`` reads them off the tape.
With an identity projection the projected batch equals the raw batch
bit for bit, which lets the tests state the selection in closed form.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otsurv import microbatch, train, transport
from otsurv.config import ExperimentConfig
from otsurv.autodiff import Tape
from otsurv.bags import GenomicProfile, SurvivalRecord
from otsurv.errors import ParameterError, ShapeError
from otsurv.microbatch import (ATTENTION_MODES, OTSettings, sample_micro_batches,
                               solve_batch)
from otsurv.neural import (dense_coattention_t, encode_genomic_t, init_params,
                           wrap_params)
from otsurv.train import CaseData, case_forward, case_loss_and_grads
from otsurv.transport import (CostMatrix, SolverSettings, TransportPlan,
                              uniform_marginals)


def make_plan(coupling):
    coupling = np.asarray(coupling, float)
    return TransportPlan(coupling, 1, True, SolverSettings(0.05),
                         CostMatrix(np.zeros(coupling.shape), "l2"),
                         uniform_marginals(*coupling.shape))


# ---------------------------------------------------------------------------
# Sampling


def sizes(batches):
    return [len(ix) for ix in batches]


def test_single_batch_covers_whole_bag_in_order():
    batches = sample_micro_batches(6, 6, seed=0)
    assert len(batches) == 1
    assert np.array_equal(batches[0], np.arange(6))


def test_batch_sizes_partition():
    batches = sample_micro_batches(5, 2, seed=1)
    assert sizes(batches) == [2, 2, 1]
    joined = np.sort(np.concatenate(batches))
    assert np.array_equal(joined, np.arange(5))


def test_large_bag_two_seeds_same_size_multiset():
    p1 = sample_micro_batches(1000, 256, seed=1)
    p2 = sample_micro_batches(1000, 256, seed=2)
    assert sizes(p1) == sizes(p2) == [256, 256, 256, 232]
    assert not np.array_equal(p1[0], p2[0])
    for p in (p1, p2):
        joined = np.sort(np.concatenate(p))
        assert np.array_equal(joined, np.arange(1000))


def test_sampler_deterministic():
    p1 = sample_micro_batches(100, 17, seed=9)
    p2 = sample_micro_batches(100, 17, seed=9)
    assert len(p1) == len(p2)
    for a, b in zip(p1, p2):
        assert np.array_equal(a, b)


def test_sampler_rejects_nonpositive_m():
    with pytest.raises(ParameterError):
        sample_micro_batches(10, 0, seed=0)


@given(st.integers(min_value=1, max_value=400),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_sampler_coverage_property(M_p, m, seed):
    batches = sample_micro_batches(M_p, m, seed)
    joined = np.concatenate(batches)
    assert joined.size == M_p
    assert np.array_equal(np.sort(joined), np.arange(M_p))
    for idx in batches[:-1]:
        assert idx.size == min(m, M_p)


# ---------------------------------------------------------------------------
# Co-attention selection through case_forward


def make_case(rng, M_p, M_g, d=5, raw=None):
    profile = GenomicProfile([(f"c{j}", rng.standard_normal(2)) for j in range(M_g)],
                             "case")
    if raw is None:
        raw = rng.standard_normal((M_p, d))
    return CaseData("case", raw, profile, SurvivalRecord(5.0, 0, bin=1))


def identity_params(case, seed=0):
    """Model whose projection is the identity, so projected == raw bitwise."""
    d = case.pathology_raw.shape[1]
    params = init_params(d, d, case.profile.attr_dims(), 3, n_heads=1, seed=seed)
    params.arrays["proj.w"][:] = np.eye(d)
    params.arrays["proj.b"][:] = 0.0
    return params


def selected_features(monkeypatch, params, case, m, settings=None, mode="umbot",
                      seed=0, fixed_couplings=None):
    """Run case_forward and return (selected features per batch, its outputs)."""
    seen = []
    pool = train.attention_pool_t

    def spy(tape, pv, side, tokens, n_heads):
        if side == "attn_p":  # a (B, M_g, d) stack: one slice per micro-batch
            seen.extend(tokens.value.copy())
        return pool(tape, pv, side, tokens, n_heads)

    monkeypatch.setattr(train, "attention_pool_t", spy)
    out = case_forward(params, case, m, settings or OTSettings(), mode, seed,
                       fixed_couplings=fixed_couplings)
    return seen, out


def test_coattend_scaled_identity(monkeypatch):
    m = 4
    case = make_case(np.random.default_rng(0), M_p=m, M_g=m, d=3)
    params = identity_params(case)
    seen, _ = selected_features(monkeypatch, params, case, m,
                                fixed_couplings=[make_plan(np.eye(m) / m)])
    assert np.allclose(seen[0], case.pathology_raw / m, atol=1e-15)


def test_coattend_rank_one_coupling(monkeypatch):
    rng = np.random.default_rng(1)
    m, M_g, d = 6, 3, 4
    case = make_case(rng, M_p=m, M_g=M_g, d=d)
    b = rng.uniform(0.1, 1.0, size=M_g)
    coupling = np.outer(np.full(m, 1.0 / m), b)
    seen, _ = selected_features(monkeypatch, identity_params(case), case, m,
                                fixed_couplings=[make_plan(coupling)])
    want = np.outer(b, case.pathology_raw.mean(axis=0))
    assert np.allclose(seen[0], want, atol=1e-12)


def test_coattend_matches_matmul_oracle(monkeypatch):
    rng = np.random.default_rng(2)
    case = make_case(rng, M_p=8, M_g=3, d=4)
    coupling = rng.uniform(size=(8, 3))
    plan = make_plan(coupling)
    seen, (_, _, _, hazards, couplings) = selected_features(
        monkeypatch, identity_params(case), case, 8, fixed_couplings=[plan])
    assert np.allclose(seen[0], coupling.T @ case.pathology_raw, atol=1e-12)
    assert couplings == [plan]
    assert len(hazards) == 1


def test_coattend_shape_mismatch():
    # a (3, 2) plan cannot select from a 4-instance batch
    case = make_case(np.random.default_rng(3), M_p=4, M_g=2, d=5)
    with pytest.raises(ShapeError):
        case_forward(identity_params(case), case, 4, OTSettings(), "umbot", 0,
                     fixed_couplings=[make_plan(np.ones((3, 2)))])


@pytest.mark.parametrize("n_plans", [2, 4])
def test_fixed_couplings_need_one_plan_per_micro_batch(n_plans):
    # Three micro-batches (5, 5 and 2): two plans used to run out with a bare
    # IndexError, and a fourth plan was silently ignored.
    case = make_case(np.random.default_rng(14), M_p=12, M_g=3)
    params = identity_params(case)
    *_, plans = case_forward(params, case, 5, OTSettings(), "umbot", 0)
    assert len(plans) == 3
    with pytest.raises(ShapeError, match=f"^{n_plans} couplings for 3 micro-batches$"):
        case_forward(params, case, 5, OTSettings(), "umbot", 0,
                     fixed_couplings=(plans * 2)[:n_plans])


# ---------------------------------------------------------------------------
# Dense co-attention (the tape block training uses)


def dense(q, tokens):
    tape = Tape()
    return dense_coattention_t(tape, tape.const(q), tape.const(tokens)).value


def test_dense_softmax_saturation_picks_matching_key():
    q = np.array([[10.0, 0, 0, 0]])
    tokens = np.vstack([q[0], -q[0], np.zeros(4)])
    # logits 50, -50 and 0 at scale 1/sqrt(4)
    out = dense(q, tokens)
    assert np.allclose(out[0], tokens[0], atol=1e-8)


def test_dense_uniform_logits_average_values():
    rng = np.random.default_rng(3)
    tokens = rng.standard_normal((5, 4))
    out = dense(np.zeros((2, 4)), tokens)
    assert np.allclose(out, np.tile(tokens.mean(axis=0), (2, 1)), atol=1e-12)


def test_dense_matches_softmax_matmul_oracle():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((3, 4))
    tokens = rng.standard_normal((5, 4))
    out = dense(q, tokens)
    logits = q @ tokens.T / math.sqrt(4)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(out, w @ tokens, atol=1e-10)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Per-case orchestration


def test_run_case_single_batch_equals_whole_bag_solve(monkeypatch):
    rng = np.random.default_rng(5)
    case = make_case(rng, M_p=12, M_g=3)
    params = identity_params(case, seed=1)
    settings = OTSettings(epsilon=0.1, tau=0.5)
    seen, _ = selected_features(monkeypatch, params, case, m=12,
                                settings=settings, seed=3)
    assert len(seen) == 1
    tape = Tape()
    genomic = encode_genomic_t(tape, wrap_params(tape, params), case.profile).value
    direct_plan = solve_batch(case.pathology_raw, genomic, settings)
    assert np.array_equal(seen[0], direct_plan.coupling.T @ case.pathology_raw)


def test_run_case_mass_bookkeeping(monkeypatch):
    rng = np.random.default_rng(6)
    case = make_case(rng, M_p=20, M_g=3)
    settings = OTSettings(epsilon=0.05, tau=0.5)
    seen, (_, _, _, hazards, couplings) = selected_features(
        monkeypatch, identity_params(case), case, m=8, settings=settings, seed=4)
    assert len(couplings) == len(hazards) == len(seen) == 3
    assert [p.coupling.shape[0] for p in couplings] == [8, 8, 4]
    for plan in couplings:
        mass_per_row = plan.coupling.sum(axis=0)
        assert mass_per_row.sum() == pytest.approx(plan.total_mass, abs=1e-12)


def test_run_case_degenerate_identical_instances(monkeypatch):
    rng = np.random.default_rng(7)
    row = rng.standard_normal(5)
    case = make_case(rng, M_p=10, M_g=3, raw=np.tile(row, (10, 1)))
    seen, (_, _, _, _, couplings) = selected_features(
        monkeypatch, identity_params(case), case, m=4,
        settings=OTSettings(epsilon=0.1, tau=0.5), seed=5)
    for features, plan in zip(seen, couplings):
        # every selected row is a nonnegative multiple of the common vector
        for j, mass in enumerate(plan.coupling.sum(axis=0)):
            assert np.allclose(features[j], mass * row, atol=1e-12)


def test_run_case_dim_mismatch():
    rng = np.random.default_rng(8)
    case = make_case(rng, M_p=6, M_g=3, d=4)
    params = init_params(5, 5, case.profile.attr_dims(), 3, n_heads=1, seed=0)
    with pytest.raises(ShapeError):
        case_forward(params, case, 3, OTSettings(), "umbot", 0)


def test_attention_modes_are_one_table():
    assert (ExperimentConfig.CHOICES["attention_mode"] == tuple(ATTENTION_MODES)
            == ("umbot", "emd", "dense"))
    assert ATTENTION_MODES["dense"] is None
    assert all(ATTENTION_MODES[mode] in microbatch.SOLVERS for mode in ("umbot", "emd"))


@pytest.mark.parametrize("mode", ["bogus", "sinkhorn", "uot"])
def test_case_forward_rejects_a_mode_outside_the_table(mode):
    # A solver name is not a mode: "sinkhorn" used to run the balanced solver.
    case = make_case(np.random.default_rng(9), M_p=12, M_g=3)
    with pytest.raises(ParameterError, match="unknown attention mode"):
        case_forward(identity_params(case), case, 6, OTSettings(), mode, 6)


@pytest.mark.parametrize("mode", list(ATTENTION_MODES))
def test_case_forward_is_bitwise_equal_on_float32_and_its_float64_copy(mode):
    # Two full micro-batches and a ragged one: two stacks of gathered rows.
    raw = np.random.default_rng(12).standard_normal((11, 5)).astype(np.float32)
    narrow = make_case(np.random.default_rng(13), M_p=11, M_g=3, raw=raw)
    wide = dataclasses.replace(narrow, pathology_raw=raw.astype(np.float64))
    params = init_params(5, 4, narrow.profile.attr_dims(), 3, seed=3)
    runs = [case_forward(params, case, 4, OTSettings(), mode, 21) for case in (narrow, wide)]
    (_, _, loss32, hazards32, plans32), (_, _, loss64, hazards64, plans64) = runs
    assert loss32.value.tobytes() == loss64.value.tobytes()
    assert np.array_equal(np.stack(hazards32), np.stack(hazards64))
    assert len(plans32) == len(plans64) == (0 if mode == "dense" else 3)
    for p32, p64 in zip(plans32, plans64):
        assert p32.coupling.tobytes() == p64.coupling.tobytes()
    (l32, g32), (l64, g64) = (case_loss_and_grads(params, case, 4, OTSettings(), mode, 21)
                              for case in (narrow, wide))
    assert l32 == l64 and g32.keys() == g64.keys()
    for name in g32:
        assert g32[name].tobytes() == g64[name].tobytes(), name


def test_run_case_nonconverged_solve_warns_but_completes(caplog, monkeypatch):
    rng = np.random.default_rng(9)
    case = make_case(rng, M_p=12, M_g=3)
    params = identity_params(case)
    monkeypatch.setattr(microbatch, "unbalanced_sinkhorn",
                        lambda C, marg, eps, tau: transport.unbalanced_sinkhorn(
                            C, marg, eps, tau, max_iters=2))
    with caplog.at_level("WARNING"):
        _, _, loss, hazards, couplings = case_forward(params, case, 6, OTSettings(),
                                                      "umbot", 6)
    assert len(hazards) == 2
    assert np.isfinite(loss.value)
    assert any("converg" in r.message for r in caplog.records)
    assert any(not plan.converged for plan in couplings)
