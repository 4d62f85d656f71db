"""Training harness: case forward, stop-gradient contract, whole-bag
equivalence, fold protocol, and determinism."""

import copy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from failing_writes import fail_writes_to
from oracles import per_batch_case_forward
from otsurv.autodiff import Tape, backward
from otsurv.bags import (GenomicProfile, InstanceBag, SurvivalRecord,
                         discretize_times, generate_synthetic_dataset, save_bag)
from otsurv import train, transport
from otsurv.config import ExperimentConfig
from otsurv.errors import DataError, NumericError
from otsurv.microbatch import ATTENTION_MODES, OTSettings, solve_batch
from otsurv.neural import (attention_pool_t, encode_genomic_t, extract_grads,
                           hazard_t, init_params, load_checkpoint, N_HEADS, project_t,
                           save_checkpoint, wrap_params)
from otsurv.survival import PROB_EPS
from otsurv.train import (CaseData, ablation_sweep, case_forward,
                          case_loss_and_grads, case_risk, cross_validate,
                          derive_seed, evaluate, fold_splits, load_cases,
                          pooled_logrank, train_fold)

ATTR_DIMS = [3, 4, 5]


def make_case(rng, M_p=10, d=8, bin_=1, censor=0):
    profile = GenomicProfile([(f"c{j}", rng.standard_normal(dj))
                              for j, dj in enumerate(ATTR_DIMS)], "x")
    return CaseData("x", rng.standard_normal((M_p, d)), profile,
                    SurvivalRecord(10.0, censor, bin=bin_))


def make_params(d=8, seed=0):
    return init_params(d, d, ATTR_DIMS, 4, seed=seed)


def test_case_forward_requires_bin():
    rng = np.random.default_rng(0)
    case = make_case(rng)
    case.record = SurvivalRecord(10.0, 0, bin=None)
    with pytest.raises(DataError):
        case_forward(make_params(), case, 5, OTSettings(), "umbot", 0)


@pytest.mark.parametrize("mode", ["umbot", "emd"])
def test_training_and_scoring_solves_compute_no_diagnostics(monkeypatch, mode):
    # A plan's diagnostics are computed when read; training and scoring read
    # only the coupling, so none of them may run on this path.
    def refuse(*args):
        raise AssertionError("diagnostic computed")

    monkeypatch.setattr(transport, "_generalized_kl", refuse)
    rng = np.random.default_rng(7)
    cases = [replace(make_case(rng), case_id=f"c{k}",
                     record=SurvivalRecord(1.0 + k, k % 2, bin=k)) for k in range(4)]
    params = make_params()
    solver = "emd" if mode == "emd" else "uot"
    with monkeypatch.context() as patch:
        for name in ("objective_value", "marginal_residual"):
            patch.setattr(transport.TransportPlan, name, property(refuse))
        plan = solve_batch(cases[0].pathology_raw, rng.standard_normal((3, 8)),
                           OTSettings(), solver)
        *_, couplings = case_forward(params, cases[0], 4, OTSettings(), mode, 0)
        config = ExperimentConfig(micro_batch=4, bins=4, attention_mode=mode)
        _, risks = evaluate(params, cases, config, 0)
    assert len(couplings) == 3 and len(risks) == 4
    for p in (plan, *couplings):
        assert np.isfinite(p.objective_value) and np.isfinite(p.marginal_residual)
        if mode == "emd":
            assert p.objective_regularized is None
        else:
            with pytest.raises(AssertionError, match="diagnostic computed"):
                p.objective_regularized


def test_whole_bag_equivalence_bitwise():
    """m = M_p: the micro-batched path must equal a straight-line pipeline
    written here without the batching machinery, bit for bit."""
    rng = np.random.default_rng(1)
    case = make_case(rng, M_p=9)
    params = make_params(seed=2)
    settings = OTSettings(epsilon=0.1, tau=0.5)

    _, _, loss, hazards, _ = case_forward(params, case, m=9, ot_settings=settings,
                                          mode="umbot", seed=123)

    # independent straight-line forward: no sampler, one solve on the raw bag
    tape = Tape()
    pv = wrap_params(tape, params)
    b_g = encode_genomic_t(tape, pv, case.profile)
    pooled_g = attention_pool_t(tape, pv, "attn_g", b_g, params.n_heads)
    projected = project_t(tape, pv, tape.const(case.pathology_raw))
    tplan = solve_batch(projected.value, b_g.value, settings)
    selected = tape.matmul(tape.const(tplan.coupling.T), projected)
    pooled_p = attention_pool_t(tape, pv, "attn_p", selected, params.n_heads)
    hazard_row = hazard_t(tape, pv, pooled_p, pooled_g)

    t = case.record.bin
    S_prev = None
    for z in range(t):
        f = tape.clamp_min(tape.sub_from(1.0, tape.pick(hazard_row, 0, z)), PROB_EPS)
        S_prev = f if S_prev is None else tape.mul(S_prev, f)
    log_h = tape.log(tape.clamp_min(tape.pick(hazard_row, 0, t), PROB_EPS))
    direct_loss = tape.scale(tape.add(tape.log(tape.clamp_min(S_prev, PROB_EPS)),
                                      log_h), -1.0)

    assert float(loss.value) == float(direct_loss.value)
    assert np.array_equal(hazards[0], hazard_row.value[0])

    risk = case_risk(params, case, 9, settings, "umbot", 123)
    S = np.cumprod(1 - np.clip(hazard_row.value[0], PROB_EPS, 1 - PROB_EPS))
    assert risk == -float(S.sum())


def test_stop_gradient_contract():
    """Hazard-head perturbations change no coupling entry; couplings depend
    only on encoder outputs upstream of the solve."""
    rng = np.random.default_rng(2)
    case = make_case(rng, M_p=12)
    params = make_params(seed=3)
    settings = OTSettings(epsilon=0.1, tau=0.5)
    _, _, _, _, base = case_forward(params, case, 5, settings, "umbot", 7)

    bumped = copy.deepcopy(params)
    bumped.arrays["hazard.w"] += 0.5
    bumped.arrays["hazard.b"] += 1.0
    _, _, _, _, after = case_forward(bumped, case, 5, settings, "umbot", 7)
    for p0, p1 in zip(base, after):
        assert np.array_equal(p0.coupling, p1.coupling)

    # and the couplings DO respond to the projection (upstream of the solve)
    upstream = copy.deepcopy(params)
    upstream.arrays["proj.w"] += 0.05
    _, _, _, _, moved = case_forward(upstream, case, 5, settings, "umbot", 7)
    assert any(not np.array_equal(p0.coupling, p1.coupling)
               for p0, p1 in zip(base, moved))


def test_raw_pathology_features_receive_no_gradient():
    # the raw bag enters as a tape const; only proj.* can carry its gradient
    rng = np.random.default_rng(3)
    case = make_case(rng)
    params = make_params(seed=4)
    tape, pv, loss, _, _ = case_forward(params, case, 5, OTSettings(), "umbot", 1)
    backward(tape, loss)
    assert pv["proj.w"].grad is not None
    assert np.any(pv["proj.w"].grad != 0)


def test_partial_batch_weights_sum_to_one():
    rng = np.random.default_rng(4)
    case = make_case(rng, M_p=11)
    params = make_params(seed=5)
    # loss is a weighted sum with weights m_k / M_p; with identical batch
    # hazards (tied via an all-identical bag) the total equals the one-batch
    # loss, which pins the weights summing to 1
    case.pathology_raw = np.tile(case.pathology_raw[:1], (11, 1))
    settings = OTSettings(epsilon=0.1, tau=0.5)
    _, _, loss_batched, _, _ = case_forward(params, case, 4, settings, "umbot", 2)
    _, _, loss_whole, _, _ = case_forward(params, case, 11, settings, "umbot", 2)
    assert float(loss_batched.value) == pytest.approx(float(loss_whole.value),
                                                      rel=1e-9)


def test_full_path_gradcheck_all_modes():
    """Central finite differences on the complete loss path, couplings frozen."""
    rng = np.random.default_rng(5)
    case = make_case(rng, M_p=8)
    params = make_params(seed=6)
    settings = OTSettings(epsilon=0.1, tau=0.5)
    for mode in ("umbot", "emd", "dense"):
        tape, pv, loss, _, couplings = case_forward(params, case, 4, settings,
                                                    mode, 11)
        backward(tape, loss)
        arrays = dict(params.tensors())

        def loss_at():
            _, _, lv, _, _ = case_forward(params, case, 4, settings, mode, 11,
                                          fixed_couplings=couplings or None)
            return float(lv.value)

        worst = 0.0
        for name in ("proj.w", "enc.1.w1", "attn_p.wv", "attn_g.wq",
                     "hazard.w", "hazard.b"):
            grad = pv[name].grad
            arr = arrays[name]
            for _ in range(20):
                idx = tuple(rng.integers(0, s) for s in arr.shape)
                h = 1e-4 * max(1.0, abs(float(arr[idx])))
                arr[idx] += h
                fp = loss_at()
                arr[idx] -= 2 * h
                fm = loss_at()
                arr[idx] += h
                fd = (fp - fm) / (2 * h)
                ga = float(grad.reshape(arr.shape)[idx])
                # absolute floor 1e-6: below it central differences only
                # resolve ~1e-11, which the floor still demands
                worst = max(worst, abs(fd - ga) / max(abs(fd), abs(ga), 1e-6))
        assert worst <= 1e-5, f"{mode}: worst rel err {worst}"


def test_zero_loss_construction_gives_zero_gradients():
    # all-censored records with hazards saturated to exactly 0 make the loss
    # identically 0 and every gradient exactly 0
    rng = np.random.default_rng(6)
    case = make_case(rng, bin_=2, censor=1)
    params = make_params(seed=7)
    params.arrays["hazard.w"][:] = 0.0
    params.arrays["hazard.b"][:] = -1000.0  # sigmoid underflows to exactly 0.0
    tape, pv, loss, _, _ = case_forward(params, case, 5, OTSettings(), "umbot", 3)
    assert float(loss.value) == 0.0
    backward(tape, loss)
    for name, var in pv.items():
        if var.grad is not None:
            assert np.all(var.grad == 0.0), name


def test_dense_mode_gradient_flows_through_attention():
    rng = np.random.default_rng(7)
    case = make_case(rng)
    params = make_params(seed=8)
    _, grads_dense = case_loss_and_grads(params, case, 5, OTSettings(), "dense", 4)
    assert np.any(grads_dense["enc.0.w1"] != 0)
    assert np.any(grads_dense["proj.w"] != 0)


# ---------------------------------------------------------------------------
# Stacked micro-batches


def _result_bytes(tape, pv, loss, hazards, couplings):
    """Run backward; the bytes of the loss, each hazard row, every parameter
    gradient and each coupling."""
    backward(tape, loss)
    return (loss.value.tobytes(), [h.tobytes() for h in hazards],
            {name: g.tobytes() for name, g in extract_grads(pv).items()},
            [p.coupling.tobytes() for p in couplings])


def _forward_bytes(forward, params, case, m, mode, seed):
    return _result_bytes(*forward(params, case, m, OTSettings(epsilon=0.1, tau=0.5),
                                  mode, seed))


@given(M_p=st.integers(1, 40), m=st.integers(1, 48),
       mode=st.sampled_from(["umbot", "dense", "emd"]), bin_=st.integers(0, 3),
       censor=st.integers(0, 1),
       hazard_shift=st.sampled_from([0.0, 30.0, -30.0, 800.0, -800.0]),
       seed=st.integers(0, 2**32 - 1))
@example(M_p=40, m=16, mode="umbot", bin_=0, censor=0, hazard_shift=0.0, seed=1)
@example(M_p=40, m=16, mode="dense", bin_=3, censor=1, hazard_shift=800.0, seed=2)
@example(M_p=40, m=16, mode="emd", bin_=2, censor=0, hazard_shift=-800.0, seed=3)
@example(M_p=32, m=8, mode="umbot", bin_=0, censor=1, hazard_shift=0.0, seed=4)
@example(M_p=10, m=48, mode="dense", bin_=1, censor=0, hazard_shift=-30.0, seed=5)
@settings(max_examples=60, deadline=None)
def test_stacked_case_forward_equals_per_batch_loop_bitwise(M_p, m, mode, bin_, censor,
                                                            hazard_shift, seed):
    """Byte for byte: loss, every hazard row, every parameter gradient
    (signed zeros included) and the couplings.  A shift of +-800 saturates
    the hazards to exactly 1 or 0, so the NLL's floors are active."""
    rng = np.random.default_rng(seed)
    case = make_case(rng, M_p=M_p, bin_=bin_, censor=censor)
    params = make_params(seed=seed % 1000)
    params.arrays["hazard.b"] += hazard_shift
    assert (_forward_bytes(case_forward, params, case, m, mode, seed)
            == _forward_bytes(per_batch_case_forward, params, case, m, mode, seed))


@pytest.mark.parametrize("mode", ["umbot", "emd", "dense"])
def test_window_of_fronts_solves_and_heads_equals_case_forward_bitwise(mode):
    """A window's order: every case's front, then every transport problem
    of the window in one list in case order, then each case's head and
    backward.  Each case must match its own case_forward byte for byte.
    At m 7, bags of 20 and 12 instances run as stacks of 7+7 and 6, and of
    7 and 5."""
    rng = np.random.default_rng(21)
    cases = [make_case(rng, M_p=20, bin_=1, censor=0), make_case(rng, M_p=12, bin_=2, censor=1)]
    seeds = [31, 32]
    params = make_params(seed=22)
    settings = OTSettings(epsilon=0.1, tau=0.5)
    solver = ATTENTION_MODES[mode]

    fronts = [train.case_front(params, case, 7, seed) for case, seed in zip(cases, seeds)]
    assert [[len(stack.value) for stack in front.stacks] for front in fronts] == [[2, 1],
                                                                                   [1, 1]]
    problems = [(batch, front.b_g.value) for front in fronts
                for stack in front.stacks for batch in stack.value]
    plans = [] if solver is None else [solve_batch(batch, genomic, settings, solver)
                                       for batch, genomic in problems]
    windowed = []
    for case, front in zip(cases, fronts):
        own = None if solver is None else [plans.pop(0) for _ in front.batches]
        loss, hazards = train.case_head(params, case, front, own)
        windowed.append(_result_bytes(front.tape, front.pv, loss, hazards, own or []))
    assert plans == []

    assert windowed == [_result_bytes(*case_forward(params, case, 7, settings, mode, seed))
                        for case, seed in zip(cases, seeds)]


def _six_category_case(M_p, bin_, censor):
    rng = np.random.default_rng(8)
    profile = GenomicProfile([(f"c{j}", rng.standard_normal(4)) for j in range(6)], "x")
    return CaseData("x", rng.standard_normal((M_p, 8)), profile,
                    SurvivalRecord(10.0, censor, bin=bin_))


def test_tape_nodes_per_case_do_not_grow_with_micro_batches():
    # A count, not a timing: the stacked forward builds one chain per shape
    # group and one NLL node, whatever the record.  The per-batch loop built
    # about 250 nodes for the large case and 86 to 100 for the small one.
    params = init_params(8, 8, [4] * 6, 4, seed=0)
    for bin_, censor in [(0, 0), (3, 0), (0, 1), (3, 1)]:
        large = case_forward(params, _six_category_case(1000, bin_, censor), 128,
                             OTSettings(), "umbot", 0)
        small = case_forward(params, _six_category_case(48, bin_, censor), 256,
                             OTSettings(), "umbot", 0)
        assert len(large[0].nodes) <= 100
        assert len(small[0].nodes) < 86


# ---------------------------------------------------------------------------
# Folds and the protocol


def test_fold_splits_partition_and_ratio():
    splits = fold_splits(200, 5, seed=0)
    all_val = np.sort(np.concatenate([v for _, v in splits]))
    assert np.array_equal(all_val, np.arange(200))
    for train, val in splits:
        assert len(val) == 40
        assert len(train) == 160
        assert np.intersect1d(train, val).size == 0


def test_fold_splits_sizes_within_one():
    splits = fold_splits(203, 5, seed=1)
    sizes = sorted(len(v) for _, v in splits)
    assert sizes[-1] - sizes[0] <= 1


def test_fold_splits_too_few_cases():
    with pytest.raises(DataError):
        fold_splits(8, 5, seed=0)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(0, 0) != derive_seed(0, 1)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    manifest = generate_synthetic_dataset(
        n_cases=30, M_p=10, M_g=3, d=8, signal_fraction=0.5, noise_scale=0.25,
        censor_rate=0.2, seed=5, output_dir=out)
    return load_cases(manifest)


def test_load_cases_rejects_bag_dim_not_feature_dim(tmp_path):
    manifest = generate_synthetic_dataset(
        n_cases=10, M_p=6, M_g=3, d=5, signal_fraction=0.4, noise_scale=0.2,
        censor_rate=0.2, seed=2, output_dir=tmp_path)
    entry = manifest.cases[3]
    save_bag(InstanceBag(np.ones((6, 4)), entry.case_id),
             manifest.resolve(entry.pathology_feature_path))
    with pytest.raises(DataError, match=f"{entry.case_id}: pathology dim 4 != "
                                        f"manifest feature_dim 5"):
        load_cases(manifest)


def test_train_fold_caps_the_model_width(tmp_path):
    # Wider patch features are projected to MODEL_WIDTH, as the paper's
    # 1024-d features are to 256; every current workload has d_in 64.
    cases = load_cases(generate_synthetic_dataset(
        n_cases=10, M_p=4, M_g=2, d=260, signal_fraction=0.5, noise_scale=0.25,
        censor_rate=0.2, seed=5, output_dir=tmp_path / "data"))
    config = ExperimentConfig(seed=0, folds=2, epochs=1, micro_batch=4, bins=2)
    train_idx, val_idx = fold_splits(len(cases), 2, seed=0)[0]
    _, params = train_fold(cases, train_idx, val_idx, config, 0)
    assert params.arrays["proj.w"].shape == (260, 256) == (260, train.MODEL_WIDTH)
    save_checkpoint(params, tmp_path / "fold0")
    loaded, _ = load_checkpoint(tmp_path / "fold0")
    assert [(n, t.tobytes()) for n, t in loaded.tensors()] == \
        [(n, t.tobytes()) for n, t in params.tensors()]


def test_train_fold_rounds_the_model_width_up_to_the_head_count(tmp_path):
    # A feature width of 6 is not a multiple of the 4 heads; the model width
    # rounds up to 8 rather than failing on a value no user sets.
    cases = load_cases(generate_synthetic_dataset(
        n_cases=10, M_p=4, M_g=2, d=6, signal_fraction=0.5, noise_scale=0.25,
        censor_rate=0.2, seed=5, output_dir=tmp_path))
    config = ExperimentConfig(seed=0, folds=2, epochs=1, micro_batch=4, bins=2)
    train_idx, val_idx = fold_splits(len(cases), 2, seed=0)[0]
    _, params = train_fold(cases, train_idx, val_idx, config, 0)
    assert params.arrays["proj.w"].shape == (6, 8)
    assert params.n_heads == N_HEADS == 4


def test_train_fold_runs_and_improves_fit(small_dataset):
    cases = small_dataset
    splits = fold_splits(len(cases), 3, seed=0)
    config = ExperimentConfig(seed=0, folds=3, epochs=3, micro_batch=6, bins=3,
                              grad_accum_steps=4)
    result, best = train_fold(cases, splits[0][0], splits[0][1], config, 0)
    assert len(result.train_loss) == 3
    assert result.train_loss[-1] < result.train_loss[0]
    assert 0.0 <= result.c_index <= 1.0
    assert set(result.risks) == {cases[i].case_id for i in splits[0][1]}


def test_epochs_zero_evaluates_untrained(small_dataset):
    cases = small_dataset
    splits = fold_splits(len(cases), 3, seed=0)
    config = ExperimentConfig(seed=0, folds=3, epochs=0, micro_batch=6, bins=3)
    result, _ = train_fold(cases, splits[0][0], splits[0][1], config, 0)
    assert result.train_loss == []
    assert 0.0 <= result.c_index <= 1.0


@pytest.mark.parametrize("mode,epochs", [("umbot", 3), ("dense", 2), ("umbot", 0)])
def test_train_fold_result_is_the_best_epochs_evaluation(small_dataset, monkeypatch,
                                                         mode, epochs):
    cases = small_dataset
    train_idx, val_idx = fold_splits(len(cases), 3, seed=0)[0]
    config = ExperimentConfig(seed=0, folds=3, epochs=epochs, micro_batch=6, bins=3,
                              grad_accum_steps=4, attention_mode=mode)
    calls = []

    def counting_evaluate(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(train, "evaluate", counting_evaluate)
    result, best = train_fold(cases, train_idx, val_idx, config, 0)
    monkeypatch.undo()
    assert len(calls) == max(epochs, 1)
    edges, _ = discretize_times([cases[i].record for i in train_idx], config.bins)
    val_cases = [train._with_bins(cases, edges)[i] for i in val_idx]
    ci, risks = evaluate(best, val_cases, config, 0)
    assert np.float64(result.c_index).tobytes() == np.float64(ci).tobytes()
    assert list(result.risks) == list(risks)
    assert np.array(list(result.risks.values())).tobytes() == \
        np.array(list(risks.values())).tobytes()


def test_cross_validate_report_schema_and_determinism(small_dataset, tmp_path):
    cases = small_dataset
    config = ExperimentConfig(seed=3, folds=3, epochs=1, micro_batch=6, bins=3,
                              grad_accum_steps=8)
    rep1 = cross_validate(cases, config, tmp_path / "run1")
    rep2 = cross_validate(cases, config, tmp_path / "run2")
    assert rep1["c_index_mean"] == rep2["c_index_mean"]
    assert rep1["per_fold"] == rep2["per_fold"]
    assert (tmp_path / "run1" / "metrics.json").exists()
    assert (tmp_path / "run1" / "risks.csv").read_text() == \
        (tmp_path / "run2" / "risks.csv").read_text()
    assert (tmp_path / "run1" / "fold0" / "checkpoint.json").exists()
    # pooled risks cover every case exactly once
    ids = [p[0] for p in rep1["pooled_risks"]]
    assert sorted(ids) == sorted(c.case_id for c in cases)
    lr = pooled_logrank(rep1, {c.case_id: c.record for c in cases})
    assert 0.0 <= lr.p_value <= 1.0


@pytest.mark.parametrize("artifact", ["metrics.json", "risks.csv",
                                      "fold0/checkpoint.json"])
def test_failed_artifact_write_keeps_previous_file(small_dataset, tmp_path,
                                                   monkeypatch, artifact):
    config = ExperimentConfig(seed=3, folds=3, epochs=1, micro_batch=6, bins=3,
                              grad_accum_steps=8)
    cross_validate(small_dataset, config, tmp_path)
    before = sorted(tmp_path.rglob("*"))
    target = tmp_path / artifact
    previous = target.read_bytes()
    params, step = load_checkpoint(tmp_path / "fold0")
    fail_writes_to(monkeypatch, target)
    with pytest.raises(OSError, match="No space left"):
        cross_validate(small_dataset, replace(config, seed=4), tmp_path)
    monkeypatch.undo()
    assert target.read_bytes() == previous
    after = sorted(tmp_path.rglob("*"))
    assert after == before
    if artifact == "fold0/checkpoint.json":
        loaded, loaded_step = load_checkpoint(tmp_path / "fold0")
        assert loaded_step == step
        for (_, t), (_, t_loaded) in zip(params.tensors(), loaded.tensors()):
            assert t.tobytes() == t_loaded.tobytes()


def test_dense_mode_report_same_schema(small_dataset, tmp_path):
    cases = small_dataset
    config = ExperimentConfig(seed=3, folds=3, epochs=1, micro_batch=6, bins=3,
                              grad_accum_steps=8, attention_mode="dense")
    rep = cross_validate(cases, config, tmp_path)
    assert {"config", "per_fold", "c_index_mean", "c_index_std"} <= set(rep)


def test_ablation_sweep_records_otsurv_errors_and_propagates_bugs(small_dataset,
                                                                  monkeypatch):
    config = ExperimentConfig(seed=0, folds=3, epochs=1, micro_batch=6, bins=3)

    def data_error(*args, **kwargs):
        raise DataError("cell has no usable cases")

    monkeypatch.setattr(train, "train_fold", data_error)
    rows = ablation_sweep(small_dataset, config, [6], ["umbot"])
    assert [(r["fold"], r["status"]) for r in rows] == \
        [(-1, "error: cell has no usable cases")]

    def type_error(*args, **kwargs):
        raise TypeError("bug in the training code")

    monkeypatch.setattr(train, "train_fold", type_error)
    with pytest.raises(TypeError, match="bug in the training code"):
        ablation_sweep(small_dataset, config, [6], ["umbot"])


def test_ablation_cell_failing_after_its_first_fold_gets_only_an_error_row(
        small_dataset, monkeypatch):
    # The folds a cell trained before it failed are not reported as ok.
    config = ExperimentConfig(seed=0, folds=3, epochs=1, micro_batch=6, bins=3,
                              attention_mode="dense")
    real, calls = train.train_fold, []

    def fail_second(*args, **kwargs):
        calls.append(args[4])
        if len(calls) == 2:
            raise NumericError("loss is NaN")
        return real(*args, **kwargs)

    monkeypatch.setattr(train, "train_fold", fail_second)
    rows = ablation_sweep(small_dataset, config, [6], ["dense"])
    assert calls == [0, 1]
    assert [(r["fold"], r["status"]) for r in rows] == [(-1, "error: loss is NaN")]


def test_failed_ablation_write_keeps_previous_csv(small_dataset, tmp_path,
                                                  monkeypatch):
    config = ExperimentConfig(seed=0, folds=3, epochs=1, micro_batch=6, bins=3,
                              attention_mode="dense")
    ablation_sweep(small_dataset, config, [6], ["dense"], tmp_path)
    target = tmp_path / "ablation.csv"
    previous = target.read_bytes()
    fail_writes_to(monkeypatch, target)
    with pytest.raises(OSError, match="No space left"):
        ablation_sweep(small_dataset, replace(config, seed=1), [6], ["dense"],
                       tmp_path)
    monkeypatch.undo()
    assert target.read_bytes() == previous
    assert list(tmp_path.iterdir()) == [target]
