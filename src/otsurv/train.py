"""Training and evaluation harness: per-case forward/backward over
micro-batches, k-fold cross-validation, ablation sweeps, and the solver
benchmark.

Per micro-batch the flow is: project the frozen patch features, encode the
genomic categories, solve the transport problem on current feature values,
then treat the coupling as a constant while the loss gradient flows through
projection, encoders, aggregators, and hazard head.  Per-batch loss terms
are weighted by batch_size / M_p.  At inference the per-batch survival
curves are averaged before the risk score is taken.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from copy import deepcopy
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import Tape, Var, backward
from .bags import (CaseManifest, GenomicProfile, SurvivalRecord, assign_bin,
                   atomic_writer, discretize_times, load_bag,
                   load_genomic_profile)
from .config import ExperimentConfig
from .errors import DataError, NumericError, OtsurvError
from .microbatch import OTSettings, sample_micro_batches, solve_batch
from .neural import (AdamState, ModelParams, adam_step, accumulate,
                     attention_pool_t, dense_coattention_t, encode_genomic_t,
                     extract_grads, hazard_t, init_params, project_t,
                     save_checkpoint, wrap_params)
from .survival import (PROB_EPS, c_index, logrank, median_split,
                       survival_from_hazard)
from .transport import TransportPlan

EVAL_TAG = 0xEA7

log = logging.getLogger(__name__)


def derive_seed(*parts: int) -> int:
    """Stable seed derivation from (global seed, fold, epoch, ...) tuples."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class CaseData:
    case_id: str
    pathology_raw: np.ndarray
    profile: GenomicProfile
    record: SurvivalRecord


@dataclass
class FoldResult:
    fold: int
    c_index: float
    risks: dict[str, float]
    train_loss: list[float]
    best_epoch: int


def load_cases(manifest: CaseManifest) -> list[CaseData]:
    cases = []
    for entry in manifest.cases:
        bag = load_bag(manifest.resolve(entry.pathology_feature_path), "binary",
                       "pathology", entry.case_id)
        profile = load_genomic_profile(manifest.resolve(entry.genomic_profile_path),
                                       manifest.category_spec, entry.case_id)
        record = SurvivalRecord(entry.time_months, entry.censor)
        cases.append(CaseData(entry.case_id, bag.features, profile, record))
    return cases


# ---------------------------------------------------------------------------
# Per-case forward


def _nll_terms(tape: Tape, hazard_row: Var, record: SurvivalRecord, weight: float) -> Var:
    """Tape version of the discrete NLL for one record; floors inside logs."""
    t = record.bin

    def survival_prefix(upto: int) -> Var | None:
        prefix = None  # running product of clamped (1 - h[z])
        for z in range(upto + 1):
            factor = tape.clamp_min(tape.sub_from(1.0, tape.pick(hazard_row, 0, z)),
                                    PROB_EPS)
            prefix = factor if prefix is None else tape.mul(prefix, factor)
        return prefix

    if record.censor == 1:
        s_t = survival_prefix(t)
        return tape.scale(tape.log(tape.clamp_min(s_t, PROB_EPS)), -weight)
    log_h = tape.log(tape.clamp_min(tape.pick(hazard_row, 0, t), PROB_EPS))
    s_prev = survival_prefix(t - 1)
    if s_prev is None:
        return tape.scale(log_h, -weight)
    return tape.scale(tape.add(tape.log(tape.clamp_min(s_prev, PROB_EPS)), log_h),
                      -weight)


def case_forward(params: ModelParams, case: CaseData, m: int,
                 ot_settings: OTSettings, mode: str, seed: int,
                 fixed_couplings: list[TransportPlan] | None = None):
    """Full tape for one case: loss Var, wrapped params, per-batch hazards.

    ``fixed_couplings`` bypasses the transport solves (used by the
    finite-difference gradient check, which must differentiate the loss at
    frozen couplings).  A solve that stops without converging is logged as
    a warning and its plan is used as is.
    """
    t = case.record.bin
    if t is None:
        raise DataError(f"{case.case_id}: record has no bin; discretize first")
    if not 0 <= t < params.n_bins:
        raise DataError(f"{case.case_id}: record bin {t} outside [0, {params.n_bins})")
    M_p = case.pathology_raw.shape[0]
    tape = Tape()
    pv = wrap_params(tape, params)
    b_g = encode_genomic_t(tape, pv, case.profile)
    pooled_g = attention_pool_t(tape, pv, "attn_g", b_g, params.n_heads)
    batches = sample_micro_batches(M_p, m, seed)

    loss_terms = []
    hazards = []
    couplings: list[TransportPlan] = []
    for k, idx in enumerate(batches):
        batch = tape.const(case.pathology_raw[idx])
        projected = project_t(tape, pv, batch)
        if mode == "dense":
            selected = dense_coattention_t(tape, b_g, projected, projected,
                                           math.sqrt(params.dim))
        else:
            if fixed_couplings is not None:
                tplan = fixed_couplings[k]
            else:
                solver = "emd" if mode == "emd" else "uot"
                tplan = solve_batch(projected.value, b_g.value,
                                    replace(ot_settings, solver=solver))
                if not tplan.converged:
                    log.warning("case %s batch %d: solver stopped at %d iterations "
                                "without converging", case.case_id, k,
                                tplan.iterations)
            couplings.append(tplan)
            selected = tape.matmul(tape.const(tplan.coupling.T), projected)
        pooled_p = attention_pool_t(tape, pv, "attn_p", selected, params.n_heads)
        hazard_row = hazard_t(tape, pv, pooled_p, pooled_g)
        hazards.append(hazard_row.value[0].copy())
        loss_terms.append(_nll_terms(tape, hazard_row, case.record,
                                     len(idx) / M_p))
    loss = loss_terms[0] if len(loss_terms) == 1 else tape.add_n(loss_terms)
    return tape, pv, loss, hazards, couplings


def case_loss_and_grads(params, case, m, ot_settings, mode, seed):
    tape, pv, loss, _, _ = case_forward(params, case, m, ot_settings, mode, seed)
    if not np.isfinite(loss.value):
        raise NumericError(f"{case.case_id}: non-finite loss {loss.value!r}")
    backward(tape, loss)
    return float(loss.value), extract_grads(pv)


def case_risk(params, case, m, ot_settings, mode, seed) -> float:
    """Negative area under the mean of the per-batch survival curves."""
    _, _, _, hazards, _ = case_forward(params, case, m, ot_settings, mode, seed)
    return -float(survival_from_hazard(np.stack(hazards)).mean(axis=0).sum())


# ---------------------------------------------------------------------------
# Cross-validation


def fold_splits(n_cases: int, n_folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Validation sets partition the case indices; sizes differ by <= 1."""
    if n_cases < 2 * n_folds:
        raise DataError(f"need at least {2 * n_folds} cases for {n_folds} folds")
    perm = np.random.default_rng(derive_seed(seed, 0xF01D)).permutation(n_cases)
    val_sets = np.array_split(perm, n_folds)
    splits = []
    for k in range(n_folds):
        val = np.sort(val_sets[k])
        train = np.sort(np.concatenate([val_sets[j] for j in range(n_folds) if j != k]))
        splits.append((train, val))
    return splits


def _ot_settings(config: ExperimentConfig) -> OTSettings:
    return OTSettings(epsilon=config.epsilon, tau=config.tau,
                      metric=config.cost_metric, normalize=config.normalize_cost)


def _with_bins(cases: list[CaseData], edges) -> list[CaseData]:
    return [replace(c, record=replace(c.record, bin=assign_bin(edges, c.record.time_months)))
            for c in cases]


def evaluate(params, cases: list[CaseData], config: ExperimentConfig,
             fold: int) -> tuple[float, dict[str, float]]:
    settings = _ot_settings(config)
    risks = {}
    for k, case in enumerate(cases):
        seed = derive_seed(config.seed, fold, EVAL_TAG, k)
        risks[case.case_id] = case_risk(params, case, config.micro_batch,
                                        settings, config.attention_mode, seed)
    ci = c_index(list(risks.values()), [c.record for c in cases])
    return ci, risks


def train_fold(cases: list[CaseData], train_idx, val_idx,
               config: ExperimentConfig, fold: int
               ) -> tuple[FoldResult, ModelParams]:
    """One fold of the protocol: case-level batches with gradient accumulation."""
    edges, _ = discretize_times([cases[i].record for i in train_idx], config.bins)
    binned = _with_bins(cases, edges)
    train_cases = [binned[i] for i in train_idx]
    val_cases = [binned[i] for i in val_idx]

    d_in = train_cases[0].pathology_raw.shape[1]
    attr_dims = train_cases[0].profile.attr_dims()
    params = init_params(d_in, d_in, attr_dims, config.bins,
                         seed=derive_seed(config.seed, fold))
    adam = AdamState.for_params(params)
    settings = _ot_settings(config)

    best_ci = -np.inf
    best_params = deepcopy(params)
    best_epoch = -1
    epoch_losses: list[float] = []
    if config.epochs == 0:
        best_ci, _ = evaluate(params, val_cases, config, fold)
        best_epoch = 0

    for epoch in range(config.epochs):
        epoch_seed = derive_seed(config.seed, fold, epoch)
        order = np.random.default_rng(epoch_seed).permutation(len(train_cases))
        grads: dict[str, np.ndarray] = {}
        pending = 0
        total_loss = 0.0
        for k in order:
            case = train_cases[k]
            loss, case_grads = case_loss_and_grads(
                params, case, config.micro_batch, settings,
                config.attention_mode, derive_seed(epoch_seed, int(k)))
            accumulate(grads, case_grads)
            total_loss += loss
            pending += 1
            if pending == config.grad_accum_steps:
                _apply_step(params, grads, adam, config, pending)
                grads, pending = {}, 0
        if pending:
            _apply_step(params, grads, adam, config, pending)
        epoch_losses.append(total_loss / len(train_cases))
        ci, _ = evaluate(params, val_cases, config, fold)
        if ci > best_ci:
            best_ci, best_params, best_epoch = ci, deepcopy(params), epoch

    final_ci, risks = evaluate(best_params, val_cases, config, fold)
    return (FoldResult(fold, final_ci, risks, epoch_losses, best_epoch), best_params)


def _apply_step(params, grads, adam, config, count):
    mean_grads = {n: g / count for n, g in grads.items()}
    adam_step(params, mean_grads, adam, lr=config.lr,
              weight_decay=config.weight_decay)


def cross_validate(cases: list[CaseData], config: ExperimentConfig,
                   out_dir=None) -> dict:
    """Full k-fold protocol; returns (and optionally writes) the report."""
    splits = fold_splits(len(cases), config.folds, config.seed)
    fold_results: list[FoldResult] = []
    for fold, (train_idx, val_idx) in enumerate(splits):
        result, best_params = train_fold(cases, train_idx, val_idx, config, fold)
        fold_results.append(result)
        if out_dir is not None:
            fold_dir = Path(out_dir) / f"fold{fold}"
            fold_dir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(best_params, fold_dir, step=result.best_epoch)

    cis = np.array([r.c_index for r in fold_results])
    report = {
        "config": config.to_dict(),
        "per_fold": [
            {"fold": r.fold, "c_index": r.c_index, "best_epoch": r.best_epoch,
             "train_loss": r.train_loss}
            for r in fold_results
        ],
        "c_index_mean": float(cis.mean()),
        "c_index_std": float(cis.std()),
    }
    records = {c.case_id: c.record for c in cases}
    pooled = []
    for r in fold_results:
        for case_id, risk in r.risks.items():
            rec = records[case_id]
            pooled.append((case_id, risk, rec.time_months, rec.censor, r.fold))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with atomic_writer(out / "metrics.json") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with atomic_writer(out / "risks.csv", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["case_id", "risk", "time_months", "censor", "fold"])
            for row in sorted(pooled):
                writer.writerow([row[0], f"{row[1]:.9g}", f"{row[2]:.9g}",
                                 row[3], row[4]])
    report["pooled_risks"] = pooled
    return report


def pooled_logrank(report: dict, records_by_id: dict[str, SurvivalRecord]):
    """Median-split log-rank over the pooled validation predictions."""
    pooled = report["pooled_risks"]
    risks = np.array([p[1] for p in pooled])
    recs = [records_by_id[p[0]] for p in pooled]
    low, high = median_split(risks)
    return logrank([recs[i] for i in low], [recs[i] for i in high])


# ---------------------------------------------------------------------------
# Ablation sweep


def ablation_sweep(cases: list[CaseData], config: ExperimentConfig,
                   m_values: list[int], modes: list[str], out_dir=None) -> list[dict]:
    """Cross product of micro-batch sizes and attention modes.

    Emits one row per (mode, m, fold).  An ``OtsurvError`` in a cell is
    recorded as an ``error:`` row and the sweep continues; any other
    exception is a bug and propagates.
    """
    # Building every cell first rejects a bad mode or size before any training.
    cells = [(mode, m, config.replace(micro_batch=m, attention_mode=mode))
             for mode in modes for m in m_values]
    rows = []
    for mode, m, cell in cells:
        try:
            splits = fold_splits(len(cases), cell.folds, cell.seed)
            for fold, (train_idx, val_idx) in enumerate(splits):
                result, _ = train_fold(cases, train_idx, val_idx, cell, fold)
                rows.append({"mode": mode, "m": m, "fold": fold,
                             "c_index": result.c_index, "status": "ok"})
        except OtsurvError as exc:
            rows.append({"mode": mode, "m": m, "fold": -1,
                         "c_index": float("nan"), "status": f"error: {exc}"})
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "ablation.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["mode", "m", "fold", "c_index", "status"])
            for row in rows:
                writer.writerow([row["mode"], row["m"], row["fold"],
                                 "" if math.isnan(row["c_index"])
                                 else f"{row['c_index']:.9g}", row["status"]])
    return rows


# ---------------------------------------------------------------------------
# Solver benchmark


def bench_solves(M_values: list[int], m: int, d: int, M_g: int = 6,
                 seed: int = 0, repeats: int = 3, settings: OTSettings | None = None
                 ) -> list[tuple[int, float, float]]:
    """Wall-clock of the micro-batched transport solves at growing bag sizes."""
    settings = settings or OTSettings()
    rows = []
    for M in M_values:
        rng = np.random.default_rng(derive_seed(seed, M))
        bag = rng.standard_normal((M, d))
        genomic = rng.standard_normal((M_g, d))
        best = np.inf
        for _ in range(repeats):
            batches = sample_micro_batches(M, m, seed)
            t0 = time.perf_counter()
            for idx in batches:
                solve_batch(bag[idx], genomic, settings)
            best = min(best, time.perf_counter() - t0)
        rows.append((M, best, M / best))
    return rows
