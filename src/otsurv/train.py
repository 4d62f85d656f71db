"""Training and evaluation harness: per-case forward/backward over
micro-batches, k-fold cross-validation, ablation sweeps, and the solver
benchmark.

A case runs in three phases.  The front (:func:`case_front`) encodes the
genomic categories and projects the frozen patch features, one stack per
run of same-sized micro-batches (the full ones, then a ragged last one).
The transport step (in :func:`case_forward`) solves one problem per
micro-batch on current feature values.  The head (:func:`case_head`)
treats the couplings as constants while the loss gradient flows through
projection, encoders, aggregators, and hazard head.  Per-batch loss terms
are weighted by batch_size / M_p and form one fused NLL node.  At
inference the per-batch survival curves are averaged before the risk
score is taken.
"""

from __future__ import annotations

import logging
import math
import time
from copy import deepcopy
from dataclasses import asdict, dataclass, replace
from itertools import groupby, islice
from pathlib import Path

import numpy as np

from .autodiff import Tape, Var, backward
from .bags import (CaseManifest, GenomicProfile, SurvivalRecord, assign_bin,
                   discretize_times, load_bag, load_genomic_profile,
                   write_csv, write_json)
from .config import ExperimentConfig
from .errors import DataError, NumericError, OtsurvError, ParameterError, ShapeError
from .microbatch import (ATTENTION_MODES, OTSettings, sample_micro_batches,
                         solve_batch)
from .neural import (AdamState, ModelParams, adam_step, accumulate,
                     attention_pool_t, dense_coattention_t, encode_genomic_t,
                     extract_grads, hazard_t, init_params, N_HEADS, project_t,
                     save_checkpoint, wrap_params)
from .survival import (PROB_EPS, c_index, logrank, median_split,
                       survival_from_hazard)
from .transport import TransportPlan

EVAL_TAG = 0xEA7
# The model's width, or the bags' feature width where that is less, rounded
# up to a multiple of the head count.
MODEL_WIDTH = 256

log = logging.getLogger(__name__)


def derive_seed(*parts: int) -> int:
    """Stable seed derivation from (global seed, fold, epoch, ...) tuples."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class CaseData:
    """One case's inputs.  ``pathology_raw`` stays at its bag file's
    precision (float32 from FBAG, float64 from CSV); see :func:`case_forward`
    for where it is widened."""

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
    for entry, record in zip(manifest.cases, manifest.records()):
        bag = load_bag(manifest.resolve(entry.pathology_feature_path), entry.case_id)
        if bag.dim != manifest.feature_dim:
            raise DataError(f"{entry.case_id}: pathology dim {bag.dim} != manifest "
                            f"feature_dim {manifest.feature_dim}")
        profile = load_genomic_profile(manifest.resolve(entry.genomic_profile_path),
                                       manifest.category_spec, entry.case_id)
        cases.append(CaseData(entry.case_id, bag.features, profile, record))
    return cases


# ---------------------------------------------------------------------------
# Per-case forward


@dataclass(frozen=True)
class CaseFront:
    """One case's forward up to its transport problems.  The problems are
    the slices of ``stacks`` in order, one per micro-batch, each against
    ``b_g``."""

    tape: Tape
    pv: dict[str, Var]
    b_g: Var
    pooled_g: Var
    batches: list[np.ndarray]  # the micro-batches' row indices, in batch order
    stacks: list[Var]  # the projected (B, n, d) stack of each run of one size


def case_front(params: ModelParams, case: CaseData, m: int, seed: int) -> CaseFront:
    """Build the case's tape up to co-attention: wrap the parameters, encode
    and pool the genomic side, sample the micro-batches and project each run
    of same-sized ones (the full ones, then a ragged last) as one stack.

    Only the rows gathered for a stack are widened to float64, by the tape
    constant that holds them; float32 to float64 is exact, so a float32 bag
    and its float64 copy give bit-identical results.
    """
    t = case.record.bin
    if t is None:
        raise DataError(f"{case.case_id}: record has no bin; discretize first")
    if not 0 <= t < params.n_bins:
        raise DataError(f"{case.case_id}: record bin {t} outside [0, {params.n_bins})")
    tape = Tape()
    pv = wrap_params(tape, params)
    b_g = encode_genomic_t(tape, pv, case.profile)
    pooled_g = attention_pool_t(tape, pv, "attn_g", b_g, params.n_heads)
    batches = sample_micro_batches(case.pathology_raw.shape[0], m, seed)
    stacks = [project_t(tape, pv, tape.const(case.pathology_raw[np.array(list(run))]))
              for _, run in groupby(batches, key=len)]
    return CaseFront(tape, pv, b_g, pooled_g, batches, stacks)


def case_head(params: ModelParams, case: CaseData, front: CaseFront,
              plans: list[TransportPlan] | None):
    """Finish ``front``'s tape: co-attention, the pathology pool, the hazard
    head and the NLL.  Returns the loss Var and the hazard matrix (one
    float64 row of T bins per micro-batch, in batch order).

    ``plans`` holds one plan per micro-batch, in batch order; each stack
    attends through its plans' transposed couplings.  None attends densely.
    Per-batch loss terms are weighted by batch size / M_p.
    """
    if plans is not None and len(plans) != len(front.batches):
        raise ShapeError(f"{len(plans)} couplings for {len(front.batches)} micro-batches")
    hazard_stacks, remaining = [], iter(plans or ())
    for projected in front.stacks:
        if plans is None:
            selected = dense_coattention_t(front.tape, front.b_g, projected)
        else:
            # Each slice of the transposed stack is the transpose of a
            # C-contiguous coupling, as a per-batch ``coupling.T`` is.
            stacked = np.stack([p.coupling for p in islice(remaining, len(projected.value))])
            selected = front.tape.matmul(front.tape.const(stacked.transpose(0, 2, 1)), projected)
        pooled_p = attention_pool_t(front.tape, front.pv, "attn_p", selected, params.n_heads)
        hazard_stacks.append(hazard_t(front.tape, front.pv, pooled_p, front.pooled_g))
    M_p = len(case.pathology_raw)
    loss = front.tape.discrete_nll(hazard_stacks, [len(idx) / M_p for idx in front.batches],
                                   case.record.bin, case.record.censor == 1, PROB_EPS)
    return loss, np.concatenate([stack.value[:, 0] for stack in hazard_stacks])


def case_forward(params: ModelParams, case: CaseData, m: int,
                 ot_settings: OTSettings, mode: str, seed: int,
                 fixed_couplings: list[TransportPlan] | None = None):
    """Full tape for one case: the tape, wrapped params, loss Var, the
    hazard matrix (one float64 row of T bins per micro-batch, in batch
    order) and the per-batch couplings.

    The case runs in three phases: :func:`case_front`, one transport solve
    per micro-batch in batch order, and :func:`case_head`.
    ``fixed_couplings`` bypasses the transport solves (used by the
    finite-difference gradient check, which must differentiate the loss at
    frozen couplings); it must hold one plan per micro-batch.  A solve that
    stops without converging is logged as a warning and its plan is used
    as is.  ``mode``, a key of :data:`~otsurv.microbatch.ATTENTION_MODES`,
    names the solver.
    """
    if mode not in ATTENTION_MODES:
        raise ParameterError(f"unknown attention mode {mode!r}, "
                             f"choose from {tuple(ATTENTION_MODES)}")
    solver = ATTENTION_MODES[mode]
    front = case_front(params, case, m, seed)
    plans = None if solver is None else fixed_couplings
    if solver is not None and fixed_couplings is None:
        plans = []
        for k, batch in enumerate(b for stack in front.stacks for b in stack.value):
            plans.append(solve_batch(batch, front.b_g.value, ot_settings, solver))
            if not plans[k].converged:
                log.warning("case %s batch %d: solver stopped at %d iterations "
                            "without converging", case.case_id, k, plans[k].iterations)
    loss, hazards = case_head(params, case, front, plans)
    return front.tape, front.pv, loss, hazards, list(plans or ())


def case_loss_and_grads(params, case, m, ot_settings, mode, seed):
    tape, pv, loss, _, _ = case_forward(params, case, m, ot_settings, mode, seed)
    if not np.isfinite(loss.value):
        raise NumericError(f"{case.case_id}: non-finite loss {loss.value!r}")
    backward(tape, loss)
    return float(loss.value), extract_grads(pv)


def case_risk(params, case, m, ot_settings, mode, seed) -> float:
    """Negative area under the mean of the per-batch survival curves."""
    _, _, _, hazards, _ = case_forward(params, case, m, ot_settings, mode, seed)
    return -float(survival_from_hazard(hazards).mean(axis=0).sum())


# ---------------------------------------------------------------------------
# Cross-validation


def fold_splits(n_cases: int, n_folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Validation sets partition the case indices; sizes differ by <= 1."""
    if n_cases < 2 * n_folds:
        raise DataError(f"need at least {2 * n_folds} cases for {n_folds} folds")
    perm = np.random.default_rng(derive_seed(seed, 0xF01D)).permutation(n_cases)
    val_sets = np.array_split(perm, n_folds)
    return [(np.sort(np.concatenate(val_sets[:k] + val_sets[k + 1:])), np.sort(val_sets[k]))
            for k in range(n_folds)]


def _with_bins(cases: list[CaseData], edges) -> list[CaseData]:
    return [replace(c, record=replace(c.record, bin=assign_bin(edges, c.record.time_months)))
            for c in cases]


def evaluate(params, cases: list[CaseData], config: ExperimentConfig,
             fold: int) -> tuple[float, dict[str, float]]:
    risks = {}
    for k, case in enumerate(cases):
        seed = derive_seed(config.seed, fold, EVAL_TAG, k)
        risks[case.case_id] = case_risk(params, case, config.micro_batch,
                                        config, config.attention_mode, seed)
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
    width = -(-min(d_in, MODEL_WIDTH) // N_HEADS) * N_HEADS
    params = init_params(d_in, width, attr_dims, config.bins,
                         seed=derive_seed(config.seed, fold))
    adam = AdamState.for_params(params)

    # evaluate depends only on the parameters, so the best epoch's pass is
    # the fold's result.
    best_params = deepcopy(params)
    best_ci, best_risks, best_epoch = -np.inf, {}, -1
    epoch_losses: list[float] = []
    if config.epochs == 0:
        best_ci, best_risks = evaluate(params, val_cases, config, fold)
        best_epoch = 0

    for epoch in range(config.epochs):
        epoch_seed = derive_seed(config.seed, fold, epoch)
        order = np.random.default_rng(epoch_seed).permutation(len(train_cases))
        total_loss = 0.0
        # One Adam step on the mean gradient of each window of cases.
        for s in range(0, len(order), config.grad_accum_steps):
            window = order[s:s + config.grad_accum_steps]
            grads: dict[str, np.ndarray] = {}
            for k in window:
                loss, case_grads = case_loss_and_grads(
                    params, train_cases[k], config.micro_batch, config,
                    config.attention_mode, derive_seed(epoch_seed, int(k)))
                accumulate(grads, case_grads)
                total_loss += loss
            adam_step(params, {n: g / len(window) for n, g in grads.items()}, adam,
                      lr=config.lr, weight_decay=config.weight_decay)
        epoch_losses.append(total_loss / len(train_cases))
        ci, risks = evaluate(params, val_cases, config, fold)
        if ci > best_ci:
            best_ci, best_risks, best_params, best_epoch = ci, risks, deepcopy(params), epoch

    return FoldResult(fold, best_ci, best_risks, epoch_losses, best_epoch), best_params


def cross_validate(cases: list[CaseData], config: ExperimentConfig,
                   out_dir=None) -> dict:
    """Full k-fold protocol; returns (and optionally writes) the report."""
    splits = fold_splits(len(cases), config.folds, config.seed)
    fold_results: list[FoldResult] = []
    for fold, (train_idx, val_idx) in enumerate(splits):
        result, best_params = train_fold(cases, train_idx, val_idx, config, fold)
        fold_results.append(result)
        if out_dir is not None:
            save_checkpoint(best_params, Path(out_dir) / f"fold{fold}",
                            step=result.best_epoch)

    cis = np.array([r.c_index for r in fold_results])
    report = {
        "config": asdict(config),
        "per_fold": [
            {"fold": r.fold, "c_index": r.c_index, "best_epoch": r.best_epoch,
             "train_loss": r.train_loss}
            for r in fold_results
        ],
        "c_index_mean": float(cis.mean()),
        "c_index_std": float(cis.std()),
    }
    records = {c.case_id: c.record for c in cases}
    pooled = [(case_id, risk, records[case_id].time_months, records[case_id].censor, r.fold)
              for r in fold_results for case_id, risk in r.risks.items()]
    if out_dir is not None:
        out = Path(out_dir)
        write_json(out / "metrics.json", report)
        write_csv(out / "risks.csv",
                  [("case_id", "risk", "time_months", "censor", "fold"),
                   *sorted(pooled)])
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

    Each cell is one :func:`cross_validate` and emits one row per fold.  A
    cell that raises an ``OtsurvError`` emits one ``error:`` row instead, and
    the sweep continues; any other exception is a bug and propagates.
    """
    # Building every cell first rejects a bad mode or size before any training.
    cells = [(mode, m, replace(config, micro_batch=m, attention_mode=mode))
             for mode in modes for m in m_values]
    rows = []
    for mode, m, cell in cells:
        try:
            rows += [{"mode": mode, "m": m, "fold": r["fold"], "c_index": r["c_index"],
                      "status": "ok"} for r in cross_validate(cases, cell)["per_fold"]]
        except OtsurvError as exc:
            rows.append({"mode": mode, "m": m, "fold": -1,
                         "c_index": float("nan"), "status": f"error: {exc}"})
    if out_dir is not None:
        write_csv(Path(out_dir) / "ablation.csv",
                  [("mode", "m", "fold", "c_index", "status"),
                   *((row["mode"], row["m"], row["fold"],
                      "" if math.isnan(row["c_index"]) else row["c_index"],
                      row["status"]) for row in rows)])
    return rows


# ---------------------------------------------------------------------------
# Solver benchmark


BENCH_M_G, BENCH_SEED = 6, 0  # the benchmark's genomic bag size and seed


def bench_solves(M_values: list[int], m: int, d: int, repeats: int = 3
                 ) -> list[tuple[int, float, float]]:
    """Wall-clock of the micro-batched solves at default :class:`OTSettings`
    against a ``BENCH_M_G`` x d genomic bag, at growing bag sizes.

    Every bag is built first; each repeat then times every micro-batch of
    every size in turn, so host drift falls on all sizes.  A size's seconds
    sum each of its micro-batches' fastest solve over the repeats.
    """
    if d < 1 or any(M < 1 for M in M_values):
        raise ParameterError(f"need d >= 1 and every M >= 1, got d={d}, M={M_values}")
    settings = OTSettings()
    problems = []
    for M in M_values:
        rng = np.random.default_rng(derive_seed(BENCH_SEED, M))
        bag = rng.standard_normal((M, d))
        genomic = rng.standard_normal((BENCH_M_G, d))
        problems.append(([bag[idx] for idx in sample_micro_batches(M, m, BENCH_SEED)],
                         genomic))
    best = [[math.inf] * len(batches) for batches, _ in problems]
    for _ in range(repeats):
        for (batches, genomic), fastest in zip(problems, best):
            for j, batch in enumerate(batches):
                t0 = time.perf_counter()
                solve_batch(batch, genomic, settings)
                fastest[j] = min(fastest[j], time.perf_counter() - t0)
    return [(M, secs, M / secs) for M, secs in zip(M_values, map(sum, best))]
