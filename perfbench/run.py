"""End-to-end benchmark of otsurv: one cross-validation fold, cohort scoring
and the log-rank test on a seeded synthetic workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload acceptance_umbot --seed 0 --seconds 20 --trace 0

One process, one thread.  The run generates its dataset from ``--seed``
outside every timed region, then times set-up (manifest to cases in memory),
``train_fold`` on fold 0, and forward-only scoring of the whole cohort.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally runs
the same fold with span hooks installed and prints per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  See README.md in this directory for the workloads and what
each metric should predict.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool before numpy loads: results are bit-exact per
# seed only at a fixed thread count, and one thread keeps timings steady.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_metrics, plan_masses, span_cost_s  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (for instance, no otsurv sources)."""


# The acceptance dataset's generator settings; data seed DATA_SEED + --seed,
# so --seed 0 gives the acceptance dataset itself.
SIGNAL, NOISE, CENSOR, DATA_SEED = 0.6, 0.25, 0.25, 11
SCORE_PASSES = 3
# Set-up is repeated for this long before the fold and again after the
# output checks, and ``setup_s`` is the median of all loads: one load takes
# about 0.1 s, and the host's speed drifts over seconds, so two stretches
# some 20 s apart see more of it than one.
SETUP_SECONDS = 1.5


@dataclasses.dataclass(frozen=True)
class Workload:
    """One dataset shape plus the training settings it is run with.

    ``epoch_s`` is the nominal cost of one epoch: the epoch count is
    ``--seconds / epoch_s``, a function of the run length only, so a faster
    program runs the same epochs in less time.  ``c_index_floor`` applies
    once the run has at least ``floor_epochs`` epochs.
    """

    name: str
    n_cases: int
    M_p: int
    mode: str
    micro_batch: int
    epoch_s: float
    c_index_floor: float
    floor_epochs: int
    lr: float = 2e-4
    M_g: int = 6
    d: int = 64


WORKLOADS = {w.name: w for w in (
    # The acceptance experiment's dataset and protocol.  One 48x6 solve per
    # case (m >= M_p), so the solver's per-iteration overhead dominates.
    Workload("acceptance_umbot", 200, 48, "umbot", 256, epoch_s=1.0,
             c_index_floor=0.55, floor_epochs=15),
    # Same data, dense co-attention: the transport layer is never called,
    # so it is the control for any transport change.
    Workload("acceptance_dense", 200, 48, "dense", 256, epoch_s=0.4,
             c_index_floor=0.65, floor_epochs=15),
    # Seven full batches of 128 plus a ragged one of 104 per case: the only
    # workload that exercises the micro-batch layer and ragged padding.
    # lr 2e-3 because 80 training cases give three optimizer steps per
    # epoch; at the protocol's 2e-4 the fold does not learn within a run.
    # The learning rate does not change the work done per epoch.
    Workload("large_bag_umbot", 100, 1000, "umbot", 128, epoch_s=3.0,
             c_index_floor=0.55, floor_epochs=6, lr=2e-3),
)}

END_TO_END_UNITS = {"setup_s": "s", "fold_s": "s", "val_c_index": "index",
                    "peak_rss_mb": "MB"}


def epochs_for(workload: Workload, seconds: int) -> int:
    return max(1, round(seconds / workload.epoch_s))


def c_index_floor(workload: Workload, epochs: int) -> float:
    return workload.c_index_floor if epochs >= workload.floor_epochs else 0.0


# ---------------------------------------------------------------------------
# Program under test


def load_otsurv(root: Path = ROOT) -> SimpleNamespace:
    """Import otsurv from the checkout's own ``src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "otsurv" / "__init__.py").is_file():
        raise BenchError(f"no otsurv sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import otsurv
    from otsurv import bags, config, errors, survival, train

    if not Path(otsurv.__file__).resolve().is_relative_to(src):
        raise BenchError(f"otsurv imported from {otsurv.__file__}, not {src}")
    return SimpleNamespace(bags=bags, config=config, errors=errors, survival=survival,
                           train=train)


def generate(api, workload: Workload, seed: int, out_dir: Path) -> Path:
    api.bags.generate_synthetic_dataset(
        workload.n_cases, workload.M_p, workload.M_g, workload.d, SIGNAL, NOISE,
        CENSOR, DATA_SEED + seed, out_dir)
    return out_dir / "manifest.json"


def inputs_digest(data_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(data_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load(api, manifest_path: Path):
    """Set-up as a user pays it: manifest on disk to every case in memory."""
    return api.train.load_cases(api.bags.load_manifest(manifest_path))


def with_bins(api, cases, edges):
    return [dataclasses.replace(c, record=dataclasses.replace(
        c.record, bin=api.bags.assign_bin(edges, c.record.time_months))) for c in cases]


@contextmanager
def _no_span(name):
    yield


def pipeline(api, cases, config, span=_no_span):
    """Fold 0, then forward-only scoring of the cohort and the log-rank test.

    An ``otsurv`` error in the fold or in a scoring pass does not end the
    run: its text goes to ``errors``, the fold leaves ``result`` None, and a
    failed pass leaves None in ``risk_passes``.
    """
    train_idx, val_idx = api.train.fold_splits(len(cases), config.folds, config.seed)[0]
    out = SimpleNamespace(result=None, best_params=None, pass_s=[],
                          risk_passes=[None] * SCORE_PASSES, logrank=None,
                          n_cases=len(cases), errors=[])
    t0 = time.perf_counter()
    try:
        with span("run.fold"):
            out.result, out.best_params = api.train.train_fold(cases, train_idx, val_idx,
                                                               config, 0)
    except api.errors.OtsurvError as exc:
        out.errors.append(f"train_fold: {exc!r}")
    out.fold_s = time.perf_counter() - t0
    if out.result is None:
        return out

    edges, _ = api.bags.discretize_times([cases[i].record for i in train_idx],
                                         config.bins)
    cohort = with_bins(api, cases, edges)
    out.val_cases = [cohort[i] for i in val_idx]
    with span("run.score"):
        for k in range(SCORE_PASSES):
            t0 = time.perf_counter()
            try:
                _, out.risk_passes[k] = api.train.evaluate(out.best_params, cohort,
                                                           config, 0)
            except api.errors.OtsurvError as exc:
                out.errors.append(f"evaluate: {exc!r}")
            out.pass_s.append(time.perf_counter() - t0)
        if out.risk_passes[0] is not None:
            scores = np.array([out.risk_passes[0][c.case_id] for c in cohort])
            try:
                low, high = api.survival.median_split(scores)
                out.logrank = api.survival.logrank([cohort[i].record for i in low],
                                                   [cohort[i].record for i in high])
            except api.errors.DataError:
                pass
    return out


def check(api, workload: Workload, config, out) -> tuple[list[str], int]:
    """Output checks: (failures of the fold operation, failed scored cases).

    A scored case fails when its risk is not finite, and every case of a
    scoring pass that raised, or that never ran because the fold failed.
    """
    failures = list(out.errors)
    bad_cases = sum(out.n_cases if risks is None else
                    sum(not math.isfinite(r) for r in risks.values())
                    for risks in out.risk_passes)
    if out.result is None:
        return failures, bad_cases
    if not all(math.isfinite(x) for x in out.result.train_loss):
        failures.append("non-finite train_loss")
    try:
        ci, risks = api.train.evaluate(out.best_params, out.val_cases, config, 0)
    except api.errors.OtsurvError as exc:
        ci, risks = None, None
        failures.append(f"re-evaluating the validation split: {exc!r}")
    if ci != out.result.c_index or risks != out.result.risks:
        failures.append("re-evaluating the validation split does not reproduce the fold")
    floor = c_index_floor(workload, config.epochs)
    if not out.result.c_index >= floor:
        failures.append(f"val_c_index {out.result.c_index:.4f} below floor {floor}")
    if out.logrank is None or not (math.isfinite(out.logrank.statistic)
                                   and 0.0 <= out.logrank.p_value <= 1.0):
        failures.append("pooled log-rank did not compute")
    return failures, bad_cases


# ---------------------------------------------------------------------------
# Runs


def _time_setup(api, manifest_path, times: list):
    """Repeat set-up for SETUP_SECONDS, adding each load's time to ``times``;
    returns the cases of the last load."""
    cases = None
    deadline = time.perf_counter() + SETUP_SECONDS
    while cases is None or time.perf_counter() < deadline:
        cases = None  # release the previous copy before timing the next
        t0 = time.perf_counter()
        cases = load(api, manifest_path)
        times.append(time.perf_counter() - t0)
    return cases


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: Workload, seed: int, seconds: int, trace: bool,
        work_root: Path = HERE / ".work") -> dict:
    """One benchmark run; returns the result object and the environment record."""
    api = load_otsurv()
    epochs = epochs_for(workload, seconds)
    config = api.config.ExperimentConfig(epochs=epochs, lr=workload.lr,
                                         attention_mode=workload.mode,
                                         micro_batch=workload.micro_batch)
    work_root.mkdir(parents=True, exist_ok=True)
    data_dir = work_root / f"data-{workload.name}-{seed}"
    shutil.rmtree(data_dir, ignore_errors=True)
    try:
        manifest_path = generate(api, workload, seed, data_dir)
        env = environment(workload, seed, epochs, inputs_digest(data_dir))
        setup_times = []
        cases = _time_setup(api, manifest_path, setup_times)
        out = pipeline(api, cases, config)
        failures, bad_cases = check(api, workload, config, out)
        if trace:
            trace_path = work_root / f"trace-{workload.name}-{seed}.jsonl"
            metrics, trace_failures = _traced(api, manifest_path, config, out,
                                              trace_path)
            failures += trace_failures
        else:
            # Peak RSS of set-up, fold and scoring, read before the second
            # stretch loads the cases again while these are still held.
            peak_rss_mb = _peak_rss_mb()
            _time_setup(api, manifest_path, setup_times)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "fold_s": out.fold_s,
                # 0 when the fold failed; the run then reads correct: false
                "val_c_index": out.result.c_index if out.result else 0.0,
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    attempted = 1 + SCORE_PASSES * out.n_cases
    failed = int(bool(failures)) + bad_cases
    env["failures"] = failures
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return {"env": env, "result": result}


def _traced(api, manifest_path, config, reference, trace_path):
    """Repeat the run with span hooks installed; per-layer metrics and checks."""
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("run.setup"):
            cases = load(api, manifest_path)
        out = pipeline(api, cases, config, span=tracer.span)
    tracer.write(trace_path)

    failures = [f"traced run: {e}" for e in out.errors]
    if _outcome(out) != _outcome(reference):
        failures.append("the traced run differs from the untraced run")
    if not all(0.0 < m <= 1.0 for m in plan_masses(tracer)):
        failures.append("a UOT plan's total mass lies outside (0, 1]")
    metrics = layer_metrics(tracer, "run.fold", span_cost_s())
    # From the untraced scoring passes: host drift over a few seconds of
    # scoring spreads this by up to a quarter between runs, too much for a
    # bound, so it is reported here rather than end to end.
    metrics["score_cases_per_s"] = (statistics.median(
        [reference.n_cases / s for s in reference.pass_s] or [0.0]), "1/s")
    metrics["train.fold_s"] = (out.fold_s, "s")
    # The traced fold against the untraced one of the same process: the
    # hooks' cost plus whatever the host's speed did in between.
    metrics["trace_fold_delta_pct"] = (100.0 * (out.fold_s / reference.fold_s - 1.0),
                                       "%")
    return metrics, failures


def _outcome(out):
    """What the traced and untraced runs must agree on."""
    result = out.result
    return (result and (result.c_index, result.train_loss), out.risk_passes)


# ---------------------------------------------------------------------------
# Environment record


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:  # ask the loaded OpenBLAS itself how many threads it uses
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    except OSError:
        pass
    return info


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(workload: Workload, seed: int, epochs: int, digest: str) -> dict:
    return {
        "workload": workload.name, "seed": seed,
        "data_seed": DATA_SEED + seed, "epochs": epochs,
        "inputs_digest": digest,
        "git_rev": _git_rev(), "src_digest": _src_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": _blas(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, metric in record["result"]["metrics"].items():
        print(f"{name:34s} {metric['value']!s:>24} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
