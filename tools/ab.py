"""In-process A/B of ``train_fold`` between two source trees.

Usage (from the repository root):

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload acceptance_umbot \
        --rounds 8 --epochs 20

Each tree's ``otsurv`` is imported from that tree's own ``src`` into fresh
module objects, so both run in one process on one host state.  The workload
comes from ``perfbench/run.py``'s ``WORKLOADS`` and its cohort is generated
once, from ``--seed`` as perfbench does.  Each round times fold 0 of
``train_fold`` on both trees, alternating which goes first.  The report gives
each side's median and quartiles of the fold seconds, the rounds the change
won, and whether every ``FoldResult`` is bitwise equal; the exit status is 1
when one is not.  Importing ``perfbench/run.py`` pins BLAS to one thread.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


perfbench = _load_perfbench()  # before numpy loads, so its thread pins hold

import numpy as np  # noqa: E402


def load_tree(tree: Path) -> SimpleNamespace:
    """``tree``'s otsurv modules, imported from ``tree/src``; afterwards no
    ``otsurv`` module is left in ``sys.modules`` for the next tree to find."""
    src = (tree / "src").resolve()
    if not (src / "otsurv" / "__init__.py").is_file():
        raise SystemExit(f"ab: no otsurv sources under {src}")

    def drop():
        for name in [n for n in sys.modules if n == "otsurv" or n.startswith("otsurv.")]:
            del sys.modules[name]

    drop()
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module(f"otsurv.{name}")
                   for name in ("bags", "config", "train")}
    finally:
        sys.path.remove(str(src))
        drop()
    if not Path(modules["train"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ab: otsurv imported from {modules['train'].__file__}, not {src}")
    return SimpleNamespace(**modules)


def _bits(value):
    """``value`` with every float replaced by its hex form, so that equality
    is bitwise (a NaN equals itself, -0.0 does not equal 0.0)."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


class Side:
    """One tree's cohort, config and fold-0 split, ready to time."""

    def __init__(self, api, workload, manifest_path: Path, epochs: int):
        self.api = api
        self.cases = api.train.load_cases(api.bags.load_manifest(manifest_path))
        self.config = api.config.ExperimentConfig(
            epochs=epochs, lr=workload.lr, attention_mode=workload.mode,
            micro_batch=workload.micro_batch)
        self.split = api.train.fold_splits(len(self.cases), self.config.folds,
                                           self.config.seed)[0]

    def fold(self) -> tuple[float, dict]:
        """Seconds of one ``train_fold`` and its result, bit by bit."""
        t0 = time.perf_counter()
        result, _ = self.api.train.train_fold(self.cases, *self.split, self.config, 0)
        return time.perf_counter() - t0, _bits(asdict(result))


def quartiles(times: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return float(q1), float(median), float(q3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the tree measured as A")
    parser.add_argument("change", type=Path, help="the tree measured as B")
    parser.add_argument("--workload", required=True, choices=sorted(perfbench.WORKLOADS))
    parser.add_argument("--rounds", required=True, type=int)
    parser.add_argument("--epochs", required=True, type=int)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.epochs < 1 or args.seed < 0:
        parser.error("--rounds and --epochs must be >= 1 and --seed >= 0")
    workload = perfbench.WORKLOADS[args.workload]
    apis = {"parent": load_tree(args.parent), "change": load_tree(args.change)}

    with tempfile.TemporaryDirectory() as tmp:
        manifest = perfbench.generate(apis["parent"], workload, args.seed, Path(tmp) / "data")
        sides = {name: Side(api, workload, manifest, args.epochs)
                 for name, api in apis.items()}
    times = {name: [] for name in sides}
    results = []
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for name in order:
            secs, result = sides[name].fold()
            times[name].append(secs)
            results.append(result)
        print(f"round {r + 1}: parent {times['parent'][-1]:.3f} s, "
              f"change {times['change'][-1]:.3f} s", file=sys.stderr)

    print(f"workload {workload.name}, {args.epochs} epochs, {args.rounds} rounds")
    stats = {name: quartiles(ts) for name, ts in times.items()}
    for name, (q1, median, q3) in stats.items():
        print(f"{name:6s} fold_s median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    (parent_q1, parent_median, parent_q3), change_median = stats["parent"], stats["change"][1]
    print(f"change won {wins} of {args.rounds} rounds; median ratio "
          f"{change_median / parent_median:.4f}; parent IQR "
          f"{(parent_q3 - parent_q1) / parent_median:.4f} of its median")
    equal = all(result == results[0] for result in results)
    print(f"FoldResults bitwise equal: {'yes' if equal else 'no'}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
