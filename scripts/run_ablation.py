#!/usr/bin/env python3
"""Micro-batch-size and attention-mode sweep on a synthetic dataset through
the ``otsurv`` command, emitting the long-format CSV (mode, m, fold,
c_index, status) for boxplots.

Usage:
    python3 scripts/run_ablation.py --out runs/ablation \
        --m-values 16,32,48 --modes umbot,dense [--epochs 10]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from otsurv.cli import main as otsurv  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/ablation")
    ap.add_argument("--seed", default="11", help="dataset seed")
    ap.add_argument("--train-seed", default="0")
    ap.add_argument("--n-cases", default="200")
    ap.add_argument("--m-values", default="16,32,48")
    ap.add_argument("--modes", default="umbot,dense")
    ap.add_argument("--epochs", default="10")
    args = ap.parse_args()

    out = Path(args.out).resolve()
    steps = [
        ["gen-synth", "--out", str(out / "data"), "--n-cases", args.n_cases,
         "--m-p", "48", "--m-g", "6", "--dim", "64", "--signal-fraction", "0.6",
         "--noise-scale", "0.25", "--censor-rate", "0.25", "--seed", args.seed],
        ["ablate", "--manifest", str(out / "data" / "manifest.json"),
         "--out", str(out), "--m-values", args.m_values, "--modes", args.modes,
         "--seed", args.train_seed, "--epochs", args.epochs],
    ]
    for step in steps:
        code = otsurv(step)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
