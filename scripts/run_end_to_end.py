#!/usr/bin/env python3
"""End-to-end synthetic experiment through the ``otsurv`` command: generate
a planted-signal dataset, train with the default protocol under 5-fold
cross-validation, then emit the Kaplan-Meier stratification and log-rank
test on pooled validation predictions.

Usage:
    python3 scripts/run_end_to_end.py --out runs/e2e [--seed 11] [--epochs 20]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from otsurv.cli import main as otsurv  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/e2e")
    ap.add_argument("--seed", default="11", help="dataset seed")
    ap.add_argument("--train-seed", default="0")
    ap.add_argument("--n-cases", default="200")
    ap.add_argument("--m-p", default="48")
    ap.add_argument("--dim", default="64")
    ap.add_argument("--epochs", default="20")
    args = ap.parse_args()

    out = Path(args.out).resolve()
    manifest = str(out / "data" / "manifest.json")
    steps = [
        ["gen-synth", "--out", str(out / "data"), "--n-cases", args.n_cases,
         "--m-p", args.m_p, "--m-g", "6", "--dim", args.dim,
         "--signal-fraction", "0.6", "--noise-scale", "0.25",
         "--censor-rate", "0.25", "--seed", args.seed],
        ["train", "--manifest", manifest, "--out", str(out / "train"),
         "--seed", args.train_seed, "--epochs", args.epochs],
        ["km", "--risks", str(out / "train" / "risks.csv"), "--manifest", manifest,
         "--out-prefix", str(out / "km")],
    ]
    for step in steps:
        code = otsurv(step)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
