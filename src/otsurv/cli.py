"""Command-line surface.

Subcommands: gen-synth, solve, train, ablate, km, bench.  Config values
come from defaults, then an optional JSON config file, then CLI flags
(last wins).  Relative output paths are resolved under $OTSURV_OUT_ROOT
when it is set.

Exit codes: 0 success; a package error exits with its class's
``exit_code`` (see ``otsurv.errors``), an ``OSError`` as a data error (3).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bags, survival, train as training
from .config import ExperimentConfig, load_config
from .errors import DataError, FormatError, OtsurvError
from .microbatch import DEFAULT_SOLVER, SOLVERS, OTSettings, solve_batch
from .transport import write_plan


def _out_path(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get("OTSURV_OUT_ROOT")
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _flag_values(args, cls) -> dict:
    """The given flags among those :func:`_add_field_flags` made for ``cls``."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if getattr(args, f.name) is not None}


def _load_effective_config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    return dataclasses.replace(config, **_flag_values(args, ExperimentConfig))


def _comma_list(item_type):
    """Argparse type for a comma-separated list; a bad item or no item exits 2."""
    def parse(text: str) -> list:
        items = [item_type(item) for item in map(str.strip, text.split(",")) if item]
        if not items:
            raise ValueError(f"no items in {text!r}")
        return items
    parse.__name__ = f"comma-separated {item_type.__name__}"
    return parse


def _add_field_flags(p: argparse.ArgumentParser, cls):
    """One flag per field of the dataclass ``cls``: ``--micro-batch`` for
    ``micro_batch``, typed by its annotation; a bool is ``--x/--no-x``.  A
    flag not given is None, which leaves the field as it was."""
    for f in dataclasses.fields(cls):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool":
            p.add_argument(flag, action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(flag, type={"int": int, "float": float}.get(f.type),
                           choices=cls.CHOICES.get(f.name))


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_field_flags(p, ExperimentConfig)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otsurv",
        description="Transport-based co-attention survival pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic multimodal dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-cases", type=int, default=50)
    p.add_argument("--m-p", type=int, default=48, help="pathology instances per case")
    p.add_argument("--m-g", type=int, default=6, help="genomic categories")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--signal-fraction", type=float, default=0.5)
    p.add_argument("--noise-scale", type=float, default=0.25)
    p.add_argument("--censor-rate", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("solve", help="stand-alone transport solve on two bag files")
    p.add_argument("--source", required=True, help="source bag, CSV or FBAG")
    p.add_argument("--target", required=True, help="target bag, CSV or FBAG")
    p.add_argument("--solver", choices=tuple(SOLVERS), default=DEFAULT_SOLVER)
    _add_field_flags(p, OTSettings)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="k-fold cross-validated training")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="micro-batch size x attention mode sweep")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--m-values", type=_comma_list(int), default="64,128,256",
                   help="comma-separated micro-batch sizes")
    p.add_argument("--modes", type=_comma_list(str), default="umbot",
                   help="comma-separated attention modes")
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("km", help="Kaplan-Meier curves + log-rank from risk scores")
    p.add_argument("--risks", required=True, help="CSV with case_id,risk columns")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_km)

    p = sub.add_parser("bench", help="solver wall-clock scaling over bag sizes")
    p.add_argument("--m-values", dest="M_values", type=_comma_list(int),
                   default="2048,4096,8192",
                   help="comma-separated bag sizes")
    p.add_argument("--m", type=int, default=ExperimentConfig.micro_batch,
                   help="micro-batch size")
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def cmd_gen_synth(args) -> int:
    out = _out_path(args.out)
    bags.generate_synthetic_dataset(
        n_cases=args.n_cases, M_p=args.m_p, M_g=args.m_g, d=args.dim,
        signal_fraction=args.signal_fraction, noise_scale=args.noise_scale,
        censor_rate=args.censor_rate, seed=args.seed, output_dir=out)
    print(out / "manifest.json")
    return 0


def cmd_solve(args) -> int:
    source, target = bags.load_bag(args.source), bags.load_bag(args.target)
    settings = OTSettings(**_flag_values(args, OTSettings))
    plan = solve_batch(source.features, target.features, settings, args.solver)
    coupling_path, json_path = write_plan(plan, _out_path(args.out_prefix),
                                          solver=args.solver)
    print(coupling_path)
    print(json_path)
    return 0


def cmd_train(args) -> int:
    config = _load_effective_config(args)
    cases = training.load_cases(bags.load_manifest(args.manifest))
    out = _out_path(args.out)
    report = training.cross_validate(cases, config, out)
    print(f"c-index: {report['c_index_mean']:.4f} +/- {report['c_index_std']:.4f} "
          f"({config.folds} folds)")
    result = training.pooled_logrank(report, {c.case_id: c.record for c in cases})
    print(f"log-rank (median split of pooled validation risks): "
          f"statistic {result.statistic:.3f}, p {result.p_value:.3e}")
    print(out / "metrics.json")
    return 0


def cmd_ablate(args) -> int:
    config = _load_effective_config(args)
    cases = training.load_cases(bags.load_manifest(args.manifest))
    out = _out_path(args.out)
    training.ablation_sweep(cases, config, args.m_values, args.modes, out)
    print(out / "ablation.csv")
    return 0


def _first_ids(ids: list[str]) -> str:
    return ", ".join(ids[:5]) + (" ..." if len(ids) > 5 else "")


def cmd_km(args) -> int:
    manifest = bags.load_manifest(args.manifest)
    header, rows = bags.read_csv(args.risks)
    try:
        id_col, risk_col = header.index("case_id"), header.index("risk")
    except ValueError as exc:
        raise FormatError(f"{args.risks}: need case_id and risk columns") from exc
    risks_by_id: dict[str, float] = {}
    for line, fields in rows:
        case_id, text = fields[id_col], fields[risk_col]
        if case_id in risks_by_id:
            raise DataError(f"{args.risks}:{line}: duplicate case id {case_id!r}")
        try:
            risk = float(text)
        except ValueError as exc:
            raise FormatError(f"{args.risks}:{line}: risk {text!r} "
                              f"is not a number") from exc
        if not np.isfinite(risk):
            raise DataError(f"{args.risks}:{line}: risk {text!r} is not finite")
        risks_by_id[case_id] = risk
    missing = [c.case_id for c in manifest.cases if c.case_id not in risks_by_id]
    if missing:
        raise DataError(f"risk file misses manifest case ids: {_first_ids(missing)}")
    manifest_ids = {c.case_id for c in manifest.cases}
    unknown = [case_id for case_id in risks_by_id if case_id not in manifest_ids]
    if unknown:
        raise DataError(f"risk file has case ids not in the manifest: {_first_ids(unknown)}")
    records = manifest.records()
    risks = np.array([risks_by_id[c.case_id] for c in manifest.cases])
    groups = {name: [records[i] for i in idx]
              for name, idx in zip(("low", "high"), survival.median_split(risks))}
    result = survival.logrank(groups["low"], groups["high"])
    curves = {name: survival.km_estimate(recs) for name, recs in groups.items()}
    for path in survival.write_km_outputs(curves, result, _out_path(args.out_prefix)):
        print(path)
    return 0


def cmd_bench(args) -> int:
    rows = training.bench_solves(args.M_values, args.m, args.dim)
    out = bags.write_csv(_out_path(args.out),
                         [("M", "seconds", "instances_per_second"),
                          *((M, f"{secs:.6g}", f"{ips:.6g}") for M, secs, ips in rows)])
    print(out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OtsurvError as exc:
        print(json.dumps({"error_class": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(json.dumps({"error_class": "OSError", "message": str(exc)}),
              file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
