"""Configuration round-trips and the command-line surface."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from failing_writes import fail_writes_to, files_under
from otsurv import cli, errors
from otsurv.config import ExperimentConfig, load_config
from otsurv.bags import load_bag
from otsurv.errors import ConfigError, ParameterError
from otsurv.microbatch import OTSettings, solve_batch

CLI = [sys.executable, "-m", "otsurv.cli"]


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([*CLI, *map(str, args)], capture_output=True,
                          text=True, env=env, cwd=cwd)


def write_config(config, path):
    """A config file as a user writes it: the fields as one JSON object."""
    path.write_text(json.dumps(dataclasses.asdict(config)))
    return path


# ---------------------------------------------------------------------------
# Config


def test_config_defaults_match_protocol():
    cfg = ExperimentConfig()
    assert cfg.micro_batch == 256
    assert cfg.tau == 0.5
    assert cfg.epsilon == 0.05
    assert cfg.epochs == 20
    assert cfg.lr == 2e-4
    assert cfg.weight_decay == 1e-5
    assert cfg.grad_accum_steps == 32
    assert cfg.folds == 5
    assert cfg.bins == 4
    assert cfg.attention_mode == "umbot"


def test_config_roundtrip_lossless(tmp_path):
    cfg = ExperimentConfig(seed=9, epsilon=0.1, attention_mode="dense",
                           normalize_cost=False)
    path = write_config(cfg, tmp_path / "c.json")
    assert load_config(path) == cfg


def test_config_unknown_key_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "learning_rate": 0.1}))
    with pytest.raises(ConfigError, match="learning_rate"):
        load_config(path)


def test_config_not_utf8_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="bad.json"):
        load_config(path)


def test_config_invalid_values_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(attention_mode="fancy")
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilon=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(tau=-0.5)


@pytest.mark.parametrize("key, value", [
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("tau", float("inf")),
    ("tau", float("nan")), ("lr", float("nan")), ("lr", -1.0),
    ("weight_decay", -0.5), ("weight_decay", float("inf")),
])
def test_config_rejects_non_finite_and_negative_rates(key, value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{key: value})


@pytest.mark.parametrize("args, field", [
    (["train", "--lr", "nan"], "lr"), (["train", "--epsilon", "nan"], "epsilon"),
    (["solve", "--tau", "inf"], "tau"), (["solve", "--epsilon", "nan"], "epsilon"),
    (["solve", "--epsilon", "inf"], "epsilon"),
], ids=["train-lr-nan", "train-epsilon-nan", "solve-tau-inf", "solve-epsilon-nan",
        "solve-epsilon-inf"])
def test_cli_non_finite_setting_is_parameter_error(tmp_path, capsys, args, field):
    data = tmp_path / "data"
    assert cli.main(["gen-synth", "--out", str(data), "--n-cases", "10", "--m-p", "7",
                     "--m-g", "3", "--dim", "5", "--seed", "4"]) == 0
    inputs = {"train": ["--manifest", str(data / "manifest.json"), "--out",
                        str(tmp_path / "run"), "--folds", "2", "--epochs", "1",
                        "--bins", "2"],
              "solve": ["--source", str(data / "case_0000_path.fbag"), "--target",
                        str(data / "case_0001_path.fbag"),
                        "--out-prefix", str(tmp_path / "run" / "plan")]}
    assert cli.main([*args, *inputs[args[0]]]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert issubclass(getattr(errors, err["error_class"]), errors.ParameterError)
    assert field in err["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [
    ("epochs", "x"), ("epochs", 2.5), ("micro_batch", 3.7), ("lr", "0.1"),
    ("normalize_cost", "no"), ("seed", True), ("lr", False), ("attention_mode", 1),
])
def test_config_wrong_type_named_with_file(tmp_path, key, value):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=f"typed.json.*{key}"):
        load_config(path)


def test_config_float_field_takes_int_unconverted(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"lr": 1, "tau": 0}))
    cfg = load_config(path)
    assert (type(cfg.lr), cfg.lr, type(cfg.tau)) == (int, 1, int)


def test_flags_win_over_config_file(tmp_path):
    path = write_config(ExperimentConfig(seed=1, epochs=5), tmp_path / "c.json")
    args = cli.build_parser().parse_args(["train", "--manifest", "m", "--out", "o",
                                          "--config", str(path), "--epochs", "7"])
    assert cli._load_effective_config(args) == ExperimentConfig(seed=1, epochs=7)


@pytest.mark.parametrize("key, value", [
    ("epsilon", float("inf")), ("epsilon", float("nan")), ("epsilon", 0),
    ("epsilon", -1), ("tau", float("inf")), ("tau", -1), ("cost_metric", "bogus"),
    ("normalize_cost", "no"),
])
def test_ot_settings_reject_a_value_outside_its_domain(key, value):
    with pytest.raises(ParameterError, match=key):
        OTSettings(**{key: value})


# ---------------------------------------------------------------------------
# CLI commands


def test_cli_gen_synth_smoke_and_determinism(tmp_path):
    res1 = run_cli("gen-synth", "--out", tmp_path / "a", "--n-cases", 12,
                   "--m-p", 8, "--m-g", 3, "--dim", 8, "--seed", 4)
    assert res1.returncode == 0, res1.stderr
    assert (tmp_path / "a" / "manifest.json").exists()
    res2 = run_cli("gen-synth", "--out", tmp_path / "b", "--n-cases", 12,
                   "--m-p", 8, "--m-g", 3, "--dim", 8, "--seed", 4)
    assert res2.returncode == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_cli_gen_synth_unwritable_dir(tmp_path):
    # a path through a regular file cannot be created (works even as root,
    # where permission bits would not stop the write)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    target = blocker / "sub"
    res = run_cli("gen-synth", "--out", target)
    assert res.returncode != 0
    assert str(target) in res.stderr or str(target) in res.stdout


def write_bag_csv(path, matrix):
    header = ",".join(f"f{j}" for j in range(matrix.shape[1]))
    np.savetxt(path, matrix, delimiter=",", header=header, comments="", fmt="%.9g")


def test_cli_solve_zero_cost_uniform(tmp_path):
    rng = np.random.default_rng(0)
    row = rng.standard_normal((1, 3))
    write_bag_csv(tmp_path / "s.csv", np.tile(row, (2, 1)))
    write_bag_csv(tmp_path / "t.csv", np.tile(row, (2, 1)))
    res = run_cli("solve", "--source", tmp_path / "s.csv", "--target",
                  tmp_path / "t.csv", "--solver", "sinkhorn",
                  "--epsilon", 0.1, "--out-prefix", tmp_path / "plan")
    assert res.returncode == 0, res.stderr
    coupling = np.loadtxt(tmp_path / "plan_coupling.csv", delimiter=",")
    assert np.allclose(coupling, 0.25, atol=1e-9)


def test_cli_solve_uot_tau_zero_closed_form(tmp_path):
    rng = np.random.default_rng(1)
    src = rng.standard_normal((3, 4))
    tgt = rng.standard_normal((2, 4))
    write_bag_csv(tmp_path / "s.csv", src)
    write_bag_csv(tmp_path / "t.csv", tgt)
    res = run_cli("solve", "--source", tmp_path / "s.csv", "--target",
                  tmp_path / "t.csv", "--solver", "uot", "--tau", 0.0,
                  "--epsilon", 0.2, "--out-prefix", tmp_path / "plan")
    assert res.returncode == 0, res.stderr
    coupling = np.loadtxt(tmp_path / "plan_coupling.csv", delimiter=",")
    from otsurv.transport import build_cost, normalize_cost

    # CSV round-trip quantizes the bags at 9 significant digits
    src_q = np.loadtxt(tmp_path / "s.csv", delimiter=",", skiprows=1)
    tgt_q = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
    C = normalize_cost(build_cost(src_q, tgt_q, "l2")).values
    want = np.outer(np.full(3, 1 / 3), np.full(2, 1 / 2)) * np.exp(-C / 0.2)
    assert np.allclose(coupling, want, atol=1e-9)


def test_cli_solve_emd_objective_matches_json(tmp_path):
    rng = np.random.default_rng(2)
    src = rng.standard_normal((4, 3))
    tgt = rng.standard_normal((3, 3))
    write_bag_csv(tmp_path / "s.csv", src)
    write_bag_csv(tmp_path / "t.csv", tgt)
    res = run_cli("solve", "--source", tmp_path / "s.csv", "--target",
                  tmp_path / "t.csv", "--solver", "emd",
                  "--out-prefix", tmp_path / "plan")
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "plan_plan.json").read_text())
    coupling = np.loadtxt(tmp_path / "plan_coupling.csv", delimiter=",")

    from oracles import lp_transport

    src_q = np.loadtxt(tmp_path / "s.csv", delimiter=",", skiprows=1)
    tgt_q = np.loadtxt(tmp_path / "t.csv", delimiter=",", skiprows=1)
    from otsurv.transport import build_cost, normalize_cost

    C = normalize_cost(build_cost(src_q, tgt_q, "l2")).values
    want = lp_transport(C, np.full(4, 0.25), np.full(3, 1 / 3))
    assert doc["objective_value"] == pytest.approx(want, abs=1e-9)
    assert np.sum(coupling * C) == pytest.approx(want, abs=1e-8)
    # The simplex uses no epsilon, tau or tolerance, so it records none.
    assert doc["settings"] is None and doc["objective_regularized"] is None


def test_cli_solve_reads_fbag_bags(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["gen-synth", "--out", str(data), "--n-cases", "10", "--m-p", "7",
                     "--m-g", "3", "--dim", "5", "--seed", "4"]) == 0
    source, target = data / "case_0000_path.fbag", data / "case_0001_path.fbag"
    assert cli.main(["solve", "--source", str(source), "--target", str(target),
                     "--out-prefix", str(tmp_path / "plan")]) == 0
    coupling = np.loadtxt(tmp_path / "plan_coupling.csv", delimiter=",")
    plan = solve_batch(load_bag(source).features, load_bag(target).features, OTSettings())
    assert coupling.shape == (7, 7)
    assert np.allclose(coupling, plan.coupling, rtol=1e-11, atol=0)


@pytest.mark.parametrize("args", [
    ["bench", "--dim", "-1", "--m-values", "64"],
    ["bench", "--dim", "0", "--m-values", "64"],
    ["bench", "--m-values", "64,-5"],
    ["gen-synth", "--dim", "-2"],
    ["gen-synth", "--dim", "0"],
], ids=["bench-dim-negative", "bench-dim-zero", "bench-m-negative",
        "gen-synth-dim-negative", "gen-synth-dim-zero"])
def test_cli_size_below_one_is_parameter_error(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error_class"] == "ParameterError"
    assert not out.exists()


def test_cli_solve_cost_metric_flag_writes_its_plan(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["gen-synth", "--out", str(data), "--n-cases", "10", "--m-p", "7",
                     "--m-g", "3", "--dim", "5", "--seed", "4"]) == 0
    source, target = data / "case_0000_path.fbag", data / "case_0001_path.fbag"
    assert cli.main(["solve", "--source", str(source), "--target", str(target),
                     "--cost-metric", "squared_l2", "--solver", "sinkhorn",
                     "--out-prefix", str(tmp_path / "plan")]) == 0
    coupling = np.loadtxt(tmp_path / "plan_coupling.csv", delimiter=",")
    plan = solve_batch(load_bag(source).features, load_bag(target).features,
                       OTSettings(cost_metric="squared_l2"), "sinkhorn")
    other = solve_batch(load_bag(source).features, load_bag(target).features,
                        OTSettings(), "sinkhorn")
    assert np.allclose(coupling, plan.coupling, rtol=1e-11, atol=0)
    assert not np.allclose(coupling, other.coupling, rtol=1e-6, atol=0)


def test_cli_solve_missing_file_exit_code(tmp_path):
    res = run_cli("solve", "--source", tmp_path / "nope.csv", "--target",
                  tmp_path / "nope.csv", "--out-prefix", tmp_path / "p")
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_class"] == "FormatError"


def test_cli_train_km_roundtrip(tmp_path):
    gen = run_cli("gen-synth", "--out", tmp_path / "data", "--n-cases", 20,
                  "--m-p", 8, "--m-g", 3, "--dim", 8, "--seed", 6)
    assert gen.returncode == 0, gen.stderr
    res = run_cli("train", "--manifest", tmp_path / "data" / "manifest.json",
                  "--out", tmp_path / "run", "--folds", 2, "--epochs", 1,
                  "--micro-batch", 4, "--bins", 3, "--grad-accum-steps", 8)
    assert res.returncode == 0, res.stderr
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert len(metrics["per_fold"]) == 2
    assert 0.0 <= metrics["c_index_mean"] <= 1.0

    km = run_cli("km", "--risks", tmp_path / "run" / "risks.csv",
                 "--manifest", tmp_path / "data" / "manifest.json",
                 "--out-prefix", tmp_path / "run" / "km")
    assert km.returncode == 0, km.stderr
    assert (tmp_path / "run" / "km_km_low.csv").exists()
    assert (tmp_path / "run" / "km_km_high.csv").exists()
    logrank_doc = json.loads((tmp_path / "run" / "km_logrank.json").read_text())
    assert 0.0 <= logrank_doc["p_value"] <= 1.0
    assert sum(logrank_doc["group_sizes"]) == 20


def test_cli_km_missing_ids(tmp_path):
    gen = run_cli("gen-synth", "--out", tmp_path / "data", "--n-cases", 12,
                  "--m-p", 6, "--m-g", 3, "--dim", 6, "--seed", 7)
    assert gen.returncode == 0
    risks = tmp_path / "risks.csv"
    risks.write_text("case_id,risk\ncase_0000,1.0\n")
    res = run_cli("km", "--risks", risks,
                  "--manifest", tmp_path / "data" / "manifest.json",
                  "--out-prefix", tmp_path / "km")
    assert res.returncode == 3
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert "case_0001" in err["message"]


def test_cli_ablate_row_counts(tmp_path):
    gen = run_cli("gen-synth", "--out", tmp_path / "data", "--n-cases", 16,
                  "--m-p", 6, "--m-g", 3, "--dim", 8, "--seed", 8)
    assert gen.returncode == 0
    res = run_cli("ablate", "--manifest", tmp_path / "data" / "manifest.json",
                  "--out", tmp_path / "abl", "--m-values", "3,6",
                  "--modes", "umbot,dense", "--folds", 2, "--epochs", 1,
                  "--bins", 3, "--grad-accum-steps", 8)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "abl" / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "mode,m,fold,c_index,status"
    assert len(lines) == 1 + 2 * 2 * 2  # modes x sizes x folds


def test_cli_bench_schema(tmp_path):
    res = run_cli("bench", "--m-values", "64,128", "--m", 32, "--dim", 8,
                  "--out", tmp_path / "bench.csv")
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "M,seconds,instances_per_second"
    assert len(lines) == 3
    assert all(len(ln.split(",")) == 3 for ln in lines)


def test_cli_failed_bench_write_keeps_previous_csv(tmp_path, monkeypatch, capsys):
    args = ["bench", "--m-values", "64,96,128", "--m", 32, "--dim", 4,
            "--out", tmp_path / "out" / "bench.csv"]
    assert cli.main(list(map(str, args))) == 0
    before = files_under(tmp_path)
    fail_writes_to(monkeypatch, tmp_path / "out" / "bench.csv")
    assert cli.main(list(map(str, args))) == 3
    monkeypatch.undo()
    assert files_under(tmp_path) == before
    assert "No space left" in capsys.readouterr().err


def _flag_value(field):
    """A valid value other than the default, as a flag and as the config holds it."""
    default = getattr(ExperimentConfig(), field.name)
    if field.name in ExperimentConfig.CHOICES:
        value = ExperimentConfig.CHOICES[field.name][-1]
        return [value], value
    if field.type == "bool":
        return [], not default
    value = default * 2 if field.type == "float" else default + 3
    return [str(value)], value


# The fields each ablation cell sets from --m-values and --modes; ablate has
# no flag for them.
ABLATE_SWEEPS = ("micro_batch", "attention_mode")


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig),
                         ids=lambda f: f.name)
def test_config_flag_for_every_field(field):
    words, value = _flag_value(field)
    flag = "--" + field.name.replace("_", "-")
    if field.type == "bool":
        flag = flag if value else "--no-" + flag[2:]
    for command in ("train", "ablate"):
        argv = [command, "--manifest", "m", "--out", "o", flag, *words]
        if command == "ablate" and field.name in ABLATE_SWEEPS:
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2
            continue
        args = cli.build_parser().parse_args(argv)
        assert cli._load_effective_config(args) == \
            dataclasses.replace(ExperimentConfig(), **{field.name: value})


def test_ablate_config_file_may_set_the_swept_fields(tmp_path):
    # One config file may serve train and ablate; ablate's cells then set
    # both fields from --m-values and --modes.
    path = write_config(ExperimentConfig(micro_batch=7, attention_mode="dense"),
                        tmp_path / "c.json")
    args = cli.build_parser().parse_args(["ablate", "--manifest", "m", "--out", "o",
                                          "--config", str(path)])
    config = cli._load_effective_config(args)
    assert (config.micro_batch, config.attention_mode) == (7, "dense")


def test_config_flags_keep_their_types_and_choices():
    train = cli.build_parser()._subparsers._group_actions[0].choices["train"]
    flags = {a.dest: (a.option_strings, a.type, a.choices)
             for a in train._actions if a.dest not in ("help", "manifest", "out", "config")}
    assert flags == {
        "seed": (["--seed"], int, None), "folds": (["--folds"], int, None),
        "micro_batch": (["--micro-batch"], int, None),
        "epsilon": (["--epsilon"], float, None), "tau": (["--tau"], float, None),
        "epochs": (["--epochs"], int, None), "lr": (["--lr"], float, None),
        "weight_decay": (["--weight-decay"], float, None),
        "grad_accum_steps": (["--grad-accum-steps"], int, None),
        "bins": (["--bins"], int, None),
        "attention_mode": (["--attention-mode"], None, ("umbot", "emd", "dense")),
        "cost_metric": (["--cost-metric"], None, ("l2", "squared_l2", "cosine_distance")),
        "normalize_cost": (["--normalize-cost", "--no-normalize-cost"], None, None),
    }


def test_cli_out_root_env_var(tmp_path):
    res = run_cli("gen-synth", "--out", "rel_data", "--n-cases", 12,
                  "--m-p", 6, "--m-g", 3, "--dim", 6, "--seed", 9,
                  env_extra={"OTSURV_OUT_ROOT": str(tmp_path)})
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "rel_data" / "manifest.json").exists()


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    write_config(ExperimentConfig(folds=2, epochs=1, micro_batch=4, bins=3,
                                 grad_accum_steps=8), cfg_path)
    gen = run_cli("gen-synth", "--out", tmp_path / "data", "--n-cases", 14,
                  "--m-p", 6, "--m-g", 3, "--dim", 8, "--seed", 10)
    assert gen.returncode == 0
    res = run_cli("train", "--manifest", tmp_path / "data" / "manifest.json",
                  "--out", tmp_path / "run", "--config", cfg_path, "--seed", 5)
    assert res.returncode == 0, res.stderr
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics["config"]["folds"] == 2
    assert metrics["config"]["seed"] == 5


def test_every_error_class_exits_with_the_code_in_the_readme(monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for row in readme.read_text(encoding="utf-8").splitlines():
        code = re.match(r"\| (\d) \|", row)
        if code:
            table.update((name, int(code[1])) for name in re.findall(r"`(\w+)`", row))
    classes = {name: cls for name, cls in vars(errors).items()
               if isinstance(cls, type) and issubclass(cls, errors.OtsurvError)}
    assert {name: table.get(name) for name in classes} == \
        {name: cls.exit_code for name, cls in classes.items()}
    for name, cls in [*classes.items(), ("OSError", OSError)]:
        def fail(args, cls=cls):
            raise cls("boom")
        monkeypatch.setattr(cli, "cmd_km", fail)
        assert cli.main(["km", "--risks", "r", "--manifest", "m",
                         "--out-prefix", "o"]) == table[name], name


def test_cli_bad_config_key_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"bogus_key": 1}')
    res = run_cli("train", "--manifest", tmp_path / "none.json",
                  "--out", tmp_path / "run", "--config", cfg_path)
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert "bogus_key" in err["message"]


def test_cli_config_wrong_type_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"epochs": "x"}')
    res = run_cli("train", "--manifest", tmp_path / "none.json",
                  "--out", tmp_path / "run", "--config", cfg_path)
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_class"] == "ConfigError"
    assert "cfg.json" in err["message"] and "epochs" in err["message"]


def test_cli_config_not_utf8_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b"\xff\xfe{}")
    res = run_cli("train", "--manifest", tmp_path / "none.json",
                  "--out", tmp_path / "run", "--config", cfg_path)
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_class"] == "ConfigError" and "cfg.json" in err["message"]


def km_inputs(tmp_path):
    """A 12-case dataset and a complete risks file for it."""
    gen = run_cli("gen-synth", "--out", tmp_path / "data", "--n-cases", 12,
                  "--m-p", 6, "--m-g", 3, "--dim", 6, "--seed", 7)
    assert gen.returncode == 0, gen.stderr
    manifest = tmp_path / "data" / "manifest.json"
    ids = [c["case_id"] for c in json.loads(manifest.read_text())["cases"]]
    rows = "".join(f"{cid},{k / 10}\n" for k, cid in enumerate(ids))
    return manifest, ids, "case_id,risk\n" + rows


def test_cli_km_short_row_is_format_error(tmp_path):
    manifest, ids, text = km_inputs(tmp_path)
    risks = tmp_path / "risks.csv"
    risks.write_text(text + f"{ids[0]}\n")
    res = run_cli("km", "--risks", risks, "--manifest", manifest,
                  "--out-prefix", tmp_path / "km")
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_class"] == "FormatError"
    assert f"risks.csv:{len(ids) + 2}" in err["message"]


def test_cli_km_duplicate_case_id_is_data_error(tmp_path):
    manifest, ids, text = km_inputs(tmp_path)
    risks = tmp_path / "risks.csv"
    risks.write_text(text + f"{ids[3]},9.0\n")
    res = run_cli("km", "--risks", risks, "--manifest", manifest,
                  "--out-prefix", tmp_path / "km")
    assert res.returncode == 3
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_class"] == "DataError"
    assert ids[3] in err["message"]


def test_cli_km_case_id_not_in_manifest_is_data_error(tmp_path):
    manifest, ids, text = km_inputs(tmp_path)
    risks = tmp_path / "risks.csv"
    risks.write_text(text + "case_stray,0.3\n")
    res = run_cli("km", "--risks", risks, "--manifest", manifest,
                  "--out-prefix", tmp_path / "km")
    assert res.returncode == 3
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_class"] == "DataError"
    assert err["message"] == "risk file has case ids not in the manifest: case_stray"
    assert not list(tmp_path.glob("km_*"))


def test_cli_km_non_numeric_risk_is_format_error(tmp_path):
    manifest, ids, text = km_inputs(tmp_path)
    risks = tmp_path / "risks.csv"
    risks.write_text(text.replace(f"{ids[2]},0.2", f"{ids[2]},abc"))
    res = run_cli("km", "--risks", risks, "--manifest", manifest,
                  "--out-prefix", tmp_path / "km")
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_class"] == "FormatError"
    assert "risks.csv:4" in err["message"] and "abc" in err["message"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_km_non_finite_risk_is_data_error(tmp_path, value):
    manifest, ids, text = km_inputs(tmp_path)
    risks = tmp_path / "risks.csv"
    risks.write_text(text.replace(f"{ids[5]},0.5", f"{ids[5]},{value}"))
    res = run_cli("km", "--risks", risks, "--manifest", manifest,
                  "--out-prefix", tmp_path / "km")
    assert res.returncode == 3
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_class"] == "DataError"
    assert "risks.csv:7" in err["message"]
    assert not list(tmp_path.glob("km_*"))


def test_cli_km_long_row_is_format_error(tmp_path):
    manifest, ids, text = km_inputs(tmp_path)
    risks = tmp_path / "risks.csv"
    risks.write_text(text.replace(f"{ids[1]},0.1", f"{ids[1]},0.1,7"))
    res = run_cli("km", "--risks", risks, "--manifest", manifest,
                  "--out-prefix", tmp_path / "km")
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_class"] == "FormatError"
    assert "risks.csv:3: 3 fields, header has 2" in err["message"]


def test_cli_km_missing_risks_is_format_error(tmp_path, capsys):
    manifest, _, _ = km_inputs(tmp_path)
    assert cli.main(["km", "--risks", str(tmp_path / "nope.csv"), "--manifest",
                     str(manifest), "--out-prefix", str(tmp_path / "km")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error_class"] == "FormatError" and "nope.csv" in err["message"]


def test_cli_km_reads_crlf_risks(tmp_path):
    # risks.csv as earlier versions of `otsurv train` wrote it
    manifest, _, text = km_inputs(tmp_path)
    for name, line_end in (("lf", "\n"), ("crlf", "\r\n")):
        risks = tmp_path / f"risks_{name}.csv"
        risks.write_bytes(text.replace("\n", line_end).encode())
        res = run_cli("km", "--risks", risks, "--manifest", manifest,
                      "--out-prefix", tmp_path / name / "km")
        assert res.returncode == 0, res.stderr
    outputs = [{p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
               for name in ("lf", "crlf")]
    assert outputs[0] == outputs[1] and len(outputs[0]) == 3


def test_cli_train_km_case_id_with_comma(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["gen-synth", "--out", str(data), "--n-cases", "16", "--m-p", "6",
                     "--m-g", "3", "--dim", "8", "--seed", "7"]) == 0
    doc = json.loads((data / "manifest.json").read_text())
    doc["cases"][0]["case_id"] = "case,0"
    doc["cases"][1]["case_id"] = "case\n1"
    (data / "manifest.json").write_text(json.dumps(doc))
    assert cli.main(["train", "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "run"), "--folds", "2", "--epochs", "1",
                     "--micro-batch", "4", "--bins", "3", "--grad-accum-steps", "8"]) == 0
    risks = (tmp_path / "run" / "risks.csv").read_text()
    assert '"case,0"' in risks and '"case\n1"' in risks
    assert cli.main(["km", "--risks", str(tmp_path / "run" / "risks.csv"),
                     "--manifest", str(data / "manifest.json"),
                     "--out-prefix", str(tmp_path / "km")]) == 0, capsys.readouterr().err
    doc = json.loads((tmp_path / "km_logrank.json").read_text())
    assert sum(doc["group_sizes"]) == 16


@pytest.mark.parametrize("command", ["train", "solve", "km"])
def test_cli_csv_input_not_utf8_exit_code(tmp_path, capsys, command):
    manifest, _, text = km_inputs(tmp_path)
    if command == "train":
        bad = tmp_path / "data" / "case_0002_genomic.csv"
        args = ["--manifest", manifest, "--out", tmp_path / "run"]
    elif command == "solve":
        bad = tmp_path / "s.csv"
        write_bag_csv(bad, np.ones((3, 2)))
        args = ["--source", bad, "--target", bad, "--out-prefix", tmp_path / "p"]
    else:
        bad = tmp_path / "risks.csv"
        bad.write_text(text)
        args = ["--risks", bad, "--manifest", manifest, "--out-prefix", tmp_path / "km"]
    bad.write_bytes(bad.read_bytes() + b"\xff\xfe\n")
    assert cli.main([command, *map(str, args)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error_class"] == "FormatError"
    assert f"{bad.name}: not valid UTF-8" in err["message"]


ABLATE = ["ablate", "--manifest", "m", "--out", "o"]


@pytest.mark.parametrize("args, item_type", [
    (ABLATE + ["--m-values", "16,abc"], "int"),
    (["bench", "--out", "o", "--m-values", "64,x"], "int"),
    (ABLATE + ["--m-values", ""], "int"),
    (ABLATE + ["--m-values", ","], "int"),
    (ABLATE + ["--modes", ""], "str"),
    (ABLATE + ["--modes", ","], "str"),
    (["bench", "--out", "o", "--m-values", ""], "int"),
    (["bench", "--out", "o", "--m-values", ","], "int"),
], ids=["ablate", "bench", "ablate-m-values-empty", "ablate-m-values-comma",
        "ablate-modes-empty", "ablate-modes-comma", "bench-empty", "bench-comma"])
def test_cli_bad_comma_list_item_is_usage_error(args, item_type, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    assert (f"argument {args[-2]}: invalid comma-separated {item_type} value: "
            f"'{args[-1]}'") in capsys.readouterr().err


def test_cli_comma_lists_parse_to_lists():
    parse = cli.build_parser().parse_args
    args = parse(["ablate", "--manifest", "m", "--out", "o"])
    assert (args.m_values, args.modes) == ([64, 128, 256], ["umbot"])
    args = parse(["ablate", "--manifest", "m", "--out", "o", "--m-values", " 16, 32,",
                  "--modes", "umbot, dense"])
    assert (args.m_values, args.modes) == ([16, 32], ["umbot", "dense"])
    assert parse(["bench", "--out", "o"]).M_values == [2048, 4096, 8192]


def test_cli_ablate_unknown_mode_exit_code(tmp_path):
    gen = run_cli("gen-synth", "--out", tmp_path / "data", "--n-cases", 12,
                  "--m-p", 6, "--m-g", 3, "--dim", 6, "--seed", 8)
    assert gen.returncode == 0, gen.stderr
    res = run_cli("ablate", "--manifest", tmp_path / "data" / "manifest.json",
                  "--out", tmp_path / "abl", "--modes", "fancy")
    assert res.returncode == 2
    err = json.loads(res.stderr.strip().splitlines()[-1])
    assert err["error_class"] == "ConfigError"
    assert "fancy" in err["message"]
    assert not (tmp_path / "abl" / "ablation.csv").exists()
