"""Smoke test of the benchmark harness at toy sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

run.load_otsurv()  # puts the checkout's src first on sys.path

# Three ragged micro-batches per case (12 = 5 + 5 + 2) on the umbot path.
TOY = run.Workload("toy", n_cases=30, M_p=12, mode="umbot", micro_batch=5,
                   epoch_s=1.0, c_index_floor=0.0, floor_epochs=1, M_g=3, d=8)


def _declared(kind):
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def _emitted(record):
    return {k: m["unit"] for k, m in record["result"]["metrics"].items()}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return [run.run(TOY, seed, 1, False, work) for seed in (0, 0, 1)]


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    record = untraced[0]
    assert _emitted(record) == _declared("end_to_end")
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + run.SCORE_PASSES * TOY.n_cases
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs_and_quality(untraced):
    first, again, _ = untraced
    assert first["env"]["inputs_digest"] == again["env"]["inputs_digest"]
    assert (first["result"]["metrics"]["val_c_index"]["value"]
            == again["result"]["metrics"]["val_c_index"]["value"])


def test_other_seed_other_dataset(untraced):
    first, _, other = untraced
    assert first["env"]["inputs_digest"] != other["env"]["inputs_digest"]


def test_traced_run_emits_layers_and_restores_originals(tmp_path):
    before = {}
    for hook in tracing.HOOKS:
        module = importlib.import_module(hook.module)
        before[hook] = getattr(module, hook.attr)
    record = run.run(TOY, 0, 1, True, tmp_path)

    assert _emitted(record) == _declared("per_layer")
    assert record["result"]["correct"], record["env"]["failures"]
    metrics = {k: m["value"] for k, m in record["result"]["metrics"].items()}
    assert metrics["microbatch.batches_per_case"] == 3
    assert metrics["transport.uot_calls"] == metrics["microbatch.solve_batch_calls"] > 0
    assert 0.0 < metrics["trace_overhead_pct"] < 100.0
    assert (tmp_path / "trace-toy-0.jsonl").stat().st_size > 0
    for hook, fn in before.items():
        assert getattr(importlib.import_module(hook.module), hook.attr) is fn


def test_unresolved_hook_reports_missing_and_restores():
    module = importlib.import_module("otsurv.train")
    original = module.backward
    hooks = (tracing.Hook("otsurv.train", "backward", "autodiff.backward"),
             tracing.Hook("otsurv.train", "no_such_function", "train.case_forward"))
    tracer = tracing.Tracer()
    with tracer.installed(hooks):
        assert module.backward is not original
    assert module.backward is original
    assert tracer.missing == [hooks[1]]
    metrics = tracing.layer_metrics(tracer, "run.fold", 0.0)
    assert metrics["train.case_forward_s"][0] == tracing.MISSING
    assert metrics["autodiff.tape_nodes_per_case"][0] == tracing.MISSING
    assert metrics["autodiff.backward_s"] == (0.0, "s")


def test_changed_result_type_reads_missing(monkeypatch):
    fake = types.ModuleType("fake_transport")
    fake.solve = lambda: object()  # a result without the plan's attributes
    monkeypatch.setitem(sys.modules, "fake_transport", fake)
    uot = next(h for h in tracing.HOOKS if h.span == "transport.uot")
    tracer = tracing.Tracer()
    with tracer.installed((dataclasses.replace(uot, module="fake_transport",
                                               attr="solve"),)):
        fake.solve()
        fake.solve()
    metrics = tracing.layer_metrics(tracer, "run.fold", 0.0)
    assert metrics["transport.uot_calls"][0] == 2
    assert metrics["transport.uot_iters_p50"][0] == tracing.MISSING
    assert metrics["transport.uot_mass_mean"][0] == tracing.MISSING


def test_non_finite_loss_fails_operations_without_aborting(tmp_path, monkeypatch):
    module = importlib.import_module("otsurv.train")
    forward = module.case_forward

    def nan_loss(*args, **kwargs):
        tape, pv, _, hazards, couplings = forward(*args, **kwargs)
        return tape, pv, tape.const(float("nan")), hazards, couplings

    monkeypatch.setattr(module, "case_forward", nan_loss)
    record = run.run(TOY, 0, 1, False, tmp_path)

    result = record["result"]
    assert _emitted(record) == _declared("end_to_end")
    assert not result["correct"]
    # The fold fails, so no case of any scoring pass is scored.
    assert result["failed"] == result["attempted"] == 1 + run.SCORE_PASSES * TOY.n_cases
    assert any("NumericError" in f for f in record["env"]["failures"])
