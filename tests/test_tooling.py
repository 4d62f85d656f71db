"""Package surface, file access discipline, benchmark hooks, BLAS thread
independence and the A/B tool."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import otsurv
from otsurv.autodiff import Tape
from otsurv.bags import GenomicProfile, SurvivalRecord
from otsurv import cli
from otsurv.cli import main as otsurv_main
from otsurv.config import ExperimentConfig
from otsurv.microbatch import OTSettings, solve_batch
from otsurv.neural import init_params
from otsurv.transport import SolverSettings
from otsurv import train
from otsurv.train import CaseData, case_forward

REPO = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in otsurv.__all__ if not hasattr(otsurv, name)]
    assert missing == []
    assert len(set(otsurv.__all__)) == len(otsurv.__all__)


def test_every_tape_op_has_a_caller():
    # An op that a fusion leaves without callers is dead code: delete it.
    sources = [*(REPO / "src" / "otsurv").glob("*.py"), REPO / "tests" / "test_acceptance.py"]
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    ops = [name for name, _ in inspect.getmembers(Tape, inspect.isfunction)
           if not name.startswith("_")]
    assert ops
    assert [op for op in ops if not re.search(rf"\btape\.{op}\(", text)] == []


# The one function of src/otsurv that may make each call.
ONLY_IN = {"open": ("atomic_writer", "read_json"), "json.dump": ("write_json",),
           "json.load": ("read_json",), "csv.writer": ("write_csv",),
           "np.savetxt": ("write_csv",), "csv.reader": ("read_csv",)}


# The one file of src/otsurv that may spell each number format of its CSV
# files; write_csv applies it to every float cell.
FORMAT_ONLY_IN = {".9g": "bags.py"}


def test_csv_float_format_is_spelled_once():
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in sorted((REPO / "src" / "otsurv").glob("*.py"))}
    found = {fmt: {name: text.count(fmt) for name, text in texts.items() if fmt in text}
             for fmt in FORMAT_ONLY_IN}
    assert found == {fmt: {home: 1} for fmt, home in FORMAT_ONLY_IN.items()}


def _calls(tree, where=()):
    """Each call in ``tree`` with the names of the functions around it,
    outermost first."""
    for node in ast.iter_child_nodes(tree):
        inner = (*where, node.name) if isinstance(node, ast.FunctionDef) else where
        if isinstance(node, ast.Call):
            yield inner, node
        yield from _calls(node, inner)


def _file_access(tree):
    """(function, call) for each call in ``tree`` that reads or writes a
    file other than through the one reader or writer of its format: a call
    named in ``ONLY_IN`` outside its function, and any ``Path`` text or
    file method that bypasses them."""
    found = []
    for where, call in _calls(tree):
        name, where = ast.unparse(call.func), where[-1] if where else "<module>"
        if (name in ONLY_IN and where not in ONLY_IN[name]) or name.endswith(
                (".read_text", ".write_text", ".write_bytes", ".open")):
            found.append((where, ast.unparse(call)))
    return found


def test_every_write_goes_through_atomic_writer():
    # A file written any other way can be left half-written by a failure,
    # and a file read any other way can escape the format's checks.
    found = {p.name: _file_access(ast.parse(p.read_text(encoding="utf-8")))
             for p in sorted((REPO / "src" / "otsurv").glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


# The functions of src/otsurv that may apply the JSON type rule: the field
# check of every dataclass record, and the checkpoint reader, which keeps
# only the rule for each item of a tensor entry's shape (the entries are
# records).
TYPE_RULE_ONLY_IN = {"check_fields", "load_checkpoint"}

# The functions that read or write a manifest's fields; their records check
# the values, so a conversion here would hide a wrong one (int(4.9) is 4).
# The one conversion left parses a genomic CSV cell, which is text.
MANIFEST_IO = {"save_manifest", "load_manifest", "load_genomic_profile"}
CELL_PARSES = {"float(val)"}

# The functions that may call np.isfinite: three that test no array input (a
# risk file's cell, a case's loss, a log-sum-exp's peak).  Every array input
# goes through bags.check_values, which reads only its min and max.
FINITE_RULE_ONLY_IN = {"cmd_km", "case_loss_and_grads", "_logsumexp"}

# The functions that may build a SolverSettings: it is the arguments of a
# scaling solve and nothing else, so the simplex's plan carries none.
SETTINGS_ONLY_IN = {"sinkhorn", "unbalanced_sinkhorn"}


def test_each_input_rule_is_applied_in_one_place():
    # A record checks its fields through bags.check_fields, and its arrays
    # through bags.check_values, when it is built; a second loop over a
    # record's types, a __post_init__ that converts (int(0.7) is an observed
    # death), a hand-written finite test or a record built without its
    # checks (object.__new__) is a rule written twice or skipped.
    found = []
    for path in sorted((REPO / "src" / "otsurv").glob("*.py")):
        for where, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            name = ast.unparse(call.func)
            if ((name == "json_type_ok" and not TYPE_RULE_ONLY_IN & set(where))
                    or (name == "np.isfinite" and not FINITE_RULE_ONLY_IN & set(where))
                    or (name == "SolverSettings" and not SETTINGS_ONLY_IN & set(where))
                    or name == "object.__new__"
                    or (name in ("int", "float") and "__post_init__" in where)
                    or (name in ("int", "float") and MANIFEST_IO & set(where)
                        and ast.unparse(call) not in CELL_PARSES)):
                found.append((path.name, where, ast.unparse(call)))
    assert found == []

    # The solver's argument rules are SolverSettings' tables; the transport
    # settings that feed a solve take them as they are.
    assert OTSettings.ABOVE is SolverSettings.ABOVE
    assert OTSettings.LEAST is SolverSettings.LEAST
    # Only tau may be None: that is the balanced solve, not a missing value.
    assert [f.name for f in dataclasses.fields(SolverSettings)
            if f.type.endswith("| None")] == ["tau"]
    # Every solver takes its marginals-versus-cost shape rule from one place.
    assert sum(p.read_text(encoding="utf-8").count("do not match cost")
               for p in (REPO / "src" / "otsurv").glob("*.py")) == 1

    # A bags record with a rule table or a number field (a bool is not a
    # number, NaN is not >= 0) checks itself with check_fields.
    unchecked = []
    for cls in ast.parse((REPO / "src" / "otsurv" / "bags.py").read_text(encoding="utf-8")).body:
        if not (isinstance(cls, ast.ClassDef)
                and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)):
            continue
        tables = {t.id for node in cls.body if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name)} & {"CHOICES", "LEAST", "ABOVE"}
        numbers = [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)
                   and ast.unparse(node.annotation).removesuffix(" | None") in ("int", "float")]
        post_init = [ast.unparse(node) for node in cls.body
                     if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
        if (tables or numbers) and "check_fields(self, DataError)" not in "".join(post_init):
            unchecked.append((cls.name, sorted(tables), numbers))
    assert unchecked == []

    # A JSON object becomes a record through bags.read_record, which holds the
    # key policy (unknown, repeated and missing keys); a reader that looks its
    # keys up itself keeps a second policy.
    called = {}
    for path in sorted((REPO / "src" / "otsurv").glob("*.py")):
        for where, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            if where:
                called.setdefault(where[0], set()).add(ast.unparse(call.func))
    readers = sorted(name for name, calls in called.items() if "read_json" in calls)
    assert readers == ["load_checkpoint", "load_config", "load_manifest"]
    assert [name for name in readers if "read_record" not in called[name]] == []
    assert "fields" not in called["load_config"]

    # The checkpoint's keys are spelled once, in its records: the header,
    # neural.Checkpoint, and each of its tensor entries, neural.TensorEntry.
    neural_py = ast.parse((REPO / "src" / "otsurv" / "neural.py").read_text(encoding="utf-8"))
    keys = {"seed", "step", "n_heads", "n_encoders", "shape", "data"}
    assert [node.value for top in neural_py.body
            if not (isinstance(top, ast.ClassDef) and top.name in ("Checkpoint", "TensorEntry"))
            for node in ast.walk(top) if isinstance(node, ast.Constant) and node.value in keys] == []


def test_one_call_site_solves_a_case_s_transport_problems():
    # case_front builds a case's problems and case_head takes their plans; the
    # solves between them have one call site in training, so a window solve
    # replaces exactly that one.
    tree = ast.parse((REPO / "src" / "otsurv" / "train.py").read_text(encoding="utf-8"))
    assert {"case_front", "case_head"} <= {node.name for node in tree.body
                                           if isinstance(node, ast.FunctionDef)}
    assert sorted(where[0] for where, call in _calls(tree)
                  if ast.unparse(call.func) == "solve_batch") == ["bench_solves",
                                                                 "case_forward"]


def test_every_perfbench_hook_resolves(monkeypatch):
    # A traced benchmark reports a renamed hook target only as a "missing"
    # metric; this catches it here.
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    unresolved = [f"{h.module}.{h.attr}" for h in tracing.HOOKS
                  if not hasattr(importlib.import_module(h.module), h.attr)]
    assert unresolved == []

    rng = np.random.default_rng(0)
    plan = solve_batch(rng.standard_normal((12, 8)), rng.standard_normal((3, 8)),
                       OTSettings())
    assert set(tracing._uot_attrs(plan)) == {"iters", "converged", "log_domain", "mass"}
    profile = GenomicProfile([(f"c{j}", rng.standard_normal(4)) for j in range(3)], "x")
    case = CaseData("x", rng.standard_normal((12, 8)), profile,
                    SurvivalRecord(5.0, 0, bin=1))
    params = init_params(8, 8, profile.attr_dims(), 3, seed=0)
    result = case_forward(params, case, 5, OTSettings(), "umbot", 0)
    assert tracing._tape_attrs(result)["tape_nodes"] > 0

    # The span names and case ids come off the arguments of the program's own
    # calls: a signature edit that moves ``case`` or ``side`` must fail here,
    # not only merge spans in a traced run.
    calls = {"case_forward": [], "attention_pool_t": []}

    def spy(name, real):
        def record(*args, **kwargs):
            calls[name].append((args, kwargs))
            return real(*args, **kwargs)
        return record

    for name in calls:
        monkeypatch.setattr(train, name, spy(name, getattr(train, name)))
    train.case_loss_and_grads(params, case, 5, OTSettings(), "umbot", 0)
    train.case_risk(params, case, 5, OTSettings(), "dense", 0)
    assert [tracing._case_id(*call) for call in calls["case_forward"]] == ["x", "x"]
    assert ({tracing._pool_side(*call) for call in calls["attention_pool_t"]}
            == {"neural.attn_pool_p", "neural.attn_pool_g"})


def test_transport_settings_are_declared_once_and_flagged_alike():
    # OTSettings declares the transport problem; the config inherits it, and
    # solve and train spell, type and restrict each of its flags the same way.
    ot_fields = [f.name for f in dataclasses.fields(OTSettings)]
    assert issubclass(ExperimentConfig, OTSettings)
    assert set(ExperimentConfig.__annotations__).isdisjoint(ot_fields)
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    flags = {command: {a.dest: (a.option_strings, a.type, a.choices)
                       for a in subparsers[command]._actions if a.dest in ot_fields}
             for command in ("solve", "train")}
    assert sorted(flags["solve"]) == sorted(ot_fields)
    assert flags["solve"] == flags["train"]


def test_train_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    # At micro-batch 256 and dim 64 the projection's matmuls are large enough
    # for OpenBLAS to split them across two threads.
    data = tmp_path / "data"
    assert otsurv_main(["gen-synth", "--out", str(data), "--n-cases", "20",
                        "--m-p", "300", "--dim", "64", "--seed", "3"]) == 0
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(REPO / "src"),
                                               os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / f"threads{threads}"
        res = subprocess.run([sys.executable, "-m", "otsurv.cli", "train",
                              "--manifest", str(data / "manifest.json"),
                              "--out", str(out), "--folds", "2", "--epochs", "2",
                              "--micro-batch", "256", "--grad-accum-steps", "4"],
                             env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        runs[threads] = {p.relative_to(out).as_posix(): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()}
    assert sorted(runs["1"]) == ["fold0/checkpoint.json", "fold1/checkpoint.json",
                                 "metrics.json", "risks.csv"]
    assert runs["1"] == runs["2"]


def test_ab_tool_finds_two_copies_of_one_tree_bitwise_equal(tmp_path):
    # tools/ab.py imports each tree's otsurv from its own src; two copies of
    # this tree must train to the same FoldResult bit for bit.
    trees = [tmp_path / "a", tmp_path / "b"]
    for tree in trees:
        shutil.copytree(REPO / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, str(REPO / "tools" / "ab.py"), *map(str, trees),
                          "--workload", "acceptance_dense", "--rounds", "1", "--epochs", "1"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "FoldResults bitwise equal: yes" in res.stdout
    assert re.search(r"^parent fold_s median \d", res.stdout, re.M)
    assert re.search(r"^change fold_s median \d", res.stdout, re.M)
