"""Package surface and the experiment scripts."""

import json
import subprocess
import sys
from pathlib import Path

import otsurv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, out, *extra):
    """Run a script at toy size: 20 cases, one epoch."""
    return subprocess.run([sys.executable, str(SCRIPTS / name), "--out", str(out),
                           "--n-cases", "20", "--epochs", "1", *extra],
                          capture_output=True, text=True)


def test_every_exported_name_resolves():
    missing = [name for name in otsurv.__all__ if not hasattr(otsurv, name)]
    assert missing == []
    assert len(set(otsurv.__all__)) == len(otsurv.__all__)


def test_end_to_end_script_smoke(tmp_path):
    res = run_script("run_end_to_end.py", tmp_path)
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "km_logrank.json").read_text())
    assert sum(doc["group_sizes"]) == 20


def test_ablation_script_smoke(tmp_path):
    res = run_script("run_ablation.py", tmp_path, "--m-values", "16",
                     "--modes", "umbot,dense")
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 5  # header + modes x folds
