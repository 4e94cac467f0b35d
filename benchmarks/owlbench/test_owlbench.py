"""owlbench in --smoke mode: metric names, self-time sums, the gate.

    PYTHONPATH=src python -m pytest benchmarks/owlbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Every workload, untraced and traced, through ``python -m owlbench``."""
    out = tmp_path_factory.mktemp("owlbench") / "records.json"
    done = subprocess.run(
        [sys.executable, "-m", "owlbench", "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT / "benchmarks", capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def _runs(records, trace):
    runs = [record for record in records if record["trace"] == trace]
    assert [run["workload"] for run in runs] == \
        [workload["name"] for workload in SPEC["workloads"]]
    return runs


def test_every_declared_metric_is_emitted_with_its_unit(records):
    for trace, declared in ((0, SPEC["end_to_end"]),
                            (1, SPEC["per_layer"])):
        for run in _runs(records, trace):
            result = run["result"]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            emitted = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            assert emitted == {metric["name"]: metric["unit"]
                               for metric in declared}, run["workload"]
            assert all(NAME.match(name) for name in emitted)


def test_end_to_end_metrics_are_never_zero(records):
    for run in _runs(records, 0):
        for name, metric in run["result"]["metrics"].items():
            assert metric["value"] > 0, (run["workload"], name)


def test_traced_self_times_are_nonnegative_and_within_e2e(records):
    for run in _runs(records, 1):
        metrics = run["result"]["metrics"]
        layer_seconds = [metric["value"] for name, metric in metrics.items()
                         if metric["unit"] == "s/op"
                         and name != "e2e.lane_s"]
        assert all(value >= 0 for value in layer_seconds), run["workload"]
        assert sum(layer_seconds) <= metrics["e2e.lane_s"]["value"] * 1.0001
        assert 0 <= metrics["e2e.unattributed_frac"]["value"] <= 1


def test_tampered_reference_fails_the_run():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "detect-cold",
         "--smoke", "--seconds", "0.1", "--tamper"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "owlbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "detect-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
