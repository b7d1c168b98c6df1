"""Smoke test of the benchmark at a tiny size; run with `python -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.use_checkout_sources(), "the smoke test needs the checkout's src/pakit"

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = 0.02


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_and_no_failed_check(workload, trace, tmp_path):
    metrics, session = run.measure(workload, 7, 0, trace, SCALE, tmp_path)
    named = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert [name for name in named if name not in metrics] == []
    assert session.attempted > 0
    assert session.failures == []  # failed_frac == 0
    if trace:
        assert (tmp_path / ("%s-seed7.npz" % workload)).is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload, tmp_path):
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    first, _ = run.measure(workload, 5, 0, True, SCALE, tmp_path)
    second, _ = run.measure(workload, 5, 0, True, SCALE, tmp_path)
    assert {name: first[name] for name in exact} == {name: second[name] for name in exact}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
