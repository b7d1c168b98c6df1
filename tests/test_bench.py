import os
import subprocess
import sys

import pytest

import pakit
from pakit import bench, pr
from pakit.errors import DomainFault


def test_workload_is_deterministic():
    backend = pr.logpr_backend()
    first, _ = bench.workload(backend, op_count=10_000, seed=3)
    second, _ = bench.workload(backend, op_count=10_000, seed=3)
    assert first == second


def test_workload_seed_changes_the_stream():
    backend = pr.double_backend()
    a, _ = bench.workload(backend, op_count=10_000, seed=3)
    b, _ = bench.workload(backend, op_count=10_000, seed=4)
    assert a != b


def test_repetitions_share_the_stream():
    backend = pr.double_backend()
    checksum, seconds = bench.workload(backend, op_count=10_000, seed=3, repetitions=3)
    assert len(seconds) == 3
    single, _ = bench.workload(backend, op_count=10_000, seed=3)
    assert checksum == single


def test_double_and_logpr_agree_in_log_domain():
    ops = 20_000
    double_sum, _ = bench.workload(pr.double_backend(), ops, seed=11)
    logpr_sum, _ = bench.workload(pr.logpr_backend(), ops, seed=11)
    assert abs(double_sum - logpr_sum) <= 1e-6


def test_fixedlog_tracks_within_quantization():
    ops = 20_000
    double_sum, _ = bench.workload(pr.double_backend(), ops, seed=12)
    fixed_sum, _ = bench.workload(pr.fixedlog_backend(), ops, seed=12)
    folds = ops / 64 + 1
    assert abs(double_sum - fixed_sum) <= folds * 2.0  # loose: ~2 codes of drift per fold


def test_workload_rejects_bad_arguments():
    backend = pr.double_backend()
    with pytest.raises(DomainFault):
        bench.workload(backend, op_count=0, seed=1)
    with pytest.raises(DomainFault):
        bench.workload(backend, op_count=10, seed=1, repetitions=0)


def test_workload_odd_op_count():
    backend = pr.double_backend()
    checksum, _ = bench.workload(backend, op_count=101, seed=1)
    assert checksum == bench.workload(backend, op_count=102, seed=1)[0]


def test_op_count_scaling_is_roughly_linear():
    # informational only: interpreter jitter makes hard assertions flaky
    backend = pr.logpr_backend()
    _, small = bench.workload(backend, op_count=100_000, seed=2)
    _, large = bench.workload(backend, op_count=200_000, seed=2)
    print("bench linearity (informational): 2x ops took %.2fx time" % (large[0] / small[0]))


def test_run_single_backend(monkeypatch):
    monkeypatch.setenv("PA_BENCH_REPS", "1")
    results = bench.run(bench.BenchConfig(op_count=5_000, backends=("double",)))
    assert len(results) == 1
    assert results[0].backend == "double"
    assert results[0].ratio == 1.0


def test_run_orders_double_first(monkeypatch):
    monkeypatch.setenv("PA_BENCH_REPS", "1")
    results = bench.run(bench.BenchConfig(op_count=5_000, backends=("fixedlog", "double")))
    assert [r.backend for r in results] == ["double", "fixedlog"]
    assert results[0].ratio == 1.0
    assert results[1].ratio is not None


def test_run_unknown_backend_faults():
    with pytest.raises(DomainFault):
        bench.run(bench.BenchConfig(op_count=10, backends=("double", "quadruple")))


def test_format_text_includes_ordering_note(monkeypatch):
    monkeypatch.setenv("PA_BENCH_REPS", "1")
    results = bench.run(bench.BenchConfig(op_count=5_000, backends=("logpr", "fixedlog")))
    text = bench.format_text(results)
    assert "ratio(fixedlog) < ratio(logpr)" in text


def test_format_csv_parses(monkeypatch):
    monkeypatch.setenv("PA_BENCH_REPS", "1")
    results = bench.run(bench.BenchConfig(op_count=5_000, backends=("double", "logpr")))
    lines = bench.format_csv(results).splitlines()
    assert lines[0] == "backend,seconds,ratio,checksum"
    assert len(lines) == 3
    for line in lines[1:]:
        name, seconds, ratio, checksum = line.split(",")
        float(seconds), float(ratio), float(checksum)


def test_cli_text_output(monkeypatch):
    monkeypatch.setenv("PA_BENCH_REPS", "1")
    exit_code = bench.main(["--ops", "5000", "--seed", "7"])
    assert exit_code == 0


def test_cli_reports_usage_fault():
    exit_code = bench.main(["--ops", "10", "--backends", "nonsense"])
    assert exit_code == 2


def test_cli_reports_a_non_integer_repetition_count(monkeypatch, capsys):
    monkeypatch.setenv("PA_BENCH_REPS", "x")
    assert bench.main(["--ops", "30"]) == 2
    assert capsys.readouterr().err == "pa-bench: PA_BENCH_REPS must be an integer, got 'x'\n"


def test_cli_subprocess_csv():
    # Minimal environment: the CLI must need nothing from the caller's shell.
    # PYTHONPATH points at the directory holding the pakit this process
    # imported, so the child runs the same code from a checkout or an install.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(pakit.__file__)))
    completed = subprocess.run(
        [sys.executable, "-m", "pakit.bench", "--ops", "5000", "--format", "csv"],
        capture_output=True,
        text=True,
        env={"PA_BENCH_REPS": "1", "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert lines[0] == "backend,seconds,ratio,checksum"
    assert len(lines) == 5
    assert lines[1].startswith("double,")
