import itertools
import os
import random
import subprocess
import sys

import pytest

import pakit
from pakit import bench, pr
from pakit.errors import DomainFault


def test_workload_is_deterministic():
    backend = pr.LOGPR
    first, _ = bench.workload(backend, op_count=10_000, seed=3)
    second, _ = bench.workload(backend, op_count=10_000, seed=3)
    assert first == second


def test_workload_seed_changes_the_stream():
    backend = pr.DOUBLE
    a, _ = bench.workload(backend, op_count=10_000, seed=3)
    b, _ = bench.workload(backend, op_count=10_000, seed=4)
    assert a != b


def single_pass(backend, op_count, seed):
    """The benchmark's chain run once over the whole stream, with no chunks and no repetitions."""
    rng = random.Random(seed)
    pairs = [(rng.uniform(0.05, 0.95), rng.random() * 0.99 + 0.01) for _ in range((op_count + 2) // 3)]
    accumulator, checksum = backend.one, 0.0
    for step, (w, x) in enumerate(pairs, 1):
        w, rest, x = backend.from_real(w), backend.from_real(1.0 - w), backend.from_real(x)
        accumulator = backend.add(backend.mul(accumulator, w), backend.mul(x, rest))
        if step % 32 == 0:
            checksum += backend.neg_ln(accumulator)
    return checksum + backend.neg_ln(accumulator)


def test_repetitions_share_the_stream():
    backend = pr.DOUBLE
    checksum, seconds = bench.workload(backend, op_count=30_000, seed=3)  # 10,000 steps: three chunks
    assert len(seconds) == bench.REPETITIONS == 3
    assert all(s > 0.0 for s in seconds)
    assert checksum == single_pass(backend, 30_000, seed=3)


def test_repetitions_that_diverge_are_refused():
    calls = itertools.count()
    drifting = pr.DOUBLE._replace(add=lambda a, b: min(1.0, a + b + 1e-12 * next(calls)))
    with pytest.raises(AssertionError, match="repetitions diverged"):
        bench.workload(drifting, op_count=300, seed=1)


def test_double_and_logpr_agree_in_log_domain():
    ops = 20_000
    double_sum, _ = bench.workload(pr.DOUBLE, ops, seed=11)
    logpr_sum, _ = bench.workload(pr.LOGPR, ops, seed=11)
    assert abs(double_sum - logpr_sum) <= 1e-6


def test_fixedlog_tracks_within_quantization():
    ops = 20_000
    double_sum, _ = bench.workload(pr.DOUBLE, ops, seed=12)
    fixed_sum, _ = bench.workload(pr.FIXEDLOG, ops, seed=12)
    folds = ops / 64 + 1
    assert abs(double_sum - fixed_sum) <= folds * 2.0  # loose: ~2 codes of drift per fold


def test_workload_rejects_bad_arguments():
    backend = pr.DOUBLE
    with pytest.raises(DomainFault):
        bench.workload(backend, op_count=0, seed=1)


def test_workload_odd_op_count():
    backend = pr.DOUBLE
    checksum, _ = bench.workload(backend, op_count=101, seed=1)
    assert checksum == bench.workload(backend, op_count=102, seed=1)[0]


def test_op_count_scaling_is_roughly_linear():
    # informational only: interpreter jitter makes hard assertions flaky
    backend = pr.LOGPR
    _, small = bench.workload(backend, op_count=100_000, seed=2)
    _, large = bench.workload(backend, op_count=200_000, seed=2)
    print("bench linearity (informational): 2x ops took %.2fx time" % (large[0] / small[0]))


def test_run_single_backend():
    results = bench.run(op_count=5_000, backends=("double",))
    assert len(results) == 1
    assert results[0].backend == "double"
    assert results[0].ratio == 1.0


def test_run_orders_double_first():
    results = bench.run(op_count=5_000, backends=("fixedlog", "double"))
    assert [r.backend for r in results] == ["double", "fixedlog"]
    assert results[0].ratio == 1.0
    assert results[1].ratio is not None


def test_run_unknown_backend_faults():
    with pytest.raises(DomainFault, match=r"^unknown backend name\(s\): quadruple$"):
        bench.run(op_count=10, backends=("double", "quadruple"))


def test_run_with_no_backend_faults():
    with pytest.raises(DomainFault, match="^no backend selected$"):
        bench.run(op_count=10, backends=())


def test_format_text_includes_ordering_note():
    results = bench.run(op_count=5_000, backends=("logpr", "fixedlog"))
    text = bench.format_text(results)
    assert "ratio(fixedlog) < ratio(logpr)" in text


def test_format_csv_parses():
    results = bench.run(op_count=5_000, backends=("double", "logpr"))
    lines = bench.format_csv(results).splitlines()
    assert lines[0] == "backend,seconds,ratio,checksum"
    assert len(lines) == 3
    for line in lines[1:]:
        name, seconds, ratio, checksum = line.split(",")
        float(seconds), float(ratio), float(checksum)


def test_run_pins_the_checksums_of_every_backend():
    lines = bench.format_csv(bench.run(op_count=30_000, seed=1)).splitlines()
    assert lines[0] == "backend,seconds,ratio,checksum"
    rows = [line.split(",") for line in lines[1:]]
    assert [(name, checksum) for name, _, _, checksum in rows] == [
        ("double", "239.249076"),
        ("logpr", "239.249076"),
        ("balanced", "239.249076"),
        ("fixedlog", "239.249298"),
    ]
    assert rows[0][2] == "1.000000"


def test_cli_text_output():
    exit_code = bench.main(["--ops", "5000", "--seed", "7"])
    assert exit_code == 0


def test_cli_reports_usage_fault():
    exit_code = bench.main(["--ops", "10", "--backends", "nonsense"])
    assert exit_code == 2


def test_cli_refuses_an_empty_selection(capsys):
    assert bench.main(["--ops", "30", "--backends", ","]) == 2
    assert capsys.readouterr() == ("", "pa-bench: no backend selected\n")


def test_cli_subprocess_csv():
    # Minimal environment: the CLI must need nothing from the caller's shell.
    # PYTHONPATH points at the directory holding the pakit this process
    # imported, so the child runs the same code from a checkout or an install.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(pakit.__file__)))
    completed = subprocess.run(
        [sys.executable, "-m", "pakit.bench", "--ops", "5000", "--format", "csv"],
        capture_output=True,
        text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert lines[0] == "backend,seconds,ratio,checksum"
    assert len(lines) == 5
    assert lines[1].startswith("double,")
