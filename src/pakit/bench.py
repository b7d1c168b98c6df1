"""Cross-backend timing benchmark (the pa-bench command).

Times one fixed arithmetic workload under each probability backend and
reports the slowdown of every backend relative to native doubles.  The
workload is a single dependency chain of steps
`acc = add(mul(acc, w), mul(x, 1 - w))`, three operations each, where w
and x are seeded pseudo-random probabilities and each result becomes
the next operand, so no step can be skipped or reordered.  A convex
combination of values in (0, 1] stays inside (0, 1] without clamping,
so all four backends compute the same function.  Every 32 steps the
accumulator is folded onto the real line (as -ln p) into a running
checksum: the checksum depends only on (seed, op_count, backend), and
the four backends' checksums agree within op_count * ln_tolerance.

Operand generation and conversion happen outside the timed sections;
only the chain itself is on the clock.  Each backend runs the identical
operand stream at least three times (PA_BENCH_REPS overrides) and the
minimum wall time is reported.
"""

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional

from . import pr
from .errors import DomainFault, Fault

DEFAULT_REPS = 3
DEFAULT_OPS = 1_000_000
CANONICAL_ORDER = ("double", "logpr", "balanced", "fixedlog")

_FOLD_STEPS = 32  # chain steps between checksum folds
_CHUNK_STEPS = 4096  # steps generated and converted per batch


@dataclass
class BenchConfig:
    op_count: int = DEFAULT_OPS
    seed: int = 1
    backends: tuple = CANONICAL_ORDER


@dataclass
class BenchResult:
    backend: str
    seconds: float
    checksum: float
    ratio: Optional[float] = None


def workload(backend: pr.PrBackend, op_count: int, seed: int, repetitions: int = 1):
    """Run the timed chain; returns (checksum, [seconds per repetition]).

    All repetitions see the same operand stream and therefore produce
    the identical checksum; repetitions share the untimed conversion
    work.
    """
    if op_count < 1:
        raise DomainFault("op_count must be >= 1, got %d" % op_count)
    if repetitions < 1:
        raise DomainFault("repetitions must be >= 1, got %d" % repetitions)
    step_count = (op_count + 2) // 3

    mul = backend.mul
    add = backend.add
    neg_ln = backend.neg_ln
    from_real = backend.from_real
    perf_counter = time.perf_counter

    rng = random.Random(seed)
    # (accumulator, checksum, steps since last fold, elapsed) per repetition
    states = [[backend.one, 0.0, 0, 0.0] for _ in range(repetitions)]

    remaining = step_count
    while remaining > 0:
        batch = min(_CHUNK_STEPS, remaining)
        remaining -= batch
        raw = [(rng.uniform(0.05, 0.95), rng.random() * 0.99 + 0.01) for _ in range(batch)]
        steps = [(from_real(w), from_real(1.0 - w), from_real(x)) for w, x in raw]
        for state in states:
            accumulator, checksum, since_fold, elapsed = state
            start = perf_counter()
            for w, rest, x in steps:
                accumulator = add(mul(accumulator, w), mul(x, rest))
                since_fold += 1
                if since_fold == _FOLD_STEPS:
                    checksum += neg_ln(accumulator)
                    since_fold = 0
            elapsed += perf_counter() - start
            state[0] = accumulator
            state[1] = checksum
            state[2] = since_fold
            state[3] = elapsed

    checksums = {state[1] + neg_ln(state[0]) for state in states}
    assert len(checksums) == 1, "repetitions diverged on one operand stream"
    return checksums.pop(), [state[3] for state in states]


def run(config: BenchConfig) -> list[BenchResult]:
    """Benchmark every configured backend; ratios are relative to double."""
    names = []
    for name in CANONICAL_ORDER:
        if name in config.backends:
            names.append(name)
    unknown = set(config.backends) - set(CANONICAL_ORDER)
    if unknown:
        raise DomainFault("unknown backend name(s): %s" % ", ".join(sorted(unknown)))

    reps = os.environ.get("PA_BENCH_REPS", DEFAULT_REPS)
    try:
        repetitions = max(1, int(reps))
    except ValueError:
        raise DomainFault("PA_BENCH_REPS must be an integer, got %r" % reps) from None
    results = []
    for name in names:
        backend = pr.backend_by_name(name)
        checksum, seconds = workload(backend, config.op_count, config.seed, repetitions)
        results.append(BenchResult(name, min(seconds), checksum))

    baseline = next((r.seconds for r in results if r.backend == "double"), None)
    if baseline:
        for result in results:
            result.ratio = result.seconds / baseline
    return results


def _ordering_note(results: list[BenchResult]) -> Optional[str]:
    by_name = {r.backend: r for r in results}
    if "fixedlog" not in by_name or "logpr" not in by_name:
        return None
    holds = by_name["fixedlog"].seconds < by_name["logpr"].seconds
    return (
        "ordering check (informational): ratio(fixedlog) < ratio(logpr) -> %s"
        % ("yes" if holds else "no")
    )


def format_text(results: list[BenchResult]) -> str:
    lines = ["%-10s %12s %8s %20s" % ("backend", "seconds", "ratio", "checksum")]
    for r in results:
        ratio = "%.2f" % r.ratio if r.ratio is not None else "-"
        lines.append("%-10s %12.4f %8s %20.6f" % (r.backend, r.seconds, ratio, r.checksum))
    note = _ordering_note(results)
    if note:
        lines.append(note)
    return "\n".join(lines)


def format_csv(results: list[BenchResult]) -> str:
    lines = ["backend,seconds,ratio,checksum"]
    for r in results:
        ratio = "%.6f" % r.ratio if r.ratio is not None else ""
        lines.append("%s,%.6f,%s,%.6f" % (r.backend, r.seconds, ratio, r.checksum))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pa-bench",
        description="Time a fixed probability-arithmetic workload under each backend "
        "and report slowdown ratios relative to native double.",
    )
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS, help="operations per backend")
    parser.add_argument("--seed", type=int, default=1, help="operand stream seed")
    parser.add_argument(
        "--backends",
        default=",".join(CANONICAL_ORDER),
        help="comma-separated subset of: %s" % ", ".join(CANONICAL_ORDER),
    )
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    args = parser.parse_args(argv)

    try:
        results = run(BenchConfig(
            op_count=args.ops,
            seed=args.seed,
            backends=tuple(name.strip() for name in args.backends.split(",") if name.strip()),
        ))
    except Fault as error:
        print("pa-bench: %s" % error, file=sys.stderr)
        return 2
    if args.format == "csv":
        print(format_csv(results))
    else:
        print(format_text(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
