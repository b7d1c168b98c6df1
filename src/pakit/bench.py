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
only the chain itself is on the clock.  Each chunk of the operand
stream is converted once and run REPETITIONS times from one state.
Every run of a chunk must end in the same state, so the repetitions
time identical work and the checksum is that of a single pass; the
minimum total wall time over the repetitions is reported.
"""

import argparse
import random
import sys
import time
from typing import NamedTuple, Optional

from . import pr
from .accounting import checked_size
from .errors import DomainFault, Fault

REPETITIONS = 3
DEFAULT_OPS = 1_000_000

_FOLD_STEPS = 32  # chain steps between checksum folds
_CHUNK_STEPS = 4096  # steps generated and converted per batch


class BenchResult(NamedTuple):
    backend: str
    seconds: float
    checksum: float
    ratio: Optional[float]  # seconds over double's; None when double was not run


def workload(backend: pr.PrBackend, op_count: int, seed: int):
    """Run the timed chain REPETITIONS times; returns (checksum, [seconds per repetition])."""
    checked_size("op_count", op_count)

    mul = backend.mul
    add = backend.add
    neg_ln = backend.neg_ln
    from_real = backend.from_real

    rng = random.Random(seed)
    state = (backend.one, 0.0, 0)  # (accumulator, checksum, steps since last fold)
    seconds = [0.0] * REPETITIONS

    step_count = (op_count + 2) // 3
    for done in range(0, step_count, _CHUNK_STEPS):
        batch = min(_CHUNK_STEPS, step_count - done)
        raw = [(rng.uniform(0.05, 0.95), rng.random() * 0.99 + 0.01) for _ in range(batch)]
        steps = [(from_real(w), from_real(1.0 - w), from_real(x)) for w, x in raw]
        ends = set()
        for repetition in range(REPETITIONS):
            accumulator, checksum, since_fold = state
            start = time.perf_counter()
            for w, rest, x in steps:
                accumulator = add(mul(accumulator, w), mul(x, rest))
                since_fold += 1
                if since_fold == _FOLD_STEPS:
                    checksum += neg_ln(accumulator)
                    since_fold = 0
            seconds[repetition] += time.perf_counter() - start
            ends.add((accumulator, checksum, since_fold))
        assert len(ends) == 1, "repetitions diverged on one operand stream"
        state = ends.pop()

    accumulator, checksum, _ = state
    return checksum + neg_ln(accumulator), seconds


def run(op_count: int = DEFAULT_OPS, seed: int = 1, backends=None) -> list[BenchResult]:
    """Time the named backends (all if None) in `pr.backends()` order; ratios are to double."""
    chosen = pr.backends()
    if backends is not None:
        unknown = set(backends) - {backend.name for backend in chosen}
        if unknown:
            raise DomainFault("unknown backend name(s): %s" % ", ".join(sorted(unknown)))
        chosen = [backend for backend in chosen if backend.name in backends]
        if not chosen:
            raise DomainFault("no backend selected")

    timed = [(backend.name, *workload(backend, op_count, seed)) for backend in chosen]
    baseline = next((min(seconds) for name, _, seconds in timed if name == "double"), None)
    return [
        BenchResult(name, min(seconds), checksum, min(seconds) / baseline if baseline else None)
        for name, checksum, seconds in timed
    ]


def format_text(results: list[BenchResult]) -> str:
    lines = ["%-10s %12s %8s %20s" % ("backend", "seconds", "ratio", "checksum")]
    for r in results:
        ratio = "%.2f" % r.ratio if r.ratio is not None else "-"
        lines.append("%-10s %12.4f %8s %20.6f" % (r.backend, r.seconds, ratio, r.checksum))
    seconds = {r.backend: r.seconds for r in results}
    if "fixedlog" in seconds and "logpr" in seconds:
        holds = "yes" if seconds["fixedlog"] < seconds["logpr"] else "no"
        lines.append("ordering check (informational): ratio(fixedlog) < ratio(logpr) -> " + holds)
    return "\n".join(lines)


def format_csv(results: list[BenchResult]) -> str:
    lines = ["backend,seconds,ratio,checksum"]
    for r in results:
        ratio = "%.6f" % r.ratio if r.ratio is not None else ""
        lines.append("%s,%.6f,%s,%.6f" % (r.backend, r.seconds, ratio, r.checksum))
    return "\n".join(lines)


def main(argv=None) -> int:
    names = [backend.name for backend in pr.backends()]
    parser = argparse.ArgumentParser(
        prog="pa-bench",
        description="Time a fixed probability-arithmetic workload under each backend "
        "and report slowdown ratios relative to native double.",
    )
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS, help="operations per backend")
    parser.add_argument("--seed", type=int, default=1, help="operand stream seed")
    parser.add_argument(
        "--backends",
        default=",".join(names),
        help="comma-separated subset of: %s" % ", ".join(names),
    )
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    args = parser.parse_args(argv)

    backends = tuple(name.strip() for name in args.backends.split(",") if name.strip())
    try:
        results = run(args.ops, args.seed, backends)
    except Fault as error:
        print("pa-bench: %s" % error, file=sys.stderr)
        return 2
    print(format_csv(results) if args.format == "csv" else format_text(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
