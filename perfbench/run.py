"""The pakit benchmark: n-gram build, n-gram score and HMM forward.

    python3 perfbench/run.py --workload ngram-build --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: it imports `pakit` from the
checkout's `src` directory and exits with status 2 if that is missing.
The metric names and units come from `BENCHMARK.json` beside `src`.

With `--trace 0` the workload's set-up runs eight times, spread over
`--seconds`, and its repetition runs back to back in between (at least
once); each end-to-end metric is the median of its samples.  With `--trace 1`
one set-up and one repetition run untraced, then again with a span
around every call into a layer; the per-layer metrics come from the
traced pass, the spans are saved under `.perfbench-traces/`, and
`trace.overhead_frac` compares the two repetitions.  The traced run also times each backend operation
(see `micro.py`).

Every run checks its outputs; the last line printed is one JSON object
with the metrics, and the exit status is 1 if any check failed.
"""

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-traces"
SETUP_REPEATS = 8  # spread over the run, so they meet the machine at several speeds
MICRO_CALLS = 20_000

# layers whose self time the traced run reports, and calls timed per call
LAYERS = ("bench", "trie", "hashing", "unigram", "compact_table", "vector", "wire", "pr")
PER_CALL = (
    "trie.index_of", "trie.find", "hashing.insert", "hashing.find", "unigram.increment",
    "unigram.count", "compact_table.lookup", "vector.append",
)
WHOLE_CALL = ("trie.read", "trie.write", "compact_table.read", "vector.sort", "vector.write")


def use_checkout_sources() -> bool:
    """Put the checkout's `src` first on the import path; False if it has no pakit."""
    if not (SRC / "pakit" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def _untraced(bench, seconds: float) -> dict:
    """Set up SETUP_REPEATS times; between set-ups, repeat until that share of `seconds` is up."""
    gauge = bench.session.gauge
    samples = defaultdict(list)
    batches = []
    start = time.perf_counter()
    for round_ in range(1, SETUP_REPEATS + 1):
        mark = gauge.start()
        batches.append(bench.setup())
        samples["setup_s"].append(gauge.stop(mark))
        while time.perf_counter() - start < seconds * round_ / SETUP_REPEATS:
            batches.append(bench.rep())
    if len(batches) == SETUP_REPEATS:  # no time was left for a repetition
        batches.append(bench.rep())
    for batch in batches:
        for name, values in batch.items():
            samples[name].extend(values)
    return {name: statistics.median(values) for name, values in samples.items()}


def _timed_rep(bench) -> float:
    bench.setup()
    mark = bench.session.gauge.start()
    bench.rep()
    return bench.session.gauge.stop(mark)


def _layer_metrics(summary: dict, session, overhead: float, backends) -> dict:
    def seconds(name):
        return summary[name]["seconds"] if name in summary else 0.0

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    metrics = dict(session.counts)
    for name in PER_CALL:
        metrics[name + ".us"] = seconds(name) / calls(name) * 1e6 if calls(name) else 0.0
        metrics[name + ".calls"] = calls(name)
    for name in WHOLE_CALL:
        metrics[name + ".s"] = seconds(name)
    for direction in ("write", "read"):
        metrics["wire.%s.MBps" % direction] = session.counts["wire.bytes"] / seconds("wire." + direction) / 1e6
    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, row in summary.items():
        self_s[name.split(".", 1)[0]] += row["self_s"]
    metrics.update({layer + ".self_s": value for layer, value in self_s.items()})
    combine = {b: summary.get("pr.%s.combine" % b, {"self_s": 0.0})["self_s"] for b in backends}
    for backend, value in combine.items():
        metrics["pr.%s.combine.self_s" % backend] = value
        if backend != "double":
            metrics["pr.%s.ratio" % backend] = value / combine["double"]
    underflows = session.counts.get("pr.double.underflows", 0)
    metrics["pr.double.underflow_frac"] = underflows / session.counts["pr.double.results"]
    metrics["accounting.peak_bytes"] = session.peak_bytes
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.spans"] = sum(row["calls"] for row in summary.values())
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0, trace_dir=TRACE_DIR):
    """Run one workload; returns (metrics by name, session with the check outcomes)."""
    from pakit import accounting

    import micro
    import pipeline
    import tracing
    import workloads

    session = pipeline.Session(tracing.NullTracer())
    bench = workloads.WORKLOADS[workload](seed, scale, session)
    try:
        if not trace:
            metrics = _untraced(bench, seconds)
        else:
            untraced = _timed_rep(bench)
            bench.close()
            tracer = session.tracer = tracing.Tracer()
            traced = _timed_rep(bench)
    finally:
        bench.close()
    blocks, live_bytes = accounting.totals()
    session.check((blocks, live_bytes) == (0, 0), "accounting totals (%d, %d) after the workload" % (blocks, live_bytes))
    if trace:
        session.counts["accounting.leaked_blocks"] = blocks
        metrics = _layer_metrics(tracer.summary(), session, traced / untraced - 1.0, pipeline.BACKENDS)
        metrics.update(micro.measure(pipeline.backends(), seed, max(100, round(MICRO_CALLS * scale)), session))
        tracer.write(Path(trace_dir) / ("%s-seed%d.npz" % (workload, seed)))
    return metrics, session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ngram-build", "ngram-score", "hmm-forward"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        print("run.py: no pakit sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    metrics, session = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = len(session.failures)
    for failure in session.failures:
        print("FAILED: " + failure, file=sys.stderr)
    result = {name["name"]: {"value": metrics[name["name"]], "unit": name["unit"]} for name in wanted}
    for name, row in result.items():
        print("%-34s %18.6f %s" % (name, row["value"], row["unit"]))
    print("%-34s %18.6f %s" % ("failed_frac", failed / session.attempted, "frac"))
    print(json.dumps({"correct": failed == 0, "attempted": session.attempted, "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
