"""Per-operation timings of each `pr` backend on one clamp-free chain.

The chain is `acc = add(mul(acc, w), mul(x, 1 - w))`: a convex
combination of values in (0, 1], so no sum ever reaches probability 1
and no backend clamps.  All four backends therefore compute the same
function, and their `neg_ln` checksums must agree within
`ops * ln_tolerance`.  Single operations are timed in a plain loop over
pre-converted operands, loop overhead included; `div` only sees a <= b,
where every backend's quotient is a probability.
"""

import random
import statistics
import time

FOLD = 64  # chain steps between checksum terms

clock = time.perf_counter


def _per_call(fn, operands, repeats: int = 3) -> float:
    """Median seconds per call of `fn` over the operand tuples."""
    samples = []
    for _ in range(repeats):
        start = clock()
        for args in operands:
            fn(*args)
        samples.append((clock() - start) / len(operands))
    return statistics.median(samples)


def chain(backend, steps):
    """Checksum of the chain: the sum of neg_ln(acc) every FOLD steps."""
    mul, add, neg_ln = backend.mul, backend.add, backend.neg_ln
    acc = backend.one
    checksum = 0.0
    for n, (w, rest, x) in enumerate(steps, 1):
        acc = add(mul(acc, w), mul(x, rest))
        if n % FOLD == 0:
            checksum += neg_ln(acc)
    return checksum


def measure(backends, seed: int, count: int, session) -> dict:
    """ns per call of each op and the chain's time ratio to double."""
    rng = random.Random(seed)
    weights = [rng.uniform(0.05, 0.95) for _ in range(count)]
    reals = [rng.uniform(0.01, 1.0) for _ in range(count)]
    pairs = [sorted((rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0))) for _ in range(count)]
    metrics, chain_seconds, checksums = {}, {}, {}
    for backend in backends:
        f, mul = backend.from_real, backend.mul
        values = [(f(x),) for x in reals]
        steps = [(f(w), f(1.0 - w), x) for w, (x,) in zip(weights, values)]
        small_large = [(f(a), f(b)) for a, b in pairs]
        # the operands of the chain's mul and add, whose sums stay <= 1
        products = [(x, w) for w, _, x in steps]
        terms = [(mul(x, w), mul(y, rest)) for (w, rest, x), (y, _) in zip(steps, small_large)]
        for op, fn, operands in (
            ("from_real", f, [(x,) for x in reals]),
            ("mul", mul, products),
            ("add", backend.add, terms),
            ("div", backend.div, small_large),
            ("cmp", backend.cmp, small_large),
            ("neg_ln", backend.neg_ln, values),
        ):
            metrics["pr.%s.%s.ns" % (backend.name, op)] = _per_call(fn, operands) * 1e9
        start = clock()
        checksums[backend.name] = chain(backend, steps)
        chain_seconds[backend.name] = clock() - start
    reference = checksums["logpr"]
    reference_tolerance = next(b.ln_tolerance for b in backends if b.name == "logpr")
    for backend in backends:
        # per step: three conversions, two mul, one add
        tolerance = 6 * count * max(backend.ln_tolerance, reference_tolerance)
        error = abs(checksums[backend.name] - reference)
        session.check(error <= tolerance, "chain: %s checksum off by %.3g" % (backend.name, error))
        if backend.name != "double":
            metrics["pr.%s.chain_ratio" % backend.name] = chain_seconds[backend.name] / chain_seconds["double"]
    return metrics
