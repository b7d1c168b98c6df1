"""One interface over the four probability-value representations.

A PrBackend bundles a representation's constants and operations behind
uniform callables, so the same algorithm, conformance suite, or
benchmark can run against native doubles, the log-domain double type,
the extended-exponent type, or the fixed-point log type by swapping a
descriptor.  The four descriptors are module values, DOUBLE, LOGPR,
BALANCED and FIXEDLOG, built once at import: `backends()` lists them in
that order and `backend_by_name` finds one.  Backend values are opaque:
floats for double and logpr, integer codes for fixedlog, and
(significand, exponent) tuples for balanced.  The number modules
compute: LOGPR and FIXEDLOG bind their module's operations, and BALANCED
balanced's `mul`, `cmp` and probability view (`_probability_*`).  Only
the double helpers live here, as there is no double module.

Every descriptor follows one rule.  Values are probabilities: `from_real`
raises DomainFault for any input outside [0, 1], NaN included; `add` and
`div` return `one` wherever the result would be above one; `div` by `zero`
raises DomainFault; `to_real` returns the nearest double, which is 0.0
below the double range.  neg_ln maps any backend value onto the real
line as -ln(p) without leaving the representation's range, which is
what lets conformance and benchmark results be compared across backends.
"""

import math
import operator
import random
from typing import Callable, NamedTuple

from . import balanced, fixedlog, logpr
from .accounting import checked_size
from .errors import DomainFault


class PrBackend(NamedTuple):
    """One representation's constants and operations, under the module's probability rule."""

    name: str
    zero: object
    one: object
    from_real: Callable
    to_real: Callable
    mul: Callable
    div: Callable
    add: Callable
    cmp: Callable
    neg_ln: Callable  # backend value -> -ln(p) as a double (inf for p = 0)
    ln_tolerance: float  # per-operation log-domain error budget


def _double_from_real(p):
    if not 0.0 <= p <= 1.0:
        raise DomainFault("probability %r outside [0, 1]" % (p,))
    return p + 0.0  # a float for any real, 0.0 for a Fraction below the double range


def _double_add(a, b):
    total = a + b
    return total if total < 1.0 else 1.0


def _double_div(a, b):
    if b == 0.0:
        raise DomainFault("division by probability zero")
    quotient = a / b
    return quotient if quotient < 1.0 else 1.0


def _double_cmp(a, b):
    if a == b:
        return 0
    return 1 if a > b else -1


def _double_neg_ln(p):
    return math.inf if p == 0.0 else -math.log(p)


# Native double probabilities; the speed baseline, limited range.  `mul` is
# the builtin `operator.mul`, which costs no Python frame per call; products
# need no check, since probabilities in [0, 1] multiply to a probability (or
# underflow to 0.0).
DOUBLE = PrBackend(
    name="double",
    zero=0.0,
    one=1.0,
    from_real=_double_from_real,
    to_real=lambda p: p,
    mul=operator.mul,
    div=_double_div,
    add=_double_add,
    cmp=_double_cmp,
    neg_ln=_double_neg_ln,
    ln_tolerance=1e-12,
)

LOGPR = PrBackend(
    name="logpr",
    zero=logpr.ZERO,
    one=logpr.ONE,
    from_real=logpr.from_real,
    to_real=logpr.to_real,
    mul=logpr.mul,
    div=logpr.div,
    add=logpr.add,
    cmp=logpr.cmp,
    neg_ln=lambda x: x,
    ln_tolerance=1e-12,
)


# The extended-exponent type as a probability view; every value and function is balanced's own.
BALANCED = PrBackend(
    name="balanced",
    zero=balanced.ZERO,
    one=balanced.ONE,
    from_real=balanced._probability_from_real,
    to_real=balanced._probability_to_real,
    mul=balanced.mul,
    div=balanced._probability_div,
    add=balanced._probability_add,
    cmp=balanced.cmp,
    neg_ln=balanced._probability_neg_ln,
    ln_tolerance=2.0 ** -22,
)

FIXEDLOG = PrBackend(
    name="fixedlog",
    zero=fixedlog.SENTINEL,
    one=0,
    from_real=fixedlog.from_real,
    to_real=fixedlog.to_real,
    mul=fixedlog.mul,
    div=fixedlog.div,
    add=fixedlog.add,
    cmp=fixedlog.cmp,
    neg_ln=lambda c: math.inf if c == fixedlog.SENTINEL else c / fixedlog.SCALE,
    ln_tolerance=0.5 / fixedlog.SCALE,
)


def backends() -> list[PrBackend]:
    """All four backends, the double reference first."""
    return [DOUBLE, LOGPR, BALANCED, FIXEDLOG]


def backend_by_name(name: str) -> PrBackend:
    for backend in backends():
        if backend.name == name:
            return backend
    raise DomainFault("unknown backend %r" % (name,))


# --- conformance ---------------------------------------------------------

_CHAIN_FOLD = 16  # fold the accumulator out every so many muls to stay in range
_VERDICTS = ("FAIL", "pass")  # indexed by a check's `passed`


class CheckResult(NamedTuple):
    """One check: its worst error, and the tolerance that error must not exceed."""

    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


class ConformanceReport(NamedTuple):
    """A backend's checks, in the order run; it passes when every check does."""

    backend: str
    sample_count: int
    seed: int
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def as_text(self) -> str:
        lines = ["conformance: backend=%s samples=%d seed=%d" % (self.backend, self.sample_count, self.seed)]
        lines += [
            "  %-18s max_error=%.3e tolerance=%.3e %s" % (*check, _VERDICTS[check.passed])
            for check in self.checks
        ]
        lines.append("  overall: %s" % _VERDICTS[self.passed])
        return "\n".join(lines)

    def as_key_values(self) -> list[str]:
        lines = [
            "backend=%s check=%s max_error=%.17g tolerance=%.17g pass=%d"
            % (self.backend, *check, check.passed)
            for check in self.checks
        ]
        lines.append("backend=%s check=overall pass=%d" % (self.backend, self.passed))
        return lines


def conformance(backend: PrBackend, sample_count: int = 10_000, seed: int = 1) -> ConformanceReport:
    """Run the backend through the shared law-and-accuracy checks.

    Deterministic given the seed.  Failures land in the report; nothing
    raises.  The log-domain oracle for the multiplication chain is the
    LOGPR descriptor run over the identical operand stream.
    """
    checked_size("sample_count", sample_count)
    rng = random.Random(seed)
    tol = backend.ln_tolerance
    one, zero, mul, add, cmp, neg_ln = (
        backend.one, backend.zero, backend.mul, backend.add, backend.cmp, backend.neg_ln
    )

    # Round trip through from_real/to_real, error measured in ln-domain.
    # Samples alternate log-uniform (magnitude coverage) and plain
    # uniform (uncorrelated with exp, so the cycle really gets rounded).
    roundtrip = max(
        abs(-math.log(backend.to_real(backend.from_real(p))) - -math.log(p))
        for p in (
            rng.uniform(1e-9, 1.0) if index % 2 else math.exp(rng.uniform(math.log(1e-9), 0.0))
            for index in range(sample_count)
        )
    )
    # The multiplication chain's operands, then the values of the exact laws.
    operands = [rng.uniform(0.1, 1.0) for _ in range(sample_count)]
    values = [backend.from_real(rng.uniform(1e-6, 1.0)) for _ in range(max(2, sample_count // 10))]
    pairs = list(zip(values, values[1:]))

    def add_breaks_order(a, a_bigger, b):
        # addition must keep probability order
        if cmp(a, a_bigger) > 0:
            a, a_bigger = a_bigger, a
        return cmp(add(a, b), add(a_bigger, b)) > 0

    def cmp_breaks_order(a, b):
        # cmp must agree with real-valued order once the gap clears quantization
        gap = neg_ln(a) - neg_ln(b)  # a smaller neg-log is the larger value
        return abs(gap) > 3.0 * tol + 1e-15 and cmp(a, b) != (1 if gap < 0 else -1)

    # A law's error is its count of mismatches, and it must be 0.
    return ConformanceReport(backend.name, sample_count, seed, [
        CheckResult("roundtrip", roundtrip, tol),
        # a long chain against the logpr oracle, folded onto the real line
        # every few steps so the double backend never underflows
        CheckResult(
            "mul_chain",
            abs(_chain_neg_ln(backend, operands) - _chain_neg_ln(LOGPR, operands)),
            sample_count * tol,
        ),
        CheckResult("identity_laws", float(sum(
            (mul(x, one) != x) + (mul(x, zero) != zero) + (add(x, zero) != x) for x in values
        )), 0.0),
        CheckResult("commutativity", float(sum(
            (add(a, b) != add(b, a)) + (mul(a, b) != mul(b, a)) for a, b in pairs
        )), 0.0),
        CheckResult("add_monotone", float(sum(map(add_breaks_order, values, values[1:], values[2:]))), 0.0),
        CheckResult("order_consistency", float(sum(cmp_breaks_order(a, b) for a, b in pairs)), 0.0),
    ])


def _chain_neg_ln(backend: PrBackend, operands: list[float]) -> float:
    """Total -ln of the product of operands, folded every _CHAIN_FOLD muls."""
    mul, from_real, neg_ln, one = backend.mul, backend.from_real, backend.neg_ln, backend.one
    accumulator, total = one, 0.0
    for step, p in enumerate(operands, 1):
        accumulator = mul(accumulator, from_real(p))
        if step % _CHAIN_FOLD == 0:
            total += neg_ln(accumulator)
            accumulator = one
    return total + neg_ln(accumulator)
