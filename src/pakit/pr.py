"""One interface over the four probability-value representations.

A PrBackend bundles a representation's constants and operations behind
uniform callables, so the same algorithm, conformance suite, or
benchmark can run against native doubles, the log-domain double type,
the extended-exponent type, or the fixed-point log type by swapping a
descriptor.  The four descriptors are module values, DOUBLE, LOGPR,
BALANCED and FIXEDLOG, built once at import: `backends()` lists them in
that order and `backend_by_name` finds one.  Backend values are opaque: floats for double and logpr,
integer codes for fixedlog, and (significand, exponent) tuples for
balanced.  The logpr, balanced and fixedlog descriptors bind their
module's own functions wherever the module's rule is already the
probability rule below.

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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import balanced, fixedlog, logpr
from .errors import DomainFault

_ROUND = balanced._ROUND


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


def _balanced_from_real(p):
    """balanced._canonical(p, 0) in one frame; on [0, 1] the exponent stays in range."""
    if not 0.0 <= p <= 1.0:
        raise DomainFault("probability %r outside [0, 1]" % (p,))
    if p == 0.0:
        return (0.0, 0)
    m, exp = math.frexp(p)
    m = (m + _ROUND) - _ROUND  # balanced._rounded, inlined
    if m == 1.0:  # rounding crossed the top of the binade
        return (0.5, exp + 1)
    return (m, exp)


def _balanced_to_real(b):
    significand, exponent = b
    return math.ldexp(significand, exponent)  # the nearest double: 0.0 below its range


def _balanced_div(a, b):
    """balanced.div clamped at one, tested before dividing so no quotient leaves the exponent range."""
    significand, _ = b
    if significand != 0.0 and balanced.cmp(a, b) >= 0:
        return (0.5, 1)
    return balanced.div(a, b)


def _balanced_neg_ln(b):
    significand, _ = b
    if significand == 0.0:
        return math.inf
    return -balanced.ln_abs(b)


# The extended-exponent type as a probability view: balanced's own values, mul and cmp.
BALANCED = PrBackend(
    name="balanced",
    zero=balanced.ZERO,
    one=balanced.ONE,
    from_real=_balanced_from_real,
    to_real=_balanced_to_real,
    mul=balanced.mul,
    div=_balanced_div,
    add=balanced._probability_add,
    cmp=balanced.cmp,
    neg_ln=_balanced_neg_ln,
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


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool


@dataclass
class ConformanceReport:
    backend: str
    sample_count: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def as_text(self) -> str:
        lines = ["conformance: backend=%s samples=%d seed=%d" % (self.backend, self.sample_count, self.seed)]
        for check in self.checks:
            lines.append(
                "  %-18s max_error=%.3e tolerance=%.3e %s"
                % (check.name, check.max_error, check.tolerance, "pass" if check.passed else "FAIL")
            )
        lines.append("  overall: %s" % ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)

    def as_key_values(self) -> list[str]:
        lines = []
        for check in self.checks:
            lines.append(
                "backend=%s check=%s max_error=%.17g tolerance=%.17g pass=%d"
                % (self.backend, check.name, check.max_error, check.tolerance, int(check.passed))
            )
        lines.append("backend=%s check=overall pass=%d" % (self.backend, int(self.passed)))
        return lines


def conformance(backend: PrBackend, sample_count: int = 10_000, seed: int = 1) -> ConformanceReport:
    """Run the backend through the shared law-and-accuracy checks.

    Deterministic given the seed.  Failures land in the report; nothing
    raises.  The log-domain oracle for the multiplication chain is the
    LOGPR descriptor run over the identical operand stream.
    """
    if sample_count < 1:
        raise DomainFault("sample_count must be >= 1, got %d" % sample_count)
    rng = random.Random(seed)
    report = ConformanceReport(backend.name, sample_count, seed)
    tol = backend.ln_tolerance

    # Round trip through from_real/to_real, error measured in ln-domain.
    # Samples alternate log-uniform (magnitude coverage) and plain
    # uniform (uncorrelated with exp, so the cycle really gets rounded).
    worst = 0.0
    for index in range(sample_count):
        if index % 2:
            p = rng.uniform(1e-9, 1.0)
        else:
            p = math.exp(rng.uniform(math.log(1e-9), 0.0))
        error = abs(-math.log(backend.to_real(backend.from_real(p))) - -math.log(p))
        worst = max(worst, error)
    report.checks.append(CheckResult("roundtrip", worst, tol, worst <= tol))

    # Long multiplication chain against the logpr oracle, folding the
    # accumulator onto the real line every few steps so the double
    # backend never underflows.
    operands = [rng.uniform(0.1, 1.0) for _ in range(sample_count)]
    total = _chain_neg_ln(backend, operands)
    oracle_total = _chain_neg_ln(LOGPR, operands)
    chain_tol = sample_count * tol
    error = abs(total - oracle_total)
    report.checks.append(CheckResult("mul_chain", error, chain_tol, error <= chain_tol))

    # Exact algebraic laws.
    mismatches = 0
    values = [backend.from_real(rng.uniform(1e-6, 1.0)) for _ in range(max(2, sample_count // 10))]
    for x in values:
        if backend.mul(x, backend.one) != x:
            mismatches += 1
        if backend.mul(x, backend.zero) != backend.zero:
            mismatches += 1
        if backend.add(x, backend.zero) != x:
            mismatches += 1
    report.checks.append(CheckResult("identity_laws", float(mismatches), 0.0, mismatches == 0))

    mismatches = 0
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if backend.add(a, b) != backend.add(b, a):
            mismatches += 1
        if backend.mul(a, b) != backend.mul(b, a):
            mismatches += 1
    report.checks.append(CheckResult("commutativity", float(mismatches), 0.0, mismatches == 0))

    # Monotonicity of addition in probability order.
    mismatches = 0
    for i in range(len(values) - 2):
        a, a_bigger, b = values[i], values[i + 1], values[i + 2]
        if backend.cmp(a, a_bigger) > 0:
            a, a_bigger = a_bigger, a
        if backend.cmp(backend.add(a, b), backend.add(a_bigger, b)) > 0:
            mismatches += 1
    report.checks.append(CheckResult("add_monotone", float(mismatches), 0.0, mismatches == 0))

    # cmp must agree with real-valued order once the gap clears quantization.
    mismatches = 0
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        gap = backend.neg_ln(a) - backend.neg_ln(b)
        if abs(gap) <= 3.0 * tol + 1e-15:
            continue
        expected = 1 if gap < 0 else -1  # smaller neg-log is the larger value
        if backend.cmp(a, b) != expected:
            mismatches += 1
    report.checks.append(CheckResult("order_consistency", float(mismatches), 0.0, mismatches == 0))

    return report


def _chain_neg_ln(backend: PrBackend, operands: list[float]) -> float:
    """Total -ln of the product of operands, folded every _CHAIN_FOLD muls."""
    mul = backend.mul
    from_real = backend.from_real
    accumulator = backend.one
    total = 0.0
    since_fold = 0
    for p in operands:
        accumulator = mul(accumulator, from_real(p))
        since_fold += 1
        if since_fold == _CHAIN_FOLD:
            total += backend.neg_ln(accumulator)
            accumulator = backend.one
            since_fold = 0
    return total + backend.neg_ln(accumulator)
