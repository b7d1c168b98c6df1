import hashlib
import math
import random
import struct
from fractions import Fraction
from io import BytesIO

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from pakit import balanced, bench, fixedlog, logpr, pr
from pakit.balanced import ALIGN_CUTOFF
from pakit.errors import DomainFault, RangeFault
from test_balanced import oracle_mul


def backend_ids():
    return [b.name for b in pr.backends()]


@pytest.fixture(params=backend_ids())
def backend(request):
    return pr.backend_by_name(request.param)


def test_exactly_four_backends_double_first():
    names = backend_ids()
    assert len(names) == 4
    assert len(set(names)) == 4
    assert names[0] == "double"
    assert set(names) == {"double", "logpr", "balanced", "fixedlog"}


def test_backend_by_name_rejects_unknown():
    with pytest.raises(DomainFault):
        pr.backend_by_name("quadruple")
    with pytest.raises(DomainFault):
        pr.backend_by_name(["x"])  # an unhashable name is unknown too, not a TypeError


def test_descriptors_are_module_values():
    assert pr.backends() == pr.backends() == [pr.DOUBLE, pr.LOGPR, pr.BALANCED, pr.FIXEDLOG]
    for backend in pr.backends():
        assert pr.backend_by_name(backend.name) is backend


def test_backend_constants(backend):
    assert backend.one == backend.from_real(1.0)
    assert backend.zero == backend.from_real(0.0)
    assert backend.to_real(backend.one) == 1.0
    assert backend.to_real(backend.zero) == 0.0
    assert backend.cmp(backend.zero, backend.one) == -1


def test_neg_ln_endpoints(backend):
    assert backend.neg_ln(backend.one) == 0.0
    assert backend.neg_ln(backend.zero) == math.inf
    x = backend.from_real(0.5)
    assert backend.neg_ln(x) == pytest.approx(math.log(2.0), abs=1e-4)


def test_identity_laws_through_interface(backend):
    rng = random.Random(80)
    for _ in range(200):
        x = backend.from_real(rng.uniform(1e-6, 1.0))
        assert backend.mul(x, backend.one) == x
        assert backend.mul(backend.one, x) == x
        assert backend.mul(x, backend.zero) == backend.zero
        assert backend.add(x, backend.zero) == x
        assert backend.add(backend.zero, x) == x


def test_commutativity_through_interface(backend):
    rng = random.Random(81)
    for _ in range(200):
        a = backend.from_real(rng.uniform(1e-6, 1.0))
        b = backend.from_real(rng.uniform(1e-6, 1.0))
        assert backend.mul(a, b) == backend.mul(b, a)
        assert backend.add(a, b) == backend.add(b, a)


def test_div_inverts_mul_where_defined(backend):
    rng = random.Random(82)
    for _ in range(200):
        a = backend.from_real(rng.uniform(1e-3, 1.0))
        b = backend.from_real(rng.uniform(1e-3, 1.0))
        product = backend.mul(a, b)
        back = backend.div(product, b)
        gap = abs(backend.neg_ln(back) - backend.neg_ln(a))
        assert gap <= 3 * backend.ln_tolerance + 1e-12


def test_conformance_passes(backend):
    report = pr.conformance(backend, sample_count=10_000, seed=5)
    assert report.passed, report.as_text()


def test_conformance_double_is_nearly_exact():
    report = pr.conformance(pr.DOUBLE, sample_count=10_000, seed=5)
    by_name = {check.name: check for check in report.checks}
    assert by_name["roundtrip"].max_error <= 1e-15
    assert by_name["mul_chain"].max_error <= 1e-9


def test_conformance_fixedlog_roundtrip_within_quantization():
    report = pr.conformance(pr.FIXEDLOG, sample_count=10_000, seed=6)
    by_name = {check.name: check for check in report.checks}
    assert by_name["roundtrip"].max_error <= 0.5 / fixedlog.SCALE
    assert by_name["roundtrip"].tolerance == 0.5 / fixedlog.SCALE


def test_conformance_balanced_chain_within_budget():
    report = pr.conformance(pr.BALANCED, sample_count=1000, seed=7)
    by_name = {check.name: check for check in report.checks}
    assert by_name["mul_chain"].max_error <= 1000 * 2.0**-22


def test_conformance_is_deterministic(backend):
    first = pr.conformance(backend, sample_count=500, seed=9)
    second = pr.conformance(backend, sample_count=500, seed=9)
    assert [(c.name, c.max_error) for c in first.checks] == [
        (c.name, c.max_error) for c in second.checks
    ]


def test_conformance_report_renders(backend):
    report = pr.conformance(backend, sample_count=200, seed=10)
    text = report.as_text()
    assert backend.name in text
    assert "overall" in text
    lines = report.as_key_values()
    assert all("=" in line for line in lines)
    assert any("check=roundtrip" in line for line in lines)
    parsed = dict(pair.split("=") for pair in lines[0].split())
    assert parsed["backend"] == backend.name


CHECK_NAMES = ["roundtrip", "mul_chain", "identity_laws", "commutativity", "add_monotone", "order_consistency"]

# double with an add that returns its first operand (commutativity fails), and
# one whose from_real is off by a relative 1e-9 (roundtrip and mul_chain fail)
FAULTY = {
    "first_operand_add": pr.DOUBLE._replace(add=lambda a, b: a),
    "inexact_from_real": pr.DOUBLE._replace(from_real=lambda p: p * (1.0 - 1e-9)),
}


@pytest.fixture(params=backend_ids() + sorted(FAULTY))
def any_backend(request):
    return FAULTY.get(request.param) or pr.backend_by_name(request.param)


def test_conformance_report_states_what_it_promises(any_backend):
    sample_count = 300
    report = pr.conformance(any_backend, sample_count=sample_count, seed=11)
    assert [check.name for check in report.checks] == CHECK_NAMES
    tolerance = any_backend.ln_tolerance
    assert [check.tolerance for check in report.checks] == [tolerance, sample_count * tolerance] + [0.0] * 4
    for check in report.checks:
        assert check.passed == (check.max_error <= check.tolerance)
    assert report.passed == all(check.passed for check in report.checks)
    assert report.passed == (any_backend in pr.backends())


def test_conformance_renderers_agree(any_backend):
    report = pr.conformance(any_backend, sample_count=300, seed=12)
    text_lines = report.as_text().split("\n")
    assert text_lines[0] == "conformance: backend=%s samples=300 seed=12" % any_backend.name
    key_value_lines = report.as_key_values()
    assert len(text_lines) == len(key_value_lines) + 1 == len(CHECK_NAMES) + 2
    for text, key_values in zip(text_lines[1:-1], key_value_lines):
        name, error, tolerance, verdict = text.split()
        fields = dict(pair.split("=") for pair in key_values.split())
        assert fields["backend"] == any_backend.name
        assert name == fields["check"]
        assert error == "max_error=%.3e" % float(fields["max_error"])
        assert tolerance == "tolerance=%.3e" % float(fields["tolerance"])
        assert verdict == {"1": "pass", "0": "FAIL"}[fields["pass"]]
    verdict = "pass" if report.passed else "FAIL"
    assert text_lines[-1] == "  overall: %s" % verdict
    assert key_value_lines[-1] == "backend=%s check=overall pass=%d" % (any_backend.name, report.passed)


def test_conformance_sample_count_validated(backend):
    with pytest.raises(DomainFault):
        pr.conformance(backend, sample_count=0)


def argmax_by_cmp(backend, values):
    best = 0
    for i in range(1, len(values)):
        if backend.cmp(values[i], values[best]) > 0:
            best = i
    return best


def test_argmax_invariance_across_backends():
    # pairwise products of random vectors; all four backends must pick the
    # same winner whenever the top-two gap clears the coarsest quantization
    rng = random.Random(83)
    all_backends = pr.backends()
    coarsest = max(b.ln_tolerance for b in all_backends)
    threshold = 10 * coarsest
    checked = 0
    for _ in range(100):
        entries = [math.exp(rng.uniform(math.log(1e-6), 0.0)) for _ in range(16)]
        pairs = [(entries[2 * k], entries[2 * k + 1]) for k in range(8)]
        exact = sorted(math.log(x) + math.log(y) for x, y in pairs)
        if exact[-1] - exact[-2] <= threshold:
            continue
        winners = set()
        for backend in all_backends:
            products = [
                backend.mul(backend.from_real(x), backend.from_real(y)) for x, y in pairs
            ]
            winners.add(argmax_by_cmp(backend, products))
        assert len(winners) == 1, "backends disagree on argmax"
        checked += 1
    assert checked >= 90  # the gap filter may drop only a few vectors


def test_bench_chain_computes_one_function_on_every_backend():
    ops = 30_000
    reference = pr.DOUBLE
    expected, _ = bench.workload(reference, ops, seed=1)
    for backend in pr.backends():
        checksum, _ = bench.workload(backend, ops, seed=1)
        tolerance = ops * max(backend.ln_tolerance, reference.ln_tolerance)
        assert abs(checksum - expected) <= tolerance, backend.name


probability = st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, -0.0, 1.0, 5e-324, 2.2e-308)))


@given(probability, probability)
def test_double_mul_is_the_plain_product(a, b):
    assert struct.pack(">d", pr.DOUBLE.mul(a, b)) == struct.pack(">d", a * b)


def test_logpr_descriptor_uses_the_module_operations():
    backend = pr.LOGPR
    assert backend.mul is logpr.mul
    assert backend.add is logpr.add


def test_logpr_results_write_the_pinned_bytes():
    # 3,004 add and 3,004 mul results, gaps past 745 and subnormals among
    # them; the digest is that of the code before mul became operator.add.
    backend = pr.LOGPR
    rng = random.Random(4099)
    values = [logpr.ZERO, logpr.ONE, 745.5, 5e-324]
    for _ in range(1500):
        values.append(backend.from_real(rng.random()))
        values.append(rng.uniform(0.0, 800.0))
    stream = BytesIO()
    for a, b in zip(values, values[1:] + values[:1]):
        logpr.write(stream, backend.add(a, b))
        logpr.write(stream, backend.mul(a, b))
    data = stream.getvalue()
    assert len(data) == 2 * 3004 * 8
    assert hashlib.sha256(data).hexdigest() == "365bd18117bb278115e28649b35ab69a01a8956bddcd4ffcaf4379ec50f8bfcd"


# --- one probability rule on every descriptor ----------------------------


def test_out_of_range_answers_are_the_same_on_every_backend(backend):
    f, one = backend.from_real, backend.one
    assert backend.add(one, one) == one
    assert backend.add(f(0.6), f(0.7)) == one
    assert backend.div(f(0.6), f(0.3)) == one
    assert backend.div(one, f(0.5)) == one
    for p in (1.5, -0.5, math.nan, math.inf):
        with pytest.raises(DomainFault):
            f(p)
    with pytest.raises(DomainFault):
        backend.div(f(0.5), backend.zero)


def test_division_by_zero_has_one_fault_text(backend):
    for numerator in (backend.zero, backend.from_real(0.5), backend.one):
        with pytest.raises(DomainFault, match="^division by probability zero$"):
            backend.div(numerator, backend.zero)


def test_a_positive_probability_below_the_double_range_is_zero(backend):
    # it passes the exact [0, 1] test and is not == 0.0, yet it is 0.0 as a double
    value = backend.from_real(Fraction(1, 10**400))
    assert type(value) is type(backend.zero)
    assert value == backend.zero
    assert backend.neg_ln(value) == math.inf
    assert type(backend.from_real(Fraction(1, 2))) is type(backend.one)


def test_quotient_of_an_exact_one_never_raises(backend):
    # x * w + x * (1 - w) is x in the reals, so the quotient is 1 up to rounding
    rng = random.Random(3)
    f = backend.from_real
    worst = 0.0
    for _ in range(2000):
        x, w = f(rng.uniform(1e-6, 1.0)), rng.random()
        quotient = backend.div(backend.add(backend.mul(x, f(w)), backend.mul(x, f(1.0 - w))), x)
        worst = max(worst, abs(backend.neg_ln(quotient)))
    assert worst <= 10 * backend.ln_tolerance


def test_add_matches_mpmath(backend):
    # the oracle adds the decoded inputs, so only add's own rounding counts
    rng = random.Random(84)
    pairs = [(0.5, 0.5), (0.25, 0.75), (1e-300, 1e-300), (1e-12, 1.0 - 1e-12)]
    for index in range(2000):
        p = rng.random() if index % 2 else math.exp(rng.uniform(math.log(1e-30), 0.0))
        pairs.append((p, (1.0 - p) * rng.random()))
    with mpmath.workdps(40):
        for p, q in pairs:
            if q == 0.0:
                continue
            a, b = backend.from_real(p), backend.from_real(q)
            exact = -mpmath.log(mpmath.mpf(backend.to_real(a)) + mpmath.mpf(backend.to_real(b)))
            error = abs(mpmath.mpf(backend.neg_ln(backend.add(a, b))) - exact)
            assert error <= backend.ln_tolerance + 1e-12, (p, q)


# double and logpr div as they were before the probability rule: both raised above one
def _raising_double_div(a, b):
    if b == 0.0:
        raise DomainFault("division by probability zero")
    if a > b:
        raise DomainFault("quotient exceeds probability 1")
    quotient = a / b
    return quotient if quotient < 1.0 else 1.0


def _raising_logpr_div(a, b):
    if b == logpr.ZERO:
        raise DomainFault("division by probability zero")
    if a == logpr.ZERO:
        return logpr.ZERO
    result = a - b
    if result < 0.0:
        raise DomainFault("quotient exceeds probability 1")
    return result


def _bits(value):
    if isinstance(value, tuple):
        significand, exponent = value
        return struct.pack(">d", significand), exponent
    return struct.pack(">d", value)


in_range = st.tuples(probability, probability).map(sorted).filter(lambda pq: pq[0] + pq[1] < 1.0)


@given(in_range)
def test_in_range_results_are_unchanged(pq):
    p, q = pq
    view = pr.BALANCED
    a, b = view.from_real(p), view.from_real(q)
    assert _bits(a) == _bits(balanced.from_real(p))
    assert _bits(b) == _bits(balanced.from_real(q))
    assert _bits(view.add(a, b)) == _bits(balanced.add(a, b))
    if q > 0.0:
        assert _bits(view.div(a, b)) == _bits(balanced.div(a, b))
        assert _bits(pr.DOUBLE.div(p, q)) == _bits(_raising_double_div(p, q))
        x, y = logpr.from_real(p), logpr.from_real(q)
        assert _bits(pr.LOGPR.div(x, y)) == _bits(_raising_logpr_div(x, y))


def test_to_real_gives_zero_below_the_double_range(backend):
    x = backend.from_real(1e-200)
    assert backend.to_real(backend.mul(x, x)) == 0.0


# --- the balanced view computes on exact tuples ----------------------------


def test_balanced_view_results_are_exact_tuples():
    view = pr.BALANCED
    f, one, zero = view.from_real, view.one, view.zero
    x, y = f(0.3), f(0.7)
    tiny = (0.5, -ALIGN_CUTOFF - 3)
    results = [
        zero, one, x, f(0.0), f(1.0),
        view.mul(x, y), view.mul(zero, x), view.mul(x, zero), view.mul(one, x),
        view.mul((0.25, 0), (0.25, 0)), view.mul((1.5, -1), (1.5, -1)),  # _canonical fallbacks
        view.add(x, y), view.add(x, f(0.1)), view.add(zero, x), view.add(x, zero), view.add(x, tiny),
        view.add(one, one), view.add((1.5, -2), (1.5, -2)),
        view.div(x, y), view.div(zero, x), view.div(y, x), view.div(x, x), view.div((0.25, 0), (0.9, 0)),
    ]
    for value in results:
        assert type(value) is tuple, value


def _clamped(value):
    return balanced.ONE if balanced.cmp(value, balanced.ONE) > 0 else value


# the descriptor's rule written over the module's operations; the view
# binds balanced.mul itself, so mul is written as the module's bit-exact oracle
_MODULE_OPERATIONS = {
    "mul": oracle_mul,
    "add": lambda a, b: _clamped(balanced.add(a, b)),
    "div": lambda a, b: balanced.ONE if balanced.cmp(a, b) >= 0 else balanced.div(a, b),
}

_significands = st.integers(1 << 23, (1 << 24) - 1).map(lambda k: k / 2.0**24)
_exponents = st.one_of(
    st.integers(-60, 0),
    st.integers(-(1 << 30) - 40, -(1 << 30) + 40),
    st.integers(-(1 << 31), -(1 << 31) + 60),
)
canonical_probability = st.one_of(
    st.just((0.0, 0)), st.just((0.5, 1)), st.tuples(_significands, _exponents)
)


def _outcome(operation, a, b):
    """The result and its bits, or None and the RangeFault's text."""
    try:
        result = operation(a, b)
    except RangeFault as fault:
        return None, "RangeFault: %s" % fault
    return result, _bits(result)


@given(canonical_probability, canonical_probability)
@example((0.5, -(1 << 30)), (0.5, -(1 << 30)))  # the product's exponent leaves the 32-bit range
def test_balanced_view_mul_matches_the_module(a, b):
    # the view binds balanced.mul itself, so the reference is the module's bit-exact oracle
    assert _outcome(pr.BALANCED.mul, a, b)[1] == _outcome(oracle_mul, a, b)[1]


@given(
    canonical_probability,
    st.lists(st.tuples(st.sampled_from(sorted(_MODULE_OPERATIONS)), canonical_probability), min_size=3, max_size=3),
)
def test_balanced_view_chains_match_the_module(start, steps):
    view = pr.BALANCED
    value, reference = start, start
    for name, operand in steps:
        if name == "div" and operand[0] == 0.0:
            continue
        value, bits = _outcome(getattr(view, name), value, operand)
        reference, reference_bits = _outcome(_MODULE_OPERATIONS[name], reference, operand)
        assert bits == reference_bits, name
        if value is None:
            return


@given(_significands, _significands, st.integers(-40, 0), st.integers(ALIGN_CUTOFF - 2, ALIGN_CUTOFF + 2))
def test_balanced_view_add_matches_the_module_across_the_align_cutoff(sa, sb, exponent, gap):
    a, b = (sa, exponent), (sb, exponent - gap)
    view = pr.BALANCED
    for x, y in ((a, b), (b, a)):
        assert _bits(view.add(x, y)) == _bits(_clamped(balanced.add(x, y)))


# --- balanced from_real in one frame -----------------------------------------


def test_balanced_from_real_matches_canonical_bit_for_bit():
    rng = random.Random(20)
    values = [
        0.0, 1.0, 0.5, 5e-324, 2.2250738585072014e-308, 1.0 - 2.0**-53,
        *(math.ldexp(1.0 - 2.0**-k, -e) for k in (25, 26, 30, 53) for e in (0, 1, 7, 1000, 1021)),
        *(rng.random() for _ in range(2000)),
        *(math.ldexp(rng.random(), -rng.randrange(1075)) for _ in range(2000)),
    ]
    carries = 0
    for p in values:
        got, want = pr.BALANCED.from_real(p), balanced._canonical(p, 0)
        assert type(got) is tuple
        assert _bits(got) == _bits(want), p
        carries += p > 0.0 and got[1] > math.frexp(p)[1]
    assert carries >= 21  # 1 - 2**-53 and the 20 values at the top of a binade carry
