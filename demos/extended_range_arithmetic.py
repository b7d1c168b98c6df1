#!/usr/bin/env python3
"""Multiplying a thousand probabilities without underflowing.

Native doubles give up around 1e-308.  The three extended
representations carry the same product to 1e-1500 and far beyond, each
with its own cost/accuracy tradeoff.
"""

import math
import random

from pakit import balanced, fixedlog, logpr

rng = random.Random(2024)
probabilities = [rng.uniform(0.02, 0.05) for _ in range(1000)]
true_ln = sum(math.log(p) for p in probabilities)
print("product of 1000 probabilities, true ln = %.3f (about 1e%d)" % (true_ln, true_ln / math.log(10)))
print()

product = 1.0
for p in probabilities:
    product *= p
print("double:   product underflows to %r" % product)

neg_log = logpr.ONE
for p in probabilities:
    neg_log = logpr.mul(neg_log, logpr.from_real(p))
print("logpr:    -ln(product) = %.6f  (error %.2e)" % (neg_log, abs(-neg_log - true_ln)))

value = balanced.ONE
for p in probabilities:
    value = balanced.mul(value, balanced.from_real(p))
significand, exponent = value
print(
    "balanced: significand %.6f, exponent %d -> ln = %.6f  (error %.2e)"
    % (significand, exponent, balanced.ln_abs(value), abs(balanced.ln_abs(value) - true_ln))
)

code = 0
for p in probabilities:
    code = fixedlog.mul(code, fixedlog.from_real(p))
print(
    "fixedlog: code %d of %d -> ln = %.6f  (error %.2e)"
    % (code, fixedlog.SENTINEL, -code / fixedlog.SCALE, abs(-code / fixedlog.SCALE - true_ln))
)

print()
print("adding probabilities stays cheap in each representation:")
half = 0.5
print("  logpr:    0.5 + 0.5 =", logpr.to_real(logpr.add(logpr.from_real(half), logpr.from_real(half))))
print("  fixedlog: 0.5 + 0.5 =", fixedlog.to_real(fixedlog.add(fixedlog.from_real(half), fixedlog.from_real(half))))
b = balanced.from_real(half)
print("  balanced: 0.5 + 0.5 =", balanced.to_real(balanced.add(b, b)))

print()
print("balanced also covers signs and huge magnitudes:")
big = balanced.from_real(1e300)
bigger = balanced.mul(big, big)
print("  (1e300)^2 ->", bigger, "~ 1e%d" % (balanced.ln_abs(bigger) / math.log(10)))
print("  negate and compare:", balanced.cmp(balanced.neg(bigger), bigger), "(negative sorts first)")
