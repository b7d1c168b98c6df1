#!/usr/bin/env python3
"""Driving the benchmark through the library instead of the CLI.

Same machinery as `pa-bench`, at a size that finishes in a few seconds.
Checksums for double and logpr agree to many digits because both are
near-exact on the identical operand stream; fixedlog drifts by its
quantization and balanced by its single-precision rounding.
"""

from pakit import bench

results = bench.run(op_count=400_000, seed=7)

print(bench.format_text(results))
print()
print("as csv:")
print(bench.format_csv(results))

double = next(r for r in results if r.backend == "double")
logpr = next(r for r in results if r.backend == "logpr")
print()
print("checksum agreement double vs logpr: %.2e" % abs(double.checksum - logpr.checksum))
