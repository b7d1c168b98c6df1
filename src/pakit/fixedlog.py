"""Fixed-point log-domain probabilities with table-driven addition.

A probability p is stored as the unsigned integer code
round(-scale * ln(p)), so code 0 is exactly 1, larger codes are smaller
probabilities, and the all-ones code is reserved as the sentinel for
exactly 0.  Multiplication is one integer addition (saturating to the
sentinel when the product collapses below the representable range).

Addition uses the classic log-sum trick: with lo/hi the smaller/larger
code and d their difference,

    result = lo - round(scale * ln(1 + exp(-d / scale)))

and the correction term is precomputed for every d up to the point
where it rounds to zero, so adds stay integer-only.  The table is one
packed array of signed 4-byte ints rather than a list of Python ints, so
that it stays cache-resident: at the default scale its 772,245 entries
take 3.1 MB, where the list's 8-byte slots and int objects took about
18 MB, and a lookup reads 4 bytes where the list read a slot and then,
for corrections above 256, a separate int object.  The default width
is 32 bits with scale 2**16, which reaches probabilities down to about
10**-28462; widths 8 and 16 are available with proportionally smaller
scales.  Width 64 is not offered: its correction table would need on
the order of 10**11 entries.
"""

import math
from array import array

import numpy as np

from . import wire
from .errors import DomainFault

DEFAULT_WIDTH = 32
_DEFAULT_SCALES = {8: 1 << 4, 16: 1 << 8, 32: 1 << 16}

DEFAULT_SCALE = _DEFAULT_SCALES[DEFAULT_WIDTH]
SENTINEL = (1 << DEFAULT_WIDTH) - 1


def _build_correction_table(scale: int) -> array:
    """corr[d] = round(scale * ln(1 + exp(-d/scale))), up through its first zero."""
    bound = int(scale * math.log(2.0 * scale)) + 64
    # Evaluated in place, so the build holds one float64 array at a time.
    x = np.arange(bound + 1, dtype=np.float64)
    np.divide(x, -scale, out=x)
    np.exp(x, out=x)
    np.log1p(x, out=x)
    np.multiply(x, scale, out=x)
    np.rint(x, out=x)
    x = x.astype(np.intc)
    zeros = np.flatnonzero(x == 0)
    if zeros.size == 0:
        raise AssertionError("correction table bound %d too small for scale %d" % (bound, scale))
    return array("i", x[: int(zeros[0]) + 1].tobytes())


class FixedLogCodec:
    """Code arithmetic for one (width, scale) configuration.

    mul and add are built as closures over the sentinel and correction
    table so the hot path carries no attribute lookups.  `corr` is one
    packed `array('i')` of signed 4-byte ints (numpy's intc), kept small
    so that it stays in cache: 3.1 MB at the default scale against about
    18 MB as a list of Python ints.
    """

    def __init__(self, width: int = DEFAULT_WIDTH, scale: int | None = None):
        if width not in _DEFAULT_SCALES:
            raise DomainFault("width must be 8, 16, or 32 bits, got %r" % width)
        if scale is None:
            scale = _DEFAULT_SCALES[width]
        if scale < 1:
            raise DomainFault("scale must be positive, got %r" % scale)
        self.width = width
        self.scale = scale
        self.sentinel = (1 << width) - 1
        self.corr = _build_correction_table(scale)
        self.d_max = len(self.corr) - 1

        sentinel = self.sentinel
        corr = self.corr
        d_max = self.d_max

        def mul(a: int, b: int) -> int:
            """Code addition; saturates to the sentinel (probability 0) on overflow.

            A sentinel operand needs no special case: codes are
            nonnegative, so its sum already lands at or past the
            sentinel and saturates to exact zero.
            """
            total = a + b
            return total if total < sentinel else sentinel

        def add(a: int, b: int) -> int:
            """Table-corrected log-sum; sums past probability 1 clamp to code 0.

            After the swap a <= b, so a sentinel operand is b: it takes no
            correction and the sum is a.  Past the table (d > d_max) the
            correction is 0 and a needs no clamp.
            """
            if a > b:
                a, b = b, a
            d = b - a
            if d <= d_max and b != sentinel:
                a -= corr[d]
                return a if a > 0 else 0
            return a

        self.mul = mul
        self.add = add

    def from_real(self, p: float) -> int:
        """Encode a probability in [0, 1]; zero maps to the sentinel."""
        if not 0.0 <= p <= 1.0:
            raise DomainFault("probability %r outside [0, 1]" % (p,))
        if p == 0.0:
            return self.sentinel
        code = round(-self.scale * math.log(p))
        return code if code < self.sentinel else self.sentinel - 1

    def to_real(self, code: int) -> float:
        if code == self.sentinel:
            return 0.0
        return math.exp(-code / self.scale)

    def div(self, a: int, b: int) -> int:
        """Code subtraction clamped at 0 (quotients cap at probability 1)."""
        if b == self.sentinel:
            raise DomainFault("division by probability zero")
        if a == self.sentinel:
            return self.sentinel
        diff = a - b
        return diff if diff > 0 else 0

    def cmp(self, a: int, b: int) -> int:
        """Order by probability: the smaller code is the larger value."""
        if a == b:
            return 0
        return 1 if a < b else -1

    def write(self, stream, code: int) -> None:
        wire.write_uint(stream, code, self.width // 8)

    def read(self, stream) -> int:
        return wire.read_uint(stream, self.width // 8)


_default_codec: FixedLogCodec | None = None


def default_codec() -> FixedLogCodec:
    """Shared 32-bit codec; the correction table builds on first use."""
    global _default_codec
    if _default_codec is None:
        _default_codec = FixedLogCodec()
    return _default_codec


def from_real(p: float) -> int:
    return default_codec().from_real(p)


def to_real(code: int) -> float:
    return default_codec().to_real(code)


def mul(a: int, b: int) -> int:
    return default_codec().mul(a, b)


def add(a: int, b: int) -> int:
    return default_codec().add(a, b)


def div(a: int, b: int) -> int:
    return default_codec().div(a, b)


def cmp(a: int, b: int) -> int:
    return default_codec().cmp(a, b)


def write(stream, code: int) -> None:
    default_codec().write(stream, code)


def read(stream) -> int:
    return default_codec().read(stream)
