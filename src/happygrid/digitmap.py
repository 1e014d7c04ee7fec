"""Base-b digit counts and the generalized digit-power-sum map, which sends
n to the sum of the e-th powers of its base-b digits (0, with none, to 0).
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

# digit_power_sum loops over the digits of values of up to 1024 bits, where
# the loop is at least as fast as a split, and splits larger values with
# _chunks into chunks below 2**_LEAF_BITS (two 30-bit limbs).
_SPLIT_ABOVE = 1 << 1024
_LEAF_BITS = 60

# digit_power_sum reads d**e from a table of the base's digit powers when the
# base has at most _TABLE_BASES digits and the table's powers hold at most
# _TABLE_BITS bits in all, 4 MiB: a base up to 1024 at any digit weight the
# CLI admits.  Above that, as for base 10**6 + 1, the table would cost more to
# build and hold than it saves, and each digit's power is computed.
_TABLE_BASES = 1024
_TABLE_BITS = 2**25


class _DigitSystemFields(NamedTuple):
    base: int
    exponent: int


class DigitSystem(_DigitSystemFields):
    """Parameters of the map: digits taken in `base`, raised to `exponent`."""

    __slots__ = ()

    def __new__(cls, base: int = 10, exponent: int = 2) -> DigitSystem:
        if not isinstance(base, int) or base < 2:
            raise ValueError(f"base must be an integer >= 2, got {base!r}")
        if not isinstance(exponent, int) or exponent < 1:
            raise ValueError(f"exponent must be an integer >= 1, got {exponent!r}")
        return super().__new__(cls, base, exponent)

    @property
    def digit_weight(self) -> int:
        """Largest value a single digit can contribute: (base-1)**exponent."""
        return (self.base - 1) ** self.exponent


def as_natural(value) -> int:
    """Coerce to a nonnegative int, rejecting negatives and non-integers."""
    n = operator.index(value)
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    return n


def digit_count(n: int, sys: DigitSystem) -> int:
    """Number of digits of n in the system's base; 0 has zero digits.

    The count is estimated from n.bit_length() and then corrected exactly
    against powers of the base, so a huge n costs one power and at most
    two multiplications rather than one division per digit.
    """
    n = as_natural(n)
    if not n:
        return 0
    base = sys.base
    # floor((bits - 1) / log2(base)) is at most count - 1; float rounding
    # adds at most one, so the estimate never overshoots.
    count = max(1, int((n.bit_length() - 1) / math.log2(base)))
    smallest = base ** (count - 1)  # the smallest value with `count` digits
    while smallest * base <= n:
        smallest *= base
        count += 1
    return count


def digit_power_sum(n: int, sys: DigitSystem) -> int:
    """Sum of the exponent-th powers of the base-b digits of n.

    Leading-zero padding of the digit expansion cannot affect the result,
    so the map is well defined on values rather than digit strings.  The
    same fact lets a huge n be summed chunk by chunk (see _chunks).
    """
    n = as_natural(n)
    total = 0
    # n < base is a single digit: a base of over _LEAF_BITS bits has such
    # chunks, and they go to the loop even above the cutoff.
    if n >= _SPLIT_ABOVE and n >= sys.base:
        # A loop, not sum() over a generator, which would close over sys
        # and so slow down every call.
        for chunk in _chunks(n, sys.base):
            total += digit_power_sum(chunk, sys)
        return total
    base = sys.base
    powers = _digit_powers(sys)
    if powers is None:
        e = sys.exponent
        while n:
            n, d = divmod(n, base)
            total += d**e
    else:
        while n:
            n, d = divmod(n, base)
            total += powers[d]
    return total


def map_units(sys: DigitSystem, digits: int) -> int:
    """Units of work of one map of a value of `digits` digits, about 15-80 ns each.

    A digit costs 4 units and the addition of its power one more per 1024
    bits of the digit weight.  A digit whose power is computed, not read
    from the table, costs bits**1.5 / 1024 more, for the powering.  One map
    took 0.6 us at (10, 2), 29 us at (10, 200), 6.6 ms at (10, 8192), 5.5 ms
    at (3, 16384) and 6.1 ms at (1024, 3276) from the table, and 1.3 us a
    digit at (65536, 100) and 113 us a digit at (65536, 2048) computing each
    power (values near B, in process; Python 3.11, 2-vCPU Xeon).
    """
    bits = sys.exponent * (sys.base - 1).bit_length()
    per_digit = 4 + bits // 1024
    if _digit_powers(sys) is None:
        per_digit += bits * math.isqrt(bits) // 1024
    return digits * per_digit


@functools.lru_cache(maxsize=8)
def _digit_powers(sys: DigitSystem) -> tuple[int, ...] | None:
    """The table (0**e, 1**e, ..., (b-1)**e), or None where it would be too large."""
    base, e = sys
    if base > _TABLE_BASES or base * e * (base - 1).bit_length() > _TABLE_BITS:
        return None
    return tuple(d**e for d in range(base))


def _chunks(n: int, base: int):
    """Yield the k-digit base-`base` chunks of n, in no particular order.

    Divide and conquer (Brent & Zimmermann, Modern Computer Arithmetic,
    section 1.7): n is split by base**(k * 2**j), largest j first, so it
    takes O(log n) levels of big divisions instead of one division per
    digit.  Every chunk is below base**k; all but the most significant
    one stand for zero-padded k-digit blocks.
    """
    k = max(1, _LEAF_BITS // base.bit_length())
    powers = [base**k]
    # Square until powers[-1]**2 > n, so that each split's high part is
    # below its divisor and one level down can split it again.
    while 2 * powers[-1].bit_length() - 2 < n.bit_length():
        powers.append(powers[-1] ** 2)
    stack = [(n, len(powers) - 1)]
    while stack:
        n, level = stack.pop()
        while level >= 0 and n < powers[level]:
            level -= 1
        if level < 0:
            yield n
        else:
            hi, lo = divmod(n, powers[level])
            stack += ((hi, level - 1), (lo, level - 1))
