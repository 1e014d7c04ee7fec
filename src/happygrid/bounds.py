"""The half of certification that maps no value: sizes, caps and records.

Certification (see `certify`) rests on two numbers that the digit system
alone fixes: the digit-count threshold p0, found by an exact big-integer
scan of (base-1)^exponent * p < base^(p-1), and the brute bound
B = base^(p0-1) - 1 that every stage takes its range from.  This module
computes both, the threshold inequality report and the default step budget
from them, and holds the size caps every stage checks before it allocates
anything, with the digit-weight cap every digit command checks first, the
atlas record and the four stage reports.

None of it calls the digit map: every function that maps a value lives in
`certify`, where the map's calls are counted.  `traj` needs p0 and the step
budget but no atlas, so it loads this module and never `certify`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .digitmap import DigitSystem, digit_count
from .dynamics import Cycle
from .limits import TooLargeError, brief

# The most values one verified range or one atlas may cover.  (10, 6) has
# B + 1 = 10**7.  `certify --exp 6` reads its 11,440 digit multisets and
# takes 0.12-0.23 s with a peak RSS of 19 MB, but a check that visits all
# 10**7 values one by one, a sub-range or a failure at a large n, takes
# 3.5-5.8 s (Python 3.11, 2-vCPU Xeon).  The atlas keeps this cap until one
# on the multiset count is measured.
MAX_VALUES = 10**7

# A value above B costs one map of all its digits: about 0.2 us a digit,
# plus big-int divisions that grow as the square of its size and dominate
# from about 10**5 bits on, so a value of n digits and k bits counts
# n + (k // 400)**2 units of work.  At this many units the largest ranges
# allowed take 16-58 s: 33 values of 830,482 bits (250,000 decimal digits,
# the longest --hi the CLI reads) in base 36, 487 of 60,000 digits and
# 140,977 of 1,000 digits in base 10, 6 * 10**6 of 24 bits in base 2 and
# 15,685 of 33,000 bits in base 3162 with exponent 1 (a tenth of each range
# of random digits timed and scaled; Python 3.11, 2-vCPU Xeon).
MAX_RANGE_WORK = 15 * 10**7

# The digit weight (base - 1)**exponent, counted as exponent times the bit
# length of base - 1, holds at most this many bits.  Every digit of a value
# adds a power of that size, and the threshold scan grows quadratically with
# it.  At 2**15 bits the scan takes 0.01-0.03 s.  The second and third map
# steps from 5 take 1-9 ms in bases 3 to 1024, which read their digit powers
# from a table built once in 0.1 s or less, and 0.03-0.3 s in bases 2**16 and
# 10**6 + 1, which compute each power.  Base 10 with exponent 20,000 takes
# 0.02 s a step and exponent 100,000 0.6 s (Python 3.11, 2-vCPU Xeon).
MAX_WEIGHT_BITS = 2**15


class CertificationError(RuntimeError):
    """An internal consistency check failed; certification is void."""


def check_size(count: int, what: str) -> None:
    """Refuse, before anything is allocated, work over more than MAX_VALUES values."""
    if count > MAX_VALUES:
        raise TooLargeError(f"{what} holds {brief(count)} values, above the limit of {MAX_VALUES}")


def check_range_size(sys: DigitSystem, lo: int, hi: int) -> None:
    """Refuse, before any value is visited, to verify [lo, hi] above the work limits.

    The range holds at most MAX_VALUES values, and its values above B count
    at most MAX_RANGE_WORK units, each at the size of hi.
    """
    check_size(hi - lo + 1, f"the verification range [{brief(lo)}, {brief(hi)}]")
    above = hi - max(lo, brute_bound(sys) + 1) + 1
    if above > 0:
        digits = digit_count(hi, sys)
        work = above * (digits + (hi.bit_length() // 400) ** 2)
        if work > MAX_RANGE_WORK:
            raise TooLargeError(f"the verification range holds {above} values above B of up to "
                                f"{digits} digits, {work} units of work, above the limit of "
                                f"{MAX_RANGE_WORK}")


def check_bound_size(sys: DigitSystem) -> None:
    """Refuse, before any stage runs, to certify over [0, B] above MAX_VALUES values."""
    bound = brute_bound(sys)
    # B = base**(p0 - 1) - 1 is named by that formula, short at any size
    k = digit_count(bound, sys)
    check_size(bound + 1, f"a table of {sys} over [0, {sys.base}**{k} - 1]")


def check_weight_size(sys: DigitSystem) -> None:
    """Refuse, before any work, a digit weight of more than MAX_WEIGHT_BITS bits."""
    bits = sys.exponent * (sys.base - 1).bit_length()
    if bits > MAX_WEIGHT_BITS:
        raise TooLargeError(f"the digit weight (base - 1)**exponent holds up to {bits} bits, "
                            f"above the limit of {MAX_WEIGHT_BITS}")


class _AtlasFields(NamedTuple):
    system: DigitSystem
    max_transient: int
    fixed_points: frozenset[int]
    cycles: frozenset[Cycle]


class AttractorAtlas(_AtlasFields):
    """The complete certified attractor set of a digit system.

    max_transient is the longest transient over [0, B].  p0 and B are not
    stored: digit_reduction_threshold and brute_bound derive them from the
    system.
    """

    # No __slots__: the cached properties below live in the instance __dict__.

    @cached_property
    def attractors(self) -> tuple[Cycle, ...]:
        """Every attractor, fixed points as 1-cycles, sorted by minimum member."""
        singletons = (Cycle((value,)) for value in self.fixed_points)
        return tuple(sorted(chain(singletons, self.cycles), key=lambda c: c.members[0]))

    @cached_property
    def member_to_attractor(self) -> dict[int, Cycle]:
        table: dict[int, Cycle] = {}
        for attractor in self.attractors:
            for value in attractor.members:
                table[value] = attractor
        return table


# Every report names its least failing case `failing`, None when it passes.

class ThresholdReport(NamedTuple):
    p0: int
    p_max: int
    ok: bool
    minimal: bool
    failing: int | None = None


class InvarianceReport(NamedTuple):
    bound: int
    ok: bool
    checked: int
    max_image: int
    failing: int | None = None


class RangeReport(NamedTuple):
    lo: int
    hi: int
    ok: bool
    checked: int
    max_transient: int
    failing: int | None = None
    reason: str | None = None


class IdentityReport(NamedTuple):
    ok: bool
    checked: int
    min_descent: int
    failing: int | None = None


def digit_reduction_threshold(sys: DigitSystem) -> int:
    """Least p0 >= 2 such that (base-1)^exponent * p < base^(p-1) for all p >= p0.

    Scans p upward until the inequality first holds.  One base case is
    enough because the step p -> p+1 is self-sustaining once
    (base-1)^exponent <= base^(p-1):

        w*(p+1) = w*p + w < base^(p-1) + base^(p-1) <= base^p

    The side condition is implied by the base case (w <= w*p), but the
    scan verifies it explicitly instead of trusting the implication.
    """
    weight = sys.digit_weight
    p, power = 2, sys.base  # power = base^(p-1)
    while weight * p >= power:
        p += 1
        power *= sys.base
    if weight > power:
        raise CertificationError(
            f"inductive step broken at p0={p} for {sys}: "
            f"{weight} > {sys.base}^{p - 1}"
        )
    return p


def brute_bound(sys: DigitSystem) -> int:
    """Forward-invariant inclusive top B = base^(p0-1) - 1 of the exhaustive range.

    p0 is the digit-reduction threshold.  A value of [0, B] has at most p0-1
    digits, so with w = (base-1)^exponent its image is at most
    w*(p0-1) < w*p0 < base^(p0-1), the last step being the threshold
    inequality at p0: the image lies in [0, B].  The exhaustive scan lives
    in certify.forward_invariance_scan.  Every stage takes its range from here.
    """
    return sys.base ** (digit_reduction_threshold(sys) - 1) - 1


def threshold_inequality_check(sys: DigitSystem, p_max: int) -> ThresholdReport:
    """Evaluate (base-1)^exponent * p < base^(p-1) for every p in [p0, p_max].

    Also re-checks minimality: the inequality must fail at p0 - 1 unless
    p0 == 2.  Everything is exact big-integer arithmetic.
    """
    p0 = digit_reduction_threshold(sys)
    if p_max < p0:
        raise ValueError(f"p_max={p_max} is below the threshold p0={p0}")
    weight = sys.digit_weight
    power = sys.base ** (p0 - 1)  # base^(p-1), one multiplication per p
    for p in range(p0, p_max + 1):
        if weight * p >= power:
            return ThresholdReport(p0, p_max, ok=False, minimal=True, failing=p)
        power *= sys.base
    minimal = p0 == 2 or weight * (p0 - 1) >= sys.base ** (p0 - 2)
    return ThresholdReport(p0, p_max, ok=minimal, minimal=minimal)


def default_step_budget(n: int, sys: DigitSystem, digits: int | None = None) -> int:
    """Step budget generous against the certified descent rates.

    10 steps per digit of n plus the brute bound, never below 1000.  A
    caller that holds the digit count of the start, not the start itself,
    passes it as `digits`, and n is not read.
    """
    if digits is None:
        digits = digit_count(n, sys)
    return max(1000, 10 * digits + brute_bound(sys))
