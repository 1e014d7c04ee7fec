"""Mechanized convergence certification for a digit system.

Three stages, each checked by machine rather than trusted:

1. a digit-count threshold p0 from which the map strictly reduces the
   number of digits (big-integer inequality scan plus the explicit
   inductive step that makes one base case cover all larger p);
2. a forward-invariant brute bound B that folds every shorter value into
   one exhaustively checkable range [0, B];
3. exhaustive enumeration of [0, B] that discovers every fixed point
   and cycle and the longest transient.

The resulting atlas makes every classification provably terminating.

B = b^k - 1 with k = p0 - 1 is decided in one place, `brute_bound(sys)`,
and every stage takes the system alone: [0, B] is exactly the set of
k-digit strings, leading zeros included, and f depends only on a string's
digit multiset.  Stage 2 and the checker therefore read the C(k+b-1, b-1)
digit multisets of [0, B], once per process, instead of its B + 1 values:
each multiset's image, the sum of f over its digits, and the number of
values it stands for.  Stage 3 reads no multisets: f([0, B]) is the set
of sums of k powers d**e, and enumeration walks that set alone.
`verify_range` checks an atlas independently, by one breadth-first search
backwards from the atlas members over that image set, which gives the
exact number of steps from every value to the atlas.  Sub-ranges, values
above B and any failure visit the values in order, which names the least
failing value.  No table of the map over [0, B] is built.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement
from math import factorial
from typing import NamedTuple

from .digitmap import DigitSystem, as_natural, digit_count, digit_power_sum
from .dynamics import Cycle, canonicalize_cycle

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


class CertificationError(RuntimeError):
    """An internal consistency check failed; certification is void."""


class TooLargeError(ValueError):
    """The work asked for exceeds a size limit; nothing was built."""


def brief(n: int) -> str:
    """n in decimal, or past 30 digits its digit count: a refusal stays one short line."""
    if -10**30 < n < 10**30:
        return str(n)
    return f"{'-' * (n < 0)}<{digit_count(abs(n), DigitSystem(10, 1))} digits>"


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
    in forward_invariance_scan.  Every stage takes its range from here.
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


# A few systems are kept, so a process that certifies several in turn finds
# each one's counts again whatever the order: with one kept, how often the
# map ran depended on which system came last.  An entry holds at most one
# image per multiset: 1.9 MB at (10,6), 6.6 MB at (36,3) (tracemalloc).
@lru_cache(maxsize=8)
def _image_counts(sys: DigitSystem) -> tuple[dict[int, int], dict[int, list[int]], int]:
    """f over [0, B]: image counts, preimages and the largest image.

    The counts map each image to how many values of [0, B] map to it, and
    the preimages map a value to the images whose image it is, so the image
    set S = f([0, B]) is all this function knows.  B = b^k - 1, so [0, B] is
    exactly the set of k-digit strings, leading zeros included, and f
    depends only on a string's multiset of digits.  The map is taken once on
    each digit, and d -> d^e is one-to-one on digits, so each of the
    C(k+b-1, b-1) multisets of those b powers stands for one digit multiset:
    its image is its sum, and it counts its multinomial number of
    arrangements (the combination search of Deimel & Jones, J. Recreational
    Math. 14, 1981-82).  The map still runs on every image, for the
    preimages.  The results are kept for every stage to share: do not mutate
    them.
    """
    check_bound_size(sys)
    base = sys.base
    bound = brute_bound(sys)
    digits = digit_count(bound, sys)
    factorials = [factorial(i) for i in range(digits + 1)]
    powers = [digit_power_sum(d, sys) for d in range(base)]
    counts: dict[int, int] = {}
    for multiset in combinations_with_replacement(powers, digits):
        arrangements = factorials[digits]
        for power in set(multiset):
            arrangements //= factorials[multiset.count(power)]
        image = sum(multiset)
        counts[image] = counts.get(image, 0) + arrangements
    total = sum(counts.values())
    if total != bound + 1:
        raise CertificationError(
            f"the image counts of [0, {bound}] add up to {total} for {sys} "
            "(implementation bug)"
        )
    preimages: dict[int, list[int]] = {}
    for value in counts:
        preimages.setdefault(digit_power_sum(value, sys), []).append(value)
    return counts, preimages, max(counts)


def forward_invariance_scan(sys: DigitSystem) -> InvarianceReport:
    """Exhaustively confirm f([0, B]) is contained in [0, B].

    The image counts of [0, B] (_image_counts) give the largest image.
    Only when it exceeds B are the values scanned in order, which names
    the least escaping value.
    """
    bound = brute_bound(sys)
    max_image = _image_counts(sys)[2]
    if max_image <= bound:
        return InvarianceReport(bound, ok=True, checked=bound + 1, max_image=max_image)
    escaping = next(n for n in range(bound + 1) if digit_power_sum(n, sys) > bound)
    return InvarianceReport(bound, ok=False, checked=escaping + 1,
                            max_image=digit_power_sum(escaping, sys), failing=escaping)


_ON_PATH = -1


def _digit_power_sums(sys: DigitSystem, digits: int) -> set[int]:
    """f over every string of the given number of digits: the sums of that many digit powers."""
    powers = [d**sys.exponent for d in range(sys.base)]
    sums = {0}
    for _ in range(digits):
        sums = {s + p for s in sums for p in powers}
    return sums


def enumerate_attractors(sys: DigitSystem) -> AttractorAtlas:
    """Exhaustively classify [0, B] and return the certified atlas.

    B = b^k - 1 (brute_bound), so [0, B] is exactly the set of k-digit
    strings, leading zeros included, and the image set S = f([0, B]) is
    the set of sums of k digit powers (the combination search for digital
    invariants: Deimel & Jones, J. Recreational Math. 14, 1981-82).  Every
    value of [0, B] maps into S, so every cycle lies in S.  The longest
    transient t in [0, B] is one more than the longest in S: t >= 1, since
    base -> 1 and 1 is fixed; a value with transient t maps to one in S
    with t - 1; and a value of S off the cycles is the image of a value
    with one step more.  Memoized walks from each value of S classify S:
    meeting a value on the current walk closes a brand-new cycle; meeting
    a classified one inherits its transient.  No table of [0, B] is built.

    An image escaping [0, B] would falsify the brute bound and raises
    CertificationError naming the least escaping value (from
    forward_invariance_scan); it cannot happen if brute_bound is correct.
    """
    bound = brute_bound(sys)
    # A failing check visits the values of [0, B] one by one, so the atlas
    # is refused where that visit would exceed MAX_VALUES.
    check_bound_size(sys)
    image_set = _digit_power_sums(sys, digit_count(bound, sys))
    if max(image_set) > bound:
        escape = forward_invariance_scan(sys)
        raise CertificationError(
            f"image {escape.max_image} of {escape.failing} escapes "
            f"[0, {bound}] for {sys}; brute bound is wrong (implementation bug)"
        )
    transient: dict[int, int] = {}
    found: list[Cycle] = []
    for start in image_set:
        path = []
        current = start
        while current not in transient:
            transient[current] = _ON_PATH
            path.append(current)
            current = digit_power_sum(current, sys)
        if transient[current] == _ON_PATH:
            # the walk closed a brand-new cycle inside its own path
            first = path.index(current)
            found.append(canonicalize_cycle(path[first:], sys))
            for value in path[first:]:
                transient[value] = 0
            del path[first:]
        for steps, value in enumerate(reversed(path), transient[current] + 1):
            transient[value] = steps

    return AttractorAtlas(
        system=sys,
        max_transient=max(transient.values()) + 1,
        fixed_points=frozenset(c.members[0] for c in found if c.is_fixed_point),
        cycles=frozenset(c for c in found if not c.is_fixed_point),
    )


def default_step_budget(n: int, sys: DigitSystem, digits: int | None = None) -> int:
    """Step budget generous against the certified descent rates.

    10 steps per digit of n plus the brute bound, never below 1000.  A
    caller that holds the digit count of the start, not the start itself,
    passes it as `digits`, and n is not read.
    """
    if digits is None:
        digits = digit_count(n, sys)
    return max(1000, 10 * digits + brute_bound(sys))


def _levels(preimages: dict[int, list[int]], members: list[int]) -> dict[int, int]:
    """Exact steps to the nearest member, by a breadth-first search backwards.

    preimages maps a value to the values whose image it is.  Each value has
    one image, so the search finds it once, from its image, and its level is
    its step count.  Values that reach no member are left out.
    """
    level = dict.fromkeys(members, 0)
    frontier = members
    depth = 0
    while frontier:
        depth += 1
        frontier = [u for v in frontier for u in preimages.get(v, ()) if u not in level]
        level.update(dict.fromkeys(frontier, depth))
    return level


def verify_range(sys: DigitSystem, atlas: AttractorAtlas, lo: int, hi: int,
                 max_steps: int | None = None) -> RangeReport:
    """Check that every n in [lo, hi] reaches an atlas member within the budget.

    n passes iff its orbit meets a member in at most max_steps steps.  The
    report counts the values checked before the first failure and the
    longest transient among them.  One breadth-first search backwards from
    the atlas members over the image set S = f([0, B]), whose orbits stay in
    S, gives each value of S its exact number of steps to the atlas.  A value
    of [0, B] that is not a member takes one step more than its image, so
    for the whole of [0, B] the image counts of its digit multisets, less the
    members, give every step count.  Otherwise, and on any failure, the
    values are visited in order, which names the least failing value: every
    atlas member lies in [0, B], so a value above B first applies the map
    until it is at most B, and one outside the search takes one more step.
    This is independent of the forward walks over digit-power sums that
    enumerate the atlas.  An image escaping [0, B] fails the check at the
    least escaping value.
    """
    if atlas.system != sys:
        raise ValueError(f"atlas was certified for {atlas.system}, not {sys}")
    lo, hi = as_natural(lo), as_natural(hi)
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    check_range_size(sys, lo, hi)
    budget = max_steps if max_steps is not None else default_step_budget(hi, sys)
    bound = brute_bound(sys)
    counts, preimages, max_image = _image_counts(sys)
    if max_image > bound:
        escaping = forward_invariance_scan(sys).failing
        return RangeReport(lo, hi, ok=False, checked=0, max_transient=0,
                           failing=escaping, reason=f"f({escaping}) escapes [0, {bound}]")
    members = [m for m in atlas.member_to_attractor if m <= bound]
    level = _levels(preimages, members)
    if lo == 0 and hi == bound:
        non_members = dict(counts)
        for member in members:
            non_members[digit_power_sum(member, sys)] -= 1
        # a value whose image never reaches the atlas counts as budget + 1 steps
        max_transient = max((level.get(image, budget) + 1
                             for image, count in non_members.items() if count), default=0)
        if max_transient <= budget:
            return RangeReport(lo, hi, ok=True, checked=bound + 1,
                               max_transient=max_transient)
    base, unreached = sys.base, budget + 1
    powers = [d**sys.exponent for d in range(base)]
    last_q = last_image = -1
    # f of the values that values above B map down to: few and scattered
    mapped_down: dict[int, int] = {}
    max_transient = 0
    for n in range(lo, hi + 1):
        value, taken = n, 0
        while value > bound:
            value = digit_power_sum(value, sys)
            taken += 1
        if value not in level:
            if taken:
                image = mapped_down.get(value)
                if image is None:
                    image = mapped_down[value] = digit_power_sum(value, sys)
                value = image
            else:
                # f(q*b + d) = f(q) + d^e, and runs of consecutive values share q
                q = value // base
                if q != last_q:
                    last_q, last_image = q, digit_power_sum(q, sys)
                value = last_image + powers[value - q * base]
            taken += 1
        # a value whose orbit never reaches the atlas takes over budget steps
        taken += level.get(value, unreached)
        if taken > budget:
            return RangeReport(lo, hi, ok=False, checked=n - lo, max_transient=max_transient,
                               failing=n, reason=f"no atlas member within {budget} steps")
        if taken > max_transient:
            max_transient = taken
    return RangeReport(lo, hi, ok=True, checked=hi - lo + 1,
                       max_transient=max_transient)


def three_digit_identity_check() -> IdentityReport:
    """Exhaustive descent identity for three-digit values in base 10, squares.

    For n = 100a + 10b + c (a in [1,9], b and c in [0,9]):

        n - f(n) = a(100 - a) + b(10 - b) + c - c^2

    with a(100 - a) >= 99 and b(10 - b) >= 0, so n - f(n) >= 18 >= 1 and
    f(n) <= n - 1 throughout.  Any counterexample would mean the map
    implementation drifted; there is none.
    """
    squares = DigitSystem(10, 2)
    checked = 0
    min_descent: int | None = None
    for a in range(1, 10):
        for b in range(10):
            for c in range(10):
                n = 100 * a + 10 * b + c
                descent = n - digit_power_sum(n, squares)
                identity = a * (100 - a) + b * (10 - b) + c - c * c
                if descent != identity or a * (100 - a) < 99 or b * (10 - b) < 0 \
                        or descent < 18:
                    return IdentityReport(ok=False, checked=checked,
                                          min_descent=descent, failing=n)
                checked += 1
                if min_descent is None or descent < min_descent:
                    min_descent = descent
    return IdentityReport(ok=True, checked=checked, min_descent=min_descent)


def validate_atlas(atlas: AttractorAtlas) -> None:
    """Re-check an atlas; raise CertificationError on any violation.

    The cheap checks (fixed points fixed, cycles closed and canonical,
    attractors disjoint) run first.  Then verify_range re-checks all of
    [0, B] from its digit multisets (failing on an escaping image) and the
    atlas's longest transient.
    """
    sys = atlas.system
    for value in atlas.fixed_points:
        if digit_power_sum(value, sys) != value:
            raise CertificationError(f"{value} is not a fixed point of {sys}")
    seen: set[int] = set(atlas.fixed_points)
    for cycle in atlas.cycles:
        if cycle.length < 2:
            raise CertificationError(f"cycle {cycle.members} should be a fixed point")
        recanon = canonicalize_cycle(cycle.members, sys)
        if recanon != cycle:
            raise CertificationError(f"cycle {cycle.members} is not canonical")
        if seen & set(cycle.members):
            raise CertificationError(f"attractors overlap on {seen & set(cycle.members)}")
        seen |= set(cycle.members)
    report = verify_range(sys, atlas, 0, brute_bound(sys))
    if not report.ok:
        raise CertificationError(f"{report.failing} does not reach the atlas: {report.reason}")
    if report.max_transient != atlas.max_transient:
        raise CertificationError(
            f"max transient {report.max_transient} != certificate {atlas.max_transient}"
        )
