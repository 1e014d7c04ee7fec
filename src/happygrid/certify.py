"""Mechanized convergence certification for a digit system.

Three stages, each checked by machine rather than trusted:

1. a digit-count threshold p0 from which the map strictly reduces the
   number of digits (`bounds.threshold_inequality_check`);
2. a forward-invariant brute bound B = b^(p0-1) - 1 (`bounds.brute_bound`)
   that folds every shorter value into [0, B] (`forward_invariance_scan`);
3. exhaustive enumeration of [0, B] that discovers every fixed point and
   cycle and the longest transient (`enumerate_attractors`).

The resulting atlas makes every classification provably terminating, and
`verify_range` checks it independently.  Every function that maps a value
to certify it lives here, where the map's calls are counted at this
module's `digit_power_sum`; what maps no value lives in `bounds`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import factorial

from .bounds import (
    AttractorAtlas,
    CertificationError,
    IdentityReport,
    InvarianceReport,
    RangeReport,
    brute_bound,
    check_bound_size,
    check_range_size,
    default_step_budget,
)
from .digitmap import DigitSystem, as_natural, digit_count, digit_power_sum
from .dynamics import canonicalize_cycle


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
    bound = brute_bound(sys)
    digits = digit_count(bound, sys)
    factorials = [factorial(i) for i in range(digits + 1)]
    powers = [digit_power_sum(d, sys) for d in range(sys.base)]
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

    As in _image_counts, [0, B] is every k-digit string, so the image set
    S = f([0, B]) is the set of sums of k digit powers.  Every
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
    found = []
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
    descents: list[int] = []
    for a, b, c in product(range(1, 10), range(10), range(10)):
        n = 100 * a + 10 * b + c
        descent = n - digit_power_sum(n, squares)
        if descent != a * (100 - a) + b * (10 - b) + c - c * c \
                or a * (100 - a) < 99 or b * (10 - b) < 0 or descent < 18:
            return IdentityReport(ok=False, checked=len(descents), min_descent=descent, failing=n)
        descents.append(descent)
    return IdentityReport(ok=True, checked=len(descents), min_descent=min(descents))


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
        if canonicalize_cycle(cycle.members, sys) != cycle:
            raise CertificationError(f"cycle {cycle.members} is not canonical")
        members = set(cycle.members)
        if seen & members:
            raise CertificationError(f"attractors overlap on {seen & members}")
        seen |= members
    report = verify_range(sys, atlas, 0, brute_bound(sys))
    if not report.ok:
        raise CertificationError(f"{report.failing} does not reach the atlas: {report.reason}")
    if report.max_transient != atlas.max_transient:
        raise CertificationError(
            f"max transient {report.max_transient} != certificate {atlas.max_transient}"
        )
