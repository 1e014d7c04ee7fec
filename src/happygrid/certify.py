"""Mechanized convergence certification for a digit system.

Three stages, each checked by machine rather than trusted:

1. a digit-count threshold p0 from which the map strictly reduces the
   number of digits (big-integer inequality scan plus the explicit
   inductive step that makes one base case cover all larger p);
2. a forward-invariant brute bound B that folds every shorter value into
   one exhaustively checkable range [0, B];
3. exhaustive memoized enumeration of [0, B] that discovers every fixed
   point and cycle and records each value's transient.

The resulting atlas makes every classification provably terminating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .digitmap import DigitSystem, as_natural, digit_count, digit_power_sum
from .dynamics import Cycle, _walk_to_atlas, canonicalize_cycle


class CertificationError(RuntimeError):
    """An internal consistency check failed; certification is void."""


@dataclass(frozen=True)
class DescentCertificate:
    """Constants proving that exhaustive enumeration of [0, B] is complete.

    p0: least digit count from which the map strictly loses digits.
    brute_bound: B with f([0, B]) contained in [0, B].
    max_transient: longest transient observed over [0, B].
    """

    system: DigitSystem
    p0: int
    brute_bound: int
    max_transient: int


@dataclass(frozen=True)
class AttractorAtlas:
    """The complete certified attractor set of a digit system."""

    system: DigitSystem
    certificate: DescentCertificate
    fixed_points: frozenset[int]
    cycles: frozenset[Cycle]

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


@dataclass(frozen=True)
class ThresholdReport:
    system: DigitSystem
    p0: int
    p_max: int
    ok: bool
    minimal: bool
    failing_p: int | None = None


@dataclass(frozen=True)
class InvarianceReport:
    system: DigitSystem
    bound: int
    ok: bool
    checked: int
    max_image: int
    escaping: int | None = None


@dataclass(frozen=True)
class RangeReport:
    system: DigitSystem
    lo: int
    hi: int
    ok: bool
    checked: int
    max_transient: int
    failing: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class IdentityReport:
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
    p = 2
    while weight * p >= sys.base ** (p - 1):
        p += 1
    if weight > sys.base ** (p - 1):
        raise CertificationError(
            f"inductive step broken at p0={p} for {sys}: "
            f"{weight} > {sys.base}^{p - 1}"
        )
    return p


def brute_bound(sys: DigitSystem, p0: int) -> int:
    """Forward-invariant inclusive top B of the exhaustive range.

    B = max(base^(p0-1) - 1, (base-1)^exponent * (p0-1)).  Invariance:
    a value below base^(p0-1) has at most p0-1 digits, so its image is at
    most (base-1)^exponent * (p0-1) <= B; a value in [base^(p0-1), B] has
    p >= p0 digits, so its image is below base^(p-1) <= value <= B.  The
    threshold inequalities that argument leans on are re-evaluated here;
    the exhaustive scan lives in forward_invariance_scan.
    """
    if p0 != digit_reduction_threshold(sys):
        raise ValueError(f"p0={p0} is not the digit-reduction threshold of {sys}")
    weight = sys.digit_weight
    bound = max(sys.base ** (p0 - 1) - 1, weight * (p0 - 1))
    for p in range(p0, digit_count(bound, sys) + 1):
        if weight * p >= sys.base ** (p - 1):
            raise CertificationError(
                f"invariance argument broken for {sys} at p={p}"
            )
    return bound


def threshold_inequality_check(sys: DigitSystem, p_max: int) -> ThresholdReport:
    """Evaluate (base-1)^exponent * p < base^(p-1) for every p in [p0, p_max].

    Also re-checks minimality: the inequality must fail at p0 - 1 unless
    p0 == 2.  Everything is exact big-integer arithmetic.
    """
    p0 = digit_reduction_threshold(sys)
    if p_max < p0:
        raise ValueError(f"p_max={p_max} is below the threshold p0={p0}")
    weight = sys.digit_weight
    for p in range(p0, p_max + 1):
        if weight * p >= sys.base ** (p - 1):
            return ThresholdReport(sys, p0, p_max, ok=False, minimal=True, failing_p=p)
    minimal = p0 == 2 or weight * (p0 - 1) >= sys.base ** (p0 - 2)
    return ThresholdReport(sys, p0, p_max, ok=minimal, minimal=minimal)


def forward_invariance_scan(sys: DigitSystem, bound: int) -> InvarianceReport:
    """Exhaustively confirm f([0, bound]) is contained in [0, bound]."""
    bound = as_natural(bound)
    max_image = 0
    for n in range(bound + 1):
        image = digit_power_sum(n, sys)
        if image > bound:
            return InvarianceReport(sys, bound, ok=False, checked=n + 1,
                                    max_image=image, escaping=n)
        if image > max_image:
            max_image = image
    return InvarianceReport(sys, bound, ok=True, checked=bound + 1, max_image=max_image)


_UNVISITED = -1
_IN_PROGRESS = -2


def enumerate_attractors(sys: DigitSystem) -> AttractorAtlas:
    """Exhaustively classify [0, B] and return the certified atlas.

    Memoization is a flat table over [0, B] with three states per value:
    unvisited, in-progress (on the current walk), classified.  Meeting an
    in-progress value closes a brand-new cycle; meeting a classified one
    inherits its attractor and transient.  Total work is O(B).

    A walk escaping [0, B] would falsify the brute bound and raises
    CertificationError; it cannot happen if brute_bound is correct.
    """
    p0 = digit_reduction_threshold(sys)
    bound = brute_bound(sys, p0)
    state = [_UNVISITED] * (bound + 1)
    transient = [0] * (bound + 1)
    found: list[Cycle] = []

    for start in range(bound + 1):
        if state[start] != _UNVISITED:
            continue
        path = [start]
        state[start] = _IN_PROGRESS
        current = start
        while True:
            current = digit_power_sum(current, sys)
            if current > bound:
                raise CertificationError(
                    f"image {current} escapes [0, {bound}] for {sys}; "
                    f"brute bound is wrong (implementation bug)"
                )
            mark = state[current]
            if mark >= 0:
                # lands on already-classified territory
                attractor_id = mark
                entry_transient = transient[current]
                break
            if mark == _IN_PROGRESS:
                # the walk closed a brand-new cycle inside its own path
                first = path.index(current)
                cycle = canonicalize_cycle(path[first:], sys)
                attractor_id = len(found)
                found.append(cycle)
                for value in path[first:]:
                    state[value] = attractor_id
                    transient[value] = 0
                del path[first:]
                entry_transient = 0
                break
            state[current] = _IN_PROGRESS
            path.append(current)
        for back, value in enumerate(reversed(path)):
            state[value] = attractor_id
            transient[value] = entry_transient + back + 1

    certificate = DescentCertificate(
        system=sys, p0=p0, brute_bound=bound, max_transient=max(transient)
    )
    return AttractorAtlas(
        system=sys,
        certificate=certificate,
        fixed_points=frozenset(c.members[0] for c in found if c.is_fixed_point),
        cycles=frozenset(c for c in found if not c.is_fixed_point),
    )


def default_step_budget(n: int, sys: DigitSystem) -> int:
    """Step budget generous against the certified descent rates.

    10 steps per digit of n plus the brute bound, never below 1000.
    """
    bound = brute_bound(sys, digit_reduction_threshold(sys))
    return max(1000, 10 * digit_count(n, sys) + bound)


def verify_range(sys: DigitSystem, atlas: AttractorAtlas, lo: int, hi: int,
                 max_steps: int | None = None) -> RangeReport:
    """Iterate every n in [lo, hi] until it hits an atlas member.

    Reports the count checked and the maximum transient seen.  A value
    that exhausts the safety budget without reaching the atlas falsifies
    the atlas and is reported as the failure.
    """
    if atlas.system != sys:
        raise ValueError(f"atlas was certified for {atlas.system}, not {sys}")
    lo, hi = as_natural(lo), as_natural(hi)
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    budget = max_steps if max_steps is not None else default_step_budget(hi, sys)
    max_transient = 0
    for n in range(lo, hi + 1):
        attractor, steps = _walk_to_atlas(n, atlas, budget)
        if attractor is None:
            return RangeReport(
                sys, lo, hi, ok=False, checked=n - lo,
                max_transient=max_transient, failing=n,
                reason=f"no atlas member within {budget} steps",
            )
        if steps > max_transient:
            max_transient = steps
    return RangeReport(sys, lo, hi, ok=True, checked=hi - lo + 1,
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


def validate_atlas(atlas: AttractorAtlas, exhaustive: bool = False) -> None:
    """Re-check atlas invariants; raise CertificationError on any violation.

    The cheap checks (fixed points fixed, cycles closed and canonical,
    attractors disjoint, certificate constants reproducible) always run.
    With exhaustive=True the whole range [0, B] is re-verified.
    """
    sys = atlas.system
    p0 = digit_reduction_threshold(sys)
    if atlas.certificate.p0 != p0:
        raise CertificationError(
            f"certificate p0={atlas.certificate.p0} but threshold is {p0}"
        )
    bound = brute_bound(sys, p0)
    if atlas.certificate.brute_bound != bound:
        raise CertificationError(
            f"certificate B={atlas.certificate.brute_bound} but formula gives {bound}"
        )
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
    if exhaustive:
        invariance = forward_invariance_scan(sys, bound)
        if not invariance.ok:
            raise CertificationError(
                f"f({invariance.escaping}) = {invariance.max_image} escapes [0, {bound}]"
            )
        report = verify_range(sys, atlas, 0, bound)
        if not report.ok:
            raise CertificationError(
                f"{report.failing} does not reach the atlas: {report.reason}"
            )
        if report.max_transient != atlas.certificate.max_transient:
            raise CertificationError(
                f"max transient {report.max_transient} != certificate "
                f"{atlas.certificate.max_transient}"
            )
