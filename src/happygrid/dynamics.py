"""Orbit iteration, cycle canonicalization, and classification.

An orbit under the digit-power-sum map always ends in a cycle (a fixed
point being a cycle of length 1).  `step_until_repeat` discovers that
cycle empirically with a visited set; `classify` instead walks until it
hits a member of a certified attractor atlas, which is guaranteed to
terminate (see the certify module).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .digitmap import DigitSystem, as_natural, digit_count, digit_power_sum

if TYPE_CHECKING:
    from .bounds import AttractorAtlas


class BudgetExceededError(RuntimeError):
    """No repeat within the step budget.

    Termination is mathematically guaranteed for every start value, so
    raising this only means the caller's budget was too small.
    """

    def __init__(self, start: int, steps: int):
        super().__init__(f"orbit of {start} did not repeat within {steps} steps")


class Cycle(NamedTuple):
    """A cycle of the map in canonical form: rotated to start at its minimum.

    A fixed point is the degenerate cycle of length 1.  Canonical form
    makes equality of cycles plain tuple equality.
    """

    members: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.members)

    @property
    def is_fixed_point(self) -> bool:
        return len(self.members) == 1

    @property
    def identifier(self) -> int:
        """The minimum member, unique per attractor within an atlas."""
        return self.members[0]


class Trajectory(NamedTuple):
    """An orbit up to (not including) its first repeated value.

    `steps` lists every distinct orbit value in order, the start first;
    `entry_index` points at the first step that belongs to the terminal
    cycle.
    """

    steps: tuple[int, ...]
    entry_index: int
    terminal: Cycle

    @property
    def transient_length(self) -> int:
        return self.entry_index


def canonicalize_cycle(raw, sys: DigitSystem) -> Cycle:
    """Validate a raw cycle listing and rotate it to start at its minimum.

    `raw` must be nonempty, duplicate-free, consecutive under the map,
    and close back onto its first element.
    """
    members = tuple(raw)
    if not members:
        raise ValueError("a cycle has at least one member")
    if len(set(members)) != len(members):
        raise ValueError(f"cycle members are not distinct: {members}")
    for i, value in enumerate(members):
        successor = members[(i + 1) % len(members)]
        image = digit_power_sum(value, sys)
        if image != successor:
            raise ValueError(
                f"inconsistent cycle: f({value}) = {image}, expected {successor}"
            )
    pivot = members.index(min(members))
    return Cycle(members[pivot:] + members[:pivot])


def step_until_repeat(n: int, sys: DigitSystem, max_steps: int) -> Trajectory:
    """Iterate the map from n until a value repeats, within max_steps.

    The repeated suffix is extracted as the terminal cycle; everything
    before its first entry is the transient.  The suffix is distinct and
    consecutive under the map by construction, and closes onto its first
    member, so rotating it to its minimum is the whole canonical form: no
    member is mapped again.
    """
    n = as_natural(n)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    steps = [n]
    first_seen = {n: 0}
    current = n
    for _ in range(max_steps):
        current = digit_power_sum(current, sys)
        hit = first_seen.get(current)
        if hit is not None:
            pivot = steps.index(min(steps[hit:]), hit)
            return Trajectory(
                steps=tuple(steps),
                entry_index=hit,
                terminal=Cycle(tuple(steps[pivot:] + steps[hit:pivot])),
            )
        first_seen[current] = len(steps)
        steps.append(current)
    raise BudgetExceededError(n, max_steps)


def _certified_budget(n: int, sys: DigitSystem, atlas: AttractorAtlas) -> int:
    # Values with >= p0 digits lose at least one digit per step, so the
    # orbit is inside [0, B] after at most digit_count(n) steps; from
    # there it reaches an attractor within the atlas's max_transient steps.
    return digit_count(n, sys) + atlas.max_transient + 2


def _walk_to_atlas(n: int, atlas: AttractorAtlas, budget: int) -> tuple[Cycle | None, int]:
    """Iterate the map from n until it reaches a member of the atlas.

    Returns the attractor and the number of steps taken; the attractor is
    None if no member is reached within budget steps.
    """
    membership = atlas.member_to_attractor
    sys = atlas.system
    current = n
    steps = 0
    while current not in membership:
        if steps >= budget:
            return None, steps
        current = digit_power_sum(current, sys)
        steps += 1
    return membership[current], steps


def classify(n: int, sys: DigitSystem, atlas: AttractorAtlas) -> Cycle:
    """Walk the orbit of n until it hits an attractor of the atlas.

    Requires an atlas certified for the same system: its longest
    transient over [0, B], with the digit-count descent above B, is what
    guarantees termination.
    """
    if atlas.system != sys:
        raise ValueError(f"atlas was certified for {atlas.system}, not {sys}")
    n = as_natural(n)
    attractor, _ = _walk_to_atlas(n, atlas, _certified_budget(n, sys, atlas))
    if attractor is None:
        raise RuntimeError(
            f"orbit of {n} exceeded the certified budget; the atlas for "
            f"{sys} is inconsistent (implementation bug)"
        )
    return attractor
