import pytest
from hypothesis import given
from hypothesis import strategies as st

from happygrid import (
    BudgetExceededError,
    Cycle,
    DigitSystem,
    canonicalize_cycle,
    classify,
    digit_power_sum,
    step_until_repeat,
)
from happygrid import dynamics

from conftest import EIGHT_CYCLE


def test_orbit_of_four_is_the_eight_cycle(squares):
    traj = step_until_repeat(4, squares, 1000)
    assert traj.steps == EIGHT_CYCLE
    assert traj.entry_index == 0
    assert traj.transient_length == 0
    assert traj.terminal == Cycle(EIGHT_CYCLE)


@pytest.mark.parametrize("fixed", [0, 1])
def test_fixed_points_have_trivial_orbits(squares, fixed):
    traj = step_until_repeat(fixed, squares, 1000)
    assert traj.steps == (fixed,)
    assert traj.terminal.members == (fixed,)
    assert traj.terminal.is_fixed_point


def test_orbit_of_308(squares):
    # frozen from a naive visited-set iteration done by hand
    traj = step_until_repeat(308, squares, 1000)
    assert traj.steps == (308, 73, 58, 89, 145, 42, 20, 4, 16, 37)
    assert traj.entry_index == 2
    assert traj.transient_length == 2
    assert traj.terminal.members == EIGHT_CYCLE


def test_trajectory_invariants_hold(squares):
    traj = step_until_repeat(278, squares, 1000)
    for a, b in zip(traj.steps, traj.steps[1:]):
        assert digit_power_sum(a, squares) == b
    members = set(traj.terminal.members)
    assert traj.steps[traj.entry_index] in members
    assert all(v not in members for v in traj.steps[: traj.entry_index])
    assert len(set(traj.steps)) == len(traj.steps)


def test_walk_into_a_long_cycle_maps_each_step_once(monkeypatch):
    # 5 under (10, 18) enters a cycle of 963 members after 33 steps: the walk
    # maps each of its 996 values once, and the cycle is not mapped again
    system = DigitSystem(10, 18)
    calls = []

    def counted(n, sys):
        calls.append(n)
        return digit_power_sum(n, sys)

    monkeypatch.setattr(dynamics, "digit_power_sum", counted)
    traj = step_until_repeat(5, system, 10_000)
    assert (len(traj.steps), traj.entry_index, traj.terminal.length) == (996, 33, 963)
    assert calls == list(traj.steps)
    monkeypatch.undo()
    assert traj.terminal == canonicalize_cycle(traj.steps[traj.entry_index:], system)


def test_determinism(squares):
    assert step_until_repeat(278, squares, 500) == step_until_repeat(278, squares, 500)


def test_budget_exceeded_names_start_and_budget(squares):
    # 308 -> 73 -> 58 -> ... repeats only after more than two steps
    with pytest.raises(BudgetExceededError, match=r"^orbit of 308 did not repeat within 2 steps$"):
        step_until_repeat(308, squares, 2)
    with pytest.raises(ValueError):
        step_until_repeat(308, squares, 0)


def test_canonicalize_examples(squares):
    rotated = (16, 37, 58, 89, 145, 42, 20, 4)
    assert canonicalize_cycle(rotated, squares).members == EIGHT_CYCLE
    assert canonicalize_cycle([1], squares).members == (1,)
    assert canonicalize_cycle((20, 4, 16, 37, 58, 89, 145, 42), squares).members == EIGHT_CYCLE


@given(shift=st.integers(0, 7))
def test_canonicalize_rotation_invariance(shift):
    squares = DigitSystem(10, 2)
    rotation = EIGHT_CYCLE[shift:] + EIGHT_CYCLE[:shift]
    assert canonicalize_cycle(rotation, squares).members == EIGHT_CYCLE


def test_canonicalize_rejects_bad_input(squares):
    with pytest.raises(ValueError, match="at least one member"):
        canonicalize_cycle((), squares)
    with pytest.raises(ValueError, match="distinct"):
        canonicalize_cycle((4, 16, 4), squares)
    with pytest.raises(ValueError, match="inconsistent"):
        canonicalize_cycle((4, 16, 37, 58), squares)  # does not close
    with pytest.raises(ValueError, match="inconsistent"):
        canonicalize_cycle((2,), squares)  # 2 is not a fixed point


def test_cycle_closure(squares, squares_atlas):
    for attractor in squares_atlas.attractors:
        value = attractor.members[0]
        for _ in range(attractor.length):
            value = digit_power_sum(value, squares)
        assert value == attractor.members[0]


def test_classify_examples(squares, squares_atlas):
    assert classify(12, squares, squares_atlas).members == EIGHT_CYCLE
    assert classify(0, squares, squares_atlas).members == (0,)
    assert classify(7, squares, squares_atlas).members == (1,)


def test_classify_consistent_with_orbit(squares, squares_atlas):
    for n in range(300):
        traj = step_until_repeat(n, squares, 10_000)
        assert classify(n, squares, squares_atlas) == traj.terminal


def test_classify_requires_matching_system(squares_atlas, cubes):
    with pytest.raises(ValueError, match="certified for"):
        classify(5, cubes, squares_atlas)


def test_is_happy_examples(squares, squares_atlas):
    # n is happy when its orbit ends at the fixed point 1
    happy = [n for n in (1, 4, 13, 7) if classify(n, squares, squares_atlas).members == (1,)]
    assert happy == [1, 13, 7]  # 13 -> 10 -> 1; 4 is on the eight-cycle


def test_first_hundred_split_across_the_three_attractors(squares, squares_atlas):
    expected_members = {0, 1, *EIGHT_CYCLE}
    identifiers = set()
    for n in range(100):
        attractor = classify(n, squares, squares_atlas)
        assert set(attractor.members) <= expected_members
        identifiers.add(attractor.identifier)
    assert identifiers == {0, 1, 4}
