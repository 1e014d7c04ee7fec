import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from happygrid import (
    AttractorAtlas,
    CertificationError,
    Cycle,
    DigitSystem,
    TooLargeError,
    brute_bound,
    default_step_budget,
    digit_count,
    digit_power_sum,
    digit_reduction_threshold,
    enumerate_attractors,
    forward_invariance_scan,
    three_digit_identity_check,
    threshold_inequality_check,
    validate_atlas,
    verify_range,
)
from happygrid import bounds, certify, cli, dynamics
from happygrid.bounds import MAX_VALUES
from happygrid.certify import _digit_power_sums, _image_counts
from happygrid.dynamics import _walk_to_atlas

from conftest import EIGHT_CYCLE

# (base, exponent) -> (p0, B); B values cross-checked by the invariance scan below
EXPECTED_CONSTANTS = {
    (10, 2): (4, 999),
    (2, 1): (3, 3),
    (2, 2): (3, 3),
    (10, 3): (5, 9999),
    (3, 2): (4, 26),
    (10, 1): (3, 99),
}


def naive_attractors(system: DigitSystem, bound: int):
    """Independent oracle: plain iteration with a visited list from each start."""
    fixed, cycles = set(), set()
    for start in range(bound + 1):
        seen: list[int] = []
        value = start
        while value not in seen:
            seen.append(value)
            value = digit_power_sum(value, system)
        cycle = seen[seen.index(value):]
        pivot = cycle.index(min(cycle))
        members = tuple(cycle[pivot:] + cycle[:pivot])
        if len(members) == 1:
            fixed.add(members[0])
        else:
            cycles.add(members)
    return fixed, cycles


@pytest.mark.parametrize("base,exponent", sorted(EXPECTED_CONSTANTS), ids=str)
def test_threshold_and_bound_constants(base, exponent):
    system = DigitSystem(base, exponent)
    p0, bound = EXPECTED_CONSTANTS[(base, exponent)]
    assert digit_reduction_threshold(system) == p0
    assert brute_bound(system) == bound
    # minimality: the inequality fails just below the threshold
    if p0 > 2:
        assert system.digit_weight * (p0 - 1) >= base ** (p0 - 2)


def test_brute_bound_covers_exactly_the_shorter_values():
    # B = b^(p0-1) - 1, i.e. [0, B] is exactly the (p0-1)-digit strings,
    # because w*(p0-1) < b^(p0-1): the image of such a string stays below b^(p0-1)
    for base in range(2, 60):
        for exponent in range(1, 25):
            system = DigitSystem(base, exponent)
            p0 = digit_reduction_threshold(system)
            assert brute_bound(system) == base ** (p0 - 1) - 1
            assert (base - 1) ** exponent * (p0 - 1) < base ** (p0 - 1), system


def test_threshold_inequality_check(squares):
    report = threshold_inequality_check(squares, 100)
    assert report.ok and report.minimal and report.p0 == 4
    assert report.failing is None
    # the explicit minimality witness at p = 3
    assert 81 * 3 >= 10**2
    assert threshold_inequality_check(DigitSystem(2, 1), 64).ok
    with pytest.raises(ValueError, match="below the threshold"):
        threshold_inequality_check(squares, 3)


@pytest.mark.parametrize("base,exponent", sorted(EXPECTED_CONSTANTS), ids=str)
def test_forward_invariance_exhaustive(base, exponent):
    system = DigitSystem(base, exponent)
    _, bound = EXPECTED_CONSTANTS[(base, exponent)]
    report = forward_invariance_scan(system)
    assert report.ok
    assert report.checked == bound + 1
    assert report.max_image <= bound


# systems whose image counts and checker are compared value by value with the map
TABLE_SYSTEMS = [(10, 2), (10, 3), (7, 5), (2, 1), (3, 3), (12, 3), (10, 1), (36, 2)]


def without_attractor(atlas, identifier):
    return AttractorAtlas(
        system=atlas.system,
        max_transient=atlas.max_transient,
        fixed_points=atlas.fixed_points - {identifier},
        cycles=frozenset(c for c in atlas.cycles if c.identifier != identifier),
    )


@pytest.mark.parametrize("base,exponent", TABLE_SYSTEMS, ids=str)
def test_image_tables_equal_the_map(base, exponent):
    system = DigitSystem(base, exponent)
    bound = brute_bound(system)
    expected = [digit_power_sum(n, system) for n in range(bound + 1)]
    counts, preimages, max_image = _image_counts(system)
    assert counts == Counter(expected)
    assert max_image == max(expected)
    within = {}
    for value in sorted(counts):
        within.setdefault(digit_power_sum(value, system), []).append(value)
    assert {image: sorted(values) for image, values in preimages.items()} == within
    # the enumerator's image set: sums of p0 - 1 digit powers
    assert _digit_power_sums(system, digit_count(bound, system)) == set(expected)


def test_image_counts_must_cover_every_value(squares, monkeypatch):
    # with every multiset standing for one value, the 220 multisets of three
    # digits fall short of the 1000 values of [0, 999]
    certify._image_counts.cache_clear()
    monkeypatch.setattr(certify, "factorial", lambda i: 1)
    with pytest.raises(CertificationError, match=r"counts of \[0, 999\] add up to 220 "):
        forward_invariance_scan(squares)


@pytest.mark.parametrize("base,exponent", TABLE_SYSTEMS, ids=str)
def test_image_counts_map_each_digit_and_image_once(base, exponent, monkeypatch):
    # a multiset's image is the sum of its digits' powers: the map runs on
    # each digit and, for the preimages, on each image, never per multiset
    system = DigitSystem(base, exponent)
    calls = []

    def counted(n, sys):
        calls.append(n)
        return digit_power_sum(n, sys)

    certify._image_counts.cache_clear()
    monkeypatch.setattr(certify, "digit_power_sum", counted)
    counts = _image_counts(system)[0]
    assert len(calls) <= base + len(counts)


@pytest.mark.parametrize("base,exponent", [(10, 2), (7, 5), (36, 2)], ids=str)
def test_checker_and_enumeration_share_no_image_set(base, exponent, monkeypatch):
    # the checker takes S from digit multisets, enumeration from sums of d**e:
    # each runs with the other's source of S broken
    system = DigitSystem(base, exponent)
    atlas = enumerate_attractors(system)

    def broken(*args):
        raise AssertionError("the other stage's image set was used")

    certify._image_counts.cache_clear()
    monkeypatch.setattr(certify, "_digit_power_sums", broken)
    validate_atlas(atlas)
    with pytest.raises(AssertionError, match="other stage"):
        enumerate_attractors(system)
    monkeypatch.undo()
    monkeypatch.setattr(certify, "_image_counts", broken)
    assert enumerate_attractors(system) == atlas


def walked_range(atlas, lo, hi, budget):
    """(ok, checked, max_transient, failing) over [lo, hi], one walk to the atlas per value."""
    longest = 0
    for n in range(lo, hi + 1):
        attractor, taken = _walk_to_atlas(n, atlas, budget)
        if attractor is None:
            return False, n - lo, longest, n
        longest = max(longest, taken)
    return True, hi - lo + 1, longest, None


@pytest.mark.parametrize("base,exponent", TABLE_SYSTEMS, ids=str)
def test_checker_steps_equal_walks(base, exponent):
    # value by value, on [1, B] and above B, the checker reports what one
    # walk per value reports, with and without the largest attractor, at
    # every budget up to one past the longest transient; for small B each
    # n alone reports the walk's own step count
    system = DigitSystem(base, exponent)
    atlas = enumerate_attractors(system)
    bound = brute_bound(system)
    largest = max(a.identifier for a in atlas.attractors)
    enough = atlas.max_transient + 1  # a walk past it never arrives
    for checked_atlas in (atlas, without_attractor(atlas, largest)):
        for budget in range(enough + 1):
            for lo, hi in ((1, bound), (bound + 1, bound + 2000)):
                report = verify_range(system, checked_atlas, lo, hi, max_steps=budget)
                assert (report.ok, report.checked, report.max_transient,
                        report.failing) == walked_range(checked_atlas, lo, hi, budget)
        if bound < 1000:
            for n in range(bound + 1):
                attractor, taken = _walk_to_atlas(n, checked_atlas, enough)
                report = verify_range(system, checked_atlas, n, n, max_steps=enough)
                assert (report.ok, report.checked, report.max_transient, report.failing) == (
                    (True, 1, taken, None) if attractor else (False, 0, 0, n)), n
    report = verify_range(system, atlas, 1, bound, max_steps=enough)
    assert report.ok and report.max_transient == atlas.max_transient


# (lo, hi, max_steps) -> (ok, checked, max_transient, failing), as the
# per-value walk over [lo, hi] reported them before the reverse search;
# B = 999, and 269 is the least value whose transient is 11
SQUARES_RANGES = {
    (0, 269, 10): (False, 269, 10, 269),
    (269, 269, 10): (False, 0, 0, 269),
    (269, 269, None): (True, 1, 11, None),
    (1000, 1000, None): (True, 1, 1, None),
    (1000, 1000, 0): (False, 0, 0, 1000),
    (900, 1500, None): (True, 601, 11, None),
    (990, 3000, 5): (False, 0, 0, 990),
    (990, 3000, 8): (False, 7, 8, 997),
    (1000, 1100, None): (True, 101, 10, None),
    (0, 20000, 11): (False, 15999, 11, 15999),
    (0, 20000, 12): (True, 20001, 12, None),
    (999, 2000, 10): (True, 1002, 10, None),
}


@pytest.mark.parametrize("lo,hi,max_steps", sorted(SQUARES_RANGES, key=str), ids=str)
def test_verify_range_reports_like_the_walk(squares, squares_atlas, lo, hi, max_steps):
    report = verify_range(squares, squares_atlas, lo, hi, max_steps=max_steps)
    ok, checked, max_transient, failing = SQUARES_RANGES[(lo, hi, max_steps)]
    assert (report.ok, report.checked, report.max_transient, report.failing) == (
        ok, checked, max_transient, failing)
    if not ok:
        assert report.reason == f"no atlas member within {max_steps} steps"


def test_verify_range_reports_like_the_walk_elsewhere(cubes, cubes_atlas, squares,
                                                      squares_atlas):
    report = verify_range(cubes, cubes_atlas, 9000, 30000, max_steps=12)
    assert (report.ok, report.checked, report.max_transient, report.failing) == (
        False, 477, 12, 9477)
    report = verify_range(cubes, cubes_atlas, 9000, 30000)
    assert (report.ok, report.checked, report.max_transient) == (True, 21001, 14)
    report = verify_range(squares, without_attractor(squares_atlas, 4), 0, 999)
    assert (report.ok, report.checked, report.max_transient, report.failing) == (
        False, 2, 0, 2)
    assert report.reason == "no atlas member within 1029 steps"
    report = verify_range(squares, without_attractor(squares_atlas, 1), 500, 5000)
    assert (report.ok, report.checked, report.max_transient, report.failing) == (
        False, 36, 8, 536)


def test_values_above_the_bound_map_once_each(squares, squares_atlas, monkeypatch):
    # every value of [1000, 1999] drops to at most 999 in one step, and the
    # reverse search over the image set of [0, 999] counts the rest; an image
    # outside that set takes one more step, mapped once however many values
    # drop to it
    verify_range(squares, squares_atlas, 0, 999)  # keeps the image counts of [0, 999]
    image_set = {digit_power_sum(n, squares) for n in range(1000)}
    images = [digit_power_sum(n, squares) for n in range(1000, 2000)]
    outside = [v for v in images if v not in image_set]
    expected = 1000 + len(set(outside))
    calls = []

    def counted(n, sys):
        calls.append(n)
        return digit_power_sum(n, sys)

    monkeypatch.setattr(certify, "digit_power_sum", counted)
    monkeypatch.setattr(dynamics, "digit_power_sum", counted)
    report = verify_range(squares, squares_atlas, 1000, 1999)
    assert report.ok and report.checked == 1000
    assert len(calls) == expected < 1000 + len(outside)


@pytest.mark.parametrize("exponent", ["4", "5"])
def test_certify_builds_no_table(capsys, monkeypatch, exponent):
    # the invariance and range stages read the digit multisets of [0, B]:
    # the map runs far fewer times than a visit of every value would take
    calls = []

    def counted(n, sys):
        calls.append(n)
        return digit_power_sum(n, sys)

    system = DigitSystem(10, int(exponent))
    bound = brute_bound(system)
    certify._image_counts.cache_clear()
    monkeypatch.setattr(certify, "digit_power_sum", counted)
    assert cli.main(["certify", "--exp", exponent, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert len(calls) < (bound + 1) // 10


# the whole of [0, B] is checked from its digit multisets
MULTISET_SYSTEMS = TABLE_SYSTEMS + [(10, 4), (6, 5), (12, 4)]


@pytest.mark.parametrize("base,exponent", MULTISET_SYSTEMS, ids=str)
def test_multiset_checker_equals_walks(base, exponent):
    # with the full atlas, a small budget and the largest attractor dropped,
    # the check of [0, B] reports what one walk per value reports, the least
    # failing n included
    system = DigitSystem(base, exponent)
    atlas = enumerate_attractors(system)
    bound = brute_bound(system)
    largest = max(a.identifier for a in atlas.attractors)
    default = default_step_budget(bound, system)
    for checked_atlas, budget in [(atlas, None), (atlas, 3),
                                  (without_attractor(atlas, largest), None)]:
        report = verify_range(system, checked_atlas, 0, bound, max_steps=budget)
        expected = walked_range(checked_atlas, 0, bound, budget or default)
        assert (report.ok, report.checked, report.max_transient, report.failing) == expected
    invariance = forward_invariance_scan(system)
    largest_image = max(digit_power_sum(n, system) for n in range(bound + 1))
    assert invariance == (bound, True, bound + 1, largest_image, None)
    assert invariance.max_image == digit_count(bound, system) * system.digit_weight


def test_multiset_checker_gives_members_no_steps(squares, squares_atlas):
    # a member takes 0 steps wherever it maps: with the twelve values of
    # transient 11 made members, the longest transient left is 10; these
    # members lie outside the image set of [0, 999], which a sub-range visits
    # value by value
    longest = [n for n in range(1000) if _walk_to_atlas(n, squares_atlas, 100)[1] == 11]
    widened = AttractorAtlas(
        system=squares,
        max_transient=squares_atlas.max_transient,
        fixed_points=squares_atlas.fixed_points | set(longest),
        cycles=squares_atlas.cycles,
    )
    report = verify_range(squares, widened, 0, 999)
    assert (report.ok, report.checked, report.max_transient, report.failing) == walked_range(
        widened, 0, 999, default_step_budget(999, squares)) == (True, 1000, 10, None)
    assert not set(longest) & set(_image_counts(squares)[0])
    for budget in (None, 10):
        report = verify_range(squares, widened, 1, 999, max_steps=budget)
        assert (report.ok, report.checked, report.max_transient, report.failing) == walked_range(
            widened, 1, 999, budget or default_step_budget(999, squares)) == (True, 999, 10, None)


def test_escaping_image_fails_certification(cubes, cubes_atlas, monkeypatch, request):
    # with a threshold of 4 for cubes, B = 999 and [0, B] is not closed: the
    # least escape is 79 -> 343 + 729 = 1072, and the invariance scan, the
    # checker and the enumeration must each say so rather than crash; the
    # image counts are kept per system, so none may outlive the patch
    threshold = bounds.digit_reduction_threshold
    monkeypatch.setattr(bounds, "digit_reduction_threshold",
                        lambda sys: 4 if sys == cubes else threshold(sys))
    certify._image_counts.cache_clear()
    request.addfinalizer(certify._image_counts.cache_clear)
    report = forward_invariance_scan(cubes)
    assert (report.ok, report.failing, report.checked, report.max_image) == (
        False, 79, 80, 1072)
    report = verify_range(cubes, cubes_atlas, 0, 100)
    assert not report.ok and report.failing == 79 and report.checked == 0
    assert report.reason == "f(79) escapes [0, 999]"
    with pytest.raises(CertificationError, match="image 1072 of 79 escapes"):
        enumerate_attractors(cubes)


def test_oversized_work_is_refused(squares, squares_atlas):
    with pytest.raises(TooLargeError, match="limit"):
        enumerate_attractors(DigitSystem(10, 7))
    with pytest.raises(TooLargeError, match="limit"):
        forward_invariance_scan(DigitSystem(10, 7))
    with pytest.raises(TooLargeError, match=r"range \[0, 10000000\]"):
        verify_range(squares, squares_atlas, 0, MAX_VALUES)
    assert verify_range(squares, squares_atlas, 1, MAX_VALUES, max_steps=0).failing == 2


def test_range_work_limit_boundary(squares, squares_atlas):
    # a value above B counts its digits plus (bits // 400)**2 units: 60,000
    # digits and 199,316 bits make 60,000 + 498**2 = 308,004, and 487 such
    # values fit in 1.5 * 10**8 units where 488 do not; nothing is visited
    lo = 10**59999
    assert 60000 + (lo.bit_length() // 400) ** 2 == 308004
    bounds.check_range_size(squares, lo, lo + 486)
    message = ("the verification range holds 488 values above B of up to 60000 digits, "
               "150305952 units of work, above the limit of 150000000")
    with pytest.raises(TooLargeError) as refused:
        verify_range(squares, squares_atlas, lo, lo + 487)
    assert str(refused.value) == message
    # values in [0, B] count once each, against MAX_VALUES alone
    bounds.check_range_size(squares, 0, MAX_VALUES - 1)


def test_squares_atlas_contents(squares, squares_atlas):
    assert squares_atlas.fixed_points == frozenset({0, 1})
    assert squares_atlas.cycles == frozenset({Cycle(EIGHT_CYCLE)})
    assert digit_reduction_threshold(squares) == 4
    assert brute_bound(squares) == 999
    assert squares_atlas.max_transient == 11
    assert [a.identifier for a in squares_atlas.attractors] == [0, 1, 4]
    assert len(squares_atlas.member_to_attractor) == 10


@pytest.mark.parametrize("base,exponent", [(2, 1), (2, 2)], ids=str)
def test_binary_atlases_have_only_fixed_points(base, exponent):
    atlas = enumerate_attractors(DigitSystem(base, exponent))
    assert atlas.fixed_points == frozenset({0, 1})
    assert atlas.cycles == frozenset()
    assert atlas.max_transient == 2


@pytest.mark.parametrize("base,exponent", sorted(EXPECTED_CONSTANTS), ids=str)
def test_enumeration_matches_naive_oracle(base, exponent):
    system = DigitSystem(base, exponent)
    atlas = enumerate_attractors(system)
    fixed, cycles = naive_attractors(system, brute_bound(system))
    assert atlas.fixed_points == fixed
    assert {c.members for c in atlas.cycles} == cycles


def test_verify_range_reports(squares, squares_atlas):
    low = verify_range(squares, squares_atlas, 0, 99)
    assert low.ok and low.checked == 100
    single = verify_range(squares, squares_atlas, 0, 0)
    assert single.ok and single.checked == 1 and single.max_transient == 0
    full = verify_range(squares, squares_atlas, 0, 999)
    assert full.ok and full.checked == 1000
    assert full.max_transient == squares_atlas.max_transient
    with pytest.raises(ValueError, match="empty range"):
        verify_range(squares, squares_atlas, 5, 4)


def test_verify_range_budget_boundary(squares, squares_atlas):
    # n passes iff it reaches an atlas member in at most max_steps steps;
    # 269 is the least value in [0, 999] whose transient is 11
    exact = verify_range(squares, squares_atlas, 0, 999, max_steps=11)
    assert exact.ok and exact.checked == 1000 and exact.max_transient == 11
    short = verify_range(squares, squares_atlas, 0, 999, max_steps=10)
    assert not short.ok
    assert short.failing == 269 and short.checked == 269
    assert short.max_transient == 10
    assert short.reason == "no atlas member within 10 steps"


def test_three_digit_descent(squares, squares_atlas):
    report = verify_range(squares, squares_atlas, 100, 999)
    assert report.ok and report.checked == 900
    for n in range(100, 1000):
        assert digit_power_sum(n, squares) <= n - 1


def test_three_digit_identity():
    report = three_digit_identity_check()
    assert report.ok
    assert report.checked == 900
    assert report.min_descent >= 18
    assert report.min_descent == 27  # attained at n = 109


def test_verify_range_fails_on_truncated_atlas(squares, squares_atlas):
    for attractor in squares_atlas.attractors:
        truncated = AttractorAtlas(
            system=squares_atlas.system,
            max_transient=squares_atlas.max_transient,
            fixed_points=squares_atlas.fixed_points - {attractor.identifier},
            cycles=frozenset(
                c for c in squares_atlas.cycles if c.identifier != attractor.identifier
            ),
        )
        report = verify_range(squares, truncated, 0, 200, max_steps=64)
        assert not report.ok
        assert report.failing is not None
        assert "64 steps" in report.reason


def test_validate_atlas_full(squares_atlas):
    validate_atlas(squares_atlas)


def test_validate_atlas_catches_tampering(squares_atlas):
    missing_fixed = AttractorAtlas(
        system=squares_atlas.system,
        max_transient=squares_atlas.max_transient,
        fixed_points=frozenset({0, 2}),  # 2 is not fixed
        cycles=squares_atlas.cycles,
    )
    with pytest.raises(CertificationError, match="not a fixed point"):
        validate_atlas(missing_fixed)
    rotated = AttractorAtlas(
        system=squares_atlas.system,
        max_transient=squares_atlas.max_transient,
        fixed_points=squares_atlas.fixed_points,
        cycles=frozenset({Cycle(EIGHT_CYCLE[1:] + EIGHT_CYCLE[:1])}),
    )
    with pytest.raises(CertificationError, match="not canonical"):
        validate_atlas(rotated)


def test_default_step_budget(squares):
    assert default_step_budget(0, squares) == 1000
    assert default_step_budget(10**499, squares) == 10 * 500 + 999


@settings(max_examples=60)
@given(n=st.integers(10**4, 10**300))
def test_digit_count_reduction_above_threshold(n):
    # every value with at least p0 = 4 digits loses at least one digit
    squares = DigitSystem(10, 2)
    assert digit_count(n, squares) >= 4
    assert digit_count(digit_power_sum(n, squares), squares) < digit_count(n, squares)


@settings(max_examples=60)
@given(n=st.integers(100, 10**300))
def test_descent_everywhere_above_one_hundred(n):
    # three-digit descent plus digit-count reduction combined: f(n) < n
    squares = DigitSystem(10, 2)
    assert digit_power_sum(n, squares) < n


@settings(max_examples=40)
@given(
    n=st.integers(2**10, 2**200),
    system=st.builds(DigitSystem, base=st.integers(2, 16), exponent=st.integers(1, 4)),
)
def test_digit_count_reduction_generalizes(n, system):
    p0 = digit_reduction_threshold(system)
    if digit_count(n, system) >= p0:
        assert digit_count(digit_power_sum(n, system), system) < digit_count(n, system)
