import pytest
from hypothesis import given
from hypothesis import strategies as st

from happygrid import (
    DigitSystem,
    as_natural,
    digit_count,
    digit_power_sum,
    digitmap,
)

SYSTEMS = [
    DigitSystem(10, 2),
    DigitSystem(2, 1),
    DigitSystem(10, 3),
    DigitSystem(3, 2),
    DigitSystem(16, 4),
]

systems = st.builds(
    DigitSystem, base=st.integers(2, 64), exponent=st.integers(1, 6)
)
naturals = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**80),
)


def loop_digits(n, sys_):
    """Oracle: the base-b digits of n, least significant first; none for 0."""
    digits = []
    while n:
        n, d = divmod(n, sys_.base)
        digits.append(d)
    return digits


def test_system_invariants():
    with pytest.raises(ValueError):
        DigitSystem(1, 2)
    with pytest.raises(ValueError):
        DigitSystem(10, 0)
    assert DigitSystem(10, 2).digit_weight == 81
    assert DigitSystem(2, 5).digit_weight == 1


def test_system_is_an_immutable_value():
    # refusals quote the repr, and lru caches hash systems
    system = DigitSystem(exponent=7)
    assert system == DigitSystem(10, 7) and hash(system) == hash(DigitSystem(base=10, exponent=7))
    assert repr(system) == "DigitSystem(base=10, exponent=7)"
    with pytest.raises(AttributeError):
        system.base = 3
    with pytest.raises(ValueError, match="base must be an integer >= 2, got 2.0"):
        DigitSystem(2.0)
    with pytest.raises(ValueError, match="exponent must be an integer >= 1, got 0"):
        DigitSystem(exponent=0)


def test_as_natural_boundary():
    assert as_natural(0) == 0
    with pytest.raises(ValueError):
        as_natural(-1)
    with pytest.raises(TypeError):
        as_natural(2.5)


def test_power_sum_examples():
    squares = DigitSystem(10, 2)
    assert digit_power_sum(0, squares) == 0
    assert digit_power_sum(12, squares) == 5
    assert digit_power_sum(308, squares) == 73
    assert digit_power_sum(89, squares) == 145
    assert digit_power_sum(999, DigitSystem(10, 3)) == 3 * 9**3


def test_power_sum_not_injective():
    squares = DigitSystem(10, 2)
    assert digit_power_sum(1, squares) == digit_power_sum(10, squares) == 1


@pytest.mark.parametrize("sys_", SYSTEMS, ids=str)
def test_repunit_is_preimage_of_every_count(sys_):
    # surjectivity witness: p ones map to p, whatever the exponent
    b = sys_.base
    for p in range(1001):
        assert digit_power_sum((b**p - 1) // (b - 1), sys_) == p


@given(n=naturals, sys_=systems)
def test_digit_count_matches_digit_loop(n, sys_):
    assert digit_count(n, sys_) == len(loop_digits(n, sys_))


@given(n=naturals, sys_=systems, pad=st.integers(0, 6))
def test_padding_independence(n, sys_, pad):
    padded = loop_digits(n, sys_) + [0] * pad
    assert sum(d**sys_.exponent for d in padded) == digit_power_sum(n, sys_)


@given(n=naturals, sys_=systems)
def test_power_sum_upper_bound(n, sys_):
    p = digit_count(n, sys_)
    assert digit_power_sum(n, sys_) <= sys_.digit_weight * p


@given(n=st.integers(0, 10**30))
def test_power_sum_matches_string_oracle(n):
    # base 10 only: independent digit extraction through the decimal string
    squares = DigitSystem(10, 2)
    assert digit_power_sum(n, squares) == sum(int(ch) ** 2 for ch in str(n))


# ----- the divide-and-conquer map against the plain per-digit loop ---------

SPLIT_BITS = 1024  # digit_power_sum splits values of more bits than this


def loop_power_sum(n, sys_):
    """Oracle: one division per digit, no splitting."""
    total = 0
    while n:
        n, d = divmod(n, sys_.base)
        total += d**sys_.exponent
    return total


split_systems = st.builds(
    DigitSystem,
    base=st.one_of(st.integers(2, 37), st.just(10**9 + 7)),
    exponent=st.integers(1, 5),
)


@st.composite
def around_split(draw):
    """Values near 2**1024, near base**k, or random up to a few thousand bits."""
    sys_ = draw(split_systems)
    offset = draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["cutoff", "base_power", "random"]))
    if kind == "cutoff":
        n = 2**SPLIT_BITS + offset
    elif kind == "base_power":
        n = sys_.base ** draw(st.integers(1, 3 * SPLIT_BITS)) + offset
    else:
        n = draw(st.integers(0, 2**4000))
    return max(n, 0), sys_


@given(case=around_split())
def test_power_sum_matches_loop_oracle(case):
    n, sys_ = case
    assert digit_power_sum(n, sys_) == loop_power_sum(n, sys_)


@pytest.mark.parametrize("base", [2, 3, 10, 16, 37, 10**9 + 7, 2**1100 + 1])
def test_power_sum_at_split_boundaries(base):
    # both sides of the cutoff, and all-maximal digits, which sum highest;
    # a base above the cutoff has single-digit chunks that must not split
    sys_ = DigitSystem(base, 3)
    for bits in (SPLIT_BITS - 1, SPLIT_BITS, SPLIT_BITS + 1, 4 * SPLIT_BITS):
        for n in (2**bits - 1, 2**bits, 2**bits + 1):
            assert digit_power_sum(n, sys_) == loop_power_sum(n, sys_)
    for k in (1, 2, 3, 20_000 // base.bit_length()):
        n = base**k - 1  # k digits equal to base - 1
        assert digit_power_sum(n, sys_) == k * sys_.digit_weight


@pytest.mark.parametrize("base, exponent, tabled", [
    (10, 2, True),
    (10, 100_000, True),
    (1024, 3276, True),  # the largest table at the CLI's digit weight cap, 2**25 bits
    (1025, 2, False),
    (10**6 + 1, 2, False),  # the largest base the CLI admits
    (10, 10**7, False),
])
def test_power_sum_with_and_without_a_table(base, exponent, tabled):
    # digit powers come from a table of the base's digits only while it is small
    sys_ = DigitSystem(base, exponent)
    assert (digitmap._digit_powers(sys_) is not None) == tabled
    if exponent > 10**6:
        return
    for n in (0, 1, base - 1, base, 5 * base**7 + 3, base**3 - 1, 2**1100 + 12345):
        assert digit_power_sum(n, sys_) == loop_power_sum(n, sys_)


@pytest.mark.parametrize("base", [2, 3, 10, 37, 10**9 + 7])
def test_digit_count_at_base_powers(base):
    sys_ = DigitSystem(base, 2)
    for k in (1, 2, 3, 17, 64, 500, 1000, 3000):
        power = base**k
        for n in (power - 1, power, power + 1):
            assert digit_count(n, sys_) == len(loop_digits(n, sys_))
