import random
import sys
from collections import Counter
from itertools import islice, pairwise
from operator import add

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import happygrid.gridsort as gridsort
from happygrid import (
    Grid,
    GridParseError,
    bubble_column_sort,
    format_grid,
    is_cols_sorted,
    is_rows_sorted,
    parse_grid,
    sort_cols,
    sort_rows,
    trace_bubble,
    two_row_minmax,
)

T = Grid.from_rows([[1, 8, 3, 4, 8], [0, 9, 2, 7, 14], [20, 3, 6, 7, 7]])
T_ROWS = Grid.from_rows([[1, 3, 4, 8, 8], [0, 2, 7, 9, 14], [3, 6, 7, 7, 20]])
T_BOTH = Grid.from_rows([[0, 2, 4, 7, 8], [1, 3, 7, 8, 14], [3, 6, 7, 9, 20]])


@st.composite
def grids(draw, max_rows=8, max_cols=8, lo=-1000, hi=1000):
    n = draw(st.integers(1, max_rows))
    p = draw(st.integers(1, max_cols))
    entries = draw(
        st.lists(
            st.lists(st.integers(lo, hi), min_size=p, max_size=p),
            min_size=n,
            max_size=n,
        )
    )
    return Grid.from_rows(entries)


sorted_row_pairs = st.integers(2, 10).flatmap(
    lambda p: st.tuples(
        st.lists(st.integers(-100, 100), min_size=p, max_size=p).map(sorted),
        st.lists(st.integers(-100, 100), min_size=p, max_size=p).map(sorted),
    )
)


def test_worked_example():
    assert sort_rows(T) == T_ROWS
    assert sort_cols(T_ROWS) == T_BOTH
    assert is_rows_sorted(T_BOTH) and is_cols_sorted(T_BOTH)
    assert not is_rows_sorted(T) and not is_cols_sorted(T)


def test_trivial_grids():
    unit = Grid.from_rows([[5]])
    assert sort_rows(unit) == unit
    assert sort_cols(unit) == unit
    assert is_rows_sorted(unit) and is_cols_sorted(unit)
    single_row = Grid.from_rows([[3, 1, 2]])
    assert sort_cols(single_row) == single_row
    assert bubble_column_sort(single_row) == (single_row, 0)


def test_grid_validation():
    with pytest.raises(ValueError, match="ragged"):
        Grid.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="at least one row"):
        Grid.from_rows([])
    with pytest.raises(ValueError, match="at least one row"):
        Grid.from_rows([[]])
    assert T.rows == 3 and T.cols == 5


@given(g=grids())
def test_sorts_are_idempotent(g):
    assert sort_rows(sort_rows(g)) == sort_rows(g)
    assert sort_cols(sort_cols(g)) == sort_cols(g)


@given(g=grids())
def test_main_theorem(g):
    final = sort_cols(sort_rows(g))
    assert is_rows_sorted(final)
    assert is_cols_sorted(final)


@given(g=grids())
def test_multiset_conservation(g):
    for before, after in zip(g.entries, sort_rows(g).entries):
        assert Counter(before) == Counter(after)
    for before, after in zip(zip(*g.entries), zip(*sort_cols(g).entries)):
        assert Counter(before) == Counter(after)
    bubbled, _ = bubble_column_sort(g)
    for before, after in zip(zip(*g.entries), zip(*bubbled.entries)):
        assert Counter(before) == Counter(after)


def test_two_row_minmax_example():
    low, high = two_row_minmax((1, 3, 4, 8, 8), (0, 2, 7, 9, 14))
    assert low == (0, 2, 4, 8, 8)
    assert high == (1, 3, 7, 9, 14)
    row = (5, 1, 7)
    assert two_row_minmax(row, row) == (row, row)
    with pytest.raises(ValueError, match="length mismatch"):
        two_row_minmax((1, 2), (1, 2, 3))


# the entries around the h, i and q fields' limits, where packing widens its
# fields or, past q, packs ranks
FIELD_EDGES = (-2**63, -2**31, -2**15, 2**15, 2**31, 2**63)
edge_values = st.sampled_from(FIELD_EDGES).flatmap(lambda e: st.integers(e - 2, e + 1))
# ties are likely among small values; big ints cross the machine-word size
entry_values = st.integers(-3, 3) | st.integers(-2**70, 2**70) | edge_values
row_pairs = st.integers(1, 9).flatmap(lambda p: st.tuples(
    st.lists(entry_values, min_size=p, max_size=p),
    st.lists(entry_values, min_size=p, max_size=p)))


@given(pair=row_pairs, form=st.sampled_from([tuple, list, iter]))
def test_two_row_minmax_is_columnwise_min_and_max(pair, form):
    top, bottom = pair
    expected = tuple(map(min, top, bottom)), tuple(map(max, top, bottom))
    assert two_row_minmax(form(top), form(bottom)) == expected


@given(top=st.lists(entry_values, max_size=5), bottom=st.lists(entry_values, max_size=5))
def test_two_row_minmax_length_mismatch(top, bottom):
    assume(len(top) != len(bottom))
    with pytest.raises(ValueError) as mismatch:
        two_row_minmax(iter(top), iter(bottom))
    assert str(mismatch.value) == f"row length mismatch: {len(top)} vs {len(bottom)}"


def test_two_row_minmax_of_empty_rows():
    assert two_row_minmax((), iter([])) == ((), ())


def _lines_sorted_reference(lines):
    return all(a <= b for line in lines for a, b in pairwise(line))


@given(g=grids(lo=-3, hi=3) | grids(max_rows=1) | grids(max_cols=1))
def test_sortedness_checks_compare_neighbours(g):
    # 1 x p and n x 1 grids included: a line of one entry is sorted
    assert is_rows_sorted(g) == _lines_sorted_reference(g.entries)
    assert is_cols_sorted(g) == _lines_sorted_reference(zip(*g.entries))
    assert is_rows_sorted(sort_rows(g)) and is_cols_sorted(sort_cols(g))


@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [3]], "ragged grid: row 1 has 1 entries, expected 2"),
    ([[1], [2], [3, 4], [5, 6, 7]], "ragged grid: row 2 has 2 entries, expected 1"),
    ([[1, 2, 3], [4, 5, 6], []], "ragged grid: row 2 has 0 entries, expected 3"),
])
def test_ragged_grid_names_the_first_bad_row(rows, message):
    with pytest.raises(ValueError) as ragged:
        Grid.from_rows(rows)
    assert str(ragged.value) == message


@given(g=grids())
def test_bubble_makes_n_choose_2_merges(g):
    calls = []
    merge = gridsort._merge_packed

    def counted(*args):
        calls.append(1)
        return merge(*args)

    gridsort._merge_packed = counted
    try:
        _, passes = bubble_column_sort(g)
    finally:
        gridsort._merge_packed = merge
    n = g.rows
    assert len(calls) == n * (n - 1) // 2 and passes == n - 1


def test_bubble_counts_the_passes_it_ran(monkeypatch):
    # with its last pass skipped, a column-sorted grid still comes out right:
    # only the pass count can tell
    passes = gridsort._bubble_passes

    def short(rows, guards, shift):
        n = len(rows)
        return islice(passes(rows, guards, shift), n * (n - 1) // 2 - 1)

    monkeypatch.setattr(gridsort, "_bubble_passes", short)
    g = sort_cols(T)
    assert bubble_column_sort(g) == (g, g.rows - 2)


def test_one_row_is_not_packed(monkeypatch):
    packed = []
    pack = gridsort._rank_pack

    def counted(rows):
        packed.append(len(rows))
        return pack(rows)

    monkeypatch.setattr(gridsort, "_rank_pack", counted)
    row = Grid(((3, 1, 2**70),))
    assert bubble_column_sort(row) == (row, 0)
    assert list(trace_bubble(row)) == []
    assert packed == []
    two = Grid(((3, 1), (2, 4)))
    assert bubble_column_sort(two) == (Grid(((2, 1), (3, 4))), 1)
    assert len(list(trace_bubble(two))) == 1
    assert packed == [2, 2]


@given(pair=sorted_row_pairs)
def test_two_row_lemma_preserves_sortedness(pair):
    top, bottom = pair
    low, high = two_row_minmax(top, bottom)
    assert list(low) == sorted(low)
    assert list(high) == sorted(high)
    # per column the output pair is the sorted input pair
    for t, b, lo_, hi_ in zip(top, bottom, low, high):
        assert sorted((t, b)) == [lo_, hi_]


@given(g=grids())
def test_bubble_equivalent_to_column_sort(g):
    bubbled, passes = bubble_column_sort(g)
    assert bubbled == sort_cols(g)
    assert passes == g.rows - 1


@given(g=grids(max_rows=6, max_cols=6))
def test_merges_keep_rows_sorted(g):
    # the inductive heart: starting row-sorted, every snapshot stays row-sorted
    start = sort_rows(g)
    for step in trace_bubble(start):
        assert is_rows_sorted(step.grid)


@given(g=grids(max_rows=6, max_cols=6))
def test_last_row_fixed_after_first_pass(g):
    maxima = tuple(map(max, zip(*g.entries)))  # one row: the row itself
    for step in trace_bubble(g):
        if step.pass_no == 1 and step.top_row == g.rows - 2:
            assert step.grid.entries[-1] == maxima
        if step.pass_no > 1:
            assert step.grid.entries[-1] == maxima


def test_trace_final_snapshot_is_column_sort():
    steps = list(trace_bubble(T_ROWS))
    assert steps[-1].grid == T_BOTH
    assert steps[-1].pass_no == 2  # n - 1 passes for n = 3
    # pass 1 runs two merges, pass 2 stops one pair earlier
    assert [(s.pass_no, s.top_row) for s in steps] == [(1, 0), (1, 1), (2, 0)]


def test_two_line_grid_reduces_to_the_lemma():
    g = Grid.from_rows([[4, 9, 1], [2, 8, 7]])
    steps = list(trace_bubble(g))
    assert len(steps) == 1
    low, high = two_row_minmax(g.entries[0], g.entries[1])
    assert steps[0].grid.entries == (low, high)


# --- the packed merge kernel against a tuple-comprehension reference -------

def _reference_merge(top, bottom):
    return tuple(zip(*[(t, u) if t <= u else (u, t) for t, u in zip(top, bottom)])) or ((), ())


def _reference_trace(entries):
    """(pass, top row, rows) after each merge of the bubble passes, merged by tuples."""
    rows = list(entries)
    n = len(rows)
    for k in range(1, n):
        for i in range(n - k):
            rows[i], rows[i + 1] = _reference_merge(rows[i], rows[i + 1])
            yield k, i, tuple(rows)


def _shuffled_grid(values, rows, rng):
    values = list(values)
    rng.shuffle(values)
    return Grid(tuple(zip(*[iter(values)] * (len(values) // rows))))


_rng = random.Random(18)
PACKING_GRIDS = {
    # 2**15 values from 0 fill 16-bit fields; 2**15 + 1 near -2**40 take 64-bit ones
    "2^15-distinct": _shuffled_grid(range(2**15), 2, _rng),
    "2^15+1-distinct": _shuffled_grid(range(-2**40, -2**40 + 3 * (2**15 + 1), 3), 3, _rng),
    "past-2^64-and-negative": _shuffled_grid(
        [2**64, 2**64 + 1, -2**64, -2**70, 2**70, 0, -1] * 3
        + [_rng.randint(-2**100, 2**100) for _ in range(21)], 6, _rng),
    "all-equal": Grid(((-2**65,) * 5,) * 4),
    # each field's limits, one inside and one outside: 16-bit fields around
    # 2**15 widen to 32 bits, 32-bit ones around 2**31 to 64, and 64-bit ones
    # around 2**63 turn to ranks
    **{f"edges-2^{bits}": _shuffled_grid([-2**bits - 1, -2**bits, 2**bits - 1, 2**bits] * 3, 4, _rng)
       for bits in (15, 31, 63)},
    # a span of 2**15 - 1 below zero fills 16-bit fields, 2**15 needs 32 bits
    "span-2^15-1-negative": _shuffled_grid(
        [-2**15, -1] + [_rng.randint(-2**15, -1) for _ in range(22)], 3, _rng),
    "span-2^15-negative": _shuffled_grid(
        [-2**14 - 1, 2**14 - 1] + [_rng.randint(-2**14, 2**14) for _ in range(22)], 3, _rng),
    # a small span past 64 bits still goes through ranks
    "near-2^70": _shuffled_grid([2**70 + _rng.randint(-9, 9) for _ in range(30)], 5, _rng),
    "one-row": _shuffled_grid(range(-9, 9), 1, _rng),
    "one-column": _shuffled_grid([_rng.randint(-2**66, 2**66) for _ in range(30)] * 2, 60, _rng),
}


@pytest.mark.parametrize("name", PACKING_GRIDS)
def test_packed_passes_match_the_references(name):
    g = PACKING_GRIDS[name]
    column_sorted = tuple(zip(*(sorted(column) for column in zip(*g.entries))))
    assert bubble_column_sort(g) == (Grid(column_sorted), g.rows - 1)
    steps = [(s.pass_no, s.top_row, s.grid.entries) for s in trace_bubble(g)]
    assert steps == list(_reference_trace(g.entries))
    assert (steps[-1][2] if steps else g.entries) == column_sorted


FIELD_WIDTHS = [
    (0, 2, 15), (0, 2**15, 15), (0, 2**15 + 1, 31),
    # a negative least entry: the span, not the entries' size, sets the width
    (-2**15, 2**15, 15), (-2**15, 2**15 + 1, 31), (-7, 2**15, 15), (-7, 2**15 + 1, 31),
    (-2**31, 2, 31), (-2**31 - 1, 2, 63), (-2**63, 2, 63),
    # an entry past a field's largest value widens it whatever the span
    (2**15 - 1, 1, 15), (2**15, 1, 31), (2**31, 1, 63),
    # past 64 bits the fields hold ranks
    (2**63, 1, 15), (-2**63 - 1, 2, 15), (2**70, 2**15 + 1, 31),
]


@pytest.mark.parametrize("lo, distinct, shift", FIELD_WIDTHS, ids=[
    f"{distinct}-{shift}" if lo == 0 else f"{lo}-{distinct}-{shift}"
    for lo, distinct, shift in FIELD_WIDTHS])
def test_field_width_leaves_a_guard_bit(lo, distinct, shift):
    row = range(lo, lo + distinct)
    packed, guards, chosen, unpack = gridsort._rank_pack([row, row])
    assert chosen == shift
    field = 1 << (shift + 1)
    assert guards == ((field ** distinct - 1) // (field - 1)) << shift  # every field's top bit
    assert packed[0] & guards == 0 and unpack(packed[0]) == tuple(row)


@pytest.mark.parametrize("rows, cols, shift", [
    (gridsort.RANK_ROWS - 1, 1, 63), (gridsort.RANK_ROWS, 1, 15), (gridsort.RANK_ROWS, 65, 31)])
def test_tall_grids_pack_64_bit_entries_by_narrower_ranks(rows, cols, shift):
    # entries past 32 bits take 64-bit fields, or from RANK_ROWS rows on the
    # fields of their ranks: 16 bits for 512 distinct values, 32 for 33,280
    rng = random.Random(rows * cols)
    g = _shuffled_grid([rng.randint(-2**40, 2**40) for _ in range(rows * cols)], rows, rng)
    packed, guards, chosen, unpack = gridsort._rank_pack(g.entries)
    assert chosen == shift and tuple(map(unpack, packed)) == g.entries
    column_sorted = tuple(zip(*(sorted(column) for column in zip(*g.entries))))
    assert bubble_column_sort(g) == (Grid(column_sorted), rows - 1)


@pytest.mark.parametrize("rows, cols, spread, shared", [
    (127, 129, 100, False),  # one cell below SHARE_CELLS
    (128, 128, 100, True),  # SHARE_CELLS cells
    (128, 128, 128 * 128 // 4 - 1, True),  # entries spanning under a quarter of the cells
    (128, 128, 128 * 128 // 4, False),  # and a quarter of them
    (300, 70, 50, True)])
def test_large_bubble_outputs_share_equal_entries(rows, cols, spread, shared):
    # entries past the small-int cache, the least and the greatest both present
    assert 127 * 129 + 1 == 128 * 128 == gridsort.SHARE_CELLS
    rng = random.Random(rows + spread)
    lo, hi = 10**6, 10**6 + spread
    cells = [lo, hi] + [rng.randint(lo, hi) for _ in range(rows * cols - 2)]
    rng.shuffle(cells)
    g = Grid(tuple(zip(*[iter(cells)] * cols)))
    out, passes = bubble_column_sort(g)
    assert (out, passes) == (sort_cols(g), rows - 1)
    entries = [x for row in out.entries for x in row]
    objects = len({id(x) for x in entries})
    assert objects == (len(set(entries)) if shared else len(entries))


@given(g=grids(max_rows=6, max_cols=6, lo=-3, hi=3)
       | grids(max_rows=6, max_cols=6, lo=-2**70, hi=2**70)
       | st.sampled_from(FIELD_EDGES).flatmap(
           lambda edge: grids(max_rows=6, max_cols=6, lo=edge - 2, hi=edge + 1)))
def test_trace_matches_the_tuple_reference(g):
    steps = [(s.pass_no, s.top_row, s.grid.entries) for s in trace_bubble(g)]
    assert steps == list(_reference_trace(g.entries))


# --- grid text format -------------------------------------------------------

def test_parse_round_trip():
    text = " 1\t8 3 4 8\n\n0 9 2 7 14\n20 3 6 7 7 \n"
    assert parse_grid(text) == T
    assert parse_grid(format_grid(T)) == T


def test_parse_signed_entries():
    g = parse_grid("-3 +4\n0 -1000")
    assert g.entries == ((-3, 4), (0, -1000))


def test_parse_errors_name_line_and_column():
    with pytest.raises(GridParseError) as exc_info:
        parse_grid("1 2 3\n4 x 6\n")
    assert exc_info.value.line == 2
    assert exc_info.value.column == 3
    with pytest.raises(GridParseError) as ragged:
        parse_grid("1 2 3\n4 5\n")
    assert ragged.value.line == 2
    with pytest.raises(GridParseError) as extra:
        parse_grid("1 2\n3 4 5\n")
    assert extra.value.line == 2
    assert extra.value.column == 5
    with pytest.raises(GridParseError) as empty:
        parse_grid("  \n\n")
    assert empty.value.line == 1
    with pytest.raises(GridParseError, match="not a decimal integer"):
        parse_grid("1 2\n3 4.5\n")
    with pytest.raises(GridParseError, match="not a decimal integer"):
        parse_grid("1_0 2\n3 4\n")


def test_parse_errors_give_long_tokens_by_length():
    short = "x" * 30
    with pytest.raises(GridParseError) as quoted:
        parse_grid(f"1 2\n3 {short}\n")
    assert str(quoted.value) == f"line 2, column 3: not a decimal integer: {short!r}"
    # a 260,000-character token was quoted in full, a 260 KB error line
    with pytest.raises(GridParseError) as counted:
        parse_grid("1 2\n3 " + "7" * 259_999 + "x\n")
    assert str(counted.value) == "line 2, column 3: not a decimal integer: <260000 characters>"
    assert (counted.value.line, counted.value.column) == (2, 3)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the int-string digit limit came with Python 3.11")
def test_parse_refuses_entries_past_the_int_string_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        assert parse_grid("1" * 1000 + " 2").entries == ((int("1" * 1000), 2),)
        with pytest.raises(GridParseError, match="1001 digits, above the limit of 1000") as first:
            parse_grid("1" * 1001 + " 2")
        assert (first.value.line, first.value.column) == (1, 1)
        # a sign and leading zeros: the limit counts every digit of the token
        with pytest.raises(GridParseError, match="1001 digits") as signed:
            parse_grid("1 2\n3 -" + "0" * 1000 + "1\n")
        assert (signed.value.line, signed.value.column) == (2, 3)
    finally:
        sys.set_int_max_str_digits(limit)


# --- the split parser against the token loop --------------------------------

# \s and str.split() take the same characters, str.isspace()'s 29 on 3.11
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
# decimal integers with signs and leading zeros, and tokens that are not
DECIMALS = st.from_regex(r"[+-]?0{0,2}[0-9]{1,3}", fullmatch=True) | st.sampled_from(
    ["-0", "+0", "007", str(2**70), str(-2**70)])
NOT_DECIMALS = st.sampled_from(["1_0", "\uff14", "4.5", "12+3", "+", "-", "x", "\u0663", "+-1"])


def _token_loop_parse(text):
    """parse_grid with every line through the token loop."""
    rows, width = [], None
    for lineno, line in enumerate(text.splitlines(), start=1):
        row = gridsort._parse_tokens(line, lineno, width)
        if row:
            width = width or len(row)
            rows.append(row)
    if not rows:
        raise GridParseError("empty grid", 1, 1)
    return Grid(tuple(rows))


def _outcome(parse, text):
    try:
        return parse(text).entries
    except GridParseError as error:
        return str(error), error.line, error.column


@st.composite
def grid_texts(draw):
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        count = draw(st.sampled_from([0, width, width, width, width + 1, max(0, width - 1)]))
        tokens = draw(st.lists(DECIMALS | NOT_DECIMALS if draw(st.booleans()) else DECIMALS,
                               min_size=count, max_size=count))
        # each token followed by whitespace, none at times: two tokens then run together
        gaps = draw(st.lists(st.text(WHITESPACE, max_size=2), min_size=count, max_size=count))
        lines.append(draw(st.text(WHITESPACE, max_size=2)) + "".join(map(add, tokens, gaps)))
    return draw(st.sampled_from(["\n", "\r\n", "\u2028"])).join(lines)


@given(text=grid_texts())
def test_parse_matches_the_token_loop(text):
    assert _outcome(parse_grid, text) == _outcome(_token_loop_parse, text)


@pytest.mark.parametrize("token", ["1_0", "\uff14", "4.5", "12+3", "+"])
def test_parse_names_a_token_that_is_not_decimal(token):
    # int() would take the first two, so a line with an underscore or a non-ASCII
    # character goes to the token loop, as does one int() refuses: all five do
    with pytest.raises(GridParseError) as bad:
        parse_grid(f"1 2\n\n 3\u3000{token} \n")
    assert str(bad.value) == f"line 3, column 4: not a decimal integer: {token!r}"
    assert (bad.value.line, bad.value.column) == (3, 4)


def test_parse_shares_equal_entries():
    g = parse_grid(f"{10**30} -{10**30} 7\n-{10**30} 0{10**30} 7\n")
    big = g.entries[0][0]
    assert g.entries == ((10**30, -10**30, 7), (-10**30, 10**30, 7))
    assert g.entries[1][1] is big and g.entries[0][1] is g.entries[1][0]
