"""Row/column sorting of integer grids and the bubble-pass column sort.

The point of interest: sorting the rows of a grid and then sorting its
columns leaves the rows sorted.  The two-row min/max merge is the lemma
case, and `bubble_column_sort` reproduces the pass structure that proves
the general case (the bottom row is fixed after the first pass, the next
one after the second, and so on for n - 1 passes).

The lemma and the passes share one merge kernel, `_merge_packed`, which
takes the columnwise min and max of two rows packed into one int each
(Lamport, "Multiple byte processing with full-word instructions", CACM
18(8), 1975).  The packing is exact for any integer entries: a field
holds the entry less the grid's least entry, an order-preserving shift,
and is wide enough to leave its top bit clear as a guard bit for the
comparison.  Entries too wide for 64-bit fields are first replaced by
their ranks among the grid's distinct values, a strictly increasing map,
so min and max commute with it too; so are 64-bit entries of a tall grid
whose ranks fit narrower fields, where the merges save more than ranking
costs.
"""

from __future__ import annotations

import re
import struct
import sys
from itertools import islice, pairwise
from operator import le
from typing import Callable, Iterator, NamedTuple


class GridParseError(ValueError):
    """Bad grid text; carries the 1-based line and column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _GridFields(NamedTuple):
    entries: tuple[tuple[int, ...], ...]


class Grid(_GridFields):
    """An immutable n x p grid of integers, stored as a tuple of row tuples."""

    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, ...], ...]) -> Grid:
        if not entries or not entries[0]:
            raise ValueError("a grid has at least one row and one column")
        width = len(entries[0])
        if not all(map(width.__eq__, map(len, entries))):
            i, row = next((i, row) for i, row in enumerate(entries) if len(row) != width)
            raise ValueError(f"ragged grid: row {i} has {len(row)} entries, expected {width}")
        return super().__new__(cls, entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def from_rows(cls, rows) -> Grid:
        return cls(tuple(tuple(row) for row in rows))


class MergeStep(NamedTuple):
    """Snapshot after one elementary two-row merge of a bubble pass."""

    pass_no: int   # 1-based pass number
    top_row: int   # 0-based index of the upper row of the merged pair
    grid: Grid


_TOKEN = re.compile(r"\S+")
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_grid(text: str) -> Grid:
    """Parse the grid text format: one row per line, whitespace-separated
    decimal integers, blank lines ignored, all rows equally long.

    A line is split and converted at once, equal entries sharing one int.
    int() also takes underscores and non-ASCII digits, so a line holding
    either, a line int() refuses, and a row of the wrong length go through
    _parse_tokens, which names the offending line and column.
    """
    rows: list[tuple[int, ...]] = []
    width: int | None = None
    shared: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        row = None
        if line.isascii() and "_" not in line:
            try:
                values = list(map(int, line.split()))
            except ValueError:  # not an integer, or past the int-string limit
                pass
            else:
                row = tuple(map(shared.setdefault, values, values))
        if row is None or (row and width is not None and len(row) != width):
            row = _parse_tokens(line, lineno, width)
        if not row:
            continue
        if width is None:
            width = len(row)
        rows.append(row)
    if not rows:
        raise GridParseError("empty grid", 1, 1)
    return Grid(tuple(rows))


def _parse_tokens(line: str, lineno: int, width: int | None) -> tuple[int, ...]:
    """One line's row, token by token: a bad token, or a row of other than
    `width` entries, raises GridParseError at its line and column."""
    tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
    row = []
    for token, column in tokens:
        if not _INTEGER.fullmatch(token):
            # a long token by its length: the error stays one short line
            shown = repr(token) if len(token) <= 30 else f"<{len(token)} characters>"
            raise GridParseError(f"not a decimal integer: {shown}", lineno, column)
        try:
            row.append(int(token))
        except ValueError:  # longer than the interpreter's int-string limit
            raise GridParseError(f"integer has {len(token.lstrip('+-'))} digits, above "
                                 f"the limit of {sys.get_int_max_str_digits()}",
                                 lineno, column) from None
    if row and width is not None and len(row) != width:
        column = tokens[width][1] if len(row) > width else tokens[-1][1]
        raise GridParseError(f"row has {len(row)} entries, expected {width}", lineno, column)
    return tuple(row)


def format_row(row) -> str:
    """One row of the text format."""
    return " ".join(map(str, row))


def format_grid(g: Grid) -> str:
    """Render a grid back into the text format (no trailing newline)."""
    return "\n".join(map(format_row, g.entries))


def sort_rows(g: Grid) -> Grid:
    """Each row rearranged nondecreasing left to right."""
    return Grid(tuple(map(tuple, map(sorted, g.entries))))


def sort_cols(g: Grid) -> Grid:
    """Each column rearranged nondecreasing top to bottom."""
    return Grid(tuple(zip(*map(sorted, zip(*g.entries)))))


def is_rows_sorted(g: Grid) -> bool:
    # each entry against its right-hand neighbour
    return all(all(map(le, row, islice(row, 1, None))) for row in g.entries)


def is_cols_sorted(g: Grid) -> bool:
    # each entry against the one below it, a row pair at a time: no transpose
    return all(all(map(le, upper, lower)) for upper, lower in pairwise(g.entries))


# _rank_pack packs entries that need 64-bit fields by their ranks among the
# grid's distinct values when the grid has at least this many rows and the
# ranks fit 32- or 16-bit fields.  Ranking costs about 1-1.6 us a cell, and a
# merge of 1000 columns takes 10-12 us in 64-bit fields against 6.2-6.3 us in
# 32-bit ones, so ranks pay once each row takes part in some hundreds of
# merges: a bubble sort over +-2**40 took 0.73 s in 64-bit fields against
# 0.81 s by ranks at 400x1000, 1.15 s either way at 512x1000, 1.92 against
# 1.73 s at 640x1000 and 2.74 against 2.47 s at 768x1000; at 30-300 columns
# ranks broke even at 128-256 rows (in process, least of 3).  Through
# `grid sort --mode bubble --json`, 1000x1000 took 7.7 s against 7.9 s, and
# the largest 1000-column grid the bubble cap allows, 1438x1000, 15.0-16.2 s
# against 10.2-11.6 s.  Its peak RSS, 234 MB in 64-bit fields, is set by
# parse_grid, whose text, lines and dict of 1.4*10**6 distinct entries come
# to 181 MB; ranks take it to 286 MB with the rank table built on top of the
# parsed grid (Python 3.11, 2-vCPU Xeon).
RANK_ROWS = 512

# bubble_column_sort gives equal entries of its output one int object when
# the grid has at least this many cells and its entries span fewer values
# than a quarter of its cells.  Sharing costs 15-120 ns a cell in process,
# and verify's blocks of about 2048 cells gain nothing from it.  Through
# `grid sort --mode bubble --json` over [-1000, 1000] it took the peak RSS
# from 16.09 to 16.10 MB at 64x64, 16.23 to 16.10 MB at 90x90, 16.39 to
# 16.11 MB at 128x128, 16.85 to 16.09 MB at 180x180 and 25.5 to 19.1 MB at
# 500x500, yet it adds a dict entry where it saves no int: at 500x500 it cost
# 3.8 MB over a span of cells / 2 and saved 2.5 MB over cells / 4, and at
# 500x1000 over +-2**40 it cost 8.9 MB (Python 3.11, 2-vCPU Xeon).
SHARE_CELLS = 2**14


def _signed_code(lo: int, hi: int) -> str | None:
    """The narrowest of the struct typecodes h, i and q that holds lo and hi
    and whose top bit hi - lo leaves clear; None if none does."""
    for code in "hiq":
        half = 1 << 8 * struct.calcsize("<" + code) - 1
        if -half <= lo and hi < half and hi - lo < half:
            return code
    return None


def _rank_pack(rows) -> tuple[list[int], int, int, Callable[[int], tuple[int, ...]]]:
    """Pack equal-length rows of integers into ints of fixed-width fields.

    Column j of a row is field j, holding the entry less the least entry of
    all the rows: each row is packed through the signed typecode that
    _signed_code picks, and one xor with the fields' top bits and one
    subtraction turn every field's two's complement entry into that
    difference, which leaves the top bit clear.  When the entries span
    more than a q field allows, their ranks among the distinct values are
    packed instead, and so are those of RANK_ROWS rows or more that need a
    q field: their ranks fit a narrower one below 2**31 distinct values.
    Returns the packed rows, the guard mask (the top bit of every field),
    the shift that moves a guard bit to its field's lowest bit, and the
    function that unpacks a packed row back into a tuple of entries.
    """
    width = len(rows[0])
    lo, hi = min(map(min, rows)), max(map(max, rows))
    code = _signed_code(lo, hi)
    values = None
    if code is None or (code == "q" and len(rows) >= RANK_ROWS):
        values = sorted(set().union(*rows))
        rank = {v: i for i, v in enumerate(values)}
        rows = [map(rank.__getitem__, row) for row in rows]
        lo, hi = 0, len(values) - 1
        code = _signed_code(lo, hi)
    shift = 8 * struct.calcsize("<" + code) - 1
    # struct rather than array: array("H") converts each item through a
    # generic argument parser, about 3x slower than struct.pack
    fields = struct.Struct(f"<{width}{code}")
    sign = int.from_bytes(fields.pack(*[-1 << shift] * width), "little")
    bias = int.from_bytes(fields.pack(*[lo] * width), "little") ^ sign
    packed = [(int.from_bytes(fields.pack(*row), "little") ^ sign) - bias for row in rows]

    def unpack(row: int) -> tuple[int, ...]:
        return fields.unpack(((row + bias) ^ sign).to_bytes(fields.size, "little"))

    if values is None:
        return packed, sign, shift, unpack
    return packed, sign, shift, lambda row: tuple(map(values.__getitem__, unpack(row)))


def _merge_packed(a: int, b: int, guards: int, shift: int) -> tuple[int, int]:
    """Columnwise (min, max) of two packed rows (see _rank_pack).

    Setting a's guard bits and subtracting b borrows within a field only,
    since no field's value reaches its guard bit: a field keeps its guard
    bit exactly where a >= b.  Subtracting those bits moved to the fields'
    lowest bits turns them into masks of the fields to swap.
    """
    marks = ((a | guards) - b) & guards
    swap = (a ^ b) & (marks - (marks >> shift))
    return a ^ swap, b ^ swap


def two_row_minmax(top, bottom) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Columnwise (min, max) of two equal-length rows.

    Per column this sorts the pair, and when both inputs are nondecreasing
    so are both outputs: min(t1,b1) <= min(t2,b2) because the left min is
    <= t1 <= t2 and <= b1 <= b2; symmetrically for the max row.  The rows
    go through the same packed kernel as the bubble passes.
    """
    top, bottom = tuple(top), tuple(bottom)
    if len(top) != len(bottom):
        raise ValueError(f"row length mismatch: {len(top)} vs {len(bottom)}")
    if not top:
        return (), ()
    (a, b), guards, shift, unpack = _rank_pack((top, bottom))
    low, high = _merge_packed(a, b, guards, shift)
    return unpack(low), unpack(high)


def _bubble_passes(rows: list[int], guards: int, shift: int) -> Iterator[tuple[int, int]]:
    """Merge adjacent packed rows in place; yield (pass, top row) after each merge."""
    n = len(rows)
    for k in range(1, n):
        for i in range(n - k):
            rows[i], rows[i + 1] = _merge_packed(rows[i], rows[i + 1], guards, shift)
            yield k, i


def bubble_column_sort(g: Grid) -> tuple[Grid, int]:
    """Column-sort by n - 1 passes of adjacent two-row merges.

    Pass k merges row pairs (0,1), (1,2), ... stopping one pair earlier
    than the previous pass: after pass 1 the bottom row holds the column
    maxima and never moves again, after pass 2 the row above it, etc.
    Equals sort_cols on every input (per column this is bubble sort).
    The rows are packed once, merged packed and unpacked once, equal
    entries of a large grid of few values sharing one int (see
    SHARE_CELLS); one row needs no merge and is not packed.
    Returns the sorted grid and the number of passes the merges ran, n - 1.
    """
    if g.rows == 1:
        return g, 0
    rows, guards, shift, unpack = _rank_pack(g.entries)
    passes = 0
    for passes, _ in _bubble_passes(rows, guards, shift):
        pass
    out = map(unpack, rows)
    cells = g.rows * g.cols
    # the top row holds each column's least entry and the bottom row its greatest
    if cells >= SHARE_CELLS and max(unpack(rows[-1])) - min(unpack(rows[0])) < cells // 4:
        # one int object per distinct value, as parse_grid builds them
        shared: dict[int, int] = {}
        out = (tuple(map(shared.setdefault, row, row)) for row in out)
    return Grid(tuple(out)), passes


def trace_bubble(g: Grid) -> Iterator[MergeStep]:
    """Yield a snapshot after every elementary merge of bubble_column_sort.

    Only the two merged rows are unpacked for a snapshot; it shares the
    other rows with the previous one.  One row makes no merge and no snapshot.
    """
    if g.rows == 1:
        return
    rows = list(g.entries)
    packed, guards, shift, unpack = _rank_pack(rows)
    for k, i in _bubble_passes(packed, guards, shift):
        rows[i], rows[i + 1] = unpack(packed[i]), unpack(packed[i + 1])
        yield MergeStep(pass_no=k, top_row=i, grid=Grid(tuple(rows)))
