"""Row/column sorting of integer grids and the bubble-pass column sort.

The point of interest: sorting the rows of a grid and then sorting its
columns leaves the rows sorted.  The two-row min/max merge is the lemma
case, and `bubble_column_sort` reproduces the pass structure that proves
the general case (the bottom row is fixed after the first pass, the next
one after the second, and so on for n - 1 passes).

The lemma and the passes share one merge kernel, `_merge_packed`, which
takes the columnwise min and max of two rows packed into one int each
(Lamport, "Multiple byte processing with full-word instructions", CACM
18(8), 1975).  The packing is exact for any integer entries: each entry
becomes its rank among the grid's distinct values, a strictly increasing
map, so it commutes with min and max, and the fields are wide enough to
leave every field's top bit clear as a guard bit for the comparison.
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
    decimal integers, blank lines ignored, all rows equally long."""
    rows: list[tuple[int, ...]] = []
    width: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]
        if not tokens:
            continue
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
        if width is None:
            width = len(row)
        elif len(row) != width:
            column = tokens[width][1] if len(row) > width else tokens[-1][1]
            raise GridParseError(
                f"row has {len(row)} entries, expected {width}", lineno, column
            )
        rows.append(tuple(row))
    if not rows:
        raise GridParseError("empty grid", 1, 1)
    return Grid(tuple(rows))


def format_grid(g: Grid) -> str:
    """Render a grid back into the text format (no trailing newline)."""
    return "\n".join(" ".join(str(x) for x in row) for row in g.entries)


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


def _rank_pack(rows) -> tuple[list[int], int, int, Callable[[int], tuple[int, ...]]]:
    """Pack equal-length rows of integers into ints of fixed-width fields.

    Column j of a row is field j, holding the entry's rank among the
    distinct values of all the rows.  The field is the narrowest of the
    typecodes H, I and Q whose top bit no rank reaches.  Returns the packed
    rows, the guard mask (the top bit of every field), the shift that moves
    a guard bit to its field's lowest bit, and the function that unpacks a
    packed row back into a tuple of entries.
    """
    values = sorted(set().union(*rows))
    code = next(c for c in "HIQ" if len(values) <= 1 << (8 * struct.calcsize("<" + c) - 1))
    shift = 8 * struct.calcsize("<" + code) - 1
    # struct rather than array: array("H") converts each item through a
    # generic argument parser, about 3x slower than struct.pack
    fields = struct.Struct(f"<{len(rows[0])}{code}")
    rank = {v: i for i, v in enumerate(values)}
    packed = [int.from_bytes(fields.pack(*map(rank.__getitem__, row)), "little") for row in rows]
    guards = int.from_bytes(fields.pack(*[1 << shift] * len(rows[0])), "little")

    def unpack(row: int) -> tuple[int, ...]:
        return tuple(map(values.__getitem__, fields.unpack(row.to_bytes(fields.size, "little"))))

    return packed, guards, shift, unpack


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
    The rows are packed once, merged packed and unpacked once.
    Returns the sorted grid and the number of passes the merges ran, n - 1.
    """
    rows, guards, shift, unpack = _rank_pack(g.entries)
    passes = 0
    for passes, _ in _bubble_passes(rows, guards, shift):
        pass
    return Grid(tuple(map(unpack, rows))), passes


def trace_bubble(g: Grid) -> Iterator[MergeStep]:
    """Yield a snapshot after every elementary merge of bubble_column_sort.

    Only the two merged rows are unpacked for a snapshot; it shares the
    other rows with the previous one.
    """
    rows = list(g.entries)
    packed, guards, shift, unpack = _rank_pack(rows)
    for k, i in _bubble_passes(packed, guards, shift):
        rows[i], rows[i + 1] = unpack(packed[i]), unpack(packed[i + 1])
        yield MergeStep(pass_no=k, top_row=i, grid=Grid(tuple(rows)))
