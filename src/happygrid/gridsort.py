"""Row/column sorting of integer grids and the bubble-pass column sort.

The point of interest: sorting the rows of a grid and then sorting its
columns leaves the rows sorted.  The two-row min/max merge is the lemma
case, and `bubble_column_sort` reproduces the pass structure that proves
the general case (the bottom row is fixed after the first pass, the next
one after the second, and so on for n - 1 passes).
"""

from __future__ import annotations

import re
import sys
from itertools import islice, pairwise
from operator import le
from typing import Iterator, NamedTuple


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


def two_row_minmax(top, bottom) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Columnwise (min, max) of two equal-length rows.

    Per column this sorts the pair, and when both inputs are nondecreasing
    so are both outputs: min(t1,b1) <= min(t2,b2) because the left min is
    <= t1 <= t2 and <= b1 <= b2; symmetrically for the max row.
    """
    top, bottom = tuple(top), tuple(bottom)
    if len(top) != len(bottom):
        raise ValueError(f"row length mismatch: {len(top)} vs {len(bottom)}")
    # one comparison per column and no builtin call; zip(*) splits the sorted pairs
    return tuple(zip(*[(t, u) if t <= u else (u, t) for t, u in zip(top, bottom)])) or ((), ())


def _bubble_passes(rows: list) -> Iterator[tuple[int, int]]:
    """Merge adjacent rows in place; yield (pass, top row) after each merge."""
    n = len(rows)
    for k in range(1, n):
        for i in range(n - k):
            rows[i], rows[i + 1] = two_row_minmax(rows[i], rows[i + 1])
            yield k, i


def bubble_column_sort(g: Grid) -> tuple[Grid, int]:
    """Column-sort by n - 1 passes of adjacent two-row merges.

    Pass k merges row pairs (0,1), (1,2), ... stopping one pair earlier
    than the previous pass: after pass 1 the bottom row holds the column
    maxima and never moves again, after pass 2 the row above it, etc.
    Equals sort_cols on every input (per column this is bubble sort).
    Returns the sorted grid and the pass count n - 1.
    """
    rows = list(g.entries)
    for _ in _bubble_passes(rows):
        pass
    return Grid(tuple(rows)), g.rows - 1


def trace_bubble(g: Grid) -> Iterator[MergeStep]:
    """Yield a snapshot after every elementary merge of bubble_column_sort."""
    rows = list(g.entries)
    for k, i in _bubble_passes(rows):
        yield MergeStep(pass_no=k, top_row=i, grid=Grid(tuple(rows)))
