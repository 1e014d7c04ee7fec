"""The grid commands: grid sort and grid verify, with their caps and the
grid check that grid verify's share runner calls.

`cli.main` runs this module's commands.  They call every grid kernel that
`cli` binds through `cli`, where perfbench wraps and tests patch them, so
a wrapper or a patch on `cli` reaches the call made here, in a forked
share too, and write their records with `cli`'s canonical JSON text.  No
other command module is imported.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Iterator
from operator import le
from pathlib import Path

from . import cli
from .gridsort import Grid, GridParseError, MergeStep, format_grid, format_row, is_cols_sorted
from .limits import TooLargeError, brief

# `grid verify --exhaustive` checks at most this many grids.  The 3^9 3x3
# grids take 0.22 s on one CPU and 0.16 s on two, and the 10**6 1x2 grids
# over 1000 values 2.0-2.3 s on one CPU and 1.0-1.1 s on two (Python 3.11,
# 2-vCPU Xeon, as subprocesses).
MAX_EXHAUSTIVE_GRIDS = 10**6

# `grid verify` checks at most this many cells in all, a cell counting once
# per started block of 16 rows of its grid, since the bubble passes merge a
# column of n rows n(n-1)/2 times.  The costliest shapes per counted cell
# are a single tall column and single cells: the largest column allowed,
# 5649x1, one grid and so one share, takes 5.6-6.2 s on one CPU or two
# (8.7-10.5 s on a busier host), and 2*10**6 1x1 grids, checked in blocks,
# 2.4-3.1 s on one CPU and 1.3-1.7 s on two (Python 3.11, 2-vCPU Xeon, as
# subprocesses), so the largest request allowed takes about ten seconds.
MAX_GRID_CELLS = 2 * 10**6

# `grid verify` checks no grid of more cells than this.  Memory grows with
# the largest grid, not with the cells in all: the verify path holds several
# tuple copies of a grid, and single rows cost most, since each column
# becomes a tuple of its own (a single row is never packed).  One 1x(10**5)
# grid peaks at 36 MB, 38 MB when its entries are distinct, against 16 MB
# for a 1x1 grid, about 205-225 bytes a cell, and 1x(5*10**5) at 120 MB,
# 130 MB with distinct entries (Python 3.11, 2-vCPU Xeon).
MAX_CELLS_PER_GRID = 10**5

# `grid verify` draws from value ranges of at most this many values.
# random.choices takes floor(random() * n) from a 53-bit float, so a wider
# range would be drawn unevenly and parts of it never.
MAX_DRAWN_VALUES = 2**53

# `grid sort --mode bubble --trace` prints at most this many snapshot cells,
# n(n-1)/2 snapshots of n x p cells, which bound its output size: an 80x80
# trace's 2.02*10**7 cells write 89 MB as text and 317 MB as JSON, and a
# 180x180 trace, 5.2*10**8 cells, would write about 8 GB of JSON.  Each
# snapshot is written as it is made, from row texts kept across the trace
# (see _rendered_trace), so memory stays flat and time stays small: the
# 80x80 trace takes 0.25-0.27 s as text and 0.41-0.42 s as JSON into
# /dev/null, at 16 MB peak RSS (Python 3.11, 2-vCPU Xeon, as subprocesses).
MAX_TRACE_CELLS = 25 * 10**6

# `grid sort --mode bubble` runs at most this much work, its n(n-1)/2 merges
# counting 64 each plus one per column: neither merges nor cells alone track
# the time.  A merge of packed rows costs 0.4-0.9 us at 1-30 columns, and at
# 1000 columns 4.4 us of 16-bit fields, 5.4 us of 32-bit ones and 11.3 us of
# 64-bit ones (entries spanning more than 2**31 in fewer than
# gridsort.RANK_ROWS rows), so a unit takes 4-11 ns.  The 5649x1 grid
# `grid verify` allows counts 1.04*10**9 units and takes 8.5-11.2 s, the
# largest column allowed, 5818x1, 9.6-11.8 s, and a 1000x1000 grid
# 5.3*10**8 units and 2.9 s over [-1000, 1000], 7.9 s over +-2**40 by 32-bit
# ranks (7.7 s in 64-bit fields); the costliest allowed, 1438x1000 over
# +-2**40, takes 10.2-11.6 s by ranks, 15.0-16.2 s in 64-bit fields,
# parsing and printing included (Python 3.11, 2-vCPU Xeon, as subprocesses).
# Its peak RSS is 286 MB, set by gridsort._rank_pack's rank table over the parsed
# grid, or 141 MB in 64-bit fields; a 1000x1000 sort over [-1000, 1000] peaks
# at 32 MB with --json, its input and output sharing equal entries.
MAX_BUBBLE_WORK = 11 * 10**8


def cmd_grid_sort(args) -> int:
    if args.trace and args.mode != "bubble":
        raise cli.UsageError("--trace shows the merges of --mode bubble, not of "
                             f"--mode {args.mode}")
    try:
        grid = cli.parse_grid(sys.stdin.read() if args.file == "-"
                              else Path(args.file).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, GridParseError) as exc:
        raise cli.UsageError(exc) from None

    record: dict = {"mode": args.mode, "input": grid.entries}
    steps = ()
    if args.mode == "rows":
        outputs = [cli.sort_rows(grid)]
    elif args.mode == "cols":
        outputs = [cli.sort_cols(grid)]
    elif args.mode == "both":
        rows_sorted = cli.sort_rows(grid)
        outputs = [rows_sorted, cli.sort_cols(rows_sorted)]
        record["rows_sorted"] = rows_sorted.entries
    else:
        pairs = grid.rows * (grid.rows - 1) // 2
        cells = pairs * grid.rows * grid.cols
        if args.trace and cells > MAX_TRACE_CELLS:
            raise TooLargeError(f"a traced bubble sort of a {brief(grid.rows)}x{brief(grid.cols)} "
                                f"grid holds {brief(cells)} snapshot cells, above the limit of "
                                f"{MAX_TRACE_CELLS}")
        work = pairs * (64 + grid.cols)
        if work > MAX_BUBBLE_WORK:
            raise TooLargeError(f"a bubble sort of a {brief(grid.rows)}x{brief(grid.cols)} grid "
                                f"counts {brief(work)} units of work ({brief(pairs)} merges "
                                f"of 64 units plus one a column), above the limit of "
                                f"{MAX_BUBBLE_WORK}")
        # the trace key sorts last, so the output and pass count come first,
        # from an untraced sort that costs a few ms even at 80x80
        sorted_grid, record["pass_count"] = cli.bubble_column_sort(grid)
        outputs = [sorted_grid]
        if args.trace:
            steps = _rendered_trace(grid, _json_row if args.json else format_row)
            record["trace"] = ({"pass": step.pass_no, "top_row": step.top_row, "grid": rows}
                               for step, rows in steps)
    record["output"] = outputs[-1].entries

    if args.json:
        cli._write_canonical(record)
        return cli.EXIT_OK
    for step, rows in steps:
        print(f"# pass {step.pass_no} merged rows {step.top_row + 1},{step.top_row + 2}")
        print("\n".join(rows))
        print()
    # each grid row by row, a blank line between grids
    for i, g in enumerate(outputs):
        if i:
            sys.stdout.write("\n")
        sys.stdout.writelines(format_row(row) + "\n" for row in g.entries)
    return cli.EXIT_OK


def _json_row(row) -> cli.Json:
    # a row of a trace snapshot is written four levels deep: in the record,
    # the trace list, the snapshot and its grid list
    return cli.Json(cli.dumps_canonical(row)[:-1].replace("\n", "\n        "))


def _rendered_trace(grid: Grid, render_row) -> Iterator[tuple[MergeStep, list]]:
    """Each step of trace_bubble(grid) with its grid's rows rendered by render_row.

    A merge changes only its two rows, so one list of row texts serves the
    whole trace: each step renders those two again and keeps the rest.  The
    list is the same object at every step, to be written before the next.
    """
    texts = list(map(render_row, grid.entries))
    for step in cli.trace_bubble(grid):
        i = step.top_row
        texts[i:i + 2] = map(render_row, step.grid.entries[i:i + 2])
        yield step, texts


def _check_grid(stacked: Grid, rows: int | None = None) -> str | None:
    """Grids of `rows` rows each, stacked top to bottom, against the theorem
    and the bubble contract; the first check that fails, or None if clean.

    Rows never interact in a row sort, so the grids' rows are sorted stacked.
    Columns never interact in a column sort or a merge, so those run on the
    grids laid side by side, and each row of the column-sorted wide grid is
    checked pair by pair inside each grid's segment, never across one.  By
    default the stack is one grid, and one grid laid side by side is itself.
    """
    rows = rows or stacked.rows
    final = cli.sort_cols(_side_by_side(cli.sort_rows(stacked).entries, rows))
    inside = (True,) * (stacked.cols - 1) + (False,)  # the pairs within a segment
    if not all(all(itertools.compress(map(le, row, itertools.islice(row, 1, None)),
                                      itertools.cycle(inside))) for row in final.entries):
        return "rows unsorted after row+column sort"
    if not is_cols_sorted(final):
        return "columns unsorted after column sort"
    wide = _side_by_side(stacked.entries, rows)
    bubbled, passes = cli.bubble_column_sort(wide)
    if bubbled != cli.sort_cols(wide):
        return "bubble pass result differs from column sort"
    if passes != rows - 1:
        return f"expected {rows - 1} passes, ran {passes}"
    return None


def cmd_grid_verify(args) -> int:
    cells = args.rows * args.cols
    shape = f"{brief(args.rows)}x{brief(args.cols)}"
    if args.exhaustive:
        # An alphabet of 2 or more exceeds the cap once cells reaches the
        # cap's bit length, so the power is never taken further than that.
        grids = args.alphabet ** min(cells, MAX_EXHAUSTIVE_GRIDS.bit_length())
        if grids > MAX_EXHAUSTIVE_GRIDS:
            raise TooLargeError(f"{brief(args.alphabet)}^{brief(cells)} grids of shape {shape} "
                                f"exceed the limit of {MAX_EXHAUSTIVE_GRIDS}")
    elif args.min > args.max:
        raise cli.UsageError(f"empty value range [{brief(args.min)}, {brief(args.max)}]")
    elif args.max - args.min + 1 > MAX_DRAWN_VALUES:
        raise TooLargeError(f"value range [{brief(args.min)}, {brief(args.max)}] holds "
                            f"{brief(args.max - args.min + 1)} values, above the limit of "
                            f"{MAX_DRAWN_VALUES}")
    else:
        grids = args.trials
    counted = grids * cells * -(-args.rows // 16)
    if counted > MAX_GRID_CELLS:
        raise TooLargeError(f"{brief(grids)} grids of shape {shape} count {brief(counted)} "
                            f"cells, above the limit of {MAX_GRID_CELLS} (a cell counts once "
                            "per 16 rows)")
    if cells > MAX_CELLS_PER_GRID:
        raise TooLargeError(f"a grid of shape {shape} holds {brief(cells)} cells, "
                            f"above the limit of {MAX_CELLS_PER_GRID} per grid")

    from . import shares  # only grid verify loads the share runner

    checked, problem, grid = shares.verify(args, grids, _check_grid)
    if grid is None and problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return cli.EXIT_VERIFICATION_FAILED
    return _grid_report(args, checked, grid, problem)


def _side_by_side(stacked: tuple, rows: int) -> Grid:
    # row i of the wide grid holds row i of every grid, left to right
    return Grid(tuple(tuple(itertools.chain.from_iterable(stacked[i::rows]))
                      for i in range(rows)))


def _grid_report(args, checked: int, grid: Grid | None = None,
                 problem: str | None = None) -> int:
    # A counterexample (grid) would disprove the theorem; dump a reproducer.
    if args.json:
        cli._write_canonical({
            "ok": grid is None,
            "checked": checked,
            "rows": args.rows,
            "cols": args.cols,
            "mode": "exhaustive" if args.exhaustive else "random",
            "seed": None if args.exhaustive else args.seed,
            "counterexample": None if grid is None else {
                "index": checked,
                "problem": problem,
                "grid": grid.entries,
            },
        })
    elif grid is None:
        print(f"verified {checked} grids of shape {args.rows}x{args.cols}: ok")
    else:
        seed_note = "" if args.exhaustive else f" (seed {args.seed})"
        print(f"counterexample at trial {checked}{seed_note}: {problem}", file=sys.stderr)
        print(format_grid(grid), file=sys.stderr)
    return cli.EXIT_OK if grid is None else cli.EXIT_VERIFICATION_FAILED
