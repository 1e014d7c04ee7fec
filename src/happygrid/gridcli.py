"""The grid commands: grid sort and grid verify, with the grid check that
grid verify's share runner calls.

`cli` binds this module's names and runs its commands.  Every cap, every
grid kernel perfbench wraps at `happygrid.cli` and every name a test
patches there is read through `cli`, so a wrapper or a patch on `cli`
reaches the call made here, in a forked share too.
"""

from __future__ import annotations

import itertools
import os
import sys
from collections.abc import Iterator
from operator import le
from pathlib import Path

from . import cli
from .canonical import Json
from .gridsort import Grid, GridParseError, MergeStep, format_grid, format_row, is_cols_sorted
from .limits import TooLargeError, brief


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
        if args.trace and cells > cli.MAX_TRACE_CELLS:
            raise TooLargeError(f"a traced bubble sort of a {brief(grid.rows)}x{brief(grid.cols)} "
                                f"grid holds {brief(cells)} snapshot cells, above the limit of "
                                f"{cli.MAX_TRACE_CELLS}")
        work = pairs * (64 + grid.cols)
        if work > cli.MAX_BUBBLE_WORK:
            raise TooLargeError(f"a bubble sort of a {brief(grid.rows)}x{brief(grid.cols)} grid "
                                f"counts {brief(work)} units of work ({brief(pairs)} merges "
                                f"of 64 units plus one a column), above the limit of "
                                f"{cli.MAX_BUBBLE_WORK}")
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


def _json_row(row) -> Json:
    # a row of a trace snapshot is written four levels deep: in the record,
    # the trace list, the snapshot and its grid list
    return Json(cli.dumps_canonical(row)[:-1].replace("\n", "\n        "))


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
        grids = args.alphabet ** min(cells, cli.MAX_EXHAUSTIVE_GRIDS.bit_length())
        if grids > cli.MAX_EXHAUSTIVE_GRIDS:
            raise TooLargeError(f"{brief(args.alphabet)}^{brief(cells)} grids of shape {shape} "
                                f"exceed the limit of {cli.MAX_EXHAUSTIVE_GRIDS}")
    elif args.min > args.max:
        raise cli.UsageError(f"empty value range [{brief(args.min)}, {brief(args.max)}]")
    elif args.max - args.min + 1 > cli.MAX_DRAWN_VALUES:
        raise TooLargeError(f"value range [{brief(args.min)}, {brief(args.max)}] holds "
                            f"{brief(args.max - args.min + 1)} values, above the limit of "
                            f"{cli.MAX_DRAWN_VALUES}")
    else:
        grids = args.trials
    counted = grids * cells * -(-args.rows // 16)
    if counted > cli.MAX_GRID_CELLS:
        raise TooLargeError(f"{brief(grids)} grids of shape {shape} count {brief(counted)} "
                            f"cells, above the limit of {cli.MAX_GRID_CELLS} (a cell counts once "
                            "per 16 rows)")
    if cells > cli.MAX_CELLS_PER_GRID:
        raise TooLargeError(f"a grid of shape {shape} holds {brief(cells)} cells, "
                            f"above the limit of {cli.MAX_CELLS_PER_GRID} per grid")

    per_block = max(1, cli.BLOCK_CELLS // cells)
    blocks = -(-grids // per_block)
    shares = (max(1, min(cli._cpus(), blocks // cli.MIN_SHARE_BLOCKS))
              if hasattr(os, "fork") else 1)
    # each share's first grid, and the grid count past the last share: whole
    # blocks, cut where a single share cuts them
    starts = [min(grids, blocks * i // shares * per_block) for i in range(shares + 1)]
    from .shares import verify_share, verify_shares

    checked, problem, grid = (verify_share(args, 0, grids, _check_grid, cli.BLOCK_CELLS)
                              if shares == 1
                              else verify_shares(args, starts, _check_grid, cli.BLOCK_CELLS))
    if grid is None and problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return cli.EXIT_VERIFICATION_FAILED
    return _grid_report(args, checked, grid, problem)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


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
