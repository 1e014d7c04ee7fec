#!/usr/bin/env python3
"""Walk through both constructions on their worked examples.

Shows the 3x5 grid pipeline (rows sorted, then columns, rows still
sorted), the base-10 squares atlas with its certification constants, and
a 300-digit start whose orbit collapses in a handful of steps.
"""

import random

from happygrid import (
    DigitSystem,
    Grid,
    brute_bound,
    default_step_budget,
    digit_count,
    digit_reduction_threshold,
    enumerate_attractors,
    format_grid,
    is_rows_sorted,
    sort_cols,
    sort_rows,
    step_until_repeat,
    trace_bubble,
)


def grid_walkthrough() -> None:
    grid = Grid.from_rows([[1, 8, 3, 4, 8], [0, 9, 2, 7, 14], [20, 3, 6, 7, 7]])
    rows_sorted = sort_rows(grid)
    both = sort_cols(rows_sorted)
    print("input grid:", format_grid(grid), sep="\n")
    print("\nrows sorted:", format_grid(rows_sorted), sep="\n")
    print("\ncolumns sorted afterwards:", format_grid(both), sep="\n")
    print("\nrows still sorted:", is_rows_sorted(both))
    print("\nbubble passes on the row-sorted grid:")
    for step in trace_bubble(rows_sorted):
        print(f"  pass {step.pass_no}, rows {step.top_row + 1}-{step.top_row + 2}:",
              "  ".join(str(row) for row in step.grid.entries))


def squares_walkthrough() -> None:
    squares = DigitSystem(10, 2)
    atlas = enumerate_attractors(squares)
    print(f"\nbase 10, squares: p0={digit_reduction_threshold(squares)}, "
          f"brute bound={brute_bound(squares)}, max transient={atlas.max_transient}")
    for attractor in atlas.attractors:
        kind = "fixed point" if attractor.is_fixed_point else f"{attractor.length}-cycle"
        print(f"  {kind}: {list(attractor.members)}")

    rng = random.Random(7)
    start = int("".join([rng.choice("123456789")] + rng.choices("0123456789", k=299)))
    traj = step_until_repeat(start, squares, default_step_budget(start, squares))
    print(f"\norbit of a 300-digit start ({digit_count(start, squares)} digits):")
    for value in traj.steps[:6]:
        print(f"  {value}")
    print(f"  ... reaches {list(traj.terminal.members)} "
          f"after a transient of {traj.transient_length} steps")

    ones = (10**60 - 1) // 9
    print(f"\nrepunit with 60 ones maps straight to "
          f"{step_until_repeat(ones, squares, 1000).steps[1]}")


if __name__ == "__main__":
    grid_walkthrough()
    squares_walkthrough()
