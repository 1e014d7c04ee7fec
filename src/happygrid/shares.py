"""`grid verify`'s share runner: check a run's grids in blocks, on every CPU.

cli.cmd_grid_verify imports this module when it runs and hands it the
grid check, cli._check_grid, and the block size, cli.BLOCK_CELLS.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from collections import deque
from typing import NoReturn

from .gridsort import Grid


def verify_share(args, first: int, stop: int, check_grid,
                 block_cells: int) -> tuple[int, str | None, Grid | None]:
    """Check grids first to stop - 1 of the run `args` asks for, in its blocks
    of about block_cells cells, each through check_grid.

    Returns (checked, problem, grid): stop, None, None if every grid passes;
    the first failing grid's index, its problem and the grid; or, for a
    block that fails as one but whose grids pass one by one, the index past
    the block, the message and None.
    """
    rows, cols, checked = args.rows, args.cols, first
    cells = rows * cols
    per_block = max(1, block_cells // cells)
    # each block's cells, its grids one after another in row-major order:
    # every grid over the alphabet, or one draw of the block's random cells,
    # which takes the same random() calls as a draw per grid
    if args.exhaustive:
        generated = itertools.islice(itertools.product(range(args.alphabet), repeat=cells),
                                     first, stop)
        blocks = iter(lambda: tuple(itertools.chain.from_iterable(
            itertools.islice(generated, per_block))), ())
    else:
        rng = random.Random(args.seed)
        # choices makes one random() call a cell: skip the earlier grids' calls
        deque(itertools.starmap(rng.random, itertools.repeat((), first * cells)), maxlen=0)
        values = range(args.min, args.max + 1)
        # choices takes values[floor(random() * n)], which a list of no more
        # values than a block has cells answers faster than a range, alike
        if len(values) <= block_cells:
            values = list(values)
        blocks = (rng.choices(values, k=min(per_block, stop - done) * cells)
                  for done in range(first, stop, per_block))
    for block in blocks:
        # the rows of the block's grids, stacked top to bottom
        stacked = tuple(zip(*[iter(block)] * cols))
        # The first grid alone keeps the requested width under test, the rest
        # go as one stack; a failing block is checked again grid by grid.
        count = len(stacked) // rows
        if check_grid(Grid(stacked[:rows])) is None and (
                count == 1 or check_grid(Grid(stacked[rows:]), rows) is None):
            checked += count
            continue
        for top in range(0, len(stacked), rows):
            grid = Grid(stacked[top:top + rows])
            problem = check_grid(grid)
            if problem is not None:
                return checked, problem, grid
            checked += 1
        return checked, (f"grids {checked - count} to {checked - 1} fail as one block but "
                         "pass one by one: the kernels let separate grids interact"), None
    return checked, None, None


def verify_shares(args, starts: list[int], check_grid,
                  block_cells: int) -> tuple[int, str | None, Grid | None]:
    """verify_share on each share of grids starts[i] to starts[i + 1] - 1 at once.

    The first share runs here, each other in a forked child that sends its
    result back as one JSON line over a pipe.  The first share that is not
    ok decides, as it would in one run; a worker that raised raises here.
    No child outlives this call: the later shares are killed and every
    child is reaped on every way out.
    """
    import signal

    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for first, stop in itertools.pairwise(starts[1:]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _share_worker(args, first, stop, check_grid, block_cells, write,
                              [read, *children.values()])
            os.close(write)
            children[pid] = read
        checked, problem, grid = verify_share(args, starts[0], starts[1], check_grid, block_cells)
        for (pid, read), first, stop in zip(list(children.items()), starts[1:], starts[2:]):
            if problem is not None:
                break
            with open(read, "rb", closefd=False) as pipe:
                line = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code != 0:
                raise RuntimeError(f"grid verify: the worker on grids {first} to {stop - 1} "
                                   f"exited with {code}:\n{line.decode(errors='replace')}")
            checked, problem, grid = json.loads(line)
            grid = grid and Grid.from_rows(grid)
        return checked, problem, grid
    finally:
        for pid, read in children.items():
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _share_worker(args, first: int, stop: int, check_grid, block_cells: int, write: int,
                  inherited: list[int]) -> NoReturn:
    """A forked child's whole life: close the pipe ends it inherited, check
    one share and send its result to `write` as one JSON line, or the
    traceback if it raised.  os._exit leaves the parent's buffers unflushed
    and its cleanup unrun; an interrupt exits 1 with nothing sent."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            checked, problem, grid = verify_share(args, first, stop, check_grid, block_cells)
            code, line = 0, json.dumps([checked, problem, grid and grid.entries])
        except Exception:
            import traceback
            line = traceback.format_exc()
        with open(write, "wb") as pipe:
            pipe.write((line + "\n").encode(errors="backslashreplace"))
    finally:
        os._exit(code)
