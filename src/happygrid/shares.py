"""`grid verify`'s share runner: check a run's grids in blocks, on every CPU.

gridcli.cmd_grid_verify imports this module when it runs and hands `verify`
the number of grids and the grid check, gridcli._check_grid.  The block
size and the split into shares are decided here.  The check calls each grid
kernel through `cli`, so a wrapper or patch set there reaches a forked share
too.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
from collections import deque
from typing import NoReturn

from .gridsort import Grid

# `grid verify` checks grids in blocks of about this many cells, a few kernel
# calls a block (see gridcli._check_grid).  Larger blocks spread each call's
# fixed cost over more grids, which gains little past this size.  An 8x8 grid
# costs 141 us alone, 37 us in blocks of 2048 cells and 35 us in blocks of
# 8192 on one CPU, and 51, 20 and 18 us on two; a 3x3 grid 39, 7 and 7 us on
# one CPU and 20, 4 and 4 us on two (wall time less start-up over 10**4 8x8
# or 10**5 3x3 grids, medians of five subprocess runs; Python 3.11, 2-vCPU
# Xeon).
BLOCK_CELLS = 2048

# `grid verify` splits its blocks into contiguous shares, one a CPU and each
# of at least this many blocks: the first share runs in the process, each
# other in a forked child (see verify).  A fork and wait take 1-2 ms, yet two
# shares of a few blocks lost 3-15 ms to one share, broke even at 8-12 blocks
# in all and saved 4-5 ms at 16 and 13-18 ms at 24 (8x8 and 3x3 grids,
# medians of 11 alternating subprocess runs; Python 3.11, 2-vCPU Xeon).
MIN_SHARE_BLOCKS = 8


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def verify_share(args, first: int, stop: int, per_block: int,
                 check_grid) -> tuple[int, str | None, Grid | None]:
    """Check grids first to stop - 1 of the run `args` asks for, in its blocks
    of per_block grids, each through check_grid.

    Returns (checked, problem, grid): stop, None, None if every grid passes;
    the first failing grid's index, its problem and the grid; or, for a
    block that fails as one but whose grids pass one by one, the index past
    the block, the message and None.
    """
    rows, cols, checked = args.rows, args.cols, first
    cells = rows * cols
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
        if len(values) <= BLOCK_CELLS:
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


def verify(args, grids: int, check_grid) -> tuple[int, str | None, Grid | None]:
    """Check grids 0 to grids - 1 of the run `args` asks for through
    check_grid, in blocks of about BLOCK_CELLS cells split into shares that
    run at once; returns as verify_share does.

    The first share runs here, each other in a forked child that sends its
    result back as one JSON line over a pipe.  The first share that is not
    ok decides, as it would in one run; a worker that raised raises here.
    No child outlives this call: the later shares are killed and every
    child is reaped on every way out.
    """
    per_block = max(1, BLOCK_CELLS // (args.rows * args.cols))
    blocks = -(-grids // per_block)
    shares = max(1, min(_cpus(), blocks // MIN_SHARE_BLOCKS)) if hasattr(os, "fork") else 1
    # each share's first grid, and the grid count past the last share: whole
    # blocks, cut where a single share cuts them
    starts = [min(grids, blocks * i // shares * per_block) for i in range(shares + 1)]
    children: dict[int, int] = {}  # pid -> read end of its pipe, until reaped
    try:
        for first, stop in itertools.pairwise(starts[1:]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _share_worker(args, first, stop, per_block, check_grid, write,
                              [read, *children.values()])
            os.close(write)
            children[pid] = read
        checked, problem, grid = verify_share(args, starts[0], starts[1], per_block, check_grid)
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


def _share_worker(args, first: int, stop: int, per_block: int, check_grid, write: int,
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
            checked, problem, grid = verify_share(args, first, stop, per_block, check_grid)
            code, line = 0, json.dumps([checked, problem, grid and grid.entries])
        except Exception:
            import traceback
            line = traceback.format_exc()
        with open(write, "wb") as pipe:
            pipe.write((line + "\n").encode(errors="backslashreplace"))
    finally:
        os._exit(code)
