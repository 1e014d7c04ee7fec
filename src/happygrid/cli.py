"""Command-line front end: orbits, atlases, certification, grid sorting.

Exit codes: 0 success, 1 verification or certification failure, 2 usage
or parse error.  Numbers cross the boundary as decimal strings so inputs
of hundreds of digits work; `--json` emits one canonical record per
invocation (sorted keys, fixed layout) so outputs are byte-stable.

This module is the core every command loads: the exit codes, the caps,
the output writer and `main`.  The commands live in `digitcli` (traj,
classify, happy, attractors, certify) and `gridcli` (grid sort, grid
verify), the argument grammar in `cliparse` and the canonical JSON text in
`canonical`.  Without a bytecode cache every command compiles what it
imports, so each command loads only its own half of happygrid.

The names of `_HOMES` are bound here on first read (PEP 562): the command
modules' names, and each library function that perfbench wraps at
`happygrid.cli` or a test patches here.  The command modules call those
functions, and read the caps, through this module, so a wrapper or patch
set here reaches every call.
"""

from __future__ import annotations

import io
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from . import _lazy_getattr
from .canonical import dumps_canonical, render
# natural_arg parses a start as the CLI does; perfbench times it from here
from .cliparse import build_parser, natural_arg
from .limits import TooLargeError

_HOMES = {
    "certify": ("default_step_budget", "digit_reduction_threshold", "enumerate_attractors",
                "forward_invariance_scan", "three_digit_identity_check",
                "threshold_inequality_check", "validate_atlas", "verify_range"),
    "dynamics": ("classify", "step_until_repeat"),
    "gridsort": ("bubble_column_sort", "parse_grid", "sort_cols", "sort_rows", "trace_bubble"),
    "digitcli": ("_digit_system", "_drop_attractor", "_range_stage", "_stage", "_start_value",
                 "atlas_record", "cache_path", "cmd_attractors", "cmd_certify", "cmd_classify",
                 "cmd_traj", "cycle_record", "load_cached_atlas", "load_or_build_atlas",
                 "record_to_atlas", "save_atlas"),
    "gridcli": ("_check_grid", "_cpus", "_grid_report", "_json_row", "_rendered_trace",
                "_side_by_side", "cmd_grid_sort", "cmd_grid_verify"),
}
__getattr__ = _lazy_getattr(globals(), _HOMES)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

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

# `grid verify` checks grids in blocks of about this many cells, a few kernel
# calls a block (see _check_grid).  Larger blocks spread each call's fixed
# cost over more grids, which gains little past this size.  An 8x8 grid
# costs 141 us alone, 37 us in blocks of 2048 cells and 35 us in blocks of
# 8192 on one CPU, and 51, 20 and 18 us on two; a 3x3 grid 39, 7 and 7 us on
# one CPU and 20, 4 and 4 us on two (wall time less start-up over 10**4 8x8
# or 10**5 3x3 grids, medians of five subprocess runs; Python 3.11, 2-vCPU
# Xeon).
BLOCK_CELLS = 2048

# `grid verify` splits its blocks into contiguous shares, one a CPU and each
# of at least this many blocks: the first share runs in the process, each
# other in a forked child (see shares.verify_shares).  A fork and wait take
# 1-2 ms, yet two shares of a few blocks lost 3-15 ms to one share, broke
# even at 8-12 blocks in all and saved 4-5 ms at 16 and 13-18 ms at 24 (8x8
# and 3x3 grids, medians of 11 alternating subprocess runs; Python 3.11,
# 2-vCPU Xeon).
MIN_SHARE_BLOCKS = 8

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
# Its peak RSS is 286 MB, set by _rank_pack's rank table over the parsed
# grid, or 234 MB in 64-bit fields, set by parse_grid; a 1000x1000 sort over
# [-1000, 1000] peaks at 32 MB with --json, its output sharing equal entries.
MAX_BUBBLE_WORK = 11 * 10**8

# `certify --p-max` scans the threshold inequality at most this far.  The
# scan multiplies a running base**(p - 1) by the base once per p, so it grows
# about as p**2 * log(base): 10**4 takes 0.01 s for base 10 and 0.05 s for
# base 10**6, and 10**5 takes 0.9 s for base 10 (Python 3.11, 2-vCPU Xeon).
MAX_P_MAX = 10**4

# `traj` walks at most this much work, each step counting digitmap.map_units
# at p0 digits: a walk that has not repeated by then exits 2, and so does a
# --max-steps above it.  A walk that repeats maps no value twice and writes
# every step: `traj 5 --exp 200`, 222,693 steps of which 182,177 are the
# cycle (1.7*10**8 units), took 11.1 s with --json at 150 MB peak RSS, in
# process with the cap lifted, against 18.2 s when each cycle member was
# mapped once more to check the cycle (a busier host than the times below).
# Walks from 5 stopped at this cap took 0.9-1.6 s in bases 65536 and
# 10**6 + 1, which compute each digit power, 2.0-3.5 s at (10, 200),
# (10, 1000), (10, 8192), (16, 1000) and (1024, 3276), and 4.1 s at
# (1024, 100), the costliest a unit, so the longest walk admitted, which
# writes its steps, takes about ten seconds (Python 3.11, 2-vCPU Xeon, as
# subprocesses).
MAX_TRAJ_WORK = 8 * 10**7

# A start that is converted to an int holds at most this many digits; a
# base-10 start of p0 or more digits is not converted and has no limit.
# Conversion and the first step are both quadratic before CPython 3.12: in
# base 7 they take 0.11 + 0.22 s at 131,071 digits and 0.37 + 0.71 s at
# 250,000 (Python 3.11, 2-vCPU Xeon).  cli.main lifts the interpreter's
# int-string limit to this.
MAX_START_DIGITS = 250_000

# The digit weight (base - 1)**exponent, counted as exponent times the bit
# length of base - 1, holds at most this many bits.  Every digit of a value
# adds a power of that size, and the threshold scan grows quadratically with
# it.  At 2**15 bits the scan takes 0.01-0.03 s.  The second and third map
# steps from 5 take 1-9 ms in bases 3 to 1024, which read their digit powers
# from a table built once in 0.1 s or less, and 0.03-0.3 s in bases 2**16 and
# 10**6 + 1, which compute each power.  Base 10 with exponent 20,000 takes
# 0.02 s a step and exponent 100,000 0.6 s (Python 3.11, 2-vCPU Xeon).
MAX_WEIGHT_BITS = 2**15

# `grid verify` draws from value ranges of at most this many values.
# random.choices takes floor(random() * n) from a 53-bit float, so a wider
# range would be drawn unevenly and parts of it never.
MAX_DRAWN_VALUES = 2**53


class UsageError(Exception):
    """A request that cannot be served as asked: main prints it and exits 2."""


# --------------------------- canonical structured output -------------------

def _write_canonical(record: dict) -> None:
    """Write dumps_canonical(record) to stdout; every `--json` record goes out here.

    A list, tuple or iterator value is written as a list item by item, each
    item rendered at its depth, so no array is held rendered whole and a
    long trace is written as it is made.  Indenting a rendered value to its
    depth is exact: a canonical record holds no raw newline inside a string.
    """
    write = sys.stdout.write
    lead = "{"
    for key, value in sorted(record.items()):
        write(lead + "\n  " + encode_basestring_ascii(key) + ": ")
        lead = ","
        if not isinstance(value, (list, tuple, Iterator)):
            write(dumps_canonical(value)[:-1].replace("\n", "\n  "))
            continue
        opening = "["
        for item in value:
            write(opening + "\n    ")
            write(render(item, "\n    "))
            opening = ","
        write("[]" if opening == "[" else "\n  ]")
    write("{}\n" if lead == "{" else "\n}\n")


def main(argv=None) -> int:
    # Starts of up to MAX_START_DIGITS digits are converted, so lift the
    # int<->str conversion guard that far; a longer --lo or --hi is then a
    # usage error.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), MAX_START_DIGITS))
    args = build_parser().parse_args(argv)
    # Under `python -u` the text layer writes straight to the raw file and
    # drops what a short write(2) leaves, so a closed pipe can cut a record
    # short with exit 0.  A buffered layer writes the rest or raises.
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        sys.stdout = open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                          errors=sys.stdout.errors, closefd=False)
    try:
        # the parser names each command's cmd_*, bound here on first read
        code = getattr(sys.modules[__name__], args.handler)(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's final flush
        return code
    except (TooLargeError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader left early (`| head`).  Send what is still buffered to
        # devnull, so the final flush cannot raise again, and exit 1 as the
        # interpreter does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFICATION_FAILED
