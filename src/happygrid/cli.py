"""Command-line front end: orbits, atlases, certification, grid sorting.

Exit codes: 0 success, 1 verification or certification failure, 2 usage
or parse error.  Numbers cross the boundary as decimal strings so inputs
of hundreds of digits work; `--json` emits one canonical record per
invocation (sorted keys, fixed layout) so outputs are byte-stable.

The argument grammar (`cliparse`), the canonical JSON text (`canonical`)
and grid verify's share runner (`shares`) live in modules of their own to
keep this one small.  Without a bytecode cache every command compiles its
modules from source, and the largest compile sets the peak memory of a
short command: at 1,029 lines this module added 1.6 MB to `--version`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from operator import le
from pathlib import Path

from . import __version__
from .canonical import Json, dumps_canonical, render
from .certify import (
    AttractorAtlas,
    CertificationError,
    TooLargeError,
    brief,
    brute_bound,
    check_bound_size,
    check_range_size,
    default_step_budget,
    digit_reduction_threshold,
    enumerate_attractors,
    forward_invariance_scan,
    three_digit_identity_check,
    threshold_inequality_check,
    validate_atlas,
    verify_range,
)
# natural_arg parses a start as the CLI does; perfbench times it from here
from .cliparse import build_parser, natural_arg
from .digitmap import DigitSystem, map_units
from .dynamics import BudgetExceededError, Cycle, classify, step_until_repeat
from .gridsort import (
    Grid,
    GridParseError,
    MergeStep,
    bubble_column_sort,
    format_grid,
    format_row,
    is_cols_sorted,
    parse_grid,
    sort_cols,
    sort_rows,
    trace_bubble,
)

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


def cycle_record(cycle: Cycle) -> dict:
    return {
        "kind": "fixed_point" if cycle.is_fixed_point else "cycle",
        "length": cycle.length,
        "members": [str(m) for m in cycle.members],
    }


def atlas_record(atlas: AttractorAtlas) -> dict:
    """The atlas cache schema; also the `attractors --json` output."""
    return {
        "base": atlas.system.base,
        "exponent": atlas.system.exponent,
        "p0": digit_reduction_threshold(atlas.system),
        "brute_bound": str(brute_bound(atlas.system)),
        "max_transient": atlas.max_transient,
        "fixed_points": [str(x) for x in sorted(atlas.fixed_points)],
        "cycles": [
            [str(m) for m in c.members]
            for c in sorted(atlas.cycles, key=lambda c: c.members[0])
        ],
        "created_by": f"happygrid {__version__}",
    }


def record_to_atlas(record: dict) -> AttractorAtlas:
    """Rebuild an atlas from its cache record and check that it is complete.

    The record's p0 and B must be the ones the system gives.  Consistency
    alone is not enough: a record with an attractor left out, or with a
    wrong longest transient, passes every cheap check.  The exhaustive check
    proves that every value of [0, B] reaches the atlas and recomputes the
    longest transient, from the digit multisets of [0, B], in milliseconds
    on the systems a query uses.
    """
    system = DigitSystem(record["base"], record["exponent"])
    p0, bound = int(record["p0"]), int(record["brute_bound"])
    atlas = AttractorAtlas(
        system=system,
        max_transient=int(record["max_transient"]),
        fixed_points=frozenset(int(x) for x in record["fixed_points"]),
        cycles=frozenset(
            Cycle(tuple(int(m) for m in members)) for members in record["cycles"]
        ),
    )
    threshold, formula = digit_reduction_threshold(system), brute_bound(system)
    if p0 != threshold:
        raise CertificationError(f"certificate p0={p0} but threshold is {threshold}")
    if bound != formula:
        raise CertificationError(f"certificate B={bound} but formula gives {formula}")
    validate_atlas(atlas)
    return atlas


# ------------------------------- atlas cache -------------------------------

def cache_path(cache_dir: Path, system: DigitSystem) -> Path:
    return Path(cache_dir) / f"atlas-b{system.base}-e{system.exponent}.json"


def load_cached_atlas(path: Path, system: DigitSystem) -> AttractorAtlas | None:
    """Load and validate a cached atlas; None (with a warning) if unusable."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["base"] != system.base or record["exponent"] != system.exponent:
            raise ValueError("cache is for a different digit system")
        return record_to_atlas(record)
    except FileNotFoundError:
        return None
    # json.loads raises RecursionError on arrays nested too deep, "[" * 200000
    except (OSError, ValueError, KeyError, TypeError, RecursionError,
            CertificationError) as exc:
        print(f"warning: ignoring corrupt atlas cache {path}: {exc}", file=sys.stderr)
        return None


def save_atlas(path: Path, atlas: AttractorAtlas) -> None:
    # Write beside the cache, then rename over it: a concurrent reader sees
    # the old file or the whole new one, never a half-written one.
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary.write_text(dumps_canonical(atlas_record(atlas)), encoding="utf-8")
        os.replace(temporary, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            temporary.unlink()
        print(f"warning: could not write atlas cache {path}: {exc}", file=sys.stderr)


def load_or_build_atlas(system: DigitSystem, cache_dir: Path) -> AttractorAtlas:
    path = cache_path(cache_dir, system)
    cached = load_cached_atlas(path, system)
    if cached is not None:
        return cached
    atlas = enumerate_attractors(system)
    save_atlas(path, atlas)
    return atlas


# -------------------------------- commands ---------------------------------

def _digit_system(args) -> DigitSystem:
    """The digit system of --base and --exp, refused above MAX_WEIGHT_BITS before any work."""
    bits = args.exp * (args.base - 1).bit_length()
    if bits > MAX_WEIGHT_BITS:
        raise TooLargeError(f"the digit weight (base - 1)**exponent holds up to {bits} bits, "
                            f"above the limit of {MAX_WEIGHT_BITS}")
    return DigitSystem(args.base, args.exp)


def _start_value(digits: str, system: DigitSystem) -> tuple[int, int]:
    """(steps taken, value) for a start given by its digits without leading zeros.

    A base-10 start of p0 or more digits is above B, so it is no atlas
    member, and its orbit never comes back to it: f(n) < n for every such n,
    and [0, B] is forward-invariant.  It is replaced by its image, taken from
    its digit counts in time linear in its length, and no int of it is
    built.  Any other start is converted, and refused above MAX_START_DIGITS.
    """
    if system.base == 10 and len(digits) >= digit_reduction_threshold(system):
        return 1, sum(digits.count(d) * int(d) ** system.exponent for d in "123456789")
    if len(digits) > MAX_START_DIGITS:
        raise TooLargeError(f"a start of {len(digits)} digits is above the limit of "
                            f"{MAX_START_DIGITS} for base {system.base}")
    return 0, int(digits)


def cmd_traj(args) -> int:
    system = _digit_system(args)
    # each step counted at p0 digits, one more than a value of [0, B] has
    units = map_units(system, digit_reduction_threshold(system))
    most = MAX_TRAJ_WORK // units
    limit = (f"in base {system.base} exponent {system.exponent}: {units} units of work a step, "
             f"at most {MAX_TRAJ_WORK} in all")
    if args.max_steps is not None and args.max_steps > most:
        raise TooLargeError(f"--max-steps {brief(args.max_steps)} is above the limit of {most} "
                            f"steps {limit}")
    digits = args.n
    taken, n = _start_value(digits, system)
    # the default budget counts the start's digits, not its image's
    budget = args.max_steps or default_step_budget(
        n, system, digits=len(digits) if taken else None)
    walked = min(budget, most)
    traj = None
    if walked > taken:
        with contextlib.suppress(BudgetExceededError):
            traj = step_until_repeat(n, system, walked - taken)
    if traj is None and walked == most:
        raise TooLargeError(f"orbit of {digits} did not repeat within {most} steps, the limit "
                            f"{limit}")
    if traj is None:
        raise UsageError(f"orbit of {digits} did not repeat within {budget} steps; "
                         "raise --max-steps")
    # a start that took its first step is steps[0], and the walk's indices shift by one
    steps = [digits] + [str(v) for v in traj.steps[1 - taken:]]
    if args.json:
        _write_canonical({
            "base": system.base,
            "exponent": system.exponent,
            "start": steps[0],
            "steps": steps,
            "entry_index": traj.entry_index + taken,
            "transient_length": traj.transient_length + taken,
            "terminal_cycle": [str(m) for m in traj.terminal.members],
            "cycle_length": traj.terminal.length,
        })
        return EXIT_OK
    print(f"base {system.base} exponent {system.exponent}")
    # print writes its arguments one by one: no line is joined whole
    print("orbit:", *steps)
    print(f"transient length: {traj.transient_length + taken}")
    kind = "fixed point" if traj.terminal.is_fixed_point else f"cycle of length {traj.terminal.length}"
    print(f"terminal {kind}:", *traj.terminal.members)
    return EXIT_OK


def cmd_classify(args) -> int:
    """`classify` names the attractor N reaches; `happy` only says if it is 1."""
    system = _digit_system(args)
    digits = args.n
    # n and its image reach the same attractor
    _, n = _start_value(digits, system)
    atlas = load_or_build_atlas(system, args.cache_dir)
    try:
        attractor = classify(n, system, atlas)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    happy = attractor.members == (1,)
    full = args.command == "classify"
    if args.json:
        record = {
            "base": system.base,
            "exponent": system.exponent,
            "start": digits,
            "happy": happy,
        }
        if full:
            record["attractor"] = cycle_record(attractor)
        _write_canonical(record)
    elif full:
        kind = "fixed point" if attractor.is_fixed_point else f"cycle of length {attractor.length}"
        print(f"{digits} reaches {kind}:", " ".join(str(m) for m in attractor.members))
        print(f"happy: {'yes' if happy else 'no'}")
    else:
        print("yes" if happy else "no")
    return EXIT_OK


def cmd_attractors(args) -> int:
    system = _digit_system(args)
    atlas = load_or_build_atlas(system, args.cache_dir)
    if args.json:
        _write_canonical(atlas_record(atlas))
        return EXIT_OK
    print(f"base {system.base} exponent {system.exponent}")
    print(f"p0 {digit_reduction_threshold(system)}  brute bound {brute_bound(system)}  "
          f"max transient {atlas.max_transient}")
    print("fixed points:", " ".join(str(x) for x in sorted(atlas.fixed_points)))
    for cycle in sorted(atlas.cycles, key=lambda c: c.members[0]):
        print(f"cycle of length {cycle.length}:", " ".join(str(m) for m in cycle.members))
    return EXIT_OK


def _drop_attractor(atlas: AttractorAtlas, identifier: int) -> AttractorAtlas:
    # Test hook: deliberately truncate the atlas so verification must fail.
    return atlas._replace(
        fixed_points=frozenset(x for x in atlas.fixed_points if x != identifier),
        cycles=frozenset(c for c in atlas.cycles if c.identifier != identifier),
    )


def _stage(name: str, report, **shown) -> dict:
    """A stage record: the report's fields in order, less `reason`, `shown` overriding some."""
    stage = {"name": name, **report._asdict(), **shown}
    stage.pop("reason", None)
    return stage


def _range_stage(name: str, atlas: AttractorAtlas, lo: int, hi: int,
                 max_steps: int | None) -> dict:
    report = verify_range(atlas.system, atlas, lo, hi, max_steps=max_steps)
    # values of any size cross the boundary as decimal strings
    return _stage(name, report, lo=str(lo), hi=str(hi),
                  failing=None if report.failing is None else str(report.failing))


def cmd_certify(args) -> int:
    if args.p_max > MAX_P_MAX:
        raise TooLargeError(f"--p-max {brief(args.p_max)} is above the limit of {MAX_P_MAX}")
    system = _digit_system(args)
    p_max = max(args.p_max, digit_reduction_threshold(system))
    lo = args.lo if args.lo is not None else 0
    hi = args.hi if args.hi is not None else brute_bound(system)
    if lo > hi:
        raise UsageError(f"empty verification range [{brief(lo)}, {brief(hi)}]")
    # the bound first: with the default --hi, the range is [0, B] itself
    check_bound_size(system)
    check_range_size(system, lo, hi)

    stages = [_stage("threshold-inequality", threshold_inequality_check(system, p_max))]
    invariance = forward_invariance_scan(system)
    stages.append(_stage("forward-invariance", invariance, bound=str(invariance.bound),
                         max_image=str(invariance.max_image)))

    atlas = enumerate_attractors(system)
    stages.append({
        "name": "attractor-enumeration",
        "ok": True,
        "fixed_points": len(atlas.fixed_points),
        "cycles": len(atlas.cycles),
        "max_transient": atlas.max_transient,
        "failing": None,
    })
    if args.drop_attractor is not None:
        atlas = _drop_attractor(atlas, args.drop_attractor)

    stages.append(_range_stage("range-verification", atlas, lo, hi, args.max_steps))

    if system == DigitSystem(10, 2):
        stages.append(_stage("three-digit-identity", three_digit_identity_check()))
        stages.append(_range_stage("two-digit-brute-force", atlas, 0, 99, args.max_steps))

    ok = all(stage["ok"] for stage in stages)
    if args.json:
        _write_canonical({
            "base": system.base,
            "exponent": system.exponent,
            "ok": ok,
            "stages": stages,
        })
    else:
        print(f"base {system.base} exponent {system.exponent}")
        for stage in stages:
            details = "  ".join(
                f"{key}={value}" for key, value in stage.items()
                if key not in ("name", "ok", "failing") and value is not None
            )
            verdict = "ok" if stage["ok"] else f"FAIL at {stage['failing']}"
            print(f"{stage['name']}: {verdict}  {details}")
        print("certified" if ok else "CERTIFICATION FAILED")
    if not ok:
        first = next(stage for stage in stages if not stage["ok"])
        print(f"error: stage {first['name']} failed at {first['failing']}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    return EXIT_OK


def cmd_grid_sort(args) -> int:
    if args.trace and args.mode != "bubble":
        raise UsageError(f"--trace shows the merges of --mode bubble, not of --mode {args.mode}")
    try:
        grid = parse_grid(sys.stdin.read() if args.file == "-"
                          else Path(args.file).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, GridParseError) as exc:
        raise UsageError(exc) from None

    record: dict = {"mode": args.mode, "input": grid.entries}
    steps = ()
    if args.mode == "rows":
        outputs = [sort_rows(grid)]
    elif args.mode == "cols":
        outputs = [sort_cols(grid)]
    elif args.mode == "both":
        rows_sorted = sort_rows(grid)
        outputs = [rows_sorted, sort_cols(rows_sorted)]
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
        sorted_grid, record["pass_count"] = bubble_column_sort(grid)
        outputs = [sorted_grid]
        if args.trace:
            steps = _rendered_trace(grid, _json_row if args.json else format_row)
            record["trace"] = ({"pass": step.pass_no, "top_row": step.top_row, "grid": rows}
                               for step, rows in steps)
    record["output"] = outputs[-1].entries

    if args.json:
        _write_canonical(record)
        return EXIT_OK
    for step, rows in steps:
        print(f"# pass {step.pass_no} merged rows {step.top_row + 1},{step.top_row + 2}")
        print("\n".join(rows))
        print()
    # each grid row by row, a blank line between grids
    for i, g in enumerate(outputs):
        if i:
            sys.stdout.write("\n")
        sys.stdout.writelines(format_row(row) + "\n" for row in g.entries)
    return EXIT_OK


def _json_row(row) -> Json:
    # a row of a trace snapshot is written four levels deep: in the record,
    # the trace list, the snapshot and its grid list
    return Json(dumps_canonical(row)[:-1].replace("\n", "\n        "))


def _rendered_trace(grid: Grid, render_row) -> Iterator[tuple[MergeStep, list]]:
    """Each step of trace_bubble(grid) with its grid's rows rendered by render_row.

    A merge changes only its two rows, so one list of row texts serves the
    whole trace: each step renders those two again and keeps the rest.  The
    list is the same object at every step, to be written before the next.
    """
    texts = list(map(render_row, grid.entries))
    for step in trace_bubble(grid):
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
    final = sort_cols(_side_by_side(sort_rows(stacked).entries, rows))
    inside = (True,) * (stacked.cols - 1) + (False,)  # the pairs within a segment
    if not all(all(itertools.compress(map(le, row, itertools.islice(row, 1, None)),
                                      itertools.cycle(inside))) for row in final.entries):
        return "rows unsorted after row+column sort"
    if not is_cols_sorted(final):
        return "columns unsorted after column sort"
    wide = _side_by_side(stacked.entries, rows)
    bubbled, passes = bubble_column_sort(wide)
    if bubbled != sort_cols(wide):
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
        raise UsageError(f"empty value range [{brief(args.min)}, {brief(args.max)}]")
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

    per_block = max(1, BLOCK_CELLS // cells)
    blocks = -(-grids // per_block)
    shares = max(1, min(_cpus(), blocks // MIN_SHARE_BLOCKS)) if hasattr(os, "fork") else 1
    # each share's first grid, and the grid count past the last share: whole
    # blocks, cut where a single share cuts them
    starts = [min(grids, blocks * i // shares * per_block) for i in range(shares + 1)]
    from .shares import verify_share, verify_shares

    checked, problem, grid = (verify_share(args, 0, grids, _check_grid, BLOCK_CELLS)
                              if shares == 1
                              else verify_shares(args, starts, _check_grid, BLOCK_CELLS))
    if grid is None and problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
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
        _write_canonical({
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
    return EXIT_OK if grid is None else EXIT_VERIFICATION_FAILED


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
        code = globals()[args.handler](args)  # the parser names each command's cmd_*
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
