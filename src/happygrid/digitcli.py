"""The digit commands traj, classify and happy, and attractors, with the
traj work cap, the atlas record and the atlas cache.

`cli.main` runs this module's commands.  They call every library function
that `cli` binds through `cli`, where perfbench wraps and tests patch them,
and read `cli.MAX_START_DIGITS`, which `main` also reads, so a wrapper or a
patch on `cli` reaches the call made here.

This module imports from `bounds`, where the weight cap and its check live,
and never from `certify` or another command module.  `traj` needs
p0 and a step budget but no atlas, so it compiles neither `certify` nor
`certcli`; the atlas commands load `certify` when they first read
`cli.validate_atlas` or `cli.enumerate_attractors`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__, cli
from .bounds import AttractorAtlas, CertificationError, brute_bound, check_weight_size
from .digitmap import DigitSystem, map_units
from .dynamics import BudgetExceededError, Cycle
from .limits import TooLargeError, brief

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
        "p0": cli.digit_reduction_threshold(atlas.system),
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
    threshold, formula = cli.digit_reduction_threshold(system), brute_bound(system)
    if p0 != threshold:
        raise CertificationError(f"certificate p0={p0} but threshold is {threshold}")
    if bound != formula:
        raise CertificationError(f"certificate B={bound} but formula gives {formula}")
    cli.validate_atlas(atlas)
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
        temporary.write_text(cli.dumps_canonical(atlas_record(atlas)), encoding="utf-8")
        os.replace(temporary, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            temporary.unlink()
        print(f"warning: could not write atlas cache {path}: {exc}", file=sys.stderr)


def load_or_build_atlas(system: DigitSystem, cache_dir: Path) -> AttractorAtlas:
    path = cache_path(cache_dir, system)
    cached = cli.load_cached_atlas(path, system)
    if cached is not None:
        return cached
    atlas = cli.enumerate_attractors(system)
    cli.save_atlas(path, atlas)
    return atlas


# -------------------------------- commands ---------------------------------

def _digit_system(args) -> DigitSystem:
    """The digit system of --base and --exp, refused above MAX_WEIGHT_BITS before any work."""
    system = DigitSystem(args.base, args.exp)
    check_weight_size(system)
    return system


def _start_value(digits: str, system: DigitSystem) -> tuple[int, int]:
    """(steps taken, value) for a start given by its digits without leading zeros.

    A base-10 start of p0 or more digits is above B, so it is no atlas
    member, and its orbit never comes back to it: f(n) < n for every such n,
    and [0, B] is forward-invariant.  It is replaced by its image, taken from
    its digit counts in time linear in its length, and no int of it is
    built.  Any other start is converted, and refused above MAX_START_DIGITS.
    """
    if system.base == 10 and len(digits) >= cli.digit_reduction_threshold(system):
        return 1, sum(digits.count(d) * int(d) ** system.exponent for d in "123456789")
    if len(digits) > cli.MAX_START_DIGITS:
        raise TooLargeError(f"a start of {len(digits)} digits is above the limit of "
                            f"{cli.MAX_START_DIGITS} for base {system.base}")
    return 0, int(digits)


def cmd_traj(args) -> int:
    system = _digit_system(args)
    # each step counted at p0 digits, one more than a value of [0, B] has
    units = map_units(system, cli.digit_reduction_threshold(system))
    most = MAX_TRAJ_WORK // units
    limit = (f"in base {system.base} exponent {system.exponent}: {units} units of work a step, "
             f"at most {MAX_TRAJ_WORK} in all")
    if args.max_steps is not None and args.max_steps > most:
        raise TooLargeError(f"--max-steps {brief(args.max_steps)} is above the limit of {most} "
                            f"steps {limit}")
    digits = args.n
    taken, n = _start_value(digits, system)
    # the default budget counts the start's digits, not its image's
    budget = args.max_steps or cli.default_step_budget(
        n, system, digits=len(digits) if taken else None)
    walked = min(budget, most)
    traj = None
    if walked > taken:
        with contextlib.suppress(BudgetExceededError):
            traj = cli.step_until_repeat(n, system, walked - taken)
    if traj is None and walked == most:
        raise TooLargeError(f"orbit of {digits} did not repeat within {most} steps, the limit "
                            f"{limit}")
    if traj is None:
        raise cli.UsageError(f"orbit of {digits} did not repeat within {budget} steps; "
                             "raise --max-steps")
    # The steps after the start, made decimal one at a time as they are
    # written.  A start that took its first step is followed by the walk's
    # first value, and the walk's indices shift by one.
    later = map(str, itertools.islice(traj.steps, 1 - taken, None))
    if args.json:
        cli._write_canonical({
            "base": system.base,
            "exponent": system.exponent,
            "start": digits,
            "steps": itertools.chain((digits,), later),
            "entry_index": traj.entry_index + taken,
            "transient_length": traj.transient_length + taken,
            "terminal_cycle": map(str, traj.terminal.members),
            "cycle_length": traj.terminal.length,
        })
        return cli.EXIT_OK
    print(f"base {system.base} exponent {system.exponent}")
    sys.stdout.write(f"orbit: {digits}")
    sys.stdout.writelines(" " + step for step in later)
    sys.stdout.write("\n")
    print(f"transient length: {traj.transient_length + taken}")
    kind = "fixed point" if traj.terminal.is_fixed_point else f"cycle of length {traj.terminal.length}"
    print(f"terminal {kind}:", *traj.terminal.members)
    return cli.EXIT_OK


def cmd_classify(args) -> int:
    """`classify` names the attractor N reaches; `happy` only says if it is 1."""
    system = _digit_system(args)
    digits = args.n
    # n and its image reach the same attractor
    _, n = _start_value(digits, system)
    atlas = load_or_build_atlas(system, args.cache_dir)
    try:
        attractor = cli.classify(n, system, atlas)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_VERIFICATION_FAILED
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
        cli._write_canonical(record)
    elif full:
        kind = "fixed point" if attractor.is_fixed_point else f"cycle of length {attractor.length}"
        print(f"{digits} reaches {kind}:", " ".join(str(m) for m in attractor.members))
        print(f"happy: {'yes' if happy else 'no'}")
    else:
        print("yes" if happy else "no")
    return cli.EXIT_OK


def cmd_attractors(args) -> int:
    system = _digit_system(args)
    atlas = load_or_build_atlas(system, args.cache_dir)
    if args.json:
        cli._write_canonical(atlas_record(atlas))
        return cli.EXIT_OK
    print(f"base {system.base} exponent {system.exponent}")
    print(f"p0 {cli.digit_reduction_threshold(system)}  brute bound {brute_bound(system)}  "
          f"max transient {atlas.max_transient}")
    print("fixed points:", " ".join(str(x) for x in sorted(atlas.fixed_points)))
    for cycle in sorted(atlas.cycles, key=lambda c: c.members[0]):
        print(f"cycle of length {cycle.length}:", " ".join(str(m) for m in cycle.members))
    return cli.EXIT_OK
