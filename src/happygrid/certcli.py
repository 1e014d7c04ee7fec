"""The certify command: every certification stage for one digit system.

`cli.main` runs `cmd_certify`.  Only this command runs every stage and
builds the stage records, so they are compiled apart from `digitcli`,
which the other digit commands load and this one never imports; the
weight cap and every size check it reads live in `bounds`.  As in
`digitcli`, every library function that `cli` binds is called through
`cli`, where perfbench wraps and tests patch it.
"""

from __future__ import annotations

import sys

from . import cli
from .bounds import (AttractorAtlas, brute_bound, check_bound_size, check_range_size,
                     check_weight_size)
from .digitmap import DigitSystem
from .limits import TooLargeError, brief

# `certify --p-max` scans the threshold inequality at most this far.  The
# scan multiplies a running base**(p - 1) by the base once per p, so it grows
# about as p**2 * log(base): 10**4 takes 0.01 s for base 10 and 0.05 s for
# base 10**6, and 10**5 takes 0.9 s for base 10 (Python 3.11, 2-vCPU Xeon).
MAX_P_MAX = 10**4


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
    report = cli.verify_range(atlas.system, atlas, lo, hi, max_steps=max_steps)
    # values of any size cross the boundary as decimal strings
    return _stage(name, report, lo=str(lo), hi=str(hi),
                  failing=None if report.failing is None else str(report.failing))


def cmd_certify(args) -> int:
    if args.p_max > MAX_P_MAX:
        raise TooLargeError(f"--p-max {brief(args.p_max)} is above the limit of {MAX_P_MAX}")
    system = DigitSystem(args.base, args.exp)
    check_weight_size(system)
    p_max = max(args.p_max, cli.digit_reduction_threshold(system))
    lo = args.lo if args.lo is not None else 0
    hi = args.hi if args.hi is not None else brute_bound(system)
    if lo > hi:
        raise cli.UsageError(f"empty verification range [{brief(lo)}, {brief(hi)}]")
    # the bound first: with the default --hi, the range is [0, B] itself
    check_bound_size(system)
    check_range_size(system, lo, hi)

    stages = [_stage("threshold-inequality", cli.threshold_inequality_check(system, p_max))]
    invariance = cli.forward_invariance_scan(system)
    stages.append(_stage("forward-invariance", invariance, bound=str(invariance.bound),
                         max_image=str(invariance.max_image)))

    atlas = cli.enumerate_attractors(system)
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
        stages.append(_stage("three-digit-identity", cli.three_digit_identity_check()))
        stages.append(_range_stage("two-digit-brute-force", atlas, 0, 99, args.max_steps))

    ok = all(stage["ok"] for stage in stages)
    if args.json:
        cli._write_canonical({
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
        return cli.EXIT_VERIFICATION_FAILED
    return cli.EXIT_OK
