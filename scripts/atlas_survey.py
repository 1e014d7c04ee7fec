#!/usr/bin/env python3
"""Survey certified attractor atlases across a range of digit systems.

For every (base, exponent) pair in the requested ranges, enumerate the
system's atlas, check it with the independent checker, and tabulate its
constants and attractors.  Useful for spotting how the attractor structure
changes with the exponent, e.g. the single 8-cycle of (10, 2) versus the
four cycles of (10, 3).  A system above the library's size limits is
listed with its refusal; the survey exits 1 if any atlas fails its check.
"""

import argparse
import sys
import time

from happygrid import (
    CertificationError,
    DigitSystem,
    TooLargeError,
    brute_bound,
    digit_reduction_threshold,
    enumerate_attractors,
    validate_atlas,
)


def survey(max_base: int, max_exp: int) -> int:
    header = f"{'base':>4} {'exp':>3} {'p0':>3} {'B':>8} {'maxt':>4}  attractors"
    print(header)
    print("-" * len(header))
    status = 0
    for base in range(2, max_base + 1):
        for exponent in range(1, max_exp + 1):
            system = DigitSystem(base, exponent)
            row = (f"{base:>4} {exponent:>3} {digit_reduction_threshold(system):>3} "
                   f"{brute_bound(system):>8}")
            t0 = time.perf_counter()
            try:
                atlas = enumerate_attractors(system)
                validate_atlas(atlas)
            except TooLargeError as exc:
                print(f"{row}     refused: {exc}")
                continue
            except CertificationError as exc:
                print(f"{row}     NOT CERTIFIED: {exc}")
                status = 1
                continue
            elapsed = time.perf_counter() - t0
            parts = [f"fp={sorted(atlas.fixed_points)}"]
            for cycle in sorted(atlas.cycles, key=lambda c: c.members[0]):
                parts.append(f"cycle{list(cycle.members)}")
            print(f"{row} {atlas.max_transient:>4}  {'  '.join(parts)}"
                  f"  [certified, {elapsed * 1e3:.0f} ms]")
    return status


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-base", type=int, default=12)
    parser.add_argument("--max-exp", type=int, default=3)
    args = parser.parse_args()
    sys.exit(survey(args.max_base, args.max_exp))


if __name__ == "__main__":
    main()
