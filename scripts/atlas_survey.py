#!/usr/bin/env python3
"""Survey attractor atlases across a range of digit systems.

For every (base, exponent) pair in the requested ranges, certify the
system and tabulate its constants and attractors.  Useful for spotting
how the attractor structure changes with the exponent, e.g. the single
8-cycle of (10, 2) versus the four cycles of (10, 3).
"""

import argparse
import time

from happygrid import (
    DigitSystem,
    brute_bound,
    digit_reduction_threshold,
    enumerate_attractors,
)


def survey(max_base: int, max_exp: int, bound_cap: int) -> None:
    header = f"{'base':>4} {'exp':>3} {'p0':>3} {'B':>8} {'maxt':>4}  attractors"
    print(header)
    print("-" * len(header))
    for base in range(2, max_base + 1):
        for exponent in range(1, max_exp + 1):
            system = DigitSystem(base, exponent)
            bound = brute_bound(system)
            if bound > bound_cap:
                print(f"{base:>4} {exponent:>3}     (skipped, B={bound} "
                      f"above --bound-cap)")
                continue
            t0 = time.perf_counter()
            atlas = enumerate_attractors(system)
            elapsed = time.perf_counter() - t0
            parts = [f"fp={sorted(atlas.fixed_points)}"]
            for cycle in sorted(atlas.cycles, key=lambda c: c.members[0]):
                parts.append(f"cycle{list(cycle.members)}")
            p0 = digit_reduction_threshold(system)
            print(f"{base:>4} {exponent:>3} {p0:>3} {bound:>8} "
                  f"{atlas.max_transient:>4}  {'  '.join(parts)}"
                  f"  [{elapsed * 1e3:.0f} ms]")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-base", type=int, default=12)
    parser.add_argument("--max-exp", type=int, default=3)
    parser.add_argument("--bound-cap", type=int, default=2_000_000,
                        help="skip systems whose brute bound exceeds this")
    args = parser.parse_args()
    survey(args.max_base, args.max_exp, args.bound_cap)


if __name__ == "__main__":
    main()
