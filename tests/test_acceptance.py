"""End-to-end acceptance checks, one test per release criterion.

Each test prints one `acceptance: <name>: PASS/FAIL` line (visible with
pytest -s or on failure) and enforces its stated time or exactness
budget.  Expected values were computed beforehand with independent naive
oracles and frozen here.
"""

import itertools
import json
import random
import time

import pytest

from happygrid import (
    DigitSystem,
    Grid,
    bubble_column_sort,
    classify,
    digit_count,
    digit_power_sum,
    enumerate_attractors,
    is_rows_sorted,
    sort_cols,
    sort_rows,
    step_until_repeat,
    threshold_inequality_check,
    two_row_minmax,
    validate_atlas,
)
from happygrid.cli import main

from conftest import EIGHT_CYCLE

SQUARES = DigitSystem(10, 2)
ATTRACTOR_SET = frozenset({0, 1, *EIGHT_CYCLE})

T = Grid.from_rows([[1, 8, 3, 4, 8], [0, 9, 2, 7, 14], [20, 3, 6, 7, 7]])
T_ROWS = Grid.from_rows([[1, 3, 4, 8, 8], [0, 2, 7, 9, 14], [3, 6, 7, 7, 20]])
T_BOTH = Grid.from_rows([[0, 2, 4, 7, 8], [1, 3, 7, 8, 14], [3, 6, 7, 9, 20]])


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance: {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def best_time(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def grid_corpora():
    exhaustive_3x3 = [
        Grid((combo[0:3], combo[3:6], combo[6:9]))
        for combo in itertools.product((0, 1, 2), repeat=9)
    ]
    exhaustive_2x3 = [
        Grid((combo[0:3], combo[3:6]))
        for combo in itertools.product((0, 1, 2, 3), repeat=6)
    ]
    rng = random.Random(20260810)
    randoms = []
    for _ in range(10_000):
        rows, cols = rng.randint(1, 20), rng.randint(1, 20)
        values = rng.choices(range(-1000, 1001), k=rows * cols)
        randoms.append(
            Grid(tuple(tuple(values[i * cols:(i + 1) * cols]) for i in range(rows)))
        )
    return exhaustive_3x3, exhaustive_2x3, randoms


def test_grid_worked_example_exact_and_fast():
    ok = (
        sort_rows(T) == T_ROWS
        and sort_cols(T_ROWS) == T_BOTH
        and is_rows_sorted(T_BOTH)
    )
    elapsed = best_time(lambda: is_rows_sorted(sort_cols(sort_rows(T))))
    report(
        "grid worked example (rows then cols, bit-exact)",
        ok and elapsed < 0.001,
        f"{elapsed * 1e6:.0f} us",
    )


def test_map_values_and_eight_cycle():
    values_ok = (
        digit_power_sum(0, SQUARES) == 0
        and digit_power_sum(12, SQUARES) == 5
        and digit_power_sum(308, SQUARES) == 73
    )
    traj = step_until_repeat(4, SQUARES, 100)
    orbit_ok = traj.steps == EIGHT_CYCLE and traj.terminal.members == EIGHT_CYCLE

    def run():
        digit_power_sum(308, SQUARES)
        step_until_repeat(4, SQUARES, 100)

    elapsed = best_time(run)
    report(
        "map values and the 8-cycle orbit of 4",
        values_ok and orbit_ok and elapsed < 0.001,
        f"{elapsed * 1e6:.0f} us",
    )


def test_brute_force_first_hundred():
    def run():
        for n in range(100):
            value = n
            while value not in ATTRACTOR_SET:
                value = digit_power_sum(value, SQUARES)

    run()  # warm, and would hang/fail loudly if the set were wrong
    elapsed = best_time(run)
    report(
        "every n in [0,99] reaches the attractor set",
        elapsed < 0.010,
        f"100 values, {elapsed * 1e3:.2f} ms",
    )


def test_three_digit_descent_and_identity():
    ok = True
    for a in range(1, 10):
        for b in range(10):
            for c in range(10):
                n = 100 * a + 10 * b + c
                fn = digit_power_sum(n, SQUARES)
                identity = a * (100 - a) + b * (10 - b) + c - c * c
                if fn > n - 1 or n - fn != identity:
                    ok = False
    report("three-digit descent f(n) <= n-1 and its identity (900 values)", ok)


def test_threshold_inequality_with_big_integers():
    scan_ok = all(81 * p < 10 ** (p - 1) for p in range(4, 101))
    minimal_ok = not (81 * 3 < 10**2)
    report(
        "81p < 10^(p-1) for p in [4,100], failing at p=3",
        scan_ok and minimal_ok,
    )


def test_threshold_scan_keeps_a_running_power():
    # one multiplication by the base per p: recomputing base^(p-1) for
    # every p took about 13 s here
    t0 = time.perf_counter()
    result = threshold_inequality_check(DigitSystem(10**6, 1), 10**4)
    elapsed = time.perf_counter() - t0
    report("threshold scan for base 10^6 up to p = 10^4 in under 3 s",
           result.ok and elapsed < 3.0, f"{elapsed:.2f}s")


def test_certified_atlas_for_squares():
    t0 = time.perf_counter()
    atlas = enumerate_attractors(SQUARES)
    elapsed = time.perf_counter() - t0
    cycles = sorted(atlas.cycles, key=lambda c: c.members[0])
    ok = (
        atlas.fixed_points == frozenset({0, 1})
        and len(cycles) == 1
        and cycles[0].length == 8
        and cycles[0].members[0] == 4
    )
    report(
        "certified atlas for base 10 squares",
        ok and elapsed < 0.050,
        f"{elapsed * 1e3:.1f} ms",
    )


def test_certify_fifth_powers_end_to_end(capsys):
    # B = 10^6 - 1; the per-value walk took ~36 s here
    t0 = time.perf_counter()
    code = main(["certify", "--exp", "5", "--json"])
    elapsed = time.perf_counter() - t0
    record = json.loads(capsys.readouterr().out)
    stages = {stage["name"]: stage for stage in record["stages"]}
    ok = (
        code == 0 and record["ok"]
        and stages["forward-invariance"]["max_image"] == "354294"
        and (stages["attractor-enumeration"]["fixed_points"],
             stages["attractor-enumeration"]["cycles"],
             stages["attractor-enumeration"]["max_transient"]) == (8, 9, 57)
        and stages["range-verification"]["checked"] == 10**6
        and stages["range-verification"]["max_transient"] == 57
    )
    report("certify base 10 fifth powers end to end", ok and elapsed < 15.0,
           f"{elapsed:.2f} s")


def test_exhaustive_validation_of_fifth_powers():
    atlas = enumerate_attractors(DigitSystem(10, 5))
    t0 = time.perf_counter()
    validate_atlas(atlas)  # raises on any violation
    elapsed = time.perf_counter() - t0
    report("exhaustive validation of the base 10 fifth-power atlas", elapsed < 15.0,
           f"{elapsed:.2f} s")


def test_grid_theorem_on_exhaustive_and_random_corpora(grid_corpora):
    exhaustive_3x3, exhaustive_2x3, randoms = grid_corpora
    t0 = time.perf_counter()
    bad = 0
    for corpus in (exhaustive_3x3, exhaustive_2x3, randoms):
        for grid in corpus:
            if not is_rows_sorted(sort_cols(sort_rows(grid))):
                bad += 1
    elapsed = time.perf_counter() - t0
    total = len(exhaustive_3x3) + len(exhaustive_2x3) + len(randoms)
    report(
        "row-sortedness survives column sorting on all corpora",
        bad == 0 and elapsed < 5.0,
        f"{total} grids, {elapsed:.2f} s",
    )


def test_bubble_pass_contract_on_corpora(grid_corpora):
    exhaustive_3x3, exhaustive_2x3, randoms = grid_corpora
    bad = 0
    for corpus in (exhaustive_3x3, exhaustive_2x3, randoms):
        for grid in corpus:
            bubbled, passes = bubble_column_sort(grid)
            if bubbled != sort_cols(grid) or passes != grid.rows - 1:
                bad += 1
                continue
            # one explicit first pass: the bottom row must now hold the maxima
            rows = list(grid.entries)
            for i in range(grid.rows - 1):
                rows[i], rows[i + 1] = two_row_minmax(rows[i], rows[i + 1])
            if rows[-1] != tuple(map(max, zip(*grid.entries))):
                bad += 1
    report("bubble passes equal column sort, n-1 passes, maxima fixed", bad == 0)


def test_digit_count_reduction_on_large_numbers(squares_atlas):
    rng = random.Random(98127)
    starts = []
    for _ in range(1000):
        length = rng.randint(50, 500)
        digits = [rng.choice("123456789")] + rng.choices("0123456789", k=length - 1)
        starts.append(int("".join(digits)))
    t0 = time.perf_counter()
    ok = True
    for n in starts:
        if digit_count(digit_power_sum(n, SQUARES), SQUARES) >= digit_count(n, SQUARES):
            ok = False
        attractor = classify(n, SQUARES, squares_atlas)
        if attractor not in squares_atlas.attractors:
            ok = False
    elapsed = time.perf_counter() - t0
    report(
        "50-500 digit starts: digit count drops, orbits certified",
        ok and elapsed < 2.0,
        f"1000 starts, {elapsed:.2f} s",
    )


def test_power_sum_on_two_hundred_thousand_digits():
    # the per-digit loop needs ~18 s here: one division of a huge value per digit
    digits = 200_000
    exact = digit_power_sum(7 * ((10**digits - 1) // 9), SQUARES) == 49 * digits  # 77...7
    start = random.Random(200_000).randrange(10 ** (digits - 1), 10**digits)
    t0 = time.perf_counter()
    digit_power_sum(start, SQUARES)
    elapsed = time.perf_counter() - t0
    report(
        "digit power sum of a 2e5-digit value",
        exact and elapsed < 3.0,
        f"{elapsed:.2f} s",
    )


def test_cube_map_atlas_matches_independent_oracle(cubes, cubes_atlas):
    # oracle: plain iteration with a visited list, no range restriction
    fixed, cycles = set(), set()
    for start in range(2188):
        seen = []
        value = start
        while value not in seen:
            seen.append(value)
            value = digit_power_sum(value, cubes)
        cycle = seen[seen.index(value):]
        pivot = cycle.index(min(cycle))
        members = tuple(cycle[pivot:] + cycle[:pivot])
        (fixed.add(members[0]) if len(members) == 1 else cycles.add(members))
    oracle_ok = (
        cubes_atlas.fixed_points == fixed
        and {c.members for c in cubes_atlas.cycles} == cycles
    )
    # derived once from the oracle, frozen for release
    frozen_ok = (
        fixed == {0, 1, 153, 370, 371, 407}
        and cycles == {
            (55, 250, 133),
            (136, 244),
            (160, 217, 352),
            (919, 1459),
        }
    )
    report("cube-map atlas equals the naive oracle", oracle_ok and frozen_ok)


# Fixed points above 1 of the base-10 e-th-power map, the e-th-power
# perfect digital invariants: those of e digits are the narcissistic numbers
# of OEIS A005188; 4150, 4151 and 194979 are the fifth-power ones of other
# lengths (Grundman & Teeple, Generalized happy numbers, Fibonacci Quarterly
# 39, 2001).  The e = 3 values are checked by the cube test above.
LITERATURE_FIXED_POINTS = {
    4: {1634, 8208, 9474},
    5: {4150, 4151, 54748, 92727, 93084, 194979},
    6: {548834},
}


def test_atlases_match_literature_constants():
    atlases = {e: enumerate_attractors(DigitSystem(10, e)) for e in LITERATURE_FIXED_POINTS}
    fixed_ok = all(atlases[e].fixed_points == {0, 1} | expected
                   for e, expected in LITERATURE_FIXED_POINTS.items())
    # the fourth-power cycles: 2178 <-> 6514 and one 7-cycle through 1138
    cycles_ok = sorted(c.length for c in atlases[4].cycles) == [2, 7]
    report("(10,4)-(10,6) atlases match OEIS A005188 and Grundman & Teeple",
           fixed_ok and cycles_ok)


def test_attractors_json_is_byte_identical(capsys, tmp_path):
    argv = ["attractors", "--base", "10", "--exp", "2", "--json",
            "--cache-dir", str(tmp_path)]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    canonical = json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n"
    report(
        "attractors --json twice is byte-identical",
        first == second and first == canonical,
    )


def test_cli_exit_code_contract(capsys, tmp_path):
    ok_code = main(["attractors", "--cache-dir", str(tmp_path)])
    fail_code = main(["certify", "--base", "10", "--exp", "2",
                      "--drop-attractor", "4"])
    bad_file = tmp_path / "bad.txt"
    bad_file.write_text("1 2\n3 x\n", encoding="utf-8")
    usage_code = main(["grid", "sort", str(bad_file)])
    capsys.readouterr()  # drain
    report(
        "exit codes 0 / 1 / 2",
        (ok_code, fail_code, usage_code) == (0, 1, 2),
        f"got {(ok_code, fail_code, usage_code)}",
    )
