"""Independent oracles and the output checker behind `fail_ratio`.

Nothing here imports happygrid.  Every expected answer comes from a
different algorithm than the one the program uses:

* base-b digits come from schoolbook long division of the decimal
  string, not from big-integer divmod;
* a huge decimal start takes its first step from its digit counts;
* orbits are walked with a plain visited dict until the first repeat;
* an atlas comes from the block recurrence f(m*b + d) = f(m) + d^e over
  [0, B] followed by cycle colouring and a reverse breadth-first search
  for the longest transient;
* grid sorts use `sorted()` per row and per column.

A check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

# The classical base-10 squares atlas, stated independently of any code.
SQUARES_ATLAS = {
    "p0": 4,
    "brute_bound": 999,
    "fixed_points": [0, 1],
    "cycles": [[4, 16, 37, 58, 89, 145, 42, 20]],
}


def digits_in_base(decimal: str, base: int) -> list[int]:
    """Base-`base` digits of a decimal string, least significant first."""
    if base == 10:
        return [int(c) for c in reversed(decimal.lstrip("0"))]
    number = [int(c) for c in decimal.lstrip("0")]
    digits = []
    while number:
        quotient, rem = [], 0
        for d in number:
            rem = rem * 10 + d
            q = rem // base
            rem -= q * base
            if quotient or q:
                quotient.append(q)
        digits.append(rem)
        number = quotient
    return digits


def step(decimal: str, base: int, exp: int) -> int:
    """f(n) for a decimal n; base 10 takes it from the digit counts."""
    if base == 10:
        return sum(count * int(c) ** exp for c, count in Counter(decimal).items())
    return sum(d**exp for d in digits_in_base(decimal, base))


def canonical(cycle: list[int]) -> list[int]:
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]


@dataclass(frozen=True)
class Orbit:
    steps: tuple[int, ...]   # distinct values up to the first repeat
    entry_index: int
    cycle: tuple[int, ...]   # canonical: starts at its minimum


@lru_cache(maxsize=None)
def orbit(decimal: str, base: int, exp: int) -> Orbit:
    # A start of more than 1000 digits exceeds every value of its orbit
    # (f(n) <= (b-1)^e * digits < n), so it is kept as its string and never
    # parsed; a str never equals an int, so it cannot be "seen" again.
    start = int(decimal) if len(decimal) <= 1000 else decimal
    steps = [start]
    seen = {start: 0}
    value = step(decimal, base, exp)
    while value not in seen:
        seen[value] = len(steps)
        steps.append(value)
        value = step(str(value), base, exp)
    entry = seen[value]
    return Orbit(tuple(steps), entry, tuple(canonical(steps[entry:])))


def threshold(base: int, exp: int) -> tuple[int, int]:
    """(p0, B): least p0 with (b-1)^e * p < b^(p-1), and the brute bound."""
    weight = (base - 1) ** exp
    p0 = 2
    while weight * p0 >= base ** (p0 - 1):
        p0 += 1
    return p0, max(base ** (p0 - 1) - 1, weight * (p0 - 1))


@dataclass(frozen=True)
class Atlas:
    base: int
    exp: int
    p0: int
    bound: int
    max_image: int
    max_transient: int
    fixed_points: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]   # canonical, sorted by minimum


@lru_cache(maxsize=None)
def atlas(base: int, exp: int) -> Atlas:
    p0, bound = threshold(base, exp)
    powers = [d**exp for d in range(base)]
    image = [0]
    while len(image) <= bound:
        image = [x + p for x in image[: bound // base + 1] for p in powers]
    image = image[: bound + 1]
    max_image = max(image)
    if max_image > bound:
        raise AssertionError(f"oracle: [0, {bound}] is not forward invariant")

    state = bytearray(bound + 1)   # 0 unseen, 1 on the current path, 2 done
    found = []
    for start in range(bound + 1):
        path, x = [], start
        while not state[x]:
            state[x] = 1
            path.append(x)
            x = image[x]
        if state[x] == 1:
            found.append(tuple(canonical(path[path.index(x):])))
        for v in path:
            state[v] = 2

    preimages: list[list[int]] = [[] for _ in range(bound + 1)]
    for n, m in enumerate(image):
        preimages[m].append(n)
    on_cycle = {m for c in found for m in c}
    depth, frontier = 0, list(on_cycle)
    seen = set(on_cycle)
    while frontier:
        nxt = [p for m in frontier for p in preimages[m] if p not in seen]
        seen.update(nxt)
        if nxt:
            depth += 1
        frontier = nxt
    found.sort()
    result = Atlas(
        base, exp, p0, bound, max_image, depth,
        fixed_points=tuple(c[0] for c in found if len(c) == 1),
        cycles=tuple(c for c in found if len(c) > 1),
    )
    if (base, exp) == (10, 2) and (
            (p0, bound, list(result.fixed_points), [list(c) for c in result.cycles])
            != tuple(SQUARES_ATLAS.values())):
        raise AssertionError("oracle disagrees with the known base-10 squares atlas")
    return result


# ------------------------------ output checks ------------------------------

def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _attractor_record(cycle: tuple[int, ...]) -> dict:
    return {
        "kind": "fixed_point" if len(cycle) == 1 else "cycle",
        "length": len(cycle),
        "members": _strs(cycle),
    }


def expect_classify(start: str, base: int, exp: int) -> dict:
    cycle = orbit(start, base, exp).cycle
    return {"base": base, "exponent": exp, "start": start,
            "attractor": _attractor_record(cycle), "happy": cycle == (1,)}


def expect_happy(start: str, base: int, exp: int) -> dict:
    return {"base": base, "exponent": exp, "start": start,
            "happy": orbit(start, base, exp).cycle == (1,)}


def expect_traj(start: str, base: int, exp: int) -> dict:
    o = orbit(start, base, exp)
    return {
        "base": base, "exponent": exp, "start": start,
        "steps": [start] + _strs(o.steps[1:]),
        "entry_index": o.entry_index, "transient_length": o.entry_index,
        "terminal_cycle": _strs(o.cycle), "cycle_length": len(o.cycle),
    }


def expect_attractors(base: int, exp: int) -> dict:
    """The `attractors --json` record, less its `created_by` stamp."""
    a = atlas(base, exp)
    return {
        "base": base, "exponent": exp, "p0": a.p0,
        "brute_bound": str(a.bound), "max_transient": a.max_transient,
        "fixed_points": _strs(a.fixed_points),
        "cycles": [_strs(c) for c in a.cycles],
    }


def check_certify(record: dict, base: int, exp: int) -> str | None:
    a = atlas(base, exp)
    if record.get("ok") is not True:
        return "certify did not report ok: true"
    stages = {s.get("name"): s for s in record.get("stages", [])}
    if not all(s.get("ok") is True for s in stages.values()):
        return "a certification stage is not ok"
    want = {
        "threshold-inequality": {"p0": a.p0},
        "forward-invariance": {"bound": str(a.bound), "checked": a.bound + 1,
                               "max_image": str(a.max_image)},
        "attractor-enumeration": {"fixed_points": len(a.fixed_points),
                                  "cycles": len(a.cycles),
                                  "max_transient": a.max_transient},
        "range-verification": {"lo": "0", "hi": str(a.bound),
                               "checked": a.bound + 1,
                               "max_transient": a.max_transient},
    }
    if (base, exp) == (10, 2):
        want["three-digit-identity"] = {"checked": 900}
        want["two-digit-brute-force"] = {"checked": 100}
    for name, fields in want.items():
        stage = stages.get(name)
        if stage is None:
            return f"stage {name} missing"
        for key, value in fields.items():
            if stage.get(key) != value:
                return f"stage {name}: {key}={stage.get(key)!r}, expected {value!r}"
    return None


def sort_rows(grid: list[list[int]]) -> list[list[int]]:
    return [sorted(row) for row in grid]


def sort_cols(grid: list[list[int]]) -> list[list[int]]:
    cols = [sorted(row[j] for row in grid) for j in range(len(grid[0]))]
    return [[col[i] for col in cols] for i in range(len(grid))]


def check_grid_sort(record: dict, grid: list[list[int]], mode: str,
                    trace: bool) -> str | None:
    if record.get("input") != grid:
        return "input grid echoed wrongly"
    if mode == "both":
        rows = sort_rows(grid)
        if record.get("rows_sorted") != rows:
            return "rows_sorted differs from per-row sorted()"
        if record.get("output") != sort_cols(rows):
            return "output differs from per-row then per-column sorted()"
        return None
    # bubble
    cols = sort_cols(grid)
    if record.get("output") != cols:
        return "bubble output differs from per-column sorted()"
    n = len(grid)
    if record.get("pass_count") != n - 1:
        return f"pass_count {record.get('pass_count')}, expected {n - 1}"
    if not trace:
        return None
    steps = record.get("trace", [])
    order = [(k, i) for k in range(1, n) for i in range(n - k)]
    if [(s.get("pass"), s.get("top_row")) for s in steps] != order:
        return "trace merge order is not the n-1 bubble passes"
    for s in steps:
        # after pass k the bottom k rows hold their final, column-sorted values
        k, i = s["pass"], s["top_row"]
        if i == n - k - 1 and s["grid"][n - k:] != cols[n - k:]:
            return f"after pass {k} the bottom {k} rows are not final"
    return None


def same(record: dict, expected: dict) -> str | None:
    if record == expected:
        return None
    keys = sorted(k for k in set(record) | set(expected)
                  if record.get(k) != expected.get(k))
    return f"output differs from the oracle in {keys}"


def check_output(op, exit_code: int, stdout: str, stderr: str) -> str | None:
    """None if `op` exited 0, warned only if its cache was truncated, and
    printed the output its oracle expects."""
    if exit_code != 0:
        return f"exit code {exit_code}: {stderr.strip()[-200:]}"
    if op.warns and "warning" not in stderr:
        return "no warning for a corrupt atlas cache"
    if not op.warns and "warning" in stderr:
        # e.g. a cache written by an earlier op that cannot be read back
        return f"unexpected warning: {stderr.strip()[-200:]}"
    try:
        record = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON record"
    if not isinstance(record, dict):
        return "stdout is not a JSON object"
    return op.check(record)
