import ast
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import happygrid
import happygrid.bounds as bounds
import happygrid.certcli as certcli
import happygrid.cli as cli
import happygrid.digitcli as digitcli
import happygrid.dynamics as dynamics
import happygrid.gridcli as gridcli
import happygrid.gridsort as gridsort
from happygrid.bounds import default_step_budget, digit_reduction_threshold
from happygrid.certify import enumerate_attractors
from happygrid.cli import main
from happygrid.digitmap import DigitSystem, map_units
from happygrid.dynamics import classify, step_until_repeat
from happygrid.gridsort import Grid, format_grid
from happygrid.shares import BLOCK_CELLS

WORKED_GRID = "1 8 3 4 8\n0 9 2 7 14\n20 3 6 7 7\n"
WORKED_BOTH = (
    "1 3 4 8 8\n0 2 7 9 14\n3 6 7 7 20\n"
    "\n"
    "0 2 4 7 8\n1 3 7 8 14\n3 6 7 9 20\n"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_grid_file(path: Path, side: int, seed: int) -> Path:
    """A side x side grid of entries in [-1000, 1000], written to path."""
    rng = random.Random(seed)
    path.write_text("\n".join(" ".join(str(rng.randint(-1000, 1000)) for _ in range(side))
                              for _ in range(side)) + "\n", encoding="utf-8")
    return path


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(-10**5000, 10**5000) | st.floats() | st.text())
json_records = st.dictionaries(st.text(), st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40))


@contextlib.contextmanager
def long_int_strings():
    # cli.main lifts the int-to-str digit limit before anything is rendered
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(max(limit, 10_000))
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@given(record=json_records)
def test_dumps_canonical_is_the_stdlib_layout(record):
    # keys with non-ASCII and control characters, bools, 5,000-digit ints,
    # floats and empty containers at any depth
    with long_int_strings():
        expected = json.dumps(record, sort_keys=True, indent=2) + "\n"
        assert cli.dumps_canonical(record) == expected


@given(record=json_records, as_iterators=st.booleans())
def test_write_canonical_writes_dumps_canonical(record, as_iterators):
    # list, tuple and iterator values are written item by item, the empty
    # record and empty arrays included
    with long_int_strings():
        expected = cli.dumps_canonical(record)
        if as_iterators:
            record = {key: iter(value) if isinstance(value, (list, tuple)) else value
                      for key, value in record.items()}
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._write_canonical(record)
    assert out.getvalue() == expected


def test_dumps_canonical_edge_values():
    record = {"é\n\x00": [[], {}, (), [1, True, None], [-0.0, float("nan"), float("inf")]],
              "ints": {1: [2, 3], 4: {"x": []}}, "": {"": ""}}
    assert cli.dumps_canonical(record) == json.dumps(record, sort_keys=True, indent=2) + "\n"


def test_traj_cycle(capsys):
    code, out, _ = run_cli(capsys, "traj", "4")
    assert code == 0
    assert "orbit: 4 16 37 58 89 145 42 20" in out
    assert "transient length: 0" in out
    assert "terminal cycle of length 8: 4 16 37 58 89 145 42 20" in out


def test_traj_fixed_point_json(capsys):
    code, out, _ = run_cli(capsys, "traj", "0", "--json")
    assert code == 0
    assert out == canonical(out)
    record = json.loads(out)
    assert record["steps"] == ["0"]
    assert record["terminal_cycle"] == ["0"]
    assert record["cycle_length"] == 1
    assert record["transient_length"] == 0


def test_traj_huge_start(capsys):
    code, out, _ = run_cli(capsys, "traj", "1" * 500, "--json")
    assert code == 0
    record = json.loads(out)
    assert record["steps"][1] == "500"  # a 500-digit repunit maps to 500
    # 500 -> 25 -> 29 -> 85 -> 89 lands in the 8-cycle
    assert record["terminal_cycle"][0] == "4"
    assert record["cycle_length"] == 8


def test_traj_budget_too_small(capsys):
    code, _, err = run_cli(capsys, "traj", "308", "--max-steps", "2")
    assert code == 2
    assert "raise --max-steps" in err


def test_traj_work_cap(capsys, monkeypatch):
    # squares count 4 digits of 4 units a step; the orbit of 4 repeats at step 8
    assert map_units(DigitSystem(10, 2), 4) == 16
    monkeypatch.setattr(digitcli, "MAX_TRAJ_WORK", 16 * 8)
    assert run_cli(capsys, "traj", "4", "--max-steps", "8")[0] == 0
    monkeypatch.setattr(digitcli, "MAX_TRAJ_WORK", 16 * 8 - 1)
    limit = ("the limit in base 10 exponent 2: 16 units of work a step, "
             "at most 127 in all\n")
    assert run_cli(capsys, "traj", "4") == (
        2, "", "error: orbit of 4 did not repeat within 7 steps, " + limit)
    assert run_cli(capsys, "traj", "4", "--max-steps", "7") == (
        2, "", "error: orbit of 4 did not repeat within 7 steps, " + limit)
    # an explicit budget above the cap is refused before any step
    monkeypatch.setattr(cli, "step_until_repeat", None)
    assert run_cli(capsys, "traj", "4", "--max-steps", "8") == (
        2, "", "error: --max-steps 8 is above the limit of 7 steps in base 10 exponent 2: "
               "16 units of work a step, at most 127 in all\n")


def test_traj_work_cap_witnesses(capsys):
    # admitted: 35,031 steps from 5 for (10, 100), 202,020 allowed
    assert digitcli.MAX_TRAJ_WORK // map_units(DigitSystem(10, 100), 99) == 202_020
    code, out, _ = run_cli(capsys, "traj", "5", "--exp", "100", "--json")
    assert code == 0 and len(json.loads(out)["steps"]) == 35_031
    # refused: base 65536 computes each digit power, about 0.2 s a step at
    # exponent 2048, and its orbit of 5 does not repeat within the 6 steps allowed
    code, out, err = run_cli(capsys, "traj", "5", "--base", "65536", "--exp", "2048")
    assert (code, out) == (2, "")
    assert err.startswith("error: orbit of 5 did not repeat within 6 steps, the limit")
    code, _, err = run_cli(capsys, "traj", "5", "--exp", "200", "--max-steps", "1000000")
    assert code == 2 and "above the limit of 102564 steps" in err


def test_classify_and_happy(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "classify", "12", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "12 reaches cycle of length 8: 4 16 37 58 89 145 42 20" in out
    assert "happy: no" in out
    code, out, _ = run_cli(capsys, "happy", "7", "--cache-dir", str(tmp_path))
    assert code == 0 and out == "yes\n"
    code, out, _ = run_cli(capsys, "happy", "4", "--cache-dir", str(tmp_path))
    assert code == 0 and out == "no\n"
    code, out, _ = run_cli(capsys, "happy", "13", "--json", "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["happy"] is True


def test_start_echoes_argv_digits(capsys, tmp_path):
    cache = ("--cache-dir", str(tmp_path))
    code, out, _ = run_cli(capsys, "classify", "0012", "--json", *cache)
    assert code == 0 and json.loads(out)["start"] == "12"
    code, out, _ = run_cli(capsys, "happy", "000", "--json", *cache)
    assert code == 0 and json.loads(out)["start"] == "0"
    code, out, _ = run_cli(capsys, "traj", "0012", "--json")
    assert code == 0 and json.loads(out)["steps"][0] == "12"
    code, out, _ = run_cli(capsys, "classify", "0012", *cache)
    assert code == 0 and out.startswith("12 reaches cycle of length 8:")


# an attractor member of p0 - 1 digits, the longest a member may have
LONGEST_MEMBER = {2: "145", 3: "1459", 4: "13139", 5: "194979"}


def _starts(exponent: int) -> list[str]:
    # around the length p0 from which a base-10 start takes its first step
    # from its digit counts, with members, zeros and leading zeros
    p0 = digit_reduction_threshold(DigitSystem(10, exponent))
    return ["0", "000", "0001634", "1", "4", "1634", "4150", LONGEST_MEMBER[exponent],
            "0" + LONGEST_MEMBER[exponent], "9" * (p0 - 1), "9" * p0,
            "1" * p0, "0" + "9" * (p0 - 1), "31415926535"[:p0 - 1], "27182818284"[:p0],
            "1" * 153, "123456789" * 55 + "12345"]


def _expected_output(command: str, as_json: bool, text: str, system: DigitSystem,
                     atlas) -> str:
    """What the CLI prints for a start, rendered from the library on int(text)."""
    digits, n = text.lstrip("0") or "0", int(text)
    if command == "traj":
        traj = step_until_repeat(n, system, default_step_budget(n, system))
        steps = [digits] + [str(v) for v in traj.steps[1:]]
        cycle = traj.terminal
        if as_json:
            return cli.dumps_canonical({
                "base": 10, "exponent": system.exponent, "start": digits, "steps": steps,
                "entry_index": traj.entry_index, "transient_length": traj.transient_length,
                "terminal_cycle": [str(m) for m in cycle.members],
                "cycle_length": cycle.length,
            })
        kind = "fixed point" if cycle.is_fixed_point else f"cycle of length {cycle.length}"
        return (f"base 10 exponent {system.exponent}\norbit: {' '.join(steps)}\n"
                f"transient length: {traj.transient_length}\n"
                f"terminal {kind}: {' '.join(str(m) for m in cycle.members)}\n")
    cycle = classify(n, system, atlas)
    happy = cycle.members == (1,)
    if as_json:
        record = {"base": 10, "exponent": system.exponent, "start": digits, "happy": happy}
        if command == "classify":
            record["attractor"] = digitcli.cycle_record(cycle)
        return cli.dumps_canonical(record)
    if command == "happy":
        return "yes\n" if happy else "no\n"
    kind = "fixed point" if cycle.is_fixed_point else f"cycle of length {cycle.length}"
    return (f"{digits} reaches {kind}: {' '.join(str(m) for m in cycle.members)}\n"
            f"happy: {'yes' if happy else 'no'}\n")


@pytest.mark.parametrize("exponent", [2, 3, 4, 5])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", ["classify", "happy", "traj"])
def test_long_starts_print_what_their_values_give(capsys, tmp_path_factory, command,
                                                  as_json, exponent):
    # a base-10 start of p0 or more digits is replaced by its image before
    # the walk; the output is that of the walk from the start itself
    system = DigitSystem(10, exponent)
    atlas = enumerate_attractors(system)
    cache = tmp_path_factory.getbasetemp() / f"long-starts-e{exponent}"
    for text in _starts(exponent):
        argv = [command, text, "--exp", str(exponent)] + ["--json"] * as_json
        if command != "traj":
            argv += ["--cache-dir", str(cache)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == _expected_output(command, as_json, text, system, atlas), text


@pytest.mark.parametrize("command", ["classify", "happy", "traj"])
def test_long_base10_start_builds_no_big_int(capsys, tmp_path, monkeypatch, command):
    # the first step of a 10**5-digit start comes from its digit counts, so
    # the map only ever sees small values
    sizes = []

    def recorded(n, sys):
        sizes.append(n.bit_length())
        return digit_power_sum(n, sys)

    def walked(n, system, max_steps):
        budgets.append(max_steps)
        return step_until_repeat(n, system, max_steps)

    digit_power_sum, budgets = dynamics.digit_power_sum, []
    monkeypatch.setattr(dynamics, "digit_power_sum", recorded)
    monkeypatch.setattr(cli, "step_until_repeat", walked)
    start = "7" + "0123456789" * 10**4
    argv = [command, start, "--json"]
    if command != "traj":
        argv += ["--cache-dir", str(tmp_path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and json.loads(out)["start"] == start
    assert sizes and max(sizes) <= 64
    # the default budget counts the start's digits, less the step taken
    assert budgets == ([10 * len(start) + 999 - 1] if command == "traj" else [])


@pytest.mark.parametrize("budget", ["1", "2"])
def test_long_start_budget_message(capsys, budget):
    start = "9" * 300
    code, out, err = run_cli(capsys, "traj", "000" + start, "--max-steps", budget)
    assert code == 2 and out == ""
    assert err == f"error: orbit of {start} did not repeat within {budget} steps; raise --max-steps\n"


def test_converted_starts_are_capped(capsys, tmp_path, monkeypatch):
    # a start that is not base 10, or shorter than p0, goes through int(),
    # which is quadratic in its digits before CPython 3.12
    start = "1" * (cli.MAX_START_DIGITS + 1)
    for command in ("classify", "happy", "traj"):
        argv = [command, start, "--base", "7", "--cache-dir", str(tmp_path)]
        code, out, err = run_cli(capsys, *argv[:-2] if command == "traj" else argv)
        assert code == 2 and out == ""
        assert err == (f"error: a start of {len(start)} digits is above the limit of "
                       f"{cli.MAX_START_DIGITS} for base 7\n")
    assert list(tmp_path.iterdir()) == []  # refused before the atlas is built
    # base-10 starts of p0 or more digits are never converted: no cap
    code, out, _ = run_cli(capsys, "happy", start, "--cache-dir", str(tmp_path))
    assert code == 0 and out == "no\n"  # 250001 -> 30 -> 9 -> 81 -> 65 -> 61 -> 37
    monkeypatch.setattr(cli, "MAX_START_DIGITS", 40)
    code, out, _ = run_cli(capsys, "traj", "1" * 40, "--base", "7", "--json")
    image = str(dynamics.digit_power_sum(int("1" * 40), DigitSystem(7, 2)))
    assert code == 0 and json.loads(out)["steps"][:2] == ["1" * 40, image]
    code, _, err = run_cli(capsys, "traj", "1" * 41, "--base", "7", "--json")
    assert code == 2 and "above the limit of 40 for base 7" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-string limit before Python 3.11")
def test_range_option_above_the_int_string_limit(capsys):
    # cli.main lifts the limit to MAX_START_DIGITS; a longer --hi is a usage error
    with pytest.raises(SystemExit) as exc_info:
        main(["certify", "--hi", "1" * (cli.MAX_START_DIGITS + 1)])
    assert exc_info.value.code == 2
    assert "argument --hi: invalid natural_arg value" in capsys.readouterr().err


def test_attractors_output_and_cache(capsys, tmp_path, monkeypatch):
    code, first, _ = run_cli(
        capsys, "attractors", "--base", "10", "--exp", "2",
        "--json", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert first == canonical(first)
    record = json.loads(first)
    assert record["fixed_points"] == ["0", "1"]
    assert record["cycles"] == [["4", "16", "37", "58", "89", "145", "42", "20"]]
    assert record["p0"] == 4
    assert record["brute_bound"] == "999"

    cache_file = tmp_path / "atlas-b10-e2.json"
    assert cache_file.exists()

    # the second run must not recompute: poison enumeration and rely on the cache
    def boom(system):
        raise AssertionError("cache was ignored")

    monkeypatch.setattr(cli, "enumerate_attractors", boom)
    code, second, _ = run_cli(
        capsys, "attractors", "--base", "10", "--exp", "2",
        "--json", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    assert second == first


def test_attractors_recovers_from_corrupt_cache(capsys, tmp_path):
    cache_file = tmp_path / "atlas-b10-e2.json"
    cache_file.write_text("{ this is not json", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "attractors", "--json", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert "warning" in err and "corrupt" in err
    assert json.loads(out)["fixed_points"] == ["0", "1"]
    json.loads(cache_file.read_text(encoding="utf-8"))  # rewritten clean


@pytest.mark.parametrize("command", [["classify", "4"], ["attractors", "--json"]],
                         ids=["classify", "attractors"])
def test_cache_nested_too_deep_is_rebuilt(capsys, tmp_path, command):
    # json.loads gives up on this file with RecursionError, not ValueError
    cache = ("--cache-dir", str(tmp_path))
    code, honest, _ = run_cli(capsys, *command, *cache)
    assert code == 0
    cache_file = tmp_path / "atlas-b10-e2.json"
    good = cache_file.read_text(encoding="utf-8")
    cache_file.write_text("[" * 200000, encoding="utf-8")
    code, out, err = run_cli(capsys, *command, *cache)
    assert code == 0 and out == honest
    assert err.startswith(f"warning: ignoring corrupt atlas cache {cache_file}: ")
    assert "recursion" in err and err.count("\n") == 1
    assert cache_file.read_text(encoding="utf-8") == good


def test_attractors_rejects_tampered_cache(capsys, tmp_path):
    code, honest, _ = run_cli(
        capsys, "attractors", "--json", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    cache_file = tmp_path / "atlas-b10-e2.json"
    record = json.loads(cache_file.read_text(encoding="utf-8"))
    record["fixed_points"] = ["0", "7"]  # 7 is not a fixed point
    cache_file.write_text(json.dumps(record), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "attractors", "--json", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert "warning" in err
    assert out == honest


@pytest.mark.parametrize("field,value,reason", [
    ("cycles", [], "2 does not reach the atlas: no atlas member within 1029 steps"),
    ("max_transient", 0, "max transient 11 != certificate 0"),
    ("p0", 5, "certificate p0=5 but threshold is 4"),
    ("brute_bound", "9999", "certificate B=9999 but formula gives 999"),
], ids=["cycles", "max_transient", "p0", "brute_bound"])
def test_incomplete_cache_is_healed(capsys, tmp_path, field, value, reason):
    # a cache that passes every consistency check but leaves out the
    # 8-cycle, or claims a wrong longest transient, is rebuilt and rewritten;
    # so is one whose p0 or B is not the one the system gives
    cache = ("--cache-dir", str(tmp_path))
    code, honest, _ = run_cli(capsys, "attractors", "--json", *cache)
    assert code == 0
    cache_file = tmp_path / "atlas-b10-e2.json"
    good = cache_file.read_text(encoding="utf-8")
    record = json.loads(good)
    record[field] = value
    cache_file.write_text(json.dumps(record), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", "4", *cache)
    assert code == 0 and out.startswith("4 reaches cycle of length 8:")
    assert err == f"warning: ignoring corrupt atlas cache {cache_file}: {reason}\n"
    assert cache_file.read_text(encoding="utf-8") == good
    code, out, err = run_cli(capsys, "attractors", "--json", *cache)
    assert code == 0 and out == honest and err == ""


def test_attractors_survives_unwritable_cache(capsys, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "attractors", "--json", "--cache-dir", str(blocker / "sub")
    )
    assert code == 0
    assert "warning" in err and "could not write" in err
    assert json.loads(out)["fixed_points"] == ["0", "1"]


def test_attractors_human_output(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "attractors", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "p0 4  brute bound 999  max transient 11" in out
    assert "fixed points: 0 1" in out
    assert "cycle of length 8: 4 16 37 58 89 145 42 20" in out


def test_certify_squares(capsys):
    code, out, _ = run_cli(capsys, "certify", "--base", "10", "--exp", "2")
    assert code == 0
    for stage in (
        "threshold-inequality",
        "forward-invariance",
        "attractor-enumeration",
        "range-verification",
        "three-digit-identity",
        "two-digit-brute-force",
    ):
        assert f"{stage}: ok" in out
    assert "certified" in out


def test_certify_json(capsys):
    code, out, _ = run_cli(capsys, "certify", "--base", "2", "--exp", "1", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert [stage["name"] for stage in record["stages"]] == [
        "threshold-inequality",
        "forward-invariance",
        "attractor-enumeration",
        "range-verification",
    ]


GOLDEN = Path(__file__).parent / "golden"

# golden file name -> (certify options, exit code, stderr)
GOLDEN_CERTIFY = {
    "certify-10-2": ([], 0, ""),
    "certify-2-1": (["--base", "2", "--exp", "1"], 0, ""),
    "certify-max-steps-10": (["--max-steps", "10"], 1,
                             "error: stage range-verification failed at 269\n"),
    "certify-drop-attractor-4": (["--drop-attractor", "4"], 1,
                                 "error: stage range-verification failed at 2\n"),
}


@pytest.mark.parametrize("name", list(GOLDEN_CERTIFY))
@pytest.mark.parametrize("suffix", ["txt", "json"])
def test_certify_output_is_pinned(capsys, name, suffix):
    # the whole record, byte for byte: stage and field order, and `failing`
    # a decimal string in the range stages only
    argv, code, err = GOLDEN_CERTIFY[name]
    argv = ["certify", *argv] + ["--json"] * (suffix == "json")
    expected = (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")
    assert run_cli(capsys, *argv) == (code, expected, err)


# golden file name -> grid command; each is pinned as text and with --json
GOLDEN_GRID = {
    **{f"grid-sort-{mode}": ["grid", "sort", "--mode", mode]
       for mode in ("rows", "cols", "both", "bubble")},
    "grid-sort-bubble-trace": ["grid", "sort", "--mode", "bubble", "--trace"],
    "grid-verify-random-42": ["grid", "verify", "--seed", "42"],
    "grid-verify-exhaustive-2x2": ["grid", "verify", "--exhaustive", "--rows", "2", "--cols", "2"],
}


@pytest.mark.parametrize("name", list(GOLDEN_GRID))
@pytest.mark.parametrize("suffix", ["txt", "json"])
def test_grid_output_is_pinned(capsys, monkeypatch, name, suffix):
    monkeypatch.setattr(sys, "stdin", io.StringIO(WORKED_GRID))
    argv = GOLDEN_GRID[name] + ["--json"] * (suffix == "json")
    expected = (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_certify_detects_truncated_atlas(capsys):
    code, out, err = run_cli(
        capsys, "certify", "--base", "10", "--exp", "2", "--drop-attractor", "4"
    )
    assert code == 1
    assert "CERTIFICATION FAILED" in out
    assert "range-verification" in err
    # 2 -> 4 is the least value in [0, 999] whose orbit needs the dropped cycle
    assert err == "error: stage range-verification failed at 2\n"


@pytest.mark.parametrize("argv", [
    ["certify", "--exp", "7"],
    ["certify", "--exp", "2", "--lo", "0", "--hi", "10000000"],
    ["classify", "5", "--exp", "7"],
    ["happy", "5", "--exp", "7"],
    ["attractors", "--exp", "7"],
], ids=lambda argv: " ".join(argv))
def test_oversized_work_is_refused_up_front(capsys, tmp_path, argv):
    if argv[0] != "certify":
        argv = argv + ["--cache-dir", str(tmp_path)]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "above the limit of 10000000" in err
    assert time.perf_counter() - start < 2.0
    assert list(tmp_path.iterdir()) == []


def test_certify_p_max_limit(capsys):
    # the threshold scan multiplies a running base**(p - 1) once per p up to
    # --p-max: 10**4 takes 0.01 s for base 10, 10**5 0.9 s
    code, out, _ = run_cli(capsys, "certify", "--base", "2", "--exp", "1",
                           "--p-max", str(certcli.MAX_P_MAX), "--json")
    assert code == 0 and json.loads(out)["stages"][0]["p_max"] == certcli.MAX_P_MAX
    for argv in (["--p-max", str(certcli.MAX_P_MAX + 1)],
                 ["--base", "2", "--exp", "1", "--p-max", "1000000"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "certify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: --p-max {argv[-1]} is above the limit of {certcli.MAX_P_MAX}\n"
        assert time.perf_counter() - start < 2.0


def test_certify_refuses_a_large_bound_before_any_stage(capsys, monkeypatch):
    # B + 1 = 10**12 for base 10**6: the range [0, 10] is small, but the
    # checker would cover [0, B], so certify exits 2 before the threshold scan
    def never(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli, "threshold_inequality_check", never)
    code, out, err = run_cli(capsys, "certify", "--base", "1000000", "--exp", "1",
                             "--lo", "0", "--hi", "10", "--p-max", "10000")
    assert code == 2 and out == ""
    assert err == ("error: a table of DigitSystem(base=1000000, exponent=1) over "
                   "[0, 1000000**2 - 1] holds 1000000000000 values, above the limit of 10000000\n")


@pytest.mark.parametrize("argv, err", [
    # B is named by its formula and B + 1 by its digit count, not in full
    (["certify", "--exp", "8192"],
     "error: a table of DigitSystem(base=10, exponent=8192) over [0, 10**7822 - 1] "
     "holds <7823 digits> values, above the limit of 10000000\n"),
    (["classify", "5", "--exp", "8192"],
     "error: a table of DigitSystem(base=10, exponent=8192) over [0, 10**7822 - 1] "
     "holds <7823 digits> values, above the limit of 10000000\n"),
    (["certify", "--lo", "0", "--hi", "9" * 30],
     f"error: the verification range [0, {'9' * 30}] holds <31 digits> values, "
     "above the limit of 10000000\n"),
    (["certify", "--lo", "1" + "0" * 60000, "--hi", "3"],
     "error: empty verification range [<60001 digits>, 3]\n"),
    (["certify", "--p-max", "7" * 31], "error: --p-max <31 digits> is above the limit of 10000\n"),
    (["grid", "verify", "--min", "-" + "1" * 40, "--max", "2" * 40],
     "error: value range [-<40 digits>, <40 digits>] holds <40 digits> values, "
     "above the limit of 9007199254740992\n"),
    (["grid", "verify", "--rows", "5" * 40, "--trials", "1"],
     "error: 1 grids of shape <40 digits>x3 count <79 digits> cells, above the limit of "
     "2000000 (a cell counts once per 16 rows)\n"),
], ids=lambda value: " ".join(value)[:40] if isinstance(value, list) else "")
def test_refusals_show_long_numbers_by_digit_count(capsys, tmp_path, argv, err):
    if argv[0] == "classify":
        argv = argv + ["--cache-dir", str(tmp_path)]
    assert run_cli(capsys, *argv) == (2, "", err)


def test_certify_range_work_limit_boundary(capsys, monkeypatch):
    # squares: B = 999, and [990, 1049] holds 50 values above B of four
    # digits, 4 units each; one more value is refused before any stage
    monkeypatch.setattr(bounds, "MAX_RANGE_WORK", 4 * 50)
    code, out, _ = run_cli(capsys, "certify", "--lo", "990", "--hi", "1049", "--json")
    assert code == 0 and json.loads(out)["stages"][3]["checked"] == 60

    def never(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli, "threshold_inequality_check", never)
    code, out, err = run_cli(capsys, "certify", "--lo", "990", "--hi", "1050")
    assert (code, out) == (2, "")
    assert err == ("error: the verification range holds 51 values above B of up to 4 digits, "
                   "204 units of work, above the limit of 200\n")


def test_certify_refuses_a_huge_range_above_the_bound(capsys, monkeypatch):
    # 10**6 values of 60,000 digits would take hours; the refusal takes no stage
    def never(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(cli, "threshold_inequality_check", never)
    lo, hi = "1" + "0" * 59999, "1" + "0" * 59992 + "1000000"  # 10**59999 + 10**6
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "certify", "--lo", lo, "--hi", hi)
    assert code == 2 and out == ""
    assert err.startswith("error: the verification range holds 1000001 values above B of "
                          "up to 60000 digits")
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("command", ["traj", "classify", "happy", "attractors", "certify"])
def test_digit_weight_limit(capsys, tmp_path, monkeypatch, command):
    # 9 takes 4 bits, so exponent 8192 gives base 10 a weight of up to 2**15
    # bits; one more is refused before the threshold scan or any cache use
    def never(*args):
        raise AssertionError("the threshold was scanned")

    monkeypatch.setattr(bounds, "digit_reduction_threshold", never)
    monkeypatch.setattr(cli, "digit_reduction_threshold", never)
    argv = [command] + ["1"] * (command in ("traj", "classify", "happy")) + ["--exp", "8193"]
    if command in ("classify", "happy", "attractors"):
        argv += ["--cache-dir", str(tmp_path)]
    assert run_cli(capsys, *argv) == (2, "", "error: the digit weight (base - 1)**exponent "
                                             "holds up to 32772 bits, above the limit of 32768\n")
    assert list(tmp_path.iterdir()) == []


def test_digit_weight_limit_boundary(capsys):
    for base, exponent in [(10, 8192), (3, 16384), (65536, 2048)]:
        code, out, _ = run_cli(capsys, "traj", "1", "--base", str(base), "--exp", str(exponent),
                               "--json")
        assert code == 0 and json.loads(out)["steps"] == ["1"]
        code, out, err = run_cli(capsys, "traj", "1", "--base", str(base),
                                 "--exp", str(exponent + 1))
        assert code == 2 and out == "" and "above the limit of 32768" in err
    # the first step from 5 would take minutes; the refusal, no time
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "traj", "5", "--exp", "100000", "--max-steps", "3")
    assert code == 2 and "holds up to 400000 bits" in err
    assert time.perf_counter() - start < 2.0


def test_signed_options_keep_their_sign_and_message(capsys):
    code, out, _ = run_cli(capsys, "grid", "verify", "--trials", "5", "--seed", "-7",
                           "--min", "-5", "--max", "+5", "--json")
    assert code == 0 and json.loads(out)["ok"] is True
    for seed in ("x7", "\uff17"):  # int's own message, for fullwidth digits too
        with pytest.raises(SystemExit) as exc_info:
            main(["grid", "verify", "--seed", seed])
        assert exc_info.value.code == 2
        assert f"argument --seed: invalid int value: '{seed}'" in capsys.readouterr().err


def test_traj_ignores_the_table_limit(capsys):
    code, out, _ = run_cli(capsys, "traj", "5", "--exp", "7", "--json")
    assert code == 0 and json.loads(out)["steps"][:2] == ["5", "78125"]


def test_atlas_cache_write_is_atomic(capsys, tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    # a write that fails leaves neither a cache nor a temporary file behind
    with monkeypatch.context() as patch:
        patch.setattr(cli.os, "replace", fail)
        code, out, err = run_cli(capsys, "attractors", "--json", "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["fixed_points"] == ["0", "1"]
    assert "could not write atlas cache" in err and "disk full" in err
    assert list(tmp_path.iterdir()) == []
    code, _, err = run_cli(capsys, "attractors", "--json", "--cache-dir", str(tmp_path))
    assert code == 0 and err == ""
    assert [p.name for p in tmp_path.iterdir()] == ["atlas-b10-e2.json"]


def test_grid_sort_file(capsys, tmp_path):
    grid_file = tmp_path / "grid.txt"
    grid_file.write_text(WORKED_GRID, encoding="utf-8")
    code, out, _ = run_cli(capsys, "grid", "sort", str(grid_file), "--mode", "both")
    assert code == 0
    assert out == WORKED_BOTH


def test_grid_sort_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(WORKED_GRID))
    code, out, _ = run_cli(capsys, "grid", "sort", "--mode", "rows")
    assert code == 0
    assert out == "1 3 4 8 8\n0 2 7 9 14\n3 6 7 7 20\n"


def test_grid_sort_bubble_matches_cols(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(WORKED_GRID))
    code, bubble_out, _ = run_cli(capsys, "grid", "sort", "--mode", "bubble", "--json")
    monkeypatch.setattr(sys, "stdin", io.StringIO(WORKED_GRID))
    code2, cols_out, _ = run_cli(capsys, "grid", "sort", "--mode", "cols", "--json")
    assert code == code2 == 0
    bubble = json.loads(bubble_out)
    assert bubble["output"] == json.loads(cols_out)["output"]
    assert bubble["pass_count"] == 2


# grid shapes for the trace tests; "rank" holds entries beyond +-2**63, with
# ties, which are packed by their ranks and unpacked through a rank table
TRACE_SHAPES = ["1x4", "5x1", "3x5-ties", "28x28", "rank"]


def shape_file(tmp_path: Path, shape: str) -> Path:
    grid_file = tmp_path / "g.txt"
    if shape == "28x28":
        return random_grid_file(grid_file, 28, seed=28)
    if shape == "rank":
        rng = random.Random(70)
        values = [sign * 2**70 + d for sign in (-1, 1) for d in range(-2, 3)]
        text = "\n".join(" ".join(str(rng.choice(values)) for _ in range(5))
                         for _ in range(7)) + "\n"
    else:
        text = {"1x4": "5 3 9 1\n", "5x1": "5\n3\n9\n3\n1\n", "3x5-ties": WORKED_GRID}[shape]
    grid_file.write_text(text, encoding="utf-8")
    return grid_file


def test_grid_sort_trace(capsys, tmp_path):
    # every snapshot whole, as format_grid prints it: a row kept from an
    # earlier snapshot that has since changed would show
    for shape in TRACE_SHAPES:
        grid_file = shape_file(tmp_path, shape)
        g = gridsort.parse_grid(grid_file.read_text(encoding="utf-8"))
        expected = "".join(f"# pass {step.pass_no} merged rows {step.top_row + 1},"
                           f"{step.top_row + 2}\n{format_grid(step.grid)}\n\n"
                           for step in gridsort.trace_bubble(g))
        expected += format_grid(gridsort.sort_cols(g)) + "\n"
        code, out, err = run_cli(capsys, "grid", "sort", str(grid_file), "--mode", "bubble",
                                 "--trace")
        assert code == 0 and err == ""
        # by lines, so that a failure names the first line that differs, fast
        assert out.split("\n") == expected.split("\n"), shape
    assert expected.count("# pass ") == 7 * 6 // 2  # the rank grid's merges


@pytest.mark.parametrize("text", [WORKED_GRID, "5 3 9 1\n"], ids=["worked", "one-row"])
def test_grid_sort_trace_matches_untraced(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, plain_out, _ = run_cli(capsys, "grid", "sort", "--mode", "bubble", "--json")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code2, traced_out, _ = run_cli(
        capsys, "grid", "sort", "--mode", "bubble", "--trace", "--json")
    assert code == code2 == 0
    plain, traced = json.loads(plain_out), json.loads(traced_out)
    assert traced["output"] == plain["output"]
    assert traced["pass_count"] == plain["pass_count"]
    if traced["trace"]:
        assert traced["trace"][-1]["grid"] == traced["output"]
    else:
        assert traced["output"] == traced["input"]


def test_grid_sort_pass_count_is_the_passes_that_ran(capsys, monkeypatch, tmp_path):
    # a kernel that skips its last pass (one merge, of the top two rows)
    # leaves a sorted grid sorted, and only its count shows the fault
    bubble_passes = gridsort._bubble_passes

    def skip_last_pass(rows, guards, shift):
        merges = len(rows) * (len(rows) - 1) // 2
        return itertools.islice(bubble_passes(rows, guards, shift), merges - 1)

    monkeypatch.setattr(gridsort, "_bubble_passes", skip_last_pass)
    grid_file = tmp_path / "sorted.txt"
    grid_file.write_text("1 2\n3 4\n5 6\n", encoding="utf-8")
    for extra in ([], ["--trace"]):
        code, out, _ = run_cli(capsys, "grid", "sort", str(grid_file), "--mode", "bubble",
                               "--json", *extra)
        assert code == 0
        assert json.loads(out)["pass_count"] == 1, extra


def sort_record(g: Grid, mode: str, trace: bool) -> dict:
    """The whole `grid sort --json` record, built before any of it is rendered."""
    record = {"mode": mode, "input": g.entries}
    if mode == "rows":
        output = gridsort.sort_rows(g)
    elif mode == "both":
        record["rows_sorted"] = gridsort.sort_rows(g).entries
        output = gridsort.sort_cols(gridsort.sort_rows(g))
    else:
        output = gridsort.sort_cols(g)
    if mode == "bubble":
        record["pass_count"] = g.rows - 1
        if trace:
            record["trace"] = [{"pass": step.pass_no, "top_row": step.top_row,
                                "grid": step.grid.entries}
                               for step in list(gridsort.trace_bubble(g))]
    record["output"] = output.entries
    return record


@pytest.mark.parametrize("shape", TRACE_SHAPES)
def test_grid_sort_json_streams_the_canonical_record(capsys, tmp_path, shape):
    grid_file = shape_file(tmp_path, shape)
    g = gridsort.parse_grid(grid_file.read_text(encoding="utf-8"))
    for mode, trace in (("rows", False), ("cols", False), ("both", False), ("bubble", False),
                        ("bubble", True)):
        code, out, err = run_cli(capsys, "grid", "sort", str(grid_file), "--mode", mode,
                                 "--json", *(["--trace"] if trace else []))
        assert code == 0 and err == ""
        expected = cli.dumps_canonical(sort_record(g, mode, trace))
        assert out.split("\n") == expected.split("\n"), (mode, trace)  # as in test_grid_sort_trace
    if shape == "1x4":
        assert json.loads(out)["trace"] == []


def test_grid_sort_trace_refuses_too_many_snapshot_cells(capsys, monkeypatch, tmp_path):
    # the worked 3x5 grid traces 3 snapshots of 15 cells
    monkeypatch.setattr(gridcli, "MAX_TRACE_CELLS", 45)
    monkeypatch.setattr(sys, "stdin", io.StringIO(WORKED_GRID))
    code, out, _ = run_cli(capsys, "grid", "sort", "--mode", "bubble", "--trace")
    assert code == 0 and "# pass 2 merged rows 1,2" in out
    monkeypatch.setattr(gridcli, "MAX_TRACE_CELLS", 44)
    monkeypatch.setattr(sys, "stdin", io.StringIO(WORKED_GRID))
    code, out, err = run_cli(capsys, "grid", "sort", "--mode", "bubble", "--trace")
    assert code == 2 and out == ""
    assert err == ("error: a traced bubble sort of a 3x5 grid holds 45 snapshot cells, "
                   "above the limit of 44\n")
    monkeypatch.undo()
    # the real cap admits the 80x80 trace CI runs and refuses 90x90 before any merge
    assert 80 * 79 // 2 * 80 * 80 <= gridcli.MAX_TRACE_CELLS < 90 * 89 // 2 * 90 * 90

    def no_merge(*args):
        raise AssertionError("merged before refusing")

    monkeypatch.setattr(gridsort, "_merge_packed", no_merge)
    grid_file = tmp_path / "g90.txt"
    grid_file.write_text("\n".join(" ".join(["7"] * 90) for _ in range(90)) + "\n",
                         encoding="utf-8")
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, "grid", "sort", str(grid_file), "--mode", "bubble",
                                 "--trace", *extra)
        assert code == 2 and out == ""
        assert err == ("error: a traced bubble sort of a 90x90 grid holds 32440500 snapshot "
                       f"cells, above the limit of {gridcli.MAX_TRACE_CELLS}\n")
    # untraced, the same grid sorts
    code, out, _ = run_cli(capsys, "grid", "sort", str(grid_file), "--mode", "cols")
    assert code == 0


def test_grid_sort_bubble_refuses_too_much_work(capsys, monkeypatch, tmp_path):
    # the cap admits the 180x180 sort the benchmark runs, the 200x200 and
    # 80x80 ones CI runs and the 5649x1 grid that grid verify allows
    for n, p in ((180, 180), (200, 200), (80, 80), (5649, 1)):
        assert n * (n - 1) // 2 * (64 + p) <= gridcli.MAX_BUBBLE_WORK
    # 5649x1 is the tallest column grid verify allows, a cell counting once per 16 rows
    assert 5649 * 354 <= gridcli.MAX_GRID_CELLS < 5650 * 354

    def no_merge(*args):
        raise AssertionError("merged before refusing")

    monkeypatch.setattr(gridsort, "_merge_packed", no_merge)
    grid_file = tmp_path / "tall.txt"
    grid_file.write_text("7\n" * 10000, encoding="utf-8")
    for extra in ([], ["--json"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "grid", "sort", str(grid_file), "--mode", "bubble",
                                 *extra)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == ("error: a bubble sort of a 10000x1 grid counts 3249675000 units of "
                       "work (49995000 merges of 64 units plus one a column), above the "
                       f"limit of {gridcli.MAX_BUBBLE_WORK}\n")
    # the other modes are not capped
    code, out, _ = run_cli(capsys, "grid", "sort", str(grid_file), "--mode", "both")
    assert code == 0


@pytest.mark.parametrize("mode", ["rows", "cols", "both", None])
def test_grid_sort_trace_needs_bubble(capsys, monkeypatch, mode):
    # only the bubble passes make snapshots: any other mode refuses --trace
    monkeypatch.setattr(sys, "stdin", io.StringIO(WORKED_GRID))
    argv = ["grid", "sort", "--trace", *(["--mode", mode] if mode else [])]
    assert run_cli(capsys, *argv) == (
        2, "", f"error: --trace shows the merges of --mode bubble, not of --mode {mode or 'both'}\n")


def test_grid_sort_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n4 x 6\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "grid", "sort", str(bad))
    assert code == 2
    assert "line 2, column 3" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the int-string digit limit came with Python 3.11")
def test_grid_sort_over_long_entry_exits_2(capsys, tmp_path):
    # cli.main lifts the limit to MAX_START_DIGITS; a longer entry is a parse error
    long_entry = tmp_path / "long.txt"
    long_entry.write_text("1" * 260_000 + " 2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "grid", "sort", str(long_entry))
    assert code == 2 and out == ""
    assert err.startswith("error: line 1, column 1: integer has 260000 digits, above the limit")


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_output_into_a_pipe_closed_early_exits_1_quietly(tmp_path, unbuffered):
    # `... | head -3`: the reader leaves after three lines, while a 40x40
    # trace prints about 5 MB as text and 20 MB as JSON, and a record of a
    # 131,000-digit start 131-262 KB, more than a pipe holds.  Under
    # PYTHONUNBUFFERED, stdout's text layer writes straight to the raw file
    # and drops what a short write leaves unless the CLI buffers it.
    grid_file = random_grid_file(tmp_path / "g40.txt", 40, seed=40)
    start = "12345678" * 16375
    cache = ["--cache-dir", str(tmp_path / "cache")]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    trace = ["grid", "sort", str(grid_file), "--mode", "bubble", "--trace"]
    for argv, first_line in ((trace, b"# pass 1 merged rows 1,2\n"), ([*trace, "--json"], b"{\n"),
                             (["traj", start, "--json"], b"{\n"),
                             (["happy", start, "--json", *cache], b"{\n"),
                             (["classify", start, "--json", *cache], b"{\n")):
        child = subprocess.Popen(
            [sys.executable, "-m", "happygrid", *argv], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env={**env, "PYTHONPATH": src})
        try:
            head = [child.stdout.readline() for _ in range(3)]
            child.stdout.close()
            err = child.stderr.read()
        finally:
            child.wait(timeout=60)
        assert head[0] == first_line
        assert child.returncode == 1, argv[0]
        assert err == b"", argv[0]


def test_text_trace_keeps_no_copies_of_its_snapshots(tmp_path):
    # each snapshot is printed as it is made, about 0.4 MiB here; all of them
    # held at once, sharing the rows a merge leaves alone, took 1.3 MiB, and
    # a list copy of each, which text output never reads, 12.8 MiB
    grid_file = random_grid_file(tmp_path / "g40.txt", 40, seed=40)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["grid", "sort", str(grid_file), "--mode", "bubble", "--trace"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("argv", [["certify", "--max-steps", "10", "--json"], ["traj", "4"]],
                         ids=["json", "text"])
def test_output_into_a_string_buffer_is_what_capsys_sees(capsys, argv):
    # perfbench's traced replay runs main with stdout redirected to a
    # StringIO, which has no binary layer and no file descriptor
    code, expected, _ = run_cli(capsys, *argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == code
    assert out.getvalue() == expected and expected


def test_json_trace_keeps_no_snapshots(tmp_path):
    # the record is written a snapshot at a time: about 0.2 MiB here, where
    # the whole record built before printing took 39 MiB
    grid_file = random_grid_file(tmp_path / "g40.txt", 40, seed=40)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["grid", "sort", str(grid_file), "--mode", "bubble", "--trace",
                         "--json"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_grid_sort_missing_file(capsys, tmp_path):
    missing = tmp_path / "nope.txt"
    code, out, err = run_cli(capsys, "grid", "sort", str(missing))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n4 x 6\n", encoding="utf-8")
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, "grid", "sort", str(bad), *extra)
        assert code == 2 and out == ""
        assert err == "error: line 2, column 3: not a decimal integer: 'x'\n"
    # a file that is not UTF-8 is unreadable as text, not a crash
    bad.write_bytes(b"1 2\n\xff 3\n")
    code, out, err = run_cli(capsys, "grid", "sort", str(bad))
    assert code == 2 and out == ""
    assert err == ("error: 'utf-8' codec can't decode byte 0xff in position 4: "
                   "invalid start byte\n")


def test_grid_verify_random(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "verify", "--rows", "3", "--cols", "5",
        "--trials", "200", "--seed", "42",
    )
    assert code == 0
    assert "verified 200 grids of shape 3x5: ok" in out


def test_grid_verify_unit(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "verify", "--rows", "1", "--cols", "1",
        "--trials", "1", "--seed", "0",
    )
    assert code == 0


def test_grid_verify_exhaustive(capsys):
    code, out, _ = run_cli(
        capsys, "grid", "verify", "--exhaustive", "--rows", "2", "--cols", "2",
        "--alphabet", "2", "--json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True
    assert record["checked"] == 16
    assert record["mode"] == "exhaustive"


@pytest.mark.parametrize("shape", [("5", "5", "10"), ("1", "20", "2"), ("100000", "100000", "2")],
                         ids="x".join)
def test_grid_verify_exhaustive_refuses_too_many_grids(capsys, shape):
    rows, cols, alphabet = shape
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "grid", "verify", "--exhaustive", "--rows", rows,
                             "--cols", cols, "--alphabet", alphabet)
    assert code == 2 and out == ""
    assert "exceed the limit of 1000000" in err
    assert time.perf_counter() - start < 1.0


def test_grid_verify_cell_limit_boundary(capsys, monkeypatch):
    # a 17-row grid counts each cell twice: two 17x1 grids count 68 cells
    monkeypatch.setattr(gridcli, "MAX_GRID_CELLS", 68)
    args = ("grid", "verify", "--rows", "17", "--cols", "1")
    code, out, _ = run_cli(capsys, *args, "--trials", "2")
    assert code == 0 and "verified 2 grids of shape 17x1: ok" in out
    code, out, err = run_cli(capsys, *args, "--trials", "3")
    assert code == 2 and out == "" and "count 102 cells" in err
    code, out, _ = run_cli(capsys, *args, "--exhaustive", "--alphabet", "1")
    assert code == 0 and "verified 1 grids of shape 17x1: ok" in out
    code, out, err = run_cli(capsys, "grid", "verify", "--rows", "35", "--cols", "1",
                             "--exhaustive", "--alphabet", "1")
    assert code == 2 and out == "" and "count 105 cells" in err


@pytest.mark.parametrize("argv", [
    ["--trials", "1000000000", "--rows", "5", "--cols", "5"],
    ["--trials", "1", "--rows", "100000", "--cols", "1"],  # one tall column
    ["--exhaustive", "--alphabet", "1", "--rows", "100000", "--cols", "100000"],
    ["--exhaustive", "--alphabet", "2", "--rows", "1", "--cols", "19"],  # 2^19 grids
], ids=lambda argv: " ".join(argv))
def test_grid_verify_refuses_too_many_cells(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "grid", "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "above the limit of 2000000" in err
    assert time.perf_counter() - start < 1.0


def test_grid_verify_cell_limit_per_grid(capsys, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(gridcli, "MAX_CELLS_PER_GRID", 6)
        code, out, _ = run_cli(capsys, "grid", "verify", "--rows", "2", "--cols", "3")
        assert code == 0 and "verified 1000 grids of shape 2x3: ok" in out
        code, out, err = run_cli(capsys, "grid", "verify", "--rows", "1", "--cols", "7",
                                 "--exhaustive", "--alphabet", "1")
        assert code == 2 and out == "" and "holds 7 cells" in err
    # each is under the cap on cells in all, and refused before a grid is built
    for argv in (["--trials", "1", "--rows", "1", "--cols", "100001"],
                 ["--exhaustive", "--alphabet", "1", "--rows", "304", "--cols", "330"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "grid", "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "above the limit of 100000 per grid" in err
        assert time.perf_counter() - start < 1.0


def test_grid_verify_deterministic(capsys):
    args = ("grid", "verify", "--rows", "4", "--cols", "4",
            "--trials", "50", "--seed", "7", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def verify_flats(args):
    # each grid's cells in row-major order, drawn as grid verify draws them
    cells = args.rows * args.cols
    if args.exhaustive:
        return itertools.product(range(args.alphabet), repeat=cells)
    rng = random.Random(args.seed)
    return (rng.choices(range(args.min, args.max + 1), k=cells) for _ in range(args.trials))


def first_bad_grid(argv):
    """The reference: _check_grid on one grid at a time; the first failure's
    (index, grid, problem), or None."""
    args = cli.build_parser().parse_args(argv)
    for index, flat in enumerate(verify_flats(args)):
        grid = Grid(tuple(zip(*[iter(flat)] * args.cols)))
        problem = gridcli._check_grid(grid)
        if problem is not None:
            return index, grid, problem
    return None


def break_kernel(monkeypatch, name, broken):
    """Patch cli.<name> to go wrong on the grids where broken(grid) holds: the
    bubble passes count one pass too many, a row sort returns each row right
    to left, a column sort returns the rows upside down."""
    original = getattr(cli, name)

    def kernel(grid):
        result = original(grid)
        if not broken(grid):
            return result
        if name == "bubble_column_sort":
            return result[0], result[1] + 1
        if name == "sort_rows":
            return Grid(tuple(row[::-1] for row in result.entries))
        return Grid(result.entries[::-1])

    monkeypatch.setattr(cli, name, kernel)


def holds_grid(argv, index, kernel):
    """A test on a kernel's input grid: does it hold the index-th grid that
    `argv` generates whole?  The row sort sees a block's grids stacked top to
    bottom, the column kernels side by side, the column sort also with their
    rows sorted."""
    args = cli.build_parser().parse_args(argv)
    flat = next(itertools.islice(verify_flats(args), index, None))
    grid = Grid(tuple(zip(*[iter(flat)] * args.cols)))
    if kernel == "sort_rows":
        return lambda g: any(g.entries[top:top + args.rows] == grid.entries
                             for top in range(0, g.rows, args.rows))
    forms = {tuple(zip(*grid.entries)), tuple(zip(*cli.sort_rows(grid).entries))}

    def holds(g):
        columns = tuple(zip(*g.entries))
        return any(columns[left:left + args.cols] in forms
                   for left in range(0, g.cols, args.cols))
    return holds


RANDOM_3X3 = ["grid", "verify", "--seed", "42"]
EXHAUSTIVE_3X3 = ["grid", "verify", "--exhaustive"]
RANDOM_1X5 = [*RANDOM_3X3, "--rows", "1", "--cols", "5"]
RANDOM_5X1 = [*RANDOM_3X3, "--rows", "5", "--cols", "1"]
# A share draws from a list of the values when the range holds no more values
# than a block has cells, and from the range itself above that.
LIST_RANGE = [*RANDOM_3X3, "--min", "0", "--max", str(BLOCK_CELLS - 1)]
WIDE_RANGE = [*RANDOM_3X3, "--min", "0", "--max", str(BLOCK_CELLS)]


# A kernel broken on grids that hold a chosen grid breaks every block holding
# it, and the block is then checked grid by grid.  The exhaustive grids chosen
# have their rows sorted, so no earlier grid's rows sort to them and the
# chosen grid is the first to fail.
@pytest.mark.parametrize("argv, kernel, index", [
    pytest.param(RANDOM_3X3, "bubble_column_sort", 700, id="random-bubble-700"),
    pytest.param(RANDOM_3X3, "sort_cols", 500, id="random-cols-500"),
    pytest.param(RANDOM_3X3, "sort_rows", 300, id="random-rows-300"),
    pytest.param(RANDOM_3X3, "bubble_column_sort", 0, id="random-bubble-0"),
    pytest.param(EXHAUSTIVE_3X3, "sort_cols", 5832, id="exhaustive-cols-5832"),
    pytest.param(EXHAUSTIVE_3X3, "bubble_column_sort", 19682, id="exhaustive-bubble-19682"),
    # A one-row stack lays out side by side as one row, a one-column stack as
    # one column.  A row reversed in a one-column grid or a one-row grid
    # turned upside down is still sorted, so those two go untested.
    pytest.param(RANDOM_1X5, "sort_rows", 700, id="random-1x5-rows-700"),
    pytest.param(RANDOM_1X5, "bubble_column_sort", 0, id="random-1x5-bubble-0"),
    pytest.param(RANDOM_5X1, "sort_cols", 700, id="random-5x1-cols-700"),
    pytest.param(RANDOM_5X1, "bubble_column_sort", 300, id="random-5x1-bubble-300"),
])
@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
def test_grid_verify_reports_the_first_bad_grid(capsys, monkeypatch, argv, kernel, index,
                                                json_out):
    break_kernel(monkeypatch, kernel, holds_grid(argv, index, kernel))
    at, grid, problem = first_bad_grid(argv)
    assert at == index
    code, out, err = run_cli(capsys, *argv, *["--json"] * json_out)
    assert code == 1
    if json_out:
        assert err == ""
        record = json.loads(out)
        assert record["ok"] is False and record["checked"] == at
        assert record["counterexample"] == {
            "index": at, "problem": problem, "grid": [list(row) for row in grid.entries]}
    else:
        seed_note = "" if "--exhaustive" in argv else " (seed 42)"
        assert out == ""
        assert err == f"counterexample at trial {at}{seed_note}: {problem}\n{format_grid(grid)}\n"


def test_grid_verify_counterexample_is_pinned(capsys, monkeypatch):
    break_kernel(monkeypatch, "bubble_column_sort",
                 holds_grid(RANDOM_3X3, 700, "bubble_column_sort"))
    expected = (GOLDEN / "grid-verify-counterexample-42.json").read_text(encoding="utf-8")
    assert run_cli(capsys, *RANDOM_3X3, "--json") == (1, expected, "")


@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv", [RANDOM_3X3, EXHAUSTIVE_3X3], ids=["random", "exhaustive"])
def test_grid_verify_never_passes_a_kernel_broken_on_wide_rows(capsys, monkeypatch, argv,
                                                               json_out):
    # every grid passes alone, every block fails: the verdict is a failure
    break_kernel(monkeypatch, "bubble_column_sort", lambda grid: grid.cols > 3)
    assert first_bad_grid(argv) is None
    code, out, err = run_cli(capsys, *argv, *["--json"] * json_out)
    assert code == 1 and out == ""
    assert err == (f"error: grids 0 to {BLOCK_CELLS // 9 - 1} fail as one block but pass "
                   "one by one: the kernels let separate grids interact\n")


@pytest.mark.parametrize("index", [0, 2 * (BLOCK_CELLS // 9)], ids=["block-0", "block-2"])
def test_grid_verify_checks_the_real_width_in_every_block(capsys, monkeypatch, index):
    # broken only at the requested width, on the first grid of a block
    chosen = holds_grid(RANDOM_3X3, index, "sort_cols")
    break_kernel(monkeypatch, "sort_cols", lambda grid: grid.cols == 3 and chosen(grid))
    at, grid, problem = first_bad_grid(RANDOM_3X3)
    assert at == index
    code, out, err = run_cli(capsys, *RANDOM_3X3, "--json")
    assert code == 1 and err == ""
    assert json.loads(out)["counterexample"] == {
        "index": index, "problem": problem, "grid": [list(row) for row in grid.entries]}


def run_in_shares(capsys, monkeypatch, shares, *argv):
    """run_cli with `shares` CPUs and shares of a block or more: (code, out,
    err, the number of workers forked)."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    with monkeypatch.context() as patch:
        patch.setattr("happygrid.shares._cpus", lambda: shares)
        patch.setattr("happygrid.shares.MIN_SHARE_BLOCKS", 1)
        patch.setattr(os, "fork", counted)
        return (*run_cli(capsys, *argv), len(forks))


def assert_same_in_shares(capsys, monkeypatch, *argv):
    """One share and three give the same exit code, stdout and stderr; the
    three run in this process and two forked children."""
    alone = run_in_shares(capsys, monkeypatch, 1, *argv)
    shared = run_in_shares(capsys, monkeypatch, 3, *argv)
    assert alone[3] == 0 and shared[3] == 2
    assert shared[:3] == alone[:3]
    return alone[:3]


def share_of(argv, index, shares=3):
    """The share that checks the index-th grid when `argv`'s blocks are split
    into `shares`, as shares.verify splits them."""
    args = cli.build_parser().parse_args(argv)
    grids = args.alphabet ** (args.rows * args.cols) if args.exhaustive else args.trials
    per_block = max(1, BLOCK_CELLS // (args.rows * args.cols))
    blocks = -(-grids // per_block)
    return max(i for i in range(shares) if blocks * i // shares * per_block <= index)


# Three shares of RANDOM_3X3 start at grids 0, 227 and 681, of EXHAUSTIVE_3X3
# at 0, 6583 and 13166 and of the 1x5 and 5x1 runs at 0, 409 and 818.  The
# exhaustive grids chosen have their rows sorted, so no earlier grid's rows
# sort to them.
@pytest.mark.parametrize("argv, kernel, indices", [
    pytest.param(argv, kernel, indices, id=f"{name}-{kernel}-share"
                 + "+".join(str(share_of(argv, index)) for index in indices))
    for name, argv, kernels, placements in [
        ("random", RANDOM_3X3, ("bubble_column_sort", "sort_cols", "sort_rows"),
         ((100,), (700,), (500, 700))),
        ("exhaustive", EXHAUSTIVE_3X3, ("bubble_column_sort", "sort_cols"),
         ((4130,), (18959,), (9872, 18959))),
        ("1x5", RANDOM_1X5, ("bubble_column_sort", "sort_rows"), ((0,), (700,), (700, 900))),
        ("5x1", RANDOM_5X1, ("bubble_column_sort", "sort_cols"), ((300,), (700,), (500, 900))),
    ]
    for kernel in kernels
    for indices in placements
])
@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
def test_grid_verify_in_shares_reports_the_first_bad_grid(capsys, monkeypatch, argv, kernel,
                                                          indices, json_out):
    chosen = [holds_grid(argv, index, kernel) for index in indices]
    break_kernel(monkeypatch, kernel, lambda grid: any(holds(grid) for holds in chosen))
    at, grid, problem = first_bad_grid(argv)
    assert at == indices[0]
    assert [share_of(argv, index) for index in indices] == sorted(
        {share_of(argv, index) for index in indices})  # each index in a share of its own
    code, out, err = assert_same_in_shares(capsys, monkeypatch, *argv, *["--json"] * json_out)
    assert code == 1
    if json_out:
        assert err == "" and json.loads(out)["counterexample"] == {
            "index": at, "problem": problem, "grid": [list(row) for row in grid.entries]}
    else:
        assert out == "" and err.startswith(f"counterexample at trial {at}")


@pytest.mark.parametrize("argv", [
    [*RANDOM_3X3, "--json"],
    [*RANDOM_3X3, "--rows", "8", "--cols", "8", "--trials", "500"],
    [*EXHAUSTIVE_3X3, "--json"],
    [*EXHAUSTIVE_3X3, "--rows", "1", "--cols", "2", "--alphabet", "100"],
    LIST_RANGE,
    WIDE_RANGE,
], ids=lambda argv: " ".join(argv[2:]))
def test_grid_verify_passes_alike_in_shares(capsys, monkeypatch, argv):
    code, out, err = assert_same_in_shares(capsys, monkeypatch, *argv)
    assert code == 0 and err == ""


@pytest.mark.parametrize("argv, population", [(LIST_RANGE, list), (WIDE_RANGE, range)],
                         ids=["list", "range"])
def test_grid_verify_draws_alike_on_both_sides_of_the_list_gate(capsys, monkeypatch, argv,
                                                                population):
    # the reference draws every grid from the range; grid 700 is in share 2
    break_kernel(monkeypatch, "sort_cols", holds_grid(argv, 700, "sort_cols"))
    at, grid, problem = first_bad_grid(argv)
    assert at == 700 and share_of(argv, at) == 2
    drawn_from = set()
    choices = random.Random.choices

    def recorded(self, values, *rest, **options):
        drawn_from.add(type(values))
        return choices(self, values, *rest, **options)

    monkeypatch.setattr(random.Random, "choices", recorded)
    code, out, err = assert_same_in_shares(capsys, monkeypatch, *argv, "--json")
    assert drawn_from == {population}
    assert code == 1 and err == ""
    assert json.loads(out)["counterexample"] == {
        "index": at, "problem": problem, "grid": [list(row) for row in grid.entries]}


@pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
def test_grid_verify_block_error_from_a_later_share(capsys, monkeypatch, json_out):
    # grid 800, not the first of its block 681-907, breaks its block's stack of
    # grids but not itself: share 2 finds the block failing as one
    assert share_of(RANDOM_3X3, 800) == 2
    chosen = holds_grid(RANDOM_3X3, 800, "bubble_column_sort")
    break_kernel(monkeypatch, "bubble_column_sort", lambda grid: grid.cols > 3 and chosen(grid))
    assert first_bad_grid(RANDOM_3X3) is None
    assert assert_same_in_shares(capsys, monkeypatch, *RANDOM_3X3, *["--json"] * json_out) == (
        1, "", "error: grids 681 to 907 fail as one block but pass one by one: the kernels "
               "let separate grids interact\n")


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("index, code", [(None, 0), (100, 1), (700, 1)],
                         ids=["pass", "share-0", "share-2"])
def test_grid_verify_leaves_no_child(capsys, monkeypatch, index, code):
    if index is not None:
        chosen = holds_grid(RANDOM_3X3, index, "sort_cols")
        break_kernel(monkeypatch, "sort_cols", chosen)
    assert run_in_shares(capsys, monkeypatch, 3, *RANDOM_3X3)[0::3] == (code, 2)
    assert_no_children()


def test_grid_verify_raises_what_a_worker_raised(capsys, monkeypatch):
    chosen = holds_grid(RANDOM_3X3, 700, "sort_rows")
    original = cli.sort_rows

    def sort_rows(grid):
        if chosen(grid):
            raise ArithmeticError("a broken row sort")
        return original(grid)

    monkeypatch.setattr(cli, "sort_rows", sort_rows)
    with pytest.raises(ArithmeticError, match="a broken row sort"):
        run_in_shares(capsys, monkeypatch, 1, *RANDOM_3X3)
    with pytest.raises(RuntimeError, match="grids 681 to 999 exited with 1:\n(.|\n)*"
                                           "ArithmeticError: a broken row sort"):
        run_in_shares(capsys, monkeypatch, 3, *RANDOM_3X3)
    assert capsys.readouterr() == ("", "")
    assert_no_children()


@pytest.mark.parametrize("lo, hi", [(0, 0), (-1000, 1000), (0, gridcli.MAX_DRAWN_VALUES - 1)])
def test_choices_makes_one_random_call_per_item(lo, hi):
    # a grid verify share starts by skipping one random() call per cell drawn
    # before it, which draws its grids as one run does only if this holds
    for k in (0, 1, 9, 2048):
        drawn, skipped = random.Random(k), random.Random(k)
        drawn.choices(range(lo, hi + 1), k=k)
        for _ in range(k):
            skipped.random()
        assert drawn.getstate() == skipped.getstate(), (
            f"random.choices makes other than one random() call per item on Python "
            f"{sys.version}: grid verify shares would draw other grids than one run")


def test_grid_verify_bad_range(capsys):
    code, out, err = run_cli(
        capsys, "grid", "verify", "--min", "5", "--max", "1", "--trials", "1"
    )
    assert code == 2 and out == ""
    assert err == "error: empty value range [5, 1]\n"
    # random.choices takes floor(random() * n) from a 53-bit float, which
    # draws every value of a range of at most 2**53 values
    widest = str(2**53 - 1)
    code, out, err = run_cli(capsys, "grid", "verify", "--min", "0", "--max", widest,
                             "--trials", "3")
    assert code == 0 and err == "" and out == "verified 3 grids of shape 3x3: ok\n"
    for low, top in (("-1", widest), ("0", str(sys.maxsize - 1))):
        count = int(top) - int(low) + 1
        code, out, err = run_cli(capsys, "grid", "verify", "--min", low, "--max", top,
                                 "--trials", "3")
        assert code == 2 and out == ""
        assert err == (f"error: value range [{low}, {top}] holds {count} values, "
                       f"above the limit of {2**53}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["traj", "abc"],
        ["traj", "-5"],
        ["traj", "4", "--base", "1"],
        ["traj", "4", "--exp", "0"],
        ["happy", "4.5"],
        ["nonsense"],
        ["grid", "verify", "--trials", "0"],
        ["classify", "\uff14"],  # fullwidth 4: only ASCII digits are numbers
        ["happy", "\u00b2"],  # superscript 2
        ["traj", "4", "--base", "\uff15"],  # fullwidth digits in numeric options
        ["certify", "--exp", "\uff13"],
        ["certify", "--p-max", "\uff15\uff10"],
        ["grid", "verify", "--seed", "\uff17", "--trials", "1"],
        ["grid", "verify", "--min", "-\uff15", "--trials", "1"],
        ["grid", "verify", "--max", "\uff15", "--trials", "1"],
        ["grid", "verify", "--rows", "\uff12", "--trials", "1"],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "happygrid", "traj", "4"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "terminal cycle of length 8" in result.stdout


def main_in_process(capsys, argv):
    """main's exit code, argparse's SystemExit included, stdout and stderr as bytes."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


ENTRY_POINT_CASES = [
    pytest.param(["certify", "--json"], 0, "certify-10-2.json", id="certify"),
    pytest.param(["certify", "--max-steps", "10", "--json"], 1, "certify-max-steps-10.json",
                 id="certify-fails"),
    pytest.param(["certify", "--exp", "7"], 2, None, id="refused"),
    pytest.param(["certify", "--exp", "x"], 2, None, id="usage-error"),
    pytest.param(["--version"], 0, None, id="version"),
]


@pytest.mark.parametrize("argv, code, golden", ENTRY_POINT_CASES)
def test_main_never_freezes_the_process_it_runs_in(capsys, argv, code, golden):
    # only the process entry point freezes, once main is done
    frozen = gc.get_freeze_count()
    assert main_in_process(capsys, argv)[0] == code
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv, code, golden", ENTRY_POINT_CASES)
def test_module_process_prints_what_main_prints(capsys, argv, code, golden):
    # byte for byte, with the golden file where one pins the output
    expected = main_in_process(capsys, argv)
    assert expected[0] == code
    if golden is not None:
        assert expected[1] == (GOLDEN / golden).read_bytes()
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-m", "happygrid", *argv], capture_output=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert (result.returncode, result.stdout, result.stderr) == expected


def test_help_texts_match_the_golden():
    # each `--help` at 80 columns, under a fixed home so that the default
    # cache directory, and so the wrapping around it, reads the same anywhere
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80", "HOME": "/home/user"}
    texts = []
    for argv in ([], ["traj"], ["classify"], ["happy"], ["attractors"], ["certify"], ["grid"],
                 ["grid", "sort"], ["grid", "verify"]):
        argv = [*argv, "--help"]
        result = subprocess.run([sys.executable, "-m", "happygrid", *argv], capture_output=True,
                                text=True, env=env)
        assert (result.returncode, result.stderr) == (0, ""), argv
        texts.append(f"$ happygrid {' '.join(argv)}\n{result.stdout}")
    assert "".join(texts) == (GOLDEN / "help.txt").read_text(encoding="utf-8")


def test_the_process_entry_point_freezes_what_is_left_at_exit():
    # an atexit hook runs after run() has returned or raised SystemExit, and
    # before the interpreter's final collections
    script = ("import atexit, gc, sys\n"
              "from happygrid.__main__ import run\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
              "sys.exit(run())\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    for argv, code in ((["traj", "4"], 0), (["--version"], 0), (["certify", "--exp", "x"], 2)):
        result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == code
        assert result.stderr.endswith("frozen True\n"), argv


def test_cli_import_leaves_out_dataclasses():
    # dataclasses, and the inspect module it imports, cost more start-up
    # than the rest of the package; -S keeps site-packages' imports out
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, happygrid.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_only_grid_verify_loads_the_share_runner(tmp_path):
    # every command compiles what it imports when bytecode is not cached, so
    # the share runner stays out of all but grid verify
    (tmp_path / "grid.txt").write_text(WORKED_GRID, encoding="utf-8")
    script = ("import contextlib, io, sys\n"
              "from happygrid import cli\n"
              "def loaded(*argv):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(list(argv)) == 0, argv\n"
              "    return 'happygrid.shares' in sys.modules\n"
              "print([loaded('classify', '7', '--cache-dir', sys.argv[1]),\n"
              "       loaded('certify', '--exp', '3'),\n"
              "       loaded('grid', 'sort', sys.argv[2]),\n"
              "       loaded('grid', 'verify', '--trials', '10')])\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "cache"), str(tmp_path / "grid.txt")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[False, False, False, True]\n"


DIGIT_HALF = {"happygrid.bounds", "happygrid.certify", "happygrid.certcli",
              "happygrid.dynamics", "happygrid.digitmap", "happygrid.digitcli"}
GRID_HALF = {"happygrid.gridsort", "happygrid.shares", "happygrid.gridcli"}


@pytest.mark.parametrize("argv, absent", [
    ([], DIGIT_HALF | GRID_HALF | {"happygrid.cli"}),
    (["--version"], DIGIT_HALF | GRID_HALF),
    (["grid", "sort", "GRID"], DIGIT_HALF),
    (["grid", "verify", "--trials", "10"], DIGIT_HALF),
    # only certify loads certcli, and not digitcli; traj, which needs no
    # atlas, loads no certify
    (["classify", "7", "--cache-dir", "CACHE"], GRID_HALF | {"happygrid.certcli"}),
    (["happy", "7", "--cache-dir", "CACHE"], GRID_HALF | {"happygrid.certcli"}),
    (["traj", "7"], GRID_HALF | {"happygrid.certify", "happygrid.certcli"}),
    (["attractors", "--cache-dir", "CACHE"], GRID_HALF | {"happygrid.certcli"}),
    (["certify", "--exp", "3"], GRID_HALF | {"happygrid.digitcli"}),
], ids=["import", "version", "grid-sort", "grid-verify", "classify", "happy", "traj",
        "attractors", "certify"])
def test_each_command_loads_only_its_own_half(tmp_path, argv, absent):
    # every command compiles what it imports when bytecode is not cached;
    # with no argv the script only imports the package
    (tmp_path / "grid.txt").write_text(WORKED_GRID, encoding="utf-8")
    argv = [{"GRID": str(tmp_path / "grid.txt"), "CACHE": str(tmp_path)}.get(a, a)
            for a in argv]
    script = ("import contextlib, io, sys\n"
              "import happygrid\n"
              "if sys.argv[1:]:\n"
              "    from happygrid.cli import main\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        try:\n"
              "            assert main(sys.argv[1:]) == 0\n"
              "        except SystemExit as exc:\n"
              "            assert exc.code == 0\n"
              "print(' '.join(sorted(m for m in sys.modules if m.startswith('happygrid'))))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "happygrid" in loaded
    assert not loaded & absent, sorted(loaded & absent)
    if argv == ["--version"]:
        # the argument grammar and the canonical JSON text live in cli itself
        assert loaded == {"happygrid", "happygrid.cli", "happygrid.limits"}


def test_command_modules_import_no_other_command_module():
    # each command module compiles only what its own commands run: the
    # shared core is cli, and the caps two commands share live in a library
    # module, never in another command's module
    commands = {"digitcli", "certcli", "gridcli"}
    for module in commands:
        tree = ast.parse(Path(cli.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
        imported = {part for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for name in (getattr(node, "module", None) or "", *(a.name for a in node.names))
                    for part in name.split(".")}
        assert not imported & (commands - {module}), (module, sorted(imported & commands))


def _perfbench_targets() -> list[str]:
    """The `happygrid.cli.*` names perfbench/run.py wraps, read from its source."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "run.py").read_text())
    found = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("SPANNED", "CACHE_LOADER")}
    targets = [*found["SPANNED"].values(), found["CACHE_LOADER"][1]]
    assert targets and all(t.startswith("happygrid.cli.") for t in targets)
    return [t.removeprefix("happygrid.cli.") for t in targets]


@pytest.mark.parametrize("module", ["digitcli", "certcli", "gridcli", "shares"])
def test_command_modules_call_bound_names_through_cli(module):
    # a command module calls every library function that cli binds through
    # cli, and imports none of them: perfbench wraps, and tests patch, those
    # names on cli, and a name the module imported for itself would slip
    # past both; the same holds for the constants cli defines
    src = Path(cli.__file__).with_name(f"{module}.py")
    tree = ast.parse(src.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not any(isinstance(node, ast.ImportFrom) and node.module == "cli"
                   for node in ast.walk(tree))
    bound = {*_perfbench_targets(), *(name for names in cli._HOMES.values() for name in names),
             *(name for name in vars(cli) if name.isupper())}
    assert not imported & bound, sorted(imported & bound)


def test_no_perfbench_layer_goes_silent(monkeypatch, capsys, tmp_path):
    # each name perfbench wraps on cli, counted where cli binds it, is called
    # by the commands perfbench runs; a command module that imported one for
    # itself would leave its layer reading zero
    counts = dict.fromkeys(_perfbench_targets(), 0)
    for name in counts:
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    (tmp_path / "grid.txt").write_text(WORKED_GRID, encoding="utf-8")
    grid = str(tmp_path / "grid.txt")
    cache = ["--cache-dir", str(tmp_path / "cache")]
    for argv in (["certify", "--json"], ["classify", "7", *cache], ["classify", "7", *cache],
                 ["traj", "7"], ["grid", "sort", grid, "--mode", "both"],
                 ["grid", "sort", grid, "--mode", "bubble", "--trace", "--json"],
                 ["grid", "verify"]):
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert all(counts.values()), sorted(name for name, count in counts.items() if not count)


def test_lazy_names_resolve_to_their_modules():
    for name in _perfbench_targets():
        value = getattr(cli, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
    for home, names in happygrid._HOMES.items():
        for name in names:
            assert getattr(happygrid, name) is getattr(
                importlib.import_module(f"happygrid.{home}"), name)
    assert set(happygrid.__all__) == {n for names in happygrid._HOMES.values() for n in names}
    namespace: dict = {}
    exec("from happygrid import *", namespace)
    assert set(happygrid.__all__) <= namespace.keys()
    assert happygrid.TooLargeError is bounds.TooLargeError
    # the import machinery probes for these and needs AttributeError
    for module in (happygrid, cli):
        for name in ("no_such_name", "__path__", "shares"):
            with pytest.raises(AttributeError):
                module.__getattr__(name)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_traj_writes_each_step_as_it_goes(monkeypatch, json_flag):
    # the walk of 5 in (10, 40) has 2,018 steps, their decimal strings
    # 0.17 MiB; a list of them all made the output's peak 0.30-0.39 MiB, and
    # written one at a time it is 0.08-0.11 MiB, mostly the parser
    walk = step_until_repeat(5, DigitSystem(10, 40), 10**4)
    texts = sum(sys.getsizeof(str(v)) for v in walk.steps)
    monkeypatch.setattr(cli, "step_until_repeat", lambda *_: walk)
    argv = ["traj", "5", "--exp", "40", *json_flag]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < texts, f"peak {peak / 2**20:.2f} MiB, steps {texts / 2**20:.2f} MiB"
    written = out.getvalue()
    if json_flag:
        assert json.loads(written)["steps"] == [str(v) for v in walk.steps]
    else:
        assert written.splitlines()[1] == "orbit: " + " ".join(map(str, walk.steps))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert "happygrid" in capsys.readouterr().out
