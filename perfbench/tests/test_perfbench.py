"""Tests of the benchmark's own logic: oracles, checker, spans, workloads.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, self_time_by_name, self_times  # noqa: E402
from workloads import TINY, WORKLOADS, Op  # noqa: E402


def classify_op(start: str) -> Op:
    return Op("classify", ["classify", start, "--json"], work=1,
              check=lambda rec: oracle.same(rec, oracle.expect_classify(start, 10, 2)))


def classify_stdout(start: str, happy: bool, members: list[str]) -> str:
    return json.dumps({
        "base": 10, "exponent": 2, "start": start, "happy": happy,
        "attractor": {"kind": "fixed_point" if len(members) == 1 else "cycle",
                      "length": len(members), "members": members},
    })


def test_checker_accepts_the_right_answer():
    assert oracle.check_output(classify_op("7"), 0, classify_stdout("7", True, ["1"]), "") is None


def test_checker_rejects_a_wrong_answer():
    wrong = classify_stdout("7", False, ["4", "16", "37", "58", "89", "145", "42", "20"])
    assert oracle.check_output(classify_op("7"), 0, wrong, "") is not None


def test_checker_rejects_a_nonzero_exit_code():
    right = classify_stdout("7", True, ["1"])
    assert "exit code 1" in oracle.check_output(classify_op("7"), 1, right, "error")


def test_checker_rejects_a_silent_cache_rebuild():
    op = classify_op("7")
    op.cache = "reject"
    assert oracle.check_output(op, 0, classify_stdout("7", True, ["1"]), "") is not None


@pytest.mark.parametrize("state", ["warm", "miss", "none"])
def test_checker_rejects_a_warning_unless_the_cache_was_truncated(state):
    op = classify_op("7")
    op.cache = state
    warning = "warning: ignoring corrupt atlas cache atlas-b10-e2.json: bad JSON\n"
    assert "unexpected warning" in oracle.check_output(
        op, 0, classify_stdout("7", True, ["1"]), warning)


def test_certify_check_rejects_a_wrong_stage_field():
    a = oracle.atlas(10, 2)
    stages = [
        {"name": "threshold-inequality", "ok": True, "p0": 4},
        {"name": "forward-invariance", "ok": True, "bound": "999", "checked": 1000,
         "max_image": str(a.max_image)},
        {"name": "attractor-enumeration", "ok": True, "fixed_points": 2, "cycles": 1,
         "max_transient": a.max_transient},
        {"name": "range-verification", "ok": True, "lo": "0", "hi": "999",
         "checked": 1000, "max_transient": a.max_transient},
        {"name": "three-digit-identity", "ok": True, "checked": 900},
        {"name": "two-digit-brute-force", "ok": True, "checked": 100},
    ]
    record = {"base": 10, "exponent": 2, "ok": True, "stages": stages}
    assert oracle.check_certify(record, 10, 2) is None
    stages[3]["max_transient"] += 1
    assert "range-verification" in oracle.check_certify(record, 10, 2)


def test_grid_check_rejects_a_wrong_sort():
    grid = [[3, 1], [0, 2]]
    record = {"input": grid, "rows_sorted": [[1, 3], [0, 2]], "output": [[0, 2], [1, 3]]}
    assert oracle.check_grid_sort(record, grid, "both", False) is None
    record["output"] = [[1, 3], [0, 2]]
    assert oracle.check_grid_sort(record, grid, "both", False) is not None


def test_oracle_reproduces_the_squares_atlas():
    a = oracle.atlas(10, 2)
    assert (a.p0, a.bound, a.fixed_points) == (4, 999, (0, 1))
    assert a.cycles == ((4, 16, 37, 58, 89, 145, 42, 20),)


def test_digits_by_long_division_agree_with_int():
    rng = random.Random(5)
    for base in (2, 6, 7, 10):
        for _ in range(50):
            n = rng.randrange(10**40)
            digits = oracle.digits_in_base(str(n), base)
            assert sum(d * base**i for i, d in enumerate(digits)) == n
            assert all(0 <= d < base for d in digits)


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("c", 6.0, 7.0, 2, 0),
        Span("d", 6.5, 8.0, 2, 0),   # overlaps c: the union 6..8 counts once
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])
    assert self_time_by_name(spans + [Span("a", 11.0, 12.0, -1, 1)])["a"] == pytest.approx(4.0)


def test_tracer_reports_a_missing_function_as_absent():
    tracer = Tracer()
    tracer.span("happygrid.cli.no_such_function", "cli.gone")
    tracer.restore()
    assert tracer.absent == ["happygrid.cli.no_such_function"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_completes_at_tiny_size(name, tmp_path):
    workload = WORKLOADS[name]
    metrics, info, attempted, failed = run.measure(workload, 1, 0, tmp_path / "w", TINY)
    assert (failed, info["failures"]) == (0, [])
    assert attempted == info["ops_per_pass"] > 0
    assert list(metrics) == list(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())

    layers, info, _, failed = run.traced(workload, 1, tmp_path / "w", TINY)
    assert (failed, info["failures"], info["absent"]) == (0, [], [])
    assert list(layers) == list(run.PER_LAYER)
    again, _, _, _ = run.traced(workload, 1, tmp_path / "w", TINY)
    for count in [n for n, unit in run.PER_LAYER.items() if unit == "count"]:
        assert layers[count] == again[count], count
