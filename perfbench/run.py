"""The happygrid benchmark: one closed-loop client driving the CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is `src/` of the checkout that
holds this file.  One `python -m happygrid ...` child runs at a time.

--trace 0 sets the workload up at least SETUPS times, and more while
SETUP_BUDGET_S lasts (set-up time is their median), then repeats whole passes of its op list until --seconds have
passed, checks every output against an independent oracle, and reports
the end-to-end metrics.  On a shared host, interpreter-bound code runs up
to 2x slower in spells of seconds to minutes; the certify, query and grid
workloads, whose ops are mostly such code, therefore scale each op's
times to the speed at which a fixed reference loop, timed just before and
after the op, takes REFERENCE_S.  Their unscaled figures are in the info
line.  The big-int arithmetic of the huge workload barely slows, and its
op times are not scaled.  Set-up, which is CLI start-up and atlas
enumeration on every workload, is scaled the same way on all four.

--trace 1 replays one pass in this process through `happygrid.cli.main`,
once plain and once with spans around the layer functions, runs direct
probes of the digit map and the argv parser, and reports per-layer
metrics.  End-to-end numbers come only from --trace 0.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The line before it records the machine, the seed and the
workload's reason.  Spans go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracle
from spans import Tracer, self_time_by_name
from spawner import reference_loop
from workloads import FULL, WORKLOADS, Cli, Op, Sizes, Spawned, Workload, decimal

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5             # least set-ups per run; setup_s is their median
SETUP_BUDGET_S = 2.0   # cheap set-ups repeat until this much time has gone to them
MAX_SETUPS = 25
TAIL_PCT = 90       # the tail percentile on every workload
STARTUP_REPS = 5
REFERENCE_S = 0.020  # the reference loop's time on a quiet 2-vCPU Xeon host

END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "work/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

# Layer functions, wrapped where happygrid.cli binds them.
SPANNED = {
    "certify.threshold_inequality_check": "happygrid.cli.threshold_inequality_check",
    "certify.forward_invariance_scan": "happygrid.cli.forward_invariance_scan",
    "certify.enumerate_attractors": "happygrid.cli.enumerate_attractors",
    "certify.verify_range": "happygrid.cli.verify_range",
    "certify.three_digit_identity_check": "happygrid.cli.three_digit_identity_check",
    "certify.validate_atlas": "happygrid.cli.validate_atlas",
    "certify.default_step_budget": "happygrid.cli.default_step_budget",
    "dynamics.classify": "happygrid.cli.classify",
    "dynamics.step_until_repeat": "happygrid.cli.step_until_repeat",
    "cli.save_atlas": "happygrid.cli.save_atlas",
    "cli.render": "happygrid.cli.dumps_canonical",
    "gridsort.parse_grid": "happygrid.cli.parse_grid",
    "gridsort.sort_rows": "happygrid.cli.sort_rows",
    "gridsort.sort_cols": "happygrid.cli.sort_cols",
    "gridsort.bubble_column_sort": "happygrid.cli.bubble_column_sort",
    "gridsort.trace_bubble": "happygrid.cli.trace_bubble",
}
CACHE_LOADER = ("cli.load_cached_atlas", "happygrid.cli.load_cached_atlas")
COUNTED = {
    "digitmap.calls.certify": "happygrid.certify.digit_power_sum",
    "digitmap.calls.dynamics": "happygrid.dynamics.digit_power_sum",
    "gridsort.two_row_minmax.calls": "happygrid.gridsort.two_row_minmax",
}
ROOT_SPAN = "cli.main"
SELF_PCT = [*SPANNED, CACHE_LOADER[0], ROOT_SPAN]
HUGE_PROBES = ("d1e4", "d3e4", "d6e4")   # one per entry of Sizes.probe_digits

PER_LAYER = {
    "digitmap.small_ns_per_call": "ns",
    **{f"digitmap.huge_ms_per_call.{p}": "ms" for p in HUGE_PROBES},
    "digitmap.calls.certify": "count",
    "digitmap.calls.dynamics": "count",
    "digitmap.evals_per_value": "ratio",
    "dynamics.steps_per_call": "ratio",
    "cli.startup_ms": "ms",
    "cli.parse_arg_s": "s",
    "cli.cache.hit": "count",
    "cli.cache.miss": "count",
    "cli.cache.reject": "count",
    "gridsort.two_row_minmax.calls": "count",
    **{f"{name}.self_pct": "%" for name in SELF_PCT},
    "trace.overhead_ratio": "ratio",
}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def environment(workload: Workload, seed: int) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"workload": workload.name, "why": workload.why, "seed": seed,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def set_up(workload: Workload, seed: int, cli: Cli, workdir: Path,
           sizes: Sizes) -> tuple[list[Op], float, float]:
    """Set the workload up afresh in `workdir`.

    Returns its ops, the time taken, and the mean time of the reference loop
    run just before and just after.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    rng = random.Random(f"{workload.name}:{seed}")
    before = reference_loop()
    start = time.perf_counter()
    ops = workload.setup(rng, cli, workdir, sizes)
    took = time.perf_counter() - start
    return ops, took, (before + reference_loop()) / 2


# ------------------------------ untraced run ------------------------------

def scale(result: Spawned, scaled: bool) -> float:
    """REFERENCE_S / the reference loop's time around the op, if `scaled`."""
    return REFERENCE_S / result.reference_s if scaled else 1.0


def end_to_end(ops: list[Op], passes: list[list[Spawned]], scaled: bool) -> dict:
    """Timing metrics of whole passes, each op's times multiplied by its scale."""
    walls = [r.wall_s * scale(r, scaled) for p in passes for r in p]
    work = sum(op.work for op in ops)
    return {
        "cpu_s": statistics.median(sum(r.cpu_s * scale(r, scaled) for r in p)
                                   for p in passes),
        "work_per_s": statistics.median(work / sum(r.wall_s * scale(r, scaled) for r in p)
                                        for p in passes),
        "latency_p50_ms": percentile(walls, 50) * 1000,
        "latency_tail_ms": percentile(walls, TAIL_PCT) * 1000,
    }


def measure(workload: Workload, seed: int, seconds: float, workdir: Path,
            sizes: Sizes = FULL) -> tuple[dict, dict, int, int]:
    """Whole passes of CLI subprocesses until `seconds` have passed."""
    setup_times = []
    setup_scaled = []
    passes = []
    failures = []
    with Cli(ROOT) as cli:
        while len(setup_times) < SETUPS or (
                sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS):
            ops, took, reference = set_up(workload, seed, cli, workdir, sizes)
            setup_times.append(took)
            setup_scaled.append(took * REFERENCE_S / reference)
        start = time.perf_counter()
        # Whole passes only, so every run weighs each op alike; stop when another
        # pass would end further past `seconds` than short of it.
        while not passes or (elapsed := time.perf_counter() - start) \
                + elapsed / len(passes) / 2 < seconds:
            results = []
            for op in ops:
                op.prepare()
                done = cli.run(op.argv, workdir, reference=workload.steadied)
                problem = oracle.check_output(op, done.code, done.stdout, done.stderr)
                if problem:
                    failures.append(f"{op.kind} {' '.join(op.argv)[:80]}: {problem}")
                results.append(done)
            passes.append(results)

    peak_kb, peak_op = max((r.rss_kb, op.kind) for p in passes for op, r in zip(ops, p))
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_kb / 1024,
        **end_to_end(ops, passes, workload.steadied),
    }
    metrics = {name: metrics[name] for name in END_TO_END}
    raw = end_to_end(ops, passes, False)
    walls = [r.wall_s for p in passes for r in p]
    cold = [r.wall_s * scale(r, workload.steadied)
            for p in passes for op, r in zip(ops, p) if op.cold]
    attempted = len(walls)
    info = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "measured_s": sum(walls),
        "work_unit": workload.unit,
        "alias": workload.alias,
        workload.alias: metrics["work_per_s"],
        "peak_rss_op": peak_op,
        "latency_tail_pct": TAIL_PCT,
        "ops_beyond_tail": sum(w > raw["latency_tail_ms"] / 1000 for w in walls),
        "fail_ratio": len(failures) / attempted,
        "steadied": workload.steadied,
        "unscaled": raw,
        "setup_unscaled_s": setup_times,
        "op_walls_ms": [[r.wall_s * 1000 for r in p] for p in passes],
        "failures": failures[:5],
    }
    if workload.steadied:
        info["reference_ms"] = [[r.reference_s * 1000 for r in p] for p in passes]
    if cold:
        info["cold_latency_p50_ms"] = percentile(cold, 50) * 1000
        info["cold_ops"] = len(cold)
    return metrics, info, attempted, len(failures)


# ------------------------------- traced run -------------------------------

def replay(ops: list[Op], tracer: Tracer | None = None) -> tuple[list[float], list[str]]:
    """Run each op through happygrid.cli.main in this process."""
    from happygrid import cli

    walls, failures = [], []
    for index, op in enumerate(ops):
        op.prepare()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if tracer is not None:
                tracer.op = index
                span = tracer.open(ROOT_SPAN)
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                # a crash inside the program is a failed op, not a failed benchmark
                code = -1
                traceback.print_exc()
            finally:
                if tracer is not None:
                    tracer.close(span)
            walls.append(time.perf_counter() - start)
        problem = oracle.check_output(op, code, out.getvalue(), err.getvalue())
        if problem:
            failures.append(f"{op.kind}: {problem}")
    return walls, failures


def probe_digitmap(seed: int, sizes: Sizes) -> dict:
    """Direct calls to digit_power_sum and natural_arg, apart from any op."""
    from happygrid.cli import natural_arg
    from happygrid.digitmap import DigitSystem, digit_power_sum

    sys.set_int_max_str_digits(0)
    system = DigitSystem(*sizes.probe_system)
    bound = oracle.threshold(*sizes.probe_system)[1]
    small = []
    for _ in range(3):
        start = time.perf_counter()
        for n in range(bound + 1):
            digit_power_sum(n, system)
        small.append((time.perf_counter() - start) / (bound + 1))
    metrics = {"digitmap.small_ns_per_call": statistics.median(small) * 1e9}

    rng = random.Random(f"probe:{seed}")
    squares = DigitSystem(10, 2)
    parse_s = 0.0
    for name, digits in zip(HUGE_PROBES, sizes.probe_digits):
        text = decimal(rng, digits)
        start = time.perf_counter()
        n = natural_arg(text)
        parse_s += time.perf_counter() - start
        start = time.perf_counter()
        image = digit_power_sum(n, squares)
        metrics[f"digitmap.huge_ms_per_call.{name}"] = (time.perf_counter() - start) * 1000
        if image != oracle.step(text, 10, 2):
            raise AssertionError(f"digit_power_sum disagrees with the oracle on {digits} digits")
    metrics["cli.parse_arg_s"] = parse_s
    return metrics


def startup_ms(op: Op, cli: Cli, workdir: Path) -> tuple[float, list[str]]:
    """Median subprocess wall time of `op` minus its in-process wall time."""
    spawned, failures = [], []
    for _ in range(STARTUP_REPS):
        op.prepare()
        done = cli.run(op.argv, workdir)
        problem = oracle.check_output(op, done.code, done.stdout, done.stderr)
        if problem:
            failures.append(f"{op.kind}: {problem}")
        spawned.append(done.wall_s)
    inproc, more = replay([op] * STARTUP_REPS)
    ms = (statistics.median(spawned) - statistics.median(inproc)) * 1000
    return ms, failures + more


def traced(workload: Workload, seed: int, workdir: Path,
           sizes: Sizes = FULL) -> tuple[dict, dict, int, int]:
    """One pass in process, plain then traced, plus probes: per-layer metrics."""
    with Cli(ROOT) as cli:
        ops, _, _ = set_up(workload, seed, cli, workdir, sizes)
        plain, failures = replay(ops)
        cheapest = min(range(len(ops)), key=plain.__getitem__)
        startup, more = startup_ms(ops[cheapest], cli, workdir)
    failures += more

    tracer = Tracer()
    for name, target in SPANNED.items():
        tracer.span(target, name)
    tracer.cache_outcomes(CACHE_LOADER[1], CACHE_LOADER[0])
    for name, target in COUNTED.items():
        tracer.count(target, name)
    try:
        walls, more = replay(ops, tracer)
    finally:
        tracer.restore()
    failures += more

    own = self_time_by_name(tracer.spans)
    op_time = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    counts = tracer.counts
    values = sum(op.work for op in ops if op.kind == "certify")
    walks = sum(1 for s in tracer.spans
                if s.name in ("dynamics.classify", "dynamics.step_until_repeat"))
    metrics = {
        **probe_digitmap(seed, sizes),
        **{name: counts[name] for name in COUNTED},
        **{f"cli.cache.{k}": counts[f"cli.cache.{k}"] for k in ("hit", "miss", "reject")},
        "digitmap.evals_per_value": counts["digitmap.calls.certify"] / values if values else 0.0,
        "dynamics.steps_per_call": counts["digitmap.calls.dynamics"] / walks if walks else 0.0,
        "cli.startup_ms": startup,
        **{f"{name}.self_pct": 100 * own[name] / op_time for name in SELF_PCT},
        "trace.overhead_ratio": sum(walls) / sum(plain),
    }
    metrics = {name: metrics[name] for name in PER_LAYER}

    out = workdir.parent / f"spans-{workload.name}-seed{seed}.json"
    out.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent", "op"],
        "ops": [op.argv[:1] + [a if len(a) <= 40 else f"<{len(a)} chars>" for a in op.argv[1:]]
                for op in ops],
        "spans": [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans],
    }), encoding="utf-8")
    info = {
        "self_s": {name: own[name] for name in SELF_PCT},
        "traced_op_s": op_time,
        "untraced_op_s": sum(plain),
        "spans": len(tracer.spans),
        "spans_file": str(out),
        "absent": tracer.absent,
        "failures": failures[:5],
    }
    attempted = 2 * len(ops) + 2 * STARTUP_REPS
    return metrics, info, attempted, len(failures)


# ---------------------------------- main ----------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "happygrid" / "cli.py").is_file():
        print(f"error: no happygrid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        if args.trace:
            metrics, info, attempted, failed = traced(workload, args.seed, workdir)
        else:
            metrics, info, attempted, failed = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    env = environment(workload, args.seed)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  cpu {env['cpu']}")
    print(f"why: {workload.why}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(json.dumps({"info": {**env, **info}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
