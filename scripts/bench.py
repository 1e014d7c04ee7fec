#!/usr/bin/env python3
"""Record a BENCH file: the end-to-end benchmark of one checkout, every workload, several seeds.

    python scripts/bench.py CHECKOUT BENCH_2.json --seeds 1 2 3

Runs the checkout's own `perfbench/run.py --trace 0`, unchanged, once for
each workload and seed, one run at a time, and writes one JSON file: the
checkout's commit (marked "-dirty" when its files differ from it), the
machine as the runs' info lines give it (python, nproc, cpu), and each
run's result line.  The workloads and the seconds a run lasts are those
of the checkout's BENCHMARK.json.  Compare two files of the same machine
only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

MACHINE = ("python", "nproc", "cpu")


def commit_of(checkout: Path) -> str | None:
    """The checkout's commit, with "-dirty" if its files differ from it; None
    outside a git checkout."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return None
    changed = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True)
    return head.stdout.strip() + ("-dirty" if changed.stdout.strip() else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(info, result): the last two lines of one perfbench run, as JSON."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def record(checkout: Path, workloads: list[str], seeds: list[int], seconds: float) -> dict:
    commit, runs, machine = commit_of(checkout), [], None
    for seed in seeds:
        for workload in workloads:
            info, result = run_once(checkout, workload, seed, seconds)
            this = {key: info[key] for key in MACHINE}
            if machine not in (None, this):
                raise RuntimeError(f"runs on two machines: {machine} and {this}")
            machine = this
            runs.append({"workload": workload, "seed": seed, "result": result})
            metrics = result["metrics"]
            print(f"{workload} seed {seed}: correct {result['correct']}  "
                  + "  ".join(f"{name} {m['value']:.6g}" for name, m in metrics.items()),
                  file=sys.stderr)
    return {"commit": commit, **(machine or {}), "seconds": seconds, "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="a checkout holding perfbench/run.py")
    parser.add_argument("out", type=Path, help="the BENCH file to write")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    declared = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    bench = record(checkout, [w["name"] for w in declared["workloads"]], args.seeds,
                   declared["run_seconds"])
    args.out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
