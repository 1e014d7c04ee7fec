"""Run every workload once and print each end-to-end metric with its unit.

    python3 perfbench/report.py [--seed 1]

Workloads run one after another, each in its own `run.py --trace 0`
process, for the run_seconds that BENCHMARK.json sets.  Beside the metrics
it prints fail_ratio (failed / attempted), the name `work_per_s` goes by
on that workload, the op that set peak_rss_mb, and the query workload's
cold_latency_p50_ms.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    status = 0
    for name in [w["name"] for w in SPEC["workloads"]]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: run failed ({done.returncode}): {done.stderr.strip()[-300:]}")
            status = 1
            continue
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        print(f"== {name}  (seed {args.seed}, python {info['python']}, "
              f"nproc {info['nproc']}, {info['cpu']})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<44} {entry['value']:>16.6g} {entry['unit']}")
        alias = info["alias"]
        extras = {
            "fail_ratio": (result["failed"] / result["attempted"],
                           f"ratio ({result['failed']}/{result['attempted']})"),
            f"{info['latency_tail_pct']}th percentile tail, ops beyond it": (
                info["ops_beyond_tail"], "count"),
            f"{alias} (= work_per_s)": (info[alias], f"{info['work_unit']}/s"),
        }
        if "cold_latency_p50_ms" in info:
            extras[f"cold_latency_p50_ms ({info['cold_ops']} cold ops)"] = (
                info["cold_latency_p50_ms"], "ms")
        for label, (value, unit) in extras.items():
            print(f"  {label:<44} {value:>16.6g} {unit}")
        print(f"  peak_rss_mb set by: {info['peak_rss_op']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
