"""Runs `python -m happygrid` children one at a time for the benchmark.

Reads one JSON request per stdin line: {"argv": [...], "stdout": path,
"stderr": path, "reference": bool}.  Answers one JSON line per request
with the child's exit code, wall time from spawn to exit, CPU time and
peak RSS (from wait4), and, when asked, the mean time of the reference
loop run just before the child starts and just after it exits.

The kernel folds the RSS of the process that starts a child into that
child's ru_maxrss, so this process imports as little as it can: its own
RSS stays below that of any happygrid child, and the peak reported is the
child's.
"""

import json
import os
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of small-integer arithmetic.

    The same kind of work as the digit map's inner loop, so it slows down
    with the host exactly when interpreter-bound ops do.  Never change it:
    results are scaled by its time.
    """
    start = time.perf_counter()
    total = 0
    for n in range(40_000):
        while n:
            n, d = divmod(n, 10)
            total += d * d
    return time.perf_counter() - start


def main() -> None:
    python = sys.executable
    for line in sys.stdin:
        request = json.loads(line)
        reference = reference_loop() if request["reference"] else None
        start = time.perf_counter()
        pid = os.posix_spawn(python, [python, "-m", "happygrid", *request["argv"]],
                             os.environ, file_actions=[
                                 (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                                 (os.POSIX_SPAWN_OPEN, 1, request["stdout"], WRITE, 0o644),
                                 (os.POSIX_SPAWN_OPEN, 2, request["stderr"], WRITE, 0o644),
                             ])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        if reference is not None:
            reference = (reference + reference_loop()) / 2
        print(json.dumps({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "rss_kb": usage.ru_maxrss, "reference_s": reference}),
              flush=True)


if __name__ == "__main__":
    main()
