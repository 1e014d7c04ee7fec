"""The four workloads: seeded inputs, set-up, and one pass of CLI ops each.

A workload's set-up generates every input from the seed, writes grid
files and pre-warms atlas caches through the CLI itself, and returns the
op list of one pass.  The benchmark repeats that pass; every op is one
`python -m happygrid ...` command whose output an oracle checks.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY lets tests finish quickly."""

    certify_systems: tuple[tuple[int, int], ...]
    huge_digits: tuple[int, ...]
    query_systems: tuple[tuple[int, int], ...]
    query_warm_per_system: int
    query_max_digits: int
    grid_verify: tuple[int, int, int]      # rows, cols, trials
    grid_exhaustive: tuple[int, int, int]  # rows, cols, alphabet
    grid_sort: int                         # side of the square sort grid
    grid_trace: int                        # side of the square traced grid
    probe_system: tuple[int, int]          # digitmap probe over [0, B]
    probe_digits: tuple[int, ...]          # digitmap / natural_arg probes


FULL = Sizes(
    certify_systems=((10, 2), (10, 3), (10, 4), (7, 5), (6, 5)),
    huge_digits=(10_000, 30_000, 60_000),
    query_systems=((10, 2), (10, 3), (10, 4), (7, 5), (6, 5)),
    # 8 warm + 2 cold ops per system: the cold ops of (7,5) and (10,4) are
    # the slowest 8% of a pass and those of (6,5) the next 4%, so p90 falls
    # in the middle of (6,5)'s cold samples, not on a boundary between systems.
    query_warm_per_system=8,
    query_max_digits=300,
    grid_verify=(8, 8, 10_000),
    grid_exhaustive=(3, 3, 3),
    # Sizes that keep the latencies of the ops at p50 (exhaustive verify) and
    # p90 (random verify) at least 1.5x from their neighbours', so each sits
    # inside one op's samples, and a pass short.  The traced sort's output
    # grows as side^4: at 28 it is the op that sets peak RSS (~48 MB against
    # at most 26 MB for any other grid op) and stays 2x below the p50 op.
    grid_sort=180,
    grid_trace=28,
    probe_system=(10, 4),
    probe_digits=(10_000, 30_000, 60_000),
)

TINY = Sizes(
    certify_systems=((10, 2), (6, 3)),
    huge_digits=(1_000, 2_000),
    query_systems=((10, 2), (6, 3)),
    query_warm_per_system=4,
    query_max_digits=30,
    grid_verify=(3, 3, 20),
    grid_exhaustive=(2, 2, 2),
    grid_sort=6,
    grid_trace=4,
    probe_system=(10, 2),
    probe_digits=(100, 300, 600),
)


@dataclass
class Op:
    """One CLI command, its work units, and how to check what it prints."""

    kind: str
    argv: list[str]
    work: int
    check: Callable[[dict], str | None]
    cache: str = "none"   # none | warm | miss (file removed) | reject (file truncated)
    cache_file: Path | None = None
    truncated: bytes = b""

    @property
    def cold(self) -> bool:
        return self.cache in ("miss", "reject")

    @property
    def warns(self) -> bool:
        return self.cache == "reject"

    def prepare(self) -> None:
        """Put the atlas cache into the state this op is meant to meet."""
        if self.cache == "miss":
            self.cache_file.unlink(missing_ok=True)
        elif self.cache == "reject":
            # what a crash halfway through the non-atomic cache write leaves
            self.cache_file.write_bytes(self.truncated)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str          # what one unit of `work_per_s` is on this workload
    alias: str         # the name `work_per_s` goes by on this workload
    # Scale this workload's times by the reference loop (see run.py), since
    # its ops are interpreter-bound, which a busy host slows by up to 2x.
    # Big-int arithmetic (huge) barely follows that loop, so it is not scaled.
    steadied: bool
    setup: Callable[[random.Random, Cli, Path, Sizes], list[Op]] = field(repr=False)


# ------------------------------- the CLI ----------------------------------

@dataclass(frozen=True)
class Spawned:
    code: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: str
    stderr: str
    reference_s: float | None


class Cli:
    """One closed-loop client: runs `python -m happygrid argv` to completion.

    Children are started by spawner.py, a small helper process, so that
    their reported peak RSS is their own; see that file.  Use as a context
    manager: leaving it stops the helper and waits for it.
    """

    def __init__(self, root: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env, text=True)

    def __enter__(self) -> Cli:
        return self

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(BrokenPipeError):
            self._helper.stdin.close()
        self._helper.wait(timeout=60)
        self._helper.stdout.close()

    def run(self, argv: list[str], outdir: Path, reference: bool = False) -> Spawned:
        """Run one command, stdout and stderr to files so it never blocks.

        With `reference`, the helper times its reference loop just before.
        """
        out_path, err_path = outdir / "stdout", outdir / "stderr"
        self._helper.stdin.write(json.dumps(
            {"argv": argv, "stdout": str(out_path), "stderr": str(err_path),
             "reference": reference}) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        result = json.loads(reply)
        return Spawned(result["code"], result["wall_s"], result["cpu_s"], result["rss_kb"],
                       out_path.read_text(encoding="utf-8"),
                       err_path.read_text(encoding="utf-8"), result["reference_s"])


def _must_run(cli: Cli, argv: list[str], workdir: Path) -> None:
    result = cli.run(argv, workdir)
    if result.code != 0:
        raise RuntimeError(f"set-up command {argv} exited {result.code}: "
                           f"{result.stderr.strip()[-300:]}")


def decimal(rng: random.Random, digits: int) -> str:
    """A uniformly random decimal string of exactly `digits` digits."""
    if digits == 1:
        return str(rng.randrange(10))
    return str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=digits - 1))


def _system_flags(base: int, exp: int) -> list[str]:
    return ["--base", str(base), "--exp", str(exp)]


# ------------------------------ workloads ---------------------------------

EXPECT = {"classify": oracle.expect_classify, "happy": oracle.expect_happy,
          "traj": oracle.expect_traj}


def setup_certify(rng, cli, workdir, sizes) -> list[Op]:
    _must_run(cli, ["--version"], workdir)
    systems = list(sizes.certify_systems)
    rng.shuffle(systems)
    return [
        Op("certify", ["certify", "--json", *_system_flags(b, e)],
           work=oracle.threshold(b, e)[1] + 1,
           check=lambda rec, b=b, e=e: oracle.check_certify(rec, b, e))
        for b, e in systems
    ]


def setup_huge(rng, cli, workdir, sizes) -> list[Op]:
    cache = workdir / "cache"
    _must_run(cli, ["attractors", "--json", "--cache-dir", str(cache)], workdir)
    starts = [decimal(rng, n) for n in sizes.huge_digits]
    commands = list(EXPECT)
    rng.shuffle(commands)
    ops = []
    for i, start in enumerate(starts):
        cmd = commands[i % len(commands)]
        argv = [cmd, start, "--json"]
        if cmd != "traj":
            argv += ["--cache-dir", str(cache)]
        ops.append(Op(cmd, argv, work=len(start),
                      check=lambda rec, f=EXPECT[cmd], s=start: oracle.same(rec, f(s, 10, 2)),
                      cache="none" if cmd == "traj" else "warm"))
    return ops


def setup_query(rng, cli, workdir, sizes) -> list[Op]:
    cache = workdir / "cache"
    ops = []
    for b, e in sizes.query_systems:
        flags = _system_flags(b, e)
        _must_run(cli, ["attractors", "--json", *flags, "--cache-dir", str(cache)], workdir)
        cache_file = cache / f"atlas-b{b}-e{e}.json"
        good = cache_file.read_bytes()
        cached = dict(cache_file=cache_file, truncated=good[: len(good) // 2])
        commands = ["classify", "happy", "traj", "attractors"]
        # cold ops are all `classify`, so every seed runs the same mix of commands
        kinds = [commands[i % 4] for i in range(sizes.query_warm_per_system)]
        kinds += ["classify", "classify"]
        states = ["warm"] * sizes.query_warm_per_system + ["miss", "reject"]
        for cmd, state in zip(kinds, states):
            argv = [cmd]
            if cmd == "attractors":
                check = (lambda rec, b=b, e=e: oracle.same(
                    {k: v for k, v in rec.items() if k != "created_by"},
                    oracle.expect_attractors(b, e)))
            else:
                start = decimal(rng, rng.randint(1, sizes.query_max_digits))
                argv.append(start)
                check = (lambda rec, f=EXPECT[cmd], s=start, b=b, e=e:
                         oracle.same(rec, f(s, b, e)))
            argv += ["--json", *flags]
            if cmd == "traj":
                ops.append(Op(cmd, argv, work=1, check=check))
            else:
                ops.append(Op(cmd, argv + ["--cache-dir", str(cache)], work=1,
                              check=check, cache=state, **cached))
    rng.shuffle(ops)
    return ops


def _grid_text(grid: list[list[int]]) -> str:
    return "\n".join(" ".join(map(str, row)) for row in grid) + "\n"


def setup_grid(rng, cli, workdir, sizes) -> list[Op]:
    _must_run(cli, ["--version"], workdir)
    ops = []
    rows, cols, trials = sizes.grid_verify
    seed = rng.randrange(2**31)
    ops.append(Op("grid-verify-random",
                  ["grid", "verify", "--rows", str(rows), "--cols", str(cols),
                   "--trials", str(trials), "--seed", str(seed), "--json"],
                  work=trials * rows * cols,
                  check=lambda rec, want={"ok": True, "checked": trials, "rows": rows,
                                          "cols": cols, "mode": "random", "seed": seed,
                                          "counterexample": None}: oracle.same(rec, want)))
    rows, cols, alphabet = sizes.grid_exhaustive
    grids = alphabet ** (rows * cols)
    ops.append(Op("grid-verify-exhaustive",
                  ["grid", "verify", "--exhaustive", "--rows", str(rows), "--cols",
                   str(cols), "--alphabet", str(alphabet), "--json"],
                  work=grids * rows * cols,
                  check=lambda rec, want={"ok": True, "checked": grids, "rows": rows,
                                          "cols": cols, "mode": "exhaustive", "seed": None,
                                          "counterexample": None}: oracle.same(rec, want)))
    for side, modes in ((sizes.grid_sort, (("both", False), ("bubble", False))),
                        (sizes.grid_trace, (("bubble", True),))):
        grid = [[rng.randint(-1000, 1000) for _ in range(side)] for _ in range(side)]
        path = workdir / f"grid-{side}.txt"
        path.write_text(_grid_text(grid), encoding="utf-8")
        for mode, trace in modes:
            argv = ["grid", "sort", str(path), "--mode", mode, "--json"]
            if trace:
                argv.append("--trace")
            ops.append(Op(f"grid-sort-{mode}{'-trace' if trace else ''}", argv,
                          work=side * side,
                          check=lambda rec, g=grid, m=mode, t=trace:
                              oracle.check_grid_sort(rec, g, m, t)))
    return ops


WORKLOADS = {w.name: w for w in (
    Workload(
        "certify",
        "certify --json over systems with B from 1e3 to 1e5: the certification "
        "stages and the small-integer map do nearly all the work; no cache, no big ints",
        "values", "certify_values_per_s", True, setup_certify),
    Workload(
        "huge",
        "classify/happy/traj on 1e4-6e4-digit starts with a warm cache: argv "
        "parsing and the big-int map are the whole cost; atlas and certify paths idle",
        "digits", "huge_digits_per_s", False, setup_huge),
    Workload(
        "query",
        "short classify/happy/traj/attractors commands, mostly warm, with a fixed "
        "share of missing and truncated caches: start-up, cache load, rebuild, write",
        "ops", "query_ops_per_s", True, setup_query),
    Workload(
        "grid",
        "grid verify (random, exhaustive) and grid sort (both, bubble, traced bubble): "
        "only gridsort and the CLI's parse and render work; digit layers idle",
        "cells", "grid_cells_per_s", True, setup_grid),
)}

