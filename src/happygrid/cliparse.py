"""The CLI's argument grammar: argument types, flags and the parser.

Each command records the name of its handler in `handler`; `cli.main`
looks that name up among its commands and runs it.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from . import __version__

DEFAULT_CACHE_DIR = Path.home() / ".cache" / "happygrid"


# ----------------------------- argument types ------------------------------

def start_arg(text: str) -> str:
    # The digits without leading zeros: output echoes them, and a long
    # base-10 start is never converted (see cli._start_value).  ASCII only,
    # like the grid parser: str.isdigit alone also accepts fullwidth and
    # superscript digits.
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a nonnegative decimal integer: {text!r}")
    return text.lstrip("0") or "0"


def natural_arg(text: str) -> int:
    return int(start_arg(text))


def ascii_int(text: str) -> int:
    # int() also reads fullwidth and other Unicode digits.
    if not text.isascii():
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


# argparse names the type in its message: keep "invalid int value: ..."
ascii_int.__name__ = "int"


def int_at_least(minimum: int, message: str):
    """An argparse type for integers >= minimum, ASCII only; errors quote the text."""
    def parse(text: str) -> int:
        try:
            value = ascii_int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{message}, got {text!r}")
        return value
    return parse


base_arg = int_at_least(2, "base must be an integer >= 2")
exponent_arg = int_at_least(1, "exponent must be an integer >= 1")
positive_arg = int_at_least(1, "expected a positive integer")


# --------------------------------- parser ----------------------------------

def _add_system_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--base", type=base_arg, default=10,
                        help="digit base, >= 2 (default 10)")
    parser.add_argument("--exp", type=exponent_arg, default=2,
                        help="digit exponent, >= 1 (default 2)")
    parser.add_argument("--json", action="store_true",
                        help="emit one canonical JSON record")


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", type=Path, default=DEFAULT_CACHE_DIR,
                        help=f"atlas cache directory (default {DEFAULT_CACHE_DIR})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="happygrid",
        description="Digit-power-sum orbits with certified attractor atlases, "
                    "and the sorted-rows-stay-sorted grid theorem.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    traj = commands.add_parser("traj", help="iterate the map from N until a repeat")
    traj.add_argument("n", type=start_arg, metavar="N",
                      help="start value, any number of decimal digits")
    traj.add_argument("--max-steps", type=positive_arg, default=None,
                      help="step budget (default: certified bound)")
    _add_system_flags(traj)
    traj.set_defaults(handler="cmd_traj")

    cls = commands.add_parser("classify", help="name the attractor N reaches")
    cls.add_argument("n", type=start_arg, metavar="N")
    _add_system_flags(cls)
    _add_cache_flag(cls)
    cls.set_defaults(handler="cmd_classify")

    happy = commands.add_parser("happy", help="does the orbit of N reach 1?")
    happy.add_argument("n", type=start_arg, metavar="N")
    _add_system_flags(happy)
    _add_cache_flag(happy)
    happy.set_defaults(handler="cmd_classify")

    attractors = commands.add_parser(
        "attractors", help="the certified attractor atlas of a digit system")
    _add_system_flags(attractors)
    _add_cache_flag(attractors)
    attractors.set_defaults(handler="cmd_attractors")

    certify = commands.add_parser(
        "certify", help="run every certification stage for a digit system")
    _add_system_flags(certify)
    certify.add_argument("--p-max", type=positive_arg, default=100,
                         help="top of the threshold inequality scan (default 100)")
    certify.add_argument("--lo", type=natural_arg, default=None,
                         help="range verification start (default 0)")
    certify.add_argument("--hi", type=natural_arg, default=None,
                         help="range verification end (default brute bound)")
    certify.add_argument("--max-steps", type=positive_arg, default=None,
                         help="per-value step budget for range verification")
    certify.add_argument("--drop-attractor", type=natural_arg, default=None,
                         help=argparse.SUPPRESS)  # test hook: truncate the atlas
    certify.set_defaults(handler="cmd_certify")

    grid = commands.add_parser("grid", help="integer grid sorting")
    grid_commands = grid.add_subparsers(dest="grid_command", required=True)

    gsort = grid_commands.add_parser("sort", help="sort a grid from a file or stdin")
    gsort.add_argument("file", nargs="?", default="-",
                       help="grid file; '-' or omitted reads stdin")
    gsort.add_argument("--mode", choices=("rows", "cols", "both", "bubble"),
                       default="both",
                       help="rows, cols, rows-then-cols, or bubble passes")
    gsort.add_argument("--trace", action="store_true",
                       help="with --mode bubble, print every merge snapshot")
    gsort.add_argument("--json", action="store_true",
                       help="emit one canonical JSON record")
    gsort.set_defaults(handler="cmd_grid_sort")

    gverify = grid_commands.add_parser(
        "verify", help="check the sorting theorem on generated grids")
    gverify.add_argument("--rows", type=positive_arg, default=3)
    gverify.add_argument("--cols", type=positive_arg, default=3)
    gverify.add_argument("--trials", type=positive_arg, default=1000,
                         help="number of random grids (default 1000)")
    gverify.add_argument("--seed", type=ascii_int, default=0,
                         help="random seed; reproducers quote it")
    gverify.add_argument("--min", type=ascii_int, default=-1000,
                         help="smallest entry value (default -1000)")
    gverify.add_argument("--max", type=ascii_int, default=1000,
                         help="largest entry value (default 1000)")
    gverify.add_argument("--exhaustive", action="store_true",
                         help="enumerate every grid over --alphabet instead")
    gverify.add_argument("--alphabet", type=positive_arg, default=3,
                         help="exhaustive mode uses entries 0..K-1 (default 3)")
    gverify.add_argument("--json", action="store_true",
                         help="emit one canonical JSON record")
    gverify.set_defaults(handler="cmd_grid_verify")

    return parser
