"""Command-line front end: orbits, atlases, certification, grid sorting.

Exit codes: 0 success, 1 verification or certification failure, 2 usage
or parse error.  Numbers cross the boundary as decimal strings so inputs
of hundreds of digits work; `--json` emits one canonical record per
invocation (sorted keys, fixed layout) so outputs are byte-stable.

This module is the core every command loads: the exit codes, `UsageError`,
the start-digit cap `main` reads, the canonical JSON text and its writer,
the argument grammar and `main`.  The commands live in `digitcli` (traj,
classify, happy, attractors), `certcli` (certify) and `gridcli` (grid
sort, grid verify), each with the caps its checks read, and none imports
another; grid verify's block size and share runner live in `shares`.
Without a bytecode cache every command compiles what it imports, so each
command loads only its own half of happygrid, and of the digit half only
what it runs: `traj` reads p0 and its step budget from `bounds` and never
loads `certify`, whose functions map values.

The library functions of `_HOMES` are bound here on first read (PEP 562):
each one perfbench wraps at `happygrid.cli` or a test patches here.  A
command module calls every one of them through this module and imports
none of them, so a wrapper or patch set here reaches every call.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__, _lazy_getattr
from .limits import TooLargeError

_HOMES = {
    "bounds": ("default_step_budget", "digit_reduction_threshold", "threshold_inequality_check"),
    "certify": ("enumerate_attractors", "forward_invariance_scan", "three_digit_identity_check",
                "validate_atlas", "verify_range"),
    "dynamics": ("classify", "step_until_repeat"),
    "gridsort": ("bubble_column_sort", "parse_grid", "sort_cols", "sort_rows", "trace_bubble"),
    "digitcli": ("load_cached_atlas", "save_atlas"),
}
__getattr__ = _lazy_getattr(globals(), _HOMES)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

# A start that is converted to an int holds at most this many digits; a
# base-10 start of p0 or more digits is not converted and has no limit.
# Conversion and the first step are both quadratic before CPython 3.12: in
# base 7 they take 0.11 + 0.22 s at 131,071 digits and 0.37 + 0.71 s at
# 250,000 (Python 3.11, 2-vCPU Xeon).  cli.main lifts the interpreter's
# int-string limit to this.
MAX_START_DIGITS = 250_000

DEFAULT_CACHE_DIR = Path.home() / ".cache" / "happygrid"


class UsageError(Exception):
    """A request that cannot be served as asked: main prints it and exits 2."""


# --------------------------- canonical structured output -------------------

def dumps_canonical(record: dict) -> str:
    """One canonical JSON record: sorted keys, two-space indent, newline.

    Byte for byte json.dumps(record, sort_keys=True, indent=2) + "\\n", joined
    from strings instead of run through the stdlib's pure-Python encoder.
    Any other JSON value renders the same way.
    """
    return render(record, "\n") + "\n"


class Json(str):
    """Canonical JSON text rendered at the depth where it is written: render
    copies it as it is."""


def render(value, newline: str) -> str:
    """One value of a canonical record; newline ends a line at its depth."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is Json:
        return value
    if kind is int:
        return repr(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    inner = newline + "  "
    if kind is dict and value and all(type(key) is str for key in value):
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(key) + ": " + render(item, inner)
            for key, item in sorted(value.items())) + newline + "}"
    if (kind is list or kind is tuple) and value:
        kinds = set(map(type, value))
        items = (map(repr, value) if kinds == {int} else value if kinds == {Json}
                 else (render(item, inner) for item in value))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    # floats, empty containers, other keys and types: the stdlib, indented to
    # this depth (a JSON string holds no raw newline)
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", newline)


def _write_canonical(record: dict) -> None:
    """Write dumps_canonical(record) to stdout; every `--json` record goes out here.

    A list, tuple or iterator value is written as a list item by item, each
    item rendered at its depth, so no array is held rendered whole and a
    long trace is written as it is made.  Indenting a rendered value to its
    depth is exact: a canonical record holds no raw newline inside a string.
    """
    write = sys.stdout.write
    lead = "{"
    for key, value in sorted(record.items()):
        write(lead + "\n  " + encode_basestring_ascii(key) + ": ")
        lead = ","
        if not isinstance(value, (list, tuple, Iterator)):
            write(dumps_canonical(value)[:-1].replace("\n", "\n  "))
            continue
        opening = "["
        for item in value:
            write(opening + "\n    ")
            write(render(item, "\n    "))
            opening = ","
        write("[]" if opening == "[" else "\n  ]")
    write("{}\n" if lead == "{" else "\n}\n")


# ----------------------------- argument types ------------------------------

def start_arg(text: str) -> str:
    # The digits without leading zeros: output echoes them, and a long
    # base-10 start is never converted (see digitcli._start_value).  ASCII only,
    # like the grid parser: str.isdigit alone also accepts fullwidth and
    # superscript digits.
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a nonnegative decimal integer: {text!r}")
    return text.lstrip("0") or "0"


# parses a start as the CLI does; perfbench times it from here
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
    traj.set_defaults(handler="digitcli.cmd_traj")

    cls = commands.add_parser("classify", help="name the attractor N reaches")
    cls.add_argument("n", type=start_arg, metavar="N")
    _add_system_flags(cls)
    _add_cache_flag(cls)
    cls.set_defaults(handler="digitcli.cmd_classify")

    happy = commands.add_parser("happy", help="does the orbit of N reach 1?")
    happy.add_argument("n", type=start_arg, metavar="N")
    _add_system_flags(happy)
    _add_cache_flag(happy)
    happy.set_defaults(handler="digitcli.cmd_classify")

    attractors = commands.add_parser(
        "attractors", help="the certified attractor atlas of a digit system")
    _add_system_flags(attractors)
    _add_cache_flag(attractors)
    attractors.set_defaults(handler="digitcli.cmd_attractors")

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
    certify.set_defaults(handler="certcli.cmd_certify")

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
    gsort.set_defaults(handler="gridcli.cmd_grid_sort")

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
    gverify.set_defaults(handler="gridcli.cmd_grid_verify")

    return parser


def main(argv=None) -> int:
    # Starts of up to MAX_START_DIGITS digits are converted, so lift the
    # int<->str conversion guard that far; a longer --lo or --hi is then a
    # usage error.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), MAX_START_DIGITS))
    args = build_parser().parse_args(argv)
    # Under `python -u` the text layer writes straight to the raw file and
    # drops what a short write(2) leaves, so a closed pipe can cut a record
    # short with exit 0.  A buffered layer writes the rest or raises.
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        sys.stdout = open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding,
                          errors=sys.stdout.errors, closefd=False)
    try:
        # the parser names each command's handler as module.function
        module, name = args.handler.split(".")
        code = getattr(importlib.import_module(f".{module}", __package__), name)(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's final flush
        return code
    except (TooLargeError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader left early (`| head`).  Send what is still buffered to
        # devnull, so the final flush cannot raise again, and exit 1 as the
        # interpreter does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFICATION_FAILED
