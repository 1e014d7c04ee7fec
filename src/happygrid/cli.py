"""Command-line front end: orbits, atlases, certification, grid sorting.

Exit codes: 0 success, 1 verification or certification failure, 2 usage
or parse error.  Numbers cross the boundary as decimal strings so inputs
of hundreds of digits work; `--json` emits one canonical record per
invocation (sorted keys, fixed layout) so outputs are byte-stable.

This module is the core every command loads: the exit codes, `UsageError`,
the start-digit cap `main` reads, the output writer and `main`.  The
commands live in `digitcli` (traj, classify, happy, attractors), `certcli`
(certify) and `gridcli` (grid sort, grid verify), each with the caps its
checks read; the argument grammar in `cliparse`, grid verify's block size
and share runner in `shares` and the canonical JSON text in `canonical`.
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

import importlib
import io
import os
import sys
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii

from . import _lazy_getattr
from .canonical import dumps_canonical, render
# natural_arg parses a start as the CLI does; perfbench times it from here
from .cliparse import build_parser, natural_arg
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


class UsageError(Exception):
    """A request that cannot be served as asked: main prints it and exits 2."""


# --------------------------- canonical structured output -------------------

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
