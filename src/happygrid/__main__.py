"""The process entry point: `python -m happygrid` and the `happygrid` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the CLI as a whole process and return its exit code.

    Once main is done the process needs none of its objects again, yet
    finalization runs several full cyclic collections over all of them,
    about 6 ms with happygrid loaded: more than most commands' own work.
    gc.freeze moves them into the permanent generation, which those
    collections skip.  What is not in a reference cycle is still freed, and
    the standard streams are still flushed.  The `finally` also covers
    argparse's SystemExit (--help, --version, usage errors).  main itself
    never freezes, since tests and in-process callers go on running.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
