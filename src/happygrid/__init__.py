"""Digit-power-sum dynamics with certified attractor atlases, plus the
sorted-rows-stay-sorted grid theorem.

Two independent constructions share this package:

* `digitmap`, `dynamics`, `bounds`, `certify`: the map sending n to the
  sum of the e-th powers of its base-b digits, its orbits and cycles, and
  a machine-checked proof that exhaustive enumeration of [0, B], a range
  the system alone fixes (`bounds`), finds every attractor (`certify`).
* `gridsort`: sorting the rows of an integer grid and then its columns
  leaves the rows sorted; includes the two-row min/max lemma and the
  bubble-pass column sort mirroring the inductive argument.
"""

__version__ = "0.1.0"

import importlib

# Every public name with the submodule that defines it.  `import happygrid`
# loads none of them: a name's submodule is imported the first time the
# name is read (PEP 562), so a command of one half never compiles the other.
_HOMES = {
    "bounds": ("AttractorAtlas", "CertificationError", "brute_bound", "default_step_budget",
               "digit_reduction_threshold", "threshold_inequality_check"),
    "certify": ("enumerate_attractors", "forward_invariance_scan", "three_digit_identity_check",
                "validate_atlas", "verify_range"),
    "digitmap": ("DigitSystem", "as_natural", "digit_count", "digit_power_sum"),
    "dynamics": ("BudgetExceededError", "Cycle", "Trajectory", "canonicalize_cycle", "classify",
                 "step_until_repeat"),
    "gridsort": ("Grid", "GridParseError", "bubble_column_sort", "format_grid", "is_cols_sorted",
                 "is_rows_sorted", "parse_grid", "sort_cols", "sort_rows", "trace_bubble",
                 "two_row_minmax"),
    "limits": ("TooLargeError",),
}


def _lazy_getattr(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """A module `__getattr__` that binds each name of `homes` into `namespace`
    from its happygrid submodule on first read.

    Any other name raises AttributeError, as the import machinery expects
    when it probes a module for `__path__` or for a submodule.
    """
    home = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = importlib.import_module(f"{__name__}.{home[name]}")
        namespace[name] = value = getattr(module, name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _HOMES)
__all__ = sorted(name for names in _HOMES.values() for name in names)
