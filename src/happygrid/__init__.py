"""Digit-power-sum dynamics with certified attractor atlases, plus the
sorted-rows-stay-sorted grid theorem.

Two independent constructions share this package:

* `digitmap`, `dynamics`, `certify`: the map sending n to the sum of the
  e-th powers of its base-b digits, its orbits and cycles, and a
  machine-checked proof that exhaustive enumeration of [0, B], a range
  the system alone fixes, finds every attractor.
* `gridsort`: sorting the rows of an integer grid and then its columns
  leaves the rows sorted; includes the two-row min/max lemma and the
  bubble-pass column sort mirroring the inductive argument.
"""

__version__ = "0.1.0"

from .certify import (
    AttractorAtlas,
    CertificationError,
    TooLargeError,
    brute_bound,
    default_step_budget,
    digit_reduction_threshold,
    enumerate_attractors,
    forward_invariance_scan,
    three_digit_identity_check,
    threshold_inequality_check,
    validate_atlas,
    verify_range,
)
from .digitmap import (
    DigitSystem,
    as_natural,
    digit_count,
    digit_power_sum,
)
from .dynamics import (
    BudgetExceededError,
    Cycle,
    Trajectory,
    canonicalize_cycle,
    classify,
    step_until_repeat,
)
from .gridsort import (
    Grid,
    GridParseError,
    bubble_column_sort,
    format_grid,
    is_cols_sorted,
    is_rows_sorted,
    parse_grid,
    sort_cols,
    sort_rows,
    trace_bubble,
    two_row_minmax,
)

__all__ = [
    "AttractorAtlas",
    "BudgetExceededError",
    "CertificationError",
    "Cycle",
    "DigitSystem",
    "Grid",
    "GridParseError",
    "TooLargeError",
    "Trajectory",
    "as_natural",
    "brute_bound",
    "bubble_column_sort",
    "canonicalize_cycle",
    "classify",
    "default_step_budget",
    "digit_count",
    "digit_power_sum",
    "digit_reduction_threshold",
    "enumerate_attractors",
    "format_grid",
    "forward_invariance_scan",
    "is_cols_sorted",
    "is_rows_sorted",
    "parse_grid",
    "sort_cols",
    "sort_rows",
    "step_until_repeat",
    "three_digit_identity_check",
    "threshold_inequality_check",
    "trace_bubble",
    "two_row_minmax",
    "validate_atlas",
    "verify_range",
]
