"""Exception hierarchy and the one range rule for numeric options.

The CLI maps any DireError to exit code 1. `check_number` is the rule: a
float option is a number that stays finite as a float, an integer option an
int (not a bool) that fits int64, both clear a lower bound, and no value is
converted. `RunConfig` applies it with ConfigError; `DireWeights`,
`check_sgd_options`, `squeeze_train`, `mixture_split`, `relabel`,
`rng_normal`, `finite_diff_check`, `EmbeddingSet.subsample`,
`bench_kernels` and every `Rng` seed apply it with ParameterError.
"""

import math
import numbers

INT64_MAX = 2**63 - 1


class DireError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(DireError):
    """Shapes do not conform (wrong rank, mismatched sizes, empty axes)."""


class ParameterError(DireError):
    """A parameter violates its documented range or constraint."""


class NumericalError(DireError):
    """A computation produced non-finite values or failed to converge."""


class TrainingError(DireError):
    """Model training diverged."""


class FormatError(DireError):
    """A binary or text file does not match its expected format."""


class ConfigError(DireError):
    """A configuration document is malformed or violates an invariant."""


def check_number(value, name: str, low, *, strict: bool = False, integer: bool = False,
                 error=ParameterError, where: str = "") -> None:
    """Raise `error` with a message that starts with `where` and names the
    option, unless `value` clears `low` (>= low, or > low if strict) and is
    finite or, with integer=True, an int that fits int64. A value below the
    bound, -inf too, gets the range message; NaN and +inf the finite one."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        kind = "an integer" if integer else "a number"
        raise error(f"{where}{name} must be {kind}, got {value!r}")
    if value < low or strict and value == low:
        raise error(f"{where}{name} must be {'>' if strict else '>='} {low}, got {value}")
    if integer and value > INT64_MAX:
        raise error(f"{where}{name} must be <= {INT64_MAX}, got {value}")
    try:
        finite = integer or math.isfinite(value)
    except OverflowError:  # an int beyond float range
        finite = False
    if not finite:
        raise error(f"{where}{name} must be finite, got {value}")
