"""Exception types shared across the package, and the checks of input
documents and integer arguments."""

import math
import operator
import reprlib


class DataInvalidError(ValueError):
    """Input data violates a structural invariant (periods, nonvanishing, schema)."""


class ConvergenceError(RuntimeError):
    """A solver or quadrature failed to reach its requested tolerance.

    Carries a ``residuals`` dict so callers can report what was achieved.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class ResolutionError(ConvergenceError):
    """Grid or mesh resolution is insufficient for the requested tolerance."""


def check_numbers(value, key: str, *, finite: bool):
    """Raise DataInvalidError unless every leaf of the parsed JSON ``value``
    (through objects and arrays) is a number, not a string, boolean or null,
    and, with ``finite``, has a finite double value: no NaN or Infinity token
    and no integer beyond the double range.  The message names the key."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else ((key, v) for v in value)
        for name, item in items:
            check_numbers(item, name, finite=finite)
        return
    try:
        ok = type(value) in (int, float) and (not finite or math.isfinite(value))
    except OverflowError:  # an int beyond the double range
        ok = False
    if not ok:
        what = "finite numbers" if finite else "numbers"
        raise DataInvalidError(f"{key!r} must hold {what} only, got {reprlib.repr(value)}")


def check_index(value, name: str) -> int:
    """``value`` as an int, through ``operator.index`` (so 2.5 and 3.0 are
    refused, numpy integers accepted), or ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an int, got {value!r}") from None
