"""Error taxonomy shared across the package, and its one rule for a valid
number.

ConfigError covers bad inputs (config files, parameter domain violations),
NumericError covers failures of the numerical machinery itself.  The CLI
maps these to distinct exit codes.  `real` and `integer` check every
numeric input: a number must be finite and inside its stated interval,
or the call raises a ConfigError naming the parameter.
"""

import math
import operator


class ConfigError(ValueError):
    """A parameter or configuration value violates its contract."""


class NumericError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class QuadratureError(NumericError):
    """Adaptive quadrature did not converge.

    Carries the best available estimate and its error bound so callers can
    decide whether to salvage the value.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


def _bounded(value, name: str, kind: str, valid: bool, gt=None, ge=None, lt=None, le=None):
    """`value` when it is `valid` and gt < value, ge <= value, value < lt and
    value <= le hold for each bound given; else a ConfigError quoting the
    interval."""
    if valid and ((gt is None or value > gt) and (ge is None or value >= ge)
                  and (lt is None or value < lt) and (le is None or value <= le)):
        return value
    low = f"({gt:g}" if gt is not None else f"[{ge:g}" if ge is not None else "(-inf"
    high = f"{lt:g})" if lt is not None else f"{le:g}]" if le is not None else "inf)"
    raise ConfigError(f"{name} must be {kind} in {low}, {high}, got {value!r}")


def real(value, name: str, *, gt=None, ge=None, lt=None, le=None):
    """`value`, unchanged, when it is a finite real number inside the bounds
    given (see _bounded); anything else, NaN and the infinities included,
    is a ConfigError."""
    try:
        finite = math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    return _bounded(value, name, "a finite number", finite, gt, ge, lt, le)


def integer(value, name: str, *, ge=None, le=None) -> int:
    """`value` as an int, when ge <= value <= le for each bound given; a
    float, even an integral one, is a ConfigError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    return _bounded(value, name, "an integer", True, ge=ge, le=le)
