"""Error taxonomy shared across the package.

ConfigError covers bad inputs (config files, parameter domain violations),
NumericError covers failures of the numerical machinery itself.  The CLI
maps these to distinct exit codes.
"""

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


def integer(value, name: str) -> int:
    """`value` as an int; a float, even an integral one, is a ConfigError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
