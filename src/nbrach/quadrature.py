"""Adaptive quadrature with explicit convergence reporting.

Thin wrapper around QUADPACK that turns silent accuracy loss into a
QuadratureError and normalises the tolerance contract: on success the
returned error estimate is at most rel_tol*|value| + abs_tol.  The one
domain, the half line [0, inf), goes through QUADPACK's rational map of (0, 1].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, integer, real


@dataclass(frozen=True)
class QuadratureSettings:
    """Accuracy knobs for every integral evaluated by the analytics."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_subdivisions: int = 200
    pmf_tail_mass: float = 1e-8

    def __post_init__(self):
        real(self.rel_tol, "rel_tol", gt=0.0)
        real(self.abs_tol, "abs_tol", gt=0.0)
        integer(self.max_subdivisions, "max_subdivisions", ge=10)
        real(self.pmf_tail_mass, "pmf_tail_mass", gt=0.0, lt=1e-2)


def improper_integral(func, settings: QuadratureSettings | None = None) -> tuple[float, float]:
    """Integrate func over the half line [0, inf).

    Returns (value, error_estimate).  Raises QuadratureError with the best
    estimate attached when the adaptive scheme cannot meet the tolerance.
    """
    from scipy import integrate  # imported on use: scipy dominates start-up

    q = settings or QuadratureSettings()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr, info, *tail = integrate.quad(
            func, 0.0, np.inf,
            epsabs=q.abs_tol, epsrel=q.rel_tol,
            limit=q.max_subdivisions, full_output=1)
    tolerance = q.rel_tol * abs(value) + q.abs_tol
    if abserr > tolerance:
        raise QuadratureError(
            f"quadrature did not converge: {tail[0]}" if tail else
            f"quadrature error estimate {abserr:.3e} exceeds tolerance {tolerance:.3e}",
            best_estimate=value, error_estimate=abserr)
    return value, abserr
