"""Contract tests for the adaptive quadrature wrapper."""

import math

import pytest

from nbrach.errors import ConfigError, QuadratureError
from nbrach.quadrature import QuadratureSettings, improper_integral


def test_exponential_tail_integral():
    value, err = improper_integral(lambda t: math.exp(-t))
    assert abs(value - 1.0) <= 1e-10
    assert err <= 1e-8 * value + 1e-10


def test_zero_function():
    value, _ = improper_integral(lambda t: 0.0)
    assert value == 0.0


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_rayleigh_density_mass(lam):
    # 2 pi lam r exp(-pi lam r^2) integrates to 1 for any intensity
    def pdf(r):
        return 2.0 * math.pi * lam * r * math.exp(-math.pi * lam * r * r)

    value, _ = improper_integral(pdf)
    assert abs(value - 1.0) <= 1e-8


def test_nonconvergence_carries_best_estimate():
    # heavy oscillation with a starved subdivision budget
    q = QuadratureSettings(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=10)
    with pytest.raises(QuadratureError) as info:
        improper_integral(lambda t: math.cos(50.0 * t * t) * math.exp(-t), q)
    assert info.value.best_estimate is not None
    assert info.value.error_estimate is not None


def test_settings_validation():
    with pytest.raises(ConfigError):
        QuadratureSettings(rel_tol=0.0)
    with pytest.raises(ConfigError):
        QuadratureSettings(abs_tol=-1.0)
    with pytest.raises(ConfigError):
        QuadratureSettings(max_subdivisions=1)
    with pytest.raises(ConfigError):
        QuadratureSettings(pmf_tail_mass=0.5)
