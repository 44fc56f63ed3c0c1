"""Contract tests for the adaptive quadrature, and its bit-for-bit match
with the QUADPACK it transcribes: scipy.integrate.quad, a test-only oracle."""

import math
import random
import warnings

import pytest
from scipy import integrate

from nbrach import quadrature, rach
from nbrach.errors import ConfigError, QuadratureError
from nbrach.quadrature import QuadratureSettings, improper_integral
from nbrach.rach import ChannelConfig, InterferenceMode


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
    with pytest.raises(QuadratureError, match="^quadrature did not converge: "
                                              "subdivision limit 10 reached$") as info:
        improper_integral(lambda t: math.cos(50.0 * t * t) * math.exp(-t), q)
    assert info.value.best_estimate is not None
    assert info.value.error_estimate is not None


@pytest.mark.parametrize("exponent", [0.3, 0.5, 0.7])
def test_divergent_integral_raises(exponent):
    # (1 + t)^-e with e < 1 has no finite integral; QUADPACK flags it as
    # probably divergent even when its error estimate meets the tolerance
    with pytest.raises(QuadratureError, match="^quadrature did not converge: "
                                              "integral probably divergent$") as info:
        improper_integral(lambda t: (1.0 + t) ** -exponent)
    assert info.value.best_estimate == pytest.approx(-1.0 / (1.0 - exponent), rel=1e-9)
    assert info.value.error_estimate is not None


def test_settings_validation():
    with pytest.raises(ConfigError):
        QuadratureSettings(rel_tol=0.0)
    with pytest.raises(ConfigError):
        QuadratureSettings(abs_tol=-1.0)
    with pytest.raises(ConfigError):
        QuadratureSettings(max_subdivisions=1)


# a phrase of scipy's QUADPACK message for each failure flag (ier)
QUADPACK_FLAGS = (("maximum number of subdivisions", 1), ("occurrence of roundoff", 2),
                  ("bad integrand behavior", 3), ("extrapolation table", 4),
                  ("probably divergent", 5))


def quadpack(func, epsabs, epsrel, limit):
    """scipy's QUADPACK over [0, inf) as (value, abserr, ier, last), the
    tuple the transcription returns."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr, info, *message = integrate.quad(
            func, 0.0, math.inf, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = next((flag for phrase, flag in QUADPACK_FLAGS if phrase in message[0]),
               message[0]) if message else 0
    return value, abserr, ier, info["last"]


@pytest.mark.parametrize("mode", list(InterferenceMode))
def test_transcription_matches_quadpack_on_rach_integrands(monkeypatch, mode):
    # every kernel and joint-success integrand at fig10 and fig13 points
    integrands = []

    def recording(func, settings=None):
        integrands.append(func)
        return improper_integral(func, settings)

    monkeypatch.setattr(rach, "improper_integral", recording)
    for ratio, gamma_db, n_t in ((100.0, 20.0, 8), (10000.0, 20.0, 4), (1000.0, 10.0, 16)):
        cfg = ChannelConfig(lambda_d=ratio * 0.1, gamma_th=10.0 ** (gamma_db / 10.0))
        rach.preamble_success_prob(n_t, cfg, mode)
    q = QuadratureSettings()
    args = q.abs_tol, q.rel_tol, q.max_subdivisions
    # 28 joint successes; FULL adds the kernels for l = 4..64, each once
    assert len(integrands) == (28 + 16 if mode is InterferenceMode.FULL else 28)
    for func in integrands:
        assert quadrature._qagi(func, *args) == quadpack(func, *args)


def hard_integrand(kind, a, b, c):
    """Singular at 0, slowly decaying (divergent for a <= 0.5), oscillatory,
    singular or peaked inside the range, or noisy at the roundoff level."""
    return (lambda t: t ** c * math.exp(-a * t) if t > 0.0 else 0.0,
            lambda t: 1.0 / (1.0 + t) ** (0.5 + a),
            lambda t: math.sin(b * t) / (1.0 + t) ** (a / 2.0),
            lambda t: math.cos(b * t * t) * math.exp(-a * t),
            lambda t: abs(t - a) ** (c - 0.5) * math.exp(-t) if t != a else 0.0,
            lambda t: 1.0 / ((t - a) ** 2 + 1e-12 * b),
            lambda t: math.exp(-a * t) * (1.0 + 1e-7 * math.sin(1e6 * b * t)),
            )[kind]


def test_transcription_matches_quadpack_on_hard_integrands(monkeypatch):
    # value, error estimate, subdivision count and flag, through the
    # extrapolation and into every failure flag
    extrapolations = []
    qelg = quadrature._qelg

    def counting(*args):
        extrapolations.append(args)
        return qelg(*args)

    monkeypatch.setattr(quadrature, "_qelg", counting)
    rng = random.Random(2026)
    flags = set()
    for _ in range(400):
        func = hard_integrand(rng.randrange(7), rng.uniform(0.05, 3.0), rng.uniform(0.1, 60.0),
                              rng.uniform(-0.95, 0.5))
        args = rng.choice((1e-10, 1e-15, 1e-30)), rng.choice((1e-8, 1e-10, 1e-13)), \
            rng.choice((10, 50, 200))
        expected = quadpack(func, *args)
        assert quadrature._qagi(func, *args) == expected
        flags.add(expected[2])
    assert flags == {0, 1, 2, 3, 4, 5}
    assert len(extrapolations) > 1000
