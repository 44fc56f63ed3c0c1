"""Tests for the random-access analytics: interference kernel, joint
symbol-group success, cell-load law and the collision-averaged success."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from nbrach import rach
from nbrach.errors import ConfigError, NumericError
from nbrach.quadrature import QuadratureSettings
from nbrach.rach import (
    ChannelConfig,
    InterferenceMode,
    active_density,
    cell_load_pmf,
    cell_load_truncation,
    joint_symbol_success,
    pgfl_exponent,
    pgfl_kernel,
    preamble_success_prob,
    rach_success_detail,
    rach_success_prob,
    repetition_efficiency,
    select_epsilon,
    symbol_group_count,
)

DESK = ChannelConfig(lambda_b=1.0, lambda_d=1000.0)


def kernel_oracle(alpha: float, l: int) -> float:
    # closed form of the kernel integral via the beta-function identity:
    # int_0^inf (1 - (1 + v^(-alpha/2))^(-l)) dv = G(1-2/a) G(l+2/a) / G(l)
    return 0.5 * math.gamma(1.0 - 2.0 / alpha) * math.exp(
        gammaln(l + 2.0 / alpha) - gammaln(l))


# -------------------------------------------------------------- pgfl kernel


@pytest.mark.parametrize("alpha", [3.0, 4.0, 6.0])
@pytest.mark.parametrize("l", [4, 8, 16, 64, 128])
def test_kernel_against_gamma_oracle(alpha, l):
    assert pgfl_kernel(alpha, l) == pytest.approx(kernel_oracle(alpha, l),
                                                  rel=5e-12)


def test_kernel_monotone():
    ks = [pgfl_kernel(4.0, l) for l in (4, 8, 16, 32)]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert pgfl_kernel(3.0, 8) > pgfl_kernel(5.0, 8)


def test_kernel_rejects_bad_group_count():
    with pytest.raises(ConfigError):
        pgfl_kernel(4.0, 5)
    with pytest.raises(ConfigError):
        pgfl_kernel(4.0, 0)
    with pytest.raises(ConfigError):
        symbol_group_count(0)
    assert symbol_group_count(8) == 32


def test_exponent_modes():
    cfg = DESK
    full = pgfl_exponent(0.5, 4, cfg, InterferenceMode.FULL)
    intra = pgfl_exponent(0.5, 4, cfg, InterferenceMode.INTRA_CELL_ONLY)
    assert 0.0 < intra < full
    assert pgfl_exponent(0.0, 4, cfg) == 0.0
    empty = ChannelConfig(lambda_b=1.0, lambda_d=0.0)
    assert pgfl_exponent(0.5, 4, empty) == 0.0


def test_exponent_full_closed_form():
    cfg = DESK
    lam_da = active_density(cfg)
    want = (2.0 * math.pi * lam_da * cfg.gamma_th ** 0.5 * 0.25
            * kernel_oracle(4.0, 8))
    assert pgfl_exponent(0.5, 8, cfg) == pytest.approx(want, rel=5e-12)


# ----------------------------------------------------------- distance model


def test_active_density():
    cfg = DESK
    assert active_density(cfg) == pytest.approx(0.001 * 0.3 * 1000.0 / 48)


def test_select_epsilon_crossover():
    assert select_epsilon(0.5, 1.0) == 1.0
    assert select_epsilon(1.0, 1.0) == 1.0
    assert select_epsilon(1.0 + 1e-12, 1.0) == 1.25
    assert select_epsilon(100.0, 1.0) == 1.25
    assert select_epsilon(100.0, 1.0, override=1.1) == 1.1


# ------------------------------------------------------ joint group success


def test_joint_success_zero_noise_closed_form():
    # with sigma2 = 0 the serving-distance average is a ratio of rates
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=1000.0, sigma2=0.0)
    lam_da = active_density(cfg)
    eps = select_epsilon(lam_da, cfg.lambda_b)
    for l in (4, 16):
        s = eps * math.pi * cfg.lambda_b
        want = s / (s + 2.0 * math.pi * lam_da
                    * cfg.gamma_th ** 0.5 * kernel_oracle(4.0, l))
        assert joint_symbol_success(l, cfg) == pytest.approx(want, rel=1e-9)


def test_joint_success_decreasing_in_groups():
    vals = [joint_symbol_success(l, DESK) for l in (4, 8, 16, 32)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_joint_success_no_contenders():
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0)
    # only thermal noise at desk scale: essentially certain
    assert joint_symbol_success(4, cfg) > 0.999


def test_joint_success_intra_dominates_full():
    full = joint_symbol_success(4, DESK, InterferenceMode.FULL)
    intra = joint_symbol_success(4, DESK, InterferenceMode.INTRA_CELL_ONLY)
    assert intra > full


@given(ratio=st.floats(1e-2, 1e4), gamma_db=st.floats(0.0, 30.0),
       l=st.sampled_from([4, 8, 16]))
@settings(max_examples=40, deadline=None)
def test_property_joint_success_in_unit_interval(ratio, gamma_db, l):
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=ratio,
                        gamma_th=10.0 ** (gamma_db / 10.0))
    v = joint_symbol_success(l, cfg)
    assert 0.0 <= v <= 1.0


# --------------------------------------------------------- preamble success


def test_preamble_pair_identity():
    # two repetitions: union of two jointly-faded events
    p4 = joint_symbol_success(4, DESK)
    p8 = joint_symbol_success(8, DESK)
    assert preamble_success_prob(2, DESK) == pytest.approx(2.0 * p4 - p8,
                                                           rel=1e-12)


def test_preamble_single_matches_joint():
    assert preamble_success_prob(1, DESK) == pytest.approx(
        joint_symbol_success(4, DESK), rel=1e-12)


def test_preamble_monotone_in_repetitions():
    vals = [preamble_success_prob(n, DESK) for n in (1, 2, 4, 8, 16, 32)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_preamble_union_bounds():
    p4 = joint_symbol_success(4, DESK)
    for n_t in (2, 4, 8):
        p = preamble_success_prob(n_t, DESK)
        assert p4 <= p <= min(1.0, n_t * p4) + 1e-12


def test_preamble_rejects_large_repetition_count():
    with pytest.raises(ConfigError):
        preamble_success_prob(64, DESK)


@pytest.mark.parametrize("value, expected", [
    (-5e-11, 0.0), (1.0 + 5e-11, 1.0), (-1e-9, None), (1.0 + 1e-9, None), (math.nan, None),
])
def test_probabilities_clamped_within_abs_tol(monkeypatch, value, expected):
    # within abs_tol of [0, 1] a value is clamped; beyond it, or NaN, it is
    # a NumericError (INTRA mode: no cached kernel sees the patched integral)
    monkeypatch.setattr(rach, "improper_integral", lambda *args: (value, 0.0))
    joint = lambda: joint_symbol_success(4, DESK, InterferenceMode.INTRA_CELL_ONLY)
    monkeypatch.setattr(rach, "joint_symbol_success", lambda *args: value)
    preamble = lambda: preamble_success_prob(1, DESK)
    for evaluate in (joint, preamble):
        if expected is None:
            with pytest.raises(NumericError, match=r"outside \[0, 1\]"):
                evaluate()
        else:
            assert evaluate() == expected


def test_preamble_decreasing_in_threshold():
    lo = preamble_success_prob(4, ChannelConfig(lambda_b=1.0, lambda_d=1000.0,
                                                gamma_th=10.0))
    hi = preamble_success_prob(4, ChannelConfig(lambda_b=1.0, lambda_d=1000.0,
                                                gamma_th=1000.0))
    assert lo > hi


# ---------------------------------------------------------------- cell load


def mpmath_pmf(n: int, rho: float) -> float:
    mp.mp.dps = 50
    c = mp.mpf("3.575")
    r = mp.mpf(rho)
    val = (mp.gamma(n + c + 1) / (mp.gamma(c + 1) * mp.factorial(n))
           * mp.power(c, c + 1) * mp.power(r, n) / mp.power(r + c, n + c + 1))
    return float(val)


@pytest.mark.parametrize("n,rho", [(0, 1.0), (3, 1.0), (5, 1e-3), (40, 10.0),
                                   (200, 100.0)])
def test_cell_load_against_mpmath(n, rho):
    got = cell_load_pmf(n, rho * 0.1, 0.1)
    assert got == pytest.approx(mpmath_pmf(n, rho), rel=1e-12)


def test_cell_load_frozen_point():
    assert cell_load_pmf(0, 0.1, 0.1) == pytest.approx(0.323555387692,
                                                       abs=1e-12)


def test_cell_load_sums_to_one():
    for rho in (1e-3, 1.0, 50.0):
        n = np.arange(0, 4000)
        total = cell_load_pmf(n, rho, 1.0).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


def test_cell_load_empty_field():
    assert cell_load_pmf(0, 0.0, 1.0) == 1.0
    assert cell_load_pmf(3, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("call", [
    lambda: select_epsilon(1.0, math.nan),
    lambda: cell_load_pmf(0, 0.1, math.nan),
    lambda: cell_load_pmf(0, math.nan, 0.1),
    lambda: pgfl_exponent(math.nan, 8, DESK),
], ids=["select_epsilon-lambda_b", "cell_load_pmf-lambda_b", "cell_load_pmf-lambda_da",
        "pgfl_exponent-r0"])
def test_sign_checks_reject_nan(call):
    # written `x < 0.0`, a sign check returns 1.0 or NaN for a NaN input
    with pytest.raises(ConfigError, match="must be"):
        call()


def test_cell_load_requires_integers():
    with pytest.raises(ConfigError):
        cell_load_pmf(np.array([0.5]), 0.1, 0.1)
    with pytest.raises(ConfigError):
        cell_load_pmf(-1, 0.1, 0.1)


def test_truncation_rule():
    for rho, frozen in ((1e-3, 2), (1.0, 16), (1e3, 7814)):
        n_star = cell_load_truncation(rho, 1.0)
        assert n_star == frozen
        mass = cell_load_pmf(np.arange(n_star + 1), rho, 1.0).sum()
        assert mass >= 1.0 - 1e-8
        if n_star:
            below = cell_load_pmf(np.arange(n_star), rho, 1.0).sum()
            assert below < 1.0 - 1e-8
    assert cell_load_truncation(0.0, 1.0) == 0


# ------------------------------------------------------------- rach success


def test_rach_detail_consistency():
    d = rach_success_detail(1, DESK)
    assert 0.0 < d.value <= d.preamble_success <= 1.0
    assert d.tail_bound <= 1e-8
    assert d.terms == cell_load_truncation(active_density(DESK), 1.0) + 1
    # factored collision average recomputed directly from the pieces
    n = np.arange(d.terms)
    direct = d.preamble_success * float(
        (cell_load_pmf(n, active_density(DESK), 1.0)
         * (1.0 - d.preamble_success) ** n).sum())
    assert d.value == pytest.approx(direct, rel=1e-12)


def test_rach_reduces_to_preamble_without_contenders():
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0)
    d = rach_success_detail(4, cfg)
    assert d.value == pytest.approx(d.preamble_success, rel=1e-12)
    assert d.terms == 1


def test_rach_monotone_in_repetitions():
    vals = [rach_success_prob(n, DESK) for n in (1, 2, 4, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_rach_decreasing_in_device_density():
    light = rach_success_prob(2, ChannelConfig(lambda_b=1.0, lambda_d=100.0))
    heavy = rach_success_prob(2, ChannelConfig(lambda_b=1.0, lambda_d=10000.0))
    assert light > heavy


def test_rach_intra_dominates_full():
    assert (rach_success_prob(2, DESK, InterferenceMode.INTRA_CELL_ONLY)
            > rach_success_prob(2, DESK, InterferenceMode.FULL))


def test_efficiency_scaling():
    for n_t in (1, 2, 8):
        assert repetition_efficiency(n_t, DESK) == pytest.approx(
            rach_success_prob(n_t, DESK) / n_t, rel=1e-15)


def test_efficiency_eventually_decreasing():
    # repeating is cheap insurance at first, pure cost once success saturates
    effs = [repetition_efficiency(n, DESK) for n in (1, 2, 4, 8, 16, 32)]
    assert effs[-1] < effs[0]
    assert min(effs) == effs[-1]


@given(ratio=st.floats(1.0, 5e3), n_t=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=25, deadline=None)
def test_property_rach_below_preamble(ratio, n_t):
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=ratio)
    d = rach_success_detail(n_t, cfg)
    assert 0.0 <= d.value <= d.preamble_success <= 1.0


# ---------------------------------------------------------------- config


def test_channel_config_validation():
    with pytest.raises(ConfigError):
        ChannelConfig(alpha=2.0)
    with pytest.raises(ConfigError):
        ChannelConfig(gamma_th=0.0)
    with pytest.raises(ConfigError):
        ChannelConfig(lambda_b=0.0)
    with pytest.raises(ConfigError):
        ChannelConfig(a_a=0.0)
    with pytest.raises(ConfigError):
        ChannelConfig(eta0=1.5)
    with pytest.raises(ConfigError):
        ChannelConfig(l_preambles=0)
    with pytest.raises(ConfigError):
        ChannelConfig(epsilon_override=-1.0)


def test_scale_invariance_of_success():
    # success probabilities depend on densities only through their ratio
    a = rach_success_prob(2, ChannelConfig(lambda_b=0.1, lambda_d=100.0,
                                           sigma2=0.0))
    b = rach_success_prob(2, ChannelConfig(lambda_b=1.0, lambda_d=1000.0,
                                           sigma2=0.0))
    assert a == pytest.approx(b, rel=1e-10)


def test_quadrature_settings_thread_through():
    loose = QuadratureSettings(rel_tol=1e-6, abs_tol=1e-8)
    v1 = joint_symbol_success(4, DESK, settings=loose)
    v2 = joint_symbol_success(4, DESK)
    assert v1 == pytest.approx(v2, rel=1e-5)
