"""Tests for the battery birth-death chain: matrix identities, hitting
times, availability bounds and the cycle-level simulation."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbrach.energy import (
    EnergyConfig,
    availability_bounds,
    depletion_rate,
    energy_availability,
    generator_matrix,
    hitting_times_solve,
    mean_off_time,
    mean_on_time,
    neg_B_inverse,
    simulate_energy_chain,
)
from nbrach.errors import ConfigError

RATES = st.floats(min_value=1e-3, max_value=1e3,
                  allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------- generator


def test_generator_structure():
    q = generator_matrix(0.3, 0.7, 5)
    assert q.shape == (6, 6)
    np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-15)
    assert q[0, 0] == -0.3 and q[0, 1] == 0.3
    assert q[5, 4] == 0.7 and q[5, 5] == -0.7
    for m in range(1, 5):
        assert q[m, m - 1] == 0.7
        assert q[m, m] == -1.0
        assert q[m, m + 1] == 0.3
    # strictly tridiagonal
    assert np.count_nonzero(q) == 3 * 6 - 4 + 2


def test_generator_exact_dtype():
    q = generator_matrix(0.05, 0.1667, 3, exact=True)
    assert q.dtype == object
    assert all(isinstance(v, Fraction) for v in q.ravel())
    assert sum(q[1]) == 0


def test_generator_validation():
    with pytest.raises(ConfigError):
        generator_matrix(0.1, 0.2, 0)
    with pytest.raises(ConfigError):
        generator_matrix(-0.1, 0.2, 3)


@pytest.mark.parametrize("mu0,nu0,cap", [(0.05, 0.1667, 7), (2.0, 0.5, 4),
                                         (1.0, 1.0, 9)])
def test_exact_inverse_is_inverse(mu0, nu0, cap):
    # (-B0) M = I holds exactly in rational arithmetic
    q = generator_matrix(mu0, nu0, cap, exact=True)
    neg_b = -q[1:, 1:]
    m = neg_B_inverse(mu0, nu0, cap, exact=True)
    prod = neg_b @ m
    ident = np.zeros((cap, cap), dtype=object)
    ident[:] = Fraction(0)
    for i in range(cap):
        ident[i, i] = Fraction(1)
    assert np.array_equal(prod, ident)


def test_float_inverse_matches_exact_entrywise():
    rng = np.random.default_rng(99)
    for _ in range(20):
        mu0 = float(10.0 ** rng.uniform(-2, 2))
        nu0 = float(10.0 ** rng.uniform(-2, 2))
        cap = int(rng.integers(1, 25))
        f = neg_B_inverse(mu0, nu0, cap)
        e = neg_B_inverse(mu0, nu0, cap, exact=True)
        for i in range(cap):
            for j in range(cap):
                exact = float(e[i, j])
                assert abs(f[i, j] - exact) <= 1e-12 * exact


# ------------------------------------------------------------- hitting time


def test_hitting_time_routes_agree():
    rng = np.random.default_rng(5)
    for _ in range(30):
        mu0 = float(10.0 ** rng.uniform(-2, 2))
        nu0 = float(10.0 ** rng.uniform(-2, 2))
        if abs(mu0 / nu0 - 1.0) < 1e-5:
            continue
        cap = int(rng.integers(1, 40))
        solve = hitting_times_solve(mu0, nu0, cap)
        rows = neg_B_inverse(mu0, nu0, cap).sum(axis=1)
        np.testing.assert_allclose(solve, rows, rtol=1e-12)
        for m in (1, cap):
            closed = mean_on_time(mu0, nu0, cap, m)
            assert abs(closed - solve[m - 1]) <= 1e-10 * solve[m - 1]


def test_hitting_time_increments():
    # t_m strictly increasing in the start level
    t = hitting_times_solve(0.05, 0.1, 20)
    assert np.all(np.diff(t) > 0.0)


def test_mean_on_time_singular_band_fallback():
    t_band = mean_on_time(1.0, 1.0 + 1e-9, 12, 3)
    t_solve = float(hitting_times_solve(1.0, 1.0 + 1e-9, 12)[2])
    assert t_band == t_solve


def test_mean_on_time_log_domain_overflow():
    # enormous rate ratio: closed form must not overflow to nan
    t = mean_on_time(1e3, 1e-3, 2000, 1)
    assert math.isinf(t)
    t2 = mean_on_time(10.0, 1.0, 200, 1)
    assert math.isfinite(t2) and t2 > 0.0


def test_mean_on_time_validation():
    with pytest.raises(ConfigError):
        mean_on_time(0.1, 0.2, 5, 0)
    with pytest.raises(ConfigError):
        mean_on_time(0.1, 0.2, 5, 6)


@given(mu0=RATES, nu0=RATES, cap=st.integers(2, 60))
@settings(max_examples=60, deadline=None)
def test_property_on_time_monotone_in_start(mu0, nu0, cap):
    lo = mean_on_time(mu0, nu0, cap, 1)
    hi = mean_on_time(mu0, nu0, cap, cap)
    assert hi >= lo > 0.0


@given(nu0=RATES, cap=st.integers(1, 40), m=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_property_on_time_monotone_in_harvest(nu0, cap, m):
    m = min(m, cap)
    low = mean_on_time(0.5 * nu0, nu0, cap, m)
    high = mean_on_time(2.0 * nu0, nu0, cap, m)
    assert high >= low


# ------------------------------------------------------------- availability


def test_depletion_rate_regimes():
    cfg = EnergyConfig()
    fail, succ = (bound.nu0 for bound in availability_bounds(cfg))
    assert fail == depletion_rate(cfg) == pytest.approx(cfg.a_a * cfg.p / cfg.e0_ra)
    assert succ == pytest.approx(cfg.a_a * cfg.p / (cfg.e0_ra + cfg.e0_da))
    assert fail > succ


def test_default_plateaus():
    lower, upper = availability_bounds(EnergyConfig())
    # saturated-drain plateaus mu0/nu0 at the default operating point
    assert lower.eta0 == pytest.approx(0.30, abs=1e-6)
    assert upper.eta0 == pytest.approx(0.92, abs=1e-4)
    assert lower.nu0 > upper.nu0
    assert lower.mean_on < upper.mean_on


def test_bounds_ordering_over_grid():
    for n_t in (1, 2, 4, 8, 16):
        for m0 in (n_t, n_t + 10, n_t + 160):
            cfg = EnergyConfig(n_t=n_t, m0=m0)
            lower, upper = availability_bounds(cfg)
            assert 0.0 < lower.eta0 <= upper.eta0 <= 1.0


def test_mean_off_time():
    assert mean_off_time(EnergyConfig(n_t=8)) == pytest.approx(8 / 0.05)


def test_availability_monotone_in_capacity():
    cfg = EnergyConfig()
    etas = [energy_availability(EnergyConfig(m0=m)).eta0
            for m in (1, 2, 5, 20, 161)]
    assert all(b >= a for a, b in zip(etas, etas[1:]))
    del cfg


def test_availability_saturating_harvest_limit():
    # mu0 >> nu0 never depletes in practice: availability tends to one
    cfg = EnergyConfig(mu0=50.0)
    assert energy_availability(cfg).eta0 > 0.999999


def test_config_validation():
    with pytest.raises(ConfigError):
        EnergyConfig(mu0=0.0)
    with pytest.raises(ConfigError):
        EnergyConfig(a_a=1.5)
    with pytest.raises(ConfigError):
        EnergyConfig(m0=0)
    with pytest.raises(ConfigError):
        EnergyConfig(n_t=200, m0=161)
    with pytest.raises(ConfigError):
        EnergyConfig(n_t=3)


# ---------------------------------------------------------------- simulator


def test_chain_estimate_deterministic():
    cfg = EnergyConfig()
    a = simulate_energy_chain(cfg, num_transitions=20_000, seed=3)
    b = simulate_energy_chain(cfg, num_transitions=20_000, seed=3)
    assert a == b
    c = simulate_energy_chain(cfg, num_transitions=20_000, seed=4)
    assert c.eta_hat != a.eta_hat


def test_chain_matches_theory():
    cfg = EnergyConfig(n_t=4, m0=14)
    est = simulate_energy_chain(cfg, num_transitions=200_000, seed=11)
    theory = energy_availability(cfg).eta0
    assert est.cycles > 50
    assert abs(est.eta_hat - theory) <= max(3.0 * est.se, 0.01 * theory)


@pytest.mark.parametrize("budget", [1, 4, 5, 1_000_000])
def test_chain_spends_exact_budget(budget):
    # n_t = 4: budgets 1 and 4 end within the first ON phase, 5 one step past
    # its earliest possible end; every cycle takes at least 2 n_t events
    cfg = EnergyConfig(n_t=4, m0=14)
    est = simulate_energy_chain(cfg, num_transitions=budget, seed=2)
    assert est.transitions == budget
    assert est.cycles <= budget // (2 * cfg.n_t)
    if budget < 2 * cfg.n_t:
        assert est.cycles == 0 and est.se == math.inf
    if budget == 1:
        assert est.eta_hat == 1.0


@pytest.mark.parametrize("mu0", [0.5, 0.2])
def test_chain_harvest_outpaces_drain(mu0):
    # rho = mu0/nu0 > 1: starting at n_t = 128 quanta the first ON phase
    # never empties on any stream tried, so the whole budget is one cut ON
    # phase (from n_t = 1 it empties early on most streams)
    t0 = time.perf_counter()
    est = simulate_energy_chain(EnergyConfig(mu0=mu0, n_t=128), num_transitions=1_000_000)
    assert time.perf_counter() - t0 < 5.0
    assert (est.eta_hat, est.cycles, est.se) == (1.0, 0, math.inf)
    assert est.transitions == 1_000_000


@pytest.mark.parametrize("cfg", [EnergyConfig(mu0=0.15), EnergyConfig(n_t=16, m0=16),
                                 EnergyConfig(n_t=128, m0=128)],
                         ids=["near-critical", "capped-16", "capped-128"])
def test_chain_matches_theory_hard_regimes(cfg):
    # rho = 0.9 gives long ON phases; m0 = n_t caps every step up from the start
    est = simulate_energy_chain(cfg, num_transitions=1_000_000)
    assert abs(est.eta_hat - energy_availability(cfg).eta0) <= 3.0 * est.se


def _event_loop_chain(cfg, budget, rng):
    """(eta_hat, cycles) of the chain read literally, one event per step."""
    mu, nu = cfg.mu0, depletion_rate(cfg)
    level, on, t_on, t_off, cycles = cfg.n_t, True, 0.0, 0.0, 0
    for _ in range(budget):
        if on:
            t_on += rng.exponential() / (mu + nu)
            if rng.random() < mu / (mu + nu):
                level = min(level + 1, cfg.m0)
            else:
                level -= 1
                on = level > 0
        else:
            t_off += rng.exponential() / mu
            level += 1
            if level == cfg.n_t:
                on, cycles = True, cycles + 1
    return t_on / (t_on + t_off), cycles


@pytest.mark.parametrize("mu0,n_t,m0,budget", [(0.15, 2, 4, 300), (0.05, 4, 4, 10),
                                               (0.3, 1, 3, 300)])
def test_chain_matches_event_loop_in_law(mu0, n_t, m0, budget):
    # short budgets make the cut phase matter (budget 10 cuts an ON or OFF
    # phase in most runs); means of eta_hat and cycles over independent
    # runs agree within 4 combined standard errors
    cfg = EnergyConfig(mu0=mu0, n_t=n_t, m0=m0)
    runs = 400
    rng = np.random.default_rng(31)
    ref = np.array([_event_loop_chain(cfg, budget, rng) for _ in range(runs)])
    sim = np.array([(e.eta_hat, e.cycles) for e in
                    (simulate_energy_chain(cfg, budget, seed) for seed in range(runs))])
    se = np.sqrt((ref.var(axis=0, ddof=1) + sim.var(axis=0, ddof=1)) / runs)
    assert np.all(np.abs(ref.mean(axis=0) - sim.mean(axis=0)) <= 4.0 * se)


def test_chain_validation():
    with pytest.raises(ConfigError):
        simulate_energy_chain(EnergyConfig(), num_transitions=0)
    with pytest.raises(ConfigError, match="seed"):  # once numpy's ValueError
        simulate_energy_chain(EnergyConfig(), num_transitions=1000, seed=-1)


@pytest.mark.parametrize("budget", [1e5, math.nan], ids=["float", "nan"])
def test_chain_budget_must_be_integer(budget):
    # a float budget once ran and reported a float transition count; a NaN
    # one died inside the walk with a bare ValueError
    with pytest.raises(ConfigError, match="num_transitions must be an integer"):
        simulate_energy_chain(EnergyConfig(), num_transitions=budget)
