"""Tests for the Monte Carlo contention estimator: point processes,
per-trial contention logic and agreement with the analytics."""

import warnings

import numpy as np
import pytest

from nbrach.errors import ConfigError
from nbrach.rach import ChannelConfig, InterferenceMode, joint_symbol_success
from nbrach.simulation import (
    Region,
    SimSettings,
    associate_nearest,
    contention_outcome,
    interference_horizon,
    sample_ppp,
    simulate_summary,
)

DESK = ChannelConfig(lambda_b=1.0, lambda_d=1000.0)
# two same-cell devices at one point, 0.3 km from their shared station
COLOCATED = (np.array([0.3, 0.3]), np.array([True, True]))


# ------------------------------------------------------------- point fields


def test_ppp_count_statistics():
    region = Region.from_area(100.0)
    rng = np.random.default_rng(0)
    counts = [sample_ppp(1.0, region, rng).shape[0] for _ in range(400)]
    total = sum(counts)
    # total ~ Poisson(40000)
    assert abs(total - 40_000) <= 3.0 * np.sqrt(40_000)
    pts = sample_ppp(1.0, region, rng)
    assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= region.radius)


def test_ppp_zero_intensity():
    rng = np.random.default_rng(0)
    assert sample_ppp(0.0, Region(2.0), rng).shape == (0, 2)
    with pytest.raises(ConfigError):
        sample_ppp(-1.0, Region(2.0), rng)


def test_region_validation():
    with pytest.raises(ConfigError):
        Region(0.0)
    assert Region.from_area(np.pi).radius == pytest.approx(1.0)
    assert Region(3.0).area == pytest.approx(9.0 * np.pi)


def test_associate_nearest_brute_force():
    rng = np.random.default_rng(2)
    devs = rng.random((40, 2))
    enbs = rng.random((7, 2))
    got = associate_nearest(devs, enbs)
    for i, d in enumerate(devs):
        dists = np.hypot(*(enbs - d).T)
        assert dists[got[i]] == dists.min()


def test_associate_nearest_tie_lowest_index():
    devs = np.array([[0.0, 0.0]])
    enbs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert associate_nearest(devs, enbs)[0] == 0


def test_associate_nearest_requires_station():
    with pytest.raises(ConfigError):
        associate_nearest(np.zeros((1, 2)), np.zeros((0, 2)))


# ------------------------------------------------------------ trial logic


def test_lone_device_succeeds():
    # thermal noise is ~16 orders below the received power here; without
    # noise the SINR is infinite, and that must not warn
    for sigma2 in (None, 0.0):
        cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0,
                            **({} if sigma2 is None else {"sigma2": sigma2}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trans, coll = contention_outcome(np.array([0.1]), np.array([True]), 0, cfg, 1,
                                             InterferenceMode.FULL, np.random.default_rng(0))
        assert trans and not coll


def test_colocated_mutual_exclusion_at_high_threshold():
    # same-station contenders cannot both clear a threshold above one
    # within the same repetition
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0)
    for seed in range(300):
        trans, coll = contention_outcome(*COLOCATED, 0, cfg, 1, InterferenceMode.FULL,
                                         np.random.default_rng(seed))
        assert not (trans and coll)


def test_colocated_symmetry_below_unit_threshold():
    # below gamma = 1 both can clear; outcomes mirror when roles swap
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0, gamma_th=0.25)
    both = 0
    for seed in range(60):
        a_trans, a_coll = contention_outcome(*COLOCATED, 0, cfg, 1, InterferenceMode.FULL,
                                             np.random.default_rng(seed))
        b_trans, b_coll = contention_outcome(*COLOCATED, 1, cfg, 1, InterferenceMode.FULL,
                                             np.random.default_rng(seed))
        assert a_trans == b_coll
        assert a_coll == b_trans
        if a_trans and a_coll:
            both += 1
    assert both > 0


def test_trial_interference_mode_pools():
    # an out-of-cell contender harms FULL but not INTRA_CELL_ONLY
    dist, same_cell = np.array([1.0, 9.0]), np.array([True, False])
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0)

    def successes(mode):
        return sum(contention_outcome(dist, same_cell, 0, cfg, 1, mode,
                                      np.random.default_rng(s))[0] for s in range(300))

    intra = successes(InterferenceMode.INTRA_CELL_ONLY)
    assert intra == 300
    assert successes(InterferenceMode.FULL) < intra


# ------------------------------------------------------------ estimator


def test_summary_deterministic():
    settings = SimSettings(replications=300, seed=17)
    a = simulate_summary(DESK, 2, settings=settings)
    b = simulate_summary(DESK, 2, settings=settings)
    assert a == b
    c = simulate_summary(DESK, 2, settings=SimSettings(replications=300, seed=18))
    assert c != a


# Tallies recorded before the single-loop refactor; any change to the
# per-attempt draw order shows here and must be declared as a stream change.
CROWD = ChannelConfig(lambda_b=1.0, lambda_d=10_000.0, gamma_th=0.5)


@pytest.mark.parametrize("n_t, mode, settings, expected", [
    (8, InterferenceMode.FULL, SimSettings(replications=400, seed=101),
     (378, 373, 19, 0)),
    (4, InterferenceMode.INTRA_CELL_ONLY, SimSettings(replications=400, seed=102),
     (385, 382, 17, 0)),
    (2, InterferenceMode.FULL, SimSettings(replications=400, seed=103, region=Region(4.0)),
     (364, 362, 14, 370)),
], ids=["origin-full", "origin-intra", "window"])
def test_summary_stream_pinned(n_t, mode, settings, expected):
    s = simulate_summary(CROWD, n_t, mode, settings)
    trans, rach, coll, redraws = expected
    n = settings.replications
    assert (s.transmission.p_hat, s.rach.p_hat, s.collision_rate, s.redraws) \
        == (trans / n, rach / n, coll / n, redraws)


def test_summary_matches_analytics_at_transmission_level():
    s = simulate_summary(DESK, 1, settings=SimSettings(replications=2000, seed=5))
    truth = joint_symbol_success(4, DESK)
    # 3 sigma on the binomial estimate
    assert abs(s.transmission.p_hat - truth) <= 3.0 / 1.96 * s.transmission.ci_halfwidth


def test_summary_single_repetition_identity():
    # gamma >= 1 forbids a same-cell contender succeeding alongside the
    # tagged device within the lone repetition: random access equals
    # transmission success trial by trial
    s = simulate_summary(DESK, 1, settings=SimSettings(replications=800, seed=5))
    assert s.rach.p_hat == s.transmission.p_hat


def test_summary_repetition_ordering():
    s1 = simulate_summary(DESK, 1, settings=SimSettings(replications=600, seed=5))
    s8 = simulate_summary(DESK, 8, settings=SimSettings(replications=600, seed=5))
    assert s8.rach.p_hat > s1.rach.p_hat


def test_estimate_fields():
    s = simulate_summary(DESK, 1, settings=SimSettings(replications=250, seed=9))
    assert s.rach.trials == 250
    assert s.rach.seed == 9
    assert 0.0 <= s.collision_rate <= 1.0
    assert s.rach.ci_halfwidth == pytest.approx(
        1.96 * np.sqrt(s.rach.p_hat * (1 - s.rach.p_hat) / 250))


def test_settings_validation():
    with pytest.raises(ConfigError):
        SimSettings(replications=0)
    with pytest.raises(ConfigError):
        SimSettings(seed=-1)
    with pytest.raises(ConfigError):
        SimSettings(tail_tol=0.0)
    with pytest.raises(ConfigError):
        SimSettings(guard=-0.5)
    with pytest.raises(ConfigError):
        SimSettings(redraw_budget=0)


def test_horizon_behaviour():
    d_loose = interference_horizon(DESK, 1, 1e-3)
    d_tight = interference_horizon(DESK, 1, 1e-5)
    assert d_tight > d_loose > 0.0
    empty = ChannelConfig(lambda_b=1.0, lambda_d=0.0)
    assert interference_horizon(empty, 1, 1e-3) == pytest.approx(5.0 / np.sqrt(np.pi))


# ------------------------------------------------------- finite-window mode


def test_guard_bias_invariant():
    # noise-limited regime: success depends on the serving distance alone,
    # the quantity the interior guard is meant to protect
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0, sigma2=5e-5)

    def run(radius, reps, guard):
        return simulate_summary(cfg, 1, settings=SimSettings(
            replications=reps, seed=31, region=Region(radius), guard=guard,
            redraw_budget=10 ** 6)).transmission

    g_small = run(1.4, 2000, None)
    u_small = run(1.4, 2000, 1e-9)
    gap = abs(g_small.p_hat - u_small.p_hat)
    assert gap > g_small.ci_halfwidth + u_small.ci_halfwidth

    g_large = run(10.0, 1500, None)
    u_large = run(10.0, 1500, 1e-9)
    gap = abs(g_large.p_hat - u_large.p_hat)
    assert gap <= g_large.ci_halfwidth + u_large.ci_halfwidth


def test_guard_depth_validation():
    with pytest.raises(ConfigError, match="guard depth"):
        simulate_summary(DESK, 1, settings=SimSettings(
            replications=10, seed=0, region=Region(1.0), guard=1.5))


def test_redraw_budget_exhaustion():
    sparse = ChannelConfig(lambda_b=1e-6, lambda_d=0.0)
    with pytest.raises(ConfigError, match="redraw budget"):
        simulate_summary(sparse, 1, settings=SimSettings(
            replications=10, seed=0, region=Region(1.0), guard=0.1,
            redraw_budget=5))


def test_finite_window_tracks_origin_mode():
    # big window with the default guard agrees with the typical-point run
    s_origin = simulate_summary(DESK, 1,
                                settings=SimSettings(replications=800, seed=13))
    s_window = simulate_summary(DESK, 1, settings=SimSettings(
        replications=800, seed=13, region=Region(12.0), redraw_budget=10 ** 5))
    gap = abs(s_origin.transmission.p_hat - s_window.transmission.p_hat)
    assert gap <= s_origin.transmission.ci_halfwidth + s_window.transmission.ci_halfwidth
