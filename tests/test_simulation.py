"""Tests for the Monte Carlo contention estimator: point processes,
per-trial contention logic and agreement with the analytics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbrach import simulation
from nbrach.energy import EnergyConfig
from nbrach.errors import ConfigError, NumericError
from nbrach.rach import ChannelConfig, InterferenceMode, joint_symbol_success
from nbrach.simulation import (
    SimSettings,
    contention_outcome,
    interference_horizon,
    simulate_summary,
)

DESK = ChannelConfig(lambda_b=1.0, lambda_d=1000.0)
# two same-cell devices at one point, 0.3 km from their shared station
COLOCATED = (np.array([0.3, 0.3]), np.array([True, True]))


# ------------------------------------------------------------- point fields


def test_associate_nearest_brute_force():
    rng = np.random.default_rng(2)
    devs = rng.random((40, 2))
    enbs = rng.random((7, 2))
    got = simulation._nearest(devs[:, 0], devs[:, 1], enbs[:, 0], enbs[:, 1])
    for i, d in enumerate(devs):
        dists = np.hypot(*(enbs - d).T)
        assert dists[got[i]] == dists.min()


def test_associate_nearest_tie_lowest_index():
    devs = np.array([[0.0, 0.0]])
    enbs = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert simulation._nearest(devs[:, 0], devs[:, 1], enbs[:, 0], enbs[:, 1])[0] == 0


# ------------------------------------------------------------ trial logic


def score(dist, same_cell, cfg, mode, seed, tagged=0):
    """One trial on the fading block default_rng(seed) draws for it, the
    tagged device moved to the front, where the scorer expects it."""
    fading = np.random.default_rng(seed).exponential(size=(len(dist), 1, 4))
    order = [tagged] + [i for i in range(len(dist)) if i != tagged]
    trans, coll = contention_outcome(dist[order][None], same_cell[order][None], cfg,
                                     mode, fading[order][None])
    return bool(trans[0]), bool(coll[0])


def test_lone_device_succeeds():
    # thermal noise is ~16 orders below the received power here; without
    # noise the SINR is infinite, and that must not warn
    for sigma2 in (None, 0.0):
        cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0,
                            **({} if sigma2 is None else {"sigma2": sigma2}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trans, coll = score(np.array([0.1]), np.array([True]), cfg,
                                InterferenceMode.FULL, 0)
        assert trans and not coll


def test_colocated_mutual_exclusion_at_high_threshold():
    # same-station contenders cannot both clear a threshold above one
    # within the same repetition
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0)
    for seed in range(300):
        trans, coll = score(*COLOCATED, cfg, InterferenceMode.FULL, seed)
        assert not (trans and coll)


def test_colocated_symmetry_below_unit_threshold():
    # below gamma = 1 both can clear; outcomes mirror when roles swap
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0, gamma_th=0.25)
    both = 0
    for seed in range(60):
        a_trans, a_coll = score(*COLOCATED, cfg, InterferenceMode.FULL, seed)
        b_trans, b_coll = score(*COLOCATED, cfg, InterferenceMode.FULL, seed, tagged=1)
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
        return sum(score(dist, same_cell, cfg, mode, s)[0] for s in range(300))

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
# a few devices per trial, so one chunk holds hundreds of attempts
LIGHT = ChannelConfig(lambda_b=1.0, lambda_d=3_000.0, gamma_th=0.25)


@pytest.mark.parametrize("cfg, n_t, mode, settings, expected", [
    (CROWD, 8, InterferenceMode.FULL, SimSettings(replications=400, seed=101),
     (378, 373, 19, 0)),
    (CROWD, 4, InterferenceMode.INTRA_CELL_ONLY, SimSettings(replications=400, seed=102),
     (385, 382, 17, 0)),
    # recorded before the chunked loop: many chunks, and a count that is a
    # multiple of no chunk
    (LIGHT, 4, InterferenceMode.FULL, SimSettings(replications=2501, seed=104),
     (2471, 2461, 31, 0)),
    (LIGHT, 4, InterferenceMode.INTRA_CELL_ONLY, SimSettings(replications=2501, seed=105),
     (2465, 2448, 53, 0)),
], ids=["origin-full", "origin-intra", "light-full", "light-intra"])
def test_summary_stream_pinned(cfg, n_t, mode, settings, expected):
    s = simulate_summary(cfg, n_t, mode, settings)
    trans, rach, coll, redraws = expected
    n = settings.replications
    assert (s.transmission.p_hat, s.rach.p_hat, s.collision_rate, s.redraws) \
        == (trans / n, rach / n, coll / n, redraws)


# attempts refused by the "refused" case below: at the shipped budget that
# run's chunks end after attempts 95, 194 and 292, with refused attempts on
# both sides of each boundary
REFUSED = frozenset({0, *range(88, 98, 3), *range(184, 200, 3), *range(278, 294, 3)})


@pytest.mark.parametrize("mode, refused", [
    (InterferenceMode.FULL, frozenset()),
    (InterferenceMode.INTRA_CELL_ONLY, frozenset()),
    (InterferenceMode.FULL, REFUSED),
], ids=["origin-full", "origin-intra", "refused"])
def test_summary_chunk_invariant(monkeypatch, mode, refused):
    # an empty station window, which no real run meets (e^-326.6 per
    # attempt), forced on fixed attempts: each is counted and skipped
    draw_field = simulation._draw_field
    attempts = []

    def refusing(*args):
        attempts.append(None)
        return None if len(attempts) - 1 in refused else draw_field(*args)

    monkeypatch.setattr(simulation, "_draw_field", refusing)
    # one attempt per chunk, the shipped budget, and one chunk per run
    runs = []
    for elements in (1, simulation._CHUNK_ELEMENTS, 1 << 40):
        attempts.clear()
        monkeypatch.setattr(simulation, "_CHUNK_ELEMENTS", elements)
        runs.append(simulate_summary(CROWD, 4, mode, SimSettings(replications=300, seed=107)))
        assert len(attempts) == 300 + len(refused)
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].redraws == len(refused)


# ------------------------------------------------- origin geometry reference


def reference_origin_place(sampler, draws):
    """The origin construction placing every station: the serving one by
    argmin(hypot) over padded rows, the devices with the tagged one as
    uniforms (0, 0), membership searched against each trial's stations.
    `place` must give its distances and masks bit for bit."""
    def disc_xy(radius, uniforms):
        counts = np.array([u.shape[1] for u in uniforms])
        drawn = np.arange(counts.max()) < counts[:, None]
        u = np.concatenate(uniforms, axis=1)
        r = radius * np.sqrt(u[0])
        theta = 2.0 * np.pi * u[1]
        x = np.full(drawn.shape, np.inf)
        y = np.full(drawn.shape, np.inf)
        x[drawn] = r * np.cos(theta)
        y[drawn] = r * np.sin(theta)
        return x, y

    sx, sy = disc_xy(sampler.r_enb, [d[0] for d in draws])
    serve = np.argmin(np.hypot(sx, sy), axis=1)
    rows = np.arange(len(draws))
    tagged = np.zeros((2, 1))
    px, py = disc_xy(sampler.r_int, [np.concatenate((tagged, d[1]), axis=1) for d in draws])
    dist = np.hypot(px - sx[rows, serve][:, None], py - sy[rows, serve][:, None])
    same_cell = np.zeros(dist.shape, dtype=bool)
    same_cell[:, 0] = True
    t, d = np.nonzero(dist[:, 1:] <= sampler.cell_check)
    d += 1
    dx = px[t, d][:, None] - sx[t]
    dy = py[t, d][:, None] - sy[t]
    same_cell[t, d] = np.argmin(dx * dx + dy * dy, axis=1) == serve[t]
    return dist, same_cell


ORIGIN = simulation._OriginSampler(CROWD, 2, 5e-4)


def origin_row(rng, stations, devices, rival=None, zeros=0, planted=0):
    """One attempt's draws: a rival station at radial uniform (1 + rival)
    times the nearest one's, `zeros` stations at the centre, and `planted`
    devices within 1 km of the tagged device."""
    s, d = rng.random((2, stations)), rng.random((2, devices))
    nearest = int(np.argmin(s[0]))
    if rival is not None and stations > 1:
        s[0, (nearest + 1 + rng.integers(stations - 1)) % stations] = s[0, nearest] * (1.0 + rival)
    s[0, rng.choice(stations, min(zeros, stations), replace=False)] = 0.0
    d[0, :planted] *= ORIGIN.r_int ** -2
    return s, d


def assert_place_matches_reference(draws):
    dist, same_cell = ORIGIN.place(draws)
    ref_dist, ref_same_cell = reference_origin_place(ORIGIN, draws)
    assert np.array_equal(dist, ref_dist)
    assert np.array_equal(same_cell, ref_same_cell)
    return same_cell


def test_origin_place_matches_reference_on_edge_rows():
    rng = np.random.default_rng(11)
    draws = [origin_row(rng, 327, 0),                       # no device at all
             origin_row(rng, 327, 40),                      # none planted
             origin_row(rng, 327, 60, planted=6),           # several near
             origin_row(rng, 327, 30, rival=1e-12, planted=3),
             origin_row(rng, 327, 30, rival=0.0, planted=2),
             origin_row(rng, 327, 30, rival=1e-9, planted=2),
             origin_row(rng, 327, 20, zeros=1, planted=2),  # serving station at the centre
             origin_row(rng, 327, 20, zeros=2),             # two there: the first column serves
             origin_row(rng, 1, 5, planted=5)]              # a lone station serves all
    same_cell = assert_place_matches_reference(draws)
    near = same_cell[:, 1:].sum(axis=1)
    assert near[0] == 0 and near[2] >= 2 and near[-1] == 5


@st.composite
def origin_chunks(draw):
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        rows.append(origin_row(
            rng, draw(st.integers(1, 400)), draw(st.integers(0, 50)),
            rival=draw(st.sampled_from([None, 0.0, 1e-12, 1e-10, 1e-9, 2e-9])),
            zeros=draw(st.integers(0, 2)), planted=draw(st.integers(0, 5))))
    return rows


@given(origin_chunks())
@settings(max_examples=60, deadline=None)
def test_origin_place_matches_reference(draws):
    assert_place_matches_reference(draws)


def test_summary_matches_analytics_at_transmission_level():
    s = simulate_summary(DESK, 1, settings=SimSettings(replications=2000, seed=5))
    truth = joint_symbol_success(4, DESK)
    # 3 sigma on the binomial estimate
    assert abs(s.transmission.p_hat - truth) <= 3.0 / 1.96 * s.transmission.ci_halfwidth


@pytest.mark.parametrize("mode", list(InterferenceMode), ids=lambda m: m.value)
def test_summary_single_repetition_identity(mode):
    # gamma >= 1 forbids a same-cell contender succeeding alongside the
    # tagged device within the lone repetition: random access equals
    # transmission success trial by trial, though contenders do collide
    crowded = ChannelConfig(lambda_b=1.0, lambda_d=30_000.0, a_a=0.015, gamma_th=10 ** 0.5)
    s = simulate_summary(crowded, 1, mode, SimSettings(replications=800, seed=5))
    assert s.collision_rate > 0.0
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


REMOVED_SETTINGS = (
    (SimSettings, "region", 1.0), (SimSettings, "guard", 0.5), (SimSettings, "redraw_budget", 5),
    (EnergyConfig, "bound_mode", "success"), (EnergyConfig, "enforce_standard_repetitions", False),
    (ChannelConfig, "epsilon_override", 1.1),
)


@pytest.mark.parametrize("layer, name, value", REMOVED_SETTINGS,
                         ids=[f"{layer.__name__}-{name}" for layer, name, _ in REMOVED_SETTINGS])
def test_removed_settings_are_gone(layer, name, value):
    # no sampler takes a region, guard or redraw budget, the battery chain
    # models both regimes and only NPRACH's repetition values, and the
    # density ratio alone sets epsilon; region reads as a constant None that
    # no caller sets
    with pytest.raises(TypeError, match=name):
        layer(**{name: value})
    assert SimSettings().region is None


def test_horizon_behaviour():
    d_loose = interference_horizon(DESK, 1, 1e-3)
    d_tight = interference_horizon(DESK, 1, 1e-5)
    assert d_tight > d_loose > 0.0
    empty = ChannelConfig(lambda_b=1.0, lambda_d=0.0)
    assert interference_horizon(empty, 1, 1e-3) == pytest.approx(5.0 / np.sqrt(np.pi))
    for tail_tol in (0.0, -1.0, 1.0):  # once a ZeroDivisionError, a TypeError and a radius
        with pytest.raises(ConfigError, match="tail_tol"):
            interference_horizon(DESK, 1, tail_tol)


def test_horizon_near_alpha_two_is_numeric_error():
    # (2 coef / tail_tol) ** (1 / (alpha - 2)) overflows a float there
    with pytest.raises(NumericError, match=r"alpha = 2\.005, n_t = 1"):
        interference_horizon(ChannelConfig(alpha=2.005), 1, 5e-4)


# a case with n_t = 1 leaves n_t out of its id, as before other n_t were added
@pytest.mark.parametrize("alpha, n_t", [
    pytest.param(alpha, n_t, id=f"{alpha}" if n_t == 1 else f"{alpha}-{n_t}")
    for alpha, n_t in [(2.005, 1), (2.05, 1), (2.8, 1), (3.0, 8)]])
def test_summary_near_alpha_two_refused_before_any_draw(monkeypatch, alpha, n_t):
    # at 2.05 the horizon is finite but holds ~1e142 expected interferers; at
    # 2.8 and 3.0 an attempt's expected arrays would fill 676 and 115 chunks
    def no_draw(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(simulation, "_draw_field", no_draw)
    with pytest.raises(NumericError, match=f"alpha = {alpha}, n_t = {n_t}"):
        simulate_summary(ChannelConfig(alpha=alpha), n_t,
                         settings=SimSettings(replications=5, seed=1))
