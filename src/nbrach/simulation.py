"""Monte-Carlo contention simulator used as an independent cross-check.

Base stations and contending devices are Poisson fields on discs; the
tagged device transmits a preamble of 4 symbol groups, repeated n_t
times, with fresh unit-mean exponential fading per link and symbol
group.  Success and collision are decided from the exact SINR sums at
the serving station, never from the closed-form machinery this module
is meant to validate.

The tagged device sits at the origin of windows sized from an explicit
far-field tail bound: the typical-point law of the infinite plane
(conditioning a Poisson process on a point leaves the rest unchanged),
with the truncation bias kept a measured fraction of the confidence
interval.

Each attempt's raw draws (Poisson counts, disc uniforms) come from
_draw_field, which refuses the attempt, returning None, for an empty
station window.  The geometry sampler's `place` turns a chunk of
accepted draws into the tagged stations' distances and same-cell masks,
one row each.  simulate_summary owns the one replication loop: seeding,
draws, chunks and tallies.  All that follows the draws runs once per
chunk on arrays padded to the chunk's widest attempt.  `place` finds the
serving station among the stations radially next to the nearest, and
places the rest only for trials with a device close enough to need the
cell-membership search; contention_outcome, the one scorer, forms a
whole chunk's received powers in its fading array and scores them in one
pass.  Pools add each trial's devices in row order, so a trial scores
the same in any chunk: the chunking never changes a result or a CSV
byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, NumericError, integer, real
from .rach import (
    SYMBOL_GROUPS_PER_REPETITION,
    ChannelConfig,
    InterferenceMode,
    active_density,
    pgfl_kernel,
    select_epsilon,
    symbol_group_count,
)

if TYPE_CHECKING:  # for annotations: numpy is imported where arrays are built
    import numpy as np

# exp(-50) miss probability for the nearest-station search inside the window
_WINDOW_LOG_MISS = 50.0
# cell-membership checks are exact within this many mean cell radii of the
# serving station; beyond, same-cell probability is at most exp(-25)
_CELL_CHECK_RADII = 5.0

_NORMAL_95 = 1.96

# 8-byte values the arrays of one chunk of attempts may hold at once; it
# bounds working memory and never changes a result
_CHUNK_ELEMENTS = 1 << 20
# values' worth of memory an attempt holds besides its arrays: its
# generator and the headers of its draws
_ATTEMPT_OVERHEAD = 128
# most values one attempt's expected arrays may hold, 16 chunks or 128 MiB:
# room for every alpha = 4 point up to density ratio 1e4 and n_t = 32 (at most
# 0.3 chunks) and alpha = 3.5 (3.9), but not for alpha = 3, n_t = 8 (115
# chunks, 0.9 GiB) or alpha = 2.8, n_t = 1 (676, 5.4 GiB) at the default channel
_ATTEMPT_ELEMENTS = 16 * _CHUNK_ELEMENTS


@dataclass(frozen=True)
class SimSettings:
    """Estimator controls.  The station and interferer windows are sized
    so the expected effect of truncated far-field interference stays below
    tail_tol."""

    replications: int = 10_000
    seed: int = 0
    tail_tol: float = 5e-4

    # not a field, so no caller can set it: always None, the window the
    # benchmark's tracer (perfbench/tracer.py:150) sizes its interferer
    # count from; ROADMAP item 8 deletes it with that branch of the tracer
    region = None

    def __post_init__(self):
        integer(self.replications, "replications", ge=1)
        integer(self.seed, "seed", ge=0)
        real(self.tail_tol, "tail_tol", gt=0.0, lt=1.0)


@dataclass(frozen=True)
class RachEstimate:
    """Binomial estimate with a 95% normal-approximation interval."""

    p_hat: float
    ci_halfwidth: float
    trials: int
    seed: int


@dataclass(frozen=True)
class SimulationSummary:
    """Per-trial tallies of the three outcome fields over one run.

    redraws counts the attempts refused for an empty station window and
    skipped; the window holds about 326.6 stations on average, so each
    attempt is refused with probability e^-326.6."""

    transmission: RachEstimate
    rach: RachEstimate
    collision_rate: float
    redraws: int


def _estimate(successes: int, trials: int, seed: int) -> RachEstimate:
    p = successes / trials
    hw = _NORMAL_95 * math.sqrt(p * (1.0 - p) / trials)
    return RachEstimate(p_hat=p, ci_halfwidth=hw, trials=trials, seed=seed)


def _polar(radius: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x and y of (2, n) uniforms, radial row first, uniform on the disc."""
    import numpy as np
    r = radius * np.sqrt(u[0])
    theta = 2.0 * math.pi * u[1]
    return r * np.cos(theta), r * np.sin(theta)


def _disc_xy(radius: float, uniforms: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Place each attempt's (2, n) uniforms on the disc as one row of
    (attempts, widest) x and y arrays.  Padding sits at infinity: never
    nearest, and no power."""
    import numpy as np
    counts = np.array([u.shape[1] for u in uniforms])
    drawn = np.arange(counts.max()) < counts[:, None]
    x = np.full(drawn.shape, np.inf)
    y = np.full(drawn.shape, np.inf)
    x[drawn], y[drawn] = _polar(radius, np.concatenate(uniforms, axis=1))
    return x, y


def _draw_field(rng: np.random.Generator, mean_enb: float, mean_int: float):
    """One attempt's station and interferer disc uniforms, (2, n) each, or
    None when no station falls in the window."""
    n_b = int(rng.poisson(mean_enb))
    if n_b == 0:
        return None
    stations = rng.random((2, n_b))
    n_i = int(rng.poisson(mean_int)) if mean_int > 0.0 else 0
    return stations, rng.random((2, n_i))


def _nearest(x: np.ndarray, y: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Column of the nearest station to each point (x, y), searched over
    the matching row of sx, sy (or over one shared row); ties go to the
    lowest column."""
    dx = x[:, None] - sx
    dy = y[:, None] - sy
    return (dx * dx + dy * dy).argmin(axis=1)


def contention_outcome(dist: np.ndarray, same_cell: np.ndarray, cfg: ChannelConfig,
                       mode: InterferenceMode,
                       fading: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score trials as (transmission success, collision), one entry each.

    Row t of `dist` holds trial t's same-preamble active devices'
    distances to the tagged device's serving station, the tagged device
    first, and `same_cell` marks the devices that station serves, the
    tagged one always; both have shape (trials, devices), rows padded to
    a common width with infinite distances, which carry no power, and
    False.  `fading` holds every device's unit-mean exponential fading per
    repetition and symbol group, shape (trials, devices, n_t, 4), zero in
    the padding, so the tagged evaluation and every contender evaluation
    of a trial see the same channel realisations; it is overwritten with
    the received powers.

    Interference comes from every device (FULL) or only the same-cell
    ones (INTRA_CELL_ONLY); a collision is any other same-cell device whose
    own transmission also succeeds at the shared station.  Random access
    succeeds on transmission without collision.  Pools add the devices of
    a trial in row order, padding last, so a trial scores the same alone
    or among others.
    """
    import numpy as np
    if mode is not InterferenceMode.FULL and mode is not InterferenceMode.INTRA_CELL_ONLY:
        raise ConfigError("mode must be an InterferenceMode")
    gain = cfg.p * np.maximum(dist, 1e-12) ** (-cfg.alpha)
    contrib = np.multiply(gain[..., None, None], fading, out=fading)
    if mode is InterferenceMode.INTRA_CELL_ONLY:
        contrib[~same_cell] = 0.0
    pool = contrib.sum(axis=1)

    # every same-cell device's own signal is in the pool under either mode
    trial, device = np.nonzero(same_cell)
    own = contrib[trial, device]
    denom = np.maximum(pool[trial] - own, 0.0) + cfg.sigma2
    sinr = np.divide(own, denom, out=np.full_like(own, np.inf), where=denom > 0.0)
    ok = (sinr >= cfg.gamma_th).all(axis=2).any(axis=1)
    collision = np.zeros(dist.shape[0], dtype=bool)
    collision[trial[ok & (device > 0)]] = True
    return ok[device == 0], collision


def interference_horizon(cfg: ChannelConfig, n_t: int, tail_tol: float) -> float:
    """Radius beyond which omitted same-preamble interferers shift the
    success probability by less than tail_tol.

    Bound: the expected missing interference is 2 pi lambda_Da P
    d^(2-alpha)/(alpha-2), and a success flip requires it to beat the
    realised SINR margin; weighting by the success-biased distance law
    (effective slope s in the squared-distance domain) and doubling for
    slack gives the solved-for d.  Near alpha = 2 the bound diverges: a
    horizon that is not finite is a NumericError.
    """
    l = symbol_group_count(n_t)
    real(tail_tol, "tail_tol", gt=0.0, lt=1.0)
    lam_da = active_density(cfg)
    floor = _CELL_CHECK_RADII / math.sqrt(math.pi * cfg.lambda_b)
    if lam_da == 0.0:
        return floor
    eps = select_epsilon(lam_da, cfg.lambda_b)
    s = eps * math.pi * cfg.lambda_b + 2.0 * math.pi * lam_da \
        * cfg.gamma_th ** (2.0 / cfg.alpha) * pgfl_kernel(cfg.alpha, l)
    coef = (2.0 * math.pi * lam_da * l * cfg.gamma_th
            * math.gamma(cfg.alpha / 2.0 + 1.0) / s ** (cfg.alpha / 2.0)
            / (cfg.alpha - 2.0))
    try:
        d = (2.0 * coef / tail_tol) ** (1.0 / (cfg.alpha - 2.0))
    except OverflowError:
        d = math.inf
    if not math.isfinite(d):
        raise NumericError(f"interference horizon {d} km at alpha = {cfg.alpha}, "
                           f"n_t = {n_t}: the omitted far field cannot be bounded")
    return max(d, floor)


class _OriginSampler:
    """Typical-point construction: tagged at the origin, stations sampled
    out to where the nearest-station and cell-membership searches are
    exact to exp(-25), interferers out to the interference horizon."""

    def __init__(self, cfg: ChannelConfig, n_t: int, tail_tol: float):
        sqrt_plb = math.sqrt(math.pi * cfg.lambda_b)
        r_assoc = math.sqrt(_WINDOW_LOG_MISS) / sqrt_plb
        self.cell_check = _CELL_CHECK_RADII / sqrt_plb
        self.r_enb = r_assoc + 2.0 * self.cell_check + 1.0 / sqrt_plb
        self.r_int = interference_horizon(cfg, n_t, tail_tol)
        self.mean_enb = cfg.lambda_b * math.pi * self.r_enb ** 2
        try:
            self.mean_int = active_density(cfg) * math.pi * self.r_int ** 2
        except OverflowError:  # the horizon's square is beyond float range
            self.mean_int = math.inf
        # expected devices within cell_check of the serving station
        self.mean_near = active_density(cfg) * math.pi * self.cell_check ** 2
        self.n_t = n_t
        size = self.attempt_size(self.mean_enb, 1.0 + self.mean_int)  # at the expected counts
        if not size <= _ATTEMPT_ELEMENTS:  # inf included
            raise NumericError(f"interference horizon {self.r_int:g} km at alpha = {cfg.alpha}, "
                               f"n_t = {n_t} holds {self.mean_int:g} expected interferers, "
                               f"{size / _CHUNK_ELEMENTS:g} chunks of arrays per attempt, "
                               "more than one trial can hold")

    def attempt_size(self, stations, devices):
        """Values an attempt's arrays hold when it has `stations` stations
        and `devices` devices, the tagged one included: about seven of
        stations, ten of devices, one of fading (scored in place) and seven
        of the membership search's (searcher, station) pairs."""
        return _ATTEMPT_OVERHEAD + 7 * stations \
            + (10 + SYMBOL_GROUPS_PER_REPETITION * self.n_t) * devices \
            + 7 * min(devices, self.mean_near) * stations

    def place(self, draws):
        import numpy as np
        # the serving station is the first nearest by column; a radial uniform
        # 1e-9 above the row's smallest is 5e-10 further out, far beyond the
        # few-ulp error of cos, sin and hypot, so only those within are placed
        rows = np.arange(len(draws))
        u = np.concatenate([d[0] for d in draws], axis=1)
        counts = np.array([d[0].shape[1] for d in draws])
        start = np.cumsum(counts) - counts
        row = np.repeat(rows, counts)
        near = np.flatnonzero(u[0] <= np.minimum.reduceat(u[0], start)[row] * (1.0 + 1e-9))
        cx, cy = _polar(self.r_enb, u[:, near])
        k = np.lexsort((np.hypot(cx, cy), row[near]))[np.searchsorted(row[near], rows)]
        serve, ex, ey = near[k] - start, cx[k], cy[k]
        # the tagged device first, at the origin; then the drawn devices
        n_dev = np.array([d[1].shape[1] for d in draws])
        x1, y1 = _polar(self.r_int, np.concatenate([d[1] for d in draws], axis=1))
        rep = np.repeat(rows, n_dev)
        dist = np.full((len(draws), 1 + n_dev.max()), np.inf)
        dist[:, 0] = np.hypot(0.0 - ex, 0.0 - ey)
        dist[:, 1:][np.arange(n_dev.max()) < n_dev[:, None]] = np.hypot(x1 - ex[rep], y1 - ey[rep])
        # exact membership test only where same-cell is not already impossible,
        # against every station of the trial, placed only for such trials
        same_cell = np.zeros(dist.shape, dtype=bool)
        same_cell[:, 0] = True
        t, d = np.nonzero(dist[:, 1:] <= self.cell_check)
        if t.size:
            search = np.flatnonzero(np.bincount(t, minlength=len(draws)))
            sx, sy = _disc_xy(self.r_enb, [draws[i][0] for i in search])
            k = np.searchsorted(search, t)
            i = np.cumsum(n_dev)[t] - n_dev[t] + d
            same_cell[t, d + 1] = _nearest(x1[i], y1[i], sx[k], sy[k]) == serve[t]
        return dist, same_cell


def simulate_summary(cfg: ChannelConfig, n_t: int, mode: InterferenceMode = InterferenceMode.FULL,
                     settings: SimSettings | None = None) -> SimulationSummary:
    """Run the full estimator and return transmission, collision and
    random-access tallies with confidence intervals.

    Attempt k draws from its own stream SeedSequence((seed, k)).
    _draw_field is the one place an attempt is refused, for an empty
    station window: a refused attempt counts as a redraw and is skipped,
    and the next attempt takes its place.  The raw draws are made one
    attempt at a time into a chunk of accepted attempts, and all that
    follows them (placing, fading, scoring) once per chunk, whose arrays
    hold about _CHUNK_ELEMENTS values.  A chunk never holds more attempts
    than the run still needs, so every attempt drawn is one that a
    one-attempt-at-a-time loop would draw too: no result depends on where
    chunks end.
    """
    import numpy as np
    settings = settings or SimSettings()
    symbol_group_count(n_t)
    sampler = _OriginSampler(cfg, n_t, settings.tail_tol)

    n = settings.replications
    done = trans = coll = rach = redraws = attempt = 0
    while done < n:
        rngs, draws = [], []
        stations = devices = 0
        while done + len(draws) < n:
            rng = np.random.default_rng(np.random.SeedSequence((settings.seed, attempt)))
            attempt += 1
            draw = _draw_field(rng, sampler.mean_enb, sampler.mean_int)
            if draw is None:
                redraws += 1
                continue
            rngs.append(rng)
            draws.append(draw)
            stations = max(stations, draw[0].shape[1])
            devices = max(devices, draw[1].shape[1] + 1)
            # every attempt's arrays padded to the chunk's widest
            if len(draws) * sampler.attempt_size(stations, devices) >= _CHUNK_ELEMENTS:
                break

        dist, same_cell = sampler.place(draws)
        # fading is each attempt's last draw, one block per real device
        fading = np.empty(dist.shape + (n_t, SYMBOL_GROUPS_PER_REPETITION))
        fading[np.isinf(dist)] = 0.0  # padding carries no power
        for row, (rng, k) in enumerate(zip(rngs, np.isfinite(dist).sum(axis=1).tolist())):
            rng.standard_exponential(out=fading[row, :k])
        transmission, collision = contention_outcome(dist, same_cell, cfg, mode, fading)
        del fading  # not held while the next chunk is drawn and placed
        trans += int(transmission.sum())
        coll += int(collision.sum())
        rach += int((transmission & ~collision).sum())
        done += len(draws)

    return SimulationSummary(
        transmission=_estimate(trans, n, settings.seed),
        rach=_estimate(rach, n, settings.seed),
        collision_rate=coll / n,
        redraws=redraws,
    )
