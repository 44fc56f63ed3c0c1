"""Monte-Carlo contention simulator used as an independent cross-check.

Base stations and contending devices are Poisson fields on a disc; the
tagged device transmits a preamble of 4 symbol groups, repeated n_t
times, with fresh unit-mean exponential fading per link and symbol
group.  Success and collision are decided from the exact SINR sums at
the serving station, never from the closed-form machinery this module
is meant to validate.

Two sampling constructions are provided.  The default centres the
tagged device at the origin of windows sized from an explicit far-field
tail bound, which is the typical-point law of the infinite plane
(conditioning a Poisson process on a point leaves the rest unchanged)
and keeps the truncation bias a measured fraction of the confidence
interval.  Passing an explicit Region instead samples the tagged
position uniformly over a finite disc with an interior-cell guard, the
construction whose edge bias the guard-sanity tests exercise.

Each construction is only a geometry sampler, in two steps: `draw`
makes one attempt's raw draws (Poisson counts, disc uniforms) from its
generator, or None when no station falls in the window, and `place`
turns a chunk of them into the tagged stations' distances and same-cell
masks, rejecting window attempts served from outside the guard.
simulate_summary owns the one replication loop: seeding, redraw budget,
chunks and tallies.  All that follows the draws (Cartesian positions,
serving-station search, cell membership, pool sums, SINR) runs once per
chunk on arrays padded to the chunk's widest attempt, and
contention_outcome, the one scorer, scores a whole chunk in one pass.
Pools add each trial's devices in row order, so a trial scores the same
in any chunk: the chunking never changes a result or a CSV byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, integer
from .rach import (
    SYMBOL_GROUPS_PER_REPETITION,
    ChannelConfig,
    InterferenceMode,
    active_density,
    pgfl_kernel,
    select_epsilon,
    symbol_group_count,
)

# exp(-50) miss probability for nearest-station searches inside finite windows
_WINDOW_LOG_MISS = 50.0
# cell-membership checks are exact within this many mean cell radii of the
# serving station; beyond, same-cell probability is at most exp(-25)
_CELL_CHECK_RADII = 5.0

_NORMAL_95 = 1.96

# 8-byte values the arrays of one chunk of attempts may hold at once; it
# bounds working memory and never changes a result
_CHUNK_ELEMENTS = 1 << 19
# values' worth of memory an attempt holds besides its arrays: its
# generator and the headers of its draws
_ATTEMPT_OVERHEAD = 128


@dataclass(frozen=True)
class Region:
    """Disc sampling window centred at the origin (km)."""

    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ConfigError("region radius must be positive")

    @classmethod
    def from_area(cls, area_km2: float) -> "Region":
        if not (area_km2 > 0.0):
            raise ConfigError("region area must be positive")
        return cls(radius=math.sqrt(area_km2 / math.pi))

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius


@dataclass(frozen=True)
class SimSettings:
    """Estimator controls.

    region=None selects the origin-tagged construction with windows sized
    so the expected effect of truncated far-field interference stays below
    tail_tol; an explicit Region selects the finite-window construction
    with an interior-cell guard of depth `guard` (default 2/sqrt(pi
    lambda_b), two mean cell radii of edge correction).
    """

    replications: int = 10_000
    seed: int = 0
    region: Region | None = None
    guard: float | None = None
    tail_tol: float = 5e-4
    redraw_budget: int = 1000

    def __post_init__(self):
        if integer(self.replications, "replications") < 1:
            raise ConfigError("replications must be a positive integer")
        if integer(self.seed, "seed") < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.guard is not None and not (self.guard >= 0.0):
            raise ConfigError("guard must be non-negative")
        if not (0.0 < self.tail_tol < 1.0):
            raise ConfigError("tail_tol must lie in (0, 1)")
        if integer(self.redraw_budget, "redraw_budget") < 1:
            raise ConfigError("redraw_budget must be a positive integer")


@dataclass(frozen=True)
class RachEstimate:
    """Binomial estimate with a 95% normal-approximation interval."""

    p_hat: float
    ci_halfwidth: float
    trials: int
    seed: int


@dataclass(frozen=True)
class SimulationSummary:
    """Per-trial tallies of the three outcome fields over one run."""

    transmission: RachEstimate
    rach: RachEstimate
    collision_rate: float
    redraws: int


def _estimate(successes: int, trials: int, seed: int) -> RachEstimate:
    p = successes / trials
    hw = _NORMAL_95 * math.sqrt(p * (1.0 - p) / trials)
    return RachEstimate(p_hat=p, ci_halfwidth=hw, trials=trials, seed=seed)


def _disc_xy(radius: float, uniforms: list[np.ndarray],
             skip: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Place each attempt's (2, n) uniforms, radial row first, uniformly
    on the disc as one row of (attempts, skip + widest) x and y arrays,
    from column `skip` on.  Padding, and the skipped columns, sit at
    infinity: never nearest, and no power."""
    counts = np.array([u.shape[1] for u in uniforms]) + skip
    cols = np.arange(counts.max())
    real = (cols >= skip) & (cols < counts[:, None])
    u = np.concatenate(uniforms, axis=1)
    r = radius * np.sqrt(u[0])
    theta = 2.0 * math.pi * u[1]
    x = np.full(real.shape, np.inf)
    y = np.full(real.shape, np.inf)
    x[real] = r * np.cos(theta)
    y[real] = r * np.sin(theta)
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
    return np.argmin(dx * dx + dy * dy, axis=1)


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
    repetition and symbol group, shape (trials, devices, n_t, 4),
    so the tagged evaluation and every contender evaluation of a trial
    see the same channel realisations.

    Interference comes from every device (FULL) or only the same-cell
    ones (INTRA_CELL_ONLY); a collision is any other same-cell device whose
    own transmission also succeeds at the shared station.  Random access
    succeeds on transmission without collision.  Pools add the devices of
    a trial in row order, padding last, so a trial scores the same alone
    or among others.
    """
    contrib = (cfg.p * np.maximum(dist, 1e-12) ** (-cfg.alpha))[..., None, None] * fading
    if mode is InterferenceMode.FULL:
        pool = contrib.sum(axis=1)
    elif mode is InterferenceMode.INTRA_CELL_ONLY:
        pool = np.where(same_cell[..., None, None], contrib, 0.0).sum(axis=1)
    else:
        raise ConfigError("mode must be an InterferenceMode")

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
    slack gives the solved-for d.
    """
    lam_da = active_density(cfg)
    floor = _CELL_CHECK_RADII / math.sqrt(math.pi * cfg.lambda_b)
    if lam_da == 0.0:
        return floor
    eps = select_epsilon(lam_da, cfg.lambda_b, cfg.epsilon_override)
    l = symbol_group_count(n_t)
    s = eps * math.pi * cfg.lambda_b + 2.0 * math.pi * lam_da \
        * cfg.gamma_th ** (2.0 / cfg.alpha) * pgfl_kernel(cfg.alpha, l)
    coef = (2.0 * math.pi * lam_da * l * cfg.gamma_th
            * math.gamma(cfg.alpha / 2.0 + 1.0) / s ** (cfg.alpha / 2.0)
            / (cfg.alpha - 2.0))
    d = (2.0 * coef / tail_tol) ** (1.0 / (cfg.alpha - 2.0))
    return max(d, floor)


class _OriginSampler:
    """Typical-point construction: tagged at the origin, stations sampled
    out to where the nearest-station and cell-membership searches are
    exact to exp(-25), interferers out to the interference horizon."""

    exhausted = "station field too sparse to sample"

    def __init__(self, cfg: ChannelConfig, n_t: int, tail_tol: float):
        sqrt_plb = math.sqrt(math.pi * cfg.lambda_b)
        r_assoc = math.sqrt(_WINDOW_LOG_MISS) / sqrt_plb
        self.cell_check = _CELL_CHECK_RADII / sqrt_plb
        self.r_enb = r_assoc + 2.0 * self.cell_check + 1.0 / sqrt_plb
        self.r_int = interference_horizon(cfg, n_t, tail_tol)
        self.mean_enb = cfg.lambda_b * math.pi * self.r_enb ** 2
        self.mean_int = active_density(cfg) * math.pi * self.r_int ** 2
        # expected devices within cell_check of the serving station
        self.mean_near = active_density(cfg) * math.pi * self.cell_check ** 2

    def searchers(self, devices: int) -> float:
        """Devices per attempt that search every station for their own."""
        return min(devices, self.mean_near)

    def draw(self, rng: np.random.Generator):
        return _draw_field(rng, self.mean_enb, self.mean_int)

    def place(self, draws):
        sx, sy = _disc_xy(self.r_enb, [d[0] for d in draws])
        serve = np.argmin(np.hypot(sx, sy), axis=1)
        rows = np.arange(len(draws))
        px, py = _disc_xy(self.r_int, [d[1] for d in draws], skip=1)
        px[:, 0] = py[:, 0] = 0.0  # the tagged device
        dist = np.hypot(px - sx[rows, serve][:, None], py - sy[rows, serve][:, None])
        # exact membership test only where same-cell is not already impossible
        same_cell = np.zeros(dist.shape, dtype=bool)
        same_cell[:, 0] = True
        t, d = np.nonzero(dist[:, 1:] <= self.cell_check)
        d += 1
        same_cell[t, d] = _nearest(px[t, d], py[t, d], sx[t], sy[t]) == serve[t]
        return np.ones(len(draws), dtype=bool), dist, same_cell


class _WindowSampler:
    """Finite-window construction: tagged position uniform over the disc,
    accepted only when its serving station sits at least `guard` inside
    the boundary; station and interferer fields cover the disc only, so
    the estimate carries the documented edge bias."""

    exhausted = "no interior tagged cell found"

    def __init__(self, cfg: ChannelConfig, settings: SimSettings):
        region = settings.region
        guard = settings.guard
        if guard is None:
            guard = 2.0 / math.sqrt(math.pi * cfg.lambda_b)
        if guard >= region.radius:
            raise ConfigError("guard depth leaves no interior: enlarge the region")
        self.radius = region.radius
        self.interior = region.radius - guard
        self.mean_enb = cfg.lambda_b * region.area
        self.mean_int = active_density(cfg) * region.area

    def searchers(self, devices: int) -> float:
        """Devices per attempt that search every station for their own."""
        return devices

    def draw(self, rng: np.random.Generator):
        field = _draw_field(rng, self.mean_enb, self.mean_int)
        # the tagged position is the attempt's last geometry draw
        return None if field is None else field + (rng.random((2, 1)),)

    def place(self, draws):
        sx, sy = _disc_xy(self.radius, [d[0] for d in draws])
        # the tagged device first, as the scorer expects
        px, py = _disc_xy(self.radius, [np.concatenate((d[2], d[1]), axis=1) for d in draws])
        t, d = np.nonzero(np.isfinite(px))
        assoc = np.full(px.shape, -1)
        assoc[t, d] = _nearest(px[t, d], py[t, d], sx[t], sy[t])
        rows = np.arange(len(draws))
        serve = assoc[:, 0]
        ex, ey = sx[rows, serve], sy[rows, serve]
        # math.hypot per station: np.hypot may differ in the last bit, and
        # the guard test must not move
        inside = np.array([math.hypot(x, y) <= self.interior
                           for x, y in zip(ex.tolist(), ey.tolist())])
        dist = np.hypot(px - ex[:, None], py - ey[:, None])
        return inside, dist, assoc == serve[:, None]


def simulate_summary(cfg: ChannelConfig, n_t: int, mode: InterferenceMode = InterferenceMode.FULL,
                     settings: SimSettings | None = None) -> SimulationSummary:
    """Run the full estimator and return transmission, collision and
    random-access tallies with confidence intervals.

    Attempt k draws from its own stream SeedSequence((seed, k)); an
    attempt whose geometry is rejected counts as a redraw and is skipped.
    The raw draws are made one attempt at a time into a chunk of
    candidates, all that follows them once per chunk, whose arrays hold
    about _CHUNK_ELEMENTS values.  A chunk never holds more candidates
    than the run still needs, so every attempt drawn is one that a
    one-attempt-at-a-time loop would draw too, and the redraw budget runs
    out exactly where that loop's would: no result depends on where
    chunks end.
    """
    settings = settings or SimSettings()
    symbol_group_count(n_t)
    if settings.region is None:
        sampler = _OriginSampler(cfg, n_t, settings.tail_tol)
    else:
        sampler = _WindowSampler(cfg, settings)

    n = settings.replications
    done = trans = coll = rach = redraws = attempt = 0
    while done < n:
        rngs, draws = [], []
        stations = devices = 0
        while done + len(draws) < n and redraws <= settings.redraw_budget:
            rng = np.random.default_rng(np.random.SeedSequence((settings.seed, attempt)))
            attempt += 1
            draw = sampler.draw(rng)
            if draw is None:
                redraws += 1
                continue
            rngs.append(rng)
            draws.append(draw)
            stations = max(stations, draw[0].shape[1])
            devices = max(devices, draw[1].shape[1] + 1)
            # arrays at the chunk's widest attempt: about ten of stations,
            # eight of devices, three of fading and seven of the
            # membership search's (searcher, station) pairs
            size = _ATTEMPT_OVERHEAD + 10 * stations \
                + (8 + 3 * SYMBOL_GROUPS_PER_REPETITION * n_t) * devices \
                + 7 * sampler.searchers(devices) * stations
            if len(draws) * size >= _CHUNK_ELEMENTS:
                break

        # the loop above ends without candidates only on a spent budget
        if draws:
            inside, dist, same_cell = sampler.place(draws)
            redraws += len(draws) - int(inside.sum())
        if redraws > settings.redraw_budget:
            raise ConfigError(f"redraw budget exhausted: {sampler.exhausted}")
        if not inside.any():
            continue

        # fading is each attempt's last draw, one block per real device
        width = np.isfinite(dist).sum(axis=1)[inside]
        dist, same_cell = dist[inside, :width.max()], same_cell[inside, :width.max()]
        fading = np.zeros(dist.shape + (n_t, SYMBOL_GROUPS_PER_REPETITION))
        kept = (rng for rng, ok in zip(rngs, inside.tolist()) if ok)
        for row, (rng, k) in enumerate(zip(kept, width.tolist())):
            rng.standard_exponential(out=fading[row, :k])
        transmission, collision = contention_outcome(dist, same_cell, cfg, mode, fading)
        trans += int(transmission.sum())
        coll += int(collision.sum())
        rach += int((transmission & ~collision).sum())
        done += len(width)

    return SimulationSummary(
        transmission=_estimate(trans, n, settings.seed),
        rach=_estimate(rach, n, settings.seed),
        collision_rate=coll / n,
        redraws=redraws,
    )
