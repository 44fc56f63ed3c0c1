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

Each construction is only a geometry sampler: it turns one attempt's
generator into the tagged station's distances and same-cell mask, or
rejects the attempt.  simulate_summary owns the single replication loop
(per-attempt seeding, redraw budget, tallies) and scores every accepted
attempt with contention_outcome, the one per-trial scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .rach import ChannelConfig, InterferenceMode, active_density, pgfl_kernel, select_epsilon

# exp(-50) miss probability for nearest-station searches inside finite windows
_WINDOW_LOG_MISS = 50.0
# cell-membership checks are exact within this many mean cell radii of the
# serving station; beyond, same-cell probability is at most exp(-25)
_CELL_CHECK_RADII = 5.0

_NORMAL_95 = 1.96


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
        if int(self.replications) != self.replications or self.replications < 1:
            raise ConfigError("replications must be a positive integer")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.guard is not None and self.guard < 0.0:
            raise ConfigError("guard must be non-negative")
        if not (0.0 < self.tail_tol < 1.0):
            raise ConfigError("tail_tol must lie in (0, 1)")
        if int(self.redraw_budget) != self.redraw_budget or self.redraw_budget < 1:
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


def _disc_points(n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * math.pi * rng.random(n)
    pts = np.empty((n, 2))
    pts[:, 0] = r * np.cos(theta)
    pts[:, 1] = r * np.sin(theta)
    return pts


def sample_ppp(intensity: float, region: Region, rng: np.random.Generator) -> np.ndarray:
    """Homogeneous Poisson sample on the disc: Poisson count, uniform
    positions.  Returns an (n, 2) array (possibly empty)."""
    if intensity < 0.0:
        raise ConfigError("intensity must be non-negative")
    n = int(rng.poisson(intensity * region.area)) if intensity > 0.0 else 0
    return _disc_points(n, region.radius, rng)


def associate_nearest(devices: np.ndarray, enbs: np.ndarray) -> np.ndarray:
    """Index of the nearest station per device, ties to the lowest index."""
    if enbs.shape[0] == 0:
        raise ConfigError("association requires at least one station")
    if devices.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    diff = devices[:, None, :] - enbs[None, :, :]
    return np.argmin(np.einsum("ijk,ijk->ij", diff, diff), axis=1)


def contention_outcome(dist: np.ndarray, same_cell: np.ndarray, tagged: int,
                       cfg: ChannelConfig, n_t: int, mode: InterferenceMode,
                       rng: np.random.Generator) -> tuple[bool, bool]:
    """Score one trial as (transmission success, collision).

    `dist` holds every same-preamble active device's distance to the
    tagged device's serving station and `same_cell` marks the devices that
    station serves, the tagged one included.  Interference comes from every
    device (FULL) or only the same-cell ones (INTRA_CELL_ONLY); a collision
    is any other same-cell device whose own transmission also succeeds at
    the shared station.  Random access succeeds on transmission without
    collision.

    One fading block of shape (devices, repetitions, 4) is drawn for the
    whole trial, so the tagged evaluation and every contender evaluation
    see the same channel realisations.
    """
    recv = cfg.p * np.maximum(dist, 1e-12) ** (-cfg.alpha)
    fading = rng.exponential(size=(dist.shape[0], n_t, 4))
    contrib = recv[:, None, None] * fading

    if mode is InterferenceMode.FULL:
        pool = contrib.sum(axis=0)
    elif mode is InterferenceMode.INTRA_CELL_ONLY:
        pool = contrib[same_cell].sum(axis=0)
    else:
        raise ConfigError("mode must be an InterferenceMode")

    # every same-cell device's own signal is in the pool under either mode
    cell = np.flatnonzero(same_cell)
    own = contrib[cell]
    denom = np.maximum(pool - own, 0.0) + cfg.sigma2
    sinr = np.divide(own, denom, out=np.full_like(own, np.inf), where=denom > 0.0)
    ok = (sinr >= cfg.gamma_th).all(axis=2).any(axis=1)
    is_tagged = cell == tagged
    return bool(ok[is_tagged].any()), bool(ok[~is_tagged].any())


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
    l = 4 * int(n_t)
    s = eps * math.pi * cfg.lambda_b + 2.0 * math.pi * lam_da \
        * cfg.gamma_th ** (2.0 / cfg.alpha) * pgfl_kernel(cfg.alpha, l)
    coef = (2.0 * math.pi * lam_da * l * cfg.gamma_th
            * math.gamma(cfg.alpha / 2.0 + 1.0) / s ** (cfg.alpha / 2.0)
            / (cfg.alpha - 2.0))
    d = (2.0 * coef / tail_tol) ** (1.0 / (cfg.alpha - 2.0))
    return max(d, floor)


# one attempt's geometry: (distances to the serving station, same-cell
# mask), tagged device first; None rejects the attempt as a redraw
_Trial = tuple[np.ndarray, np.ndarray]
_Sampler = Callable[[np.random.Generator], "_Trial | None"]


def _origin_sampler(cfg: ChannelConfig, n_t: int, tail_tol: float) -> tuple[_Sampler, str]:
    """Typical-point construction: tagged at the origin, stations sampled
    out to where the nearest-station and cell-membership searches are
    exact to exp(-25), interferers out to the interference horizon."""
    sqrt_plb = math.sqrt(math.pi * cfg.lambda_b)
    r_assoc = math.sqrt(_WINDOW_LOG_MISS) / sqrt_plb
    cell_check = _CELL_CHECK_RADII / sqrt_plb
    r_enb = r_assoc + 2.0 * cell_check + 1.0 / sqrt_plb
    r_int = interference_horizon(cfg, n_t, tail_tol)
    mean_enb = cfg.lambda_b * math.pi * r_enb ** 2
    mean_int = active_density(cfg) * math.pi * r_int ** 2

    def sample(rng: np.random.Generator) -> _Trial | None:
        n_b = int(rng.poisson(mean_enb))
        if n_b == 0:
            return None
        enbs = _disc_points(n_b, r_enb, rng)
        n_i = int(rng.poisson(mean_int)) if mean_int > 0.0 else 0
        devices = np.zeros((n_i + 1, 2))  # the tagged device at the origin first
        devices[1:] = _disc_points(n_i, r_int, rng)
        serve = int(np.argmin(np.hypot(enbs[:, 0], enbs[:, 1])))
        dist = np.hypot(*(devices - enbs[serve]).T)
        # exact membership test only where same-cell is not already impossible
        same_cell = np.zeros(devices.shape[0], dtype=bool)
        same_cell[0] = True
        near = np.nonzero(dist[1:] <= cell_check)[0] + 1
        if near.size:
            same_cell[near] = associate_nearest(devices[near], enbs) == serve
        return dist, same_cell

    return sample, "station field too sparse to sample"


def _window_sampler(cfg: ChannelConfig, settings: SimSettings) -> tuple[_Sampler, str]:
    """Finite-window construction: tagged position uniform over the disc,
    accepted only when its serving station sits at least `guard` inside
    the boundary; station and interferer fields cover the disc only, so
    the estimate carries the documented edge bias."""
    region = settings.region
    lam_da = active_density(cfg)
    guard = settings.guard
    if guard is None:
        guard = 2.0 / math.sqrt(math.pi * cfg.lambda_b)
    if guard >= region.radius:
        raise ConfigError("guard depth leaves no interior: enlarge the region")

    def sample(rng: np.random.Generator) -> _Trial | None:
        enbs = sample_ppp(cfg.lambda_b, region, rng)
        if enbs.shape[0] == 0:
            return None
        pts = sample_ppp(lam_da, region, rng)
        devices = np.vstack((_disc_points(1, region.radius, rng), pts))
        assoc = associate_nearest(devices, enbs)
        serve = int(assoc[0])
        if math.hypot(*enbs[serve]) > region.radius - guard:
            return None
        return np.hypot(*(devices - enbs[serve]).T), assoc == serve

    return sample, "no interior tagged cell found"


def simulate_summary(cfg: ChannelConfig, n_t: int, mode: InterferenceMode = InterferenceMode.FULL,
                     settings: SimSettings | None = None) -> SimulationSummary:
    """Run the full estimator and return transmission, collision and
    random-access tallies with confidence intervals.

    Attempt k draws from its own stream SeedSequence((seed, k)); an
    attempt whose geometry is rejected counts as a redraw and is skipped.
    """
    settings = settings or SimSettings()
    if int(n_t) != n_t or n_t < 1:
        raise ConfigError("n_t must be a positive integer")
    n_t = int(n_t)
    if settings.region is None:
        sample, exhausted = _origin_sampler(cfg, n_t, settings.tail_tol)
    else:
        sample, exhausted = _window_sampler(cfg, settings)

    trans = coll = rach = redraws = attempt = 0
    while attempt - redraws < settings.replications:
        if redraws > settings.redraw_budget:
            raise ConfigError(f"redraw budget exhausted: {exhausted}")
        rng = np.random.default_rng(np.random.SeedSequence((settings.seed, attempt)))
        attempt += 1
        trial = sample(rng)
        if trial is None:
            redraws += 1
            continue
        transmission, collision = contention_outcome(*trial, 0, cfg, n_t, mode, rng)
        trans += transmission
        coll += collision
        rach += transmission and not collision

    n = settings.replications
    return SimulationSummary(
        transmission=_estimate(trans, n, settings.seed),
        rach=_estimate(rach, n, settings.seed),
        collision_rate=coll / n,
        redraws=redraws,
    )
