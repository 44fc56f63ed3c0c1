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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
class Deployment:
    """One sampled network snapshot.

    preamble_choice is -1 exactly where active_mask is false.
    """

    enb_positions: np.ndarray
    device_positions: np.ndarray
    association: np.ndarray
    active_mask: np.ndarray
    preamble_choice: np.ndarray

    def __post_init__(self):
        n_d = self.device_positions.shape[0]
        if self.enb_positions.ndim != 2 or self.enb_positions.shape[1] != 2:
            raise ConfigError("enb_positions must be an (n, 2) array")
        if self.device_positions.ndim != 2 or self.device_positions.shape[1] != 2:
            raise ConfigError("device_positions must be an (n, 2) array")
        for name in ("association", "active_mask", "preamble_choice"):
            if getattr(self, name).shape != (n_d,):
                raise ConfigError(f"{name} must have one entry per device")
        if n_d and self.enb_positions.shape[0] == 0:
            raise ConfigError("deployment with devices requires at least one station")
        inactive = ~self.active_mask
        if np.any(self.preamble_choice[inactive] != -1):
            raise ConfigError("preamble_choice must be -1 for inactive devices")
        if np.any(self.preamble_choice[self.active_mask] < 0):
            raise ConfigError("active devices must carry a preamble choice")


@dataclass(frozen=True)
class TrialOutcome:
    transmission_success: bool
    collision: bool
    rach_success: bool

    def __post_init__(self):
        if self.rach_success != (self.transmission_success and not self.collision):
            raise ConfigError("rach_success must equal transmission_success and no collision")


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
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


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


def thin_and_assign(deployment: Deployment, p_active: float, l_preambles: int,
                    rng: np.random.Generator) -> Deployment:
    """Independent Bernoulli(p_active) activity and uniform preamble choice
    per active device; the per-preamble active field is then Poisson with
    intensity p_active * lambda_d / l_preambles."""
    if not (0.0 <= p_active <= 1.0):
        raise ConfigError("p_active must lie in [0, 1]")
    if int(l_preambles) != l_preambles or l_preambles < 1:
        raise ConfigError("l_preambles must be a positive integer")
    n_d = deployment.device_positions.shape[0]
    active = rng.random(n_d) < p_active
    preamble = np.full(n_d, -1, dtype=np.intp)
    preamble[active] = rng.integers(0, l_preambles, size=int(active.sum()))
    return Deployment(
        enb_positions=deployment.enb_positions,
        device_positions=deployment.device_positions,
        association=deployment.association,
        active_mask=active,
        preamble_choice=preamble,
    )


def _contention_outcome(dist: np.ndarray, same_cell: np.ndarray, tagged: int,
                        cfg: ChannelConfig, n_t: int, mode: InterferenceMode,
                        rng: np.random.Generator) -> TrialOutcome:
    """Decide one trial from distances to the shared serving station.

    One fading block of shape (devices, repetitions, 4) is drawn for the
    whole trial, so the tagged evaluation and every contender evaluation
    see the same channel realisations.
    """
    recv = cfg.p * np.maximum(dist, 1e-12) ** (-cfg.alpha)
    fading = rng.exponential(size=(dist.shape[0], n_t, 4))
    contrib = recv[:, None, None] * fading

    if mode is InterferenceMode.FULL:
        pool = contrib.sum(axis=0)
        eligible = np.ones(dist.shape[0], dtype=bool)
    elif mode is InterferenceMode.INTRA_CELL_ONLY:
        pool = contrib[same_cell].sum(axis=0)
        eligible = same_cell.copy()
    else:
        raise ConfigError("mode must be an InterferenceMode")

    def succeeds(idx: int) -> bool:
        own = contrib[idx]
        interference = np.maximum(pool - own, 0.0) if eligible[idx] else pool
        denom = interference + cfg.sigma2
        with np.errstate(divide="ignore", invalid="ignore"):
            sinr = np.where(denom > 0.0, own / np.maximum(denom, 1e-300), np.inf)
        return bool(np.any(np.all(sinr >= cfg.gamma_th, axis=1)))

    transmission = succeeds(tagged)
    collision = False
    for idx in np.nonzero(same_cell)[0]:
        if idx != tagged and succeeds(int(idx)):
            collision = True
            break
    return TrialOutcome(
        transmission_success=transmission,
        collision=collision,
        rach_success=transmission and not collision,
    )


def simulate_trial(deployment: Deployment, tagged: int, cfg: ChannelConfig,
                   n_t: int, mode: InterferenceMode,
                   rng: np.random.Generator) -> TrialOutcome:
    """Outcome for one tagged device on a fixed deployment.

    Interference comes from every active device sharing the tagged
    preamble (FULL) or only those in the tagged cell (INTRA_CELL_ONLY);
    a collision is any same-cell, same-preamble contender whose own
    transmission also succeeds at the shared station.
    """
    if int(n_t) != n_t or n_t < 1:
        raise ConfigError("n_t must be a positive integer")
    if not deployment.active_mask[tagged]:
        raise ConfigError("tagged device must be active")
    members = np.nonzero(
        deployment.active_mask
        & (deployment.preamble_choice == deployment.preamble_choice[tagged])
    )[0]
    serve = deployment.association[tagged]
    station = deployment.enb_positions[serve]
    dist = np.hypot(*(deployment.device_positions[members] - station).T)
    same_cell = deployment.association[members] == serve
    tagged_pos = int(np.nonzero(members == tagged)[0][0])
    return _contention_outcome(dist, same_cell, tagged_pos, cfg, int(n_t), mode, rng)


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


def _simulate_origin_tagged(cfg: ChannelConfig, n_t: int, mode: InterferenceMode,
                            settings: SimSettings) -> tuple[int, int, int, int]:
    """Typical-point construction: tagged at the origin, stations sampled
    out to where the nearest-station and cell-membership searches are
    exact to exp(-25), interferers out to the interference horizon."""
    lam_da = active_density(cfg)
    sqrt_plb = math.sqrt(math.pi * cfg.lambda_b)
    r_assoc = math.sqrt(_WINDOW_LOG_MISS) / sqrt_plb
    cell_check = _CELL_CHECK_RADII / sqrt_plb
    r_enb = r_assoc + 2.0 * cell_check + 1.0 / sqrt_plb
    r_int = interference_horizon(cfg, n_t, settings.tail_tol)
    mean_enb = cfg.lambda_b * math.pi * r_enb ** 2
    mean_int = lam_da * math.pi * r_int ** 2

    trans = coll = rach = 0
    redraws = 0
    done = 0
    attempt = 0
    while done < settings.replications:
        if redraws > settings.redraw_budget:
            raise ConfigError("redraw budget exhausted: station field too sparse to sample")
        rng = np.random.default_rng(np.random.SeedSequence((settings.seed, attempt)))
        attempt += 1
        n_b = int(rng.poisson(mean_enb))
        if n_b == 0:
            redraws += 1
            continue
        enbs = _disc_points(n_b, r_enb, rng)
        n_i = int(rng.poisson(mean_int)) if mean_int > 0.0 else 0
        pts = _disc_points(n_i, r_int, rng)
        devices = np.vstack((np.zeros((1, 2)), pts))

        d_origin = np.hypot(enbs[:, 0], enbs[:, 1])
        serve = int(np.argmin(d_origin))
        station = enbs[serve]
        dist = np.hypot(devices[:, 0] - station[0], devices[:, 1] - station[1])

        # exact membership test only where same-cell is not already impossible
        same_cell = np.zeros(devices.shape[0], dtype=bool)
        same_cell[0] = True
        near = np.nonzero(dist[1:] <= cell_check)[0] + 1
        if near.size:
            diff = devices[near, None, :] - enbs[None, :, :]
            owner = np.argmin(np.einsum("ijk,ijk->ij", diff, diff), axis=1)
            same_cell[near] = owner == serve

        outcome = _contention_outcome(dist, same_cell, 0, cfg, n_t, mode, rng)
        trans += outcome.transmission_success
        coll += outcome.collision
        rach += outcome.rach_success
        done += 1
    return trans, coll, rach, redraws


def _simulate_finite_region(cfg: ChannelConfig, n_t: int, mode: InterferenceMode,
                            settings: SimSettings) -> tuple[int, int, int, int]:
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

    trans = coll = rach = 0
    redraws = 0
    done = 0
    attempt = 0
    while done < settings.replications:
        if redraws > settings.redraw_budget:
            raise ConfigError("redraw budget exhausted: no interior tagged cell found")
        rng = np.random.default_rng(np.random.SeedSequence((settings.seed, attempt)))
        attempt += 1
        enbs = sample_ppp(cfg.lambda_b, region, rng)
        if enbs.shape[0] == 0:
            redraws += 1
            continue
        pts = sample_ppp(lam_da, region, rng)
        tagged_pos = _disc_points(1, region.radius, rng)
        devices = np.vstack((tagged_pos, pts))

        assoc = associate_nearest(devices, enbs)
        serve = int(assoc[0])
        if math.hypot(*enbs[serve]) > region.radius - guard:
            redraws += 1
            continue
        station = enbs[serve]
        dist = np.hypot(devices[:, 0] - station[0], devices[:, 1] - station[1])
        same_cell = assoc == serve

        outcome = _contention_outcome(dist, same_cell, 0, cfg, n_t, mode, rng)
        trans += outcome.transmission_success
        coll += outcome.collision
        rach += outcome.rach_success
        done += 1
    return trans, coll, rach, redraws


def simulate_summary(cfg: ChannelConfig, n_t: int, mode: InterferenceMode = InterferenceMode.FULL,
                     settings: SimSettings | None = None) -> SimulationSummary:
    """Run the full estimator and return transmission, collision and
    random-access tallies with confidence intervals."""
    settings = settings or SimSettings()
    if int(n_t) != n_t or n_t < 1:
        raise ConfigError("n_t must be a positive integer")
    if settings.region is None:
        trans, coll, rach, redraws = _simulate_origin_tagged(cfg, int(n_t), mode, settings)
    else:
        trans, coll, rach, redraws = _simulate_finite_region(cfg, int(n_t), mode, settings)
    n = settings.replications
    return SimulationSummary(
        transmission=_estimate(trans, n, settings.seed),
        rach=_estimate(rach, n, settings.seed),
        collision_rate=coll / n,
        redraws=redraws,
    )

