"""Battery model for an energy-harvesting transmitter.

The stored energy is discretised into unit quanta and evolves as a
birth-death chain: harvested quanta arrive at rate mu0, transmission
drains quanta at rate nu0 while the device is ON.  The device switches
OFF when the battery empties and back ON once it has collected enough
quanta for a full preamble cycle (one quantum per repetition).  The
fraction of time spent ON is the energy availability.

Two depletion regimes bound the truth: every attempt failing (preamble
energy only, the faster drain per stored quantum) and every attempt
succeeding (preamble plus data grant energy per quantum).

The availability comes in closed form from the ON-phase hitting time and
is checked against a simulation of whole ON/OFF cycles.  Each cycle starts
ON at n_t quanta, so cycles are iid: an ON phase is a +-1 walk capped at
m0 by the Skorokhod map and ended at its first zero, walked for many
phases at once in NumPy; phase durations are Gamma draws with the phase's
step count as shape.  A fixed budget of transitions cuts the run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import ConfigError, integer

# NPRACH repetition values admitted by the standard.
STANDARD_REPETITIONS = (1, 2, 4, 8, 16, 32, 64, 128)

# Below this |mu0/nu0 - 1| the closed form loses too many digits and the
# hitting times come from the banded linear solve instead.
RATE_RATIO_SINGULAR_BAND = 1e-6

# Most (phases x steps) elements the DES walks in one chunk.
DES_CHUNK_ELEMENTS = 1 << 18
# Rows per DES batch, as a multiple of the expected cycles left in the budget.
DES_ROW_MARGIN = 1.1


class BoundMode(enum.Enum):
    """Which depletion regime the chain models."""

    FAILURE = "failure"
    SUCCESS = "success"


@dataclass(frozen=True)
class EnergyConfig:
    """Parameters of the battery chain.

    Energies are joules, rates are events per second.  m0 is the battery
    capacity in quanta, n_t the repetition value (= ON threshold in quanta).
    Defaults are the reference operating point: 20 mW transmit power, 6 ms
    preamble repetitions, calibrated data-phase energy per repetition.
    """

    mu0: float = 0.05
    a_a: float = 0.001
    p: float = 0.02
    e0_ra: float = 1.2e-4
    e0_da: float = 2.48e-4
    m0: int = 161
    n_t: int = 1
    bound_mode: BoundMode = BoundMode.FAILURE
    enforce_standard_repetitions: bool = True

    def __post_init__(self):
        if not (self.mu0 > 0.0):
            raise ConfigError("mu0 must be positive")
        if not (0.0 < self.a_a <= 1.0):
            raise ConfigError("a_a must lie in (0, 1]")
        if not (self.p > 0.0):
            raise ConfigError("p must be positive")
        if not (self.e0_ra > 0.0):
            raise ConfigError("e0_ra must be positive")
        if not (self.e0_da >= 0.0):
            raise ConfigError("e0_da must be non-negative")
        if integer(self.m0, "m0") < 1:
            raise ConfigError("m0 must be a positive integer")
        if not (1 <= integer(self.n_t, "n_t") <= self.m0):
            raise ConfigError("n_t must be an integer in [1, m0]")
        if self.enforce_standard_repetitions and self.n_t not in STANDARD_REPETITIONS:
            raise ConfigError(
                f"n_t={self.n_t} is not a standard repetition value {STANDARD_REPETITIONS}")
        if not isinstance(self.bound_mode, BoundMode):
            raise ConfigError("bound_mode must be a BoundMode")

    def with_bound(self, mode: BoundMode) -> "EnergyConfig":
        return replace(self, bound_mode=mode)


@dataclass(frozen=True)
class AvailabilityResult:
    """Stationary split of the ON/OFF cycle."""

    eta0: float
    mean_on: float
    mean_off: float
    nu0: float


@dataclass(frozen=True)
class ChainEstimate:
    """Empirical availability from a simulated run of the chain."""

    eta_hat: float
    se: float
    transitions: int
    cycles: int
    seed: int


def depletion_rate(cfg: EnergyConfig) -> float:
    """Drain rate nu0 in quanta per second for the configured regime.

    The device transmits a fraction a_a of the time at power p; one quantum
    holds the energy of one repetition (preamble only, or preamble plus the
    data grant when every attempt is assumed to succeed).
    """
    if cfg.bound_mode is BoundMode.FAILURE:
        unit = cfg.e0_ra
    else:
        unit = cfg.e0_ra + cfg.e0_da
    return cfg.a_a * cfg.p / unit


def _chain_capacity(mu0: float, nu0: float, capacity: int) -> int:
    """`capacity` as an int, once the chain's rates and capacity are valid."""
    capacity = integer(capacity, "capacity")
    if capacity < 1:
        raise ConfigError("capacity must be at least 1")
    if not (mu0 > 0.0 and nu0 > 0.0):
        raise ConfigError("rates must be positive")
    return capacity


def generator_matrix(mu0: float, nu0: float, capacity: int, exact: bool = False) -> np.ndarray:
    """Generator of the ON-phase birth-death chain on levels 0..capacity.

    Level 0 only gains (harvest), interior levels gain at mu0 and drain at
    nu0, the full battery only drains.  Rows sum to zero.  With exact=True
    the matrix is built from Fractions of the given rates (object dtype).
    """
    capacity = _chain_capacity(mu0, nu0, capacity)
    num = Fraction if exact else float
    mu, nu = num(mu0), num(nu0)
    q = np.full((capacity + 1, capacity + 1), num(0), dtype=object if exact else float)
    q[0, 0] = -mu
    q[0, 1] = mu
    for m in range(1, capacity):
        q[m, m - 1] = nu
        q[m, m] = -(mu + nu)
        q[m, m + 1] = mu
    q[capacity, capacity - 1] = nu
    q[capacity, capacity] = -nu
    return q


def neg_B_inverse(mu0: float, nu0: float, capacity: int, exact: bool = False) -> np.ndarray:
    """Inverse of -B0, where B0 restricts the generator to levels 1..capacity.

    Entry (m, n), 1-indexed levels, equals sum_{k=1}^{min(m,n)}
    mu0^(n-k) nu0^(k-1) / nu0^n; row m sums to the expected time to hit
    level 0 from level m.  With exact=True everything is computed in
    rational arithmetic on the binary values of the rates.
    """
    capacity = _chain_capacity(mu0, nu0, capacity)
    num = Fraction if exact else float
    rho, inv_nu = num(mu0) / num(nu0), 1 / num(nu0)
    # With S_j = sum_{i<j} rho^i, entry (m, n) = rho^max(n-m, 0) S_min(m,n) / nu0:
    # on and below the diagonal it is the column value S_n / nu0.
    powers, sums = [num(1)], [num(1)]  # rho^i and S_(i+1), i = 0..capacity-1
    for _ in range(capacity - 1):
        powers.append(powers[-1] * rho)
        sums.append(sums[-1] + powers[-1])
    column = [s * inv_nu for s in sums]
    out = np.empty((capacity, capacity), dtype=object if exact else float)
    for m in range(capacity):
        out[m, :m + 1] = column[:m + 1]
        out[m, m + 1:] = [powers[d] * column[m] for d in range(1, capacity - m)]
    return out


def hitting_times_solve(mu0: float, nu0: float, capacity: int) -> np.ndarray:
    """Expected times to empty from levels 1..capacity by solving
    (-B0) t = 1 directly.

    Elimination runs from the reflecting boundary down: with d_m the
    increment t_m - t_(m-1), the system reduces to d_cap = 1/nu0 and
    d_m = (1 + mu0 d_(m+1)) / nu0, all positive terms, so the solve stays
    componentwise stable for any rate ratio (a pivoted LU from the other
    end loses the solution entirely for mu0 >> nu0).
    """
    capacity = _chain_capacity(mu0, nu0, capacity)
    d = np.empty(capacity)
    d[-1] = 1.0 / nu0
    for m in range(capacity - 2, -1, -1):
        d[m] = (1.0 + mu0 * d[m + 1]) / nu0
    return np.cumsum(d)


def mean_on_time(mu0: float, nu0: float, capacity: int, start_level: int) -> float:
    """Expected ON duration: time for the chain to first empty the battery
    when it starts at start_level quanta.

    Uses the closed form of the hitting time, evaluated in the log domain
    when the rate ratio is large, and falls back to the linear solve inside
    the singular band around mu0 == nu0.
    """
    capacity = _chain_capacity(mu0, nu0, capacity)
    m = integer(start_level, "start_level")
    if not (1 <= m <= capacity):
        raise ConfigError("start_level must lie in [1, capacity]")
    rho = mu0 / nu0
    if abs(rho - 1.0) < RATE_RATIO_SINGULAR_BAND:
        return float(hitting_times_solve(mu0, nu0, capacity)[m - 1])
    if rho < 1.0:
        head = rho ** (capacity - m + 1) * (rho ** m - 1.0) / (rho - 1.0)
        return (head - m) / (nu0 * (rho - 1.0))
    # rho > 1: head = rho^(capacity+1) (1 - rho^-m) / (rho - 1) in logs
    log_head = ((capacity + 1) * math.log(rho)
                + math.log1p(-rho ** (-m))
                - math.log(rho - 1.0))
    denom = nu0 * (rho - 1.0)
    if log_head < 700.0:
        return (math.exp(log_head) - m) / denom
    # head dwarfs m beyond any float representation of the difference
    log_t = log_head - math.log(denom)
    return math.exp(log_t) if log_t < 709.0 else math.inf


def mean_off_time(cfg: EnergyConfig) -> float:
    """Expected OFF duration: n_t harvest arrivals at rate mu0."""
    return cfg.n_t / cfg.mu0


def energy_availability(cfg: EnergyConfig) -> AvailabilityResult:
    """Stationary fraction of time the device is ON, renewal cycle ratio
    mean_on / (mean_on + mean_off)."""
    nu0 = depletion_rate(cfg)
    t_on = mean_on_time(cfg.mu0, nu0, cfg.m0, cfg.n_t)
    t_off = mean_off_time(cfg)
    if math.isinf(t_on):
        eta = 1.0
    else:
        eta = 1.0 / (1.0 + cfg.n_t / (cfg.mu0 * t_on))
    return AvailabilityResult(eta0=eta, mean_on=t_on, mean_off=t_off, nu0=nu0)


def availability_bounds(cfg: EnergyConfig) -> tuple[AvailabilityResult, AvailabilityResult]:
    """(lower, upper) availability: all-failure drain is the faster drain per
    quantum, all-success the slower, so they bracket the mixed truth."""
    lower = energy_availability(cfg.with_bound(BoundMode.FAILURE))
    upper = energy_availability(cfg.with_bound(BoundMode.SUCCESS))
    return lower, upper


def _on_phase_lengths(rng: np.random.Generator, p_up: float, m0: int, n_t: int,
                      rows: int, budget: int) -> tuple[np.ndarray, bool]:
    """Step counts of up to `rows` consecutive ON phases, each followed by an
    n_t-step OFF phase, walked side by side until the phases that fit in
    `budget` transitions are known.

    Row i starts once the rows before it and their OFF phases are done, so
    a row whose earliest possible start already lies at or past the budget
    is dropped, and an unfinished row whose walk already reaches the budget
    stops there: it is the phase the budget cuts.  Returns the lengths in
    order and whether the last one finished (every earlier one did).
    """
    length = np.zeros(rows, dtype=np.int64)
    done = np.zeros(rows, dtype=bool)
    level = np.full(rows, n_t, dtype=np.int32)
    walking = np.arange(rows)
    age = 0  # steps walked by every row still walking
    need = budget  # most steps any walking row can still use
    while walking.size:
        width = min(max(age, n_t), DES_CHUNK_ELEMENTS // walking.size, need)
        # level after k steps of the free walk: start + 2 (ups so far) - k
        z = np.cumsum(rng.random((walking.size, width)) < p_up, axis=1, dtype=np.int32)
        z *= 2
        z -= np.arange(1, width + 1, dtype=np.int32)
        z += level[walking, None]
        if level[walking].max() + width > m0:
            # cap at m0 by the Skorokhod map L = Z - max(0, cummax(Z - m0))
            over = np.maximum.accumulate(z, axis=1)
            over -= m0
            np.maximum(over, 0, out=over)
            z -= over
        hit = z == 0
        first = hit.argmax(axis=1)
        ended = hit[np.arange(walking.size), first]
        length[walking] += np.where(ended, first + 1, width)
        done[walking[ended]] = True
        level[walking] = z[:, -1]
        age += width

        start = np.cumsum(length + n_t) - (length + n_t)  # earliest start per row
        keep = int(np.searchsorted(start, budget))
        length, done, level, start = length[:keep], done[:keep], level[:keep], start[:keep]
        left = budget - start - length
        walking = np.nonzero(~done & (left > 0))[0]
        if walking.size:
            need = int(left[walking].max())
    return length, bool(done[-1])


def simulate_energy_chain(cfg: EnergyConfig, num_transitions: int = 1_000_000,
                          seed: int = 0) -> ChainEstimate:
    """Renewal simulation of the ON/OFF battery chain over whole cycles.

    Counts num_transitions applied events (harvest arrivals, including
    saturated ones at full battery, and depletions).  Every cycle starts ON
    at level n_t, so cycles are iid.  An ON phase is a +-1 walk with
    P(+1) = mu0/(mu0+nu0), capped at m0 by the Skorokhod map and ended at
    its first zero; k steps of it last Gamma(k)/(mu0+nu0).  An OFF phase is
    exactly n_t harvests lasting Gamma(n_t)/mu0.  The phase the budget cuts
    adds its partial time to the point estimate but is not a cycle; the
    regenerative standard error comes from the completed (ON, OFF) pairs.
    Deterministic for a fixed seed.
    """
    if num_transitions < 1:
        raise ConfigError("num_transitions must be positive")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE4E26)))
    mu = cfg.mu0
    nu = depletion_rate(cfg)
    n_t = cfg.n_t
    # expected cycle length in transitions sizes each batch of ON phases
    cycle_steps = mean_on_time(mu, nu, cfg.m0, n_t) * (mu + nu) + n_t

    batches = []
    used = 0
    while used < num_transitions:
        left = num_transitions - used
        rows = max(1, min(DES_CHUNK_ELEMENTS // n_t,
                          math.ceil(DES_ROW_MARGIN * left / cycle_steps)))
        lengths, finished = _on_phase_lengths(rng, mu / (mu + nu), cfg.m0, n_t, rows, left)
        batches.append(lengths)
        used += int(lengths.sum()) + n_t * lengths.size

    on = np.concatenate(batches)
    on_end = np.cumsum(on + n_t) - n_t  # transitions elapsed when each ON phase ends
    n_on = int(np.searchsorted(on_end, num_transitions, side="right"))
    if not finished and n_on == on.size:
        n_on -= 1  # the last phase reached the budget without emptying
    n_off = int(np.searchsorted(on_end + n_t, num_transitions, side="right"))
    x = rng.gamma(on[:n_on]) / (mu + nu)
    y = rng.gamma(n_t, size=n_off) / mu

    # the phase in progress when the budget runs out takes the steps left
    t_on_total, t_off_total = x.sum(), y.sum()
    transitions = int(on[:n_on].sum()) + n_t * n_off
    if n_on > n_off:
        steps = num_transitions - int(on_end[n_on - 1])
        t_off_total += rng.gamma(steps) / mu
    else:
        steps = num_transitions - int(on_end[n_on] - on[n_on]) if n_on < on.size else 0
        t_on_total += rng.gamma(steps) / (mu + nu)
    transitions += steps
    eta_hat = t_on_total / (t_on_total + t_off_total)

    if n_off >= 2:
        x = x[:n_off]
        h = x.sum() / (x.sum() + y.sum())
        z = (1.0 - h) * x - h * y
        se = float(np.std(z, ddof=1) / ((x.mean() + y.mean()) * math.sqrt(n_off)))
    else:
        se = math.inf
    return ChainEstimate(eta_hat=float(eta_hat), se=se,
                         transitions=transitions, cycles=n_off, seed=seed)
