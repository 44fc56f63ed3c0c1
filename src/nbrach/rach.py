"""Closed-form success analysis of contention-based random access.

A device that passed the energy gate transmits a preamble of 4 symbol
groups, repeated n_t times, to its nearest base station.  Transmission
succeeds when at least one repetition gets all 4 symbol groups through
at the target SINR; random access succeeds when additionally no other
device in the same cell pushes the same preamble through simultaneously.

The analytics average over Rayleigh fading per symbol group, a Poisson
field of interferers on the same preamble, and the load of the serving
cell.  Everything reduces to one-dimensional integrals plus a discrete
cell-load sum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, integer
from .quadrature import QuadratureSettings, improper_integral

# Shape constant of the gamma approximation to the Voronoi cell area
# distribution; fixes the negative-binomial cell-load law.
VORONOI_SHAPE = 3.575

# Symbol groups per preamble repetition.
SYMBOL_GROUPS_PER_REPETITION = 4

# Alternating binomial sums beyond this repetition count cancel away all
# float64 precision; reject instead of returning noise.
MAX_ANALYTIC_REPETITIONS = 32

# One NB-IoT tone, Hz.
DEFAULT_TONE_BANDWIDTH_HZ = 3750.0


def noise_power_watt(bandwidth_hz: float) -> float:
    """Thermal noise over one tone: -174 dBm/Hz plus 10 log10(BW), in watts."""
    if not (bandwidth_hz > 0.0):
        raise ConfigError("bandwidth must be positive")
    return 10.0 ** ((-174.0 + 10.0 * math.log10(bandwidth_hz) - 30.0) / 10.0)


DEFAULT_NOISE_W = noise_power_watt(DEFAULT_TONE_BANDWIDTH_HZ)


class InterferenceMode(enum.Enum):
    """Which same-preamble transmitters interfere at the serving station."""

    FULL = "full"
    INTRA_CELL_ONLY = "intra"


@dataclass(frozen=True)
class ChannelConfig:
    """Radio and density parameters.

    Distances are km, intensities 1/km^2, powers watts; gamma_th is the
    linear SINR threshold.  eta0 is the energy availability feeding the
    active-device thinning.  Defaults are the reference operating point.
    """

    alpha: float = 4.0
    gamma_th: float = 100.0
    p: float = 0.02
    sigma2: float = DEFAULT_NOISE_W
    lambda_b: float = 0.1
    lambda_d: float = 100.0
    a_a: float = 0.001
    eta0: float = 0.3
    l_preambles: int = 48
    epsilon_override: float | None = None

    def __post_init__(self):
        if not (self.alpha > 2.0):
            raise ConfigError("alpha must exceed 2 for the interference field to converge")
        if not (self.gamma_th > 0.0):
            raise ConfigError("gamma_th must be positive (linear scale)")
        if not (self.p > 0.0):
            raise ConfigError("p must be positive")
        if not (self.sigma2 >= 0.0):
            raise ConfigError("sigma2 must be non-negative")
        if not (self.lambda_b > 0.0):
            raise ConfigError("lambda_b must be positive")
        if not (self.lambda_d >= 0.0):
            raise ConfigError("lambda_d must be non-negative")
        if not (0.0 < self.a_a <= 1.0):
            raise ConfigError("a_a must lie in (0, 1]")
        if not (0.0 <= self.eta0 <= 1.0):
            raise ConfigError("eta0 must lie in [0, 1]")
        if integer(self.l_preambles, "l_preambles") < 1:
            raise ConfigError("l_preambles must be a positive integer")
        if self.epsilon_override is not None and not (self.epsilon_override > 0.0):
            raise ConfigError("epsilon_override must be positive when given")


@dataclass(frozen=True)
class RachSuccessDetail:
    """Random-access success value plus truncation bookkeeping."""

    value: float
    preamble_success: float
    tail_bound: float
    terms: int


def symbol_group_count(n_reps: int) -> int:
    """Total symbol groups across n_reps preamble repetitions."""
    if integer(n_reps, "repetition count") < 1:
        raise ConfigError("repetition count must be a positive integer")
    return SYMBOL_GROUPS_PER_REPETITION * n_reps


def _check_symbol_groups(l: int) -> int:
    l = integer(l, "l")
    if l < SYMBOL_GROUPS_PER_REPETITION or l % SYMBOL_GROUPS_PER_REPETITION:
        raise ConfigError(f"l={l} must be a positive multiple of {SYMBOL_GROUPS_PER_REPETITION}")
    return l


def active_density(cfg: ChannelConfig) -> float:
    """Intensity of transmitters contending on one given preamble:
    devices thinned by data arrival, energy availability and the uniform
    preamble choice."""
    return cfg.a_a * cfg.eta0 * cfg.lambda_d / cfg.l_preambles


def select_epsilon(lambda_da: float, lambda_b: float,
                   override: float | None = None) -> float:
    """Distance-law correction factor: 1 in the sparse-transmitter regime,
    1.25 once contenders outnumber stations.  The crossover sits at
    density ratio 1; an explicit override wins."""
    if override is not None:
        return float(override)
    if not (lambda_b > 0.0):
        raise ConfigError("lambda_b must be positive")
    return 1.25 if lambda_da / lambda_b > 1.0 else 1.0


def _kernel_integral(alpha: float, l: int, upper: float, q: QuadratureSettings) -> float:
    """Integral over [0, upper] of the scaled interference kernel
    g(u) = (1 - (1 + u^-alpha)^-l) u.

    g is written through expm1/log1p so the far tail (g ~ l u^(1-alpha))
    keeps relative accuracy instead of cancelling against 1.
    """
    def g(u: float) -> float:
        if u <= 0.0:
            return 0.0
        log_x = -alpha * math.log(u)
        if log_x > 700.0:
            return u
        return -math.expm1(-l * math.log1p(math.exp(log_x))) * u

    value, _ = improper_integral(g, 0.0, upper, q)
    return value


def pgfl_kernel(alpha: float, l: int, settings: QuadratureSettings | None = None) -> float:
    """Distance-free part of the unbounded-field interference exponent.

    The exponent at serving distance r0 is 2 pi lambda_Da gamma_th^(2/alpha)
    r0^2 times this kernel.
    """
    return _kernel_integral(alpha, _check_symbol_groups(l), np.inf,
                            settings or QuadratureSettings())


def pgfl_exponent(r0: float, l: int, cfg: ChannelConfig,
                  mode: InterferenceMode = InterferenceMode.FULL,
                  settings: QuadratureSettings | None = None) -> float:
    """Exponent of the fading-averaged interference functional at serving
    distance r0 for l jointly-decoded symbol groups.

    FULL integrates the same-preamble field over the whole plane;
    INTRA_CELL_ONLY truncates it at the average cell radius
    1/sqrt(pi lambda_b), which makes the integral distance-dependent.
    """
    q = settings or QuadratureSettings()
    l = _check_symbol_groups(l)
    if not (r0 >= 0.0):
        raise ConfigError("r0 must be non-negative")
    if r0 == 0.0:
        return 0.0
    lam_da = active_density(cfg)
    if lam_da == 0.0:
        return 0.0
    scale = 2.0 * math.pi * lam_da * cfg.gamma_th ** (2.0 / cfg.alpha) * r0 * r0
    if mode is InterferenceMode.FULL:
        return scale * pgfl_kernel(cfg.alpha, l, q)
    if mode is not InterferenceMode.INTRA_CELL_ONLY:
        raise ConfigError("mode must be an InterferenceMode")
    cell_radius = 1.0 / math.sqrt(math.pi * cfg.lambda_b)
    upper = cell_radius / (r0 * cfg.gamma_th ** (1.0 / cfg.alpha))
    return scale * _kernel_integral(cfg.alpha, l, upper, q)


def _probability(value: float, q: QuadratureSettings, what: str) -> float:
    """`value` clamped to [0, 1] when within abs_tol of it; anything
    further out, NaN included, is a NumericError."""
    if not (-q.abs_tol <= value <= 1.0 + q.abs_tol):
        raise NumericError(f"{what} {value} outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def joint_symbol_success(l: int, cfg: ChannelConfig,
                         mode: InterferenceMode = InterferenceMode.FULL,
                         settings: QuadratureSettings | None = None) -> float:
    """Probability that l symbol groups all clear the SINR threshold,
    averaged over serving distance, fading and the interferer field.

    Integrated in the squared-distance variable, where the distance law
    is a pure exponential and the unbounded-field exponent is linear.
    """
    q = settings or QuadratureSettings()
    l = _check_symbol_groups(l)
    lam_da = active_density(cfg)
    eps = select_epsilon(lam_da, cfg.lambda_b, cfg.epsilon_override)
    s_dist = eps * math.pi * cfg.lambda_b
    noise_coef = l * cfg.gamma_th * cfg.sigma2 / cfg.p
    half_alpha = cfg.alpha / 2.0

    if mode is InterferenceMode.FULL:
        slope = s_dist + 2.0 * math.pi * lam_da * cfg.gamma_th ** (2.0 / cfg.alpha) \
            * pgfl_kernel(cfg.alpha, l, q)

        def integrand(t: float) -> float:
            return s_dist * math.exp(-slope * t - noise_coef * t ** half_alpha)
    elif mode is InterferenceMode.INTRA_CELL_ONLY:
        def integrand(t: float) -> float:
            if t <= 0.0:
                return s_dist
            r0 = math.sqrt(t)
            expo = pgfl_exponent(r0, l, cfg, InterferenceMode.INTRA_CELL_ONLY, q)
            return s_dist * math.exp(-s_dist * t - noise_coef * t ** half_alpha - expo)
    else:
        raise ConfigError("mode must be an InterferenceMode")

    value, _ = improper_integral(integrand, 0.0, np.inf, q)
    return _probability(value, q, "joint symbol success")


def preamble_success_prob(n_t: int, cfg: ChannelConfig,
                          mode: InterferenceMode = InterferenceMode.FULL,
                          settings: QuadratureSettings | None = None) -> float:
    """Probability that at least one of n_t repetitions gets all its symbol
    groups through, by inclusion-exclusion over the joint laws (repetitions
    share the interferer positions, so they are dependent)."""
    q = settings or QuadratureSettings()
    symbol_group_count(n_t)
    if n_t > MAX_ANALYTIC_REPETITIONS:
        raise ConfigError(
            f"analytic inclusion-exclusion is limited to n_t <= {MAX_ANALYTIC_REPETITIONS}")
    total = 0.0
    for k in range(1, n_t + 1):
        p_k = joint_symbol_success(symbol_group_count(k), cfg, mode, q)
        total += (-1.0) ** (k + 1) * math.comb(n_t, k) * p_k
    return _probability(total, q, "preamble success")


def cell_load_pmf(n, lambda_da: float, lambda_b: float):
    """Distribution of how many other same-preamble transmitters share the
    serving cell: negative binomial from the gamma cell-area law, evaluated
    in the log-gamma domain.  Vectorises over n."""
    from scipy.special import gammaln  # imported on use: scipy dominates start-up

    if not (lambda_b > 0.0):
        raise ConfigError("lambda_b must be positive")
    if not (lambda_da >= 0.0):
        raise ConfigError("lambda_da must be non-negative")
    n_arr = np.asarray(n)
    if not np.issubdtype(n_arr.dtype, np.integer):
        raise ConfigError("n must be integer valued")
    if (n_arr < 0).any():
        raise ConfigError("n must be non-negative")
    if lambda_da == 0.0:
        out = np.where(n_arr == 0, 1.0, 0.0)
        return out if out.ndim else float(out)
    c = VORONOI_SHAPE
    rho = lambda_da / lambda_b
    log_pmf = ((c + 1.0) * math.log(c)
               + gammaln(n_arr + c + 1.0)
               - gammaln(c + 1.0)
               - gammaln(n_arr + 1.0)
               + n_arr * math.log(rho)
               - (n_arr + c + 1.0) * math.log(rho + c))
    out = np.exp(log_pmf)
    return out if out.ndim else float(out)


def cell_load_truncation(lambda_da: float, lambda_b: float,
                         tail_mass: float = 1e-8, cap: int = 10_000) -> int:
    """Smallest n* whose cumulative cell-load mass reaches 1 - tail_mass,
    capped at `cap` terms."""
    if not (0.0 < tail_mass < 1.0):
        raise ConfigError("tail_mass must lie in (0, 1)")
    if lambda_da == 0.0:
        return 0
    target = 1.0 - tail_mass
    block = 256
    total = 0.0
    start = 0
    while start <= cap:
        stop = min(start + block, cap + 1)
        masses = cell_load_pmf(np.arange(start, stop), lambda_da, lambda_b)
        cum = total + np.cumsum(masses)
        hit = np.nonzero(cum >= target)[0]
        if hit.size:
            return start + int(hit[0])
        total = float(cum[-1])
        start = stop
    return cap


def rach_success_detail(n_t: int, cfg: ChannelConfig,
                        mode: InterferenceMode = InterferenceMode.FULL,
                        settings: QuadratureSettings | None = None) -> RachSuccessDetail:
    """Random-access success: the tagged device gets its preamble through
    and no same-cell contender gets the same preamble through.

    Averages the no-collision product over the cell-load law, truncated at
    the configured tail mass; the truncated tail is counted as failure, so
    the value is conservative and the detail carries the tail bound.
    """
    q = settings or QuadratureSettings()
    p_s = preamble_success_prob(n_t, cfg, mode, q)
    lam_da = active_density(cfg)
    n_star = cell_load_truncation(lam_da, cfg.lambda_b, q.pmf_tail_mass)
    counts = np.arange(n_star + 1)
    masses = cell_load_pmf(counts, lam_da, cfg.lambda_b)
    if p_s >= 1.0:
        no_collision = np.where(counts == 0, 1.0, 0.0)
    else:
        no_collision = np.exp(counts * math.log1p(-p_s))
    value = float(p_s * np.sum(masses * no_collision))
    tail = max(0.0, 1.0 - float(masses.sum()))
    return RachSuccessDetail(value=min(value, 1.0), preamble_success=p_s,
                             tail_bound=tail, terms=n_star + 1)


def rach_success_prob(n_t: int, cfg: ChannelConfig,
                      mode: InterferenceMode = InterferenceMode.FULL,
                      settings: QuadratureSettings | None = None) -> float:
    """Scalar random-access success probability (see rach_success_detail)."""
    return rach_success_detail(n_t, cfg, mode, settings).value


def repetition_efficiency(n_t: int, cfg: ChannelConfig,
                          mode: InterferenceMode = InterferenceMode.FULL,
                          settings: QuadratureSettings | None = None) -> float:
    """Success probability bought per unit of radio resource: the n_t
    repetitions cost n_t times the airtime of one."""
    return rach_success_prob(n_t, cfg, mode, settings) / n_t
