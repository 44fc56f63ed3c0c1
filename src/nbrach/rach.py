"""Closed-form success analysis of contention-based random access.

A device that passed the energy gate transmits a preamble of 4 symbol
groups, repeated n_t times, to its nearest base station.  Transmission
succeeds when at least one repetition gets all 4 symbol groups through
at the target SINR; random access succeeds when additionally no other
device in the same cell pushes the same preamble through simultaneously.

The analytics average over Rayleigh fading per symbol group, a Poisson
field of interferers on the same preamble, and the load of the serving
cell.  Each distinct joint success is one quadrature over the serving
distance per process (memoised: repetition counts and series share them),
with one interference exponent for both modes (the unbounded kernel adds one
memoised quadrature; the cell-truncated one is closed-form), plus a cell-load sum:
one scalar term per count, added in one running loop until the mass left out
is at most CELL_LOAD_TAIL_MASS.
All of it is scalar stdlib arithmetic except the cell-truncated kernel, which
imports numpy on use, and at alpha != 4 scipy (`scipy.special`) too; at
alpha = 4 its incomplete beta is the arcsine law.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .errors import ConfigError, NumericError, integer, real
from .quadrature import QuadratureSettings, improper_integral

# Shape constant of the gamma approximation to the Voronoi cell area
# distribution; fixes the negative-binomial cell-load law.
VORONOI_SHAPE = 3.575

# Symbol groups per preamble repetition.
SYMBOL_GROUPS_PER_REPETITION = 4

# Alternating binomial sums beyond this repetition count cancel away all
# float64 precision; reject instead of returning noise.
MAX_ANALYTIC_REPETITIONS = 32

# Cell-load mass left out of the no-collision average, and the largest
# truncation point n*, whatever the tail mass.
CELL_LOAD_TAIL_MASS, CELL_LOAD_CAP = 1e-8, 10_000

# Memo bounds; the largest preset launch needs 96 joint successes, 32 kernels.
_JOINT_MEMO_SIZE, _KERNEL_MEMO_SIZE = 4096, 256

# One NB-IoT tone, Hz.
DEFAULT_TONE_BANDWIDTH_HZ = 3750.0


def noise_power_watt(bandwidth_hz: float) -> float:
    """Thermal noise over one tone: -174 dBm/Hz plus 10 log10(BW), in watts."""
    real(bandwidth_hz, "bandwidth_hz", gt=0.0)
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

    def __post_init__(self):
        real(self.alpha, "alpha", gt=2.0)  # the interference field converges only for alpha > 2
        real(self.gamma_th, "gamma_th", gt=0.0)
        real(self.p, "p", gt=0.0)
        real(self.sigma2, "sigma2", ge=0.0)
        real(self.lambda_b, "lambda_b", gt=0.0)
        real(self.lambda_d, "lambda_d", ge=0.0)
        real(self.a_a, "a_a", gt=0.0, le=1.0)
        real(self.eta0, "eta0", ge=0.0, le=1.0)
        integer(self.l_preambles, "l_preambles", ge=1)


@dataclass(frozen=True)
class RachSuccessDetail:
    """Random-access success value plus truncation bookkeeping."""

    value: float
    preamble_success: float
    tail_bound: float
    terms: int


def symbol_group_count(n_t: int) -> int:
    """Total symbol groups across n_t preamble repetitions."""
    return SYMBOL_GROUPS_PER_REPETITION * integer(n_t, "n_t", ge=1)


def _check_symbol_groups(l: int) -> int:
    l = integer(l, "l", ge=SYMBOL_GROUPS_PER_REPETITION)
    if l % SYMBOL_GROUPS_PER_REPETITION:
        raise ConfigError(f"l={l} must be a multiple of {SYMBOL_GROUPS_PER_REPETITION}")
    return l


def active_density(cfg: ChannelConfig) -> float:
    """Intensity of transmitters contending on one given preamble:
    devices thinned by data arrival, energy availability and the uniform
    preamble choice."""
    return cfg.a_a * cfg.eta0 * cfg.lambda_d / cfg.l_preambles


def select_epsilon(lambda_da: float, lambda_b: float) -> float:
    """Distance-law correction factor: 1 in the sparse-transmitter regime,
    1.25 once contenders outnumber stations.  The crossover sits at
    density ratio 1."""
    real(lambda_b, "lambda_b", gt=0.0)
    real(lambda_da, "lambda_da", ge=0.0)
    return 1.25 if lambda_da / lambda_b > 1.0 else 1.0


def pgfl_kernel(alpha: float, l: int, settings: QuadratureSettings | None = None) -> float:
    """Distance-free part of the unbounded-field interference exponent: the
    integral over [0, inf) of g(u) = (1 - (1 + u^-alpha)^-l) u, scaled by
    2 pi lambda_Da gamma_th^(2/alpha) r0^2 at serving distance r0.  g goes
    through expm1/log1p so its tail (~ l u^(1-alpha)) keeps relative accuracy."""
    real(alpha, "alpha", gt=2.0)
    return _pgfl_kernel(alpha, _check_symbol_groups(l), settings or QuadratureSettings())


@functools.lru_cache(maxsize=_KERNEL_MEMO_SIZE)
def _pgfl_kernel(alpha: float, l: int, q: QuadratureSettings) -> float:
    def g(u: float) -> float:
        if u <= 0.0:
            return 0.0
        log_x = -alpha * math.log(u)
        if log_x > 700.0:
            return u
        return -math.expm1(-l * math.log1p(math.exp(log_x))) * u

    value, _ = improper_integral(g, q)
    return value


def _incomplete_beta(d: float):
    """I_x(a, b), called as (a, b, x), and B(d, 1 - d).  At d = 1/2 (alpha = 4)
    they are the arcsine law and pi: asin(sqrt(x)) * 2 / pi, in that order,
    and gamma(1/2)^2, one ulp below math.pi, are scipy's betainc and beta bit
    for bit, where `2 / pi * asin(...)` or math.pi would move bytes."""
    if d == 0.5:
        return (lambda _a, _b, x: math.asin(math.sqrt(x)) * 2.0 / math.pi), math.gamma(0.5) ** 2
    from scipy.special import beta, betainc  # imported on use: scipy dominates start-up
    return betainc, beta(d, 1.0 - d)


def _truncated_kernel(alpha: float, l: int):
    """pgfl_kernel's integral over [0, U] instead, in closed form, as a
    function of U.  With delta = 2/alpha and X = U^alpha / (1 + U^alpha) it is
    (delta/2) sum_{j<l} B_X(j + delta, 1 - delta); the upward recurrence of
    the incomplete beta function (DLMF 8.17.20) sums that to
    (delta/2) [Q_l B_0 - X^delta (1-X)^(1-delta) sum_{i<l-1} w_i X^i], where
    P_j = Gamma(j + delta) / (Gamma(delta) j!), Q_k = sum_{j<k} P_j and
    w_i = (Q_l - Q_{i+1}) / ((i + 1) P_{i+1}) > 0 are built once per call."""
    import numpy as np  # imported on use: no other analytic path needs arrays
    d = 2.0 / alpha
    betainc, b_full = _incomplete_beta(d)
    j = np.arange(1, l)
    p = np.cumprod((j - 1.0 + d) / j)  # P_1 .. P_{l-1}; P_0 = 1
    tails = np.cumsum(p[::-1])[::-1]   # Q_l - Q_{i+1}, summed without cancellation
    q_l, w, powers = 1.0 + tails[0], tails / (j * p), np.arange(l - 1.0)

    def kernel(upper: float) -> float:
        log_ua = alpha * math.log(upper)  # X and 1 - X without cancellation or overflow
        e = math.exp(-abs(log_ua))
        s = 1.0 / (1.0 + e)
        x, x_c = (s, e * s) if log_ua > 0.0 else (e * s, s)
        # B_0 from the regularised function on the side where it does not round to 1
        b_0 = b_full * (betainc(d, 1.0 - d, x) if x < 0.5 else 1.0 - betainc(1.0 - d, d, x_c))
        return 0.5 * d * (q_l * b_0 - x ** d * x_c ** (1.0 - d) * (w @ x ** powers))

    return kernel


def _exponent(l: int, cfg: ChannelConfig, mode: InterferenceMode, q: QuadratureSettings):
    """Exponent of the fading-averaged interference functional for l
    jointly-decoded symbol groups, as a function of the serving distance
    r0 > 0.

    FULL integrates the same-preamble field over the whole plane;
    INTRA_CELL_ONLY truncates it at the average cell radius
    1/sqrt(pi lambda_b), which makes the kernel distance-dependent.
    """
    coef = 2.0 * math.pi * active_density(cfg) * cfg.gamma_th ** (2.0 / cfg.alpha)
    if mode is InterferenceMode.FULL:
        kernel = pgfl_kernel(cfg.alpha, l, q)
        return lambda r0: coef * r0 * r0 * kernel
    kernel = _truncated_kernel(cfg.alpha, l)
    reach = 1.0 / (math.sqrt(math.pi * cfg.lambda_b) * cfg.gamma_th ** (1.0 / cfg.alpha))
    return lambda r0: coef * r0 * r0 * kernel(reach / r0)


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
    if not isinstance(mode, InterferenceMode):
        raise ConfigError("mode must be an InterferenceMode")
    return _joint_symbol_success(_check_symbol_groups(l), cfg, mode,
                                 settings or QuadratureSettings())


@functools.lru_cache(maxsize=_JOINT_MEMO_SIZE)
def _joint_symbol_success(l: int, cfg: ChannelConfig, mode: InterferenceMode,
                          q: QuadratureSettings) -> float:
    lam_da = active_density(cfg)
    eps = select_epsilon(lam_da, cfg.lambda_b)
    s_dist = eps * math.pi * cfg.lambda_b
    noise_coef = l * cfg.gamma_th * cfg.sigma2 / cfg.p
    half_alpha = cfg.alpha / 2.0

    exponent = _exponent(l, cfg, mode, q)
    if mode is InterferenceMode.FULL:
        # the unbounded-field exponent is linear in t: its slope is the
        # exponent at r0 = 1
        slope = s_dist + exponent(1.0)

        def integrand(t: float) -> float:
            return s_dist * math.exp(-slope * t - noise_coef * t ** half_alpha)
    else:
        def integrand(t: float) -> float:
            if t <= 0.0:
                return s_dist
            return s_dist * math.exp(-s_dist * t - noise_coef * t ** half_alpha
                                     - exponent(math.sqrt(t)))

    value, _ = improper_integral(integrand, q)
    return _probability(value, q, "joint symbol success")


def preamble_success_prob(n_t: int, cfg: ChannelConfig,
                          mode: InterferenceMode = InterferenceMode.FULL,
                          settings: QuadratureSettings | None = None) -> float:
    """Probability that at least one of n_t repetitions gets all its symbol
    groups through, by inclusion-exclusion over the joint laws (repetitions
    share the interferer positions, so they are dependent)."""
    q = settings or QuadratureSettings()
    integer(n_t, "n_t", ge=1, le=MAX_ANALYTIC_REPETITIONS)
    total = 0.0
    for k in range(1, n_t + 1):
        p_k = joint_symbol_success(symbol_group_count(k), cfg, mode, q)
        total += (-1.0) ** (k + 1) * math.comb(n_t, k) * p_k
    return _probability(total, q, "preamble success")


def cell_load_pmf(n: int, lambda_da: float, lambda_b: float) -> float:
    """Probability that n other same-preamble transmitters share the serving
    cell: negative binomial from the gamma cell-area law, evaluated in the
    log-gamma domain with the stdlib's `math.lgamma` and `math.exp`."""
    n = integer(n, "n", ge=0)
    real(lambda_b, "lambda_b", gt=0.0)
    real(lambda_da, "lambda_da", ge=0.0)
    if lambda_da == 0.0:
        return 1.0 if n == 0 else 0.0
    rho = real(lambda_da / lambda_b, "lambda_da/lambda_b", gt=0.0)  # can overflow or underflow
    c = VORONOI_SHAPE
    return math.exp((c + 1.0) * math.log(c) + math.lgamma(n + c + 1.0) - math.lgamma(c + 1.0)
                    - math.lgamma(n + 1.0) + n * math.log(rho)
                    - (n + c + 1.0) * math.log(rho + c))


def cell_load_truncation(lambda_da: float, lambda_b: float,
                         tail_mass: float = CELL_LOAD_TAIL_MASS) -> int:
    """Smallest n* whose cumulative cell-load mass reaches 1 - tail_mass,
    capped at CELL_LOAD_CAP."""
    return len(_cell_load_head(lambda_da, lambda_b, tail_mass)) - 1


def _cell_load_head(lambda_da: float, lambda_b: float, tail_mass: float) -> list[float]:
    """The cell-load masses of 0..n* (see cell_load_truncation)."""
    real(tail_mass, "tail_mass", gt=0.0, lt=1.0)
    total = 0.0
    masses = []
    for n in range(CELL_LOAD_CAP + 1):
        masses.append(cell_load_pmf(n, lambda_da, lambda_b))
        total += masses[-1]
        if total >= 1.0 - tail_mass:
            break
    return masses


def rach_success_detail(n_t: int, cfg: ChannelConfig,
                        mode: InterferenceMode = InterferenceMode.FULL,
                        settings: QuadratureSettings | None = None) -> RachSuccessDetail:
    """Random-access success: the tagged device gets its preamble through
    and no same-cell contender gets the same preamble through.

    Averages the no-collision product over the cell-load law, truncated at
    tail mass CELL_LOAD_TAIL_MASS; the truncated tail is counted as failure,
    so the value is conservative and the detail carries the tail bound.
    """
    q = settings or QuadratureSettings()
    p_s = preamble_success_prob(n_t, cfg, mode, q)
    masses = _cell_load_head(active_density(cfg), cfg.lambda_b, CELL_LOAD_TAIL_MASS)
    log_miss = math.log1p(-p_s) if p_s < 1.0 else -math.inf
    value = p_s * sum(mass * math.exp(k * log_miss) if k else mass
                      for k, mass in enumerate(masses))
    tail = max(0.0, 1.0 - sum(masses))
    return RachSuccessDetail(value=min(value, 1.0), preamble_success=p_s,
                             tail_bound=tail, terms=len(masses))


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
