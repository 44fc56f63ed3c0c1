"""Tests for the random-access analytics: interference kernel, joint
symbol-group success, cell-load law and the collision-averaged success."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbrach import rach, sweep
from nbrach.config import build_config
from nbrach.errors import ConfigError, NumericError
from nbrach.quadrature import QuadratureSettings, improper_integral
from nbrach.rach import (
    ChannelConfig,
    InterferenceMode,
    active_density,
    cell_load_pmf,
    cell_load_truncation,
    joint_symbol_success,
    pgfl_kernel,
    preamble_success_prob,
    rach_success_detail,
    rach_success_prob,
    repetition_efficiency,
    select_epsilon,
    symbol_group_count,
)
from nbrach.sweep import Engine, SweepTarget, run_preset

DESK = ChannelConfig(lambda_b=1.0, lambda_d=1000.0)


def kernel_oracle(alpha: float, l: int) -> float:
    # closed form of the kernel integral via the beta-function identity:
    # int_0^inf (1 - (1 + v^(-alpha/2))^(-l)) dv = G(1-2/a) G(l+2/a) / G(l),
    # in 30 digits so that the tolerances below measure the code under test
    with mp.workdps(30):
        d = mp.mpf(2) / alpha
        return float(mp.gamma(1 - d) * mp.gamma(l + d) / (2 * mp.gamma(l)))


# -------------------------------------------------------------- pgfl kernel


@pytest.mark.parametrize("alpha", [3.0, 4.0, 6.0])
@pytest.mark.parametrize("l", [4, 8, 16, 64, 128])
def test_kernel_against_gamma_oracle(alpha, l):
    # QUADPACK's worst case here is 5.6e-13 (alpha = 3, l = 8)
    assert pgfl_kernel(alpha, l) == pytest.approx(kernel_oracle(alpha, l),
                                                  rel=1e-12)


def test_kernel_monotone():
    ks = [pgfl_kernel(4.0, l) for l in (4, 8, 16, 32)]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert pgfl_kernel(3.0, 8) > pgfl_kernel(5.0, 8)


def test_kernel_rejects_bad_group_count():
    with pytest.raises(ConfigError):
        pgfl_kernel(4.0, 5)
    with pytest.raises(ConfigError):
        pgfl_kernel(4.0, 0)
    with pytest.raises(ConfigError):
        symbol_group_count(0)
    assert symbol_group_count(8) == 32


def truncated_kernel_quad(alpha: float, l: int, upper: float) -> float:
    # 34-digit quadrature of the kernel integrand over [0, upper], split at
    # every decade so each piece is smooth
    with mp.workdps(34):
        a = mp.mpf(alpha)
        g = lambda u: -mp.expm1(-l * mp.log1p(u ** -a)) * u if u > 0 else mp.mpf(0)
        cuts = [mp.mpf(10) ** k for k in range(-6, 7) if 10.0 ** k < upper]
        return float(mp.quad(g, [0] + cuts + [mp.mpf(upper)]))


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 5.0])
@pytest.mark.parametrize("l", [4, 32, 128])
def test_truncated_kernel_against_mpmath(alpha, l):
    kernel = rach._truncated_kernel(alpha, l)
    for upper in (1e-4, 0.1, 1.0, 10.0, 1e5):
        assert kernel(upper) == pytest.approx(truncated_kernel_quad(alpha, l, upper),
                                              rel=1e-12)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("l", [4, 8, 16, 64, 128])
def test_truncated_kernel_unbounded_limit(alpha, l):
    # at U = inf the sum is the Gamma ratio (worst case measured 7.8e-16)
    kernel = rach._truncated_kernel(alpha, l)
    assert kernel(math.inf) == pytest.approx(kernel_oracle(alpha, l), rel=1e-14)
    assert kernel(1e200) == kernel(math.inf)


def test_alpha4_incomplete_beta_is_scipys_bit_for_bit():
    # at alpha = 4 the truncated kernel takes the arcsine law for scipy's
    # betainc and gamma(1/2)^2 for its beta; should scipy's values move,
    # this names the cause where the golden CSVs would only differ
    from scipy.special import beta, betainc

    inc, b_full = rach._incomplete_beta(0.5)
    assert b_full == beta(0.5, 0.5) and b_full != math.pi
    rng = np.random.default_rng(15)
    below_half = np.nextafter(0.5, 0.0) - np.arange(4) * 2.0 ** -54
    xs = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, 60_000), rng.uniform(0.0, 1.0, 60_000),
                         np.linspace(0.0, 0.5, 100_001), below_half,
                         [0.0, 5e-324, 0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0), 1.0]])
    got = np.array([inc(0.5, 0.5, x) for x in xs])
    assert xs[got != betainc(0.5, 0.5, xs)].tolist() == []


def test_alpha4_truncated_kernel_is_scipys_bit_for_bit(monkeypatch):
    # the kernel built on the arcsine law is the one built on scipy's pair,
    # bit for bit, at every group count up to 128 and every U, U = inf included
    from scipy.special import beta, betainc

    uppers = [*np.logspace(-6.0, 6.0, 241), 1e200, math.inf]
    kernels = {l: rach._truncated_kernel(4.0, l) for l in range(4, 129, 4)}
    monkeypatch.setattr(rach, "_incomplete_beta", lambda d: (betainc, beta(d, 1.0 - d)))
    for l, kernel in kernels.items():
        reference = rach._truncated_kernel(4.0, l)
        assert [kernel(u) for u in uppers] == [reference(u) for u in uppers], l


def exponent(r0: float, l: int, cfg: ChannelConfig,
             mode: InterferenceMode = InterferenceMode.FULL) -> float:
    return rach._exponent(l, cfg, mode, QuadratureSettings())(r0)


def test_exponent_modes():
    full = exponent(0.5, 4, DESK, InterferenceMode.FULL)
    intra = exponent(0.5, 4, DESK, InterferenceMode.INTRA_CELL_ONLY)
    assert 0.0 < intra < full
    empty = ChannelConfig(lambda_b=1.0, lambda_d=0.0)
    for mode in InterferenceMode:
        assert exponent(0.5, 4, empty, mode) == 0.0
    for mode in ("full", ["full"]):  # checked before the memo hashes it
        with pytest.raises(ConfigError, match="mode must be an InterferenceMode"):
            joint_symbol_success(4, DESK, mode)


def test_exponent_intra_is_scaled_truncated_kernel():
    # INTRA_CELL_ONLY truncates the field at the mean cell radius, which
    # bounds the kernel at U = R / (r0 gamma_th^(1/alpha))
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=1000.0, alpha=3.0)
    r0 = 0.3
    upper = 1.0 / (math.sqrt(math.pi) * r0 * cfg.gamma_th ** (1.0 / 3.0))
    want = (2.0 * math.pi * active_density(cfg) * cfg.gamma_th ** (2.0 / 3.0) * r0 * r0
            * truncated_kernel_quad(3.0, 8, upper))
    got = exponent(r0, 8, cfg, InterferenceMode.INTRA_CELL_ONLY)
    assert got == pytest.approx(want, rel=1e-12)


def test_exponent_full_closed_form():
    cfg = DESK
    lam_da = active_density(cfg)
    want = (2.0 * math.pi * lam_da * cfg.gamma_th ** 0.5 * 0.25
            * kernel_oracle(4.0, 8))
    # the kernel's own error at alpha = 4 is within 2e-15
    assert exponent(0.5, 8, cfg) == pytest.approx(want, rel=1e-14)


# ----------------------------------------------------------- distance model


def test_active_density():
    cfg = DESK
    assert active_density(cfg) == pytest.approx(0.001 * 0.3 * 1000.0 / 48)


def test_select_epsilon_crossover():
    assert select_epsilon(0.5, 1.0) == 1.0
    assert select_epsilon(1.0, 1.0) == 1.0
    assert select_epsilon(1.0 + 1e-12, 1.0) == 1.25
    assert select_epsilon(100.0, 1.0) == 1.25
    with pytest.raises(TypeError, match="override"):  # the density ratio alone decides
        select_epsilon(100.0, 1.0, override=1.1)


# ------------------------------------------------------ joint group success


def test_joint_success_zero_noise_closed_form():
    # with sigma2 = 0 the serving-distance average is a ratio of rates
    # (measured within 7e-16 of it)
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=1000.0, sigma2=0.0)
    lam_da = active_density(cfg)
    eps = select_epsilon(lam_da, cfg.lambda_b)
    for l in (4, 16):
        s = eps * math.pi * cfg.lambda_b
        want = s / (s + 2.0 * math.pi * lam_da
                    * cfg.gamma_th ** 0.5 * kernel_oracle(4.0, l))
        assert joint_symbol_success(l, cfg) == pytest.approx(want, rel=1e-14)


def joint_success_erfcx_oracle(l: int, cfg: ChannelConfig) -> float:
    # alpha = 4: over t = r0^2 the integrand is s exp(-a t - b t^2), whose
    # integral is s sqrt(pi) / (2 sqrt(b)) erfcx(a / (2 sqrt(b))), with
    # erfcx(w) = erfc(w) exp(w^2) taken in 40 digits
    kernel = kernel_oracle(4.0, l)
    with mp.workdps(40):
        lam_da = mp.mpf(cfg.a_a) * cfg.eta0 * cfg.lambda_d / cfg.l_preambles
        s = (mp.mpf(1.25) if lam_da > cfg.lambda_b else 1) * mp.pi * cfg.lambda_b
        a = s + 2 * mp.pi * lam_da * mp.sqrt(cfg.gamma_th) * kernel
        b = mp.mpf(l) * cfg.gamma_th * cfg.sigma2 / cfg.p
        w = a / (2 * mp.sqrt(b))
        return float(s * mp.sqrt(mp.pi) / (2 * mp.sqrt(b)) * mp.erfc(w) * mp.exp(w * w))


@pytest.mark.parametrize("sigma2", [rach.DEFAULT_NOISE_W, 1e-9], ids=["preset-noise", "noise-bound"])
def test_joint_success_against_erfcx_closed_form(sigma2):
    # the noisy FULL value every preset prints (there a / (2 sqrt(b)) >= 1e4),
    # and at 1e-9 W, where it falls to ~1 and noise shapes the integral;
    # the worst error measured is 1.6e-13
    worst = 0.0
    for ratio in (100.0, 316.0, 1000.0, 3162.0, 10000.0):
        for gamma_db in (0.0, 10.0, 20.0, 30.0, 40.0):
            for l in (4, 8, 32, 128):
                cfg = ChannelConfig(lambda_b=0.1, lambda_d=ratio * 0.1, sigma2=sigma2,
                                    gamma_th=10.0 ** (gamma_db / 10.0))
                want = joint_success_erfcx_oracle(l, cfg)
                worst = max(worst, abs(joint_symbol_success(l, cfg) - want) / want)
    assert worst <= 2e-12


def test_joint_success_decreasing_in_groups():
    vals = [joint_symbol_success(l, DESK) for l in (4, 8, 16, 32)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v < 1.0 for v in vals)


def test_joint_success_no_contenders():
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0)
    # only thermal noise at desk scale: essentially certain
    assert joint_symbol_success(4, cfg) > 0.999


@pytest.mark.parametrize("l", [4, 128])
def test_joint_success_intra_is_one_quadrature(monkeypatch, l):
    # the cell-truncated kernel is closed-form, so only the outer integral
    # over the serving distance is a quadrature
    calls = []

    def counting(*args):
        calls.append(args)
        return improper_integral(*args)

    monkeypatch.setattr(rach, "improper_integral", counting)
    value = joint_symbol_success(l, DESK, InterferenceMode.INTRA_CELL_ONLY)
    assert len(calls) == 1
    assert 0.0 < value < 1.0


def test_joint_success_intra_dominates_full():
    full = joint_symbol_success(4, DESK, InterferenceMode.FULL)
    intra = joint_symbol_success(4, DESK, InterferenceMode.INTRA_CELL_ONLY)
    assert intra > full


@given(ratio=st.floats(1e-2, 1e4), gamma_db=st.floats(0.0, 30.0),
       l=st.sampled_from([4, 8, 16]))
@settings(max_examples=40, deadline=None)
def test_property_joint_success_in_unit_interval(ratio, gamma_db, l):
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=ratio,
                        gamma_th=10.0 ** (gamma_db / 10.0))
    v = joint_symbol_success(l, cfg)
    assert 0.0 <= v <= 1.0


# --------------------------------------------------------- preamble success


def test_preamble_pair_identity():
    # two repetitions: union of two jointly-faded events
    p4 = joint_symbol_success(4, DESK)
    p8 = joint_symbol_success(8, DESK)
    assert preamble_success_prob(2, DESK) == pytest.approx(2.0 * p4 - p8,
                                                           rel=1e-12)


def test_preamble_single_matches_joint():
    assert preamble_success_prob(1, DESK) == pytest.approx(
        joint_symbol_success(4, DESK), rel=1e-12)


def test_preamble_monotone_in_repetitions():
    vals = [preamble_success_prob(n, DESK) for n in (1, 2, 4, 8, 16, 32)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_preamble_union_bounds():
    p4 = joint_symbol_success(4, DESK)
    for n_t in (2, 4, 8):
        p = preamble_success_prob(n_t, DESK)
        assert p4 <= p <= min(1.0, n_t * p4) + 1e-12


def test_preamble_rejects_large_repetition_count():
    with pytest.raises(ConfigError):
        preamble_success_prob(64, DESK)


@pytest.mark.parametrize("value, expected", [
    (-5e-11, 0.0), (1.0 + 5e-11, 1.0), (-1e-9, None), (1.0 + 1e-9, None), (math.nan, None),
])
def test_probabilities_clamped_within_abs_tol(monkeypatch, value, expected):
    # within abs_tol of [0, 1] a value is clamped; beyond it, or NaN, it is
    # a NumericError (INTRA mode: the outer integral is its only quadrature,
    # so the patched value is the joint success itself)
    monkeypatch.setattr(rach, "improper_integral", lambda *args: (value, 0.0))
    joint = lambda: joint_symbol_success(4, DESK, InterferenceMode.INTRA_CELL_ONLY)
    monkeypatch.setattr(rach, "joint_symbol_success", lambda *args: value)
    preamble = lambda: preamble_success_prob(1, DESK)
    for evaluate in (joint, preamble):
        if expected is None:
            with pytest.raises(NumericError, match=r"outside \[0, 1\]"):
                evaluate()
        else:
            assert evaluate() == expected


def test_preamble_decreasing_in_threshold():
    lo = preamble_success_prob(4, ChannelConfig(lambda_b=1.0, lambda_d=1000.0,
                                                gamma_th=10.0))
    hi = preamble_success_prob(4, ChannelConfig(lambda_b=1.0, lambda_d=1000.0,
                                                gamma_th=1000.0))
    assert lo > hi


# ---------------------------------------------------------------- cell load


def mpmath_pmf(n: int, rho: float) -> float:
    mp.mp.dps = 50
    c = mp.mpf("3.575")
    r = mp.mpf(rho)
    val = (mp.gamma(n + c + 1) / (mp.gamma(c + 1) * mp.factorial(n))
           * mp.power(c, c + 1) * mp.power(r, n) / mp.power(r + c, n + c + 1))
    return float(val)


@pytest.mark.parametrize("n,rho", [(0, 1.0), (3, 1.0), (5, 1e-3), (40, 10.0),
                                   (200, 100.0)])
def test_cell_load_against_mpmath(n, rho):
    got = cell_load_pmf(n, rho * 0.1, 0.1)
    assert got == pytest.approx(mpmath_pmf(n, rho), rel=1e-12)


def test_cell_load_frozen_point():
    assert cell_load_pmf(0, 0.1, 0.1) == pytest.approx(0.323555387692,
                                                       abs=1e-12)


def test_cell_load_sums_to_one():
    for rho in (1e-3, 1.0, 50.0):
        total = np.array([cell_load_pmf(k, rho, 1.0) for k in range(4000)]).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


def test_cell_load_empty_field():
    assert cell_load_pmf(0, 0.0, 1.0) == 1.0
    assert cell_load_pmf(3, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("call", [
    lambda: select_epsilon(1.0, math.nan),
    lambda: cell_load_pmf(0, 0.1, math.nan),
    lambda: cell_load_pmf(0, math.nan, 0.1),
    lambda: select_epsilon(math.nan, 1.0),
    lambda: select_epsilon(-1.0, 1.0),
    lambda: cell_load_pmf(0, 0.1, math.inf),
    lambda: cell_load_pmf(0, math.inf, 0.1),
    lambda: cell_load_truncation(math.inf, 1.0),
    lambda: pgfl_kernel(1.5, 4),
    lambda: pgfl_kernel(2.0, 4),
    lambda: cell_load_pmf(0, 1e300, 1e-300),
    lambda: cell_load_truncation(1e300, 1e-300),
    lambda: cell_load_pmf(1, 1e-300, 1e300),
], ids=["select_epsilon-lambda_b", "cell_load_pmf-lambda_b", "cell_load_pmf-lambda_da",
        "select_epsilon-lambda_da", "select_epsilon-negative", "cell_load_pmf-inf-lambda_b",
        "cell_load_pmf-inf-lambda_da", "cell_load_truncation-inf",
        "pgfl_kernel-alpha-below-2", "pgfl_kernel-alpha-2", "cell_load_pmf-ratio-overflow",
        "cell_load_truncation-ratio-overflow", "cell_load_pmf-ratio-underflow"])
def test_sign_checks_reject_nan(call):
    # written `x < 0.0`, a sign check returns 1.0 or NaN for a NaN input; an
    # unbounded one lets +inf through to a math domain error or NaN masses,
    # and so does a finite density ratio lambda_da/lambda_b that overflows
    # (NaN masses, and n* walked to the cap) or underflows (a domain error)
    with pytest.raises(ConfigError, match="must be"):
        call()


def test_cell_load_requires_integers():
    # one count per call: a range or an array of counts is no integer
    for n in (np.array([0.5]), range(3), np.arange(3), 1.0):
        with pytest.raises(ConfigError, match="n must be an integer"):
            cell_load_pmf(n, 0.1, 0.1)
    with pytest.raises(ConfigError):
        cell_load_pmf(-1, 0.1, 0.1)


def test_truncation_rule():
    for rho, frozen in ((1e-3, 2), (1.0, 16), (1e3, 7814)):
        n_star = cell_load_truncation(rho, 1.0)
        assert n_star == frozen
        masses = np.array([cell_load_pmf(k, rho, 1.0) for k in range(n_star + 1)])
        assert masses.sum() >= 1.0 - 1e-8
        if n_star:
            below = masses[:-1].sum()
            assert below < 1.0 - 1e-8
    assert cell_load_truncation(0.0, 1.0) == 0


def test_truncation_first_block_is_one_cumsum():
    # the masses are added to one running sum in index order, so each
    # cumulative value is that of one 256-term cumsum: a target set to any of
    # them (1 - (1 - c) is exact for c in [1/2, 1)) is first reached at its
    # own index
    for rho in np.logspace(0.0, np.log10(30.0), 12):
        cum = np.cumsum([cell_load_pmf(k, rho, 1.0) for k in range(256)])
        rises = np.diff(cum, prepend=0.0) > 0.0
        for k in np.nonzero((cum >= 0.5) & (cum < 1.0) & rises)[0]:
            assert cell_load_truncation(rho, 1.0, 1.0 - cum[k]) == k, (rho, k)


@pytest.mark.parametrize("mode", list(InterferenceMode))
def test_cell_load_factor_against_exact_pgf(monkeypatch, mode):
    # the load N is negative binomial, so E[(1 - p)^N] = (1 + rho p / c)^-(c + 1)
    # exactly; the truncated sum counts the tail as failure, so at every
    # operating point of fig7-fig12 it falls short of the exact factor by at
    # most p times the tail mass
    seen = []

    def detail_value(n_t, cfg, mode, settings):
        d = rach_success_detail(n_t, cfg, mode, settings)
        seen.append((d, active_density(cfg) / cfg.lambda_b))
        return d.value

    monkeypatch.setitem(sweep._ANALYTIC_RACH, SweepTarget.RACH_SUCCESS, detail_value)
    for name in ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12"):
        run_preset(name, replace(build_config({}), mode=mode), Engine.ANALYTIC)
    assert len(seen) == 117
    c = rach.VORONOI_SHAPE
    for d, rho in seen:
        p = d.preamble_success
        exact = p * (1.0 + rho * p / c) ** -(c + 1.0)
        assert 0.0 <= exact - d.value <= p * d.tail_bound


def gammaln_pmf(n: np.ndarray, lambda_da: float, lambda_b: float):
    # the law in scipy's gammaln, with the same operation order as
    # cell_load_pmf; also returns the magnitude of the log-domain sum
    from scipy.special import gammaln

    c = rach.VORONOI_SHAPE
    rho = lambda_da / lambda_b
    terms = ((c + 1.0) * math.log(c), gammaln(n + c + 1.0), -gammaln(c + 1.0),
             -gammaln(n + 1.0), n * math.log(rho), -(n + c + 1.0) * math.log(rho + c))
    return np.exp(sum(terms)), sum(np.abs(t) for t in terms)


def test_cell_load_pmf_matches_gammaln_form(monkeypatch):
    # the stdlib and scipy log-gamma agree to about an ulp, so the two laws
    # agree to 1e-14 relative plus the float spacing of their log-domain sum
    # (up to ~2e5 at n = CELL_LOAD_CAP), and to one subnormal step near
    # underflow; checked over the whole support at three loads and at every
    # operating point of fig7-fig12
    points = {(1e-3, 1.0), (1.0, 1.0), (100.0, 1.0)}

    def recording_pmf(n, lambda_da, lambda_b):
        points.add((lambda_da, lambda_b))
        return cell_load_pmf(n, lambda_da, lambda_b)

    monkeypatch.setattr(rach, "cell_load_pmf", recording_pmf)
    for name in ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12"):
        run_preset(name, build_config({}), Engine.ANALYTIC)
    assert len(points) > 3
    n = np.arange(rach.CELL_LOAD_CAP + 1)
    eps = np.finfo(float).eps
    for lambda_da, lambda_b in sorted(points):
        got = np.array([cell_load_pmf(k, lambda_da, lambda_b) for k in range(n.size)])
        want, scale = gammaln_pmf(n, lambda_da, lambda_b)
        assert got.dtype == np.float64
        bound = want * (1e-14 + 2.0 * eps * scale) + 2.0 ** -1074
        assert np.all(np.abs(got - want) <= bound), (lambda_da, lambda_b)
    scalar = cell_load_pmf(3, 0.1, 0.1)
    assert type(scalar) is float
    assert scalar == pytest.approx(float(gammaln_pmf(np.asarray(3), 0.1, 0.1)[0]), rel=1e-14)
    assert type(cell_load_pmf(np.int64(3), 0.1, 0.1)) is float


# ------------------------------------------------------------- rach success


def test_rach_detail_consistency():
    d = rach_success_detail(1, DESK)
    assert 0.0 < d.value <= d.preamble_success <= 1.0
    assert d.tail_bound <= 1e-8
    assert d.terms == cell_load_truncation(active_density(DESK), 1.0) + 1
    # factored collision average recomputed directly from the pieces
    n = np.arange(d.terms)
    direct = d.preamble_success * float(
        (np.array([cell_load_pmf(k, active_density(DESK), 1.0) for k in range(d.terms)])
         * (1.0 - d.preamble_success) ** n).sum())
    assert d.value == pytest.approx(direct, rel=1e-12)


def test_rach_reduces_to_preamble_without_contenders():
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=0.0)
    d = rach_success_detail(4, cfg)
    assert d.value == pytest.approx(d.preamble_success, rel=1e-12)
    assert d.terms == 1


def test_rach_monotone_in_repetitions():
    vals = [rach_success_prob(n, DESK) for n in (1, 2, 4, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_rach_decreasing_in_device_density():
    light = rach_success_prob(2, ChannelConfig(lambda_b=1.0, lambda_d=100.0))
    heavy = rach_success_prob(2, ChannelConfig(lambda_b=1.0, lambda_d=10000.0))
    assert light > heavy


def test_rach_intra_dominates_full():
    assert (rach_success_prob(2, DESK, InterferenceMode.INTRA_CELL_ONLY)
            > rach_success_prob(2, DESK, InterferenceMode.FULL))


def test_efficiency_scaling():
    for n_t in (1, 2, 8):
        assert repetition_efficiency(n_t, DESK) == pytest.approx(
            rach_success_prob(n_t, DESK) / n_t, rel=1e-15)


def test_efficiency_eventually_decreasing():
    # repeating is cheap insurance at first, pure cost once success saturates
    effs = [repetition_efficiency(n, DESK) for n in (1, 2, 4, 8, 16, 32)]
    assert effs[-1] < effs[0]
    assert min(effs) == effs[-1]


@given(ratio=st.floats(1.0, 5e3), n_t=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=25, deadline=None)
def test_property_rach_below_preamble(ratio, n_t):
    cfg = ChannelConfig(lambda_b=1.0, lambda_d=ratio)
    d = rach_success_detail(n_t, cfg)
    assert 0.0 <= d.value <= d.preamble_success <= 1.0


# ---------------------------------------------------------------- config


def test_channel_config_validation():
    with pytest.raises(ConfigError):
        ChannelConfig(alpha=2.0)
    with pytest.raises(ConfigError):
        ChannelConfig(gamma_th=0.0)
    with pytest.raises(ConfigError):
        ChannelConfig(lambda_b=0.0)
    with pytest.raises(ConfigError):
        ChannelConfig(a_a=0.0)
    with pytest.raises(ConfigError):
        ChannelConfig(eta0=1.5)
    with pytest.raises(ConfigError):
        ChannelConfig(l_preambles=0)


def test_scale_invariance_of_success():
    # success probabilities depend on densities only through their ratio
    a = rach_success_prob(2, ChannelConfig(lambda_b=0.1, lambda_d=100.0,
                                           sigma2=0.0))
    b = rach_success_prob(2, ChannelConfig(lambda_b=1.0, lambda_d=1000.0,
                                           sigma2=0.0))
    assert a == pytest.approx(b, rel=1e-10)


def test_quadrature_settings_thread_through():
    loose = QuadratureSettings(rel_tol=1e-6, abs_tol=1e-8)
    v1 = joint_symbol_success(4, DESK, settings=loose)
    v2 = joint_symbol_success(4, DESK)
    assert v1 == pytest.approx(v2, rel=1e-5)


# ------------------------------------------------------------------- memo


@pytest.mark.parametrize("mode, quadratures", [(InterferenceMode.FULL, 96 + 32),
                                               (InterferenceMode.INTRA_CELL_ONLY, 96)])
def test_fig13_integrates_each_joint_and_kernel_once(monkeypatch, mode, quadratures):
    # fig13 walks n_t = 1..32 at three points: 96 distinct joint successes
    # and, in FULL mode, one kernel per l = 4..128 shared by all three
    # (re-integrated per row and series, that was 378 and 189); each
    # rach_success_detail evaluates each cell-load term once, none past n*
    calls, details, pmfs = [], [], []

    def counting(log, func):
        def wrapper(*args):
            log.append(func(*args))
            return log[-1]
        return wrapper

    monkeypatch.setattr(rach, "improper_integral", counting(calls, improper_integral))
    monkeypatch.setattr(rach, "rach_success_detail", counting(details, rach_success_detail))
    monkeypatch.setattr(rach, "cell_load_pmf", counting(pmfs, cell_load_pmf))
    run_preset("fig13", replace(build_config({}), mode=mode), Engine.ANALYTIC)
    assert len(calls) == quadratures
    assert len(details) == 18
    assert len(pmfs) == sum(d.terms for d in details)


RACH_PRESETS = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13")


@pytest.mark.parametrize("mode", list(InterferenceMode))
def test_warm_memo_gives_the_cold_tables(mode):
    cfg = replace(build_config({}), mode=mode)
    for name in RACH_PRESETS:
        rach._joint_symbol_success.cache_clear()
        rach._pgfl_kernel.cache_clear()
        cold = run_preset(name, cfg, Engine.ANALYTIC)
        warm = run_preset(name, cfg, Engine.ANALYTIC)
        assert rach._joint_symbol_success.cache_info().hits > 0, name
        assert (warm.columns, warm.rows) == (cold.columns, cold.rows), name


MEMO_VARIANTS = {
    "settings": (8, DESK, InterferenceMode.FULL, QuadratureSettings(rel_tol=1e-11)),
    "mode": (8, DESK, InterferenceMode.INTRA_CELL_ONLY, None),
    **{f: (8, replace(DESK, **{f: v}), InterferenceMode.FULL, None)
       for f, v in (("alpha", 3.5), ("gamma_th", 10.0), ("p", 0.05), ("sigma2", 0.0),
                    ("lambda_b", 2.0), ("lambda_d", 500.0), ("a_a", 0.002), ("eta0", 0.5),
                    ("l_preambles", 24))},
}


@pytest.mark.parametrize("args", MEMO_VARIANTS.values(), ids=list(MEMO_VARIANTS))
def test_memo_misses_on_any_changed_argument(args):
    # the base point is memoised; a variant in one argument is a fresh
    # evaluation, equal to the same evaluation from empty memos
    joint_symbol_success(8, DESK)
    before = rach._joint_symbol_success.cache_info()
    value = joint_symbol_success(*args)
    after = rach._joint_symbol_success.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 1)
    rach._joint_symbol_success.cache_clear()
    rach._pgfl_kernel.cache_clear()
    assert joint_symbol_success(*args) == value
    assert joint_symbol_success(*args) == value  # and from the memo


def test_kernel_memo_keyed_by_alpha_groups_and_settings():
    pgfl_kernel(4.0, 8)
    for args in ((3.5, 8), (4.0, 12), (4.0, 8, QuadratureSettings(rel_tol=1e-11))):
        misses = rach._pgfl_kernel.cache_info().misses
        value = pgfl_kernel(*args)
        assert rach._pgfl_kernel.cache_info().misses == misses + 1, args
        rach._pgfl_kernel.cache_clear()
        assert pgfl_kernel(*args) == value
