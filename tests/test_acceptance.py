"""Acceptance gate: nine numbered criteria, one test and one printed
pass/fail line each.  Run with -s to see the measured quantities.

Every stochastic criterion fixes its seeds and replication counts as
literals so the whole gate is deterministic; the replication counts for
criterion 6 were sized from analytic quantities alone (see the guard
inside the test) and drawn exactly once.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from nbrach.energy import (
    EnergyConfig,
    availability_bounds,
    energy_availability,
    hitting_times_solve,
    mean_on_time,
    neg_B_inverse,
    simulate_energy_chain,
)
from nbrach.rach import (
    ChannelConfig,
    cell_load_pmf,
    cell_load_truncation,
    joint_symbol_success,
    rach_success_detail,
    rach_success_prob,
    repetition_efficiency,
)
from nbrach.simulation import SimSettings, simulate_summary

DESK_RATE_GRID_SEED = 12345
DESK = dict(lambda_b=1.0, lambda_d=1000.0)


def report(num: int, name: str, ok: bool, detail: str, secs: float, budget: float):
    line = (f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - "
            f"{detail} [{secs:.1f}s / budget {budget:.0f}s]")
    print(line)
    assert ok, line
    assert secs < budget, line


def rate_grid(n_pairs: int = 200):
    rng = np.random.default_rng(DESK_RATE_GRID_SEED)
    for _ in range(n_pairs):
        ratio = 10.0 ** rng.uniform(-3.0, 3.0)
        nu0 = 10.0 ** rng.uniform(-1.0, 1.0)
        cap = int(rng.integers(1, 51))
        yield ratio * nu0, nu0, cap


def test_criterion_1_inverse_identity():
    t0 = time.perf_counter()
    worst = Fraction(0)
    for mu0, nu0, cap in rate_grid():
        m = neg_B_inverse(mu0, nu0, cap, exact=True)
        # the exact residual (-B0) m - I in integers: scaled by m's common
        # denominator and by the rates' power-of-two one
        mu, nu = Fraction(mu0), Fraction(nu0)
        den = math.lcm(*(x.denominator for x in m.flat))
        rate_den = math.lcm(mu.denominator, nu.denominator)
        m = np.array([x.numerator * (den // x.denominator) for x in m.flat],
                     dtype=object).reshape(cap, cap)
        mu, nu = int(mu * rate_den), int(nu * rate_den)
        for i in range(cap):
            row = ((mu + nu) if i < cap - 1 else nu) * m[i]
            if i > 0:
                row = row - nu * m[i - 1]
            if i < cap - 1:
                row = row - mu * m[i + 1]
            row[i] -= den * rate_den
            r = Fraction(max(abs(x) for x in row), den * rate_den)
            if r > worst:
                worst = r
    secs = time.perf_counter() - t0
    report(1, "matrix inverse identity", float(worst) < 1e-9,
           f"max residual {float(worst):.1e} over 200 rate pairs", secs, 10.0)


def test_criterion_2_hitting_time_triple_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    banded = 0
    for mu0, nu0, cap in rate_grid():
        solve = hitting_times_solve(mu0, nu0, cap)
        if abs(mu0 / nu0 - 1.0) < 1e-6:
            banded += 1
            assert mean_on_time(mu0, nu0, cap, cap) == solve[-1]
            continue
        rows = neg_B_inverse(mu0, nu0, cap).sum(axis=1)
        closed = np.array([mean_on_time(mu0, nu0, cap, m)
                           for m in range(1, cap + 1)])
        for a, b in ((solve, rows), (solve, closed), (rows, closed)):
            rel = float(np.max(np.abs(a - b) / np.abs(a)))
            worst = max(worst, rel)
    secs = time.perf_counter() - t0
    report(2, "hitting-time route agreement", worst < 1e-9,
           f"max pairwise relative {worst:.1e}, {banded} near-singular pairs "
           f"checked against the solve alone", secs, 10.0)


def test_criterion_3_chain_vs_des():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    detail = []
    ok = True
    for n_t in (1, 2, 4, 8):
        for m0 in (n_t, n_t + 10, n_t + 160):
            cfg = EnergyConfig(n_t=n_t, m0=m0)
            theory = energy_availability(cfg).eta0
            est = simulate_energy_chain(cfg, 1_000_000, seed=7)
            tol = max(0.01 * theory, 3.0 * est.se)
            gap = abs(est.eta_hat - theory)
            worst_ratio = max(worst_ratio, gap / tol)
            if gap > tol:
                ok = False
                detail.append(f"n_t={n_t} m0={m0}: |{est.eta_hat:.5f}-{theory:.5f}|>{tol:.1e}")
    secs = time.perf_counter() - t0
    report(3, "availability theory vs event simulation", ok,
           f"12 configurations, worst gap at {worst_ratio:.2f}x its tolerance"
           + ("; " + "; ".join(detail) if detail else ""), secs, 15.0)


def test_criterion_4_availability_plateaus():
    t0 = time.perf_counter()
    lowers, uppers = [], []
    for n_t in (1, 2, 4, 8):
        lower, upper = availability_bounds(EnergyConfig(n_t=n_t, m0=n_t + 160))
        lowers.append(lower.eta0)
        uppers.append(upper.eta0)
    ok = (all(abs(v - 0.30) <= 0.02 for v in lowers)
          and all(abs(v - 0.92) <= 0.02 for v in uppers)
          and max(lowers) - min(lowers) < 0.01
          and max(uppers) - min(uppers) < 0.01)
    secs = time.perf_counter() - t0
    report(4, "availability plateau pair", ok,
           f"lower {min(lowers):.6f}..{max(lowers):.6f} (target 0.30+-0.02), "
           f"upper {min(uppers):.6f}..{max(uppers):.6f} (target 0.92+-0.02)",
           secs, 5.0)


def test_criterion_5_transmission_oracle_match():
    t0 = time.perf_counter()
    cfg = ChannelConfig(**DESK)
    analytic = joint_symbol_success(4, cfg)
    summary = simulate_summary(cfg, 1, settings=SimSettings(
        replications=100_000, seed=42, tail_tol=2e-4))
    est = summary.transmission
    gap = abs(est.p_hat - analytic)
    secs = time.perf_counter() - t0
    report(5, "joint success inside simulation CI", gap <= est.ci_halfwidth,
           f"analytic {analytic:.6f}, simulated {est.p_hat:.6f} "
           f"(gap {gap:.6f} vs halfwidth {est.ci_halfwidth:.6f}, 1e5 trials)",
           secs, 60.0)


# validation grid: (a_a, gamma_dB) blocks, repetition values within each.
# The last block fills the grid to its 20 points with the traffic midpoint.
C6_GRID = tuple(
    (a_a, g_db, n_t)
    for a_a, g_db in ((0.001, 10.0), (0.001, 20.0), (0.015, 10.0),
                      (0.015, 20.0), (0.005, 20.0))
    for n_t in (1, 2, 4, 8)
)

# replication counts frozen from the one-shot sizing rule below
C6_REPS = (100, 100, 100, 100, 187, 133, 103, 100, 156, 120, 100, 100,
           213, 216, 208, 196, 274, 240, 209, 183)

C6_BASE_SEED = 42


def c6_replications(analytic: float, collision_mass: float) -> int:
    """Pre-registered sizing rule: the CI must resolve a 0.05 shift plus
    the analytic collision mass (the factored-collision approximation's
    worst-case displacement), with a 100-trial floor.  Depends on analytic
    quantities only, so it was fixed before any simulation ran."""
    target = 0.05 + collision_mass
    return max(100, math.ceil(analytic * (1.0 - analytic) * (1.96 / target) ** 2))


def test_criterion_6_rach_validation_grid():
    t0 = time.perf_counter()
    inside = 0
    lines = []
    for i, (a_a, g_db, n_t) in enumerate(C6_GRID):
        cfg = ChannelConfig(lambda_b=1.0, lambda_d=1000.0, a_a=a_a,
                            gamma_th=10.0 ** (g_db / 10.0))
        detail = rach_success_detail(n_t, cfg)
        k_coll = detail.preamble_success - detail.value
        reps = c6_replications(detail.value, k_coll)
        assert reps == C6_REPS[i], (
            f"point {i}: sizing rule gives {reps}, frozen draw used {C6_REPS[i]}")
        est = simulate_summary(cfg, n_t, settings=SimSettings(
            replications=reps, seed=C6_BASE_SEED + i)).rach
        hit = abs(detail.value - est.p_hat) <= est.ci_halfwidth
        inside += hit
        lines.append(
            f"  a_a={a_a} gamma={g_db:g}dB n_t={n_t}: analytic {detail.value:.4f} "
            f"sim {est.p_hat:.4f} +-{est.ci_halfwidth:.4f} n={reps} "
            f"coll_mass {k_coll:.4f} {'in' if hit else 'OUT'}")
    secs = time.perf_counter() - t0
    print("\n".join(lines))
    report(6, "random-access validation grid", inside >= 18,
           f"{inside}/20 points inside the 95% CI (need >= 18)", secs, 1800.0)


def test_criterion_7_trend_properties():
    t0 = time.perf_counter()
    checks = []

    # success non-decreasing in transmit power.  At the reference noise
    # level the analytic power dependence sits below the quadrature
    # tolerance, so the slack admits integration jitter; a noise level
    # that makes power visible must show a strict increase.
    for sigma2, slack, strict in ((None, 2e-9, False), (1e-8, 0.0, True)):
        kw = dict(DESK)
        if sigma2 is not None:
            kw["sigma2"] = sigma2
        vals = [rach_success_prob(1, ChannelConfig(**kw, p=p))
                for p in (0.005, 0.01, 0.02, 0.04, 0.08)]
        steps = [b - a for a, b in zip(vals, vals[1:])]
        ok = all(s >= -slack for s in steps) and (not strict or min(steps) > 0.0)
        checks.append((f"power trend (sigma2={'ref' if sigma2 is None else sigma2})", ok))

    for a_a in (0.001, 0.015):
        for g in (10.0, 100.0):
            vals = [rach_success_prob(n, ChannelConfig(**DESK, a_a=a_a, gamma_th=g))
                    for n in (1, 2, 4, 8)]
            checks.append((f"repetition trend a_a={a_a} gamma={g:g}",
                           all(b >= a for a, b in zip(vals, vals[1:]))))

    vals = [rach_success_prob(2, ChannelConfig(**DESK, gamma_th=g))
            for g in (1.0, 10.0, 100.0, 1000.0)]
    checks.append(("threshold trend", all(b <= a for a, b in zip(vals, vals[1:]))))

    vals = [rach_success_prob(2, ChannelConfig(lambda_b=1.0, lambda_d=r))
            for r in (100.0, 316.0, 1000.0, 3162.0, 10000.0)]
    checks.append(("density-ratio trend", all(b <= a for a, b in zip(vals, vals[1:]))))

    effs = [repetition_efficiency(n, ChannelConfig(**DESK))
            for n in (1, 2, 4, 8, 16, 32)]
    checks.append(("efficiency strictly decreasing",
                   all(b < a for a, b in zip(effs, effs[1:]))))

    # at the congested end of the density axis extra repetitions buy far
    # less under heavy traffic than under light traffic
    gains = {}
    for a_a in (0.001, 0.015):
        cfg = ChannelConfig(lambda_b=1.0, lambda_d=10_000.0, a_a=a_a)
        gains[a_a] = rach_success_prob(8, cfg) - rach_success_prob(1, cfg)
    checks.append((f"congested repetition gain light {gains[0.001]:.3f} "
                   f"vs heavy {gains[0.015]:.3f}",
                   gains[0.015] < gains[0.001]))

    failed = [name for name, ok in checks if not ok]
    secs = time.perf_counter() - t0
    report(7, "qualitative trends", not failed,
           f"{len(checks)} trend families" + (f"; failed: {failed}" if failed else ""),
           secs, 120.0)


def test_criterion_8_cell_load_mass():
    t0 = time.perf_counter()
    worst = 0.0
    for rho in (1e-3, 1.0, 1e3):
        n_star = cell_load_truncation(rho, 1.0)
        mass = float(np.array([cell_load_pmf(k, rho, 1.0) for k in range(n_star + 1)]).sum())
        worst = max(worst, abs(mass - 1.0))
    secs = time.perf_counter() - t0
    report(8, "cell-load mass under truncation", worst <= 1e-8,
           f"max |mass - 1| = {worst:.2e} over density ratios 1e-3, 1, 1e3",
           secs, 1.0)


def test_criterion_9_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("lambda_b = 1\nlambda_d = 1000\n")
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "nbrach.cli", "sweep", "--config", str(cfg),
             "--preset", "fig10", "--engine", "both", "--seed", "42",
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    secs = time.perf_counter() - t0
    report(9, "pipeline determinism", identical and len(outs[0]) > 0,
           f"two full preset runs, {len(outs[0])} CSV bytes each, "
           f"byte-identical: {identical}", secs, 120.0)
