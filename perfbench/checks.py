"""Output checks for every CSV and identity result the workloads produce.

Each check is counted once in a Tally; the run is correct only when none
fails.  The thresholds are fixed here, not read from the program, so a
change cannot pass by loosening the program's own accuracy settings.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# QuadratureSettings the reference CSVs were computed with (the program's
# defaults when they were generated).
REF_REL_TOL = 1e-8
REF_ABS_TOL = 1e-10
# QUADPACK's error estimate is a heuristic; allow ten of them.
QUAD_SAFETY = 10.0
# Inclusion-exclusion over n_t repetitions amplifies each of the n_t
# integrals' errors by its binomial weight, sum 2^n_t - 1; from n_t = 16
# (INTRA) or 32 that bound exceeds this cap and the cap applies instead.
# Recomputing the presets at rel_tol 1e-11 moves success probability by
# at most 1e-4 (FULL, n_t = 32) and 4.8e-3 (INTRA, n_t = 32).
ANALYTIC_TOL_CAP = 1e-2
# fig5/fig6 availability is closed form: only float rounding may move it.
CLOSED_FORM_REL_TOL = 1e-9

# Simulated random-access cells vs their analytic twin, in CI half-widths.
# Seeds 1-6 put fig10 within 1.7; the densest n_t = 8 cell sits ~1 CI
# above its twin on every seed (model bias), so 3.5 leaves ~4.9 sigma.
SIM_CI_MULTIPLE = 3.5
# Replications per simulated preset point (sweep.PRESET_REPLICATIONS).
PRESET_REPLICATIONS = 1000
NORMAL_95 = 1.96
# DES availability vs the FAILURE-bound availability, in standard errors.
# Seeds 1-4 put fig5 within 2.3; the n_t = 4, zero-headroom cell sits
# ~1.6 se below theory on three of them, so 6 leaves ~4.4 sigma.
DES_SE_MULTIPLE = 6.0

CLOSED_FORM_PRESETS = ("fig5", "fig6")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as f:
        records = list(csv.reader(f))
    return records[0], records[1:]


def reference(preset: str, intra: bool) -> tuple[list[str], list[list[str]]]:
    return read_csv(REFERENCE_DIR / f"{preset}{'-intra' if intra else ''}.csv")


def analytic_tolerance(preset: str, column: str, axis_value: float,
                       ref_value: float, intra: bool) -> float:
    """Allowed |value - reference| for one analytic cell."""
    if preset in CLOSED_FORM_PRESETS:
        return CLOSED_FORM_REL_TOL * abs(ref_value)
    if preset == "fig13":  # efficiency columns: axis is n_t, value is rach / n_t
        n_t = int(axis_value)
    else:
        match = re.search(r"_nt(\d+)", column)
        n_t = int(match.group(1)) if match else 1
    nesting = 2.0 if intra else 1.0  # INTRA nests a quadrature in the integrand
    bound = QUAD_SAFETY * nesting * (2.0 ** n_t - 1.0) * (REF_REL_TOL + REF_ABS_TOL)
    tol = min(ANALYTIC_TOL_CAP, bound)
    return tol / n_t if preset == "fig13" else tol


def check_table(tally: Tally, path: Path, preset: str, intra: bool) -> None:
    """Check one sweep CSV: shape and analytic cells against the reference,
    simulated and DES cells against their analytic twins."""
    if not tally.check(path.exists(), f"{path.name}: no CSV written"):
        return
    header, rows = read_csv(path)
    ref_header, ref_rows = reference(preset, intra)
    col = {name: i for i, name in enumerate(header)}
    shape_ok = (set(ref_header) <= set(col)
                and [r[0] for r in rows] == [r[0] for r in ref_rows]
                and all(len(r) == len(header) for r in rows)
                and not any("error" in r for r in rows))
    if not tally.check(shape_ok, f"{path.name}: header, axis or error marker differs"):
        return
    for j, name in enumerate(ref_header[1:], start=1):
        for row, ref_row in zip(rows, ref_rows):
            value, ref = float(row[col[name]]), float(ref_row[j])
            tol = analytic_tolerance(preset, name, float(ref_row[0]), ref, intra)
            tally.check(abs(value - ref) <= tol,
                        f"{path.name} {name}@{row[0]}: {value} vs reference {ref} (tol {tol:.1e})")
    for name in header[1:]:
        if name in ref_header:
            continue
        if name.endswith("_sim"):
            _check_simulated(tally, path.name, name, rows, col)
        elif re.fullmatch(r"eta0_des_h\d+", name):
            _check_des(tally, path.name, name, rows, col)
        elif not (name.endswith("_sim_ci") or re.fullmatch(r"eta0_des_se_h\d+", name)):
            tally.check(False, f"{path.name}: column {name} has no check")


def _check_simulated(tally: Tally, label: str, name: str, rows, col) -> None:
    twin, ci_name = name[: -len("_sim")], name + "_ci"
    n = PRESET_REPLICATIONS
    for row in rows:
        p_hat, ci, analytic = (float(row[col[k]]) for k in (name, ci_name, twin))
        successes = p_hat * n
        # the half-width must be the one n replications give, so a change
        # cannot get faster by simulating fewer trials
        expected_ci = NORMAL_95 * math.sqrt(p_hat * (1.0 - p_hat) / n)
        tally.check(abs(successes - round(successes)) < 1e-6
                    and abs(ci - expected_ci) <= 1e-9,
                    f"{label} {name}@{row[0]}: CI {ci} is not that of {n} replications")
        # own CI is 0 when p_hat is 0 or 1; fall back to the twin's
        scale = max(ci, NORMAL_95 * math.sqrt(analytic * (1.0 - analytic) / n))
        tally.check(abs(p_hat - analytic) <= SIM_CI_MULTIPLE * scale,
                    f"{label} {name}@{row[0]}: {p_hat} vs analytic {analytic} "
                    f"beyond {SIM_CI_MULTIPLE} x CI {scale:.3g}")


def _check_des(tally: Tally, label: str, name: str, rows, col) -> None:
    headroom = name[len("eta0_des_"):]
    se_name, lower = f"eta0_des_se_{headroom}", f"eta0_lower_{headroom}"
    for row in rows:
        eta, se, theory = (float(row[col[k]]) for k in (name, se_name, lower))
        tally.check(0.0 < se and abs(eta - theory) <= DES_SE_MULTIPLE * se,
                    f"{label} {name}@{row[0]}: {eta} vs FAILURE bound {theory} "
                    f"beyond {DES_SE_MULTIPLE} x se {se:.3g}")


def check_identity(tally: Tally, meta: dict, n_pairs: int) -> None:
    tally.check(meta.get("identity_pairs") == n_pairs
                and meta.get("identity_residual") == "0",
                f"exact inverse identity: residual {meta.get('identity_residual')} "
                f"over {meta.get('identity_pairs')} of {n_pairs} pairs")
