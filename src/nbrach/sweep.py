"""Parameter sweeps over the analytic formulas and the simulator.

A sweep walks one axis and evaluates a list of series at each point; a
series names a target, its repetition count and configuration overrides.
One evaluator per target and engine serves every series, and one serial
loop (`_run`) fills the rows in axis order of a returned `SweepTable`.
`PRESETS` is the table of reference-figure sweeps; `run_custom` walks the
config's sweep_key, rebuilding the full configuration at each point.

Simulation series reuse one seed across rows (common random numbers), so
tables are reproducible byte for byte from (config, seed).  Per-row
runtimes are kept on the table but never emitted to CSV.
"""

from __future__ import annotations

import csv
import enum
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .config import AppConfig, KEYS, with_value
from .energy import simulate_energy_chain, availability_bounds
from .errors import ConfigError
from .rach import preamble_success_prob, rach_success_prob, repetition_efficiency
from .simulation import simulate_summary

DES_TRANSITIONS = 1_000_000  # events per availability chain estimate
PRESET_REPLICATIONS = 1000  # light default for preset simulation series
AXIS = "axis"  # a series' repetition count taken from the swept value


class SweepTarget(enum.Enum):
    AVAILABILITY = "availability"
    PREAMBLE_SUCCESS = "preamble"
    RACH_SUCCESS = "rach"
    REPETITION_EFFICIENCY = "efficiency"


class Engine(enum.Enum):
    ANALYTIC = "analytic"
    SIMULATION = "sim"
    BOTH = "both"


@dataclass(frozen=True)
class SweepTable:
    """Rows of one sweep; first column is the swept value.  Cells are
    floats, or the string 'error' marking an aborted tail row."""

    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    runtimes: tuple[float, ...] = ()

    def __post_init__(self):
        if any(len(row) != len(self.columns) for row in self.rows):
            raise ConfigError("every row must match the header width")


def _format_cell(cell: object) -> str:
    if isinstance(cell, (str, int)):
        return str(cell)
    return format(float(cell), ".12g")


def emit_csv(table: SweepTable, path: str | None = None) -> None:
    """UTF-8 CSV to `path`, or to stdout when path is None; 12 significant
    digits, '\\n' line endings; identical tables re-emit byte-identically."""
    with (nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows([_format_cell(c) for c in row] for row in table.rows)


def _parse_cell(cell: str) -> object:
    try:
        return float(cell)
    except ValueError:
        return cell


def parse_csv(path: str) -> SweepTable:
    """Inverse of emit_csv up to the emitted 12-digit precision."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        records = list(csv.reader(f))
    if not records:
        raise ConfigError(f"{path}: empty CSV")
    return SweepTable(columns=tuple(records[0]),
                      rows=tuple(tuple(map(_parse_cell, r)) for r in records[1:]))


class Series(NamedTuple):
    """n_t: a repetition count, AXIS, or None for the config's own.  Column
    suffixes go at a '{}' in the label, else at its end."""

    label: str
    target: SweepTarget
    n_t: int | str | None
    overrides: dict


_ANALYTIC_RACH = {SweepTarget.PREAMBLE_SUCCESS: preamble_success_prob,
                  SweepTarget.RACH_SUCCESS: rach_success_prob,
                  SweepTarget.REPETITION_EFFICIENCY: repetition_efficiency}


def _analytic(target: SweepTarget, point: AppConfig, n_t: int) -> tuple[float, ...]:
    if target is SweepTarget.AVAILABILITY:
        lower, upper = availability_bounds(point.energy)
        return lower.eta0, upper.eta0
    return (_ANALYTIC_RACH[target](n_t, point.channel, point.mode, point.quadrature),)


def _simulated(target: SweepTarget, point: AppConfig, n_t: int) -> tuple[float, ...]:
    if target is SweepTarget.AVAILABILITY:
        est = simulate_energy_chain(point.energy, DES_TRANSITIONS, point.sim.seed)
        return est.eta_hat, est.se
    summary = simulate_summary(point.channel, n_t, point.mode, point.sim)
    est = summary.transmission if target is SweepTarget.PREAMBLE_SUCCESS else summary.rach
    scale = float(n_t) if target is SweepTarget.REPETITION_EFFICIENCY else 1.0
    return est.p_hat / scale, est.ci_halfwidth / scale


def _evaluators(series: Series, engine: Engine):
    """(column names, evaluator) pairs of one series under the engine."""
    label = series.label if "{}" in series.label else series.label + "{}"
    avail = series.target is SweepTarget.AVAILABILITY
    pairs = []
    if engine is not Engine.SIMULATION:
        pairs.append((("_lower", "_upper") if avail else ("",), _analytic))
    if engine is not Engine.ANALYTIC:
        pairs.append((("_des", "_des_se") if avail else ("_sim", "_sim_ci"), _simulated))
    return [(tuple(label.format(s) for s in suffixes), f) for suffixes, f in pairs]


def _run(axis: str, values: tuple[float, ...], series: tuple[Series, ...], engine: Engine,
         point_for: Callable[[float, Series], tuple[AppConfig, int]]) -> SweepTable:
    """Evaluate the rows in axis order.  On a row failure the completed
    rows plus an error-marker row are attached to the exception as
    `partial_table`."""
    plans = [(s, _evaluators(s, engine)) for s in series]
    columns = (axis,) + tuple(n for _, evs in plans for names, _ in evs for n in names)
    rows, runtimes = [], []
    for value in values:
        t0 = time.perf_counter()
        try:
            cells: list[object] = [value]
            for s, evaluators in plans:
                point, n_t = point_for(value, s)
                for _, evaluate in evaluators:
                    cells.extend(evaluate(s.target, point, n_t))
        except Exception as exc:
            marker = (value,) + ("error",) * (len(columns) - 1)
            exc.partial_table = SweepTable(columns, tuple(rows) + (marker,), tuple(runtimes))
            raise
        rows.append(tuple(cells))
        runtimes.append(time.perf_counter() - t0)
    return SweepTable(columns, tuple(rows), tuple(runtimes))


def run_custom(cfg: AppConfig, engine: Engine) -> SweepTable:
    """Custom sweep named by the config's sweep_key, sweep_values and
    target: rebuild the configuration at each swept value of that key
    (derived defaults recompute) and evaluate the target."""
    if not cfg.sweep_key or cfg.sweep_values is None or not cfg.target:
        raise ConfigError("custom sweep requires sweep_key, sweep_values and target in the config")
    key, values = cfg.sweep_key, tuple(cfg.sweep_values)
    if key not in KEYS:
        raise ConfigError(f"swept parameter {key!r} is not a configuration key")
    if key in ("sweep_key", "sweep_values", "target"):
        raise ConfigError(f"swept parameter {key!r} names the sweep itself")
    if not values:
        raise ConfigError("sweep values must be non-empty")
    diffs = [b - a for a, b in zip(values, values[1:])]
    if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ConfigError("sweep values must be strictly monotone")

    def point_for(v: float, _series: Series) -> tuple[AppConfig, int]:
        point = with_value(cfg, key, v)
        return point, point.energy.n_t

    target = SweepTarget(cfg.target)
    return _run(key, values, (Series(target.value, target, None, {}),), engine, point_for)


# presets: one table entry name -> (axis, values, series) per reference figure

def _channel(cfg: AppConfig, **fields) -> AppConfig:
    return replace(cfg, channel=replace(cfg.channel, **fields))


# how an axis or override value lands in the point config, for repetition count n
_SETTERS: dict[str, Callable[[AppConfig, float, int], AppConfig]] = {
    "n_t": lambda c, v, n: c,
    "headroom": lambda c, v, n: replace(c, energy=replace(c.energy, n_t=n, m0=n + int(v))),
    "mu0": lambda c, v, n: replace(c, energy=replace(c.energy, mu0=v)),
    "eta0": lambda c, v, n: _channel(c, eta0=v),
    "p": lambda c, v, n: _channel(c, p=v),
    "a_a": lambda c, v, n: _channel(c, a_a=v),
    "gamma_db": lambda c, v, n: _channel(c, gamma_th=10.0 ** (v / 10.0)),
    "density_ratio": lambda c, v, n: _channel(c, lambda_d=v * c.channel.lambda_b),
}


def _rach(*n_ts: int, tag: str = "", **overrides: float) -> tuple[Series, ...]:
    return tuple(Series(f"rach{tag}_nt{n}", SweepTarget.RACH_SUCCESS, n, overrides)
                 for n in n_ts)


_RATIOS = (100.0, 316.0, 1000.0, 3162.0, 10000.0)

PRESETS: dict[str, tuple[str, tuple[float, ...], tuple[Series, ...]]] = {
    # availability bounds vs repetition value; headroom 160 shows the plateaus
    "fig5": ("n_t", (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0), tuple(
        Series(f"eta0{{}}_h{h}", SweepTarget.AVAILABILITY, AXIS, {"headroom": h})
        for h in (0, 10, 160))),
    # availability bounds versus harvest rate
    "fig6": ("mu0", (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5),
             (Series("eta0", SweepTarget.AVAILABILITY, None, {}),)),
    # success vs availability (more energy, more contenders), power, threshold (dB)
    "fig7": ("eta0", (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0), _rach(1, 2, 4, 8)),
    "fig8": ("p", (0.005, 0.01, 0.02, 0.05, 0.1, 0.2), _rach(1, 8)),
    "fig9": ("gamma_db", (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0), _rach(1, 8)),
    # success vs density ratio: per repetition value, light/heavy load, threshold
    "fig10": ("density_ratio", _RATIOS, _rach(1, 2, 4, 8)),
    "fig11": ("density_ratio", _RATIOS,
              _rach(1, 8, tag="_light", a_a=0.001) + _rach(1, 8, tag="_heavy", a_a=0.015)),
    "fig12": ("density_ratio", _RATIOS, tuple(
        Series(f"rach_g{g}db", SweepTarget.RACH_SUCCESS, 1, {"gamma_db": float(g)})
        for g in (10, 20, 30))),
    # repetition efficiency, strictly falling along the axis
    "fig13": ("n_t", (1.0, 2.0, 4.0, 8.0, 16.0, 32.0), tuple(
        Series(f"zeta_{tag}", SweepTarget.REPETITION_EFFICIENCY, AXIS,
               {"density_ratio": ratio, "gamma_db": gamma_db})
        for ratio, gamma_db, tag in ((1000.0, 20.0, "r1e3_g20"),
                                     (10000.0, 20.0, "r1e4_g20"),
                                     (1000.0, 10.0, "r1e3_g10")))),
}


def _preset_sim(cfg: AppConfig):
    """Preset simulation settings: the light PRESET_REPLICATIONS default
    unless the config names `replications` explicitly."""
    return cfg.sim if "replications" in cfg.raw else replace(
        cfg.sim, replications=PRESET_REPLICATIONS)


def run_preset(name: str, cfg: AppConfig, engine: Engine) -> SweepTable:
    """Run one named preset; 'custom' sweeps go through run_custom."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)} or 'custom'")
    axis, values, series = PRESETS[name]
    base = replace(cfg, sim=_preset_sim(cfg))

    def point_for(v: float, s: Series) -> tuple[AppConfig, int]:
        n_t = int(v) if s.n_t == AXIS else s.n_t or cfg.energy.n_t
        point = base
        for key, value in ((axis, v), *s.overrides.items()):
            point = _SETTERS[key](point, value, n_t)
        return point, n_t

    return _run(axis, values, series, engine, point_for)
