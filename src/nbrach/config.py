"""Flat key = value configuration with unit-suffixed quantities.

One text file configures all layers: battery chain, radio channel,
simulator and sweep selection.  Values may carry unit suffixes (dB,
dBm, W, mW, J, ms, kHz, /km2) that are converted at this boundary, so
everything downstream works in linear watts, joules, seconds and
1/km^2.  Unset keys take the reference parameter set; the handful of
derived defaults (per-repetition energies from power times duration,
noise power from the tone bandwidth, availability from the battery
model) are recomputed from whatever the file does override.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .energy import BoundMode, EnergyConfig, availability_bounds
from .errors import ConfigError
from .quadrature import QuadratureSettings
from .rach import ChannelConfig, InterferenceMode
from .simulation import Region, SimSettings

# Battery headroom above the cutoff at which both availability bounds
# have reached their large-capacity plateaus.
PLATEAU_HEADROOM = 160

# Fraction of the full data-transmission energy P*t_g charged per
# repetition in the success-case budget; 0.4 places the upper
# availability plateau at 0.92 for the reference parameter set.
DATA_ENERGY_BUDGET_FRACTION = 0.4

_DB10 = 10.0


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / _DB10)


def _dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / _DB10)


def noise_power_watt(bandwidth_hz: float) -> float:
    """Thermal noise over one tone: -174 dBm/Hz plus 10 log10(BW)."""
    if not (bandwidth_hz > 0.0):
        raise ConfigError("bandwidth must be positive")
    return _dbm_to_watt(-174.0 + _DB10 * math.log10(bandwidth_hz))


_UNIT_SCALES = {
    "power": {None: 1.0, "W": 1.0, "mW": 1e-3},
    "energy": {None: 1.0, "J": 1.0, "mJ": 1e-3, "uJ": 1e-6},
    "time": {None: 1.0, "s": 1.0, "ms": 1e-3},
    "intensity": {None: 1.0, "/km2": 1.0},
    "area": {None: 1.0, "km2": 1.0},
    "length": {None: 1.0, "km": 1.0},
    "frequency": {None: 1.0, "Hz": 1.0, "kHz": 1e3},
    "plain": {None: 1.0},
}

# longest suffixes first so "dBm" wins over "dB" and "ms" over "s"
_KNOWN_UNITS = ("/km2", "km2", "dBm", "kHz", "mW", "ms", "mJ", "uJ", "dB",
                "Hz", "km", "W", "J", "s")


def _split_unit(text: str) -> tuple[float, str | None]:
    text = text.strip()
    try:
        return float(text), None
    except ValueError:
        pass
    for unit in _KNOWN_UNITS:
        if text.endswith(unit):
            head = text[: -len(unit)].strip()
            try:
                return float(head), unit
            except ValueError:
                continue
    raise ConfigError(f"cannot parse quantity {text!r}")


def _parse_quantity(key: str, text: str, kind: str) -> float:
    value, unit = _split_unit(text)
    if kind == "threshold":
        return _db_to_linear(value) if unit == "dB" else _reject_unit(key, unit, value)
    if kind == "noise":
        if unit == "dBm":
            return _dbm_to_watt(value)
        return value * _scale_for(key, "power", unit)
    scales = _UNIT_SCALES.get(kind)
    if scales is None:
        raise ConfigError(f"unhandled quantity kind {kind!r}")
    return value * _scale_for(key, kind, unit)


def _scale_for(key: str, kind: str, unit: str | None) -> float:
    scales = _UNIT_SCALES[kind]
    if unit not in scales:
        raise ConfigError(f"{key}: unit {unit!r} not valid for a {kind} quantity")
    return scales[unit]


def _reject_unit(key: str, unit: str | None, value: float) -> float:
    if unit is not None:
        raise ConfigError(f"{key}: unexpected unit {unit!r}")
    return value


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from exc


def _parse_bool(key: str, text: str) -> bool:
    token = text.strip().lower()
    if token in ("true", "yes", "on", "1"):
        return True
    if token in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _parse_float_list(key: str, text: str) -> tuple[float, ...]:
    items = [t for t in (piece.strip() for piece in text.split(",")) if t]
    if not items:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    try:
        return tuple(float(t) for t in items)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected numbers, got {text!r}") from exc


# key -> (kind tag, short doc); kinds: quantity kinds above plus
# int/bool/float/enum:<options>/list/str
_FIELD_SPECS: dict[str, tuple[str, str]] = {
    "mu0": ("plain", "energy-harvest rate, units/s"),
    "a_a": ("plain", "non-empty data-buffer probability"),
    "p": ("power", "transmit power"),
    "t_r": ("time", "preamble repetition duration"),
    "t_g": ("time", "data transmission duration"),
    "e0_ra": ("energy", "energy per preamble repetition"),
    "e0_da": ("energy", "energy per data repetition"),
    "m0": ("int", "battery capacity, energy units"),
    "n_t": ("int", "repetition value / ON-toggle cutoff"),
    "bound": ("enum:failure,success", "availability bound for single-bound outputs"),
    "standard_repetitions": ("bool", "restrict n_t to the standard set"),
    "alpha": ("plain", "path-loss exponent"),
    "gamma_th": ("threshold", "SINR threshold (dB or linear)"),
    "sigma2": ("noise", "noise power (W or dBm)"),
    "bw": ("frequency", "tone bandwidth (Hz or kHz)"),
    "lambda_b": ("intensity", "station intensity, 1/km2"),
    "lambda_d": ("intensity", "device intensity, 1/km2"),
    "l_preambles": ("int", "number of contention preambles"),
    "epsilon": ("plain", "distance-law correction override"),
    "eta0": ("plain", "energy availability override"),
    "mode": ("enum:full,intra", "interference scope"),
    "replications": ("int", "Monte-Carlo replications per point"),
    "seed": ("int", "Monte-Carlo seed"),
    "region_area": ("area", "explicit sampling-region area, km2"),
    "guard": ("length", "interior-cell guard depth, km"),
    "tail_tol": ("plain", "far-field interference truncation budget"),
    "redraw_budget": ("int", "rejected-replication budget"),
    "rel_tol": ("plain", "quadrature relative tolerance"),
    "abs_tol": ("plain", "quadrature absolute tolerance"),
    "max_subdivisions": ("int", "quadrature subdivision cap"),
    "pmf_tail_mass": ("plain", "cell-load truncation tail mass"),
    "sweep_key": ("str", "custom sweep parameter name"),
    "sweep_values": ("list", "custom sweep values, comma separated"),
    "target": ("enum:availability,preamble,rach,efficiency", "custom sweep quantity"),
}

_ALIASES = {"l": "l_preambles"}


@dataclass(frozen=True)
class AppConfig:
    """Validated configuration for every layer plus raw sweep selections."""

    energy: EnergyConfig
    channel: ChannelConfig
    quadrature: QuadratureSettings
    sim: SimSettings
    mode: InterferenceMode
    sweep_key: str | None = None
    sweep_values: tuple[float, ...] | None = None
    target: str | None = None
    raw: dict = field(default_factory=dict)


def parse_config_text(text: str) -> dict[str, str]:
    """Key = value lines; '#' starts a comment; keys must be known."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        key = _ALIASES.get(key, key)
        if key not in _FIELD_SPECS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _convert(raw: dict[str, str]) -> dict[str, object]:
    values: dict[str, object] = {}
    for key, text in raw.items():
        kind, _ = _FIELD_SPECS[key]
        if kind == "int":
            values[key] = _parse_int(key, text)
        elif kind == "bool":
            values[key] = _parse_bool(key, text)
        elif kind == "list":
            values[key] = _parse_float_list(key, text)
        elif kind == "str":
            values[key] = text.strip()
        elif kind.startswith("enum:"):
            options = kind.split(":", 1)[1].split(",")
            token = text.strip().lower()
            if token not in options:
                raise ConfigError(f"{key}: expected one of {options}, got {text!r}")
            values[key] = token
        else:
            values[key] = _parse_quantity(key, text, kind)
    return values


def build_config(raw: dict[str, str]) -> AppConfig:
    """Assemble validated layer configs, filling derived defaults."""
    v = _convert(raw)

    p = float(v.get("p", 0.02))
    a_a = float(v.get("a_a", 0.001))
    t_r = float(v.get("t_r", 6e-3))
    t_g = float(v.get("t_g", 31e-3))
    e0_ra = float(v.get("e0_ra", p * t_r))
    e0_da = float(v.get("e0_da", DATA_ENERGY_BUDGET_FRACTION * p * t_g))
    n_t = int(v.get("n_t", 1))
    m0 = int(v.get("m0", n_t + PLATEAU_HEADROOM))
    bound = BoundMode.SUCCESS if v.get("bound") == "success" else BoundMode.FAILURE
    energy = EnergyConfig(
        mu0=float(v.get("mu0", 0.05)),
        a_a=a_a,
        p=p,
        e0_ra=e0_ra,
        e0_da=e0_da,
        m0=m0,
        n_t=n_t,
        bound_mode=bound,
        enforce_standard_repetitions=bool(v.get("standard_repetitions", True)),
    )

    if "eta0" in v:
        eta0 = float(v["eta0"])
    else:
        eta0 = availability_bounds(energy)[0].eta0

    sigma2 = float(v["sigma2"]) if "sigma2" in v else noise_power_watt(float(v.get("bw", 3750.0)))
    channel = ChannelConfig(
        alpha=float(v.get("alpha", 4.0)),
        gamma_th=float(v.get("gamma_th", 100.0)),
        p=p,
        sigma2=sigma2,
        lambda_b=float(v.get("lambda_b", 0.1)),
        lambda_d=float(v.get("lambda_d", 100.0)),
        a_a=a_a,
        eta0=eta0,
        l_preambles=int(v.get("l_preambles", 48)),
        epsilon_override=float(v["epsilon"]) if "epsilon" in v else None,
    )

    quadrature = QuadratureSettings(
        rel_tol=float(v.get("rel_tol", 1e-8)),
        abs_tol=float(v.get("abs_tol", 1e-10)),
        max_subdivisions=int(v.get("max_subdivisions", 200)),
        pmf_tail_mass=float(v.get("pmf_tail_mass", 1e-8)),
    )

    region = Region.from_area(float(v["region_area"])) if "region_area" in v else None
    sim = SimSettings(
        replications=int(v.get("replications", 10_000)),
        seed=int(v.get("seed", 0)),
        region=region,
        guard=float(v["guard"]) if "guard" in v else None,
        tail_tol=float(v.get("tail_tol", 5e-4)),
        redraw_budget=int(v.get("redraw_budget", 1000)),
    )

    mode = InterferenceMode.INTRA_CELL_ONLY if v.get("mode") == "intra" else InterferenceMode.FULL

    return AppConfig(
        energy=energy,
        channel=channel,
        quadrature=quadrature,
        sim=sim,
        mode=mode,
        sweep_key=v.get("sweep_key"),
        sweep_values=v.get("sweep_values"),
        target=v.get("target"),
        raw=dict(raw),
    )


def load_config(path: str | None) -> AppConfig:
    """Read and validate a config file; None loads pure defaults."""
    if path is None:
        return build_config({})
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return build_config(parse_config_text(text))


def describe(cfg: AppConfig) -> str:
    """Canonical key=value rendering of the resolved configuration."""
    e, c, s = cfg.energy, cfg.channel, cfg.sim
    lines = [
        f"mu0 = {e.mu0:.12g}",
        f"a_a = {e.a_a:.12g}",
        f"p = {e.p:.12g} W",
        f"e0_ra = {e.e0_ra:.12g} J",
        f"e0_da = {e.e0_da:.12g} J",
        f"m0 = {e.m0}",
        f"n_t = {e.n_t}",
        f"bound = {e.bound_mode.name.lower()}",
        f"alpha = {c.alpha:.12g}",
        f"gamma_th = {c.gamma_th:.12g}",
        f"sigma2 = {c.sigma2:.12g} W",
        f"lambda_b = {c.lambda_b:.12g} /km2",
        f"lambda_d = {c.lambda_d:.12g} /km2",
        f"l_preambles = {c.l_preambles}",
        f"eta0 = {c.eta0:.12g}",
        f"mode = {'intra' if cfg.mode is InterferenceMode.INTRA_CELL_ONLY else 'full'}",
        f"replications = {s.replications}",
        f"seed = {s.seed}",
        f"tail_tol = {s.tail_tol:.12g}",
    ]
    if c.epsilon_override is not None:
        lines.append(f"epsilon = {c.epsilon_override:.12g}")
    if s.region is not None:
        lines.append(f"region_area = {s.region.area:.12g} km2")
    return "\n".join(lines)
