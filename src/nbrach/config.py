"""Flat key = value configuration with unit-suffixed quantities.

One table, `KEYS`, maps each key to its kind, the layer it sets and the
field there.  It drives the key check, the conversion of values (unit
suffixes such as dB, dBm, mW, uJ, ms, kHz, /km2 become linear SI units
here; numbers must be finite), the assembly of the layer dataclasses and
`describe`, whose output is itself a valid config file.  Unset keys take
the dataclass defaults, the reference parameter set; only the derived
defaults live here (repetition energies from power and the config-only
durations t_r and t_g, m0 from n_t, sigma2 from the config-only bandwidth
bw, eta0 from the battery model), recomputed from what the file sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .energy import EnergyConfig, availability_bounds
from .errors import ConfigError
from .quadrature import QuadratureSettings
from .rach import ChannelConfig, InterferenceMode, noise_power_watt
from .simulation import SimSettings

# Battery headroom above the cutoff at which both availability bounds
# have reached their large-capacity plateaus.
PLATEAU_HEADROOM = 160

# Fraction of the full data-transmission energy P*t_g charged per
# repetition in the success-case budget; 0.4 places the upper
# availability plateau at 0.92 for the reference parameter set.
DATA_ENERGY_BUDGET_FRACTION = 0.4

# Reference preamble repetition and data transmission durations, seconds.
PREAMBLE_DURATION_S = 6e-3
DATA_DURATION_S = 31e-3

# quantity kind -> {unit suffix: scale factor or converter}; a bare number
# is taken in the kind's base unit, the suffix with scale 1.0
_UNITS: dict[str, dict[str, object]] = {
    "plain": {},
    "threshold": {"dB": lambda db: 10.0 ** (db / 10.0)},
    "power": {"W": 1.0, "mW": 1e-3},
    "noise": {"W": 1.0, "mW": 1e-3, "dBm": lambda dbm: 10.0 ** ((dbm - 30.0) / 10.0)},
    "energy": {"J": 1.0, "mJ": 1e-3, "uJ": 1e-6},
    "time": {"s": 1.0, "ms": 1e-3},
    "intensity": {"/km2": 1.0},
    "frequency": {"Hz": 1.0, "kHz": 1e3},
}

# longest suffixes first so "dBm" wins over "dB" and "ms" over "s"
_SUFFIXES = sorted(dict.fromkeys(u for units in _UNITS.values() for u in units),
                   key=len, reverse=True)

# key -> (kind, layer, field).  Kinds: the quantity kinds of _UNITS, "int",
# "list" (comma-separated numbers), "str", or a dict of the allowed tokens.
# Layers: an AppConfig layer attribute, "app" for AppConfig's own fields, or
# None for a config-only input that feeds a derived default.
KEYS: dict[str, tuple[object, str | None, str]] = {
    "mu0": ("plain", "energy", "mu0"),                  # harvest rate, units/s
    "a_a": ("plain", "energy", "a_a"),                  # non-empty buffer probability
    "p": ("power", "energy", "p"),                      # transmit power
    "t_r": ("time", None, "t_r"),                       # preamble repetition duration
    "t_g": ("time", None, "t_g"),                       # data transmission duration
    "e0_ra": ("energy", "energy", "e0_ra"),             # energy per preamble repetition
    "e0_da": ("energy", "energy", "e0_da"),             # energy per data repetition
    "m0": ("int", "energy", "m0"),                      # battery capacity, energy units
    "n_t": ("int", "energy", "n_t"),                    # NPRACH repetition value / ON cutoff
    "alpha": ("plain", "channel", "alpha"),             # path-loss exponent
    "gamma_th": ("threshold", "channel", "gamma_th"),   # SINR threshold, dB or linear
    "sigma2": ("noise", "channel", "sigma2"),           # noise power, W or dBm
    "bw": ("frequency", None, "bw"),                    # tone bandwidth
    "lambda_b": ("intensity", "channel", "lambda_b"),   # station intensity
    "lambda_d": ("intensity", "channel", "lambda_d"),   # device intensity
    "l_preambles": ("int", "channel", "l_preambles"),   # contention preambles
    "eta0": ("plain", "channel", "eta0"),               # energy availability override
    "mode": ({m.value: m for m in InterferenceMode}, "app", "mode"),
    "replications": ("int", "sim", "replications"),     # Monte-Carlo replications
    "seed": ("int", "sim", "seed"),                     # Monte-Carlo seed
    "tail_tol": ("plain", "sim", "tail_tol"),           # far-field truncation budget
    "rel_tol": ("plain", "quadrature", "rel_tol"),
    "abs_tol": ("plain", "quadrature", "abs_tol"),
    "max_subdivisions": ("int", "quadrature", "max_subdivisions"),
    "sweep_key": ("str", "app", "sweep_key"),           # custom sweep parameter
    "sweep_values": ("list", "app", "sweep_values"),    # custom sweep values
    "target": ({t: t for t in ("availability", "preamble", "rach", "efficiency")},
               "app", "target"),                        # custom sweep quantity
}


@dataclass(frozen=True)
class AppConfig:
    """Validated configuration for every layer plus raw sweep selections."""

    energy: EnergyConfig
    channel: ChannelConfig
    quadrature: QuadratureSettings
    sim: SimSettings
    mode: InterferenceMode = InterferenceMode.FULL
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
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _finite(key: str, value: float, text: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{key}: {text!r} is not a finite number")
    return value


def _quantity(key: str, text: str, kind: str) -> float:
    text = text.strip()
    for unit in (None, *_SUFFIXES):
        if unit is not None and not text.endswith(unit):
            continue
        try:
            value = float(text if unit is None else text[: -len(unit)])
        except ValueError:
            continue
        if unit is not None and unit not in _UNITS[kind]:
            raise ConfigError(f"{key}: unit {unit!r} not valid for a {kind} quantity")
        scale = _UNITS[kind].get(unit, 1.0)
        _finite(key, value, text)
        try:  # a finite number can still overflow its unit conversion
            value = scale(value) if callable(scale) else value * scale
        except OverflowError:
            value = math.inf
        return _finite(key, value, text)
    raise ConfigError(f"cannot parse quantity {text!r}")


def _convert(key: str, text: str, kind: object) -> object:
    token = text.strip()
    if isinstance(kind, dict):
        if token.lower() not in kind:
            raise ConfigError(f"{key}: expected one of {list(kind)}, got {text!r}")
        return kind[token.lower()]
    if kind == "str":
        return token
    if kind == "int":
        try:
            return int(token)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from exc
    if kind == "list":
        items = [t for t in (piece.strip() for piece in text.split(",")) if t]
        if not items:
            raise ConfigError(f"{key}: expected a comma-separated list of numbers")
        try:
            numbers = tuple(float(t) for t in items)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected numbers, got {text!r}") from exc
        return tuple(_finite(key, v, text) for v in numbers)
    return _quantity(key, text, kind)


def _spec(key: str) -> tuple[object, str | None, str]:
    if key not in KEYS:
        raise ConfigError(f"unknown configuration key {key!r}")
    return KEYS[key]


def build_config(raw: dict[str, str]) -> AppConfig:
    """Assemble validated layer configs from the keys `raw` sets; the
    dataclass defaults fill the rest, apart from the derived defaults."""
    kw: dict[str | None, dict[str, object]] = {
        layer: {} for layer in ("energy", "channel", "quadrature", "sim", "app", None)}
    for key, text in raw.items():
        kind, layer, name = _spec(key)
        kw[layer][name] = _convert(key, text, kind)
    energy_kw, channel_kw, inputs = kw["energy"], kw["channel"], kw[None]

    p = energy_kw.get("p", EnergyConfig.p)
    energy_kw.setdefault("e0_ra", p * inputs.get("t_r", PREAMBLE_DURATION_S))
    energy_kw.setdefault(
        "e0_da", DATA_ENERGY_BUDGET_FRACTION * p * inputs.get("t_g", DATA_DURATION_S))
    energy_kw.setdefault("m0", energy_kw.get("n_t", EnergyConfig.n_t) + PLATEAU_HEADROOM)
    energy = EnergyConfig(**energy_kw)

    channel_kw.update(p=energy.p, a_a=energy.a_a)
    if "eta0" not in channel_kw:
        channel_kw["eta0"] = availability_bounds(energy)[0].eta0
    if "bw" in inputs and "sigma2" not in channel_kw:
        channel_kw["sigma2"] = noise_power_watt(inputs["bw"])

    return AppConfig(energy=energy, channel=ChannelConfig(**channel_kw),
                     quadrature=QuadratureSettings(**kw["quadrature"]),
                     sim=SimSettings(**kw["sim"]), raw=dict(raw), **kw["app"])


def with_value(cfg: AppConfig, key: str, value: float) -> AppConfig:
    """Rebuild `cfg` with one key set to a number, as if the config file
    said so; derived defaults recompute.  Integer keys take integral values."""
    if _spec(key)[0] == "int":
        if not float(value).is_integer():
            raise ConfigError(f"{key}: value {value} must be an integer")
        text = str(int(value))
    else:
        text = format(float(value), ".17g")
    return build_config({**cfg.raw, key: text})


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


def _render(kind: object, value: object) -> str:
    if isinstance(kind, dict) or kind in ("int", "str"):
        return str(getattr(value, "value", value))
    if kind == "list":
        return ", ".join(format(v, ".12g") for v in value)
    base = [u for u, scale in _UNITS[kind].items() if scale == 1.0]
    return " ".join([format(value, ".12g")] + base[:1])


def describe(cfg: AppConfig) -> str:
    """Canonical key = value rendering of every resolved key, in table
    order; config-only inputs appear through what they derive, and unset
    optional keys are left out.  The text is itself a valid config file."""
    lines = []
    for key, (kind, layer, name) in KEYS.items():
        if layer is None:
            continue
        value = getattr(cfg if layer == "app" else getattr(cfg, layer), name)
        if value is not None:
            lines.append(f"{key} = {_render(kind, value)}")
    return "\n".join(lines)
