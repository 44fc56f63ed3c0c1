"""Tests for the key = value configuration layer: parsing, units,
derived defaults and canonical rendering."""

import dataclasses
import math

import numpy as np
import pytest

from nbrach.config import (
    build_config,
    describe,
    load_config,
    noise_power_watt,
    parse_config_text,
    with_value,
)
from nbrach.energy import (
    EnergyConfig,
    generator_matrix,
    hitting_times_solve,
    mean_on_time,
    neg_B_inverse,
)
from nbrach.errors import ConfigError
from nbrach.quadrature import QuadratureSettings
from nbrach.rach import (
    ChannelConfig,
    InterferenceMode,
    joint_symbol_success,
    pgfl_kernel,
    preamble_success_prob,
    symbol_group_count,
)
from nbrach.simulation import SimSettings, simulate_summary


def cfg_from(text: str):
    return build_config(parse_config_text(text))


# ----------------------------------------------------------------- parsing


def test_parse_basic_lines():
    raw = parse_config_text("""
    # station field
    lambda_b = 1 /km2
    lambda_d = 1000   # devices
    n_t = 2
    """)
    assert raw == {"lambda_b": "1 /km2", "lambda_d": "1000", "n_t": "2"}


def test_parse_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*unknown"):
        parse_config_text("n_t = 1\nbogus = 3")


def test_parse_duplicate_key_reports_line():
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config_text("n_t = 1\n\nn_t = 2")


def test_parse_empty_value_reports_line():
    with pytest.raises(ConfigError, match="line 1.*empty"):
        parse_config_text("n_t =   # nothing")


def test_parse_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words")


# ------------------------------------------------------------------- units


def test_threshold_units():
    assert cfg_from("gamma_th = 20 dB").channel.gamma_th == pytest.approx(100.0)
    assert cfg_from("gamma_th = 100").channel.gamma_th == pytest.approx(100.0)
    with pytest.raises(ConfigError, match="unit"):
        cfg_from("gamma_th = 20 mW")


def test_power_units():
    assert cfg_from("p = 20 mW").channel.p == pytest.approx(0.02)
    assert cfg_from("p = 0.02 W").channel.p == pytest.approx(0.02)
    with pytest.raises(ConfigError):
        cfg_from("p = 13 dBm")


def test_noise_units():
    c = cfg_from("sigma2 = -120 dBm")
    assert c.channel.sigma2 == pytest.approx(1e-15)
    assert cfg_from("sigma2 = 1e-15 W").channel.sigma2 == pytest.approx(1e-15)


def test_time_and_energy_units():
    c = cfg_from("t_r = 6 ms\np = 20 mW")
    assert c.energy.e0_ra == pytest.approx(0.02 * 6e-3)
    c2 = cfg_from("e0_ra = 120 uJ")
    assert c2.energy.e0_ra == pytest.approx(1.2e-4)


def test_bandwidth_units():
    c = cfg_from("bw = 3.75 kHz")
    assert c.channel.sigma2 == pytest.approx(noise_power_watt(3750.0))


def test_unparseable_quantity():
    with pytest.raises(ConfigError, match="cannot parse"):
        cfg_from("mu0 = fast")


@pytest.mark.parametrize("text", [
    "sigma2 = nan",
    "sigma2 = -inf dBm",
    "lambda_d = nan",
    "lambda_d = inf /km2",
    "tail_tol = nan",
    "mu0 = 1e400",
    "gamma_th = 4000 dB",
    "sweep_values = 1, inf",
])
def test_non_finite_numbers_rejected(text):
    with pytest.raises(ConfigError, match="finite"):
        cfg_from(text)


def test_enum_values():
    assert cfg_from("mode = intra").mode is InterferenceMode.INTRA_CELL_ONLY
    with pytest.raises(ConfigError, match="expected one of"):
        cfg_from("mode = everything")


# -------------------------------------------------------- derived defaults


def test_default_configuration():
    c = load_config(None)
    assert c.energy.e0_ra == pytest.approx(0.02 * 6e-3)
    assert c.energy.e0_da == pytest.approx(0.4 * 0.02 * 31e-3)
    assert c.energy.m0 == 161
    assert c.energy.n_t == 1
    assert c.channel.eta0 == pytest.approx(0.30, abs=1e-6)
    assert c.channel.sigma2 == pytest.approx(noise_power_watt(3750.0))
    assert c.channel.lambda_b == pytest.approx(0.1)
    assert c.channel.lambda_d == pytest.approx(100.0)
    assert c.mode is InterferenceMode.FULL
    assert c.sweep_key is None


def test_unset_layers_take_dataclass_defaults():
    c = load_config(None)
    assert c.quadrature == QuadratureSettings()
    assert c.sim == SimSettings()


def test_derived_defaults_follow_inputs():
    c = cfg_from("n_t = 8")
    assert c.energy.m0 == 168
    assert c.energy.n_t == 8
    # availability lower bound feeds the thinning
    assert 0.0 < c.channel.eta0 < 1.0
    c2 = cfg_from("p = 40 mW")
    assert c2.energy.e0_ra == pytest.approx(0.04 * 6e-3)
    assert c2.channel.p == pytest.approx(0.04)


def test_explicit_overrides_beat_derivation():
    c = cfg_from("eta0 = 0.5\ne0_da = 0\nm0 = 200")
    assert c.channel.eta0 == 0.5
    assert c.energy.e0_da == 0.0
    assert c.energy.m0 == 200


def test_sweep_fields():
    c = cfg_from("sweep_key = n_t\nsweep_values = 1, 2, 4, 8\ntarget = rach")
    assert c.sweep_key == "n_t"
    assert c.sweep_values == (1.0, 2.0, 4.0, 8.0)
    assert c.target == "rach"
    with pytest.raises(ConfigError, match="numbers"):
        cfg_from("sweep_values = 1, two")


def test_sim_fields():
    c = cfg_from("replications = 500\nseed = 9\ntail_tol = 1e-4")
    assert c.sim == SimSettings(replications=500, seed=9, tail_tol=1e-4)


@pytest.mark.parametrize("line", ["region_area = 400 km2", "guard = 0.5 km", "redraw_budget = 5",
                                  "bound = success", "standard_repetitions = off",
                                  "epsilon = 1.1", "l = 64", "pmf_tail_mass = 1e-8"])
def test_removed_keys_are_unknown(line):
    # keys of no setting: a file naming one is refused, not silently ignored
    key = line.split(" =")[0]
    with pytest.raises(ConfigError, match=f"line 2: unknown configuration key '{key}'"):
        cfg_from(f"seed = 1\n{line}")
    with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
        build_config({key: line.split("= ")[1]})


@pytest.mark.parametrize("layer, name", [
    (SimSettings, "replications"), (SimSettings, "seed"),
    (EnergyConfig, "m0"), (EnergyConfig, "n_t"), (QuadratureSettings, "max_subdivisions"),
    (ChannelConfig, "l_preambles"),
])
def test_integer_fields_reject_floats(layer, name):
    # an integral float used to pass and crash far away (a slice index, a
    # SeedSequence, the DES, QUADPACK's limit) with a TypeError
    default = getattr(layer(), name)
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        layer(**{name: float(default)})
    assert getattr(layer(**{name: np.int64(default)}), name) == default


@pytest.mark.parametrize("layer, name", [
    (layer, f.name) for layer in (ChannelConfig, EnergyConfig, SimSettings, QuadratureSettings)
    for f in dataclasses.fields(layer) if "float" in f.type
])
def test_float_fields_reject_nan(layer, name):
    # a sign check written `x < 0.0` lets NaN through, and one without an
    # upper bound lets +inf through to NaN results or a ZeroDivisionError
    for value in (math.nan, math.inf):
        with pytest.raises(ConfigError, match=name):
            layer(**{name: value})


@pytest.mark.parametrize("count", [
    symbol_group_count,
    lambda n_t: preamble_success_prob(n_t, ChannelConfig()),
    lambda n_t: simulate_summary(ChannelConfig(), n_t, settings=SimSettings(replications=10)),
    lambda n: pgfl_kernel(4.0, 4 * n),
    lambda n: joint_symbol_success(4 * n, ChannelConfig()),
    lambda n: generator_matrix(0.1, 0.2, n + 1),
    lambda n: neg_B_inverse(0.1, 0.2, n + 1),
    lambda n: hitting_times_solve(0.1, 0.2, n + 1),
    lambda n: mean_on_time(0.1, 0.2, n + 1, 1),
    lambda n: mean_on_time(0.1, 0.2, 4, n),
    lambda n: mean_on_time(0.2, 0.2, 4, n),
], ids=["symbol_group_count", "preamble_success_prob", "simulate_summary",
        "pgfl_kernel", "joint_symbol_success",
        "generator_matrix", "neg_B_inverse", "hitting_times_solve", "mean_on_time",
        "start_level", "start_level-singular"])
def test_repetition_counts_reject_floats(count):
    # the same rule as the integer config fields: 2.0 is not a count, nor
    # are 8.0 symbol groups, a capacity of 3.0 quanta or a start level of 2.0
    with pytest.raises(ConfigError, match="must be an integer"):
        count(2.0)
    count(np.int64(2))


def test_with_value_rebuilds_derived_defaults():
    base = cfg_from("lambda_b = 1\nmu0 = 0.1")
    c = with_value(base, "n_t", 8.0)
    assert (c.energy.n_t, c.energy.m0, c.energy.mu0) == (8, 168, 0.1)
    assert with_value(base, "lambda_d", 0.1).channel.lambda_d == 0.1
    with pytest.raises(ConfigError, match="integer"):
        with_value(base, "n_t", 2.5)


def test_unknown_key_outside_parsing_is_config_error():
    # the API takes the file's keys, and only those
    with pytest.raises(ConfigError, match="'l'"):
        build_config({"l": "64"})
    with pytest.raises(ConfigError, match="'bogus'"):
        with_value(cfg_from(""), "bogus", 1.0)


def test_invalid_downstream_value_is_config_error():
    with pytest.raises(ConfigError):
        cfg_from("alpha = 1.5")
    with pytest.raises(ConfigError):
        cfg_from("n_t = 3")  # not a standard repetition value
    with pytest.raises(ConfigError):
        cfg_from("m0 = 0")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "point.cfg"
    path.write_text("lambda_b = 1\nlambda_d = 1000\ngamma_th = 20 dB\nn_t = 4\n")
    c = load_config(str(path))
    assert c.channel.lambda_b == 1.0
    assert c.channel.gamma_th == pytest.approx(100.0)
    assert c.energy.n_t == 4
    assert c.raw["gamma_th"] == "20 dB"


# ------------------------------------------------------------ description


def test_describe_is_canonical():
    c = cfg_from("gamma_th = 20 dB\nlambda_b = 1")
    text = describe(c)
    assert "gamma_th = 100" in text
    assert "lambda_b = 1 /km2" in text
    assert "mode = full" in text
    # canonical text parses back to the same resolved values
    reparsed = cfg_from("\n".join(
        line for line in text.splitlines()
        if line.split(" =")[0] in ("gamma_th", "lambda_b", "n_t", "mu0")))
    assert reparsed.channel.gamma_th == c.channel.gamma_th
    assert reparsed.channel.lambda_b == c.channel.lambda_b


@pytest.mark.parametrize("text", [
    "",
    "n_t = 4\nm0 = 20",
    "mu0 = 0.1\ne0_da = 0 uJ",
    "tail_tol = 1e-4\nlambda_b = 1",
    "eta0 = 0.5\nbw = 4 kHz",
    "seed = 3\nmode = intra\nsweep_values = 1, 2\ntarget = rach",
])
def test_describe_is_a_fixed_point(text):
    # every resolved key is rendered, so the rendering reads back to itself
    once = describe(cfg_from(text))
    assert describe(cfg_from(once)) == once
