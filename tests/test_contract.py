"""The numeric-input contract: every public function and layer dataclass
takes each int or float parameter only finite and inside its interval, and
otherwise raises a ConfigError that names the parameter.  `CONTRACT` holds
one valid call per callable; tests/test_imports.py checks that it lists
every public callable with a numeric parameter."""

import inspect
import math
import re

import pytest

from nbrach.config import build_config, with_value
from nbrach.energy import (
    EnergyConfig,
    generator_matrix,
    hitting_times_solve,
    mean_on_time,
    neg_B_inverse,
    simulate_energy_chain,
)
from nbrach.errors import ConfigError
from nbrach.quadrature import QuadratureSettings
from nbrach.rach import (
    ChannelConfig,
    cell_load_pmf,
    cell_load_truncation,
    joint_symbol_success,
    noise_power_watt,
    pgfl_kernel,
    preamble_success_prob,
    rach_success_detail,
    rach_success_prob,
    repetition_efficiency,
    select_epsilon,
    symbol_group_count,
)
from nbrach.simulation import SimSettings, interference_horizon, simulate_summary

_NUMERIC = re.compile(r"(float|int)( \| None)?")


def numeric_parameters(func) -> list[str]:
    """Parameters annotated as one int or float, optional or not."""
    return [name for name, p in inspect.signature(func).parameters.items()
            if _NUMERIC.fullmatch(str(p.annotation))]


_CHAIN = {"mu0": 0.1, "nu0": 0.2, "capacity": 4}
_RACH = {"n_t": 1, "cfg": ChannelConfig()}

# "module.qualified name" -> (callable, keyword arguments of a valid call)
CONTRACT = {
    "quadrature.QuadratureSettings": (QuadratureSettings, {}),
    "energy.EnergyConfig": (EnergyConfig, {}),
    "energy.generator_matrix": (generator_matrix, _CHAIN),
    "energy.neg_B_inverse": (neg_B_inverse, _CHAIN),
    "energy.hitting_times_solve": (hitting_times_solve, _CHAIN),
    "energy.mean_on_time": (mean_on_time, {**_CHAIN, "start_level": 1}),
    "energy.simulate_energy_chain": (
        simulate_energy_chain, {"cfg": EnergyConfig(), "num_transitions": 1000, "seed": 0}),
    "rach.ChannelConfig": (ChannelConfig, {}),
    "rach.noise_power_watt": (noise_power_watt, {"bandwidth_hz": 3750.0}),
    "rach.symbol_group_count": (symbol_group_count, {"n_t": 1}),
    "rach.select_epsilon": (select_epsilon, {"lambda_da": 0.1, "lambda_b": 1.0}),
    "rach.pgfl_kernel": (pgfl_kernel, {"alpha": 4.0, "l": 4}),
    "rach.joint_symbol_success": (joint_symbol_success, {"l": 4, "cfg": ChannelConfig()}),
    "rach.preamble_success_prob": (preamble_success_prob, _RACH),
    "rach.cell_load_pmf": (cell_load_pmf, {"n": 0, "lambda_da": 0.1, "lambda_b": 1.0}),
    "rach.cell_load_truncation": (
        cell_load_truncation, {"lambda_da": 0.1, "lambda_b": 1.0, "tail_mass": 1e-8}),
    "rach.rach_success_detail": (rach_success_detail, _RACH),
    "rach.rach_success_prob": (rach_success_prob, _RACH),
    "rach.repetition_efficiency": (repetition_efficiency, _RACH),
    "simulation.SimSettings": (SimSettings, {}),
    "simulation.interference_horizon": (interference_horizon, {**_RACH, "tail_tol": 1e-3}),
    "simulation.simulate_summary": (
        simulate_summary, {**_RACH, "settings": SimSettings(replications=10)}),
    "config.with_value": (with_value, {"cfg": build_config({}), "key": "alpha", "value": 4.0}),
}

# parameters whose error names something else: with_value's names the
# config key it sets, as the config file's own error would
NAMED_AS = {("config.with_value", "value"): "alpha"}


@pytest.mark.parametrize("entry", sorted(CONTRACT))
def test_contract_call_is_valid(entry):
    # a bad value must be what the contract test below is rejected for
    func, kwargs = CONTRACT[entry]
    func(**kwargs)


@pytest.mark.parametrize("entry, name", [
    (entry, name) for entry, (func, _) in sorted(CONTRACT.items())
    for name in numeric_parameters(func)
])
def test_non_finite_numbers_rejected(entry, name):
    func, kwargs = CONTRACT[entry]
    named = re.escape(NAMED_AS.get((entry, name), name))
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=rf"^{named}\b"):
            func(**{**kwargs, name: value})


@pytest.mark.parametrize("fields, named", [
    ({"e0_ra": 5e-324}, "a_a*p/e0_ra"),                            # overflows to inf
    ({"a_a": 1e-300, "p": 1e-300}, "a_a*p/e0_ra"),                 # underflows to 0
    ({"e0_ra": 1e307, "e0_da": 1.7e308}, "a_a*p/(e0_ra+e0_da)"),  # the sum overflows
])
def test_energy_depletion_rate_names_its_inputs(fields, named):
    # each field is valid alone, but the depletion rate it feeds is not: the
    # error names the fields the user set, not the derived rate nu0
    with pytest.raises(ConfigError, match=rf"^{re.escape(named)} must be a finite number"):
        EnergyConfig(**fields)
