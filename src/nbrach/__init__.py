"""Battery availability and random-access success for repetition-coded
narrowband uplinks under RF energy harvesting.

The package has two analytic halves plus a Monte Carlo twin:

- energy: birth-death model of a device battery that harvests energy
  quanta and spends them on preamble repetitions and data, giving the
  stationary availability bracket.
- rach: stochastic-geometry model of contention on a shared preamble
  pool, giving per-attempt SINR success, collision-adjusted access
  probability, and repetition efficiency.
- simulation: spatial Monte Carlo of the same contention process used
  to validate the analytic routes.
- sweep / cli: parameter sweeps over either route with deterministic
  CSV output.
"""

from .errors import ConfigError, NumericError, QuadratureError
from .quadrature import QuadratureSettings, improper_integral
from .energy import (
    AvailabilityResult,
    ChainEstimate,
    EnergyConfig,
    availability_bounds,
    depletion_rate,
    energy_availability,
    generator_matrix,
    hitting_times_solve,
    mean_off_time,
    mean_on_time,
    neg_B_inverse,
    simulate_energy_chain,
)
from .rach import (
    ChannelConfig,
    InterferenceMode,
    RachSuccessDetail,
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
)
from .simulation import (
    RachEstimate,
    SimSettings,
    SimulationSummary,
    interference_horizon,
    simulate_summary,
)
from .config import AppConfig, build_config, describe, load_config, parse_config_text
from .sweep import (
    Engine,
    PRESETS,
    SweepTable,
    SweepTarget,
    emit_csv,
    parse_csv,
    run_custom,
    run_preset,
)

__version__ = "0.1.0"

__all__ = [
    "AppConfig",
    "AvailabilityResult",
    "ChainEstimate",
    "ChannelConfig",
    "ConfigError",
    "EnergyConfig",
    "Engine",
    "InterferenceMode",
    "NumericError",
    "PRESETS",
    "QuadratureError",
    "QuadratureSettings",
    "RachEstimate",
    "RachSuccessDetail",
    "SimSettings",
    "SimulationSummary",
    "SweepTable",
    "SweepTarget",
    "active_density",
    "availability_bounds",
    "build_config",
    "cell_load_pmf",
    "cell_load_truncation",
    "depletion_rate",
    "describe",
    "emit_csv",
    "energy_availability",
    "generator_matrix",
    "hitting_times_solve",
    "improper_integral",
    "interference_horizon",
    "joint_symbol_success",
    "load_config",
    "mean_off_time",
    "mean_on_time",
    "neg_B_inverse",
    "parse_config_text",
    "parse_csv",
    "pgfl_kernel",
    "preamble_success_prob",
    "rach_success_detail",
    "rach_success_prob",
    "repetition_efficiency",
    "run_custom",
    "run_preset",
    "select_epsilon",
    "simulate_energy_chain",
    "simulate_summary",
]
