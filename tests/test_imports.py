"""Module boundaries: no module imports another module's private names, every
public name has a caller, every public numeric input is in the contract
test's table, every function the benchmark traces is bound where it looks,
every result field its tracer reads is there, and launches that need no
scipy or no numpy load none."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import math
import subprocess
import sys
from pathlib import Path

import pytest

from test_contract import CONTRACT, numeric_parameters

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nbrach"
BENCH = PACKAGE.parent.parent / "perfbench"


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def modules_loaded_after(*sweeps) -> list[list[str]]:
    """The scipy and numpy modules one fresh interpreter holds after `import
    nbrach.cli` and then after each sweep (a list of `nbrach sweep`
    arguments), run in turn from empty joint-success and kernel memos, as
    conftest.py starts each test."""
    code = "\n".join([
        "import sys, nbrach.cli",
        "from nbrach import rach",
        "def held(): return sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy'))",
        "loaded = [held()]",
        f"for args in {list(sweeps)!r}:",
        "    rach._joint_symbol_success.cache_clear()",
        "    rach._pgfl_kernel.cache_clear()",
        "    assert nbrach.cli.main(['sweep', *args]) == 0, args",
        "    loaded.append(held())",
        "print(loaded)"])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out.strip())


def of_package(modules, package: str) -> list[str]:
    return [m for m in modules if m.split(".")[0] == package]


# (preset, engine, mode) of each launch that loads no numpy: the closed-form
# presets and every FULL rach preset, analytic
NO_NUMPY_LAUNCHES = [(f"fig{k}", "analytic", "full") for k in range(5, 14)]

# (preset, engine, mode) of each rach launch that loads no scipy; a FULL
# case's id leaves out its mode, as it did before INTRA cases were added
NO_SCIPY_LAUNCHES = [*((f"fig{k}", "analytic", "full") for k in range(7, 14)),
                     ("fig10", "both", "full"),
                     *((f"fig{k}", "analytic", "intra") for k in range(7, 14))]


@pytest.fixture(scope="module")
def launch_modules(tmp_path_factory):
    """{launch: (scipy modules its sweep added, numpy modules held after it,
    its CSV)} for every launch of NO_NUMPY_LAUNCHES, then fig6 with both
    engines and the rest of NO_SCIPY_LAUNCHES, all run in one interpreter in
    that order, and the modules `import nbrach.cli` loaded under None.  A
    module once loaded stays loaded, so each launch is charged only with the
    scipy it added, and a failure names the launch that loaded scipy; the
    numpy held after a launch is what it or any launch before it loaded."""
    tmp = tmp_path_factory.mktemp("launch_modules")
    for mode in ("full", "intra"):
        (tmp / f"{mode}.cfg").write_text(f"replications = 50\nmode = {mode}\n", encoding="utf-8")
    launches = [*NO_NUMPY_LAUNCHES, ("fig6", "both", "full"),
                *(launch for launch in NO_SCIPY_LAUNCHES if launch not in NO_NUMPY_LAUNCHES)]
    out = {launch: tmp / f"{i}.csv" for i, launch in enumerate(launches)}
    loaded = modules_loaded_after(*(
        ["--preset", launch[0], "--engine", launch[1], "--seed", "1",
         "--config", str(tmp / f"{launch[2]}.cfg"), "--out", str(out[launch])]
        for launch in launches))
    return {None: (of_package(loaded[0], "scipy"), of_package(loaded[0], "numpy"), None),
            **{launch: (sorted(set(of_package(after, "scipy")) - set(before)),
                        of_package(after, "numpy"), out[launch])
               for launch, before, after in zip(launches, loaded, loaded[1:])}}


def test_cli_import_loads_no_scipy(launch_modules):
    # scipy.special is imported where a special function is evaluated, so a
    # launch that needs none does not pay for it
    assert launch_modules[None][0] == []


def test_analytic_launches_load_no_numpy(launch_modules):
    # the FULL and closed-form analytics are scalar stdlib arithmetic, and
    # numpy is imported where arrays are built: by the INTRA kernel, the
    # simulator and the battery DES, which the later launches run
    for launch in [None, *NO_NUMPY_LAUNCHES]:
        assert launch_modules[launch][1] == [], launch
    assert "numpy" in launch_modules[("fig6", "both", "full")][1]


# public names that only the tests call, each with its reason
TEST_ONLY_NAMES = {
    "cell_load_truncation": "the acceptance and truncation-rule tests read n* alone; "
                            "rach_success_detail takes n* with its masses in one pass",
    "generator_matrix": "the reference test_energy multiplies against neg_B_inverse",
    "parse_csv": "the tests' reader for what emit_csv writes",
}


def test_public_names_have_callers():
    # every exported name is referenced outside __init__.py, in the package,
    # the demos or the benchmark, unless allowlisted above
    import nbrach

    root = PACKAGE.parent.parent
    files = [p for d in (PACKAGE, root / "demos", root / "perfbench")
             for p in sorted(d.rglob("*.py")) if p.name != "__init__.py"]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    uncalled = sorted(set(nbrach.__all__) - used - set(TEST_ONLY_NAMES))
    assert uncalled == []
    assert set(TEST_ONLY_NAMES) <= set(nbrach.__all__)


# public dataclasses with numeric fields that the package returns and never
# takes as input, so their fields have no contract to check
RESULT_RECORDS = {"AvailabilityResult", "ChainEstimate", "RachSuccessDetail",
                  "RachEstimate", "SimulationSummary"}


def _public_callables(module):
    """(qualified name, callable) of each public function and input
    dataclass the module defines, and of each public method of its classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or (dataclasses.is_dataclass(obj)
                                       and name not in RESULT_RECORDS):
            yield name, obj
        if inspect.isclass(obj):
            yield from ((f"{name}.{attr}", getattr(obj, attr))
                        for attr, member in vars(obj).items()
                        if not attr.startswith("_") and (
                            inspect.isfunction(member)
                            or isinstance(member, (classmethod, staticmethod))))


def test_public_numeric_inputs_have_contract_entries():
    # a new public int or float input fails here until test_contract checks
    # that it rejects NaN and the infinities
    import nbrach

    modules = {p.stem: importlib.import_module(f"nbrach.{p.stem}")
               for p in sorted(PACKAGE.glob("[!_]*.py"))}
    found = {f"{stem}.{qualname}" for stem, module in modules.items()
             for qualname, func in _public_callables(module) if numeric_parameters(func)}
    assert found == set(CONTRACT)
    assert RESULT_RECORDS <= set(nbrach.__all__)


# functions the benchmark's tracer still lists that the program no longer
# has, each with its reason
RETIRED_TRACED = {
    ("nbrach.rach", "pgfl_exponent"): "folded into the private rach._exponent; "
                                      "its per-layer metrics read 0",
}


def _literal(path: Path, name: str):
    # a module-level constant of the benchmark, read without importing it
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


def test_benchmark_traced_functions_resolve():
    # the tracer wraps each function by module attribute, so a refactor that
    # renames or unbinds one zeroes its per-layer metrics without an error
    traced = _literal(BENCH / "tracer.py", "TRACED")
    missing = {(home, attr) for home, attr, _span in traced
               if not hasattr(importlib.import_module(home), attr)}
    assert missing == set(RETIRED_TRACED)
    home = {attr: module for module, attr, _span in traced}
    for binding in sorted(_literal(BENCH / "tests" / "trace_check.py", "REQUIRED_BINDINGS")):
        module, attr = binding.rsplit(".", 1)
        original = getattr(importlib.import_module(home[attr]), attr)
        assert getattr(importlib.import_module(module), attr) is original, binding


def test_benchmark_tracer_reads_what_the_program_returns():
    # the tracer reads result fields (redraws, terms, transitions, cycles,
    # runtimes) and settings fields (region, tail_tol) by name, so a field
    # renamed or removed fails here rather than only in a traced benchmark run
    from nbrach.config import build_config
    from nbrach.energy import EnergyConfig, simulate_energy_chain
    from nbrach.rach import ChannelConfig, active_density, rach_success_detail
    from nbrach.simulation import SimSettings, interference_horizon, simulate_summary
    from nbrach.sweep import Engine, run_custom

    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)  # loaded only: install() is never called
    tracer = tracer_module.Tracer()
    channel = ChannelConfig(lambda_b=1.0, lambda_d=1000.0)
    sweep = build_config({"sweep_key": "n_t", "sweep_values": "1, 2", "target": "rach"})
    calls = [
        ("simulation", simulate_summary, (channel, 1), {"settings": SimSettings(replications=20)}),
        ("rach.rach_success_detail", rach_success_detail, (1, channel), {}),
        ("energy.des", simulate_energy_chain, (EnergyConfig(),), {"num_transitions": 1000}),
        ("sweep.run", run_custom, (sweep, Engine.ANALYTIC), {}),
    ]
    results = {}
    for name, func, args, kwargs in calls:
        results[name] = result = func(*args, **kwargs)
        tracer._note(func, name, args, kwargs, result)
    agg = tracer.aggregate()

    chain = results["energy.des"]
    assert agg["counters"] == {
        "simulation.trials": 20, "simulation.redraws": 0,
        "rach.cell_load.terms": results["rach.rach_success_detail"].terms,
        "energy.des.transitions": chain.transitions, "energy.des.cycles": chain.cycles}
    assert agg["row_runtimes"] == list(results["sweep.run"].runtimes)
    assert len(agg["row_runtimes"]) == 2
    assert agg["interferers_expected"] == pytest.approx(
        [active_density(channel) * math.pi * interference_horizon(channel, 1, 5e-4) ** 2])
    metrics = tracer_module.layer_metrics([agg], 1, 0, 1.0, 1.0, 0.0)
    assert (metrics["simulation.redraws"], metrics["simulation.accept_ratio"]) == (0, 1.0)


def test_closed_form_presets_load_no_scipy(launch_modules):
    # the availability presets need no quadrature and no log-gamma, analytic
    # or simulated, so their launches skip the scipy import
    for launch in (("fig5", "analytic", "full"), ("fig6", "analytic", "full"),
                   ("fig6", "both", "full")):
        added, _numpy, out = launch_modules[launch]
        assert added == [], launch
        assert out.stat().st_size > 0


def test_rach_presets_load_no_scipy_integrate(tmp_path):
    # QUADPACK is transcribed and alpha = 4 takes the arcsine law, so only an
    # INTRA launch at another alpha loads scipy, and then scipy.special alone,
    # for its incomplete-beta kernel
    general = tmp_path / "alpha3.cfg"
    general.write_text("mode = intra\nalpha = 3\n", encoding="utf-8")
    analytic = modules_loaded_after(["--preset", "fig10", "--config", str(general),
                                     "--out", str(tmp_path / "alpha3.csv")])[-1]
    assert "scipy.special" in analytic
    assert [m for m in analytic if m.startswith(
        ("scipy.integrate", "scipy.optimize", "scipy.sparse"))] == []


@pytest.mark.parametrize("launch", [
    pytest.param(launch, id="-".join(launch[:2] if launch[2] == "full" else launch))
    for launch in NO_SCIPY_LAUNCHES])
def test_full_rach_launches_load_no_scipy(launch_modules, launch):
    # the cell-load law takes math.lgamma, the FULL kernel is a transcribed
    # quadrature and the INTRA kernel at the presets' alpha = 4 the arcsine
    # law, so neither an analytic launch nor a simulated one, which sizes its
    # interferer window with the FULL kernel, needs scipy
    added, _numpy, out = launch_modules[launch]
    assert added == []
    assert out.stat().st_size > 0
