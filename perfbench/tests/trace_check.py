"""Checks of the benchmark itself; kept out of the tier-1 suite by name.

    python3 -m pytest -q perfbench/tests/trace_check.py     # ~1 min

Run from the repository root.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"

# every module attribute the traced run must rebind: sweep, config and
# cli import these functions by name
REQUIRED_BINDINGS = {
    "nbrach.quadrature.improper_integral", "nbrach.rach.improper_integral",
    "nbrach.rach.pgfl_kernel", "nbrach.simulation.pgfl_kernel",
    "nbrach.energy.availability_bounds", "nbrach.config.availability_bounds",
    "nbrach.sweep.availability_bounds", "nbrach.cli.availability_bounds",
    "nbrach.rach.rach_success_prob", "nbrach.sweep.rach_success_prob",
    "nbrach.simulation.simulate_summary", "nbrach.sweep.simulate_summary",
}

SMALL_SWEEP = """\
sweep_key = lambda_d
sweep_values = 100, 1000
target = rach
replications = 200
"""


def _launch(tmp_path: Path, name: str, trace: bool, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    meta = tmp_path / f"{name}.json"
    cmd = [sys.executable, str(BENCH / "launch.py"), str(meta)]
    proc = subprocess.run(cmd + (["--trace"] if trace else []) + list(args),
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(meta.read_text())


def test_traced_csv_is_byte_identical(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SWEEP)
    outputs = {}
    for trace in (False, True):
        out = tmp_path / f"trace{int(trace)}.csv"
        meta = _launch(tmp_path, out.stem, trace, "cli", "sweep", "--preset", "custom",
                       "--config", str(cfg), "--engine", "both", "--seed", "3",
                       "--out", str(out))
        outputs[trace] = out.read_bytes()
    assert outputs[True] == outputs[False]
    assert REQUIRED_BINDINGS <= set(meta["trace"]["bindings"])
    spans = meta["trace"]["spans"]
    assert spans["simulation"]["calls"] == 2
    assert spans["rach.rach_success_detail"]["calls"] == 2


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_metric_emitted_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = _run("analytic-sweeps", trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {m["name"]: m["unit"] for m in declared} == {
            name: m["unit"] for name, m in result["metrics"].items()}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    (tmp_path / "perfbench").symlink_to(BENCH)
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte-carlo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
