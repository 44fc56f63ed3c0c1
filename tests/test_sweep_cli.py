"""Tests for the sweep engine and the command-line front end."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from nbrach.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, main
from nbrach.config import build_config
from nbrach.errors import ConfigError
from nbrach.sweep import (
    Engine,
    PRESETS,
    SweepTable,
    emit_csv,
    parse_csv,
    run_custom,
    run_preset,
)

ROOT = Path(__file__).resolve().parent.parent
DESK_RAW = {"lambda_b": "1", "lambda_d": "1000"}


def desk_config(**extra):
    raw = dict(DESK_RAW)
    raw.update({k: str(v) for k, v in extra.items()})
    return build_config(raw)


# ------------------------------------------------------------------- spec


def test_spec_validation():
    cfg = desk_config(sweep_key="n_t", sweep_values="1, 2", target="rach")
    with pytest.raises(ConfigError, match="not a configuration key"):
        run_custom(replace(cfg, sweep_key="bogus"), Engine.ANALYTIC)
    with pytest.raises(ConfigError, match="non-empty"):
        run_custom(replace(cfg, sweep_values=()), Engine.ANALYTIC)
    with pytest.raises(ConfigError, match="monotone"):
        run_custom(replace(cfg, sweep_values=(1.0, 3.0, 2.0)), Engine.ANALYTIC)
    # decreasing is fine
    run_custom(replace(cfg, sweep_values=(8.0, 4.0, 2.0)), Engine.ANALYTIC)


def test_table_row_width_check():
    with pytest.raises(ConfigError, match="width"):
        SweepTable(columns=("a", "b"), rows=((1.0,),))


# ---------------------------------------------------------------- sweeps


def custom(key, values, target):
    return desk_config(sweep_key=key, sweep_values=", ".join(map(str, values)), target=target)


def test_custom_sweep_frozen_values():
    t = run_custom(custom("n_t", (1, 2, 4, 8), "rach"), Engine.ANALYTIC)
    assert t.columns == ("n_t", "rach")
    vals = [row[1] for row in t.rows]
    assert vals[0] == pytest.approx(0.817811166157, rel=1e-9)
    assert vals[3] == pytest.approx(0.922044146131, rel=1e-9)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert len(t.runtimes) == 4


def test_sweep_rebuilds_point_configs():
    # each row re-derives the full configuration from the swept value
    t = run_custom(custom("mu0", (0.01, 0.05), "availability"), Engine.ANALYTIC)
    assert t.columns == ("mu0", "availability_lower", "availability_upper")
    assert t.rows[0][1] < t.rows[1][1]
    assert t.rows[1][1] == pytest.approx(0.30, abs=1e-6)


def test_error_row_marker_and_partial_flush(tmp_path):
    out = tmp_path / "partial.csv"
    with pytest.raises(ConfigError) as info:
        run_custom(custom("alpha", (4.0, 3.0, 1.5), "rach"), Engine.ANALYTIC)
    emit_csv(info.value.partial_table, str(out))
    table = parse_csv(str(out))
    assert table.columns == ("alpha", "rach")
    assert len(table.rows) == 3
    assert isinstance(table.rows[0][1], float)
    assert table.rows[2] == (1.5, "error")


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    table = SweepTable(columns=("x", "y", "note"),
                       rows=((1.0, 0.123456789012345, "error"),
                             (2.0, 3.0, 4.0)))
    emit_csv(table, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "x,y,note"
    assert "0.123456789012" in text
    back = parse_csv(str(path))
    assert back.columns == table.columns
    assert back.rows[0][2] == "error"
    assert back.rows[1] == (2.0, 3.0, 4.0)
    # emit(parse(emit(x))) is a fixed point
    path2 = tmp_path / "t2.csv"
    emit_csv(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_run_custom_requires_sweep_fields():
    with pytest.raises(ConfigError, match="sweep"):
        run_custom(desk_config(), Engine.ANALYTIC)


def test_run_custom_from_config():
    cfg = desk_config(sweep_key="n_t", sweep_values="1, 2", target="rach")
    t = run_custom(cfg, Engine.ANALYTIC)
    assert t.columns == ("n_t", "rach")
    assert len(t.rows) == 2


# ---------------------------------------------------------------- presets


def test_preset_registry_complete():
    assert sorted(PRESETS) == [f"fig{i}" for i in range(10, 14)] + \
        [f"fig{i}" for i in range(5, 10)]


def test_unknown_preset():
    with pytest.raises(ConfigError, match="custom"):
        run_preset("fig99", desk_config(), Engine.ANALYTIC)


def test_preset_fig13_efficiency():
    t = run_preset("fig13", build_config({}), Engine.ANALYTIC)
    assert t.columns == ("n_t", "zeta_r1e3_g20", "zeta_r1e4_g20", "zeta_r1e3_g10")
    assert t.rows[0][0] == 1.0
    assert t.rows[0][1] == pytest.approx(0.817811166154, rel=1e-9)
    # efficiency at one repetition is the success probability itself and
    # eventually decays as repetitions multiply the airtime cost
    assert t.rows[-1][1] < t.rows[0][1]
    # denser contention lowers efficiency everywhere
    for row in t.rows:
        assert row[2] < row[1]


def test_preset_fig5_availability_plateaus():
    t = run_preset("fig5", build_config({}), Engine.ANALYTIC)
    assert t.columns[0] == "n_t"
    assert "eta0_lower_h160" in t.columns and "eta0_upper_h160" in t.columns
    row0 = dict(zip(t.columns, t.rows[0]))
    assert row0["eta0_lower_h160"] == pytest.approx(0.30, abs=1e-6)
    assert row0["eta0_upper_h160"] == pytest.approx(0.92, abs=1e-4)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_matches_reference_csv(name, tmp_path):
    # the analytic preset tables at the reference operating point, byte for byte
    out = tmp_path / f"{name}.csv"
    emit_csv(run_preset(name, build_config({}), Engine.ANALYTIC), str(out))
    assert out.read_bytes() == (ROOT / "perfbench" / "reference" / f"{name}.csv").read_bytes()


def test_preset_simulation_default_replications():
    # presets drop to the light replication count unless the config names
    # one explicitly
    from nbrach.sweep import _preset_sim
    assert _preset_sim(build_config({})).replications == 1000
    assert _preset_sim(build_config({"replications": "77"})).replications == 77


# ------------------------------------------------------------------- CLI


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_sweep_to_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lambda_b = 1\nlambda_d = 1000\n"
                    "sweep_key = n_t\nsweep_values = 1, 2\ntarget = rach\n")
    out = str(tmp_path / "out.csv")
    code = main(["sweep", "--config", cfg, "--preset", "custom", "--out", out])
    assert code == EXIT_OK
    table = parse_csv(out)
    assert table.columns == ("n_t", "rach")
    assert capsys.readouterr().out == ""


def test_cli_sweep_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lambda_b = 1\nlambda_d = 1000\n"
                    "sweep_key = n_t\nsweep_values = 1, 2\ntarget = rach\n")
    code = main(["sweep", "--config", cfg, "--preset", "custom"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n_t,rach"
    assert len(lines) == 3


def test_cli_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, "lambda_b = 1\nlambda_d = 1000\nreplications = 60\n"
                    "sweep_key = n_t\nsweep_values = 1\ntarget = rach\n")
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    c = str(tmp_path / "c.csv")
    assert main(["sweep", "--config", cfg, "--preset", "custom",
                 "--engine", "sim", "--seed", "1", "--out", a]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--preset", "custom",
                 "--engine", "sim", "--seed", "1", "--out", b]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--preset", "custom",
                 "--engine", "sim", "--seed", "2", "--out", c]) == EXIT_OK
    a_bytes = open(a, "rb").read()
    assert a_bytes == open(b, "rb").read()
    assert a_bytes != open(c, "rb").read()


def test_cli_negative_seed_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sweep_key = n_t\nsweep_values = 1\ntarget = rach\n")
    code = main(["sweep", "--config", cfg, "--preset", "custom", "--seed", "-1"])
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_cli_validate(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "gamma_th = 20 dB\nlambda_b = 1\n")
    assert main(["validate", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma_th = 100" in out
    assert main(["validate", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_cli_availability(capsys):
    assert main(["availability"]) == EXIT_OK
    out = capsys.readouterr().out
    fields = dict(line.split("=") for line in out.splitlines())
    assert float(fields["eta0_lower"]) == pytest.approx(0.30, abs=1e-6)
    assert float(fields["eta0_upper"]) == pytest.approx(0.92, abs=1e-4)
    assert float(fields["nu0_lower_bound"]) > float(fields["nu0_upper_bound"])


def test_cli_config_error_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "alpha = 1.5\n")
    assert main(["validate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "alpha" in err


def test_cli_non_finite_sweep_value_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sweep_key = n_t\nsweep_values = 1, inf\ntarget = rach\n")
    assert main(["sweep", "--config", cfg, "--preset", "custom"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


def test_cli_numeric_error_exit(tmp_path, capsys):
    # near-boundary path-loss exponent with a starved quadrature budget
    cfg = write_cfg(tmp_path, "alpha = 2.005\nmax_subdivisions = 10\n"
                    "rel_tol = 1e-12\nabs_tol = 1e-14\n"
                    "sweep_key = n_t\nsweep_values = 1\ntarget = rach\n")
    out = str(tmp_path / "part.csv")
    code = main(["sweep", "--config", cfg, "--preset", "custom", "--out", out])
    assert code == EXIT_NUMERIC
    assert "numeric error" in capsys.readouterr().err
    table = parse_csv(out)
    assert table.rows[0] == (1.0, "error")
    # without --out the same partial table goes to stdout
    code = main(["sweep", "--config", cfg, "--preset", "custom"])
    assert code == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "numeric error" in captured.err
    assert captured.out == open(out, encoding="utf-8").read()


def test_cli_io_error_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sweep_key = n_t\nsweep_values = 1\ntarget = rach\n")
    code = main(["sweep", "--config", cfg, "--preset", "custom",
                 "--out", "/nonexistent-dir/x.csv"])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


def test_cli_empty_out_is_config_error(tmp_path, capsys, monkeypatch):
    # rejected before any row is evaluated
    rows = []
    monkeypatch.setattr("nbrach.sweep._analytic", lambda *args: rows.append(args) or (0.0,))
    code = main(["sweep", "--preset", "fig6", "--out", ""])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "output path" in captured.err
    assert captured.out == ""
    assert rows == []


def test_cli_entry_point_subprocess(tmp_path):
    cfg = write_cfg(tmp_path, "sweep_key = n_t\nsweep_values = 1, 2\ntarget = rach\n")
    proc = subprocess.run(
        [sys.executable, "-m", "nbrach.cli", "sweep", "--config", cfg,
         "--preset", "custom"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n_t,rach")


def test_sweep_demo_runs():
    # each demo drives the public API end to end; simulation_crosscheck_demo.py
    # is left out for its runtime (several seconds), and test_simulation.py
    # covers the estimator it drives
    for demo, marker in [("availability_demo.py", "event-driven cross-check"),
                         ("rach_curves_demo.py", "inclusion-exclusion"),
                         ("sweep_demo.py", "identical: True")]:
        proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"{demo}: {proc.stderr}"
        assert marker in proc.stdout, demo
