"""Module boundaries: no module imports another module's private names, every
public name has a caller, and launches that need no scipy load none."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nbrach"


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def test_cli_import_loads_no_scipy():
    # scipy is imported where a quadrature or log-gamma is evaluated, so a
    # launch that needs neither does not pay for it
    code = "import sys, nbrach.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# public names that only the tests call, each with its reason
TEST_ONLY_NAMES = {
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


def test_closed_form_presets_load_no_scipy(tmp_path):
    # the availability presets need no quadrature and no log-gamma, analytic
    # or simulated, so their launches skip the scipy import
    code = (
        "import sys, nbrach.cli\n"
        f"assert nbrach.cli.main(['sweep', '--preset', 'fig5', '--out', {str(tmp_path / 'a.csv')!r}]) == 0\n"
        "assert nbrach.cli.main(['sweep', '--preset', 'fig6', '--engine', 'both', '--seed', '1',"
        f" '--out', {str(tmp_path / 'b.csv')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
    assert (tmp_path / "a.csv").stat().st_size > 0 and (tmp_path / "b.csv").stat().st_size > 0
