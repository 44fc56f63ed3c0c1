"""The tests import nbrach from this checkout's src/ (pyproject's pytest
`pythonpath`); the interpreters they start do the same."""

import os
from pathlib import Path

import pytest

os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def cold_analytic_memo():
    """Each test starts from empty joint-success and kernel memos, so a
    value memoised under another test's monkeypatch never leaks into it."""
    from nbrach import rach

    rach._joint_symbol_success.cache_clear()
    rach._pgfl_kernel.cache_clear()
