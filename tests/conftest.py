"""The tests import nbrach from this checkout's src/ (pyproject's pytest
`pythonpath`); the interpreters they start do the same."""

import os
from pathlib import Path

os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))
