"""The CLI, demo and acceptance tests start Python subprocesses: these import
the package from this checkout's ``src`` too, as pytest's ``pythonpath`` lets
the tests themselves do."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
