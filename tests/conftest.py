"""Let the Python subprocesses that tests start import the package from
``src/`` too, as pytest's own ``pythonpath`` setting covers only this process."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
