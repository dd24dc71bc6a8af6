"""Let the CLI subprocesses that tests start import the package from src/.

pyproject.toml's pythonpath setting covers the test process itself; child
processes see only the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
