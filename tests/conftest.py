"""Every `hypothesis` property draws the same examples on every run, so a
test verdict never depends on the run.

The checkout's ``src/`` goes at the end of ``sys.path``: a bare
``python -m pytest`` tests this checkout, and an explicit ``PYTHONPATH``
(another checkout, an installed copy) still wins."""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
