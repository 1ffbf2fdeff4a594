"""Every `hypothesis` property draws the same examples on every run, and
every test starts with empty sum-distribution memos, so a test verdict
never depends on the run or on the tests before it.

The checkout's ``src/`` goes at the end of ``sys.path``: a bare
``python -m pytest`` tests this checkout, and an explicit ``PYTHONPATH``
(another checkout, an installed copy) still wins."""

import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from tailbound import bernstein_moments, binomial_core, mixture_bounds  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def empty_sum_memos():
    for memo in (
        binomial_core.binomial_dist,
        bernstein_moments._lattice_sum,
        mixture_bounds._xi_sum,
    ):
        memo.cache_clear()
