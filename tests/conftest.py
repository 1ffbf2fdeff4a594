"""Every `hypothesis` property draws the same examples on every run, so a
test verdict never depends on the run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
