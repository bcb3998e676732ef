"""Hypothesis runs the same examples on every run and keeps no example database,
so a test's outcome depends only on the code."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
