"""Hypothesis draws the same examples on every run, so the suite is reproducible."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("reproducible")
