"""Hypothesis runs derandomized, so a tier-1 run draws the same examples every time."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
