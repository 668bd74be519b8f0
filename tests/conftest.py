"""Hypothesis runs derandomized, so a tier-1 run draws the same examples every time.

`--hypothesis-profile=thorough` draws five times as many, still derandomized.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.register_profile(
    "thorough", settings.get_profile("derandomized"),
    max_examples=5 * settings.get_profile("default").max_examples)
settings.load_profile("derandomized")
