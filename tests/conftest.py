"""Shared test settings.

Property tests run under a fixed, derandomized hypothesis profile so the
suite is deterministic and its run time stays bounded.
"""

from hypothesis import settings

settings.register_profile(
    "entstruct", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("entstruct")
