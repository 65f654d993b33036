"""Test-wide settings."""

from hypothesis import settings

# Property tests draw the same examples on every run and machine, so a
# tier-1 run repeats exactly; no example database is written.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
