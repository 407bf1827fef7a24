"""Test settings shared by the test modules."""

from hypothesis import settings

# Derandomized, with no example database and no per-example deadline, so
# that the property tests draw the same examples on every run and a slow
# host cannot fail them on timing.
settings.register_profile("echosep", derandomize=True, database=None, deadline=None)
settings.load_profile("echosep")
