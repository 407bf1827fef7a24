"""Test settings shared by the test modules."""

import os
from pathlib import Path

from hypothesis import settings

# Derandomized, with no example database and no per-example deadline, so
# that the property tests draw the same examples on every run and a slow
# host cannot fail them on timing.
settings.register_profile("echosep", derandomize=True, database=None, deadline=None)
settings.load_profile("echosep")

# A test that starts Python in a subprocess imports echosep from this
# checkout's src, as pytest itself does (pythonpath in pyproject.toml).
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))
