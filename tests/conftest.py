"""Test-wide Hypothesis profile: every run draws the same examples and keeps
no example database, so the property and fuzz tests are repeatable.

Hypothesis also caches the literals it mines from source files; that cache
goes to the system temp directory, so a test run writes no `.hypothesis/`
into the checkout.
"""

import os
import tempfile

from hypothesis import settings

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "oodfdd-hypothesis"))
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
