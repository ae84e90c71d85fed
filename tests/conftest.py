"""Test-wide Hypothesis profile: every run draws the same examples and keeps
no example database, so the property and fuzz tests are repeatable.

Hypothesis also caches the literals it mines from source files and the
Unicode tables behind `st.text()`'s default alphabet; that cache goes to the
system temp directory, so a test run writes no `.hypothesis/` into the
checkout.  The tables are built here, once per session, because their first
build on an empty cache takes seconds and would otherwise fall inside the
first test that draws default text, failing its too_slow health check.
"""

import os
import tempfile

import pytest
from hypothesis import settings

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "oodfdd-hypothesis"))
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.hookimpl(trylast=True)
def pytest_sessionstart(session):
    # after Hypothesis's own hook, which ends its initialization phase
    try:
        from hypothesis.internal.charmap import charmap, intervals_from_codec
    except ImportError:  # a Hypothesis without these helpers builds them lazily
        return
    charmap()
    intervals_from_codec("utf-8")
