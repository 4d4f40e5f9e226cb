"""One hypothesis profile for every test: derandomized, with no example
database, so each run on each Python draws the same examples.

A test that runs past TEST_TIME_CAP seconds dumps every thread's traceback to
the terminal and ends the run with exit status 1 (faulthandler, stdlib), so a
change that never terminates fails instead of hanging; the slowest test takes
a few seconds."""

import faulthandler
import os
import sys

import pytest
from hypothesis import settings

TEST_TIME_CAP = 120
_STDERR = pytest.StashKey[int]()

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def pytest_configure(config):
    # a copy of the terminal's stderr, taken before output capture redirects fd 2
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _time_cap(pytestconfig):
    faulthandler.dump_traceback_later(TEST_TIME_CAP, exit=True, file=pytestconfig.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
