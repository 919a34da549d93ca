import faulthandler
import os
import tracemalloc

import pytest

from horocount.field import make_field

# Seconds one test's setup, call or teardown may take before the run ends,
# with the stack of every thread on stderr, so that a test or fixture stuck in
# a loop fails the suite instead of hanging it.  The slowest call took 2.5 s
# on one pinned CPU of a 2-vCPU VM, and every setup and teardown less
# (--durations): 60 leaves a margin of 24x for a slow host.
TEST_TIMEOUT_S = 60

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the real stderr: capturing takes fd 2 around each call, and
    # what it holds is lost when the timeout ends the process
    config.stash[_STDERR] = os.dup(2)


def _guarded(item):
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=item.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _guarded(item)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _guarded(item)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield from _guarded(item)


@pytest.fixture(scope="session")
def Q():
    return make_field("rational")


@pytest.fixture(scope="session")
def K1():
    return make_field(1)


@pytest.fixture(scope="session")
def K3():
    return make_field(3)


@pytest.fixture(scope="session")
def K5():
    return make_field(5)


@pytest.fixture(scope="session")
def small_fields():
    """The Euclidean class-number-1 fields used by the cross-method checks."""
    return [make_field(d) for d in (1, 2, 3, 7, 11)]


@pytest.fixture(scope="session")
def zeta_fields():
    return [make_field(d) for d in (1, 2, 3, 5, 7, 11)]


def _traced_peak_mb(fn) -> float:
    """The peak of Python and numpy allocations, in MB, while fn() runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak_mb():
    return _traced_peak_mb
