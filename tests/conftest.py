import tracemalloc

import pytest

from horocount.field import make_field


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
