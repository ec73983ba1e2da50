import tracemalloc

import pytest


def _traced_peak(fn, *args):
    """Peak bytes that fn(*args) allocates through traced allocators."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args): the peak bytes that fn(*args) allocates
    through traced allocators, the returned arrays included."""
    return _traced_peak
