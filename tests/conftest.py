import tracemalloc

import pytest


@pytest.fixture
def traced_peak_mb():
    """Peak traced allocation, in MB, of one call; numpy's buffers are traced."""

    def measure(fn, *args, **kwargs) -> float:
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20

    return measure
