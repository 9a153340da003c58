import os
import tracemalloc
from pathlib import Path

import pytest

# pyproject's pythonpath puts src/ on this process's path; the CLI and demo
# tests start child interpreters, which find the package through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


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

