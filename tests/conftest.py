import os
import subprocess
import sys
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


_RSS_CHILD = """
def _status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))
"""


@pytest.fixture
def rss_growth_bytes():
    """VmHWM growth over ``call``, in bytes, in a fresh interpreter on one BLAS thread.

    ``setup`` runs first; it should page in the code and buffers the call
    uses, with a small call.  ``call`` is measured from the RSS after
    ``setup``, so the reading includes LAPACK's buffers, which
    ``tracemalloc`` does not see.  ``argv`` reaches the child's ``sys.argv[1:]``.
    """
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads VmHWM from /proc")

    def measure(setup: str, call: str, *argv: str) -> float:
        code = "\n".join([_RSS_CHILD, setup, '_rss = _status("VmRSS")', call,
                          'print(_status("VmHWM") - _rss)'])
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, check=True)
        return float(proc.stdout)

    return measure
