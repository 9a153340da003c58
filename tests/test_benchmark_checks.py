"""The benchmark's own output checks, run on small inputs.

``perfbench/run.py`` rejects an invocation whose outputs fail its check, so
a library change that breaks ``perfbench/workloads.py``'s checks must fail
here first.  ``api_child.py`` and ``workloads.py`` are imported as they
are, from ``perfbench/`` on ``sys.path``, as ``run.py`` imports them.
"""

import importlib
import json
import pathlib
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from charmat.cli import main

PERFBENCH = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
MODULES = ("inputs", "workloads", "api_child")


@pytest.fixture(scope="module")
def bench():
    assert not any(name in sys.modules for name in MODULES)
    sys.path.insert(0, PERFBENCH)
    try:
        yield SimpleNamespace(**{name: importlib.import_module(name) for name in MODULES})
    finally:
        sys.path.remove(PERFBENCH)
        for name in MODULES:
            sys.modules.pop(name, None)


def _run(argv, out) -> dict:
    # run.py also requires a passing report and exit 0
    assert main([*map(str, argv), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["pass"] is True
    return report


@pytest.mark.parametrize("n", [2, 30])
def test_api_chain_passes_the_benchmark_check(bench, n):
    T = bench.inputs.gaussian_operator(np.random.default_rng(n), n)
    # through JSON, as the child writes api_result.json
    result = json.loads(json.dumps(bench.api_child.run_chain(T)))
    assert bench.workloads._check_api(None, result) == []


@pytest.mark.parametrize("n", [2, 30])
def test_charmat_oracle_passes_the_benchmark_check(bench, tmp_path, capsys, n):
    path = tmp_path / "T.json"
    T = bench.inputs.gaussian_operator(np.random.default_rng(n), n)
    bench.inputs.write_matrix(str(path), T)
    out = tmp_path / "out"
    report = _run(["charmat", path, "--oracle"], out)
    capsys.readouterr()
    assert bench.workloads._check_charmat(n)(str(out), report) == []


@pytest.mark.parametrize("generated", [False, True], ids=["random", "dirichlet-laplacian"])
def test_verify_passes_the_benchmark_check(bench, tmp_path, capsys, generated):
    path = tmp_path / "family.json"
    rng = np.random.default_rng(3)
    if generated:
        bench.inputs.write_family(str(path), np.linspace(0.0, 1.0, 3),
                                  generator={"kind": "dirichlet-laplacian", "n": 8})
    else:
        fibers = np.stack([bench.inputs.gaussian_operator(rng, 4) for _ in range(5)])
        bench.inputs.write_family(str(path), np.linspace(0.0, 1.0, 5), fibers=fibers)
    out = tmp_path / "out"
    report = _run(["verify", path], out)
    capsys.readouterr()
    assert bench.workloads._check_verify(str(out), report) == []
