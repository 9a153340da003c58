"""The traced benchmark run wraps charmat names where their callers look
them up; each must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _resolve(module_name, dotted):
    owner = importlib.import_module(module_name)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_spanned_name_resolves():
    spanned = _load_tracer().SPANNED
    assert spanned
    missing = []
    for module_name, attr, _, _ in spanned:
        try:
            _resolve(module_name, attr)
        except AttributeError:
            missing.append(f"{module_name}.{attr}")
    assert not missing, missing


def test_cli_numpy_eigvalsh_resolves():
    assert callable(_resolve("charmat.cli", "np.linalg.eigvalsh"))


def test_tracer_installs_and_restores_every_wrapper():
    cli = importlib.import_module("charmat.cli")
    before = (cli.np, cli.laplacian, np.linalg.svd)
    with _load_tracer().Tracer().installed():
        assert cli.np is not before[0]
    assert (cli.np, cli.laplacian, np.linalg.svd) == before
