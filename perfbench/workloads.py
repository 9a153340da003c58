"""The two benchmark workloads: seeded inputs, invocations and output checks.

Each workload writes its inputs from one seeded generator and lists the
invocations of one pass.  An invocation is either a ``charmat`` CLI call
(``kind == "cli"``, ``args`` without ``--out``) or one run of the API child
(``kind == "api"``, ``args == (T.npy,)``).  Its ``check`` reads the outputs
back and returns a list of problems; an empty list means the outputs are
present and consistent.  Why each workload exists is in its ``why`` and, at
length, in README.md next to this file.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs

#: Tolerance for ``p21 = p12*`` read back from the block files, and for the
#: API child's oracle, adjoint (A9) and recovery distances.
BLOCK_TOL = 1e-10

BLOCKS = ("p11", "p12", "p21", "p22")


@dataclass(frozen=True)
class Invocation:
    label: str
    kind: str
    args: tuple
    check: Callable[[str, dict], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator, str], tuple]


def _record(path: str, nbytes: int, n: int, m: int = 1) -> dict:
    return {"file": os.path.basename(path), "n": n, "m": m, "bytes": nbytes}


def _missing(report: dict, labels) -> list:
    return [f"report lacks {label}" for label in labels if label not in report.get("residuals", {})]


def _check_charmat(n: int):
    def check(outdir: str, report: dict) -> list:
        problems = _missing(report, ("A6", "A7", "A8", "A9", "A12", "A13", "oracle"))
        if "A11" not in report.get("residuals", {}) and "A11" not in report.get("notes", {}):
            problems.append("report lacks A11")
        blocks = {}
        for b in BLOCKS:
            try:
                blocks[b] = inputs.read_matrix(os.path.join(outdir, f"{b}.json"))
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{b}.json unreadable: {exc}")
                continue
            if blocks[b].shape != (n, n):
                problems.append(f"{b}.json is {blocks[b].shape}, expected {(n, n)}")
        if not problems:
            dev = float(np.linalg.norm(blocks["p21"] - blocks["p12"].conj().T))
            if not dev <= BLOCK_TOL:
                problems.append(f"|p21 - p12*| = {dev:.3e} > {BLOCK_TOL:g}")
        return problems
    return check


def _check_verify(outdir: str, report: dict) -> list:
    suite = ("adjoint", "modulus", "selfadjoint", "positive", "normal", "polynomial")
    problems = _missing(report, [f"fiberwise_{b}" for b in BLOCKS]
                        + [f"suite_{s}" for s in suite] + ["norm_consistency"])
    if "suite_inverse" not in report.get("residuals", {}) \
            and "suite_inverse" not in report.get("notes", {}):
        problems.append("report lacks suite_inverse")
    return problems


def _check_dirichlet(k: int):
    def check(outdir: str, report: dict) -> list:
        try:
            with open(os.path.join(outdir, "eigenvalues.csv"), encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
        except OSError as exc:
            return [f"eigenvalues.csv unreadable: {exc}"]
        if len(rows) != k:
            return [f"eigenvalues.csv has {len(rows)} rows, expected {k}"]
        for row in rows:
            try:
                values = [float(x) for x in row[1:]]
            except ValueError:
                return [f"eigenvalues.csv row {row[0]!r} is not numeric"]
            if len(values) != 6 or not all(math.isfinite(v) for v in values):
                return [f"eigenvalues.csv row {row[0]!r} is not 6 finite values"]
        return _missing(report, ("dirichlet_rel_err_max", "witness_periodic_dev", "mismatch_dev"))
    return check


def _check_label(label: str):
    return lambda outdir, report: _missing(report, (label,))


def _check_api(outdir: str, result: dict) -> list:
    problems = [] if result.get("all_pass") is True else ["verify_identities: all_pass is false"]
    for key in ("oracle", "A9", "recovery"):
        value = result.get(key)
        if not (isinstance(value, float) and value <= BLOCK_TOL):
            problems.append(f"{key} = {value!r} exceeds {BLOCK_TOL:g}")
    return problems


def _operator_cli(rng, indir):
    records, invocations = [], []
    for n in (2, 200, 400):
        path = os.path.join(indir, f"T{n}.json")
        records.append(_record(path, inputs.write_matrix(path, inputs.gaussian_operator(rng, n)), n))
        invocations.append(Invocation(f"charmat n={n}", "cli",
                                      ("charmat", path, "--oracle"), _check_charmat(n)))
    return records, invocations


def _graph_api(rng, indir):
    records, invocations = [], []
    for n in (300, 600):
        path = os.path.join(indir, f"T{n}.npy")
        records.append(_record(path, inputs.write_npy(path, inputs.gaussian_operator(rng, n)), n))
        invocations.append(Invocation(f"api chain n={n}", "api", (path,), _check_api))
    return records, invocations


def _family_verify(rng, indir):
    m, n = 64, 16
    random_path = os.path.join(indir, "family_random.json")
    fibers = np.stack([inputs.gaussian_operator(rng, n) for _ in range(m)])
    nbytes = inputs.write_family(random_path, np.linspace(0.0, 1.0, m), fibers=fibers)
    records = [_record(random_path, nbytes, n, m)]

    m, n = 16, 64
    laplacian_path = os.path.join(indir, "family_laplacian.json")
    nbytes = inputs.write_family(laplacian_path, np.linspace(0.0, 1.0, m),
                                 generator={"kind": "dirichlet-laplacian", "n": n})
    records.append(_record(laplacian_path, nbytes, n, m))
    return records, [
        Invocation("verify random m=64 n=16", "cli", ("verify", random_path), _check_verify),
        Invocation("verify dirichlet-laplacian m=16 n=64", "cli",
                   ("verify", laplacian_path), _check_verify),
    ]


def _boundary_spectral(rng, indir):
    path = os.path.join(indir, "H200.json")
    records = [_record(path, inputs.write_matrix(path, inputs.separated_hermitian(rng, 200)), 200)]
    return records, [
        Invocation("example-dirichlet n=2000 k=5", "cli",
                   ("example-dirichlet", "--n", "2000", "--k", "5"), _check_dirichlet(5)),
        Invocation("selfadjoint stone n=200", "cli",
                   ("selfadjoint", path, "stone", "--lam", "0", "--seed", "7"),
                   _check_label("stone")),
        Invocation("selfadjoint fourier n=200", "cli",
                   ("selfadjoint", path, "fourier", "--z", "2j", "--seed", "7"),
                   _check_label("fourier")),
    ]


def _kernels(rng, indir):
    """graph-api, family-verify and boundary-spectral in one pass, drawn in that order."""
    records, invocations = [], []
    for build in (_graph_api, _family_verify, _boundary_spectral):
        more_records, more_invocations = build(rng, indir)
        records += more_records
        invocations += more_invocations
    return records, invocations


WORKLOADS = {
    w.name: w
    for w in (
        Workload("operator-cli",
                 "charmat T.json --oracle at n=2,200,400: start-up and JSON block writes "
                 "dominate, so io and import gains show here",
                 _operator_cli),
        Workload("kernels",
                 "API char_matrix chain at n=300,600, verify on two mn=1024 families, "
                 "example-dirichlet n=2000, Stone and Fourier: graph, family, boundary, calculus",
                 _kernels),
    )
}
