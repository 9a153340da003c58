"""Acceptance gate: one test per shipped guarantee, tolerances pinned inline.

Run ``pytest -v tests/test_acceptance.py`` to get exactly one pass/fail
line per guarantee.  Each test states its full contract in the docstring;
the tolerances are deliberate constants, not knobs.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from charmat.boundary import (
    GridDiscretization,
    boundary_mismatch,
    deficiency_vector,
    derivative_operator,
    laplacian,
    rank_one_extension,
    separation_witness,
)
from charmat.calculus import (
    fourier_resolvent_check,
    spectral_transform_check,
    stone_formula_check,
    unitary_group,
)
from charmat.family import (
    OperatorFamily,
    ParameterGrid,
    char_matrix_fiberwise,
    decomposition_suite,
    lennon_product,
    lennon_sum,
    resolvent_limit_check,
    resolvent_reconstruct,
)
from charmat.graph import (
    adjoint_char_matrix,
    char_matrix,
    char_matrix_oracle,
    inverse_char_matrix,
    verify_identities,
)
from charmat.hilbert import adjoint
from charmat.io import load_matrix, save_matrix


def random_operator(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    A = random_operator(rng, n)
    return (A + A.conj().T) / 2.0


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "charmat", *map(str, argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ),
    )


def test_a01_oracle_equivalence_random_census():
    """200 random operators, sizes 1..16: the solver route and the
    orthonormalization oracle agree blockwise to 1e-10, in under 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 17))
        T = random_operator(rng, n)
        worst = max(worst, char_matrix(T).blockwise_distance(char_matrix_oracle(T)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst blockwise gap {worst:.3e}"
    assert elapsed <= 10.0, f"census took {elapsed:.1f} s"


def test_a02_identity_suite_operator_corpus():
    """The full identity suite (block symmetry, idempotency, kernel
    triviality, both factorizations) passes at 1e-10 on a corpus of
    structured and random operators, including ill-scaled and defective
    ones and the three discretized boundary realizations."""
    rng = np.random.default_rng(7)
    n = 12
    dft = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    shift = np.diag(np.ones(n - 1), k=1)  # nilpotent
    gi = GridDiscretization(40, "dirichlet")
    gp = GridDiscretization(40, "periodic")
    corpus = [
        np.zeros((3, 3)),
        np.eye(4),
        # the kernel-triviality rule certifies norms up to ~1/sqrt(tol)
        np.diag([1e4, 1e-4]),
        dft,
        shift,
        random_hermitian(rng, 9),
        random_operator(rng, 1),
        random_operator(rng, 12),
        derivative_operator(gi),
        derivative_operator(GridDiscretization(40, "free")),
        derivative_operator(gp),
        laplacian(gi),
    ]
    for idx, T in enumerate(corpus):
        report = verify_identities(T, char_matrix(T))
        for label, value in report.residuals.items():
            assert value <= min(report.bounds[label], 1e-10), (idx, label, report.residuals)


def test_a03_adjoint_block_transform():
    """Exchanging/reflecting the four blocks yields the adjoint's
    characteristic matrix, within 1e-10 on 100 random operators."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        T = random_operator(rng, n)
        gap = adjoint_char_matrix(char_matrix(T)).blockwise_distance(
            char_matrix(adjoint(T))
        )
        assert gap <= 1e-10, gap


def test_a04_inverse_block_transform_and_kernel_gate():
    """Swapping the diagonal blocks yields the inverse's characteristic
    matrix within 1e-9 on 100 random invertible operators, and the
    transform refuses operators with a kernel."""
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        # shift the spectrum outside the Gaussian disk to force invertibility
        T = random_operator(rng, n) + (1.0 + 2.0 * np.sqrt(2.0 * n)) * np.eye(n)
        gap = inverse_char_matrix(char_matrix(T)).blockwise_distance(
            char_matrix(np.linalg.inv(T))
        )
        assert gap <= 1e-9, gap
    singular = random_operator(rng, 5)
    singular[:, 0] = 0.0
    with pytest.raises(ValueError, match="kernel"):
        inverse_char_matrix(char_matrix(singular))


def test_a05_fiberwise_characteristic_consistency():
    """50 random families (up to 5 nodes, fiber size up to 6): the
    characteristic matrix of the block-diagonal assembly equals the
    assembly of the fiber characteristic matrices to 1e-10, and every
    item of the decomposition suite passes at 1e-9."""
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 7))
        grid = ParameterGrid(np.sort(rng.uniform(0.0, 1.0, m) + np.arange(m)))
        fam = OperatorFamily(grid, rng.standard_normal((m, n, n))
                             + 1j * rng.standard_normal((m, n, n)))
        _, residuals = char_matrix_fiberwise(fam)
        assert max(residuals.values()) <= 1e-10, residuals
        suite = decomposition_suite(fam)
        for name, item in suite.items():
            assert item["residual"] <= min(item["bound"], 1e-9), (name, suite)


def test_a06_sum_product_block_laws():
    """Fiberwise sums and products assemble to the sum and product of the
    assemblies, within 1e-12."""
    rng = np.random.default_rng(19)
    for _ in range(25):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        grid = ParameterGrid(np.arange(m, dtype=float))
        a = OperatorFamily(grid, rng.standard_normal((m, n, n))
                           + 1j * rng.standard_normal((m, n, n)))
        b = OperatorFamily(grid, rng.standard_normal((m, n, n))
                           + 1j * rng.standard_normal((m, n, n)))
        sum_gap = np.linalg.norm(lennon_sum(a, b).assemble()
                                 - (a.assemble() + b.assemble()), "fro")
        prod_gap = np.linalg.norm(lennon_product(a, b).assemble()
                                  - a.assemble() @ b.assemble(), "fro")
        assert sum_gap <= 1e-12, sum_gap
        assert prod_gap <= 1e-12, prod_gap


def test_a07_resolvent_reconstruction():
    """100 families (half Hermitian-fibered, half not) are rebuilt from
    their resolvent fibers to a relative error of 1e-9."""
    rng = np.random.default_rng(23)
    for trial in range(100):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        grid = ParameterGrid(np.arange(m, dtype=float))
        fibers = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        if trial % 2 == 0:
            fibers = (fibers + np.conj(np.transpose(fibers, (0, 2, 1)))) / 2.0
        fam = OperatorFamily(grid, fibers)
        alpha = 2j * np.ones(m)
        res = OperatorFamily(grid, np.stack([
            np.linalg.inv(F - a * np.eye(n)) for F, a in zip(fam.fibers, alpha)
        ]))
        back = resolvent_reconstruct(res, alpha)
        rel = (np.linalg.norm(back.fibers - fam.fibers)
               / max(1.0, np.linalg.norm(fam.fibers)))
        assert rel <= 1e-9, rel


def test_a08_boundary_spectra_fine_grid():
    """At 2000 nodes: the five lowest Dirichlet eigenvalues sit within 1%
    of (k pi)^2 (the lowest within 0.5%), the periodic kernel is
    one-dimensional with |eigenvalue| <= 1e-8, the next periodic pair sits
    within 1% of 4 pi^2 -- all inside a 60 s budget."""
    start = time.perf_counter()
    n = 2000
    wd = np.linalg.eigvalsh(laplacian(GridDiscretization(n, "dirichlet")))
    wp = np.linalg.eigvalsh(laplacian(GridDiscretization(n, "periodic")))
    k = np.arange(1, 6)
    rel = np.abs(wd[:5] - (k * np.pi) ** 2) / (k * np.pi) ** 2
    assert np.all(rel <= 1e-2), rel
    assert rel[0] <= 5e-3, rel[0]
    assert abs(wp[0]) <= 1e-8, wp[0]
    assert wp[1] > 1.0, "periodic kernel must be one-dimensional"
    pair_rel = np.abs(wp[1:3] - 4.0 * np.pi**2) / (4.0 * np.pi**2)
    assert np.all(pair_rel <= 1e-2), pair_rel
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"spectra took {elapsed:.1f} s"


def test_a09_separation_witness():
    """The witness element is 1 up to 1e-8 for the periodic operator,
    lands in [0.070, 0.081] for the Dirichlet operator, leaves a gap above
    0.8, and moves under grid doubling by at most 0.5%."""
    valD, valP = separation_witness(2000)
    assert abs(valP - 1.0) <= 1e-8, valP
    assert 0.070 <= valD <= 0.081, valD
    assert valP - valD > 0.8
    valD_half, _ = separation_witness(1000)
    assert abs(valD_half - valD) <= 5e-3 * abs(valD), (valD_half, valD)


def test_a10_defect_state_quadrature():
    """The defect state's raw squared norm matches (1 - e^-2)/2 within one
    grid spacing, and its first-order-equation residual halves when the
    grid resolution doubles."""
    g = GridDiscretization(200, "free")
    raw = np.exp(-g.nodes)
    assert abs(g.h * np.sum(raw**2) - (1.0 - np.exp(-2.0)) / 2.0) <= g.h

    def residual(n):
        gg = GridDiscretization(n, "free")
        A = derivative_operator(gg)
        e = deficiency_vector(gg)
        return np.linalg.norm(A @ e - 1j * e)

    ratio = residual(100) / residual(200)
    assert 1.8 <= ratio <= 2.2, ratio


def test_a11_rank_one_extension_and_mismatch():
    """At 2000 nodes, the rank-one bump of the periodic derivative by the
    defect state satisfies the exact adjoint relation T2* = T1* K to a
    relative 1e-12, and the defect state's boundary mismatch hits
    (1 - 1/e) / sqrt((1 - e^-2)/2) within 1e-3."""
    n = 2000
    gp = GridDiscretization(n, "periodic")
    gi = GridDiscretization(n, "dirichlet")
    T1 = derivative_operator(gp)
    e = deficiency_vector(gi)
    K, T2 = rank_one_extension(T1, e, weight=gi.h)
    rhs = adjoint(T1) @ K
    rel = np.linalg.norm(adjoint(T2) - rhs) / np.linalg.norm(rhs)
    assert rel <= 1e-12, rel
    target = (1.0 - np.exp(-1.0)) / np.sqrt((1.0 - np.exp(-2.0)) / 2.0)
    assert abs(boundary_mismatch(e, gi) - target) <= 1e-3


def test_a12_functional_calculus_quadratures():
    """The spectral sum reproduces the unitary group to 1e-10; the
    half-line group transform reproduces the resolvent element to 1e-4
    (smax=20, 40000 steps); the resolvent-jump integral reproduces the
    spectral projection element to 1e-3 (epsilon=1e-4)."""
    rng = np.random.default_rng(29)
    T = random_hermitian(rng, 5)
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for s in (0.5, 2.0):
        assert spectral_transform_check(T, s, f, g) <= 1e-10

    T4 = random_hermitian(rng, 4)
    f4 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g4 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert fourier_resolvent_check(T4, 0.3 + 1.0j, f4, g4, smax=20.0, steps=40_000) <= 1e-4

    # fixed, well-separated spectrum behind a seeded change of basis
    U = unitary_group(random_hermitian(rng, 4), 1.0)
    Ts = U @ np.diag([0.0, 1.0, 2.5, 4.0]) @ U.conj().T
    Ts = (Ts + Ts.conj().T) / 2.0
    assert stone_formula_check(Ts, 1.7, f4, g4, epsilon=1e-4, delta=1e-2) <= 1e-3


def test_a13_resolvent_limit_rate():
    """Scaling perturbations (1 + 1/n) T produce resolvent gaps that track
    C/n within a factor of 2 across n = 10..1000 (C calibrated at
    n = 1000), and an extended sequence passes the convergence test."""
    rng = np.random.default_rng(31)
    grid = ParameterGrid(np.array([0.0, 1.0]))
    fibers = np.stack([random_hermitian(rng, 3), random_hermitian(rng, 3)])
    fam = OperatorFamily(grid, fibers)
    ns = [10, 20, 50, 100, 200, 500, 1000]
    seq = [OperatorFamily(grid, (1.0 + 1.0 / n) * fibers) for n in ns]
    out = resolvent_limit_check(seq, fam, z=1j, tol=1.0)
    gaps = out["gaps"]
    for k in range(fam.m):
        C = gaps[-1, k] * ns[-1]
        for j, n in enumerate(ns):
            assert C / (2.0 * n) <= gaps[j, k] <= 2.0 * C / n, (n, k, gaps[j, k], C / n)
    tail = seq + [OperatorFamily(grid, (1.0 + 1e-8) * fibers)]
    assert resolvent_limit_check(tail, fam, z=1j, tol=1e-6)["all_converged"]


def test_a14_cli_contract(tmp_path):
    """The command-line tool honors its exit codes (0 pass, 1 residual
    failure, 2 parse error, 3 invariant violation, 4 numerical failure),
    emits blocks that round-trip bit for bit, and is deterministic under
    --seed."""
    mat = tmp_path / "T.json"
    save_matrix(mat, np.array([[2.0, 1.0 + 1.0j], [1.0 - 1.0j, 3.0]]))

    out = tmp_path / "ok"
    proc = run_cli("charmat", mat, "--oracle", "--out", out)
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["pass"] is True
    P = char_matrix(load_matrix(mat))
    for name in ("p11", "p12", "p21", "p22"):
        assert load_matrix(out / f"{name}.json").tobytes() == getattr(P, name).tobytes()

    assert run_cli("charmat", mat, "--tol", "0", "--out", tmp_path / "f").returncode == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert run_cli("charmat", bad, "--out", tmp_path / "p").returncode == 2

    skew = tmp_path / "skew.json"
    save_matrix(skew, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert run_cli(
        "selfadjoint", skew, "resolvent", "--z", "1j", "--out", tmp_path / "i"
    ).returncode == 3

    diag = tmp_path / "diag.json"
    save_matrix(diag, np.diag([1.0, 3.0]))
    assert run_cli(
        "selfadjoint", diag, "resolvent", "--z", "3+0j", "--out", tmp_path / "n"
    ).returncode == 4

    blobs = []
    for d in ("s1", "s2"):
        proc = run_cli("selfadjoint", mat, "fourier", "--z", "1j", "--seed", "42",
                       "--smax", "12", "--steps", "8000", "--out", tmp_path / d)
        assert proc.returncode == 0, proc.stderr
        b = json.loads(proc.stdout)
        b.pop("wall_time_ms")
        blobs.append(b)
    assert blobs[0] == blobs[1]
