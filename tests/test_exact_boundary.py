"""Exact characteristic matrices of the boundary operators, at large n.

Every operator that ``charmat.boundary`` builds has a closed-form
orthonormal eigenbasis ``V`` with eigenvalues ``lam``:

- the Dirichlet Laplacian: the sine modes ``sqrt(2/(n+1)) sin(jk pi/(n+1))``,
  ``lam_k = (2 sin(k pi/(2(n+1))) / h)^2``;
- the periodic Laplacian and the periodic derivative, both circulant: the
  DFT modes ``exp(2 pi i jk/n) / sqrt(n)``, ``lam_k = (2 sin(pi k/n) / h)^2``
  and ``sin(2 pi k/n) / h``;
- the Dirichlet central-difference derivative: ``i^j`` times the sine
  modes, ``lam_k = cos(k pi/(n+1)) / h`` (the eigenpairs of a tridiagonal
  Toeplitz matrix).

With ``c = 1/hypot(1, lam)``, ``[V c; V lam c]`` is an orthonormal basis of
the graph of ``T``, so ``graph._basis_blocks`` gives the exact blocks.  The
entries of ``V`` are sines and exponentials of exact multiples of
``pi/(n+1)`` or ``2 pi/n`` (the products ``jk`` are reduced to one period in
integers first), so the reference is accurate to a few ``eps sqrt(n)`` and
no LAPACK factorization enters it.

A backward-stable route solves exactly for some ``T + E`` with ``||E|| ~
eps ||T||``, so each route is tested against ``ROUTE_C * eps * ||T||_2 *
sqrt(n)``, the largest Frobenius distance of a block.  ``ROUTE_C = 1`` is
fitted on the QR route (``char_matrix_oracle``): its largest ratio over
these cases is 0.15, at the periodic derivative with n = 64.  The Gram
route (``char_matrix``) misses the bound on the Laplacians that the
``GRAM_MISSES`` table lists, by the distances measured there; they are
strict ``xfail`` until ``char_matrix`` is backward stable.
"""

import functools
import json

import numpy as np
import pytest

from charmat.boundary import GridDiscretization, derivative_operator, laplacian
from charmat.cli import main
from charmat.graph import (
    CharacteristicMatrix,
    _basis_blocks,
    char_matrix,
    char_matrix_oracle,
    verify_identities,
)
from charmat.hilbert import adjoint
from charmat.io import GENERATOR_KINDS, save_matrix

EPS = np.finfo(float).eps

#: Constant of the routes' bound ``ROUTE_C * eps * ||T||_2 * sqrt(n)``, fitted on the QR route.
ROUTE_C = 1.0

#: Constant of the exact blocks' identity residuals, against ``eps * max(1, ||T||_2) * sqrt(n)``:
#: A13 reads up to 1.8 of it, A12 up to 0.23.
FLOOR_C = 4.0

SIZES = (64, 256, 512)

#: (kind, n, dtype) -> the Gram route's distance to the exact blocks, and its ratio to the
#: bound, measured with 2 BLAS threads (and with 1 where that differs).
GRAM_MISSES = {
    ("dirichlet-laplacian", 512, "real"): "6.4e-8, 12x the bound",
    ("dirichlet-laplacian", 512, "complex"): "6.1e-8, 12x the bound",
    ("periodic-laplacian", 64, "real"): "6.4e-10, 22x the bound",
    ("periodic-laplacian", 64, "complex"): "6.5e-11, 2.2x the bound",
    ("periodic-laplacian", 256, "real"): "2.0e-7, 210x the bound (3.2e-8 on 1 thread)",
    ("periodic-laplacian", 256, "complex"): "4.4e-9, 4.7x the bound (1.4e-8 on 1 thread)",
    ("periodic-laplacian", 512, "real"): "1.1e-6, 214x the bound (1.7e-7 on 1 thread)",
    ("periodic-laplacian", 512, "complex"): "2.3e-8, 4.4x the bound (1.0e-6 on 1 thread)",
}


def boundary_operator(kind: str, n: int) -> np.ndarray:
    """The matrix that ``charmat.boundary`` builds for a generator ``kind`` of ``GENERATOR_KINDS``."""
    bc, op = kind.split("-")
    g = GridDiscretization(n, bc)
    return laplacian(g) if op == "laplacian" else derivative_operator(g)


@functools.lru_cache(maxsize=1)  # the cases of one (kind, n) run one after another
def boundary_eigenbasis(kind: str, n: int) -> tuple:
    """``(V, lam)``: the closed-form orthonormal eigenbasis of ``boundary_operator(kind, n)``."""
    bc, op = kind.split("-")
    if bc == "dirichlet":
        j = np.arange(1, n + 1)
        arg = np.outer(j, j) % (2 * (n + 1))  # sin(pi jk/(n+1)) has period 2(n+1) in jk
        V = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * arg / (n + 1))
        theta, h = np.pi * j / (n + 1), 1.0 / (n + 1)
        if op == "laplacian":
            return V, (2.0 * np.sin(theta / 2.0) / h) ** 2
        return (1j ** (j % 4))[:, None] * V, np.cos(theta) / h
    j = np.arange(n)
    V = np.exp(2j * np.pi * (np.outer(j, j) % n) / n) / np.sqrt(n)
    if op == "laplacian":
        return V, (2.0 * n * np.sin(np.pi * j / n)) ** 2
    return V, n * np.sin(2.0 * np.pi * j / n)


@functools.lru_cache(maxsize=1)
def exact_boundary_blocks(kind: str, n: int) -> CharacteristicMatrix:
    """The exact characteristic matrix of ``boundary_operator(kind, n)``, from its eigenbasis."""
    V, lam = boundary_eigenbasis(kind, n)
    c = 1.0 / np.hypot(1.0, lam)
    p11, p21, p22 = _basis_blocks(V * c, V * (lam * c))
    return CharacteristicMatrix(p11=p11, p12=adjoint(p21), p21=p21, p22=p22)


def _scale(kind: str, n: int) -> float:
    # eps * max(1, ||T||_2) * sqrt(n); T is normal, so ||T||_2 is its largest |lam|
    return EPS * max(1.0, np.abs(boundary_eigenbasis(kind, n)[1]).max()) * np.sqrt(n)


@pytest.mark.parametrize("n", SIZES[:2])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_closed_form_eigenbasis_diagonalizes_the_operator(kind, n):
    # measured: at most 1.3 eps ||T||_2 sqrt(n), and 1.1 eps sqrt(n) from orthonormal.  At
    # n = 512 the QR route lands within 0.002-0.05 of its bound from the reference instead.
    T = boundary_operator(kind, n)
    V, lam = boundary_eigenbasis(kind, n)
    assert np.linalg.norm(T @ V - V * lam) <= 4.0 * _scale(kind, n)
    assert np.linalg.norm(adjoint(V) @ V - np.eye(n)) <= 4.0 * EPS * np.sqrt(n)


def _route_cases():
    for kind in GENERATOR_KINDS:
        for n in SIZES:
            for dtype in ("real", "complex") if kind.endswith("laplacian") else ("complex",):
                for route in ("gram", "qr"):
                    miss = GRAM_MISSES.get((kind, n, dtype)) if route == "gram" else None
                    marks = [pytest.mark.xfail(strict=True, raises=AssertionError,
                                               reason=f"Gram route: {miss}")] if miss else []
                    yield pytest.param(kind, n, dtype, route, marks=marks,
                                       id=f"{kind}-{n}-{dtype}-{route}")


@pytest.mark.parametrize("kind, n, dtype, route", _route_cases())
def test_route_is_within_the_backward_error_bound(kind, n, dtype, route):
    T = boundary_operator(kind, n).astype(complex if dtype == "complex" else float)
    P = {"gram": char_matrix, "qr": char_matrix_oracle}[route](T)
    distance = P.blockwise_distance(exact_boundary_blocks(kind, n))
    assert distance <= ROUTE_C * _scale(kind, n), distance


@pytest.mark.parametrize("n", SIZES[:2])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_exact_blocks_identity_residuals_are_the_rounding_floor(kind, n):
    # the floor that a bound on A6, A7, A12 and A13 must admit: the exact blocks'
    # own residuals (A8 judges conditioning, not rounding).  n = 512 gives the same
    # ratios and would double this test's time.
    ident = verify_identities(boundary_operator(kind, n), exact_boundary_blocks(kind, n))
    for label in ("A6", "A7", "A12", "A13"):
        assert ident.residuals[label] <= FLOOR_C * _scale(kind, n), (label, ident.residuals)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the Gram route hides the kernel: exit 4 from A11 (Cholesky of the "
                          "inverse's Gram matrix at n = 128 and 512, a singular inv(T) at 256)")
@pytest.mark.parametrize("n", [128, 256, 512])
def test_cli_skips_a11_on_the_periodic_laplacian(tmp_path, capsys, n):
    mat = tmp_path / "L.json"
    save_matrix(mat, boundary_operator("periodic-laplacian", n))
    code = main(["charmat", str(mat), "--out", str(tmp_path / "o")])
    capsys.readouterr()
    assert code in (0, 1), code
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["notes"]["A11"].startswith("skipped: operator has a nontrivial kernel")
