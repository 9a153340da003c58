"""Seeded benchmark inputs, written in charmat's documented file schemas.

Only the standard-library ``json`` module and numpy are used here, never
``charmat.io``: the benchmark must not trust the code it measures to write
its own inputs.  Every writer returns the number of bytes it wrote.
"""

from __future__ import annotations

import json
import os

import numpy as np


def gaussian_operator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex Gaussian ``n x n`` matrix scaled by ``1/sqrt(n)`` (norm of order 2)."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)


def separated_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian ``n x n`` matrix with a well-separated spectrum in a random basis.

    Half of the eigenvalues sit on a jittered grid in ``[-2, -0.2]``, the
    other half in ``[0.2, 2]``, so none lies within 0.19 of the Stone
    quadrature endpoint ``lam + delta = 0.01`` that the benchmark uses.
    That is the regime in which ``stone_formula_check`` is documented to
    converge (order ``epsilon`` for a well-separated spectrum), the same one
    the acceptance test builds.  The basis is a Haar-random unitary.
    """
    def jittered(lo, hi, k):
        cells = np.arange(k) + 0.5 + rng.uniform(-0.25, 0.25, k)
        return lo + cells * (hi - lo) / k

    w = np.concatenate([jittered(-2.0, -0.2, n // 2), jittered(0.2, 2.0, n - n // 2)])
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    H = (Q * w) @ Q.conj().T
    return (H + H.conj().T) / 2.0


def _matrix_obj(A: np.ndarray) -> dict:
    return {
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "data": np.ascontiguousarray(A, dtype=complex).view(float).reshape(-1, 2).tolist(),
    }


def _write_json(path: str, obj: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")  # one string: dump() writes chunk by chunk, 2x slower
    return os.path.getsize(path)


def write_matrix(path: str, A: np.ndarray) -> int:
    """Matrix file: ``{"rows", "cols", "data": [[re, im], ...]}``, row-major."""
    return _write_json(path, _matrix_obj(A))


def write_family(path: str, nodes: np.ndarray, fibers=None, generator: dict | None = None) -> int:
    """Family file with explicit ``fibers`` (an ``(m, n, n)`` array) or a named generator."""
    fibers_obj = generator if generator is not None else [_matrix_obj(F) for F in fibers]
    return _write_json(path, {"grid": [float(t) for t in nodes], "fibers": fibers_obj})


def write_npy(path: str, A: np.ndarray) -> int:
    """Raw ``.npy`` array, read by the API child without ``charmat.io``."""
    np.save(path, A)
    return os.path.getsize(path)


def read_matrix(path: str) -> np.ndarray:
    """Read a matrix file back (used by the output checks)."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    flat = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(obj["rows"], obj["cols"])
