"""Core Hilbert-space helpers on dense complex vectors and matrices.

All routines work on finite ``numpy`` arrays with ``complex128`` (or real)
dtype; :func:`_as_operator` is the one rule that casts an operator to it.
The inner product is linear in the *second* argument and conjugate
linear in the first, so ``inner_product(f, g) == np.vdot(f, g)``.  Unless a
docstring says otherwise, matrix tolerances are relative to the Frobenius
norm of the input.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "inner_product",
    "norm",
    "adjoint",
    "eig_hermitian",
    "matfunc_hermitian",
    "polarization",
]

#: Relative Frobenius tolerance up to which a matrix counts as Hermitian.
HERMITIAN_TOL = 1e-12


def _as_vector(f) -> np.ndarray:
    f = np.asarray(f)
    if f.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("vector contains non-finite entries")
    return f


def _as_square_matrix(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def _as_operator(A) -> np.ndarray:
    """``A`` as a finite square matrix in the package's one operator dtype.

    Complex input becomes ``complex128``; real, integer or bool input
    becomes ``float64``.  A real operator thus stays real, and LAPACK's
    real (``d*``) routines do its factorizations.
    """
    A = _as_square_matrix(A)
    return A.astype(np.complex128 if np.iscomplexobj(A) else np.float64, copy=False)


def inner_product(f, g) -> complex:
    """Complex inner product, conjugate linear in ``f`` and linear in ``g``.

    Parameters
    ----------
    f, g : array_like
        Vectors of equal length.

    Returns
    -------
    complex
        ``sum(conj(f) * g)``.
    """
    f = _as_vector(f)
    g = _as_vector(g)
    if f.shape != g.shape:
        raise ValueError(f"dimension mismatch: {f.shape} vs {g.shape}")
    return complex(np.vdot(f, g))


def norm(f) -> float:
    """Euclidean norm induced by :func:`inner_product`."""
    return float(np.linalg.norm(_as_vector(f)))


def adjoint(A) -> np.ndarray:
    """Conjugate transpose of a matrix."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    return A.conj().T


def is_hermitian(A, tol: float = HERMITIAN_TOL) -> bool:
    """Whether ``||A - A*||_F <= tol * max(1, ||A||_F)``.

    The one Hermitian test of the package: :func:`require_hermitian`, the
    family suite's classifications and the resolvent limit check all use it.
    """
    A = np.asarray(A)
    dev = np.linalg.norm(A - A.conj().T, "fro")
    return bool(dev <= tol * max(1.0, np.linalg.norm(A, "fro")))


def require_hermitian(A, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return the symmetrized matrix ``(A + A*)/2`` or raise.

    The input must pass :func:`is_hermitian` with ``tol``; the tiny skew
    part is silently discarded.
    """
    A = _as_square_matrix(A)
    if not is_hermitian(A, tol):
        dev = np.linalg.norm(A - A.conj().T, "fro") / max(np.linalg.norm(A, "fro"), 1.0)
        raise ValueError(
            f"matrix is not Hermitian: relative deviation {dev:.3e} exceeds {tol:.1e}"
        )
    return (A + A.conj().T) / 2.0


def kernel_trivial(*mats: np.ndarray, tol: float) -> tuple[bool, float, float]:
    """Whether every matrix in ``mats`` has a trivial kernel to working precision.

    One ``svd(M, compute_uv=False)`` per matrix yields both its smallest
    singular value ``s[-1]`` and its 2-norm ``s[0]``.  The kernels count as
    trivial when the smallest singular value over all ``mats`` exceeds
    ``tol * (1 + largest 2-norm)``.

    Returns
    -------
    (ok, sigma_min, threshold) : tuple
        The verdict, the smallest singular value and the threshold it was
        compared against.
    """
    svals = [np.linalg.svd(M, compute_uv=False) for M in mats]
    sigma = min(float(s[-1]) for s in svals)
    threshold = tol * (1.0 + max(float(s[0]) for s in svals))
    return sigma > threshold, sigma, threshold


def eig_hermitian(A, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    A : array_like
        Square matrix, Hermitian within relative tolerance ``tol``.  The
        matrix is symmetrized before factorization.
    tol : float, optional
        Hermitian tolerance (relative Frobenius).

    Returns
    -------
    (eigenvalues, eigenvectors)
        ``np.linalg.eigh``'s result: real ascending eigenvalues and
        orthonormal eigenvector columns, with
        ``A == eigenvectors @ diag(eigenvalues) @ eigenvectors*``.

    Raises
    ------
    ValueError
        If ``A`` is not Hermitian within ``tol``.
    numpy.linalg.LinAlgError
        If the eigensolver fails to converge.
    """
    return np.linalg.eigh(require_hermitian(A, tol))


def matfunc_hermitian(A, F: Callable, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Parameters
    ----------
    A : array_like
        Hermitian matrix.
    F : callable
        Scalar function; applied to the (real) eigenvalue array.  May be
        vectorized or act on scalars.

    Returns
    -------
    numpy.ndarray
        ``V @ diag(F(w)) @ V*`` for the eigendecomposition ``(w, V)``.
    """
    w, V = eig_hermitian(A, tol)
    fw = _apply_scalar_function(F, w)
    return (V * fw) @ V.conj().T


def _apply_scalar_function(F: Callable, w: np.ndarray) -> np.ndarray:
    """Evaluate ``F`` on an eigenvalue array, vectorized or element by element."""
    try:
        fw = np.asarray(F(w))
        if fw.shape == w.shape:
            return fw
    except (TypeError, ValueError):
        pass
    return np.array([F(x) for x in w])


def polarization(q: Callable[[np.ndarray], complex], k1, k2) -> complex:
    """Recover the sesquilinear form ``(k1, A k2)`` from its quadratic form.

    Parameters
    ----------
    q : callable
        Quadratic form ``q(k) = (k, A k)`` of a linear operator ``A``.
    k1, k2 : array_like
        Vectors of equal length.

    Returns
    -------
    complex
        ``(q(k1+k2) - q(k1-k2) + 1j*q(k1-1j*k2) - 1j*q(k1+1j*k2)) / 4``,
        which equals ``(k1, A k2)`` for the inner-product convention used
        throughout (linear in the second argument).
    """
    k1 = _as_vector(k1).astype(complex)
    k2 = _as_vector(k2).astype(complex)
    if k1.shape != k2.shape:
        raise ValueError(f"dimension mismatch: {k1.shape} vs {k2.shape}")
    return (
        q(k1 + k2)
        - q(k1 - k2)
        + 1j * q(k1 - 1j * k2)
        - 1j * q(k1 + 1j * k2)
    ) / 4.0
