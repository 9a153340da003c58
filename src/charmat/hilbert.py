"""Core Hilbert-space helpers on dense complex vectors and matrices.

All routines work on finite ``numpy`` arrays with ``complex128`` (or real)
dtype; :func:`_as_operator` is the one rule that casts an operator to it.
The inner product is linear in the *second* argument and conjugate
linear in the first, so ``_inner_product(f, g) == np.vdot(f, g)``.  Unless a
docstring says otherwise, matrix tolerances are relative to the Frobenius
norm of the input.

The package's Hermitian test :func:`is_hermitian` and kernel rule
:func:`_kernel_trivial` (scaled by ``KERNEL_TOL``) live here only, and each
judges a matrix or an ``(m, n, n)`` stack alike.
"""

from __future__ import annotations

import numpy as np

__all__ = ["adjoint"]

#: Relative Frobenius tolerance up to which a matrix counts as Hermitian.
HERMITIAN_TOL = 1e-12

#: Scale factor for kernel-triviality thresholds: a smallest singular value
#: sigma_min(M) counts as nonzero when it exceeds ``KERNEL_TOL * (1 + ||M||_2)``.
KERNEL_TOL = 1e-10


def _as_vector(f) -> np.ndarray:
    f = np.asarray(f)
    if f.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("vector contains non-finite entries")
    return f


def _as_operator(A) -> np.ndarray:
    """``A`` as a finite square matrix in the package's one operator dtype.

    Complex input becomes ``complex128``; real, integer or bool input
    becomes ``float64``.  A real operator thus stays real, and LAPACK's
    real (``d*``) routines do its factorizations.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A.astype(np.complex128 if np.iscomplexobj(A) else np.float64, copy=False)


def _inner_product(f, g) -> complex:
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


def adjoint(A) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of an ``(..., n, n)`` stack."""
    A = np.asarray(A)
    if A.ndim < 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    return np.swapaxes(A.conj(), -1, -2)


def is_hermitian(A, tol: float = HERMITIAN_TOL):
    """Whether ``||A - A*||_F <= tol * max(1, ||A||_F)``, per matrix of a stack.

    The one Hermitian test of the package: :func:`require_hermitian`, the
    family suite's classifications and the resolvent limit check all use it.
    A matrix gives a ``bool``; an ``(m, n, n)`` stack one verdict per matrix.
    """
    A = np.asarray(A)
    dev = np.conjugate(np.swapaxes(A, -1, -2), order="C")  # A*, fresh, in step with a C-order A
    dev -= A
    # a single matrix takes norm's ravel-and-dot route, which copies nothing
    axes = None if A.ndim == 2 else (-2, -1)
    ok = np.linalg.norm(dev, axis=axes) <= tol * np.maximum(1.0, np.linalg.norm(A, axis=axes))
    return ok if ok.ndim else bool(ok)


def require_hermitian(A) -> np.ndarray:
    """Return the symmetrized matrix ``(A + A*)/2`` or raise.

    The input must pass :func:`is_hermitian` with ``HERMITIAN_TOL``; the
    tiny skew part is silently discarded.  The result has the dtype of
    :func:`_as_operator`.
    """
    A = _as_operator(A)
    if not is_hermitian(A):
        dev = np.linalg.norm(A - A.conj().T, "fro") / max(np.linalg.norm(A, "fro"), 1.0)
        raise ValueError(
            f"matrix is not Hermitian: relative deviation {dev:.3e} exceeds {HERMITIAN_TOL:.1e}"
        )
    return (A + A.conj().T) / 2.0


def _kernel_trivial(s: np.ndarray):
    """Whether the singular values ``s`` (last axis) leave a trivial kernel.

    The kernel counts as trivial when ``sigma_min > KERNEL_TOL * (1 +
    sigma_max)``, both read off ``s``.  A Hermitian matrix passes the moduli
    of its eigenvalues; concatenating several matrices' values judges them
    together, against one threshold.  Returns ``(ok, sigma_min, threshold)``,
    each a scalar for 1-d ``s`` and one per row of a stack.
    """
    sigma = s.min(axis=-1)
    threshold = KERNEL_TOL * (1.0 + s.max(axis=-1))
    return sigma > threshold, sigma, threshold


def _eig_hermitian(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    A : array_like
        Square matrix, Hermitian within the relative Frobenius tolerance
        ``HERMITIAN_TOL``.  The matrix is symmetrized before factorization.

    Returns
    -------
    (eigenvalues, eigenvectors)
        ``np.linalg.eigh``'s result: real ascending eigenvalues and
        orthonormal eigenvector columns, with
        ``A == eigenvectors @ diag(eigenvalues) @ eigenvectors*``.

    Raises
    ------
    ValueError
        If ``A`` is not Hermitian within ``HERMITIAN_TOL``.
    numpy.linalg.LinAlgError
        If the eigensolver fails to converge.
    """
    return np.linalg.eigh(require_hermitian(A))


def _spectral(V: np.ndarray, d: np.ndarray, Vh: np.ndarray) -> np.ndarray:
    """``V diag(d) Vh`` for a matrix or a stack; callers pass the ``Vh`` they hold."""
    return (V * d[..., None, :]) @ Vh
