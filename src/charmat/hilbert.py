"""Shared Hilbert-space kernel: the operator dtype rule, adjoints, the package's predicates
and :class:`Checks`, the one record of residuals and bounds that every check returns.

:func:`_as_operator` is the one dtype rule for operators, and the Hermitian
test :func:`is_hermitian` and kernel rule :func:`_kernel_trivial` exist here
only; each predicate judges a matrix or an ``(m, n, n)`` stack alike.  Inner
products are linear in the *second* argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Checks", "adjoint"]

#: Relative Frobenius tolerance up to which a matrix counts as Hermitian.
HERMITIAN_TOL = 1e-12

#: Scale factor for kernel-triviality thresholds: a smallest singular value
#: sigma_min(M) counts as nonzero when it exceeds ``KERNEL_TOL * (1 + ||M||_2)``.
KERNEL_TOL = 1e-10


@dataclass
class Checks:
    """Residual (nonnegative) and bound per label; a label holds when residual <= bound.

    ``notes`` hold text that no verdict reads, such as a skipped check.
    ``verdicts`` names the yes/no labels, whose bound no caller's tolerance
    replaces, since no tolerance turns a disagreement into a pass.
    """

    residuals: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    verdicts: set = field(default_factory=set)

    def add(self, label: str, residual: float, bound: float, verdict: bool = False) -> None:
        self.residuals[label] = float(residual)
        self.bounds[label] = float(bound)
        if verdict:
            self.verdicts.add(label)

    def extend(self, other: "Checks") -> None:
        """Take over ``other``'s labels, notes and verdicts."""
        self.residuals.update(other.residuals)
        self.bounds.update(other.bounds)
        self.notes.update(other.notes)
        self.verdicts.update(other.verdicts)

    @property
    def all_pass(self) -> bool:
        return all(v <= self.bounds[k] for k, v in self.residuals.items())


def _as_vector(f) -> np.ndarray:
    f = np.asarray(f)
    if f.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("vector contains non-finite entries")
    return f


def _as_operator(A) -> np.ndarray:
    """``A`` as a finite square matrix, ``complex128`` if complex and ``float64`` otherwise."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A.astype(np.complex128 if np.iscomplexobj(A) else np.float64, copy=False)


def _inner_product(f, g) -> complex:
    """``sum(conj(f) * g)`` of two finite vectors of equal length."""
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
    """Whether ``||A - A*||_F <= tol * max(1, ||A||_F)``: a ``bool``, or one per stacked matrix."""
    A = np.asarray(A)
    dev = np.conjugate(np.swapaxes(A, -1, -2), order="C")  # A*, fresh, in step with a C-order A
    dev -= A
    # a single matrix takes norm's ravel-and-dot route, which copies nothing
    axes = None if A.ndim == 2 else (-2, -1)
    ok = np.linalg.norm(dev, axis=axes) <= tol * np.maximum(1.0, np.linalg.norm(A, axis=axes))
    return ok if ok.ndim else bool(ok)


def require_hermitian(A) -> np.ndarray:
    """``(A + A*)/2`` in :func:`_as_operator`'s dtype, dropping the skew part.

    Raises ``ValueError`` unless ``A`` passes :func:`is_hermitian` with ``HERMITIAN_TOL``.
    """
    A = _as_operator(A)
    if not is_hermitian(A):
        dev = np.linalg.norm(A - adjoint(A), "fro") / max(np.linalg.norm(A, "fro"), 1.0)
        raise ValueError(
            f"matrix is not Hermitian: relative deviation {dev:.3e} exceeds {HERMITIAN_TOL:.1e}"
        )
    return (A + adjoint(A)) / 2.0


def _kernel_trivial(s: np.ndarray):
    """``(ok, sigma_min, threshold)`` of singular values ``s`` (last axis); see ``KERNEL_TOL``."""
    sigma = s.min(axis=-1)
    threshold = KERNEL_TOL * (1.0 + s.max(axis=-1))
    return sigma > threshold, sigma, threshold


def _eig_hermitian(A) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of :func:`require_hermitian`'s ``A``: ascending ``w``, unitary ``V``."""
    return np.linalg.eigh(require_hermitian(A))


def _spectral(V: np.ndarray, d: np.ndarray, Vh: np.ndarray) -> np.ndarray:
    """``V diag(d) Vh`` for a matrix or a stack; callers pass the ``Vh`` they hold."""
    return (V * d[..., None, :]) @ Vh
