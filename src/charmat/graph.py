"""Characteristic matrices: the blocks of the projection onto an operator's graph.

Provides the closed-form blocks (:func:`char_matrix`, README's formulas), an
independent QR oracle, the identity suite, the blocks of ``T*`` and ``T^-1``
read off ``T``'s, and the recovery of ``T`` from its blocks.

Invariants: public functions work on one operator and are pure functions of
their arguments; real input gives ``float64`` blocks.  No ``2n x 2n`` matrix is
formed, and no kernel holds a temporary it can free (README, "Memory").  Only
private helpers, ``_char_blocks`` and ``_basis_blocks`` for ``family``, take an
``(m, n, n)`` stack.  A8 and the injectivity gate apply ``hilbert``'s kernel
rule to the eigenvalue moduli of Hermitian blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import lapack_lite

from .hilbert import _as_operator, _kernel_trivial, adjoint

__all__ = [
    "CharacteristicMatrix",
    "IdentityReport",
    "char_matrix",
    "char_matrix_oracle",
    "verify_identities",
    "adjoint_char_matrix",
    "inverse_char_matrix",
    "operator_from_char_matrix",
]

#: Default residual tolerance for the identity suite (absolute Frobenius;
#: every block of a projection has norm at most 1).
IDENTITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CharacteristicMatrix:
    """The four blocks of the projection onto an operator graph."""

    p11: np.ndarray
    p12: np.ndarray
    p21: np.ndarray
    p22: np.ndarray

    def __post_init__(self):
        n = _as_operator(self.p11).shape[0]
        for name in ("p12", "p21", "p22"):
            if _as_operator(getattr(self, name)).shape != (n, n):
                raise ValueError("all blocks must share one square shape")

    @property
    def n(self) -> int:
        """Dimension of the underlying space."""
        return self.p11.shape[0]

    def assemble(self) -> np.ndarray:
        """The full ``2n x 2n`` projection, for demos and tests; no library path calls it."""
        return np.block([[self.p11, self.p12], [self.p21, self.p22]])

    def blockwise_distance(self, other: "CharacteristicMatrix") -> float:
        """Largest Frobenius distance between corresponding blocks."""
        return max(
            float(np.linalg.norm(getattr(self, b) - getattr(other, b), "fro"))
            for b in ("p11", "p12", "p21", "p22")
        )


def _inverse_gram(G: np.ndarray, name: str) -> np.ndarray:
    """``(G + I)^-1`` of a Gram product ``G`` (matrix or stack), which it overwrites."""
    if not np.isfinite(G).all():
        raise np.linalg.LinAlgError(
            f"Gram matrix {name} is not finite: the operator's entries overflow in it"
        )
    np.einsum("...ii->...i", G)[...] += 1.0  # a writable view of the diagonal
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"Gram matrix {name} is not positive definite to working precision ({exc})"
        ) from exc
    return np.linalg.inv(G)


def char_matrix(T) -> CharacteristicMatrix:
    """Characteristic matrix of the square matrix ``T`` from its closed-form Gram blocks.

    Real, integer or bool ``T`` gives ``float64`` blocks, complex ``T``
    ``complex128`` ones.  Raises ``ValueError`` unless ``T`` is one finite
    square matrix (an ``(m, n, n)`` stack is rejected), and
    ``numpy.linalg.LinAlgError``, naming the Gram matrix, if ``T* T + I`` or
    ``T T* + I`` overflows (entries near the square root of the float range)
    or fails its Cholesky factorization.
    """
    return CharacteristicMatrix(*_char_blocks(_as_operator(T)))


def _identity_minus(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``I - X`` of a matrix or stack into ``out`` (which may be ``X``), with no identity formed."""
    out = np.subtract(0.0, X, out=out)  # 0.0 - X, not -X: zeros are +0.0, as in np.eye(n) - X
    np.einsum("...ii->...i", out)[...] += 1.0  # a writable view of the diagonal
    return out


def _char_blocks(T: np.ndarray) -> tuple:
    """``(p11, p12, p21, p22)`` of an operator or of each operator of an ``(m, n, n)`` stack."""
    # each Gram product is one expression, so no copy of T* lives through a factorization
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported as a non-finite G
        p11 = _inverse_gram(adjoint(T) @ T, "T*T + I")
        q = _inverse_gram(T @ adjoint(T), "TT* + I")
    return p11, adjoint(T) @ q, T @ p11, _identity_minus(q, out=q)


def _basis_blocks(Q1: np.ndarray, Q2: np.ndarray) -> tuple:
    """``(Q1 Q1*, Q2 Q1*, Q2 Q2*) = (p11, p21, p22)`` of an orthonormal graph basis or stack."""
    Q1h = adjoint(Q1)
    p11, p21 = Q1 @ Q1h, Q2 @ Q1h
    del Q1h
    return p11, p21, Q2 @ adjoint(Q2)


def _lapack(routine: str, *args) -> None:
    """Run ``lapack_lite``'s ``routine`` with its queried workspace, as numpy's QR does."""
    run = getattr(lapack_lite, routine)
    work = np.empty(1, args[-1].dtype)
    try:
        info = run(*args, work, -1, 0)["info"]  # the query writes the optimal size to work[0]
        if info == 0:
            work = np.empty(max(1, int(work[0].real)), work.dtype)
            info = run(*args, work, work.size, 0)["info"]
    except lapack_lite.LapackError as exc:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed: {exc}") from exc
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed with info = {info}")


def _graph_basis(T: np.ndarray) -> tuple:
    """Halves ``(Q1, Q2)`` of the Householder QR factor ``Q`` of ``[I; T]``, views of one buffer."""
    n = T.shape[0]
    lda = max(1, 2 * n)
    geqrf, orgqr = ("dgeqrf", "dorgqr") if T.dtype == np.float64 else ("zgeqrf", "zungqr")
    a = np.zeros((n, 2 * n), T.dtype)  # C-ordered [I, T^T] is column-major [I; T]
    np.einsum("ii->i", a[:, :n])[...] = 1.0
    a[:, n:] = T.T
    tau = np.empty(n, T.dtype)
    _lapack(geqrf, 2 * n, n, a, lda, tau)
    _lapack(orgqr, 2 * n, n, n, a, lda, tau)
    return a[:, :n].T, a[:, n:].T


def char_matrix_oracle(T) -> CharacteristicMatrix:
    """Characteristic matrix of ``T`` from a Householder QR of ``[I; T]``: no Gram matrix is formed.

    The blocks are bitwise those of ``numpy.linalg.qr``'s factor.  Raises
    ``ValueError`` as :func:`char_matrix` does, and ``numpy.linalg.LinAlgError``
    if LAPACK reports a nonzero ``info`` or ``lapack_lite`` rejects an argument.
    """
    p11, p21, p22 = _basis_blocks(*_graph_basis(_as_operator(T)))  # the QR buffer is freed here
    return CharacteristicMatrix(p11=p11, p12=adjoint(p21), p21=p21, p22=p22)


def _hermitian_kernel_trivial(*blocks: np.ndarray):
    """:func:`_kernel_trivial` of the Hermitian ``blocks`` taken together."""
    # a Hermitian matrix's eigenvalue moduli are its singular values
    return _kernel_trivial(np.abs(np.concatenate([np.linalg.eigvalsh(B) for B in blocks])))


@dataclass
class IdentityReport:
    """Residual (nonnegative) and bound per identity label; a label holds when residual <= bound.

    Bounds are ``IDENTITY_TOL``, and 0 for A8.  Residuals are absolute
    Frobenius norms:

    - A6: ``p21 == p12*`` and Hermitian diagonal blocks (the largest deviation);
    - A7: idempotency, ``||P^2 - P||_F``;
    - A8: ``max(0, threshold - sigma_min)``, where ``sigma_min`` (also an
      attribute) is the smallest singular value of ``p11`` and ``I - p22``;
    - A12: ``p21 == T p11`` and ``p22 == T p12``;
    - A13: ``I - p11 == T* p21`` and ``p12 == T* (I - p22)``.
    """

    residuals: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    sigma_min: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(v <= self.bounds[k] for k, v in self.residuals.items())


def verify_identities(T, P: CharacteristicMatrix) -> IdentityReport:
    """The :class:`IdentityReport` of the blocks ``P`` claimed for the operator ``T``.

    Raises ``ValueError`` unless ``T`` is a finite square matrix of ``P``'s
    dimension.  A8's range limit: ``sigma_min(p11) = 1/(1 + ||T||_2^2)``
    exactly, so A8 certifies only ``||T||_2`` below about
    ``1/sqrt(KERNEL_TOL)`` (1e5) and fails beyond it even for a healthy ``T``.
    """
    T = _as_operator(T)
    if T.shape[0] != P.n:
        raise ValueError(f"operator is {T.shape[0]}-dimensional but blocks are {P.n}")
    Th = adjoint(T)

    r = {}
    r["A6"] = max(
        np.linalg.norm(P.p21 - adjoint(P.p12), "fro"),
        np.linalg.norm(P.p11 - adjoint(P.p11), "fro"),
        np.linalg.norm(P.p22 - adjoint(P.p22), "fro"),
    )
    # block (i, j) of P^2 - P is P_i1 P_1j + P_i2 P_2j - P_ij
    rows = ((P.p11, P.p12), (P.p21, P.p22))
    r["A7"] = np.linalg.norm([
        np.linalg.norm(rows[i][0] @ rows[0][j] + rows[i][1] @ rows[1][j] - rows[i][j])
        for i in (0, 1) for j in (0, 1)])
    Ip22 = _identity_minus(P.p22)
    _, sigma, threshold = _hermitian_kernel_trivial(P.p11, Ip22)
    # A13 reads I - p22 too; it is freed first, and the norm of the in-place difference
    # T* (I - p22) - p12 equals that of p12 - T* (I - p22) bit for bit
    D = Th @ Ip22
    del Ip22
    a13_p12 = np.linalg.norm(np.subtract(D, P.p12, out=D), "fro")
    del D
    r["A12"] = max(
        np.linalg.norm(P.p21 - T @ P.p11, "fro"),
        np.linalg.norm(P.p22 - T @ P.p12, "fro"),
    )
    r["A13"] = max(np.linalg.norm(_identity_minus(P.p11) - Th @ P.p21, "fro"), a13_p12)
    r["A8"] = max(0.0, threshold - sigma)
    bounds = {**dict.fromkeys(r, IDENTITY_TOL), "A8": 0.0}
    return IdentityReport({k: float(v) for k, v in r.items()}, bounds, float(sigma))


class _Adjoint(CharacteristicMatrix):
    """The blocks ``(I - p22, p21, p12, I - p11)`` of ``P``'s adjoint, read off ``P``, which it holds alone."""

    def __init__(self, P: CharacteristicMatrix):
        object.__setattr__(self, "_P", P)  # P was checked when it was built

    p11 = property(lambda self: _identity_minus(self._P.p22))
    p12 = property(lambda self: self._P.p21)
    p21 = property(lambda self: self._P.p12)
    p22 = property(lambda self: _identity_minus(self._P.p11))
    n = property(lambda self: self._P.n)


def adjoint_char_matrix(P: CharacteristicMatrix) -> CharacteristicMatrix:
    """Characteristic matrix ``(I - p22, p21, p12, I - p11)`` of ``T*``, for ``P`` of ``T``.

    Involutive up to the rounding of ``I - (I - X)``.  The result holds only
    ``P``: each read of its ``p11`` or ``p22`` forms a new array, and nothing
    is cached.
    """
    return _Adjoint(P)


def inverse_char_matrix(P: CharacteristicMatrix) -> CharacteristicMatrix:
    """Characteristic matrix ``(p22, p21, p12, p11)`` of ``T^-1``, for ``P`` of ``T``.

    Raises ``ValueError`` when ``T`` fails the injectivity gate: the smallest
    singular value of ``I - p11`` is at most ``KERNEL_TOL * (1 + ||I - p11||_2)``.
    """
    ok, sig, threshold = _hermitian_kernel_trivial(_identity_minus(P.p11))
    if not ok:
        raise ValueError(
            f"operator has a nontrivial kernel: sigma_min(I - p11) = {sig:.3e} "
            f"<= threshold {threshold:.3e}; no inverse graph exists"
        )
    return CharacteristicMatrix(p11=P.p22, p12=P.p21, p21=P.p12, p22=P.p11)


def operator_from_char_matrix(P: CharacteristicMatrix) -> np.ndarray:
    """The operator ``T = p21 p11^-1`` of a characteristic matrix.

    Raises ``numpy.linalg.LinAlgError`` if ``p11`` is not positive definite to
    working precision (a genuine characteristic matrix's always is).
    """
    # T p11 = p21 and p11* = p11, so T* solves p11 X = p21*.
    try:
        np.linalg.cholesky(P.p11)
        Th = np.linalg.solve(P.p11, adjoint(P.p21))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"p11 block is numerically singular: {exc}") from exc
    return adjoint(Th)
