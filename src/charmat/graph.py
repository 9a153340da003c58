"""Characteristic matrices: orthogonal projections onto operator graphs.

For a square matrix ``T`` acting on ``C^n``, the graph ``{(f, T f)}`` is a
closed subspace of ``C^n (+) C^n``.  The orthogonal projection onto it is a
2x2 block matrix -- the *characteristic matrix* of ``T`` -- with blocks

    p11 = (T* T + I)^-1          p12 = T* (T T* + I)^-1
    p21 = T (T* T + I)^-1        p22 = I - (T T* + I)^-1

:func:`char_matrix` forms each of the two Gram matrices ``T* T + I`` and
``T T* + I`` with one matrix product, checks it positive definite with a
Cholesky factorization and inverts it by an LU solve against ``I``; numpy
alone does all of it.  The Gram inverses and the block products run
unchanged on an ``(m, n, n)`` stack of operators, which is how ``family``
builds every fiber's blocks in one pass (it reads a family's assembled
operator off its SVD instead).  A real ``T`` stays real throughout, so its
blocks are ``float64``; a Gram matrix that overflows, or fails its Cholesky
factorization, raises ``numpy.linalg.LinAlgError``.

The block structure satisfies a family of algebraic identities (block
symmetry, idempotency, trivial kernels, factorization through ``T``) that
are checked by :func:`verify_identities`, and it transforms simply under
taking adjoints and inverses of ``T``.  The kernel label A8 and the
injectivity gate of :func:`inverse_char_matrix` apply ``hilbert``'s kernel
rule, scaled by ``hilbert.KERNEL_TOL``, to the eigenvalue moduli of
Hermitian blocks.  Every operation here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import _as_operator, _as_square_matrix, _kernel_trivial, adjoint

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


@dataclass(frozen=True)
class CharacteristicMatrix:
    """The four blocks of the projection onto an operator graph."""

    p11: np.ndarray
    p12: np.ndarray
    p21: np.ndarray
    p22: np.ndarray

    def __post_init__(self):
        n = _as_square_matrix(self.p11).shape[0]
        for name in ("p12", "p21", "p22"):
            if _as_square_matrix(getattr(self, name)).shape != (n, n):
                raise ValueError("all blocks must share one square shape")

    @property
    def n(self) -> int:
        """Dimension of the underlying space."""
        return self.p11.shape[0]

    def assemble(self) -> np.ndarray:
        """The full ``2n x 2n`` projection ``[[p11, p12], [p21, p22]]``."""
        return np.block([[self.p11, self.p12], [self.p21, self.p22]])

    def blockwise_distance(self, other: "CharacteristicMatrix") -> float:
        """Largest Frobenius distance between corresponding blocks."""
        return max(
            float(np.linalg.norm(getattr(self, b) - getattr(other, b), "fro"))
            for b in ("p11", "p12", "p21", "p22")
        )


def _inverse_gram(A: np.ndarray, Ah: np.ndarray, name: str) -> np.ndarray:
    """``(A A* + I)^-1`` given ``A`` and ``Ah = A*``, matrices or ``(m, n, n)`` stacks.

    ``name`` labels the Gram matrix in errors; a stack fails if any of its
    Gram matrices does.  ``np.linalg.cholesky`` only gates positive
    definiteness; the inverse is ``np.linalg.inv``, an LU solve against
    ``I``.  Inverting from the Cholesky factor (``potri``) instead lifts the
    A12/A13 residuals on a 40-point Dirichlet Laplacian from about 1e-11 to
    3e-10, above ``IDENTITY_TOL``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        G = A @ Ah
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
    """Characteristic matrix of ``T`` from its closed-form blocks.

    Each Gram matrix ``T* T + I`` and ``T T* + I`` is Hermitian positive
    definite.  One product of ``T`` and ``T*`` forms it (a BLAS ``syrk``
    for real ``T``), a Cholesky factorization certifies it positive
    definite, and an LU solve against ``I`` (``np.linalg.inv``) gives its
    inverse; ``p12`` and ``p21`` are products with those inverses.

    Parameters
    ----------
    T : array_like
        Square matrix.  Real, integer or bool input is computed in
        ``float64`` and gives real blocks; complex input in ``complex128``.

    Returns
    -------
    CharacteristicMatrix

    Raises
    ------
    numpy.linalg.LinAlgError
        If a Gram matrix overflows (entries of ``T`` near the square root
        of the float range) or fails its Cholesky factorization; the
        message names the Gram matrix.
    """
    return CharacteristicMatrix(*_char_blocks(_as_operator(T)))


def _char_blocks(T: np.ndarray) -> tuple:
    """``(p11, p12, p21, p22)`` of an operator or of each operator of an ``(m, n, n)`` stack."""
    Th = adjoint(T)
    p11 = _inverse_gram(Th, T, "T*T + I")
    q = _inverse_gram(T, Th, "TT* + I")
    return p11, Th @ q, T @ p11, np.eye(T.shape[-1]) - q


def _svd_blocks(U: np.ndarray, s: np.ndarray, Vh: np.ndarray):
    """Yield ``p11``, ``p21``, ``p22`` (``p12 = p21*``) of ``T = U diag(s) Vh`` by the closed SVD formula.

    Finite where ``s^2`` overflows; a Hermitian ``T`` may pass its ``eigh`` as ``(V, w, V*)``.
    """
    c = 1.0 / np.hypot(1.0, s)
    yield (np.conjugate(Vh) * (c * c)[:, None]).T @ Vh
    yield (U * (s * c * c)) @ Vh
    yield U @ (np.conjugate(U) * (s * c) ** 2).T


def char_matrix_oracle(T) -> CharacteristicMatrix:
    """Characteristic matrix of ``T`` by orthonormalizing a graph basis.

    Stacks ``[I; T]`` columnwise (its columns span the graph), orthonormalizes
    them with a Householder QR factorization -- which keeps the basis
    orthonormal to machine precision regardless of the conditioning of the
    stacked matrix -- and forms ``Q Q*``.  Entirely independent of the
    closed-form route in :func:`char_matrix`, which makes the two usable as
    cross-checks of one another.
    """
    T = _as_operator(T)
    n = T.shape[0]
    S = np.vstack([np.eye(n), T])
    Q, _ = np.linalg.qr(S)  # reduced: Q is 2n x n with orthonormal columns
    P = Q @ Q.conj().T
    return CharacteristicMatrix(
        p11=P[:n, :n], p12=P[:n, n:], p21=P[n:, :n], p22=P[n:, n:]
    )


@dataclass
class IdentityReport:
    """Residuals of the block-identity suite for one characteristic matrix.

    ``residuals`` maps an identity label to a nonnegative number:

    ======  ==========================================================
    label   meaning
    ======  ==========================================================
    A6      block symmetry: ``p21 == p12*`` and Hermitian diagonal
            blocks (largest Frobenius deviation)
    A7      idempotency of the assembled projection ``||P^2 - P||_F``
    A8      kernel triviality: smallest singular value of ``p11`` and
            of ``I - p22`` (the *minimum* of the two; passes when it
            exceeds the kernel threshold, unlike the other labels)
    A12     factorization ``p21 == T p11`` and ``p22 == T p12``
    A13     factorization ``I - p11 == T* p21`` and ``p12 == T* (I - p22)``
    ======  ==========================================================
    """

    residuals: dict = field(default_factory=dict)
    passes: dict = field(default_factory=dict)
    tol: float = IDENTITY_TOL
    kernel_threshold: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())


def verify_identities(T, P: CharacteristicMatrix, tol: float = IDENTITY_TOL) -> IdentityReport:
    """Check the block-identity suite of a characteristic matrix.

    Since ``sigma_min(p11) = 1/(1 + ||T||_2^2)`` exactly, label ``A8``
    (threshold scaled by ``hilbert.KERNEL_TOL``) certifies only ``||T||_2``
    below roughly ``1/sqrt(KERNEL_TOL)``; beyond, it fails even for a
    healthy ``T``.

    Parameters
    ----------
    T : array_like
        The operator that ``P`` is claimed to belong to.
    P : CharacteristicMatrix
        Candidate projection blocks.
    tol : float, optional
        Absolute Frobenius tolerance for the residual labels.

    Returns
    -------
    IdentityReport
        Residual and pass/fail per label; see :class:`IdentityReport` for
        the label key.
    """
    T = _as_operator(T)
    if T.shape[0] != P.n:
        raise ValueError(f"operator is {T.shape[0]}-dimensional but blocks are {P.n}")
    Th = adjoint(T)
    I = np.eye(P.n)

    r = {}
    r["A6"] = max(
        np.linalg.norm(P.p21 - adjoint(P.p12), "fro"),
        np.linalg.norm(P.p11 - adjoint(P.p11), "fro"),
        np.linalg.norm(P.p22 - adjoint(P.p22), "fro"),
    )
    full = P.assemble()
    r["A7"] = np.linalg.norm(full @ full - full, "fro")
    # p11 and I - p22 are Hermitian: their eigenvalue moduli are their singular values
    kernels_ok, r["A8"], threshold = _kernel_trivial(np.abs(np.concatenate(
        [np.linalg.eigvalsh(P.p11), np.linalg.eigvalsh(I - P.p22)])))
    r["A12"] = max(
        np.linalg.norm(P.p21 - T @ P.p11, "fro"),
        np.linalg.norm(P.p22 - T @ P.p12, "fro"),
    )
    r["A13"] = max(
        np.linalg.norm((I - P.p11) - Th @ P.p21, "fro"),
        np.linalg.norm(P.p12 - Th @ (I - P.p22), "fro"),
    )
    r = {k: float(v) for k, v in r.items()}

    passes = {k: (v <= tol) for k, v in r.items() if k != "A8"}
    passes["A8"] = bool(kernels_ok)
    return IdentityReport(residuals=r, passes=passes, tol=tol, kernel_threshold=float(threshold))


def adjoint_char_matrix(P: CharacteristicMatrix) -> CharacteristicMatrix:
    """Characteristic matrix of the adjoint operator.

    If ``P`` projects onto the graph of ``T``, the returned blocks
    ``(I - p22, p21, p12, I - p11)`` project onto the graph of ``T*``.
    Involutive: applying it twice returns the original blocks.
    """
    I = np.eye(P.n)
    return CharacteristicMatrix(
        p11=I - P.p22, p12=P.p21, p21=P.p12, p22=I - P.p11
    )


def inverse_char_matrix(P: CharacteristicMatrix) -> CharacteristicMatrix:
    """Characteristic matrix of the inverse operator.

    The operator ``T`` behind ``P`` is injective exactly when ``I - p11``
    has trivial kernel; in that case the blocks ``(p22, p21, p12, p11)``
    (diagonal blocks swapped, off-diagonal blocks exchanged) project onto
    the graph of ``T^-1``.

    Raises
    ------
    ValueError
        If the injectivity gate fails, i.e. the smallest singular value of
        ``I - p11`` is at or below ``KERNEL_TOL * (1 + ||I - p11||_2)``.
    """
    ok, sig, threshold = _kernel_trivial(np.abs(np.linalg.eigvalsh(np.eye(P.n) - P.p11)))
    if not ok:
        raise ValueError(
            f"operator has a nontrivial kernel: sigma_min(I - p11) = {sig:.3e} "
            f"<= threshold {threshold:.3e}; no inverse graph exists"
        )
    return CharacteristicMatrix(p11=P.p22, p12=P.p21, p21=P.p12, p22=P.p11)


def operator_from_char_matrix(P: CharacteristicMatrix) -> np.ndarray:
    """Recover ``T`` from its characteristic matrix via ``T = p21 p11^-1``.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``p11`` is not positive definite to working precision (it always
        is for a genuine characteristic matrix).
    """
    # T p11 = p21 and p11* = p11, so T* solves p11 X = p21*.
    try:
        np.linalg.cholesky(P.p11)
        Th = np.linalg.solve(P.p11, adjoint(P.p21))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"p11 block is numerically singular: {exc}") from exc
    return adjoint(Th)
