"""Characteristic matrices: orthogonal projections onto operator graphs.

For a square matrix ``T`` acting on ``C^n``, the graph ``{(f, T f)}`` is a
closed subspace of ``C^n (+) C^n``.  The orthogonal projection onto it is a
2x2 block matrix -- the *characteristic matrix* of ``T`` -- with blocks

    p11 = (T* T + I)^-1          p12 = T* (T T* + I)^-1
    p21 = T (T* T + I)^-1        p22 = I - (T T* + I)^-1

:func:`char_matrix` inverts the two Gram matrices ``T* T + I`` and
``T T* + I`` with numpy alone, and runs unchanged on an ``(m, n, n)`` stack
of operators: ``family`` builds every fiber's blocks in one pass and checks
them against the fibers' SVD basis.  A real ``T`` gives ``float64`` blocks.
An orthonormal graph basis ``[Q1; Q2]`` gives the blocks ``Q1 Q1*``,
``Q2 Q1*``, ``Q2 Q2*`` and ``p12 = p21*``: the independent
:func:`char_matrix_oracle` takes these three products of one QR
factorization of ``[I; T]``.  No ``2n x 2n`` matrix is formed here.

Memory bounds the operator scale, so the kernels form no temporaries they
can avoid.  Each Gram product's copy of ``T*`` is freed before the product
is factored.  The oracle's QR runs in place, in one ``2n x n`` buffer,
through ``numpy.linalg.lapack_lite``: numpy's own QR holds the stacked
matrix, its copy, two work buffers and ``Q`` at once.  ``I - X`` is
formed with no identity matrix, and ``p22`` overwrites ``(T T* + I)^-1``.
The adjoint's diagonal blocks are formed when they are read, so none is
held while the caller builds the operator it is compared with.

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


@dataclass(frozen=True)
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
    """``(G + I)^-1`` of a Gram product ``G``, a matrix or an ``(m, n, n)`` stack, which it overwrites.

    ``name`` labels ``G + I`` in errors; a stack fails if any of its Gram
    matrices does, and an overflow in forming ``G`` shows as a non-finite
    entry.  ``np.linalg.cholesky`` only gates positive definiteness; the
    inverse is ``np.linalg.inv``, an LU solve against ``I``.  Inverting from
    the Cholesky factor (``potri``) instead lifts the A12/A13 residuals on a
    40-point Dirichlet Laplacian from about 1e-11 to 3e-10, above
    ``IDENTITY_TOL``.
    """
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


def _identity_minus(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``I - X`` for a matrix or an ``(m, n, n)`` stack, into ``out`` (``X`` itself may be it).

    No identity matrix is formed.  Subtracting from ``0.0``, not negating,
    gives the zeros of ``np.eye(n) - X``: ``+0.0``, never ``-0.0``.
    """
    out = np.subtract(0.0, X, out=out)
    np.einsum("...ii->...i", out)[...] += 1.0  # a writable view of the diagonal
    return out


def _char_blocks(T: np.ndarray) -> tuple:
    """``(p11, p12, p21, p22)`` of an operator or of each operator of an ``(m, n, n)`` stack.

    Each Gram product is one expression, so no copy of ``T*`` is held
    through a factorization, and ``p22`` overwrites ``(T T* + I)^-1``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported as a non-finite G
        p11 = _inverse_gram(adjoint(T) @ T, "T*T + I")
        q = _inverse_gram(T @ adjoint(T), "TT* + I")
    return p11, adjoint(T) @ q, T @ p11, _identity_minus(q, out=q)


def _basis_blocks(Q1: np.ndarray, Q2: np.ndarray) -> tuple:
    """``(p11, p21, p22) = (Q1 Q1*, Q2 Q1*, Q2 Q2*)``, ``p12 = p21*``, of an orthonormal graph basis.

    ``[Q1; Q2]`` is a matrix with orthonormal columns or an ``(m, 2n, n)`` stack of them.
    ``Q1*`` is freed before ``Q2*`` is formed.
    """
    Q1h = adjoint(Q1)
    p11, p21 = Q1 @ Q1h, Q2 @ Q1h
    del Q1h
    return p11, p21, Q2 @ adjoint(Q2)


def _lapack(routine: str, *args) -> None:
    """Run ``lapack_lite``'s ``routine`` on ``args`` (up to ``tau``) with its optimal workspace.

    A workspace query comes first, as in numpy's own QR, so the blocking and
    the result are the same.  A nonzero ``info`` or a ``LapackError`` raises
    ``LinAlgError``.
    """
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
    """Halves ``(Q1, Q2)`` of the Householder QR factor ``Q`` of ``[I; T]``, in one buffer.

    LAPACK works on column-major storage and ``lapack_lite`` takes C-ordered
    arrays, so the ``n x 2n`` C-ordered buffer ``[I, T^T]`` is ``[I; T]``
    column-major.  ``geqrf`` factors it and ``orgqr``/``ungqr`` overwrite it
    with ``Q``; ``Q1`` and ``Q2`` are views of it.
    """
    n = T.shape[0]
    lda = max(1, 2 * n)
    geqrf, orgqr = ("dgeqrf", "dorgqr") if T.dtype == np.float64 else ("zgeqrf", "zungqr")
    a = np.zeros((n, 2 * n), T.dtype)
    np.einsum("ii->i", a[:, :n])[...] = 1.0
    a[:, n:] = T.T
    tau = np.empty(n, T.dtype)
    _lapack(geqrf, 2 * n, n, a, lda, tau)
    _lapack(orgqr, 2 * n, n, n, a, lda, tau)
    return a[:, :n].T, a[:, n:].T


def char_matrix_oracle(T) -> CharacteristicMatrix:
    """Characteristic matrix of ``T`` by orthonormalizing a graph basis.

    Stacks ``[I; T]`` columnwise (its columns span the graph), orthonormalizes
    them with a Householder QR factorization -- which keeps the basis
    orthonormal to machine precision regardless of the conditioning of the
    stacked matrix -- and takes three products of its halves (``_basis_blocks``)
    instead of ``Q Q*``.  Entirely independent of the closed-form route in
    :func:`char_matrix`, which makes the two usable as cross-checks of one another.

    The QR runs in place: LAPACK's ``geqrf`` and ``orgqr``/``ungqr``, called
    through ``numpy.linalg.lapack_lite``, overwrite one ``2n x n`` buffer
    with ``Q``, where numpy's ``qr`` would hold about twice that in copies.
    The blocks are bitwise those of numpy's ``qr``; a test compares the two
    routes, so a change in ``lapack_lite`` shows there.

    Raises
    ------
    numpy.linalg.LinAlgError
        If LAPACK reports a nonzero ``info`` or ``lapack_lite`` rejects an
        argument.
    """
    p11, p21, p22 = _basis_blocks(*_graph_basis(_as_operator(T)))  # the QR buffer is freed here
    return CharacteristicMatrix(p11=p11, p12=adjoint(p21), p21=p21, p22=p22)


@dataclass
class IdentityReport:
    """Residuals of the block-identity suite for one characteristic matrix, with their bounds.

    ``residuals`` maps an identity label to a nonnegative number, ``bounds``
    to its bound (``IDENTITY_TOL``, and 0 for A8); a label holds when its
    residual is at most its bound:

    ======  ==========================================================
    label   meaning
    ======  ==========================================================
    A6      block symmetry: ``p21 == p12*`` and Hermitian diagonal
            blocks (largest Frobenius deviation)
    A7      idempotency ``||P^2 - P||_F``, computed block by block
    A8      kernel triviality: how far ``sigma_min``, the smallest
            singular value of ``p11`` and of ``I - p22``, falls short
            of the kernel threshold: ``max(0, threshold - sigma_min)``
    A12     factorization ``p21 == T p11`` and ``p22 == T p12``
    A13     factorization ``I - p11 == T* p21`` and ``p12 == T* (I - p22)``
    ======  ==========================================================
    """

    residuals: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    sigma_min: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(v <= self.bounds[k] for k, v in self.residuals.items())


def verify_identities(T, P: CharacteristicMatrix) -> IdentityReport:
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

    Returns
    -------
    IdentityReport
        Residual and bound per label, and A8's ``sigma_min``; see
        :class:`IdentityReport` for the label key.
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
    # p11 and I - p22 are Hermitian: their eigenvalue moduli are their singular values
    Ip22 = _identity_minus(P.p22)
    _, sigma, threshold = _kernel_trivial(np.abs(np.concatenate(
        [np.linalg.eigvalsh(P.p11), np.linalg.eigvalsh(Ip22)])))
    # A13 reads I - p22 too.  It is freed before the difference, which is taken in
    # place: ||T* (I - p22) - p12|| is ||p12 - T* (I - p22)|| bit for bit.
    D = Th @ Ip22
    del Ip22
    a13_p12 = np.linalg.norm(np.subtract(D, P.p12, out=D), "fro")
    del D
    r["A12"] = max(
        np.linalg.norm(P.p21 - T @ P.p11, "fro"),
        np.linalg.norm(P.p22 - T @ P.p12, "fro"),
    )
    r["A13"] = max(np.linalg.norm(_identity_minus(P.p11) - Th @ P.p21, "fro"), a13_p12)
    # A8 holds above its threshold, so its residual is the shortfall, against 0
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
    """Characteristic matrix of the adjoint operator.

    If ``P`` projects onto the graph of ``T``, the returned blocks
    ``(I - p22, p21, p12, I - p11)`` project onto the graph of ``T*``.
    Involutive: applying it twice returns the original blocks, up to the
    rounding of ``I - (I - X)`` on the diagonal.

    The result holds only ``P``.  Each read of ``p11`` or ``p22`` forms a
    new ``I - X`` and nothing is cached, so no diagonal block is alive
    while the caller builds what it compares them with: at n = 400
    complex, A9's step grows the RSS by 4.96 n^2 entries, 5.96 with a cache.
    """
    return _Adjoint(P)


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
    ok, sig, threshold = _kernel_trivial(np.abs(np.linalg.eigvalsh(_identity_minus(P.p11))))
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
