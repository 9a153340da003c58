"""Functional calculus checks for Hermitian matrices.

Spectral projections, resolvents and the unitary one-parameter group of a
Hermitian matrix, together with checks of the classical integral identities
that link them: the half-line Fourier transform of the unitary group
reproduces the resolvent, the limiting absorption integral of resolvent
jumps reproduces the spectral projection, and the spectral sum reproduces
the group.  Each ``*_check`` function returns the absolute
deviation between the two routes; nothing is asserted here, so callers can
pin their own tolerances.

Memory: each check factors its matrix once (one
:func:`~charmat.hilbert._eig_hermitian`) and holds O(n^2) numbers besides.
Stone's and Fourier's integrals are exact, one closed-form term per
eigenvalue each, so neither takes a quadrature resolution.  Only
:func:`spectral_decomposition`, which returns one ``n x n`` projector per
distinct eigenvalue, needs more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import _as_operator, _as_vector, _eig_hermitian, _inner_product, _spectral, adjoint

__all__ = [
    "SpectralDecomposition",
    "spectral_decomposition",
    "spectral_projection",
    "resolvent",
    "unitary_group",
    "fourier_resolvent_check",
    "stone_formula_check",
    "spectral_transform_check",
    "bounded_calculus_step_check",
]

#: Relative width (of spectral radius + 1) below which eigenvalues are
#: merged into a single eigenspace.
CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct (clustered) eigenvalues of a Hermitian matrix.

    ``projectors[k]`` is the orthogonal projection onto the eigenspace of
    ``eigenvalues[k]``; multiplicities sum to the dimension; the projectors
    are mutually orthogonal and resolve the identity.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    multiplicities: np.ndarray


def _cluster_means(w: np.ndarray) -> np.ndarray:
    """Each ascending eigenvalue in ``w`` replaced by the mean of its cluster.

    Neighbours closer than ``CLUSTER_TOL`` times the spectral radius plus
    one share a cluster.  Clusters are separated by more than that width,
    so the means strictly increase from one cluster to the next.
    """
    width = CLUSTER_TOL * (float(np.abs(w).max(initial=0.0)) + 1.0)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(w) > width) + 1, [len(w)]))
    means = [w[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])]
    return np.repeat(np.asarray(means, dtype=w.dtype), np.diff(bounds))


def _rank_below(w: np.ndarray, lam: float) -> int:
    """Number of ascending eigenvalues whose cluster mean is at most ``lam``."""
    return int(np.searchsorted(_cluster_means(w), lam, side="right"))


def spectral_decomposition(T) -> SpectralDecomposition:
    """Eigenvalues and eigenprojections of a Hermitian matrix.

    Eigenvalues closer than ``CLUSTER_TOL`` (``1e-8``) times the spectral
    radius plus one are merged into a single eigenspace, so that
    true degeneracies split only by rounding come out as one projector.
    The result holds one ``n x n`` projector per distinct eigenvalue, so it
    takes O(n^3) memory when the spectrum is simple; the checks in this
    module never form it.
    """
    w, V = _eig_hermitian(T)
    values, starts, mults = np.unique(
        _cluster_means(w), return_index=True, return_counts=True
    )
    n = V.shape[0]
    projectors = np.empty((len(values), n, n), dtype=V.dtype)
    for k, (start, mult) in enumerate(zip(starts, mults)):
        block = V[:, start : start + mult]
        np.matmul(block, block.conj().T, out=projectors[k])
    return SpectralDecomposition(eigenvalues=values, projectors=projectors, multiplicities=mults)


def spectral_projection(T, lam: float) -> np.ndarray:
    """Right-continuous spectral projection of ``T`` at height ``lam``.

    Projects onto the eigenspaces of all (clustered, as in
    :func:`spectral_decomposition`) eigenvalues less than or equal to
    ``lam`` (an eigenvalue equal to ``lam`` is *included*).  Below the
    spectrum the result is the zero matrix; at or above the top of the
    spectrum it is the identity.  It is one product ``Vs Vs*`` of the
    included eigenvector columns ``Vs``.

    The dtype follows the package's operator rule: ``float64`` for real
    ``T``, ``complex128`` for complex ``T``.
    """
    w, V = _eig_hermitian(T)
    Vs = V[:, : _rank_below(w, lam)]
    return Vs @ Vs.conj().T


def resolvent(T, z: complex) -> np.ndarray:
    """The matrix ``(T - z I)^-1``.

    ``z`` must not be an eigenvalue of ``T``; for a Hermitian ``T`` any
    ``z`` with nonzero imaginary part is safe.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``T - z I`` is numerically singular.
    """
    T = _as_operator(T)
    return np.linalg.inv(T - z * np.eye(T.shape[0]))


def unitary_group(T, s: float) -> np.ndarray:
    """The unitary ``exp(i s T)`` of a Hermitian matrix ``T``."""
    w, V = _eig_hermitian(T)
    return _spectral(V, np.exp(1j * s * w), adjoint(V))


def fourier_resolvent_check(T, z: complex, f, g, smax: float) -> float:
    """Deviation of the half-line group transform from the resolvent.

    For Hermitian ``T`` and ``Im z > 0``,

        (f, (T - z)^-1 g) = i * integral_0^inf e^(i z s) (f, e^(-i s T) g) ds,

    and the integrand decays like ``e^(-Im z * s)``.  The integral is
    truncated at ``smax`` and summed exactly, one term
    ``c_j expm1(i (z - w_j) smax) / (z - w_j)`` per eigenpair ``(w_j, v_j)``
    with ``c_j = (f, v_j)(v_j, g)``, so the deviation is the truncation tail
    alone, ``|sum_j c_j e^(i (z - w_j) smax) / (z - w_j)|``.  The exact side
    is one LU solve of ``(T - z) x = g``.  Where ``(z - w_j) smax``
    overflows, or ``e^(-Im z * smax)`` goes past the float range, the tail
    term of ``w_j`` is dropped: a term of modulus
    ``|c_j| e^(-Im z * smax) / |z - w_j|``.

    Returns
    -------
    float
        Absolute difference between the truncated integral and the direct
        resolvent matrix element.
    """
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half plane")
    if smax <= 0:
        raise ValueError("smax must be positive")
    T = _as_operator(T)
    f = _as_vector(f)
    g = _as_vector(g)
    w, V = _eig_hermitian(T)
    c = np.conj(V.conj().T @ f) * (V.conj().T @ g)
    # i * integral_0^smax e^(i d s) ds = expm1(i d smax) / d, d = z - w != 0; expm1 is not
    # finite only where its exponent overflowed, and there it reads -1 (the tail dropped)
    d = z - w
    with np.errstate(over="ignore", invalid="ignore"):
        jump = np.expm1(1j * smax * d)
    jump[~np.isfinite(jump)] = -1.0
    quad = (jump / d) @ c
    exact = _inner_product(f, np.linalg.solve(T - z * np.eye(len(T)), g))
    return float(abs(quad - exact))


def stone_formula_check(T, lam: float, f, g, epsilon: float, delta: float) -> float:
    """Deviation of the resolvent-jump integral from the spectral projection.

    Computes, exactly up to rounding,

        (2 pi i)^-1 * integral_Lambda^(lam+delta)
            (f, [R(u + i eps) - R(u - i eps)] g) du  ~  (f, E(lam) g)

    where ``E`` is the right-continuous spectral projection, ``R`` the
    resolvent, and ``Lambda = w_min - 1`` sits strictly below the spectrum.
    The integrand is a sum of Poisson kernels of width ``epsilon`` centered
    at the eigenvalues, each integrating to a difference of arctangents.
    So the deviation is Stone's own: it sinks to zero as ``epsilon`` and
    then ``delta`` decrease (order ``epsilon`` for a well-separated spectrum).

    Parameters
    ----------
    epsilon : float
        Imaginary offset of the two resolvents; positive.
    delta : float
        Overshoot of the integration endpoint past ``lam``; positive, and
        ``lam + delta`` must stay at least ``epsilon`` away from every
        eigenvalue so no endpoint mass is cut in half.

    Returns
    -------
    float
        Absolute difference between the integral and
        ``(f, spectral_projection(T, lam) g)``.
    """
    if epsilon <= 0 or delta <= 0:
        raise ValueError("epsilon and delta must be positive")
    f = _as_vector(f)
    g = _as_vector(g)
    w, V = _eig_hermitian(T)
    endpoint = lam + delta
    if np.min(np.abs(w - endpoint)) <= epsilon:
        raise ValueError(
            f"integration endpoint {endpoint} is within epsilon of an eigenvalue; "
            "shift delta"
        )
    c = np.conj(V.conj().T @ f) * (V.conj().T @ g)
    # (2 pi i)^-1 [R(u+ie) - R(u-ie)] has the Poisson kernel as its symbol; its mass over
    # [w_min - 1, endpoint] is a difference of arctangents (arctan2 does not overflow)
    mass = (np.arctan2(endpoint - w, epsilon) - np.arctan2(w.min() - 1.0 - w, epsilon)) / np.pi
    quad = mass @ c
    # (f, E(lam) g) is the sum of c over the eigenvalues E(lam) keeps
    exact = complex(c[: _rank_below(w, lam)].sum())
    return float(abs(quad - exact))


def spectral_transform_check(T, s: float, f, g) -> float:
    """Deviation of the spectral sum from the unitary group element.

    Compares ``sum_k e^(i s w_k) (f, P_k g)`` over the spectral
    decomposition with ``(f, e^(i s T) g)``.  The sum is finite and exact,
    so the deviation is pure rounding (at most ``~1e-10`` for sane scales).
    """
    f = _as_vector(f)
    g = _as_vector(g)
    w, V = _eig_hermitian(T)
    Vh = adjoint(V)
    a = Vh @ f
    b = Vh @ g
    lhs = complex(np.sum(np.exp(1j * s * _cluster_means(w)) * np.conj(a) * b))
    rhs = _inner_product(f, _spectral(V, np.exp(1j * s * w), Vh) @ g)
    return float(abs(lhs - rhs))


def _apply_scalar_function(F, w: np.ndarray) -> np.ndarray:
    """Evaluate ``F`` on an eigenvalue array, vectorized or element by element."""
    try:
        fw = np.asarray(F(w))
        if fw.shape == w.shape:
            return fw
    except (TypeError, ValueError):
        pass
    return np.array([F(x) for x in w])


def bounded_calculus_step_check(T, F, Fsteps) -> dict:
    """Compare step-function approximations of ``F(T)`` with ``F(T)``.

    For each approximant ``F_n`` in ``Fsteps``, records the operator
    deviation ``||F_n(T) - F(T)||_2`` and the supremum deviation
    ``max_k |F_n(w_k) - F(w_k)|`` over the eigenvalues.  The spectral
    mapping theorem makes the two equal for Hermitian ``T``, so operator
    convergence follows the scalar sup-distances.

    Returns
    -------
    dict
        ``op_errors`` and ``sup_distances`` as aligned 1-d arrays.
    """
    w, V = _eig_hermitian(T)
    Vh = adjoint(V)

    def apply(fn):
        fw = _apply_scalar_function(fn, w)
        return _spectral(V, fw, Vh), fw

    FT, Fw = apply(F)
    op_errors, sup_distances = [], []
    for Fn in Fsteps:
        FnT, Fnw = apply(Fn)
        op_errors.append(float(np.linalg.norm(FnT - FT, 2)))
        sup_distances.append(float(np.abs(Fnw - Fw).max()))
    return {
        "op_errors": np.array(op_errors),
        "sup_distances": np.array(sup_distances),
    }

