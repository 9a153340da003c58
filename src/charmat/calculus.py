"""Functional calculus of Hermitian matrices and checks of the identities that link it.

Provides spectral decompositions and projections, resolvents and the unitary
group, and four checks (README, ``charmat.calculus``).  Each ``*_check``
measures the absolute deviation between two routes and asserts nothing; Stone's
and Fourier's return it with its bound, as a one-label
:class:`~charmat.hilbert.Checks`.  Each check eigendecomposes its matrix once.
``fourier_resolvent_check`` also LU-solves ``(T - z) x = g``, so it factors twice, and
``bounded_calculus_step_check`` takes one 2-norm (an SVD) per approximant.
Every check holds O(n^2) numbers; only :func:`spectral_decomposition` holds
more.  Every function but :func:`resolvent` raises ``ValueError`` for a
non-Hermitian matrix, and every function raises it for a ``nan`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    Checks, _as_operator, _as_vector, _eig_hermitian, _inner_product, _spectral, adjoint)

__all__ = [
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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Distinct (clustered) eigenvalues, the projector onto each eigenspace, and multiplicities.

    The projectors are mutually orthogonal and sum to the identity.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    multiplicities: np.ndarray


def _cluster_means(w: np.ndarray) -> np.ndarray:
    """Each ascending eigenvalue in ``w`` replaced by its cluster's mean, strictly increasing."""
    width = CLUSTER_TOL * (float(np.abs(w).max(initial=0.0)) + 1.0)
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(w) > width) + 1, [len(w)]))
    means = [w[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])]
    return np.repeat(np.asarray(means, dtype=w.dtype), np.diff(bounds))


def _rank_below(w: np.ndarray, lam: float) -> int:
    """Number of ascending eigenvalues whose cluster mean is at most ``lam``; ``nan`` raises."""
    if np.isnan(lam):
        raise ValueError("lam must not be nan")
    return int(np.searchsorted(_cluster_means(w), lam, side="right"))


def spectral_decomposition(T) -> SpectralDecomposition:
    """The :class:`SpectralDecomposition` of a Hermitian matrix.

    Neighbouring eigenvalues closer than ``CLUSTER_TOL`` times (spectral radius
    + 1) share one eigenspace.  It holds one ``n x n`` projector per distinct
    eigenvalue: O(n^3) memory for a simple spectrum.
    """
    w, V = _eig_hermitian(T)
    values, starts, mults = np.unique(
        _cluster_means(w), return_index=True, return_counts=True
    )
    n = V.shape[0]
    projectors = np.empty((len(values), n, n), dtype=V.dtype)
    for k, (start, mult) in enumerate(zip(starts, mults)):
        block = V[:, start : start + mult]
        np.matmul(block, adjoint(block), out=projectors[k])
    return SpectralDecomposition(eigenvalues=values, projectors=projectors, multiplicities=mults)


def spectral_projection(T, lam: float) -> np.ndarray:
    """Right-continuous spectral projection ``E(lam)`` of a Hermitian ``T``.

    It projects onto the eigenspaces of the clustered eigenvalues ``<= lam``
    (an eigenvalue equal to ``lam`` is included), in ``T``'s operator dtype:
    ``E(-inf) = 0`` and ``E(inf) = I``.  Raises ``ValueError`` for a ``nan`` ``lam``.
    """
    w, V = _eig_hermitian(T)
    Vs = V[:, : _rank_below(w, lam)]
    return Vs @ adjoint(Vs)


def resolvent(T, z: complex) -> np.ndarray:
    """``(T - z I)^-1`` of any square ``T``; for a Hermitian ``T`` any non-real ``z`` is safe.

    Raises ``ValueError`` for a non-finite ``z``, and ``numpy.linalg.LinAlgError``
    if ``T - z I`` is numerically singular.
    """
    if not np.isfinite(z):
        raise ValueError("z must be finite")
    T = _as_operator(T)
    return np.linalg.inv(T - z * np.eye(T.shape[0]))


def unitary_group(T, s: float) -> np.ndarray:
    """The unitary ``exp(i s T)`` of a Hermitian ``T``; a non-finite ``s`` raises ``ValueError``."""
    if not np.isfinite(s):
        raise ValueError("s must be finite")
    w, V = _eig_hermitian(T)
    return _spectral(V, np.exp(1j * s * w), adjoint(V))


def fourier_resolvent_check(T, z: complex, f, g, smax: float) -> Checks:
    """``fourier``, bound 1e-4: ``|i int_0^smax e^(izs) (f, e^(-isT) g) ds - (f, (T - z)^-1 g)|``.

    ``T`` is Hermitian.  The integral is exact, so the deviation is the
    truncation tail, of order ``e^(-Im z * smax)``; where ``(z - w) smax``
    overflows for an eigenvalue ``w``, or ``e^(-Im z * smax)`` leaves the
    float range, that eigenvalue's tail term counts as 0, and ``smax = inf``
    gives the exact transform.  Raises ``ValueError`` unless ``Im z > 0``,
    ``Re z`` is not ``nan`` and ``smax > 0``.
    """
    if np.isnan(z) or not z.imag > 0:
        raise ValueError("z must lie in the upper half plane")
    if not smax > 0:  # nan too
        raise ValueError("smax must be positive")
    T = _as_operator(T)
    f = _as_vector(f)
    g = _as_vector(g)
    w, V = _eig_hermitian(T)
    c = np.conj(adjoint(V) @ f) * (adjoint(V) @ g)
    # i * integral_0^smax e^(i d s) ds = expm1(i d smax) / d, d = z - w != 0; expm1 is not
    # finite only where its exponent overflowed, and there it reads -1 (the tail dropped)
    d = z - w
    with np.errstate(over="ignore", invalid="ignore"):
        jump = np.expm1(1j * smax * d)
    jump[~np.isfinite(jump)] = -1.0
    quad = (jump / d) @ c
    exact = _inner_product(f, np.linalg.solve(T - z * np.eye(len(T)), g))
    return Checks({"fourier": float(abs(quad - exact))}, {"fourier": 1e-4})


def stone_formula_check(T, lam: float, f, g, epsilon: float, delta: float) -> Checks:
    """``stone``, bound 1e-3: Stone's resolvent-jump integral against ``(f, E(lam) g)``.

    ``T`` is Hermitian.  The integral of
    ``(2 pi i)^-1 (f, [R(u + i epsilon) - R(u - i epsilon)] g)`` over
    ``[w_min - 1, lam + delta]`` is exact, so the deviation is Stone's own, of
    order ``epsilon`` for a well-separated spectrum.  Raises ``ValueError``
    for a ``nan`` ``lam``, unless ``epsilon > 0`` and ``delta > 0``, and when
    ``lam + delta`` lies within ``epsilon`` of an eigenvalue (the endpoint rule).
    """
    if not (epsilon > 0 and delta > 0):  # nan too
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
    c = np.conj(adjoint(V) @ f) * (adjoint(V) @ g)
    # (2 pi i)^-1 [R(u+ie) - R(u-ie)] has the Poisson kernel as its symbol; its mass over
    # [w_min - 1, endpoint] is a difference of arctangents (arctan2 does not overflow)
    mass = (np.arctan2(endpoint - w, epsilon) - np.arctan2(w.min() - 1.0 - w, epsilon)) / np.pi
    quad = mass @ c
    # (f, E(lam) g) is the sum of c over the eigenvalues E(lam) keeps
    exact = complex(c[: _rank_below(w, lam)].sum())
    return Checks({"stone": float(abs(quad - exact))}, {"stone": 1e-3})


def spectral_transform_check(T, s: float, f, g) -> float:
    """``|sum_k e^(i s w_k) (f, P_k g) - (f, e^(i s T) g)|``, clustered spectrum: rounding only."""
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
    """``F`` on the eigenvalues ``w``, vectorized or element by element."""
    try:
        fw = np.asarray(F(w))
        if fw.shape == w.shape:
            return fw
    except (TypeError, ValueError):
        pass
    return np.array([F(x) for x in w])


def bounded_calculus_step_check(T, F, Fsteps) -> dict:
    """Errors of the step approximants ``Fsteps`` of ``F(T)``, as aligned 1-d arrays in a dict.

    ``op_errors`` holds ``||F_n(T) - F(T)||_2`` and ``sup_distances``
    ``max_k |F_n(w_k) - F(w_k)|`` over the eigenvalues; spectral mapping makes
    the two equal up to rounding.
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

