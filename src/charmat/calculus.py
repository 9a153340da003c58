"""Functional calculus checks for Hermitian matrices.

Spectral projections, resolvents and the unitary one-parameter group of a
Hermitian matrix, together with quadrature verifications of the classical
integral identities that link them: the half-line Fourier transform of the
unitary group reproduces the resolvent, the limiting absorption integral of
resolvent jumps reproduces the spectral projection, and the spectral sum
reproduces the group.  Each ``*_check`` function returns the absolute
deviation between the two routes; nothing is asserted here, so callers can
pin their own tolerances.

Memory: each check factors its matrix once (one
:func:`~charmat.hilbert._eig_hermitian`) and holds O(n^2) numbers besides.
The Stone quadrature evaluates its integrand at most ``_BLOCK_BUDGET``
(2**20) values at a time and the Fourier one is summed in closed form, so
their ``steps`` cost no memory.  Only :func:`spectral_decomposition`, which
returns one ``n x n`` projector per distinct eigenvalue, needs more.
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

#: Integrand values (nodes times eigenvalues) that a quadrature evaluates
#: at once; it bounds the working set of the Stone check.
_BLOCK_BUDGET = 2**20


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
    return np.linalg.solve(T - z * np.eye(T.shape[0]), np.eye(T.shape[0]))


def unitary_group(T, s: float) -> np.ndarray:
    """The unitary ``exp(i s T)`` of a Hermitian matrix ``T``."""
    w, V = _eig_hermitian(T)
    return _spectral(V, np.exp(1j * s * w), adjoint(V))


def _blocked_trapezoid(integrand, start: float, stop: float, steps: int, width: int) -> complex:
    """Trapezoid rule on ``steps`` uniform subintervals of ``[start, stop]``.

    ``integrand`` maps a 1-d array of nodes to the integrand's values there,
    at a cost of ``width`` values per node.  The nodes come in blocks of
    ``max(1, _BLOCK_BUDGET // width)``, each generated as
    ``start + k * step`` with the last node set to ``stop``, which is
    ``np.linspace(start, stop, steps + 1)`` bit for bit; the sum runs block
    by block, so memory does not depend on ``steps``.  Every node weighs
    ``step`` (half at the ends), so the weights sum to ``stop - start``.
    """
    step = (stop - start) / steps
    rows = max(1, _BLOCK_BUDGET // width)
    total = 0.0
    for first in range(0, steps + 1, rows):
        k = np.arange(first, min(first + rows, steps + 1))
        nodes = start + k * step
        if k[-1] == steps:
            nodes[-1] = stop
        vals = integrand(nodes)
        if first == 0:
            vals[0] *= 0.5
        if k[-1] == steps:
            vals[-1] *= 0.5
        total += vals.sum()
    return step * total


def fourier_resolvent_check(
    T, z: complex, f, g, smax: float, steps: int = 40_000
) -> float:
    """Deviation of the half-line group transform from the resolvent.

    For Hermitian ``T`` and ``Im z > 0``,

        (f, (T - z)^-1 g) = i * integral_0^inf e^(i z s) (f, e^(-i s T) g) ds,

    and the integrand decays like ``e^(-Im z * s)``.  The integral is
    truncated at ``smax`` and evaluated with the trapezoid rule on ``steps``
    uniform subintervals, so the returned deviation is dominated by the
    truncation tail ``~ e^(-Im z * smax)`` once the quadrature resolves the
    oscillation.  The exact side is one LU solve of ``(T - z) x = g``.  The
    rule's node values are geometric in each eigenvalue, so it is summed in
    closed form: ``steps`` costs neither memory nor time.

    Returns
    -------
    float
        Absolute difference between the quadrature and the direct
        resolvent matrix element.
    """
    if z.imag <= 0:
        raise ValueError("z must lie in the upper half plane")
    if smax <= 0 or steps < 1:
        raise ValueError("smax must be positive and steps at least 1")
    T = _as_operator(T)
    f = _as_vector(f)
    g = _as_vector(g)
    w, V = _eig_hermitian(T)
    c = np.conj(V.conj().T @ f) * (V.conj().T @ g)
    # at the nodes s_j = j h the integrand is geometric in each eigenvalue,
    # sum_j e^(j a) for a = i h (z - w); Re a = -h Im z < 0, so e^a != 1
    h = smax / steps
    a = 1j * h * (z - w)
    geometric = np.expm1((steps + 1) * a) / np.expm1(a) - (1.0 + np.exp(steps * a)) / 2.0
    quad = 1j * h * (geometric @ c)
    exact = _inner_product(f, np.linalg.solve(T - z * np.eye(len(T)), g))
    return float(abs(quad - exact))


def stone_formula_check(
    T, lam: float, f, g, epsilon: float, delta: float, steps: int = 40_000
) -> float:
    """Deviation of the resolvent-jump integral from the spectral projection.

    Approximates

        (f, E(lam) g) ~ (2 pi i)^-1 * integral_Lambda^(lam+delta)
                        (f, [R(u + i eps) - R(u - i eps)] g) du

    where ``E`` is the right-continuous spectral projection, ``R`` the
    resolvent, and ``Lambda`` sits strictly below the spectrum.  The
    integrand collapses to a sum of Poisson kernels of width ``epsilon``
    centered at the eigenvalues, so the deviation sinks to zero as
    ``epsilon`` and then ``delta`` decrease (order ``epsilon`` for fixed
    well-separated spectrum).

    Parameters
    ----------
    epsilon : float
        Imaginary offset of the two resolvents; positive.
    delta : float
        Overshoot of the integration endpoint past ``lam``; positive, and
        ``lam + delta`` must stay at least ``epsilon`` away from every
        eigenvalue so no endpoint mass is cut in half.
    steps : int, optional
        Trapezoid subintervals; the default resolves Poisson kernels of
        width down to roughly the spectral diameter divided by ``steps``.
        Memory is O(n^2 + _BLOCK_BUDGET) whatever ``steps`` is; more steps
        cost only time.

    Returns
    -------
    float
        Absolute difference between the quadrature and
        ``(f, spectral_projection(T, lam) g)``.
    """
    if epsilon <= 0 or delta <= 0:
        raise ValueError("epsilon and delta must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
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
    # the kernel is real: multiplying it by c's two real parts avoids the
    # complex copy of each block that a complex product would make
    parts = np.column_stack((c.real, c.imag))

    def integrand(u):
        # (2 pi i)^-1 [R(u+ie) - R(u-ie)] has the Poisson kernel as its symbol
        kernel = np.subtract.outer(u, w)
        np.square(kernel, out=kernel)
        kernel += epsilon**2
        np.divide(epsilon / np.pi, kernel, out=kernel)
        vals = kernel @ parts
        return vals[:, 0] + 1j * vals[:, 1]

    quad = _blocked_trapezoid(integrand, float(w.min()) - 1.0, endpoint, steps, len(w))
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

