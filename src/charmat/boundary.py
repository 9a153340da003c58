"""Discretized first-derivative operators on [0,1] under three boundary laws.

The operator ``(1/i) d/dx`` becomes genuinely different objects depending
on its boundary conditions, and finite differences reproduce the hierarchy:

- ``dirichlet``: central differences with zero ghost values at both ends.
  Hermitian; the minimal, maximally constrained realization.
- ``periodic``: central differences with cyclic wraparound.  Hermitian; a
  distinguished extension of the Dirichlet operator whose spectrum is the
  (discrete) integer lattice scaled by 2*pi.
- ``free``: central differences inside, one-sided differences at the two
  ends.  Deliberately *not* Hermitian -- it realizes the operator with no
  boundary condition at all, the largest of the three.

Second-order operators come from the direct (2, -1) second-difference
stencil.  Squaring the first-derivative matrices instead, as ``D* D`` from
:func:`derivative_operator`, decouples even and odd nodes and manufactures
a spurious near-null mode; that is why :func:`laplacian` does not offer it.

All grids are uniform.  Discretized functions use the quadrature inner
product ``h * sum(conj(u) * v)``, which makes ``grid_inner`` a Riemann sum
for the integral inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BOUNDARY_CONDITIONS",
    "GridDiscretization",
    "grid_inner",
    "grid_norm",
    "derivative_operator",
    "laplacian",
    "separation_witness",
    "deficiency_vector",
    "rank_one_extension",
    "boundary_mismatch",
]

BOUNDARY_CONDITIONS = ("dirichlet", "periodic", "free")

#: Minimum number of nodes for the difference stencils to make sense.
MIN_NODES = 3


@dataclass(frozen=True)
class GridDiscretization:
    """Uniform sample grid on [0,1] for one boundary condition.

    For ``dirichlet`` and ``free`` the ``n`` nodes are the interior points
    ``k/(n+1)``, ``k = 1..n`` (the endpoints carry the boundary data and are
    not sampled).  For ``periodic`` the nodes are ``k/n``, ``k = 0..n-1``
    (the right endpoint is identified with the left).  Every node carries
    quadrature weight ``h``.
    """

    n: int
    bc: str

    def __post_init__(self):
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.n < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes, got {self.n}")

    @property
    def h(self) -> float:
        """Grid spacing: ``1/(n+1)`` for interior grids, ``1/n`` for periodic."""
        return 1.0 / self.n if self.bc == "periodic" else 1.0 / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        if self.bc == "periodic":
            return np.arange(self.n) * self.h
        return np.arange(1, self.n + 1) * self.h


def grid_inner(g: GridDiscretization, u, v) -> complex:
    """Quadrature inner product ``h * sum(conj(u) * v)``."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != (g.n,) or v.shape != (g.n,):
        raise ValueError("vectors must match the grid size")
    return complex(g.h * np.vdot(u, v))


def grid_norm(g: GridDiscretization, u) -> float:
    """Norm induced by :func:`grid_inner`."""
    return float(np.sqrt(grid_inner(g, u, u).real))


def derivative_operator(g: GridDiscretization, bc: str) -> np.ndarray:
    """Matrix of ``(1/i) d/dx`` on the grid under the given boundary law.

    Parameters
    ----------
    g : GridDiscretization
        Sample grid; its type must be compatible with ``bc`` (``dirichlet``
        and ``free`` share the interior grid, ``periodic`` needs the
        periodic grid).
    bc : {'dirichlet', 'periodic', 'free'}
        Boundary condition; see the module docstring.

    Returns
    -------
    numpy.ndarray
        Complex ``n x n`` matrix.  Exactly Hermitian for ``dirichlet`` and
        ``periodic``; intentionally non-Hermitian for ``free``.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    interior_grid = g.bc in ("dirichlet", "free")
    if bc == "periodic" and interior_grid:
        raise ValueError("periodic stencil requires a periodic grid")
    if bc != "periodic" and not interior_grid:
        raise ValueError(f"{bc!r} stencil requires an interior grid")

    n, h = g.n, g.h
    c = 1.0 / (2.0 * h)
    D = np.zeros((n, n))
    idx = np.arange(n - 1)
    D[idx, idx + 1] = c
    D[idx + 1, idx] = -c
    if bc == "periodic":
        D[0, -1] = -c
        D[-1, 0] = c
    elif bc == "free":
        # one-sided first-order differences at the two ends
        D[0, 0] = -1.0 / h
        D[0, 1] = 1.0 / h
        D[-1, -2] = -1.0 / h
        D[-1, -1] = 1.0 / h
    # dirichlet: ghost values beyond the ends are zero; nothing to add
    return D / 1j


def laplacian(g: GridDiscretization, bc: str) -> np.ndarray:
    """Second-order operator ``-d^2/dx^2`` on the grid.

    Uses the direct ``(-1, 2, -1)/h^2`` stencil, which is Hermitian
    positive semidefinite and has the expected spectrum: the Dirichlet
    eigenvalues converge to ``(k pi)^2`` and the periodic kernel is exactly
    the constants with next eigenvalue pair near ``4 pi^2``.

    Parameters
    ----------
    g : GridDiscretization
        Sample grid compatible with ``bc``.
    bc : {'dirichlet', 'periodic'}
        Boundary condition.

    Returns
    -------
    numpy.ndarray
        Real symmetric ``n x n`` matrix.
    """
    if bc not in ("dirichlet", "periodic"):
        raise ValueError("laplacian supports 'dirichlet' and 'periodic' only")
    if (bc == "periodic") != (g.bc == "periodic"):
        raise ValueError(f"{bc!r} stencil requires a matching grid type")
    n, h = g.n, g.h
    L = np.zeros((n, n))
    np.fill_diagonal(L, 2.0)
    idx = np.arange(n - 1)
    L[idx, idx + 1] = -1.0
    L[idx + 1, idx] = -1.0
    if bc == "periodic":
        L[0, -1] = -1.0
        L[-1, 0] = -1.0
    return L / h**2


def separation_witness(n: int) -> tuple[float, float]:
    """A single matrix element that separates the two Hermitian extensions.

    Evaluates ``(1, (L + I)^-1 1)`` in the quadrature inner product for the
    Dirichlet and the periodic second-order operator, using the constant
    function 1 as the witness vector.

    The periodic operator annihilates constants, so its value is exactly 1
    (up to solver rounding).  The Dirichlet operator sees the constant as a
    genuinely incompatible state, pushing its value down to about 0.0758
    (the value of a classical odd-mode series).  The gap between the two is
    what distinguishes the extensions by a bounded measurement.

    Parameters
    ----------
    n : int
        Grid resolution; at least 100 so both values sit in their
        asymptotic regime.

    Returns
    -------
    (valD, valP) : tuple of float
        Dirichlet and periodic witness values.
    """
    if n < 100:
        raise ValueError("witness needs n >= 100")
    gd = GridDiscretization(n, "dirichlet")
    gp = GridDiscretization(n, "periodic")
    vals = []
    for g, bc in ((gd, "dirichlet"), (gp, "periodic")):
        L = laplacian(g, bc)
        one = np.ones(g.n)
        u = np.linalg.solve(L + np.eye(g.n), one)
        vals.append(float(np.real(grid_inner(g, one, u))))
    return vals[0], vals[1]


def deficiency_vector(g: GridDiscretization) -> np.ndarray:
    """The normalized defect state ``e^(-x)`` sampled on an interior grid.

    The free derivative matrix ``A`` satisfies ``(A - i I) e ~ 0``: the
    sampled exponential is the lone square-integrable solution of the
    first-order defect equation for the operator without boundary
    conditions.  The returned vector is normalized to unit quadrature norm;
    the *unnormalized* squared norm is the Riemann sum of ``e^(-2x)``,
    i.e. ``(1 - e^-2)/2`` up to O(h) quadrature error.

    The residual ``||(A - i I) e||`` (plain Euclidean norm) decays at first
    order in ``h``: the one-sided end stencils contribute O(h) errors on two
    rows and dominate the O(h^2) interior truncation error.
    """
    if g.bc not in ("dirichlet", "free"):
        raise ValueError("the defect state lives on an interior grid")
    if g.n < 10:
        raise ValueError("need n >= 10 for a meaningful sample")
    e = np.exp(-g.nodes)
    return e / grid_norm(g, e)


def rank_one_extension(T1, e, weight: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Perturb an operator by the rank-one bump of a unit defect state.

    Builds ``K = I + (e, .) e`` in the inner product ``weight * sum(conj
    (u) * v)`` -- as a matrix, ``K = I + weight * e e*`` -- and the product
    ``T2 = K T1``.  Since ``K`` is Hermitian with eigenvalues ``{2, 1, ...,
    1}`` and inverse ``I - (weight/2) e e*``, the pair satisfies the exact
    adjoint relation ``T2* = T1* K``.

    Parameters
    ----------
    T1 : array_like
        Square matrix to perturb.
    e : array_like
        Defect direction with unit norm in the weighted inner product
        (``weight * ||e||^2 == 1`` within 1e-10).
    weight : float, optional
        Uniform quadrature weight of the inner product; ``1.0`` recovers
        the plain Euclidean case, a grid's ``h`` recovers its quadrature
        product.

    Returns
    -------
    (K, T2) : tuple of numpy.ndarray
    """
    T1 = np.asarray(T1, dtype=complex)
    e = np.asarray(e, dtype=complex)
    if T1.ndim != 2 or T1.shape[0] != T1.shape[1]:
        raise ValueError("T1 must be square")
    if e.shape != (T1.shape[0],):
        raise ValueError("e must match T1 in dimension")
    nrm2 = weight * float(np.vdot(e, e).real)
    if abs(nrm2 - 1.0) > 1e-10:
        raise ValueError(f"e must be normalized: weighted norm^2 = {nrm2!r}")
    K = np.eye(len(e)) + weight * np.outer(e, e.conj())
    return K, K @ T1


def boundary_mismatch(e, g: GridDiscretization, endpoints=None) -> float:
    """How far a sampled function is from satisfying periodic matching.

    Returns ``|e(0) - e(1)|``.  The endpoint values come from, in order of
    preference:

    - ``endpoints=(v0, v1)`` when the caller knows the analytic extension
      of the sampled function to ``x = 0`` and ``x = 1``;
    - the periodic identification for periodic grids (node 0 *is* ``x = 0``
      and also represents ``x = 1``), under which every periodic-grid
      vector matches exactly;
    - linear extrapolation from the two nodes nearest each end, accurate to
      O(h^2) for smooth samples.

    A vanishing mismatch is the discrete trace of membership in the
    periodic operator's domain; the defect state ``e^(-x)`` scores about
    0.9614, certifying that it lies outside.
    """
    e = np.asarray(e)
    if e.shape != (g.n,):
        raise ValueError("vector must match the grid size")
    if endpoints is not None:
        v0, v1 = endpoints
        return float(abs(v0 - v1))
    if g.bc == "periodic":
        return 0.0
    x = g.nodes
    v0 = e[0] + (e[1] - e[0]) * (0.0 - x[0]) / (x[1] - x[0])
    v1 = e[-1] + (e[-1] - e[-2]) * (1.0 - x[-1]) / (x[-1] - x[-2])
    return float(abs(v0 - v1))
