"""``(1/i) d/dx`` and ``-d^2/dx^2`` on [0,1], discretized under three boundary laws.

Each :class:`GridDiscretization` carries its law, and every operator here
reads the law from the grid.  The ``dirichlet`` and ``periodic`` operators are
Hermitian; ``free`` (one-sided end stencils, no boundary condition) is not.
:func:`laplacian` is the dense reference; the spectra and the witness solves
use the circulant structure instead, in O(n log n) (README,
``example-dirichlet``).  All grids are uniform, and discretized functions use
the quadrature inner product ``h * sum(conj(u) * v)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import _as_operator, _as_vector

__all__ = [
    "GridDiscretization",
    "grid_norm",
    "trapezoid_norm",
    "derivative_operator",
    "laplacian",
    "laplacian_eigenvalues",
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
    """``n`` uniform nodes on [0,1], each of quadrature weight ``h``, carrying the law ``bc``.

    ``dirichlet`` and ``free`` grids sample the interior points ``k/(n+1)``,
    ``k = 1..n``; a ``periodic`` grid samples ``k/n``, ``k = 0..n-1``.  Raises
    ``ValueError`` for an unknown law or ``n < MIN_NODES``.
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


def _grid_inner(g: GridDiscretization, u, v) -> complex:
    """Quadrature inner product ``h * sum(conj(u) * v)``."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != (g.n,) or v.shape != (g.n,):
        raise ValueError("vectors must match the grid size")
    return complex(g.h * np.vdot(u, v))


def grid_norm(g: GridDiscretization, u) -> float:
    """Norm of the quadrature inner product ``h * sum(conj(u) * v)``."""
    return float(np.sqrt(_grid_inner(g, u, u).real))


def _extrapolated_endpoints(g: GridDiscretization, u: np.ndarray):
    # u(0) and u(1) of an interior-grid sample, extrapolated linearly: O(h^2) for smooth u
    x = g.nodes
    v0 = u[0] + (u[1] - u[0]) * (0.0 - x[0]) / (x[1] - x[0])
    v1 = u[-1] + (u[-1] - u[-2]) * (1.0 - x[-1]) / (x[-1] - x[-2])
    return v0, v1


def trapezoid_norm(g: GridDiscretization, u) -> float:
    """L2 norm on [0,1] by the trapezoid rule, endpoints included: second-order for smooth samples.

    On a periodic grid it is :func:`grid_norm`; an interior grid adds the end
    terms with ``u(0)`` and ``u(1)`` extrapolated as in :func:`boundary_mismatch`.
    """
    sq = grid_norm(g, u) ** 2
    if g.bc != "periodic":
        v0, v1 = _extrapolated_endpoints(g, np.asarray(u))
        sq += g.h * (abs(v0) ** 2 + abs(v1) ** 2) / 2.0
    return float(np.sqrt(sq))


def derivative_operator(g: GridDiscretization) -> np.ndarray:
    """Complex matrix of ``(1/i) d/dx`` under ``g.bc``: exactly Hermitian unless ``free``."""
    n, h = g.n, g.h
    c = 1.0 / (2.0 * h)
    D = np.zeros((n, n))
    idx = np.arange(n - 1)
    D[idx, idx + 1] = c
    D[idx + 1, idx] = -c
    if g.bc == "periodic":
        D[0, -1] = -c
        D[-1, 0] = c
    elif g.bc == "free":
        # one-sided first-order differences at the two ends
        D[0, 0] = -1.0 / h
        D[0, 1] = 1.0 / h
        D[-1, -2] = -1.0 / h
        D[-1, -1] = 1.0 / h
    # dirichlet: ghost values beyond the ends are zero; nothing to add
    return D / 1j


def _check_laplacian(g: GridDiscretization) -> None:
    if g.bc == "free":
        raise ValueError("laplacian supports 'dirichlet' and 'periodic' grids only")


def laplacian(g: GridDiscretization) -> np.ndarray:
    """Real symmetric semidefinite ``(-1, 2, -1)/h^2`` matrix of ``-d^2/dx^2`` under ``g.bc``.

    The Dirichlet eigenvalues converge to ``(k pi)^2``; the periodic kernel is
    the constants.  A ``free`` grid raises ``ValueError``.
    """
    _check_laplacian(g)
    n, h = g.n, g.h
    L = np.zeros((n, n))
    np.fill_diagonal(L, 2.0)
    idx = np.arange(n - 1)
    L[idx, idx + 1] = -1.0
    L[idx + 1, idx] = -1.0
    if g.bc == "periodic":
        L[0, -1] = -1.0
        L[-1, 0] = -1.0
    return L / h**2


def _symbol(g: GridDiscretization) -> np.ndarray:
    # DFT-order eigenvalues of the (2, -1, ..., -1)/h^2 circulant: laplacian(g) itself if
    # periodic, else the length-2(n+1) one, which maps (0, u, 0, -reversed(u)) as L maps u
    col = np.zeros(g.n if g.bc == "periodic" else 2 * (g.n + 1))
    col[0] = 2.0
    col[1] = col[-1] = -1.0
    return np.fft.fft(col / g.h**2).real


def laplacian_eigenvalues(g: GridDiscretization, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of :func:`laplacian`, ascending, from one FFT.

    Each carries an absolute error of a few ``eps * 4/h^2``: from n = 10^4 on
    that is as large as the O(h^2) discretization error of the lowest
    Dirichlet eigenvalue.  Raises ``ValueError`` for a ``free`` grid or
    unless ``1 <= count <= g.n``.
    """
    _check_laplacian(g)
    if not 1 <= count <= g.n:
        raise ValueError(f"count must lie in [1, {g.n}], got {count}")
    if g.bc == "dirichlet":
        return _symbol(g)[1:count + 1]
    return np.sort(_symbol(g))[:count]


def separation_witness(n: int) -> tuple[float, float]:
    """``(valD, valP)``: ``(1, (L + I)^-1 1)`` in the grid inner product, Dirichlet then periodic.

    ``valP`` is 1 up to rounding (``L`` annihilates constants) and ``valD``
    about 0.0758, so the gap separates the two Hermitian extensions by a
    bounded measurement.  Raises ``ValueError`` for ``n < 100``, below the
    asymptotic regime.
    """
    if n < 100:
        raise ValueError("witness needs n >= 100")
    one = np.ones(n)

    def solve(g, rhs):
        return np.fft.ifft(np.fft.fft(rhs) / (_symbol(g) + 1.0)).real

    gd = GridDiscretization(n, "dirichlet")
    uD = solve(gd, np.concatenate(([0.0], one, [0.0], -one)))[1:n + 1]

    gp = GridDiscretization(n, "periodic")
    uP = solve(gp, one)

    return float(_grid_inner(gd, one, uD).real), float(_grid_inner(gp, one, uP).real)


def deficiency_vector(g: GridDiscretization) -> np.ndarray:
    """The defect state ``e^(-x)`` of the ``free`` operator on an interior grid, of unit grid norm.

    ``||(A - i I) e||`` is O(h) for the ``free`` matrix ``A`` (its one-sided end
    rows).  The grid norm is only first-order accurate, so divide a value
    compared with its continuum limit by :func:`trapezoid_norm`.  Raises
    ``ValueError`` for a periodic grid or ``n < 10``.
    """
    if g.bc not in ("dirichlet", "free"):
        raise ValueError("the defect state lives on an interior grid")
    if g.n < 10:
        raise ValueError("need n >= 10 for a meaningful sample")
    e = np.exp(-g.nodes)
    return e / grid_norm(g, e)


def rank_one_extension(T1, e, weight: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """``(K, K T1)``, ``K = I + weight * e e*`` the rank-one bump ``I + (e, .) e`` of a unit ``e``.

    ``K`` is Hermitian with eigenvalues ``{2, 1, ..., 1}``, so ``(K T1)* = T1* K``
    exactly.  ``weight`` is the inner product's quadrature weight (a grid's
    ``h``; 1 is Euclidean).  Both are ``float64`` when ``T1`` and ``e`` are real,
    else ``complex128``.  Raises ``ValueError`` for a non-square or non-finite
    input, a length mismatch, or ``|weight * ||e||^2 - 1| > 1e-10``.
    """
    T1 = _as_operator(T1)
    e = _as_vector(e)
    e = e.astype(np.complex128 if np.iscomplexobj(e) else np.float64, copy=False)
    if e.shape != (T1.shape[0],):
        raise ValueError("e must match T1 in dimension")
    nrm2 = weight * float(np.vdot(e, e).real)
    if not abs(nrm2 - 1.0) <= 1e-10:
        raise ValueError(f"e must be normalized: weighted norm^2 = {nrm2!r}")
    K = np.eye(len(e)) + weight * np.outer(e, e.conj())
    return K, K @ T1


def boundary_mismatch(e, g: GridDiscretization) -> float:
    """``|e(0) - e(1)|``, the periodic matching defect of a sample: 0 on a periodic grid.

    On an interior grid both ends are extrapolated linearly, O(h^2) for smooth
    samples.  The L2-normalized defect state ``e^(-x)`` scores about 0.9614;
    divide by :func:`trapezoid_norm` to read that value off a sample.
    """
    e = np.asarray(e)
    if e.shape != (g.n,):
        raise ValueError("vector must match the grid size")
    if g.bc == "periodic":
        return 0.0
    v0, v1 = _extrapolated_endpoints(g, e)
    return float(abs(v0 - v1))
