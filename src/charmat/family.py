"""Direct integrals of matrix families sampled on a parameter grid.

A *family* assigns one ``n x n`` real or complex matrix to every node of a
finite grid of real parameters; the fibers are stored as one ``(m, n, n)``
stack.  Its *direct integral* is the block-diagonal operator acting
fiberwise on vector-valued sections, with the grid's quadrature weights
supplying the discrete L2 structure.  The routines here verify that the
characteristic matrix, adjoint, modulus, inverse and polynomial calculus
all commute with the block-diagonal assembly, realize the fiberwise
sum/product laws, reconstruct a family from its resolvents, and implement
the classical truncation of sections by growth level.

Fiberwise constructions run once on the stack with numpy's batched linear
algebra and are never assembled.  The fiber characteristic matrices are one
batched Gram pass of ``graph``, checked against the projection onto the SVD
basis of each fiber's graph; the assembled operator is audited by applying it and the
fiberwise constructions to a few seeded Gaussian probe vectors, so the
suite's residuals are probe estimates of relative Frobenius residuals and
no product of dense matrices is formed; its 2-norm and positivity come off
its diagonal tiles, within Weyl's bound.  ``hilbert``'s Hermitian and kernel
predicates judge the stack in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# char_matrix is unused here, but perfbench/tracer.py wraps family.char_matrix
from .graph import (  # noqa: F401
    IDENTITY_TOL, CharacteristicMatrix, _basis_blocks, _char_blocks, char_matrix)
from .hilbert import _as_operator, _kernel_trivial, _spectral, adjoint, is_hermitian

__all__ = [
    "ParameterGrid",
    "OperatorFamily",
    "FamilyVector",
    "family_norm",
    "char_matrix_fiberwise",
    "decomposition_suite",
    "lennon_sum",
    "lennon_product",
    "resolvent_reconstruct",
    "resolvent_limit_check",
    "truncate_family_vector",
]

#: Default relative tolerance for the decomposition suite's residual items.
SUITE_TOL = 1e-9

#: Property tolerance used by the suite's yes/no classifications
#: (Hermitian / positive / normal); injectivity is ``hilbert``'s kernel rule.
CLASSIFY_TOL = 1e-10

#: Ascending coefficients of the suite's ``polynomial`` item: ``x^3 - 2x``.
SUITE_POLY = (0.0, -2.0, 0.0, 1.0)

#: Number of Gaussian probe columns the suite applies the assembled operator to.
SUITE_PROBES = 8

#: Seed of the suite's probes when the caller gives none: a family always gets one report.
SUITE_SEED = 0


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    if len(nodes) == 1:
        return np.ones(1)
    w = np.empty(len(nodes))
    w[0] = (nodes[1] - nodes[0]) / 2.0
    w[-1] = (nodes[-1] - nodes[-2]) / 2.0
    w[1:-1] = (nodes[2:] - nodes[:-2]) / 2.0
    return w


@dataclass(frozen=True)
class ParameterGrid:
    """Strictly increasing real nodes with positive quadrature weights.

    Parameters
    ----------
    nodes : array_like
        Strictly increasing real parameter values.
    weights : array_like, optional
        Positive quadrature weights, one per node.  Defaults to the
        trapezoidal weights of the nodes (a single node gets weight 1).
    """

    nodes: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) == 0:
            raise ValueError("nodes must be a nonempty 1-d real array")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
        if len(nodes) > 1 and not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if self.weights is None:
            weights = _trapezoid_weights(nodes)
        else:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != nodes.shape:
                raise ValueError("weights must match nodes in length")
            if not np.all(np.isfinite(weights)) or not np.all(weights > 0):
                raise ValueError("weights must be finite and positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def m(self) -> int:
        return len(self.nodes)

    def matches(self, other: "ParameterGrid") -> bool:
        return (np.array_equal(self.nodes, other.nodes)
                and np.array_equal(self.weights, other.weights))


@dataclass(frozen=True)
class OperatorFamily:
    """One square matrix per grid node, all of a common fiber dimension.

    Each fiber passes :func:`~charmat.hilbert._as_operator`: real fibers are
    stored as ``float64``, complex ones as ``complex128``.
    """

    grid: ParameterGrid
    fibers: np.ndarray

    def __post_init__(self):
        fibers = np.stack([_as_operator(F) for F in self.fibers])
        if fibers.shape[0] != self.grid.m:
            raise ValueError(f"{fibers.shape[0]} fibers for {self.grid.m} grid nodes")
        object.__setattr__(self, "fibers", fibers)

    @property
    def n(self) -> int:
        """Fiber dimension."""
        return self.fibers.shape[1]

    @property
    def m(self) -> int:
        """Number of grid nodes."""
        return self.grid.m

    def assemble(self) -> np.ndarray:
        """Block-diagonal matrix with the fibers along the diagonal."""
        m, n = self.m, self.n
        out = np.zeros((m, n, m, n), dtype=self.fibers.dtype)
        out[np.arange(m), :, np.arange(m), :] = self.fibers
        return out.reshape(m * n, m * n)

    def apply(self, f: "FamilyVector") -> "FamilyVector":
        """Act fiberwise: ``(T f)(t_k) = T(t_k) f(t_k)``.

        The same action as the assembled block diagonal on the stacked
        sections, without forming it.
        """
        if not f.grid.matches(self.grid):
            raise ValueError("section grid does not match the family grid")
        return FamilyVector(f.grid, np.einsum("kij,kj->ki", self.fibers, f.sections))


@dataclass(frozen=True)
class FamilyVector:
    """A section: one fiber vector per grid node."""

    grid: ParameterGrid
    sections: np.ndarray

    def __post_init__(self):
        sections = np.asarray(self.sections, dtype=complex)
        if sections.ndim != 2 or sections.shape[0] != self.grid.m:
            raise ValueError(f"sections must be (m, n) with m = {self.grid.m}, "
                             f"got {sections.shape}")
        if not np.all(np.isfinite(sections)):
            raise ValueError("sections contain non-finite entries")
        object.__setattr__(self, "sections", sections)


def family_norm(fam: OperatorFamily) -> float:
    """Largest fiber operator 2-norm.

    Coincides with the operator 2-norm of the assembled block diagonal (the
    discrete essential supremum of the fiber norms).
    """
    return float(np.linalg.norm(fam.fibers, 2, axis=(1, 2)).max())


def _fiber_char(F: np.ndarray):
    """The fibers' characteristic matrices by two routes, and how far apart the routes are.

    Returns the Gram-route blocks ``(p11, p12, p21, p22)`` of the ``(m, n, n)``
    stack, its batched ``svd`` ``(U, s, Vh)``, and per block name the absolute
    Frobenius distance, over all fibers, between the Gram-route block and the blocks of
    the SVD basis ``[V c; U s c]``, ``c = 1/sqrt(1 + s^2)``, finite where ``s^2`` overflows.
    """
    blocks = _char_blocks(F)  # first: an overflowing Gram matrix raises before any other work
    U, s, Vh = np.linalg.svd(F)
    c = 1.0 / np.hypot(1.0, s)
    s11, s21, s22 = _basis_blocks(adjoint(Vh) * c[..., None, :], U * (s * c)[..., None, :])
    f11, f12, f21, f22 = blocks
    gaps = {"p11": f11 - s11, "p12": f12 - adjoint(s21), "p21": f21 - s21, "p22": f22 - s22}
    return blocks, (U, s, Vh), {b: float(np.linalg.norm(g)) for b, g in gaps.items()}


def char_matrix_fiberwise(fam: OperatorFamily):
    """Characteristic matrices of all fibers, with a cross-check by an independent route.

    Returns
    -------
    chars : list of CharacteristicMatrix
        One characteristic matrix per fiber, as views into the blocks of
        one batched Gram pass over the ``(m, n, n)`` stack.
    residuals : dict
        For each block name, the absolute Frobenius distance, over all
        fibers, between those blocks and the projection onto the SVD basis
        of each fiber's graph: the ``gaps`` of
        :func:`decomposition_suite`'s ``char_matrix`` item.  All four are at
        rounding level for any family; nothing dense is factored.
    """
    blocks, _, gaps = _fiber_char(fam.fibers)
    chars = [CharacteristicMatrix(*(b[k] for b in blocks)) for k in range(fam.m)]
    return chars, gaps


def _nonnegative(w: np.ndarray, tol: float) -> np.ndarray:
    # every eigenvalue of a row of w is >= -tol * max(1, max |w|) of its row
    return w.min(axis=-1) >= -tol * np.maximum(1.0, np.abs(w).max(axis=-1))


def _is_normal(A: np.ndarray, tol: float) -> np.ndarray:
    # ||A A* - A* A||_F <= tol * max(1, ||A||_F^2), per matrix of a stack
    Ah = adjoint(A)
    dev = np.linalg.norm(A @ Ah - Ah @ A, axis=(-2, -1))
    return dev <= tol * np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)) ** 2)


def _polynomial_on(coeffs, A: np.ndarray, X: np.ndarray) -> np.ndarray:
    # p(A) X by Horner's rule on the columns of X, for a matrix or an (m, n, n) stack A
    # with X of shape (n, k) or (m, n, k); coeffs ascending (c0 + c1 x + ... + cd x^d)
    out = coeffs[-1] * X
    for c in reversed(coeffs[:-1]):
        out = A @ out + c * X
    return out


def decomposition_suite(fam: OperatorFamily, seed: int | None = None) -> dict:
    """Verify that operator calculus commutes with block-diagonal assembly.

    Each item compares a construction applied to the assembled operator ``A``
    against the fiberwise constructions ``B`` on the ``(m, n, n)`` stack:

    - ``adjoint``    : conjugate transpose (always applicable)
    - ``char_matrix``: the fibers' Gram-route blocks satisfy ``p21 = A p11``
      and ``I - p11 = A* p21``; ``gaps`` holds each block's absolute Frobenius
      distance to the projection onto the SVD basis of each fiber's graph
    - ``modulus``    : ``B^2 = A* A`` for ``B = |F|``, positive by
      construction, so ``B = |A|`` (always applicable)
    - ``selfadjoint``: the assembled operator is Hermitian iff every fiber is
    - ``positive``   : positive semidefinite iff every fiber is
    - ``normal``     : normal iff every fiber is
    - ``inverse``    : ``A B = I``; skipped unless every fiber is injective
    - ``polynomial`` : the fixed polynomial ``x^3 - 2x`` (``SUITE_POLY``),
      one Horner rule on both sides: the fibers on the stacked probes, ``A``
      on ``X``; meaningful for normal fibers, and reported with a note when
      some fiber is not normal

    ``adjoint`` is one dense pass, its residual ``||A* - B||_F / max(1,
    ||A||_F)``.  The other items never multiply or invert dense matrices:
    they apply ``A`` and each ``B``, on the stack, to ``k = SUITE_PROBES``
    standard Gaussian columns ``X`` from ``np.random.default_rng(seed)``
    (``SUITE_SEED`` when ``seed`` is None), and an identity ``lhs = rhs``
    reports ``||lhs X - rhs X||_F / max(sqrt(k), ||rhs X||_F)``.  As ``E
    ||M X||_F^2 = k ||M||_F^2``, that estimates its relative Frobenius
    residual; it is not the dense distance.  ``normal`` judges ``||A A* -
    A* A||_F``, so estimated, against ``CLASSIFY_TOL * max(1,
    ||A||_F^2)``.  Classification items record ``0.0`` for an equivalence
    that holds and ``1.0`` otherwise, against a bound of 0; every other
    item is bounded by ``SUITE_TOL``.  Precondition violations do not
    raise; the affected item carries ``applicable: False`` and a note.

    ``A`` is never factored.  The ``adjoint`` pass copies its diagonal tiles
    ``D`` and measures ``off = ||A - bd(D)||_F``.  By Weyl's inequality each
    singular value of ``A``, and each eigenvalue of ``(A + A*)/2``, is within
    ``off`` of one of ``bd(D)``'s: ``svd(D)`` gives ``A``'s 2-norm, and a
    Hermitian ``A`` is positive if ``eigvalsh((D + D*)/2) - off`` is; for a
    block-diagonal ``A``, exactly.  The fibers get each factorization once.

    Returns
    -------
    dict
        Item name -> ``{"residual", "bound", "applicable", "note"}``; an item
        holds when ``residual <= bound``.  The ``char_matrix`` item also
        carries ``gaps``, each bounded by ``gap_bound = IDENTITY_TOL``, and
        ``modulus`` that 2-norm, ``norm``, and ``norm_error = off``, a bound
        on its distance to ``||A||_2``.
    """
    F = fam.fibers
    m, n = fam.m, fam.n
    (f11, _, f21, _), (_, sf, Vhf), gaps = _fiber_char(F)  # raises before dense work
    A = fam.assemble()
    k = SUITE_PROBES
    X = np.random.default_rng(SUITE_SEED if seed is None else seed).standard_normal((m * n, k))
    report = {}

    def item(name, residual, bound=SUITE_TOL, applicable=True, note=""):
        report[name] = {"residual": float(residual), "bound": bound,
                        "applicable": applicable, "note": note}

    def fibers_on(B, Y):
        # the assembly of the stack B applied to Y, without assembling B
        return (B @ Y.reshape(m, n, -1)).reshape(m * n, -1)

    def adjoint_on(Y):
        # A* Y, without forming A*
        return np.conjugate(A.T @ np.conjugate(Y))

    def estimate(lhs, rhs):
        # the relative residual of lhs = rhs on the probes
        return np.linalg.norm(lhs - rhs) / max(np.sqrt(k), np.linalg.norm(rhs))

    def classified(name, whole, fiberwise):
        whole, fiberwise = bool(whole), bool(fiberwise)
        item(name, 0.0 if whole == fiberwise else 1.0, 0.0,
             note=f"assembled={whole}, all_fibers={fiberwise}")

    gap = np.conjugate(A.T, order="C")  # A*, fresh; its diagonal tiles are D*
    tiles = np.arange(m)
    Dh = gap.reshape(m, n, m, n)[tiles, :, tiles, :]
    gap.reshape(m, n, m, n)[tiles, :, tiles, :] = 0
    off = float(np.linalg.norm(gap))  # ||A - bd(D)||_F, with no cancellation
    del gap
    norm_fro = np.linalg.norm(A)  # ||A||_F, for the adjoint item and the normal verdict
    resid = np.hypot(off, np.linalg.norm(Dh - adjoint(F))) / max(1.0, norm_fro)
    item("adjoint", resid)
    D = adjoint(Dh)

    AX = A @ X
    AhAX = adjoint_on(AX)  # for the modulus identity and the normal verdict
    modF = _spectral(adjoint(Vhf), sf, Vhf)
    item("modulus", estimate(fibers_on(modF, fibers_on(modF, X)), AhAX))
    # Weyl: A's singular values, and the eigenvalues of (A + A*)/2, are within off of bd(D)'s
    report["modulus"].update(norm=float(np.linalg.svd(D, compute_uv=False).max()), norm_error=off)

    p11X, p21X = fibers_on(f11, X), fibers_on(f21, X)
    item("char_matrix", max(estimate(p21X, A @ p11X), estimate(X - p11X, adjoint_on(p21X))))
    report["char_matrix"].update(gaps=gaps, gap_bound=IDENTITY_TOL)

    # property equivalences: assembled iff all fibers
    hermitian = is_hermitian(A, CLASSIFY_TOL)
    fiber_hermitian = is_hermitian(F, CLASSIFY_TOL)
    fiber_positive = _nonnegative(np.linalg.eigvalsh((F + adjoint(F)) / 2.0), CLASSIFY_TOL)
    fiber_normal = _is_normal(F, CLASSIFY_TOL).all()
    classified("selfadjoint", hermitian, fiber_hermitian.all())
    classified("positive", hermitian and _nonnegative(
        np.linalg.eigvalsh((D + Dh) / 2.0).ravel() - off, CLASSIFY_TOL),
        (fiber_positive & fiber_hermitian).all())
    commutator = np.linalg.norm(A @ adjoint_on(X) - AhAX) / np.sqrt(k)
    classified("normal", commutator <= CLASSIFY_TOL * max(1.0, norm_fro ** 2), fiber_normal)

    # injectivity is read off sf
    if _kernel_trivial(sf)[0].all():
        item("inverse", estimate(A @ fibers_on(np.linalg.inv(F), X), X))
    else:
        item("inverse", 0.0, applicable=False,
             note="skipped: some fiber is not injective")

    # one Horner rule on both sides: the fibers on the (m, n, k) probe stack, A on X
    pFX = _polynomial_on(SUITE_POLY, F, X.reshape(m, n, k)).reshape(m * n, k)
    item("polynomial", estimate(pFX, _polynomial_on(SUITE_POLY, A, X)))
    if not fiber_normal:
        report["polynomial"]["note"] = \
            "some fiber is not normal; the block identity still holds for plain polynomials"

    return report


def _require_same_grid(a: OperatorFamily, b: OperatorFamily):
    if not a.grid.matches(b.grid):
        raise ValueError("families live on different grids")
    if a.n != b.n:
        raise ValueError(f"fiber dimensions differ: {a.n} vs {b.n}")


def lennon_sum(a: OperatorFamily, b: OperatorFamily) -> OperatorFamily:
    """Fiberwise sum; its assembly equals the sum of the assemblies."""
    _require_same_grid(a, b)
    return OperatorFamily(a.grid, a.fibers + b.fibers)


def lennon_product(a: OperatorFamily, b: OperatorFamily) -> OperatorFamily:
    """Fiberwise product; its assembly equals the product of the assemblies."""
    _require_same_grid(a, b)
    return OperatorFamily(a.grid, np.einsum("kij,kjl->kil", a.fibers, b.fibers))


def resolvent_reconstruct(res: OperatorFamily, alpha) -> OperatorFamily:
    """Rebuild a family from its resolvent fibers.

    Given fibers ``R(t_k) = (T(t_k) - alpha_k I)^-1``, returns the family
    ``T(t_k) = alpha_k I + R(t_k)^-1``.

    Parameters
    ----------
    res : OperatorFamily
        Resolvent fibers, each invertible.
    alpha : array_like
        One shift per grid node (complex or real).

    Raises
    ------
    numpy.linalg.LinAlgError
        If some resolvent fiber is singular.
    """
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (res.m,):
        raise ValueError(f"need {res.m} shifts, got shape {alpha.shape}")
    try:
        Rinv = np.linalg.inv(res.fibers)
    except np.linalg.LinAlgError as exc:
        # slogdet runs the same LU: a zero pivot is a zero sign, with no warning
        k = np.argmin(np.linalg.slogdet(res.fibers)[0] != 0)
        raise np.linalg.LinAlgError(
            f"resolvent fiber {k} is singular and cannot be inverted") from exc
    return OperatorFamily(res.grid, alpha[:, None, None] * np.eye(res.n) + Rinv)


def resolvent_limit_check(
    seq: list[OperatorFamily],
    limit: OperatorFamily,
    z: complex,
    tol: float = 1e-6,
) -> dict:
    """Test fiberwise resolvent convergence of a sequence of families.

    For every fiber index ``k`` and every family ``T_j`` in ``seq``, computes
    the resolvent gap ``||(T_j(t_k) - z)^-1 - (T(t_k) - z)^-1||_2`` against
    the limit family.  A fiber counts as converged when its final gap is at
    most ``tol`` and its gap profile is nonincreasing (up to rounding slack)
    over the second half of the sequence.

    Parameters
    ----------
    seq : list of OperatorFamily
        Approximating families, all Hermitian-fibered, on the limit's grid.
    limit : OperatorFamily
        Hermitian-fibered limit family.
    z : complex
        Spectral parameter with nonzero imaginary part.

    Returns
    -------
    dict
        ``gaps`` (len(seq) x m array), ``converged`` (per-fiber bools),
        ``all_converged``.
    """
    if z.imag == 0:
        raise ValueError("z must have nonzero imaginary part")
    if not seq:
        raise ValueError("empty approximating sequence")
    for fam in [*seq, limit]:
        if not fam.grid.matches(limit.grid) or fam.n != limit.n:
            raise ValueError("all families must share the limit's grid and fiber size")
        hermitian = is_hermitian(fam.fibers)
        if not hermitian.all():
            raise ValueError(f"fiber {np.argmin(hermitian)} is not Hermitian")

    I = np.eye(limit.n)
    R_lim = np.linalg.inv(limit.fibers - z * I)
    gaps = np.stack([np.linalg.norm(np.linalg.inv(fam.fibers - z * I) - R_lim, 2, axis=(1, 2))
                     for fam in seq])

    tail = gaps[len(seq) // 2:]
    slack = 1e-12
    converged = (gaps[-1] <= tol) & np.all(np.diff(tail, axis=0) <= slack + 1e-9 * tail[:-1], axis=0)
    return {
        "gaps": gaps,
        "converged": converged,
        "all_converged": bool(converged.all()),
    }


def truncate_family_vector(fam: OperatorFamily, f: FamilyVector, level: float) -> FamilyVector:
    """Zero the sections outside the classical truncation set.

    Keeps the section at node ``t_k`` exactly when ``||T(t_k) f(t_k)|| <=
    level`` and ``|t_k| <= level``; all other sections are set to zero.
    As ``level`` grows the kept set only grows, so the weighted distance to
    ``f`` is nonincreasing and reaches zero once ``level`` dominates every
    fiber's action and node.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    action = fam.apply(f).sections
    keep = (np.linalg.norm(action, axis=1) <= level) & (np.abs(fam.grid.nodes) <= level)
    out = np.where(keep[:, None], f.sections, 0.0)
    return FamilyVector(f.grid, out)
