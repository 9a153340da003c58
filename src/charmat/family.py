"""Direct integrals of matrix families sampled on a parameter grid.

A *family* assigns one ``n x n`` complex matrix to every node of a finite
grid of real parameters.  Its *direct integral* is the block-diagonal
operator acting fiberwise on vector-valued sections, with the grid's
quadrature weights supplying the discrete L2 structure.  The routines here
verify that the characteristic matrix, adjoint, modulus, inverse and
polynomial calculus all commute with the block-diagonal assembly, realize
the fiberwise sum/product laws, reconstruct a family from its resolvents,
and implement the classical truncation of sections by growth level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import char_matrix
from .hilbert import _as_square_matrix, adjoint, is_hermitian, kernel_trivial

__all__ = [
    "ParameterGrid",
    "OperatorFamily",
    "FamilyVector",
    "family_inner",
    "family_vector_norm",
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
#: (Hermitian / positive / normal / injective).
CLASSIFY_TOL = 1e-10

#: Ascending coefficients of the suite's ``polynomial`` item: ``x^3 - 2x``.
SUITE_POLY = (0.0, -2.0, 0.0, 1.0)


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
        return np.array_equal(self.nodes, other.nodes) and np.array_equal(
            self.weights, other.weights
        )


@dataclass(frozen=True)
class OperatorFamily:
    """One square matrix per grid node, all of a common fiber dimension."""

    grid: ParameterGrid
    fibers: np.ndarray

    def __post_init__(self):
        fibers = np.asarray(self.fibers)
        if fibers.ndim == 1 and fibers.dtype == object:
            fibers = np.stack([np.asarray(f) for f in fibers])
        elif fibers.ndim != 3:
            fibers = np.stack([_as_square_matrix(f) for f in fibers])
        fibers = fibers.astype(complex)
        if fibers.shape[0] != self.grid.m:
            raise ValueError(
                f"{fibers.shape[0]} fibers for {self.grid.m} grid nodes"
            )
        if fibers.shape[1] != fibers.shape[2]:
            raise ValueError("fibers must be square matrices")
        if not np.all(np.isfinite(fibers)):
            raise ValueError("fibers contain non-finite entries")
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
        return scipy.linalg.block_diag(*self.fibers)

    def map_fibers(self, fn) -> "OperatorFamily":
        """New family with ``fn`` applied to every fiber."""
        return OperatorFamily(self.grid, np.stack([fn(F) for F in self.fibers]))

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
            raise ValueError(
                f"sections must be (m, n) with m = {self.grid.m}, got {sections.shape}"
            )
        if not np.all(np.isfinite(sections)):
            raise ValueError("sections contain non-finite entries")
        object.__setattr__(self, "sections", sections)


def family_inner(f: FamilyVector, g: FamilyVector) -> complex:
    """Weighted L2 inner product ``sum_k w_k (f_k, g_k)`` of two sections.

    Conjugate linear in ``f``, linear in ``g``; positive definite because
    all weights are positive.
    """
    if not f.grid.matches(g.grid):
        raise ValueError("sections live on different grids")
    return complex(np.sum(f.grid.weights * np.sum(np.conj(f.sections) * g.sections, axis=1)))


def family_vector_norm(f: FamilyVector) -> float:
    """Norm induced by :func:`family_inner`."""
    return float(np.sqrt(family_inner(f, f).real))


def family_norm(fam: OperatorFamily) -> float:
    """Largest fiber operator 2-norm.

    Coincides with the operator 2-norm of the assembled block diagonal (the
    discrete essential supremum of the fiber norms).
    """
    return max(float(np.linalg.norm(F, 2)) for F in fam.fibers)


def char_matrix_fiberwise(fam: OperatorFamily):
    """Characteristic matrices of all fibers, with a block-diagonal cross-check.

    Returns
    -------
    chars : list of CharacteristicMatrix
        One characteristic matrix per fiber.
    residuals : dict
        For each block name, the Frobenius distance between the block of
        the assembled operator's characteristic matrix and the
        block-diagonal assembly of the fiber blocks.  All four are at
        rounding level for any family.
    """
    chars = [char_matrix(F) for F in fam.fibers]
    total = char_matrix(fam.assemble())
    residuals = {}
    for b in ("p11", "p12", "p21", "p22"):
        stacked = scipy.linalg.block_diag(*[getattr(c, b) for c in chars])
        residuals[b] = float(np.linalg.norm(getattr(total, b) - stacked, "fro"))
    return chars, residuals


def _matrix_polynomial(coeffs, A: np.ndarray) -> np.ndarray:
    # Horner evaluation; coeffs are ascending (c0 + c1 x + c2 x^2 + ...).
    n = A.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for c in reversed(list(coeffs)):
        out = out @ A + c * np.eye(n)
    return out


def _modulus(A: np.ndarray) -> np.ndarray:
    # |A| = (A* A)^(1/2), via the SVD: forming the Gram matrix and taking
    # its square root would amplify rounding near a kernel by 1/sqrt
    _, s, Vh = np.linalg.svd(A)
    return adjoint(Vh) @ (s[:, None] * Vh)


def _is_positive(A, tol):
    if not is_hermitian(A, tol):
        return False
    w = np.linalg.eigvalsh((A + adjoint(A)) / 2.0)
    return bool(w.min() >= -tol * max(1.0, abs(w).max()))


def _is_normal(A, tol):
    scale = max(1.0, np.linalg.norm(A, "fro") ** 2)
    return np.linalg.norm(A @ adjoint(A) - adjoint(A) @ A, "fro") <= tol * scale


def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(diff, "fro") / max(1.0, np.linalg.norm(ref, "fro")))


def decomposition_suite(
    fam: OperatorFamily,
    other: OperatorFamily | None = None,
    tol: float = SUITE_TOL,
) -> dict:
    """Verify that operator calculus commutes with block-diagonal assembly.

    Each item compares a construction applied to the assembled operator
    against the assembly of the fiberwise constructions:

    - ``adjoint``    : conjugate transpose (always applicable)
    - ``modulus``    : ``|T| = (T* T)^(1/2)`` (always applicable)
    - ``selfadjoint``: the assembled operator is Hermitian iff every fiber is
    - ``positive``   : positive semidefinite iff every fiber is
    - ``normal``     : normal iff every fiber is
    - ``inverse``    : matrix inverse; skipped unless every fiber is injective
    - ``polynomial`` : the fixed polynomial ``x^3 - 2x`` (``SUITE_POLY``);
      meaningful for normal fibers, and reported with a note when some
      fiber is not normal
    - ``inclusion``  : only when ``other`` is given -- fiberwise equality of
      the two families compared against equality of their assemblies

    Residual items are relative Frobenius distances; classification items
    record ``0.0`` for an equivalence that holds and ``1.0`` otherwise.
    Precondition violations do not raise; the affected item carries
    ``applicable: False`` and a note.

    Returns
    -------
    dict
        Item name -> ``{"residual", "pass", "applicable", "note"}``.
    """
    A = fam.assemble()
    report = {}

    def item(name, residual, ok, applicable=True, note=""):
        report[name] = {
            "residual": float(residual),
            "pass": bool(ok),
            "applicable": applicable,
            "note": note,
        }

    # adjoint commutes with assembly
    adj = _rel(adjoint(A) - fam.map_fibers(adjoint).assemble(), adjoint(A))
    item("adjoint", adj, adj <= tol)

    # modulus commutes with assembly
    modA = _modulus(A)
    mod = _rel(modA - fam.map_fibers(_modulus).assemble(), modA)
    item("modulus", mod, mod <= tol)

    # property equivalences: assembled iff all fibers
    for name, pred in (
        ("selfadjoint", is_hermitian),
        ("positive", _is_positive),
        ("normal", _is_normal),
    ):
        whole = pred(A, CLASSIFY_TOL)
        fiberwise = all(pred(F, CLASSIFY_TOL) for F in fam.fibers)
        item(name, 0.0 if whole == fiberwise else 1.0, whole == fiberwise,
             note=f"assembled={whole}, all_fibers={fiberwise}")

    # inverse commutes with assembly, when defined
    if all(kernel_trivial(F, tol=CLASSIFY_TOL)[0] for F in fam.fibers):
        invA = np.linalg.inv(A)
        inv = _rel(invA - fam.map_fibers(np.linalg.inv).assemble(), invA)
        item("inverse", inv, inv <= tol)
    else:
        item("inverse", 0.0, True, applicable=False,
             note="skipped: some fiber is not injective")

    # polynomial calculus commutes with assembly
    pA = _matrix_polynomial(SUITE_POLY, A)
    pfibers = fam.map_fibers(lambda F: _matrix_polynomial(SUITE_POLY, F))
    presid = _rel(pA - pfibers.assemble(), pA)
    note = "" if all(_is_normal(F, CLASSIFY_TOL) for F in fam.fibers) else \
        "some fiber is not normal; the block identity still holds for plain polynomials"
    item("polynomial", presid, presid <= tol, note=note)

    if other is not None:
        if other.grid.m != fam.m or other.n != fam.n:
            item("inclusion", 1.0, False, applicable=False, note="shape mismatch")
        else:
            fiber_eq = all(
                np.linalg.norm(F - G, "fro") <= CLASSIFY_TOL * max(1.0, np.linalg.norm(F, "fro"))
                for F, G in zip(fam.fibers, other.fibers)
            )
            whole_eq = _rel(A - other.assemble(), A) <= CLASSIFY_TOL
            item("inclusion", 0.0 if fiber_eq == whole_eq else 1.0, fiber_eq == whole_eq,
                 note=f"fiberwise={fiber_eq}, assembled={whole_eq}")

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
    I = np.eye(res.n)
    fibers = []
    for k, R in enumerate(res.fibers):
        try:
            Rinv = np.linalg.inv(R)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"resolvent fiber {k} is singular and cannot be inverted"
            ) from exc
        fibers.append(alpha[k] * I + Rinv)
    return OperatorFamily(res.grid, np.stack(fibers))


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
        for k, F in enumerate(fam.fibers):
            if not is_hermitian(F):
                raise ValueError(f"fiber {k} is not Hermitian")

    I = np.eye(limit.n)
    R_lim = [np.linalg.inv(F - z * I) for F in limit.fibers]
    gaps = np.empty((len(seq), limit.m))
    for j, fam in enumerate(seq):
        for k, F in enumerate(fam.fibers):
            gaps[j, k] = np.linalg.norm(np.linalg.inv(F - z * I) - R_lim[k], 2)

    half = len(seq) // 2
    slack = 1e-12
    converged = np.array([
        gaps[-1, k] <= tol
        and np.all(np.diff(gaps[half:, k]) <= slack + 1e-9 * gaps[half:-1, k])
        for k in range(limit.m)
    ])
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
