"""Direct integrals: operator families on a parameter grid and their block-diagonal assembly.

A family holds one ``n x n`` fiber per node of a :class:`ParameterGrid`, as one
``(m, n, n)`` stack; its direct integral is the block-diagonal operator on
sections.  Provides the decomposition suite, fiberwise sums, products and
resolvent reconstruction, a resolvent-limit check and section truncation.
Invariant: fiberwise constructions run once on the stack with numpy's batched
linear algebra, and the assembled ``mn x mn`` operator is never factored
(README, ``charmat.family``).
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


@dataclass(frozen=True, eq=False)
class ParameterGrid:
    """Strictly increasing finite nodes with positive finite weights, ``float64``.

    ``weights`` defaults to the trapezoid rule's (weight 1 for a single node).
    Raises ``ValueError`` for an empty, unordered or non-finite grid, or for
    weights of the wrong length or not positive.
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


@dataclass(frozen=True, eq=False)
class OperatorFamily:
    """One finite square fiber per grid node, stored as a ``float64`` or ``complex128`` stack.

    Raises ``ValueError`` for a non-square, non-finite or mismatched fiber, or
    a fiber count other than ``grid.m``.
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
        """``(T f)(t_k) = T(t_k) f(t_k)``, without assembling ``T``; ``f`` must share the grid."""
        if not f.grid.matches(self.grid):
            raise ValueError("section grid does not match the family grid")
        return FamilyVector(f.grid, np.einsum("kij,kj->ki", self.fibers, f.sections))


@dataclass(frozen=True, eq=False)
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
    """Largest fiber 2-norm: the 2-norm of the assembled block diagonal."""
    return float(np.linalg.norm(fam.fibers, 2, axis=(1, 2)).max())


def _fiber_char(F: np.ndarray):
    """The stack's Gram-route blocks, its ``svd``, and each block's Frobenius gap to the SVD's."""
    blocks = _char_blocks(F)  # first: an overflowing Gram matrix raises before any other work
    U, s, Vh = np.linalg.svd(F)
    c = 1.0 / np.hypot(1.0, s)  # 1/sqrt(1 + s^2), finite where s^2 overflows
    s11, s21, s22 = _basis_blocks(adjoint(Vh) * c[..., None, :], U * (s * c)[..., None, :])
    f11, f12, f21, f22 = blocks
    gaps = {"p11": f11 - s11, "p12": f12 - adjoint(s21), "p21": f21 - s21, "p22": f22 - s22}
    return blocks, (U, s, Vh), {b: float(np.linalg.norm(g)) for b, g in gaps.items()}


def char_matrix_fiberwise(fam: OperatorFamily):
    """``(chars, gaps)``: each fiber's characteristic matrix, and each block's gap to the SVD route.

    ``chars`` are views into one batched Gram pass.  ``gaps`` maps a block name
    to the absolute Frobenius distance, over all fibers, to the blocks of the
    fibers' SVD basis, as in :func:`decomposition_suite`.  Raises
    ``numpy.linalg.LinAlgError`` as :func:`~charmat.graph.char_matrix` does.
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
    # p(A) X by Horner's rule, for a matrix or stack A; coeffs ascending (c0 + c1 x + ...)
    out = coeffs[-1] * X
    for c in reversed(coeffs[:-1]):
        out = A @ out + c * X
    return out


def decomposition_suite(fam: OperatorFamily, seed: int | None = None) -> dict:
    """Check that operator calculus commutes with the family's block-diagonal assembly ``A``.

    Returns item name -> ``{"residual", "bound", "applicable", "note"}``; an
    item holds when ``residual <= bound``.  The items, in README's terms
    (``charmat.family``):

    - ``adjoint``: ``hypot(off, ||D - F||_F) / max(1, ||A||_F)``, exact;
    - ``modulus``: ``|F|^2 = A* A`` on the probes; it also carries ``norm``,
      the largest singular value of the tiles, and ``norm_error = off``;
    - ``char_matrix``: the largest of ``gaps``, :func:`char_matrix_fiberwise`'s;
    - ``selfadjoint``, ``positive``, ``normal``: 0.0 when the verdict on ``A``
      (block diagonal, and every tile has the property) is the fibers', else
      1.0; the note gives both verdicts;
    - ``inverse``: ``A F^-1 = I`` on the probes; not applicable unless every
      fiber is injective;
    - ``polynomial``: ``p(A) = p(F)`` on the probes for ``p = SUITE_POLY``,
      ``x^3 - 2x``; noted when some fiber is not normal.

    Probe items are estimates of relative Frobenius residuals on
    ``SUITE_PROBES`` Gaussian columns from ``np.random.default_rng(seed)``
    (``SUITE_SEED`` when ``seed`` is None), not dense distances.  Bounds are
    ``IDENTITY_TOL`` for ``char_matrix``, 0 for the verdicts and ``SUITE_TOL``
    otherwise.  Raises ``numpy.linalg.LinAlgError`` as
    :func:`char_matrix_fiberwise` does; a failed precondition raises nothing but
    marks its item not applicable, with a note.
    """
    F = fam.fibers
    m, n = fam.m, fam.n
    _, (_, sf, Vhf), gaps = _fiber_char(F)  # raises before dense work
    A = np.ascontiguousarray(fam.assemble())  # its tiles are zeroed in place, then restored
    k = SUITE_PROBES
    X = np.random.default_rng(SUITE_SEED if seed is None else seed).standard_normal((m * n, k))
    report = {}

    def item(name, residual, bound=SUITE_TOL, applicable=True, note=""):
        report[name] = {"residual": float(residual), "bound": bound,
                        "applicable": applicable, "note": note}

    def fibers_on(B, Y):
        # the assembly of the stack B applied to Y, without assembling B
        return (B @ Y.reshape(m, n, -1)).reshape(m * n, -1)

    def estimate(lhs, rhs):
        # the relative residual of lhs = rhs on the probes
        return np.linalg.norm(lhs - rhs) / max(np.sqrt(k), np.linalg.norm(rhs))

    def classified(name, whole, fiberwise):
        whole, fiberwise = bool(whole), bool(fiberwise)
        item(name, 0.0 if whole == fiberwise else 1.0, 0.0,
             note=f"assembled={whole}, all_fibers={fiberwise}")

    # the diagonal tiles D and off = ||A - bd(D)||_F, read off A in place and put back
    tiles = np.arange(m)
    D = A.reshape(m, n, m, n)[tiles, :, tiles, :]
    A.reshape(m, n, m, n)[tiles, :, tiles, :] = 0
    off = float(np.linalg.norm(A))
    A.reshape(m, n, m, n)[tiles, :, tiles, :] = D
    scale = max(1.0, np.hypot(off, np.linalg.norm(D)))  # max(1, ||A||_F), with no second pass
    item("adjoint", np.hypot(off, np.linalg.norm(D - F)) / scale)

    modF = _spectral(adjoint(Vhf), sf, Vhf)
    AhAX = np.conjugate(A.T @ np.conjugate(A @ X))  # A* A X, without forming A*
    item("modulus", estimate(fibers_on(modF, fibers_on(modF, X)), AhAX))
    # Weyl: A's singular values, and the eigenvalues of (A + A*)/2, are within off of bd(D)'s
    report["modulus"].update(norm=float(np.linalg.svd(D, compute_uv=False).max()), norm_error=off)

    item("char_matrix", max(gaps.values()), IDENTITY_TOL)
    report["char_matrix"]["gaps"] = gaps

    # property equivalences: A has one iff it is block diagonal and every tile has it
    block_diagonal = off <= CLASSIFY_TOL * scale
    fiber_hermitian = is_hermitian(F, CLASSIFY_TOL)
    fiber_positive = _nonnegative(np.linalg.eigvalsh((F + adjoint(F)) / 2.0), CLASSIFY_TOL)
    fiber_normal = _is_normal(F, CLASSIFY_TOL).all()
    hermitian = block_diagonal and is_hermitian(D, CLASSIFY_TOL).all()
    classified("selfadjoint", hermitian, fiber_hermitian.all())
    classified("positive", hermitian and _nonnegative(
        np.linalg.eigvalsh((D + adjoint(D)) / 2.0) - off, CLASSIFY_TOL).all(),
        (fiber_positive & fiber_hermitian).all())
    classified("normal", block_diagonal and _is_normal(D, CLASSIFY_TOL).all(), fiber_normal)

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
    """The family ``T(t_k) = alpha_k + R(t_k)^-1`` of resolvents ``R(t_k) = (T(t_k) - alpha_k)^-1``.

    Raises ``ValueError`` unless ``alpha`` holds one shift per node, and
    ``numpy.linalg.LinAlgError``, naming the fiber, if a resolvent fiber is singular.
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
    """Fiberwise resolvent convergence of the families ``seq`` to ``limit`` at a non-real ``z``.

    Returns ``gaps``, the ``len(seq) x m`` array of
    ``||(T_j(t_k) - z)^-1 - (T(t_k) - z)^-1||_2``; ``converged``, per fiber,
    whether its last gap is at most ``tol`` and its gaps do not grow (up to
    rounding slack) over the second half of ``seq``; and ``all_converged``.
    Raises ``ValueError`` for a real ``z``, an empty ``seq``, or a family
    that is not Hermitian-fibered on ``limit``'s grid and fiber size.
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
    """``f`` with each section zeroed unless ``||T(t_k) f(t_k)|| <= level`` and ``|t_k| <= level``.

    The kept set only grows with ``level``.  Raises ``ValueError`` for a
    negative ``level`` or a grid other than ``fam``'s.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    action = fam.apply(f).sections
    keep = (np.linalg.norm(action, axis=1) <= level) & (np.abs(fam.grid.nodes) <= level)
    out = np.where(keep[:, None], f.sections, 0.0)
    return FamilyVector(f.grid, out)
