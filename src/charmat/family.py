"""Direct integrals: operator families on a parameter grid and their block-diagonal assembly.

A family holds one ``n x n`` fiber per node of a :class:`ParameterGrid`, as one
``(m, n, n)`` stack; its direct integral is the block-diagonal operator on
sections.  Provides the decomposition suite (a :class:`~charmat.hilbert.Checks`),
fiberwise sums, products and resolvent reconstruction, a resolvent-limit check
and section truncation.
Invariant: fiberwise constructions run once on the stack with numpy's batched
linear algebra, and only :meth:`OperatorFamily.assemble` forms the ``mn x mn``
operator; nothing here calls it (README, ``charmat.family``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# char_matrix is unused here, but perfbench/tracer.py wraps family.char_matrix
from .graph import (  # noqa: F401
    IDENTITY_TOL, CharacteristicMatrix, _basis_blocks, _char_blocks, char_matrix)
from .hilbert import Checks, _as_operator, _kernel_trivial, _spectral, adjoint, is_hermitian

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

#: Default relative tolerance for the decomposition suite's probe labels.
SUITE_TOL = 1e-9

#: Property tolerance used by the suite's yes/no verdicts
#: (Hermitian / positive / normal); injectivity is ``hilbert``'s kernel rule.
CLASSIFY_TOL = 1e-10

#: Number of Gaussian probe columns per node that the suite applies the fibers to.
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
    fibers' SVD basis: :func:`decomposition_suite`'s ``fiberwise_*`` labels.  Raises
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


def decomposition_suite(fam: OperatorFamily, seed: int | None = None) -> Checks:
    """The :class:`~charmat.hilbert.Checks` of operator calculus on the fibers of ``A = bd(F)``.

    The labels, in README's terms (``charmat.family``):

    - ``fiberwise_p11`` ... ``fiberwise_p22``: :func:`char_matrix_fiberwise`'s ``gaps``;
    - ``suite_modulus``: ``|F| (|F| X) = F* (F X)`` on the probes;
    - ``suite_inverse``: ``F (F^-1 X) = X`` on the probes; skipped, with a
      note, unless every fiber is injective;
    - ``suite_adjoint`` and ``suite_polynomial`` hold by construction, since
      ``(bd F)* = bd(F*)`` and ``p(bd F) = bd(p(F))``: residual 0.0;
      ``suite_polynomial`` is noted when some fiber is not normal;
    - the verdicts ``suite_selfadjoint``, ``suite_positive`` and
      ``suite_normal`` hold by construction, since a block-diagonal operator
      has the property exactly when every block has it: residual 0.0, and the
      note gives the fibers' verdict for both sides;
    - ``norm_consistency``: the relative distance between two readings of
      ``||A||_2``, :func:`family_norm` and the fibers' largest singular value.

    Probe labels estimate relative Frobenius residuals on the
    ``(m, n, SUITE_PROBES)`` stack of Gaussian columns that
    ``np.random.default_rng(seed)`` draws as ``(m n, SUITE_PROBES)``
    (``SUITE_SEED`` when ``seed`` is None).  Bounds are 0 for the verdicts,
    ``IDENTITY_TOL`` for ``fiberwise_*`` and ``norm_consistency``, and
    ``SUITE_TOL`` otherwise.  Forms nothing of ``A``'s size.  Raises
    ``numpy.linalg.LinAlgError`` as :func:`char_matrix_fiberwise` does.
    """
    F = fam.fibers
    m, n = fam.m, fam.n
    _, (_, sf, Vhf), gaps = _fiber_char(F)  # raises before the probes are drawn
    k = SUITE_PROBES
    rng = np.random.default_rng(SUITE_SEED if seed is None else seed)
    X = rng.standard_normal((m * n, k)).reshape(m, n, k)
    checks = Checks()
    for block, gap in gaps.items():
        checks.add(f"fiberwise_{block}", gap, IDENTITY_TOL)

    def estimate(lhs, rhs):
        # the relative residual of lhs = rhs on the probes
        return np.linalg.norm(lhs - rhs) / max(np.sqrt(k), np.linalg.norm(rhs))

    checks.add("suite_adjoint", 0.0, SUITE_TOL)
    modF = _spectral(adjoint(Vhf), sf, Vhf)
    checks.add("suite_modulus", estimate(modF @ (modF @ X), adjoint(F) @ (F @ X)), SUITE_TOL)

    fiber_hermitian = is_hermitian(F, CLASSIFY_TOL)
    fiber_positive = _nonnegative(np.linalg.eigvalsh((F + adjoint(F)) / 2.0), CLASSIFY_TOL)
    fiber_normal = _is_normal(F, CLASSIFY_TOL).all()
    for name, verdict in (("selfadjoint", fiber_hermitian.all()),
                          ("positive", (fiber_positive & fiber_hermitian).all()),
                          ("normal", fiber_normal)):
        checks.add(f"suite_{name}", 0.0, 0.0, verdict=True)
        checks.notes[f"suite_{name}"] = f"assembled={verdict}, all_fibers={verdict}"

    if _kernel_trivial(sf)[0].all():
        checks.add("suite_inverse", estimate(F @ (np.linalg.inv(F) @ X), X), SUITE_TOL)
    else:
        checks.notes["suite_inverse"] = "skipped: some fiber is not injective"

    checks.add("suite_polynomial", 0.0, SUITE_TOL)
    if not fiber_normal:
        checks.notes["suite_polynomial"] = \
            "some fiber is not normal; the block identity still holds for plain polynomials"

    norm = float(sf.max())
    checks.add("norm_consistency", abs(family_norm(fam) - norm) / max(1.0, norm), IDENTITY_TOL)
    return checks


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
    Raises ``ValueError`` for a real or non-finite ``z``, an empty ``seq``, or
    a family that is not Hermitian-fibered on ``limit``'s grid and fiber size.
    """
    if not (np.isfinite(z) and z.imag != 0):
        raise ValueError("z must be finite, with nonzero imaginary part")
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

    The kept set only grows with ``level``; ``inf`` keeps every section.
    Raises ``ValueError`` for a negative or ``nan`` ``level``, or a grid other
    than ``fam``'s.
    """
    if not level >= 0:  # nan too
        raise ValueError("level must be nonnegative")
    action = fam.apply(f).sections
    keep = (np.linalg.norm(action, axis=1) <= level) & (np.abs(fam.grid.nodes) <= level)
    out = np.where(keep[:, None], f.sections, 0.0)
    return FamilyVector(f.grid, out)
