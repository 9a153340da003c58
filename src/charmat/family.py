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
algebra and are compared in place with the diagonal blocks of the assembled
one: the fiber characteristic matrices are one batched Gram pass of ``graph``,
checked against the assembled blocks read off the suite's one factorization,
and ``hilbert``'s Hermitian and kernel predicates judge the stack in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# char_matrix is unused here, but perfbench/tracer.py wraps family.char_matrix
from .graph import CharacteristicMatrix, _char_blocks, _svd_blocks, char_matrix  # noqa: F401
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


def _block_gap(whole: np.ndarray, *stacks: np.ndarray) -> list:
    """``||whole - block_diag(*s)||_F`` per ``(m, n, n)`` stack ``s``; overwrites ``whole``, the caller's."""
    m, n, _ = stacks[0].shape
    k = np.arange(m)
    tiles = whole.reshape(m, n, m, n)
    diagonal = tiles[k, :, k, :]  # a copy; later stacks share the first one's off-diagonal energy
    tiles[k, :, k, :] -= stacks[0]
    gaps = [float(np.linalg.norm(tiles))]
    if stacks[1:]:
        tiles[k, :, k, :] = 0.0
        gaps += [float(np.hypot(np.linalg.norm(tiles), np.linalg.norm(diagonal - s))) for s in stacks[1:]]
    return gaps


def _char_gaps(blocks: tuple, U: np.ndarray, s: np.ndarray, Vh: np.ndarray) -> dict:
    """Per block, the gap between the fibers' ``blocks`` and those of ``U diag(s) Vh``."""
    f11, f12, f21, f22 = blocks
    whole = _svd_blocks(U, s, Vh)  # p11, p21 = p12*, p22: each goes straight into the gap that overwrites it
    (g11,), (g21, g12), (g22,) = (_block_gap(next(whole), *f) for f in [(f11,), (f21, adjoint(f12)), (f22,)])
    return {"p11": g11, "p12": g12, "p21": g21, "p22": g22}


def char_matrix_fiberwise(fam: OperatorFamily):
    """Characteristic matrices of all fibers, with a block-diagonal cross-check.

    Returns
    -------
    chars : list of CharacteristicMatrix
        One characteristic matrix per fiber, as views into the blocks of
        one batched pass over the ``(m, n, n)`` stack.
    residuals : dict
        For each block name, the Frobenius distance between the block of
        the assembled operator's characteristic matrix, read off one
        ``svd``, and the block-diagonal assembly of the fiber blocks.  All
        four are at rounding level for any family.
    """
    blocks = _char_blocks(fam.fibers)
    chars = [CharacteristicMatrix(*(b[k] for b in blocks)) for k in range(fam.m)]
    return chars, _char_gaps(blocks, *np.linalg.svd(fam.assemble()))


def _matrix_polynomial(coeffs, A: np.ndarray) -> np.ndarray:
    # Horner evaluation on a matrix or an (m, n, n) stack; coeffs are ascending
    # (c0 + c1 x + ... + cd x^d), d >= 1.  Starting from cd A + c(d-1) I skips
    # the products 0 A and I A.
    *lower, c_next, c_top = coeffs
    I = np.eye(A.shape[-1])
    out = c_top * A + c_next * I
    for c in reversed(lower):
        out = out @ A + c * I
    return out


def _nonnegative(w: np.ndarray, tol: float) -> np.ndarray:
    # every eigenvalue of a row of w is >= -tol * max(1, max |w|) of its row
    return w.min(axis=-1) >= -tol * np.maximum(1.0, np.abs(w).max(axis=-1))


def _is_normal(A: np.ndarray, tol: float) -> np.ndarray:
    # ||A A* - A* A||_F <= tol * max(1, ||A||_F^2), per matrix of a stack
    Ah = adjoint(A)
    dev = np.linalg.norm(A @ Ah - Ah @ A, axis=(-2, -1))
    return dev <= tol * np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)) ** 2)


def decomposition_suite(fam: OperatorFamily, tol: float = SUITE_TOL) -> dict:
    """Verify that operator calculus commutes with block-diagonal assembly.

    Each item compares a construction applied to the assembled operator
    against the assembly of the fiberwise constructions:

    - ``adjoint``    : conjugate transpose (always applicable)
    - ``char_matrix``: closed SVD formula against the fibers' Gram route;
      ``gaps`` holds each block's absolute Frobenius distance, the residual their max
    - ``modulus``    : ``|T| = (T* T)^(1/2)`` (always applicable)
    - ``selfadjoint``: the assembled operator is Hermitian iff every fiber is
    - ``positive``   : positive semidefinite iff every fiber is
    - ``normal``     : normal iff every fiber is
    - ``inverse``    : matrix inverse; skipped unless every fiber is injective
    - ``polynomial`` : the fixed polynomial ``x^3 - 2x`` (``SUITE_POLY``);
      meaningful for normal fibers, and reported with a note when some
      fiber is not normal

    Other residual items are relative Frobenius distances; classification items
    record ``0.0`` for an equivalence that holds and ``1.0`` otherwise.
    Precondition violations do not raise; the affected item carries
    ``applicable: False`` and a note.

    The assembled ``A`` is factored once when it equals its adjoint: one
    ``eigh``, ``A = V diag(w) V*``, gives the characteristic matrix, ``|A| =
    V |w| V*``, ``||A||_2 = max |w|``, positivity and ``A^-1 = V w^-1 V*``.
    Any other ``A`` gets one ``svd`` for the first three and an LU ``inv`` (the
    SVD's inverse is no faster and holds one more dense matrix).  That includes
    an ``A`` Hermitian only to ``CLASSIFY_TOL``, as ``(A + A*)/2`` can miss
    its singular values by its skew part; it adds one ``eigvalsh`` of
    ``(A + A*)/2`` for positivity.  The fibers get each factorization once,
    on the stack.  ``normal`` stays a product test: Hermitian to a
    tolerance does not imply normal to it.

    Returns
    -------
    dict
        Item name -> ``{"residual", "pass", "applicable", "note"}``.  The
        ``modulus`` item also carries ``norm``, the assembled operator's
        2-norm, read off the factorization that ``|A|`` is computed from.
    """
    F = fam.fibers
    fiber_blocks = _char_blocks(F)  # first: an overflowing Gram matrix raises before dense work
    A = fam.assemble()
    report = {}

    def item(name, residual, ok, applicable=True, note=""):
        report[name] = {"residual": float(residual), "pass": bool(ok),
                        "applicable": applicable, "note": note}

    def commutes(name, whole, fibers):
        # whole: the construction on A, a fresh array that _block_gap overwrites
        scale = max(1.0, np.linalg.norm(whole))
        resid = _block_gap(whole, fibers)[0] / scale
        item(name, resid, resid <= tol)

    def classified(name, whole, fiberwise):
        whole, fiberwise = bool(whole), bool(fiberwise)
        item(name, 0.0 if whole == fiberwise else 1.0, whole == fiberwise,
             note=f"assembled={whole}, all_fibers={fiberwise}")

    commutes("adjoint", adjoint(A).copy(), adjoint(F))

    # each dense factor and product is dropped after the item that uses it;
    # |A| comes from a factorization of A, as sqrt(A* A) loses accuracy near a kernel
    hermitian = is_hermitian(A, CLASSIFY_TOL)
    exact = np.array_equal(A, adjoint(A))
    sf, Vhf = np.linalg.svd(F)[1:]
    modF = _spectral(adjoint(Vhf), sf, Vhf)
    if exact:
        w, V = np.linalg.eigh(A)
        gaps = _char_gaps(fiber_blocks, V, w, adjoint(V))
        commutes("modulus", _spectral(V, np.abs(w), adjoint(V)), modF)
        report["modulus"]["norm"] = float(np.abs(w).max())
    else:
        U, s, Vh = np.linalg.svd(A)
        gaps = _char_gaps(fiber_blocks, U, s, Vh)
        del U
        commutes("modulus", _spectral(adjoint(Vh), s, Vh), modF)
        report["modulus"]["norm"] = float(s[0])
        del Vh
        if hermitian:
            w = np.linalg.eigvalsh((A + adjoint(A)) / 2.0)
    item("char_matrix", max(gaps.values()), max(gaps.values()) <= tol)
    report["char_matrix"]["gaps"] = gaps

    # property equivalences: assembled iff all fibers
    fiber_hermitian = is_hermitian(F, CLASSIFY_TOL)
    fiber_positive = _nonnegative(np.linalg.eigvalsh((F + adjoint(F)) / 2.0), CLASSIFY_TOL)
    fiber_normal = _is_normal(F, CLASSIFY_TOL).all()
    classified("selfadjoint", hermitian, fiber_hermitian.all())
    classified("positive", hermitian and _nonnegative(w, CLASSIFY_TOL),
               (fiber_positive & fiber_hermitian).all())
    classified("normal", _is_normal(A, CLASSIFY_TOL), fiber_normal)

    # inverse commutes with assembly, when defined; injectivity is read off sf
    if _kernel_trivial(sf)[0].all():
        invA = _spectral(V, 1.0 / w, adjoint(V)) if exact else np.linalg.inv(A)
        commutes("inverse", invA, np.linalg.inv(F))
    else:
        item("inverse", 0.0, True, applicable=False,
             note="skipped: some fiber is not injective")
    if exact:
        del V

    commutes("polynomial", _matrix_polynomial(SUITE_POLY, A), _matrix_polynomial(SUITE_POLY, F))
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
    I = np.eye(res.n)
    fibers = []
    for k, R in enumerate(res.fibers):
        try:
            Rinv = np.linalg.inv(R)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"resolvent fiber {k} is singular and cannot be inverted") from exc
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
