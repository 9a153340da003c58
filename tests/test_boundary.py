import numpy as np
import pytest
from numpy.testing import assert_allclose

from charmat.boundary import (
    GridDiscretization,
    boundary_mismatch,
    deficiency_vector,
    derivative_operator,
    grid_norm,
    laplacian,
    laplacian_eigenvalues,
    rank_one_extension,
    separation_witness,
    trapezoid_norm,
)
from charmat.boundary import _grid_inner
from charmat.hilbert import adjoint

# closed-form reference values for the exponential defect state
DEFECT_NORM2 = (1.0 - np.exp(-2.0)) / 2.0  # integral of e^(-2x) on [0,1]
MISMATCH_TARGET = (1.0 - np.exp(-1.0)) / np.sqrt(DEFECT_NORM2)
# analytic limit of the Dirichlet witness value (odd-mode series)
WITNESS_LIMIT = 0.0757656854799805
EPS = np.finfo(float).eps


# ------------------------------------------------------------------- grids


def test_interior_grid_geometry():
    g = GridDiscretization(4, "dirichlet")
    assert g.h == pytest.approx(0.2)
    assert_allclose(g.nodes, [0.2, 0.4, 0.6, 0.8])
    assert GridDiscretization(4, "free").h == pytest.approx(0.2)


def test_periodic_grid_geometry():
    g = GridDiscretization(4, "periodic")
    assert g.h == pytest.approx(0.25)
    assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75])


def test_grid_validation():
    with pytest.raises(ValueError, match="boundary condition"):
        GridDiscretization(10, "robin")
    with pytest.raises(ValueError, match="at least"):
        GridDiscretization(2, "dirichlet")


def test_grid_inner_is_riemann_sum():
    g = GridDiscretization(1000, "dirichlet")
    u = np.exp(g.nodes)
    # h * sum e^(2x) approximates (e^2 - 1)/2
    assert _grid_inner(g, u, u).real == pytest.approx((np.e**2 - 1) / 2, rel=2e-3)
    assert grid_norm(g, np.ones(g.n)) == pytest.approx(np.sqrt(g.h * g.n))
    with pytest.raises(ValueError, match="grid size"):
        _grid_inner(g, np.ones(3), np.ones(g.n))


# ---------------------------------------------------------- first derivative


def test_derivative_hermitian_or_not():
    Dd = derivative_operator(GridDiscretization(12, "dirichlet"))
    Dp = derivative_operator(GridDiscretization(12, "periodic"))
    Df = derivative_operator(GridDiscretization(12, "free"))
    assert_allclose(Dd, adjoint(Dd), atol=1e-15)
    assert_allclose(Dp, adjoint(Dp), atol=1e-15)
    assert np.linalg.norm(Df - adjoint(Df)) > 1.0  # deliberately lopsided


def test_derivative_and_grid_must_be_compatible():
    # the stencil is the grid's own: only a periodic grid wraps around, and
    # the free grid shares the dirichlet grid's nodes and spacing
    gi = GridDiscretization(8, "dirichlet")
    gf = GridDiscretization(8, "free")
    gp = GridDiscretization(8, "periodic")
    assert derivative_operator(gi)[0, -1] == 0.0
    assert derivative_operator(gf)[0, -1] == 0.0
    assert derivative_operator(gp)[0, -1] != 0.0
    assert gf.h == gi.h and np.array_equal(gf.nodes, gi.nodes)
    with pytest.raises(ValueError, match="boundary condition"):
        GridDiscretization(8, "neumann")


def test_derivative_stencil_entries():
    g = GridDiscretization(5, "dirichlet")
    c = 1.0 / (2.0 * g.h)
    D = derivative_operator(g)
    assert_allclose(np.diag(D, 1), np.full(4, -1j * c), atol=1e-15)
    assert_allclose(np.diag(D, -1), np.full(4, 1j * c), atol=1e-15)
    assert_allclose(np.diag(D), 0, atol=1e-15)
    # free agrees with dirichlet on every interior row
    F = derivative_operator(GridDiscretization(5, "free"))
    assert_allclose(F[1:-1, :], D[1:-1, :], atol=1e-15)
    # periodic adds exactly the two wraparound corners at its own spacing
    gp = GridDiscretization(5, "periodic")
    P = derivative_operator(gp)
    cp = 1.0 / (2.0 * gp.h)
    assert P[0, -1] == pytest.approx(1j * cp)
    assert P[-1, 0] == pytest.approx(-1j * cp)


def test_derivative_differentiates_smooth_periodic_sample():
    g = GridDiscretization(200, "periodic")
    D = derivative_operator(g)
    u = np.exp(2j * np.pi * g.nodes)
    # (1/i) d/dx e^(2 pi i x) = 2 pi e^(2 pi i x); central differences are O(h^2)
    assert np.max(np.abs(D @ u - 2 * np.pi * u)) <= 50.0 * g.h**2


def test_free_derivative_annihilates_defect_direction():
    g = GridDiscretization(400, "free")
    A = derivative_operator(g)
    e = deficiency_vector(g)
    # (A - i) e -> 0 at first order in h
    assert np.linalg.norm(A @ e - 1j * e) <= 5.0 * g.h
    # the dirichlet matrix does NOT annihilate it: the ghost-zero rows
    # clash with the nonzero boundary values of e^-x
    Dd = derivative_operator(GridDiscretization(400, "dirichlet"))
    assert np.linalg.norm(Dd @ e - 1j * e) > 1.0


# ------------------------------------------------------------ second order


def test_dirichlet_laplacian_closed_form_spectrum():
    n = 30
    g = GridDiscretization(n, "dirichlet")
    L = laplacian(g)
    w = np.linalg.eigvalsh(L)
    k = np.arange(1, n + 1)
    exact = 4.0 / g.h**2 * np.sin(k * np.pi * g.h / 2.0) ** 2
    assert_allclose(w, np.sort(exact), rtol=1e-12)


def test_periodic_laplacian_closed_form_spectrum():
    n = 31
    g = GridDiscretization(n, "periodic")
    L = laplacian(g)
    w = np.linalg.eigvalsh(L)
    k = np.arange(n)
    exact = 4.0 * n**2 * np.sin(np.pi * k / n) ** 2
    assert_allclose(w, np.sort(exact), atol=1e-9)


def test_dirichlet_spectrum_converges_to_square_integers():
    g = GridDiscretization(500, "dirichlet")
    w = np.linalg.eigvalsh(laplacian(g))
    k = np.arange(1, 6)
    exact = (k * np.pi) ** 2
    # second-order stencil: relative error ~ (k pi h)^2 / 12 per mode
    assert np.all(np.abs(w[:5] - exact) / exact <= 1e-5 * k**2)


def test_periodic_kernel_is_exactly_the_constants():
    g = GridDiscretization(64, "periodic")
    L = laplacian(g)
    w, V = np.linalg.eigh(L)
    assert w[0] == pytest.approx(0.0, abs=1e-9)
    assert w[1] > 1.0  # kernel is one-dimensional
    flat = V[:, 0] / V[0, 0]
    assert_allclose(flat, np.ones(g.n), atol=1e-9)
    # the next eigenvalue pair approximates 4 pi^2
    assert_allclose(w[1:3], 4.0 * np.pi**2, rtol=1e-2)


def test_squared_derivative_has_spurious_low_mode():
    # D* D decouples even and odd nodes; for an odd interior grid the
    # central-difference matrix is singular, so D* D has a null mode far
    # below the physical ground state pi^2 of the direct stencil
    g = GridDiscretization(21, "dirichlet")
    direct = np.linalg.eigvalsh(laplacian(g))
    D = derivative_operator(g)
    squared = np.linalg.eigvalsh(D.conj().T @ D)
    assert direct[0] > 0.9 * np.pi**2
    assert squared[0] <= 1e-8
    with pytest.raises(ValueError, match="dirichlet.*periodic|supports"):
        laplacian(GridDiscretization(21, "free"))


@pytest.mark.parametrize("n", [100, 500, 2000])
def test_structured_spectra_match_dense_eigvalsh(n):
    k = 6
    for bc in ("dirichlet", "periodic"):
        g = GridDiscretization(n, bc)
        L = laplacian(g)
        dense = np.linalg.eigvalsh(L)[:k]
        # both solvers are accurate to a few eps * ||L||, with ||L|| = 4/h^2
        atol = 4.0 * EPS * np.linalg.norm(L, 1)
        assert_allclose(laplacian_eigenvalues(g, k), dense, rtol=0, atol=atol)


def test_laplacian_eigenvalues_validates_its_arguments():
    g = GridDiscretization(20, "dirichlet")
    with pytest.raises(ValueError, match="count"):
        laplacian_eigenvalues(g, 0)
    with pytest.raises(ValueError, match="count"):
        laplacian_eigenvalues(g, 21)
    with pytest.raises(ValueError, match="supports"):
        laplacian_eigenvalues(GridDiscretization(20, "free"), 3)
    assert len(laplacian_eigenvalues(g, 20)) == 20


def test_dirichlet_ground_state_error_is_second_order():
    # lambda_1 - pi^2 ~ pi^4 h^2 / 12.  The window stops below n ~ 1e4: there
    # the eigenvalue's own rounding error, a few eps * 4/h^2, is as large as
    # the discretization error, and the fitted order collapses.
    ns = np.array([500, 1000, 2000, 4000, 8000])
    h = 1.0 / (ns + 1)
    err = [abs(laplacian_eigenvalues(GridDiscretization(int(n), "dirichlet"), 1)[0] - np.pi**2)
           for n in ns]
    order = np.polyfit(np.log(h), np.log(err), 1)[0]
    assert abs(order - 2.0) <= 0.2, order


# -------------------------------------------------------- witness and defect


@pytest.mark.parametrize("n", [100, 200])
def test_structured_witness_matches_dense_solve(n):
    # the dense reference's own rounding grows like eps * cond(L + I) ~ n^2,
    # so the comparison stays at small n
    one = np.ones(n)
    dense = []
    for bc in ("dirichlet", "periodic"):
        g = GridDiscretization(n, bc)
        u = np.linalg.solve(laplacian(g) + np.eye(n), one)
        dense.append(_grid_inner(g, one, u).real)
    assert_allclose(separation_witness(n), dense, rtol=1e-12, atol=0)



def test_separation_witness_values_and_gap():
    valD, valP = separation_witness(400)
    assert valP == pytest.approx(1.0, abs=1e-8)
    assert 0.070 <= valD <= 0.081
    assert valP - valD > 0.8
    assert valD == pytest.approx(WITNESS_LIMIT, abs=1e-3)


def test_separation_witness_is_grid_stable():
    valD1, _ = separation_witness(200)
    valD2, _ = separation_witness(400)
    assert abs(valD1 - valD2) <= 0.005 * abs(valD2)


def test_separation_witness_needs_fine_grid():
    with pytest.raises(ValueError, match="n >= 100"):
        separation_witness(50)


def test_deficiency_vector_normalization_and_norm2():
    g = GridDiscretization(200, "dirichlet")
    e = deficiency_vector(g)
    assert grid_norm(g, e) == pytest.approx(1.0, abs=1e-12)
    # the unnormalized squared norm is the Riemann sum of e^(-2x)
    raw = np.exp(-g.nodes)
    norm2 = g.h * np.sum(raw**2)
    assert abs(norm2 - DEFECT_NORM2) <= g.h


def test_deficiency_residual_decays_at_first_order():
    def residual(n):
        g = GridDiscretization(n, "free")
        A = derivative_operator(g)
        e = deficiency_vector(g)
        return np.linalg.norm(A @ e - 1j * e)

    r1, r2 = residual(100), residual(200)
    assert 1.8 <= r1 / r2 <= 2.2


def test_deficiency_vector_preconditions():
    with pytest.raises(ValueError, match="interior"):
        deficiency_vector(GridDiscretization(50, "periodic"))
    with pytest.raises(ValueError, match="n >= 10"):
        deficiency_vector(GridDiscretization(5, "dirichlet"))


# --------------------------------------------------------- rank-one extension


def test_rank_one_pinned_euclidean_case():
    e = np.array([1.0, 0.0])
    K, T2 = rank_one_extension(np.eye(2), e)
    assert_allclose(K, np.diag([2.0, 1.0]), atol=1e-15)
    assert_allclose(T2, np.diag([2.0, 1.0]), atol=1e-15)


def test_rank_one_spectrum_and_inverse():
    rng = np.random.default_rng(3)
    e = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    e = e / np.linalg.norm(e)
    K, _ = rank_one_extension(rng.standard_normal((5, 5)), e)
    assert_allclose(np.linalg.eigvalsh(K), [1, 1, 1, 1, 2], atol=1e-12)
    Kinv = np.eye(5) - 0.5 * np.outer(e, e.conj())
    assert_allclose(K @ Kinv, np.eye(5), atol=1e-12)


def test_rank_one_exact_adjoint_relation():
    # T2 = K T1 with K Hermitian gives T2* = T1* K with no approximation
    n = 64
    gp = GridDiscretization(n, "periodic")
    gi = GridDiscretization(n, "dirichlet")
    T1 = derivative_operator(gp)
    e = deficiency_vector(gi)
    K, T2 = rank_one_extension(T1, e, weight=gi.h)
    lhs = adjoint(T2)
    rhs = adjoint(T1) @ K
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert_allclose(K, adjoint(K), atol=1e-15)


def test_rank_one_requires_unit_defect():
    with pytest.raises(ValueError, match="normalized"):
        rank_one_extension(np.eye(2), np.array([2.0, 0.0]))
    with pytest.raises(ValueError, match="dimension"):
        rank_one_extension(np.eye(2), np.ones(3))
    with pytest.raises(ValueError, match="square"):
        rank_one_extension(np.ones((2, 3)), np.ones(2))
    # a NaN in e would pass the normalization test, whose comparison is False
    for T1, e in [(np.eye(2), [np.nan, 1.0]), (np.eye(2), [1.0, np.inf]),
                  ([[1.0, np.nan], [0.0, 1.0]], [1.0, 0.0])]:
        with pytest.raises(ValueError, match="non-finite"):
            rank_one_extension(T1, e)


def test_rank_one_keeps_real_input_real():
    rng = np.random.default_rng(4)
    e = rng.standard_normal(5)
    T1 = rng.standard_normal((5, 5))
    K, T2 = rank_one_extension(T1, e / np.linalg.norm(e))
    assert K.dtype == np.float64 and T2.dtype == np.float64
    K, T2 = rank_one_extension(T1, (1 + 1j) * e / np.linalg.norm((1 + 1j) * e))
    assert K.dtype == np.complex128 and T2.dtype == np.complex128


# ------------------------------------------------------------ mismatch trace


def test_mismatch_zero_for_matching_samples():
    g = GridDiscretization(50, "dirichlet")
    assert boundary_mismatch(np.ones(g.n), g) == pytest.approx(0.0, abs=1e-12)
    gp = GridDiscretization(50, "periodic")
    anything = np.exp(-gp.nodes)
    assert boundary_mismatch(anything, gp) == 0.0
    with pytest.raises(ValueError, match="grid size"):
        boundary_mismatch(np.ones(3), g)


def test_mismatch_of_defect_state_hits_target():
    g = GridDiscretization(1000, "dirichlet")
    e = deficiency_vector(g)
    assert boundary_mismatch(e, g) == pytest.approx(MISMATCH_TARGET, abs=1e-3)


def test_trapezoid_norm_adds_the_extrapolated_end_terms():
    g = GridDiscretization(200, "dirichlet")
    # constants: the interior Riemann sum gives h*n, the end terms add h
    assert grid_norm(g, np.ones(g.n)) ** 2 == pytest.approx(1.0 - g.h, abs=1e-14)
    assert trapezoid_norm(g, np.ones(g.n)) == pytest.approx(1.0, abs=1e-14)
    # e^-x: second order against the integral, where the Riemann sum is first
    raw = np.exp(-g.nodes)
    assert abs(trapezoid_norm(g, raw) ** 2 - DEFECT_NORM2) <= g.h**2
    gp = GridDiscretization(200, "periodic")
    assert trapezoid_norm(gp, np.exp(-gp.nodes)) == grid_norm(gp, np.exp(-gp.nodes))


@pytest.mark.parametrize("n", [100, 200, 2000])
def test_normalized_mismatch_of_defect_state_is_second_order(n):
    g = GridDiscretization(n, "dirichlet")
    e = deficiency_vector(g)
    mismatch = boundary_mismatch(e, g) / trapezoid_norm(g, e)
    assert abs(mismatch - MISMATCH_TARGET) <= 2.0 * g.h**2

