import numpy as np
import pytest
from numpy.testing import assert_allclose

from charmat.family import (
    FamilyVector,
    OperatorFamily,
    ParameterGrid,
    char_matrix_fiberwise,
    decomposition_suite,
    family_inner,
    family_norm,
    family_vector_norm,
    lennon_product,
    lennon_sum,
    resolvent_limit_check,
    resolvent_reconstruct,
    truncate_family_vector,
)


def random_family(rng, m, n, hermitian=False):
    fibers = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    if hermitian:
        fibers = (fibers + np.conj(np.transpose(fibers, (0, 2, 1)))) / 2.0
    grid = ParameterGrid(np.linspace(0.0, 1.0, m))
    return OperatorFamily(grid, fibers)


def random_sections(rng, grid, n):
    shape = (grid.m, n)
    return FamilyVector(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------- grids


def test_grid_rejects_decreasing_nodes():
    with pytest.raises(ValueError, match="increasing"):
        ParameterGrid(np.array([0.0, 2.0, 1.0]))


def test_grid_rejects_nonpositive_weights():
    with pytest.raises(ValueError, match="positive"):
        ParameterGrid(np.array([0.0, 1.0]), weights=np.array([1.0, 0.0]))


def test_grid_rejects_weight_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        ParameterGrid(np.array([0.0, 1.0]), weights=np.array([1.0]))


def test_grid_default_weights_are_trapezoidal():
    grid = ParameterGrid(np.array([0.0, 1.0, 3.0, 4.0]))
    assert_allclose(grid.weights, [0.5, 1.5, 1.5, 0.5])
    # uniform spacing integrates linear functions exactly
    uniform = ParameterGrid(np.linspace(0.0, 1.0, 11))
    assert_allclose(np.sum(uniform.weights * uniform.nodes), 0.5, atol=1e-15)


def test_single_node_grid_has_unit_weight():
    grid = ParameterGrid(np.array([2.5]))
    assert_allclose(grid.weights, [1.0])


# ------------------------------------------------- sections and inner product


def test_family_inner_conjugate_symmetry_and_positivity():
    rng = np.random.default_rng(3)
    grid = ParameterGrid(np.linspace(0.0, 1.0, 5))
    f = random_sections(rng, grid, 3)
    g = random_sections(rng, grid, 3)
    assert family_inner(f, g) == pytest.approx(np.conj(family_inner(g, f)))
    assert family_inner(f, f).real > 0
    assert abs(family_inner(f, f).imag) <= 1e-14


def test_family_inner_matches_weighted_sum_by_hand():
    grid = ParameterGrid(np.array([0.0, 1.0]), weights=np.array([2.0, 3.0]))
    f = FamilyVector(grid, np.array([[1.0], [1j]]))
    g = FamilyVector(grid, np.array([[1.0], [2.0]]))
    # 2*(1,1) + 3*(i,2) = 2 + 3*(-i)*2 = 2 - 6i
    assert family_inner(f, g) == pytest.approx(2.0 - 6.0j)
    assert family_vector_norm(f) == pytest.approx(np.sqrt(5.0))


def test_family_inner_requires_matching_grids():
    f = FamilyVector(ParameterGrid(np.array([0.0, 1.0])), np.ones((2, 2)))
    g = FamilyVector(ParameterGrid(np.array([0.0, 2.0])), np.ones((2, 2)))
    with pytest.raises(ValueError, match="grid"):
        family_inner(f, g)


def test_sections_reject_wrong_shape_and_nonfinite():
    grid = ParameterGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="sections"):
        FamilyVector(grid, np.ones((3, 2)))
    with pytest.raises(ValueError, match="finite"):
        FamilyVector(grid, np.array([[np.nan, 0.0], [0.0, 0.0]]))


# -------------------------------------------------------- direct integrals


def test_family_fiber_count_must_match_grid():
    grid = ParameterGrid(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError, match="fibers"):
        OperatorFamily(grid, np.zeros((2, 2, 2)))


def test_assemble_is_block_diagonal():
    grid = ParameterGrid(np.array([0.0, 1.0]))
    fam = OperatorFamily(grid, np.array([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]))
    A = fam.assemble()
    assert A.shape == (4, 4)
    assert_allclose(A[:2, :2], fam.fibers[0])
    assert_allclose(A[2:, 2:], fam.fibers[1])
    assert_allclose(A[:2, 2:], 0)
    assert_allclose(A[2:, :2], 0)


def test_direct_integral_acts_fiberwise():
    rng = np.random.default_rng(7)
    fam = random_family(rng, 4, 3)
    f = random_sections(rng, fam.grid, 3)
    out = fam.apply(f)
    for k in range(4):
        assert_allclose(out.sections[k], fam.fibers[k] @ f.sections[k], atol=1e-14)
    # and agrees with the assembled matrix acting on the stacked vector
    stacked = fam.assemble() @ f.sections.reshape(-1)
    assert_allclose(out.sections.reshape(-1), stacked, atol=1e-14)


def test_family_norm_equals_assembled_operator_norm():
    rng = np.random.default_rng(11)
    fam = random_family(rng, 5, 4)
    assert family_norm(fam) == pytest.approx(np.linalg.norm(fam.assemble(), 2))


def test_family_norm_equals_per_fiber_loop():
    rng = np.random.default_rng(23)
    for fam in (random_family(rng, 64, 16), random_family(rng, 16, 64)):
        loop = max(float(np.linalg.norm(F, 2)) for F in fam.fibers)
        assert family_norm(fam) == pytest.approx(loop, rel=1e-14)


@pytest.mark.parametrize(
    "dtype, stored",
    [(np.float64, np.float64), (np.int64, np.float64), (np.float32, np.float64),
     (np.complex64, np.complex128), (np.complex128, np.complex128)],
)
def test_family_fibers_follow_the_operator_dtype_rule(dtype, stored):
    grid = ParameterGrid(np.array([0.0, 1.0]))
    fibers = np.array([[[1, 2], [3, 4]], [[5, 6], [7, 8]]], dtype=dtype)
    fam = OperatorFamily(grid, fibers)
    assert fam.fibers.dtype == stored
    assert fam.assemble().dtype == stored
    chars, _ = char_matrix_fiberwise(fam)
    assert chars[0].p11.dtype == stored
    # a list of matrices goes through the same rule
    assert OperatorFamily(grid, list(fibers)).fibers.dtype == stored


def test_family_rejects_nonsquare_and_nonfinite_fibers():
    grid = ParameterGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="square"):
        OperatorFamily(grid, np.zeros((2, 2, 3)))
    fibers = np.zeros((2, 2, 2))
    fibers[1, 0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        OperatorFamily(grid, fibers)


def test_char_matrix_commutes_with_assembly():
    rng = np.random.default_rng(13)
    fam = random_family(rng, 4, 3)
    chars, residuals = char_matrix_fiberwise(fam)
    assert len(chars) == 4
    for name in ("p11", "p12", "p21", "p22"):
        assert residuals[name] <= 1e-12, (name, residuals)


# ------------------------------------------------------ decomposition suite


def test_suite_random_family_all_items_pass():
    rng = np.random.default_rng(19)
    fam = random_family(rng, 3, 4)
    report = decomposition_suite(fam)
    for name, item in report.items():
        assert item["pass"], (name, item)
    assert report["adjoint"]["residual"] <= 1e-12
    assert report["modulus"]["residual"] <= 1e-9
    # generic random fibers are injective, so the inverse item is live
    assert report["inverse"]["applicable"]
    assert "not normal" in report["polynomial"]["note"]


def test_suite_hermitian_family_classified_selfadjoint():
    rng = np.random.default_rng(23)
    fam = random_family(rng, 3, 3, hermitian=True)
    report = decomposition_suite(fam)
    assert report["selfadjoint"]["pass"]
    assert "assembled=True" in report["selfadjoint"]["note"]
    assert report["polynomial"]["note"] == ""


def test_suite_positivity_needs_every_fiber():
    # diag(1) and diag(-1): each Hermitian, the second not positive, and the
    # assembly diag(1, -1) is not positive either -- the iff holds
    grid = ParameterGrid(np.array([0.0, 1.0]))
    fam = OperatorFamily(grid, np.array([[[1.0]], [[-1.0]]]))
    report = decomposition_suite(fam)
    assert report["positive"]["pass"]
    assert "assembled=False" in report["positive"]["note"]
    assert "all_fibers=False" in report["positive"]["note"]
    assert report["selfadjoint"]["pass"]


def test_suite_skips_inverse_for_singular_fiber():
    grid = ParameterGrid(np.array([0.0, 1.0]))
    fam = OperatorFamily(grid, np.array([[[1.0]], [[0.0]]]))
    report = decomposition_suite(fam)
    assert not report["inverse"]["applicable"]
    assert report["inverse"]["pass"]
    assert "injective" in report["inverse"]["note"]


def test_suite_polynomial_default_is_cubic_minus_two_x():
    grid = ParameterGrid(np.array([0.0]))
    fam = OperatorFamily(grid, np.array([[[3.0]]]))
    report = decomposition_suite(fam)
    assert report["polynomial"]["pass"]
    # sanity-check the default coefficients on a scalar: 27 - 6 = 21
    from charmat.family import _matrix_polynomial

    assert _matrix_polynomial((0.0, -2.0, 0.0, 1.0), np.array([[3.0]]))[0, 0] == pytest.approx(21.0)


def _horner_from_zero(coeffs, A):
    # reference: Horner started from the zero matrix, as the suite used to
    n = A.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for c in reversed(list(coeffs)):
        out = out @ A + c * np.eye(n)
    return out


@pytest.mark.parametrize("n", [1, 16, 64])
def test_matrix_polynomial_is_bit_identical_to_horner_from_zero(n):
    from charmat.family import SUITE_POLY, _matrix_polynomial

    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for coeffs in (SUITE_POLY, (1.5, -2.0), (0.5, 1.0 - 1.0j, 0.0, -3.0, 2.0)):
        assert np.array_equal(_matrix_polynomial(coeffs, A), _horner_from_zero(coeffs, A))


def test_suite_modulus_item_carries_the_assembled_norm():
    rng = np.random.default_rng(31)
    fam = random_family(rng, 5, 6)
    report = decomposition_suite(fam)
    expected = np.linalg.norm(fam.assemble(), 2)
    assert abs(report["modulus"]["norm"] - expected) <= 1e-14 * expected
    assert report["modulus"]["norm"] == pytest.approx(family_norm(fam), rel=1e-12)


def test_suite_inclusion_item():
    rng = np.random.default_rng(29)
    fam = random_family(rng, 3, 2)
    same = OperatorFamily(fam.grid, fam.fibers.copy())
    report = decomposition_suite(fam, other=same)
    assert report["inclusion"]["pass"]
    other = OperatorFamily(fam.grid, fam.fibers + 1.0)
    report = decomposition_suite(fam, other=other)
    assert report["inclusion"]["pass"]  # unequal fiberwise and unequal assembled
    assert "fiberwise=False" in report["inclusion"]["note"]


# ------------------------------------------------------------- sum/product


def test_sum_and_product_commute_with_assembly():
    rng = np.random.default_rng(31)
    a = random_family(rng, 4, 3)
    b = OperatorFamily(a.grid, rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3)))
    assert_allclose(lennon_sum(a, b).assemble(), a.assemble() + b.assemble(), atol=1e-13)
    assert_allclose(lennon_product(a, b).assemble(), a.assemble() @ b.assemble(), atol=1e-13)


def test_sum_requires_matching_grids():
    a = OperatorFamily(ParameterGrid(np.array([0.0, 1.0])), np.zeros((2, 2, 2)))
    b = OperatorFamily(ParameterGrid(np.array([0.0, 2.0])), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="grids"):
        lennon_sum(a, b)


def test_product_requires_matching_fiber_dimension():
    grid = ParameterGrid(np.array([0.0, 1.0]))
    a = OperatorFamily(grid, np.zeros((2, 2, 2)))
    b = OperatorFamily(grid, np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="dimension"):
        lennon_product(a, b)


# ------------------------------------------------------------- resolvents


def test_resolvent_reconstruct_round_trip():
    rng = np.random.default_rng(37)
    fam = random_family(rng, 4, 3, hermitian=True)
    alpha = np.full(4, 2.0j)
    res = OperatorFamily(
        fam.grid,
        np.stack([np.linalg.inv(F - a * np.eye(3)) for F, a in zip(fam.fibers, alpha)]),
    )
    back = resolvent_reconstruct(res, alpha)
    assert_allclose(back.fibers, fam.fibers, atol=1e-11)


def test_resolvent_reconstruct_rejects_singular_fiber():
    grid = ParameterGrid(np.array([0.0, 1.0]))
    res = OperatorFamily(grid, np.array([[[1.0]], [[0.0]]]))
    with pytest.raises(np.linalg.LinAlgError, match="fiber 1"):
        resolvent_reconstruct(res, np.zeros(2))


def test_resolvent_reconstruct_needs_one_shift_per_node():
    grid = ParameterGrid(np.array([0.0, 1.0]))
    res = OperatorFamily(grid, np.stack([np.eye(2), np.eye(2)]))
    with pytest.raises(ValueError, match="shifts"):
        resolvent_reconstruct(res, np.zeros(3))


def test_resolvent_limit_constant_sequence_converges():
    rng = np.random.default_rng(41)
    fam = random_family(rng, 3, 2, hermitian=True)
    out = resolvent_limit_check([fam, fam, fam, fam], fam, z=1j)
    assert out["all_converged"]
    assert_allclose(out["gaps"], 0.0, atol=1e-14)


def test_resolvent_limit_detects_first_order_gap():
    # T_j = (1 + 1/j) T gives R_j - R = -(1/j) R_j T R, a gap of order 1/j
    rng = np.random.default_rng(43)
    fam = random_family(rng, 2, 3, hermitian=True)
    js = [10, 20, 40, 80, 10**7]
    seq = [OperatorFamily(fam.grid, (1.0 + 1.0 / j) * fam.fibers) for j in js]
    out = resolvent_limit_check(seq, fam, z=1j, tol=1e-6)
    assert out["all_converged"]
    z = 1j
    for k, T in enumerate(fam.fibers):
        R = np.linalg.inv(T - z * np.eye(3))
        for row, j in enumerate(js):
            Rj = np.linalg.inv((1.0 + 1.0 / j) * T - z * np.eye(3))
            oracle = np.linalg.norm(-(1.0 / j) * Rj @ T @ R, 2)
            assert out["gaps"][row, k] == pytest.approx(oracle, rel=1e-9)


def test_resolvent_limit_flags_nonconvergence():
    grid = ParameterGrid(np.array([0.0]))
    limit = OperatorFamily(grid, np.array([[[0.0]]]))
    seq = [OperatorFamily(grid, np.array([[[1.0]]]))] * 4
    out = resolvent_limit_check(seq, limit, z=1j)
    assert not out["all_converged"]


def test_resolvent_limit_rejects_real_z_and_nonhermitian():
    grid = ParameterGrid(np.array([0.0]))
    fam = OperatorFamily(grid, np.array([[[1.0]]]))
    with pytest.raises(ValueError, match="imaginary"):
        resolvent_limit_check([fam], fam, z=2.0 + 0.0j)
    skew = OperatorFamily(grid, np.array([[[1.0j]]]))
    with pytest.raises(ValueError, match="Hermitian"):
        resolvent_limit_check([skew], skew, z=1j)


# ------------------------------------------------------------- truncation


def test_truncation_keep_rule_by_hand():
    # nodes 0, 1, 3; fiber k scales by k; sections are unit vectors
    grid = ParameterGrid(np.array([0.0, 1.0, 3.0]))
    fibers = np.stack([k * np.eye(2) for k in (0.0, 1.0, 5.0)])
    fam = OperatorFamily(grid, fibers)
    f = FamilyVector(grid, np.ones((3, 2)))
    # level 2: node 0 kept (action 0, node 0), node 1 kept (action sqrt2,
    # node 1), node 2 dropped (both its action norm and |t|=3 exceed 2)
    out = truncate_family_vector(fam, f, level=2.0)
    assert_allclose(out.sections[0], f.sections[0])
    assert_allclose(out.sections[1], f.sections[1])
    assert_allclose(out.sections[2], 0.0)
    # level 3: node 2 still dropped, by action norm alone
    out = truncate_family_vector(fam, f, level=3.0)
    assert_allclose(out.sections[2], 0.0)
    # a large level keeps everything
    out = truncate_family_vector(fam, f, level=100.0)
    assert_allclose(out.sections, f.sections)


def test_truncation_distance_is_monotone_in_level():
    rng = np.random.default_rng(47)
    fam = random_family(rng, 6, 3)
    f = random_sections(rng, fam.grid, 3)
    levels = np.linspace(0.0, 20.0, 25)
    dists = []
    for level in levels:
        cut = truncate_family_vector(fam, f, level)
        diff = FamilyVector(f.grid, f.sections - cut.sections)
        dists.append(family_vector_norm(diff))
    assert all(b <= a + 1e-14 for a, b in zip(dists, dists[1:]))
    assert dists[-1] == pytest.approx(0.0, abs=1e-14)


def test_truncation_rejects_negative_level():
    grid = ParameterGrid(np.array([0.0]))
    fam = OperatorFamily(grid, np.array([[[1.0]]]))
    f = FamilyVector(grid, np.ones((1, 1)))
    with pytest.raises(ValueError, match="nonnegative"):
        truncate_family_vector(fam, f, -1.0)
