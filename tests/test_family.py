import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from charmat.family import (
    CLASSIFY_TOL,
    FamilyVector,
    OperatorFamily,
    ParameterGrid,
    char_matrix_fiberwise,
    decomposition_suite,
    family_norm,
    lennon_product,
    lennon_sum,
    resolvent_limit_check,
    resolvent_reconstruct,
    truncate_family_vector,
)
from charmat.hilbert import is_hermitian


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


# ---------------------------------------------------------------- sections


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


def test_char_matrix_commutes_with_assembly(monkeypatch):
    rng = np.random.default_rng(13)
    fam = random_family(rng, 4, 3)
    m, n = fam.m, fam.n
    calls = []
    for name in ("cholesky", "inv", "svd", "eigh"):
        def record(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    chars, residuals = char_matrix_fiberwise(fam)
    assert len(chars) == 4
    for name in ("p11", "p12", "p21", "p22"):
        assert residuals[name] <= 1e-12, (name, residuals)
    # one batched Gram pass over the fibers; the assembled matrix gets one
    # svd and its blocks by the closed SVD formula, with no Gram matrix
    assert sorted(name for name, shape in calls if shape == (m, n, n)) == \
        ["cholesky", "cholesky", "inv", "inv"]
    assert [name for name, shape in calls if shape == (m * n, m * n)] == ["svd"]


def _skew_p11(route):
    def skewed(T):
        p11, *rest = route(T)
        return (p11 * (1.0 + 1e-8), *rest)
    return skewed


def _skew_gram(route):
    return lambda *args: route(*args) * (1.0 + 1e-8)


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("module, name, skew", [
    ("family", "_char_blocks", _skew_p11),  # the fibers' blocks alone
    ("graph", "_inverse_gram", _skew_gram),  # the Gram route itself, wherever it runs
], ids=["fiber-blocks", "gram-route"])
def test_verify_audit_is_independent_of_the_fiber_route(tmp_path, monkeypatch, capsys,
                                                       hermitian, module, name, skew):
    # the assembled blocks come from the suite's svd (or eigh), not from the
    # Gram route the fibers take, so an error in that route shows in verify
    import importlib

    from charmat.cli import main
    from charmat.graph import IDENTITY_TOL
    from charmat.io import save_matrix

    fam = random_family(np.random.default_rng(67), 4, 5, hermitian=hermitian)
    fibers = []
    for k, F in enumerate(fam.fibers):
        save_matrix(tmp_path / f"F{k}.json", F)
        fibers.append(json.loads((tmp_path / f"F{k}.json").read_text()))
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"grid": fam.grid.nodes.tolist(), "fibers": fibers}))
    argv = ["verify", str(path), "--out", str(tmp_path / "o")]

    assert main(argv) == 0
    clean = json.loads(capsys.readouterr().out)["residuals"]
    assert max(clean[f"fiberwise_{b}"] for b in ("p11", "p12", "p21", "p22")) <= 1e-13

    owner = importlib.import_module(f"charmat.{module}")
    monkeypatch.setattr(owner, name, skew(getattr(owner, name)))
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["residuals"]["fiberwise_p11"] > IDENTITY_TOL


@pytest.mark.parametrize("hermitian", [False, True])
def test_fiberwise_residuals_are_the_suite_char_matrix_gaps(hermitian):
    fam = random_family(np.random.default_rng(71), 4, 5, hermitian=hermitian)
    gaps = decomposition_suite(fam)["char_matrix"]["gaps"]
    residuals = char_matrix_fiberwise(fam)[1]
    if hermitian:
        # the suite reads the blocks off its eigh, char_matrix_fiberwise off an svd
        assert residuals.keys() == gaps.keys()
        assert all(abs(residuals[b] - gaps[b]) <= 1e-13 for b in gaps)
    else:
        assert residuals == gaps


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


def _nearly_hermitian_family():
    # Hermitian to CLASSIFY_TOL but not exactly: the eigenvalues of its
    # Hermitian part miss its top singular value 1 + eps by eps > 1e-10
    n, eps = 16, 1.2e-10
    F = np.diag([1.0, -1.0] + [0.9] * (n - 2))
    F[0, 1], F[1, 0] = eps, -eps
    return OperatorFamily(ParameterGrid(np.linspace(0.0, 1.0, 3)), np.stack([F] * 3))


@pytest.mark.parametrize("kind, assembled", [
    ("hermitian", ["eigh"]),
    ("random", ["inv", "svd"]),
    ("nearly-hermitian", ["eigvalsh", "inv", "svd"]),
])
def test_suite_factors_the_assembled_matrix_once(monkeypatch, kind, assembled):
    rng = np.random.default_rng(53)
    fam = _nearly_hermitian_family() if kind == "nearly-hermitian" else \
        random_family(rng, 4, 5, hermitian=kind == "hermitian")
    m, n = fam.m, fam.n
    calls = []
    for name in ("svd", "eigh", "eigvalsh", "inv", "cholesky"):
        def record(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    report = decomposition_suite(fam)
    assert all(item["pass"] for item in report.values())
    assert report["inverse"]["applicable"]
    # the characteristic matrix is read off the one factorization: no Gram route
    assert sorted(name for name, shape in calls if shape == (m * n, m * n)) == assembled
    assert ("cholesky", (m * n, m * n)) not in calls
    # the fiber side: one batched call per construction, none per fiber; the
    # Gram pass makes two Cholesky gates and two inverses, and the
    # injectivity gate reuses the singular values that |F| needs
    assert sorted(name for name, shape in calls if shape == (m, n, n)) == \
        ["cholesky", "cholesky", "eigvalsh", "inv", "inv", "inv", "svd"]
    assert {name for name, shape in calls if shape == (n, n)} == set()


def test_suite_normal_stays_a_product_test():
    # Hermitian within CLASSIFY_TOL, yet not normal within it: a
    # "Hermitian implies normal" shortcut would misreport this fiber
    A = np.diag([1.0, -1.0]) + 0.45e-10 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    fam = OperatorFamily(ParameterGrid(np.array([0.0])), A[None])
    report = decomposition_suite(fam)
    assert report["selfadjoint"]["note"] == "assembled=True, all_fibers=True"
    assert report["normal"]["note"] == "assembled=False, all_fibers=False"


def test_suite_norm_is_exact_for_a_nearly_hermitian_family():
    fam = _nearly_hermitian_family()
    report = decomposition_suite(fam)
    assert report["selfadjoint"]["note"] == "assembled=True, all_fibers=True"
    assert report["positive"]["note"] == "assembled=False, all_fibers=False"
    assert abs(report["modulus"]["norm"] - family_norm(fam)) <= 1e-15
    assert all(item["pass"] for item in report.values())


def test_suite_memory_is_bounded(traced_peak_mb):
    # the peak counts A, one dense factor and the products formed from it
    rng = np.random.default_rng(59)
    fam = random_family(rng, 32, 16)
    assembled_mb = fam.assemble().nbytes / 2**20
    assert traced_peak_mb(decomposition_suite, fam) <= 6.5 * assembled_mb


@pytest.mark.parametrize("order", ["C", "F"])
def test_block_gap_is_the_dense_difference(order):
    from charmat.family import _block_gap

    rng = np.random.default_rng(61)
    blocks, other = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    W = np.asarray(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)), order=order)
    grid = ParameterGrid(np.arange(3.0))
    dense = [np.linalg.norm(W - OperatorFamily(grid, b).assemble()) for b in (blocks, other)]
    assert _block_gap(W.copy(order=order), blocks) == pytest.approx(dense[:1], rel=1e-15)
    # a later stack shares the first one's off-diagonal energy
    assert _block_gap(W.copy(order=order), blocks, other) == pytest.approx(dense, rel=1e-14)


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


def test_resolvent_limit_names_the_first_nonhermitian_fiber():
    rng = np.random.default_rng(47)
    good = random_family(rng, 5, 3, hermitian=True)
    fibers = good.fibers.copy()
    fibers[2, 0, 1] += 1e-3
    fibers[4, 1, 0] += 1e-3
    bad = OperatorFamily(good.grid, fibers)
    for seq, limit in (([good, bad], good), ([good], bad)):
        with pytest.raises(ValueError, match="^fiber 2 is not Hermitian$"):
            resolvent_limit_check(seq, limit, z=1j)


def test_is_hermitian_on_a_stack_equals_the_per_matrix_verdicts():
    # each matrix is judged against its own norm, not the stack's
    stack = np.array([1e3 * np.eye(2), [[0.0, 1e-9], [0.0, 0.0]]])
    verdicts = is_hermitian(stack, CLASSIFY_TOL)
    assert verdicts.tolist() == [True, False]
    assert verdicts.tolist() == [is_hermitian(A, CLASSIFY_TOL) for A in stack]


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
        diff = f.sections - cut.sections
        # weighted L2 norm sqrt(sum_k w_k ||f_k - cut_k||^2)
        dists.append(np.sqrt(np.sum(f.grid.weights * np.sum(np.abs(diff) ** 2, axis=1))))
    assert all(b <= a + 1e-14 for a, b in zip(dists, dists[1:]))
    assert dists[-1] == pytest.approx(0.0, abs=1e-14)


def test_truncation_rejects_negative_level():
    grid = ParameterGrid(np.array([0.0]))
    fam = OperatorFamily(grid, np.array([[[1.0]]]))
    f = FamilyVector(grid, np.ones((1, 1)))
    with pytest.raises(ValueError, match="nonnegative"):
        truncate_family_vector(fam, f, -1.0)
