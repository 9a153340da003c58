import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from charmat.family import (
    CLASSIFY_TOL,
    SUITE_TOL,
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
from charmat.graph import IDENTITY_TOL, CharacteristicMatrix, verify_identities
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


def test_family_values_compare_and_hash_by_identity():
    # array fields have no truth value, so == is identity; ParameterGrid.matches compares values
    grid, same = ParameterGrid(np.linspace(0.0, 1.0, 3)), ParameterGrid(np.linspace(0.0, 1.0, 3))
    assert grid == grid and grid != same and grid.matches(same)
    rng = np.random.default_rng(0)
    fam, f = random_family(rng, 3, 2), random_sections(rng, grid, 2)
    assert fam == fam and f == f and hash(grid) == hash(grid)
    assert len({grid, same, fam, f}) == 4


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
    for name in ("cholesky", "inv", "svd", "eigh", "eigvalsh"):
        def record(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    chars, residuals = char_matrix_fiberwise(fam)
    assert len(chars) == 4
    for name in ("p11", "p12", "p21", "p22"):
        assert residuals[name] <= 1e-12, (name, residuals)
    # one batched Gram pass and one batched svd over the fibers; nothing dense
    assert sorted(name for name, shape in calls) == ["cholesky", "cholesky", "inv", "inv", "svd"]
    assert {shape for name, shape in calls} == {(m, n, n)}
    # assembled, the fiber blocks satisfy A12 and A13 with the assembled operator
    monkeypatch.undo()
    P = CharacteristicMatrix(*(OperatorFamily(fam.grid, np.stack([getattr(c, b) for c in chars]))
                               .assemble() for b in ("p11", "p12", "p21", "p22")))
    ident = verify_identities(fam.assemble(), P)
    assert max(ident.residuals["A12"], ident.residuals["A13"]) <= 1e-14
    # and the suite's fiberwise labels are the gaps
    suite = decomposition_suite(fam).residuals
    assert {b: suite[f"fiberwise_{b}"] for b in ("p11", "p12", "p21", "p22")} == residuals


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
    suite = decomposition_suite(fam).residuals
    gaps = {b: suite[f"fiberwise_{b}"] for b in ("p11", "p12", "p21", "p22")}
    # one route: the fibers' Gram blocks against the blocks of their SVD basis
    assert char_matrix_fiberwise(fam)[1] == gaps


# ------------------------------------------------------ decomposition suite


def test_suite_random_family_all_items_pass():
    rng = np.random.default_rng(19)
    fam = random_family(rng, 3, 4)
    report = decomposition_suite(fam)
    assert report.all_pass, report
    # the verdicts are bounded by 0, the fiber cross-check and the two norms by
    # IDENTITY_TOL, every other label by SUITE_TOL
    assert report.bounds == {
        **{f"fiberwise_{b}": IDENTITY_TOL for b in ("p11", "p12", "p21", "p22")},
        **{f"suite_{s}": SUITE_TOL for s in ("adjoint", "modulus", "inverse", "polynomial")},
        **dict.fromkeys(("suite_selfadjoint", "suite_positive", "suite_normal"), 0.0),
        "norm_consistency": IDENTITY_TOL}
    assert report.verdicts == {"suite_selfadjoint", "suite_positive", "suite_normal"}
    assert report.residuals["suite_adjoint"] <= 1e-12
    assert report.residuals["suite_modulus"] <= 1e-9
    # generic random fibers are injective, so the inverse label is live
    assert "suite_inverse" in report.residuals
    assert "not normal" in report.notes["suite_polynomial"]


def test_suite_hermitian_family_classified_selfadjoint():
    rng = np.random.default_rng(23)
    fam = random_family(rng, 3, 3, hermitian=True)
    report = decomposition_suite(fam)
    assert report.residuals["suite_selfadjoint"] <= report.bounds["suite_selfadjoint"]
    assert "assembled=True" in report.notes["suite_selfadjoint"]
    assert "suite_polynomial" not in report.notes


def test_suite_positivity_needs_every_fiber():
    # diag(1) and diag(-1): each Hermitian, the second not positive, and the
    # assembly diag(1, -1) is not positive either -- the iff holds
    grid = ParameterGrid(np.array([0.0, 1.0]))
    fam = OperatorFamily(grid, np.array([[[1.0]], [[-1.0]]]))
    report = decomposition_suite(fam)
    assert report.residuals["suite_positive"] <= report.bounds["suite_positive"]
    assert "assembled=False" in report.notes["suite_positive"]
    assert "all_fibers=False" in report.notes["suite_positive"]
    assert report.residuals["suite_selfadjoint"] <= report.bounds["suite_selfadjoint"]


def test_suite_skips_inverse_for_singular_fiber():
    grid = ParameterGrid(np.array([0.0, 1.0]))
    fam = OperatorFamily(grid, np.array([[[1.0]], [[0.0]]]))
    report = decomposition_suite(fam)
    assert "suite_inverse" not in report.residuals
    assert report.all_pass
    assert "injective" in report.notes["suite_inverse"]


def test_suite_polynomial_holds_by_construction_on_a_scalar_fiber():
    # p(bd F) = bd(p(F)) for every polynomial p, so the item is 0.0 and runs no Horner rule
    grid = ParameterGrid(np.array([0.0]))
    fam = OperatorFamily(grid, np.array([[[3.0]]]))
    report = decomposition_suite(fam)
    assert (report.residuals["suite_polynomial"], report.bounds["suite_polynomial"]) == \
        (0.0, SUITE_TOL)
    assert "suite_polynomial" not in report.notes


def _horner_from_zero(coeffs, A):
    # dense reference: p(A) by Horner started from the zero matrix
    n = A.shape[-1]
    out = np.zeros(A.shape, dtype=complex)
    for c in reversed(list(coeffs)):
        out = out @ A + c * np.eye(n)
    return out


@pytest.mark.parametrize("n", [1, 16, 64])
def test_polynomial_of_the_assembly_is_the_assembly_of_the_polynomials(n):
    # why the suite's polynomial item reads 0.0 by construction: p(bd F) = bd(p(F)),
    # up to the rounding of the dense products; a 1 x 1 fiber is normal, a random n x n one is not
    rng = np.random.default_rng(n)
    F = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    fam = OperatorFamily(ParameterGrid(np.arange(3.0)), F)
    for coeffs in ((0.0, -2.0, 0.0, 1.0), (1.5, -2.0), (0.5, 1.0 - 1.0j, 0.0, -3.0, 2.0)):
        dense = _horner_from_zero(coeffs, fam.assemble())
        fibers = OperatorFamily(fam.grid, _horner_from_zero(coeffs, F)).assemble()
        assert np.linalg.norm(fibers - dense) <= 1e-13 * np.linalg.norm(dense)
    report = decomposition_suite(fam)
    assert report.residuals["suite_polynomial"] == 0.0
    assert ("not normal" in report.notes.get("suite_polynomial", "")) == (n > 1)


def test_suite_norm_consistency_compares_two_readings_of_the_assembled_norm():
    # family_norm's values-only svd against the largest singular value of the fiber
    # pass's full svd: two LAPACK routines, so the label reads rounding, not 0 by construction
    rng = np.random.default_rng(31)
    fam = random_family(rng, 5, 6)
    report = decomposition_suite(fam)
    expected = np.linalg.norm(fam.assemble(), 2)
    assert abs(family_norm(fam) - expected) <= 1e-14 * expected
    assert report.residuals["norm_consistency"] <= 1e-15


def _nearly_hermitian_family():
    # Hermitian to CLASSIFY_TOL but not exactly: the eigenvalues of its
    # Hermitian part miss its top singular value 1 + eps by eps > 1e-10
    n, eps = 16, 1.2e-10
    F = np.diag([1.0, -1.0] + [0.9] * (n - 2))
    F[0, 1], F[1, 0] = eps, -eps
    return OperatorFamily(ParameterGrid(np.linspace(0.0, 1.0, 3)), np.stack([F] * 3))


@pytest.mark.parametrize("kind", ["hermitian", "random", "nearly-hermitian"])
def test_suite_factors_only_stacks(monkeypatch, kind):
    rng = np.random.default_rng(53)
    fam = _nearly_hermitian_family() if kind == "nearly-hermitian" else \
        random_family(rng, 4, 5, hermitian=kind == "hermitian")
    m, n = fam.m, fam.n
    calls = []
    for name in ("svd", "eigh", "eigvalsh", "inv", "cholesky", "solve", "qr"):
        def record(a, *args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a), kwargs.get("compute_uv", True)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    report = decomposition_suite(fam)
    assert report.all_pass, report
    assert "suite_inverse" in report.residuals
    # nothing the size of A is factored: only the fiber stack is
    assert {shape for _, shape, _ in calls} == {(m, n, n)}
    # one batched call per construction, none per fiber.  The fibers' Gram
    # pass makes two Cholesky gates and two inverses, and their svd gives the
    # closed-formula blocks, |F|, the injectivity gate and the norm that
    # family_norm's 2-norm (np.linalg.norm's own values-only svd) is compared
    # with.  One eigvalsh of the Hermitian parts gives positivity, and one
    # inverse the inverse label
    fibers = ["cholesky", "cholesky", "eigvalsh", "inv", "inv", "inv", "svd"]
    assert sorted(name for name, _, _ in calls) == fibers
    assert [uv for name, _, uv in calls if name == "svd"] == [True]


def _corpus_family(kind):
    # the seven families on which the tile route must reproduce the dense one
    from charmat.boundary import GridDiscretization, laplacian

    rng = np.random.default_rng(89)
    grid = ParameterGrid(np.linspace(0.0, 1.0, 4))
    if kind == "nearly-hermitian":
        return _nearly_hermitian_family()
    if kind == "laplacian":
        return OperatorFamily(grid, np.stack([laplacian(GridDiscretization(12, "dirichlet"))] * 4))
    if kind == "hermitian":
        # P + iS, P positive and S real antisymmetric: not positive, yet its real
        # part P is, so a Hermitian part taken without the conjugate misjudges it
        G, S = rng.standard_normal((2, 4, 6, 6))
        return OperatorFamily(grid, G @ G.transpose(0, 2, 1) / 6 + 1j * (S - S.transpose(0, 2, 1)))
    fam = random_family(rng, 4, 6, hermitian=kind != "random" and kind != "scaled")
    if kind == "scaled":
        return OperatorFamily(grid, 1e6 * fam.fibers)
    if kind in ("psd", "psd-edge"):
        # each fiber Q diag(w) Q*, its lowest eigenvalue 0 or just inside -CLASSIFY_TOL
        Q, _ = np.linalg.qr(fam.fibers)
        w = np.linspace(0.0, 1.0, 6)
        w[0] = -0.9 * CLASSIFY_TOL if kind == "psd-edge" else 0.0
        return OperatorFamily(grid, (Q * w) @ Q.conj().transpose(0, 2, 1))
    return fam


def _dense_verdicts(A):
    # the verdicts of the dense route, which factored A itself
    from charmat.family import _nonnegative

    Ah = A.conj().T
    hermitian = bool(is_hermitian(A, CLASSIFY_TOL))
    commutator = np.linalg.norm(A @ Ah - Ah @ A)
    return {
        "selfadjoint": hermitian,
        "positive": hermitian and bool(_nonnegative(np.linalg.eigvalsh((A + Ah) / 2.0), CLASSIFY_TOL)),
        "normal": bool(commutator <= CLASSIFY_TOL * max(1.0, np.linalg.norm(A) ** 2)),
    }


@pytest.mark.parametrize("kind", ["random", "hermitian", "psd", "psd-edge", "nearly-hermitian",
                                  "laplacian", "scaled"])
def test_tile_spectra_reproduce_the_dense_route(kind):
    fam = _corpus_family(kind)
    A = fam.assemble()
    report = decomposition_suite(fam)
    norm2 = np.linalg.norm(A, 2)
    assert abs(family_norm(fam) - norm2) <= 1e-14 * norm2
    assert report.residuals["norm_consistency"] <= 1e-15
    for name, assembled in _dense_verdicts(A).items():
        note = report.notes[f"suite_{name}"]
        assert f"assembled={assembled}," in note, (name, note)
    if kind == "psd-edge":
        assert "assembled=True," in report.notes["suite_positive"]
    if kind == "hermitian":
        assert "assembled=False," in report.notes["suite_positive"]


@pytest.mark.parametrize("kind", ["random", "hermitian", "psd", "psd-edge", "nearly-hermitian",
                                  "laplacian", "scaled"])
def test_suite_polynomial_is_at_rounding_level_on_an_assembled_family(kind):
    # p(bd F) = bd(p(F)) holds by construction, so nothing is left to round
    assert decomposition_suite(_corpus_family(kind)).residuals["suite_polynomial"] == 0.0


def _suite_under(monkeypatch, fam, assembled):
    # the suite's report with OperatorFamily.assemble patched to return `assembled`:
    # it is the unpatched report, since the suite never assembles the family
    clean = decomposition_suite(fam)
    monkeypatch.setattr(OperatorFamily, "assemble", lambda self: assembled.copy())
    report = decomposition_suite(fam)
    assert report == clean
    return report


@pytest.mark.parametrize("size", [1e-6, 1e-3])
def test_verify_ignores_an_assembly_error(tmp_path, monkeypatch, capsys, size):
    # identical positive semidefinite fibers, and an assembly that adds a
    # Hermitian E of norm `size` off the diagonal tiles and 2 size on each tile:
    # the dense matrix leaves the positive cone and its 2-norm moves, yet verify
    # reads only the fibers, so its report is the unpatched one and passes
    from charmat.cli import main
    from charmat.io import save_matrix

    m, n = 4, 4
    rng = np.random.default_rng(97)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    F = (Q * np.array([0.0, 0.5, 1.0, 2.0])) @ Q.conj().T
    fam = OperatorFamily(ParameterGrid(np.linspace(0.0, 1.0, m)), np.stack([F] * m))
    E = rng.standard_normal((m * n, m * n)) + 1j * rng.standard_normal((m * n, m * n))
    E = E + E.conj().T
    for k in range(m):
        E[k * n:(k + 1) * n, k * n:(k + 1) * n] = 0.0
    E *= size / np.linalg.norm(E)
    for k in range(m):
        E[k * n:(k + 1) * n, k * n:(k + 1) * n] = 2 * size * np.outer(Q[:, -1], Q[:, -1].conj())
    assert not _dense_verdicts(fam.assemble() + E)["positive"]

    save_matrix(tmp_path / "F.json", F)
    fiber = json.loads((tmp_path / "F.json").read_text())
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"grid": fam.grid.nodes.tolist(), "fibers": [fiber] * m}))
    argv = ["verify", str(path), "--out", str(tmp_path / "o")]
    outs = []
    for patched in (False, True):
        if patched:
            assemble = OperatorFamily.assemble
            monkeypatch.setattr(OperatorFamily, "assemble", lambda self: assemble(self) + E)
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        del out["wall_time_ms"]
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[1]["residuals"]["norm_consistency"] <= 1e-15
    assert outs[1]["notes"]["suite_positive"] == "assembled=True, all_fibers=True"


@pytest.mark.parametrize("second", [
    [[0.0, 1e-9], [0.0, 0.0]],  # not Hermitian at its own scale
    [[-1e-8, 0.0], [0.0, 1.0]],  # Hermitian, not positive at its own scale
], ids=["skew", "negative"])
def test_tile_route_judges_each_fiber_at_its_own_scale(second):
    # next to 1e3 I, the dense route judges the assembly by its whole norm and
    # calls it Hermitian and positive; the tiles are judged as the fibers are
    fam = OperatorFamily(ParameterGrid(np.array([0.0, 1.0])),
                         np.stack([1e3 * np.eye(2), np.array(second)]))
    dense = _dense_verdicts(fam.assemble())
    assert dense["selfadjoint"] and dense["positive"]
    report = decomposition_suite(fam)
    assert report.all_pass, report
    assert report.notes["suite_positive"] == "assembled=False, all_fibers=False"
    hermitian = second[0][1] == second[1][0]
    assert report.notes["suite_selfadjoint"] == f"assembled={hermitian}, all_fibers={hermitian}"


@pytest.mark.parametrize("where", ["off", "tile"])
def test_suite_verdicts_ignore_a_broken_assembly(monkeypatch, where):
    # Hermitian, hence normal, fibers and an assembly error E of norm 1e-3,
    # either off the diagonal tiles or inside tile 0 alone: the dense matrix is
    # neither Hermitian nor normal, but the suite reads the fibers alone
    rng = np.random.default_rng(103)
    fam = random_family(rng, 4, 3, hermitian=True)
    E = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    if where == "off":
        E[np.kron(np.eye(4, dtype=bool), np.ones((3, 3), dtype=bool))] = 0.0
    else:
        E[3:], E[:, 3:] = 0.0, 0.0
    A = fam.assemble() + 1e-3 * E / np.linalg.norm(E)
    dense = _dense_verdicts(A)
    assert not dense["selfadjoint"] and not dense["normal"]
    report = _suite_under(monkeypatch, fam, A)
    for name in ("suite_selfadjoint", "suite_normal"):
        assert report.notes[name] == "assembled=True, all_fibers=True", (name, report)
        assert report.residuals[name] == 0.0
    assert report.residuals["suite_adjoint"] == 0.0


def test_suite_positive_is_the_fibers_verdict_under_a_patched_assembly(monkeypatch):
    # an assembly error of 1e-8 that couples the kernels of the two diag(0, 1)
    # tiles gives the dense matrix the eigenvalue -1e-8; the suite's verdict is
    # the fibers', which are all positive
    fam = OperatorFamily(ParameterGrid(np.arange(3.0)),
                         np.stack([1e3 * np.eye(2), np.diag([0.0, 1.0]), np.diag([0.0, 1.0])]))
    A = fam.assemble()
    A[2, 4] = A[4, 2] = 1e-8
    assert np.linalg.eigvalsh(A).min() < -0.9e-8
    report = _suite_under(monkeypatch, fam, A)
    assert report.notes["suite_selfadjoint"] == "assembled=True, all_fibers=True"
    assert report.notes["suite_positive"] == "assembled=True, all_fibers=True"
    assert report.residuals["suite_positive"] == 0.0


def test_suite_normal_stays_a_product_test():
    # Hermitian within CLASSIFY_TOL, yet not normal within it: a
    # "Hermitian implies normal" shortcut would misreport this fiber.  Its
    # commutator is 1.27 times the threshold, so the verdict, read off the
    # fiber, must not depend on the probes
    A = np.diag([1.0, -1.0]) + 0.45e-10 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    fam = OperatorFamily(ParameterGrid(np.array([0.0])), A[None])
    for seed in range(20):
        report = decomposition_suite(fam, seed)
        assert report.notes["suite_selfadjoint"] == "assembled=True, all_fibers=True"
        assert report.notes["suite_normal"] == "assembled=False, all_fibers=False", seed


def test_suite_norm_is_exact_for_a_nearly_hermitian_family():
    fam = _nearly_hermitian_family()
    report = decomposition_suite(fam)
    assert report.notes["suite_selfadjoint"] == "assembled=True, all_fibers=True"
    assert report.notes["suite_positive"] == "assembled=False, all_fibers=False"
    assert report.residuals["norm_consistency"] <= 1e-15
    assert report.all_pass, report


def test_suite_memory_is_a_few_fiber_stacks(traced_peak_mb):
    # the peak is the fiber pass's blocks, svd and gaps, each the size of the
    # stack (13.1 stacks measured), and the probes are (m, n, 8): nothing the size of A
    rng = np.random.default_rng(59)
    fam = random_family(rng, 32, 16)
    assert traced_peak_mb(decomposition_suite, fam) <= 16 * fam.fibers.nbytes / 2**20


_SUITE_RSS_SETUP = """
import numpy as np
from charmat.family import OperatorFamily, ParameterGrid, decomposition_suite

def family(m, n=16):
    rng = np.random.default_rng(59)
    F = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    return OperatorFamily(ParameterGrid(np.linspace(0.0, 1.0, m)), F)

decomposition_suite(family(2))  # LAPACK's code and buffers are paged in here
fam = family(512)
"""


def test_suite_rss_high_water_is_bounded(rss_growth_bytes):
    # an assembled complex A at m = 512, n = 16 alone is 1 GiB; the suite read
    # 26 MB above the RSS before the call
    grown = rss_growth_bytes(_SUITE_RSS_SETUP, "decomposition_suite(fam)")
    assert grown < 64 * 2**20


@pytest.mark.parametrize("order", ["C", "F"])
def test_adjoint_item_ignores_a_patched_assembly(monkeypatch, order):
    # an "assembled" matrix that is not block diagonal, in either memory order:
    # (bd F)* = bd(F*) holds by construction, and the suite never assembles
    rng = np.random.default_rng(61)
    blocks, _ = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    W = np.asarray(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)), order=order)
    fam = OperatorFamily(ParameterGrid(np.arange(3.0)), blocks)
    report = _suite_under(monkeypatch, fam, W)
    assert (report.residuals["suite_adjoint"], report.bounds["suite_adjoint"]) == (0.0, SUITE_TOL)
    assert "suite_adjoint" not in report.notes


@pytest.mark.parametrize("size", [1e-6, 1e-3])
def test_probe_residuals_ignore_a_patched_assembly(monkeypatch, size):
    # an assembly error E of known Frobenius norm, spread over every tile: the
    # probe items compare fiber constructions with each other, so they stay at rounding
    rng = np.random.default_rng(83)
    fam = random_family(rng, 6, 5)
    E = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    report = _suite_under(monkeypatch, fam, fam.assemble() + size * E / np.linalg.norm(E))
    for name in ("suite_modulus", "suite_inverse"):
        assert report.residuals[name] <= 1e-13, (name, report)
    assert report.residuals["suite_polynomial"] == 0.0
    assert report.residuals["suite_adjoint"] == 0.0


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
    # of two singular fibers, the first is named
    fibers = np.stack([np.eye(3)] * 5)
    fibers[2, 1] = fibers[2, 0]  # two equal rows
    fibers[4] = 0.0
    res = OperatorFamily(ParameterGrid(np.arange(5.0)), fibers)
    with pytest.raises(np.linalg.LinAlgError, match="resolvent fiber 2 is singular"):
        resolvent_reconstruct(res, np.zeros(5))


@pytest.mark.parametrize("m, n", [(1, 1), (7, 5), (16, 24)])
def test_resolvent_reconstruct_on_the_stack_is_the_per_fiber_result(m, n):
    rng = np.random.default_rng(m * n)
    res = random_family(rng, m, n)
    alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    per_fiber = [a * np.eye(n) + np.linalg.inv(R) for R, a in zip(res.fibers, alpha)]
    assert np.array_equal(resolvent_reconstruct(res, alpha).fibers, np.stack(per_fiber))


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
    # a non-finite z is rejected before any work, even on a family that would fail later
    for z in (complex(0.0, np.nan), complex(np.nan, 1.0), complex(np.inf, 1.0), complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            resolvent_limit_check([skew], skew, z=z)
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


def test_truncation_rejects_a_nan_level_and_keeps_everything_at_inf():
    grid = ParameterGrid(np.array([0.0, 1.0]))
    fam = OperatorFamily(grid, np.array([[[1.0]], [[5.0]]]))
    f = FamilyVector(grid, np.ones((2, 1)))
    with pytest.raises(ValueError, match="nonnegative"):
        truncate_family_vector(fam, f, float("nan"))
    assert np.array_equal(truncate_family_vector(fam, f, float("inf")).sections, f.sections)
