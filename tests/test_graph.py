import numpy as np
import pytest
from numpy.testing import assert_allclose

from charmat.graph import (
    KERNEL_TOL,
    CharacteristicMatrix,
    adjoint_char_matrix,
    char_matrix,
    char_matrix_oracle,
    inverse_char_matrix,
    operator_from_char_matrix,
    verify_identities,
)
from charmat.hilbert import adjoint


def random_operator(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_scalar_two_blocks():
    P = char_matrix(np.array([[2.0]]))
    assert_allclose(
        [P.p11[0, 0], P.p12[0, 0], P.p21[0, 0], P.p22[0, 0]],
        [0.2, 0.4, 0.4, 0.8],
        atol=1e-14,
    )


def test_scalar_imaginary_blocks():
    P = char_matrix(np.array([[1j]]))
    assert_allclose(
        [P.p11[0, 0], P.p12[0, 0], P.p21[0, 0], P.p22[0, 0]],
        [0.5, -0.5j, 0.5j, 0.5],
        atol=1e-14,
    )


def test_zero_operator_blocks():
    P = char_matrix(np.zeros((3, 3)))
    assert_allclose(P.p11, np.eye(3), atol=1e-14)
    assert_allclose(P.p12, 0, atol=1e-14)
    assert_allclose(P.p21, 0, atol=1e-14)
    assert_allclose(P.p22, 0, atol=1e-14)


def test_blocks_must_share_shape():
    I = np.eye(2)
    with pytest.raises(ValueError, match="share"):
        CharacteristicMatrix(p11=I, p12=I, p21=I, p22=np.eye(3))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_oracle_equivalence(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        T = random_operator(rng, n)
        P = char_matrix(T)
        assert P.blockwise_distance(char_matrix_oracle(T)) <= 1e-11


def test_identity_suite_passes_for_random_operators():
    rng = np.random.default_rng(17)
    for n in (1, 3, 8):
        T = random_operator(rng, n)
        report = verify_identities(T, char_matrix(T))
        assert report.all_pass, report.residuals
        for label in ("A6", "A7", "A12", "A13"):
            assert report.residuals[label] <= 1e-12
        assert report.residuals["A8"] > report.kernel_threshold


def test_identity_suite_flags_corrupted_block():
    # corrupting p21 must break block symmetry and the first factorization
    P = char_matrix(np.array([[2.0]]))
    bad = CharacteristicMatrix(
        p11=P.p11, p12=P.p12, p21=np.array([[0.5]]), p22=P.p22
    )
    report = verify_identities(np.array([[2.0]]), bad)
    assert not report.passes["A6"]
    assert not report.passes["A12"]
    assert not report.all_pass


def test_projection_is_idempotent_hermitian():
    rng = np.random.default_rng(23)
    T = random_operator(rng, 6)
    full = char_matrix(T).assemble()
    assert_allclose(full @ full, full, atol=1e-12)
    assert_allclose(full, full.conj().T, atol=1e-12)


def test_adjoint_formula_scalar_pinned():
    P = adjoint_char_matrix(char_matrix(np.array([[1j]])))
    assert_allclose(
        [P.p11[0, 0], P.p12[0, 0], P.p21[0, 0], P.p22[0, 0]],
        [0.5, 0.5j, -0.5j, 0.5],
        atol=1e-14,
    )
    assert P.blockwise_distance(char_matrix(np.array([[-1j]]))) <= 1e-14


def test_adjoint_formula_matches_direct_route():
    rng = np.random.default_rng(29)
    for n in (2, 5, 9):
        T = random_operator(rng, n)
        P = char_matrix(T)
        assert adjoint_char_matrix(P).blockwise_distance(char_matrix(adjoint(T))) <= 1e-11
        # involution
        assert adjoint_char_matrix(adjoint_char_matrix(P)).blockwise_distance(P) <= 1e-14


def test_adjoint_intertwines_recovery():
    # recovering from the transformed blocks gives the adjoint operator
    rng = np.random.default_rng(31)
    T = random_operator(rng, 5)
    back = operator_from_char_matrix(adjoint_char_matrix(char_matrix(T)))
    assert np.linalg.norm(back - adjoint(T), "fro") <= 1e-10


def test_inverse_formula_scalar_pinned():
    P = inverse_char_matrix(char_matrix(np.array([[2.0]])))
    assert P.blockwise_distance(char_matrix(np.array([[0.5]]))) <= 1e-14


def test_inverse_formula_matches_direct_route():
    rng = np.random.default_rng(37)
    for n in (2, 4, 8):
        T = random_operator(rng, n) + 0.5 * np.eye(n)
        P = char_matrix(T)
        Pinv = inverse_char_matrix(P)
        assert Pinv.blockwise_distance(char_matrix(np.linalg.inv(T))) <= 1e-10
        # involution
        assert inverse_char_matrix(Pinv).blockwise_distance(P) <= 1e-14


def test_inverse_gate_rejects_kernel():
    rng = np.random.default_rng(41)
    T = random_operator(rng, 5)
    T[:, 0] = 0.0  # e_0 spans a kernel direction
    with pytest.raises(ValueError, match="kernel"):
        inverse_char_matrix(char_matrix(T))


def test_zero_operator_rejected_by_gate():
    with pytest.raises(ValueError, match="kernel"):
        inverse_char_matrix(char_matrix(np.zeros((2, 2))))


def test_operator_recovery_round_trip():
    rng = np.random.default_rng(43)
    for n in (1, 4, 10):
        T = random_operator(rng, n)
        back = operator_from_char_matrix(char_matrix(T))
        assert np.linalg.norm(back - T, "fro") <= 1e-10 * (1 + np.linalg.norm(T, "fro"))


def test_recovery_rejects_singular_block():
    bad = CharacteristicMatrix(
        p11=np.zeros((2, 2)), p12=np.zeros((2, 2)),
        p21=np.zeros((2, 2)), p22=np.eye(2),
    )
    with pytest.raises(np.linalg.LinAlgError):
        operator_from_char_matrix(bad)


def test_adjoint_factorization_identity():
    # the two closed-form off-diagonal blocks are adjoints of each other
    rng = np.random.default_rng(47)
    for _ in range(20):
        T = random_operator(rng, 6)
        I = np.eye(6)
        left = adjoint(T @ np.linalg.inv(adjoint(T) @ T + I))
        right = adjoint(T) @ np.linalg.inv(T @ adjoint(T) + I)
        assert np.linalg.norm(left - right, "fro") <= 1e-10


def test_oracle_handles_large_norm_operator():
    # graph basis is badly conditioned but QR keeps the projection accurate
    T = np.diag([1e6, 1e-6]).astype(complex)
    P = char_matrix(T)
    assert P.blockwise_distance(char_matrix_oracle(T)) <= 1e-10


def test_kernel_rule_range_limit_is_documented_behavior():
    # sigma_min(p11) = 1/(1 + ||T||^2) exactly, so the triviality rule can
    # certify norms only up to ~1/sqrt(kernel_tol); a huge healthy operator
    # trips A8 while every residual label stays clean
    T = np.diag([1e6, 1e-6]).astype(complex)
    report = verify_identities(T, char_matrix(T))
    assert not report.passes["A8"]
    assert all(report.passes[k] for k in ("A6", "A7", "A12", "A13"))
    # a looser kernel_tol restores the certification
    loose = verify_identities(T, char_matrix(T), kernel_tol=1e-14)
    assert loose.passes["A8"]


KERNEL_CASES = [(n, scale) for n in (2, 40, 300) for scale in (1e-6, 1e-3, 1.0, 1e3)]
KERNEL_CASES += ["diag(1e6, 1e-6)", "singular"]


@pytest.mark.parametrize("case", KERNEL_CASES, ids=str)
def test_kernel_predicate_equals_two_factorization_formulas(case):
    # A8 and the inverse gate read sigma_min and ||M||_2 off one SVD; both
    # must equal, bit for bit, svd(M)[-1] and norm(M, 2) computed separately
    if case == "diag(1e6, 1e-6)":
        T = np.diag([1e6, 1e-6])
    elif case == "singular":
        T = np.array([[1.0, 2.0], [2.0, 4.0]])
    else:
        n, scale = case
        T = scale * random_operator(np.random.default_rng(n), n)
    P = char_matrix(T)
    I = np.eye(P.n)

    def sigma_min(M):
        return float(np.linalg.svd(M, compute_uv=False)[-1])

    report = verify_identities(T, P)
    assert report.residuals["A8"] == min(sigma_min(P.p11), sigma_min(I - P.p22))
    assert report.kernel_threshold == KERNEL_TOL * (
        1.0 + max(np.linalg.norm(P.p11, 2), np.linalg.norm(I - P.p22, 2))
    )
    assert report.passes["A8"] == (report.residuals["A8"] > report.kernel_threshold)

    C = I - P.p11
    gate_open = sigma_min(C) > KERNEL_TOL * (1.0 + np.linalg.norm(C, 2))
    try:
        inverse_char_matrix(P)
    except ValueError:
        assert not gate_open
    else:
        assert gate_open


def test_suite_on_discretized_derivative_operators():
    # cross-module integration: the difference operators live inside the
    # graph-projection machinery like any other matrix
    from charmat.boundary import GridDiscretization, derivative_operator

    for bc in ("dirichlet", "periodic", "free"):
        g = GridDiscretization(30, "periodic" if bc == "periodic" else "dirichlet")
        T = derivative_operator(g, bc)
        report = verify_identities(T, char_matrix(T))
        assert report.all_pass, (bc, report.residuals)
