import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from charmat import graph
from charmat.graph import (
    IDENTITY_TOL,
    CharacteristicMatrix,
    _basis_blocks,
    _identity_minus,
    adjoint_char_matrix,
    char_matrix,
    char_matrix_oracle,
    inverse_char_matrix,
    operator_from_char_matrix,
    verify_identities,
)
from charmat.hilbert import KERNEL_TOL, _as_operator, adjoint

BLOCKS = ("p11", "p12", "p21", "p22")


def random_operator(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_scalar_two_blocks():
    P = char_matrix(np.array([[2.0]]))
    assert_allclose(
        [P.p11[0, 0], P.p12[0, 0], P.p21[0, 0], P.p22[0, 0]],
        [0.2, 0.4, 0.4, 0.8],
        atol=1e-14,
    )


def test_characteristic_matrices_compare_and_hash_by_identity():
    # array fields have no truth value, so == is identity; blockwise_distance compares values
    T = random_operator(np.random.default_rng(0), 4)
    P, Q = char_matrix(T), char_matrix(T)
    assert P == P and P != Q and P.blockwise_distance(Q) == 0.0
    assert hash(P) == hash(P) and len({P, Q, adjoint_char_matrix(P)}) == 3


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


@pytest.mark.parametrize("route", [char_matrix, char_matrix_oracle], ids=lambda f: f.__name__)
def test_public_routes_reject_an_operator_stack(route):
    # stacks are family's business, through graph's private _char_blocks; the public
    # routes take one matrix
    stack = np.stack([np.eye(4)] * 3)
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(3, 4, 4\)"):
        route(stack)


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
        assert report.residuals["A8"] <= report.bounds["A8"] == 0.0


def test_identity_suite_flags_corrupted_block():
    # corrupting p21 must break block symmetry and the first factorization
    P = char_matrix(np.array([[2.0]]))
    bad = CharacteristicMatrix(
        p11=P.p11, p12=P.p12, p21=np.array([[0.5]]), p22=P.p22
    )
    report = verify_identities(np.array([[2.0]]), bad)
    assert report.residuals["A6"] > report.bounds["A6"]
    assert report.residuals["A12"] > report.bounds["A12"]
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


def _eager_adjoint(P):
    # the blocks adjoint_char_matrix once formed and stored at the call
    return CharacteristicMatrix(
        p11=_identity_minus(P.p22), p12=P.p21, p21=P.p12, p22=_identity_minus(P.p11))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


ADJOINT_OPERATORS = {
    "real": lambda rng: rng.standard_normal((7, 7)),
    "complex": lambda rng: random_operator(rng, 7),
}


@pytest.mark.parametrize("kind", ADJOINT_OPERATORS)
def test_adjoint_blocks_are_bitwise_the_eager_formula(kind):
    P = char_matrix(ADJOINT_OPERATORS[kind](np.random.default_rng(37)))
    A = adjoint_char_matrix(P)
    assert isinstance(A, CharacteristicMatrix)
    eager = _eager_adjoint(P)
    for b in BLOCKS:
        assert _same_bits(getattr(A, b), getattr(eager, b)), b
    twice = adjoint_char_matrix(A)
    assert isinstance(twice, CharacteristicMatrix)
    for b in BLOCKS:
        assert _same_bits(getattr(twice, b), getattr(_eager_adjoint(eager), b)), b


@pytest.mark.parametrize("kind", ADJOINT_OPERATORS)
def test_adjoint_forms_a_diagonal_block_on_each_read_only(monkeypatch, kind):
    P = char_matrix(ADJOINT_OPERATORS[kind](np.random.default_rng(41)))
    calls = []

    def counted(X, out=None):
        calls.append(X)
        return _identity_minus(X, out)

    monkeypatch.setattr(graph, "_identity_minus", counted)
    A = adjoint_char_matrix(P)
    assert A.n == P.n and calls == []
    assert A.p12 is P.p21 and A.p21 is P.p12 and calls == []
    assert A.p11 is not A.p11  # two reads, two arrays: nothing is cached
    A.p22
    assert [X is B for X, B in zip(calls, (P.p22, P.p22, P.p11), strict=True)] == [True] * 3


@pytest.mark.parametrize("kind", ADJOINT_OPERATORS)
def test_writing_a_read_adjoint_block_changes_neither_p_nor_the_next_read(kind):
    P = char_matrix(ADJOINT_OPERATORS[kind](np.random.default_rng(43)))
    kept = {b: getattr(P, b).copy() for b in BLOCKS}
    A = adjoint_char_matrix(P)
    for b in ("p11", "p22"):
        first = getattr(A, b)
        want = first.copy()
        first[...] = 7.0
        assert _same_bits(getattr(A, b), want), b
    for b in BLOCKS:
        assert _same_bits(getattr(P, b), kept[b]), b


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
    # certify norms only up to ~1/sqrt(KERNEL_TOL); a huge healthy operator
    # trips A8 while every residual label stays clean
    T = np.diag([1e6, 1e-6]).astype(complex)
    report = verify_identities(T, char_matrix(T))
    assert report.residuals["A8"] > report.bounds["A8"]
    assert all(report.residuals[k] <= report.bounds[k] for k in ("A6", "A7", "A12", "A13"))
    assert not report.all_pass  # A8 alone fails it
    # the threshold is KERNEL_TOL * (1 + ||p11||_2): sigma_min(p11) = 1e-12 sits
    # below it, A8 reads the shortfall, and an operator inside the range passes
    assert report.sigma_min == pytest.approx(1.0 / (1.0 + 1e12), rel=1e-12)
    assert report.residuals["A8"] + report.sigma_min == pytest.approx(2.0 * KERNEL_TOL, rel=1e-12)
    T = np.diag([1e4, 1e-4]).astype(complex)
    report = verify_identities(T, char_matrix(T))
    assert report.residuals["A8"] <= report.bounds["A8"]


KERNEL_CASES = [(n, scale) for n in (2, 40, 300) for scale in (1e-6, 1e-3, 1.0, 1e3)]
KERNEL_CASES += ["diag(1e6, 1e-6)", "singular"]


@pytest.mark.parametrize("case", KERNEL_CASES, ids=str)
def test_kernel_predicate_equals_two_factorization_formulas(case):
    # A8 and the inverse gate read sigma_min and ||M||_2 off the moduli of one
    # eigvalsh of each Hermitian block; both must equal, bit for bit, the
    # formula on eigvalsh computed here, and agree with the SVD formula
    if case == "diag(1e6, 1e-6)":
        T = np.diag([1e6, 1e-6])
    elif case == "singular":
        T = np.array([[1.0, 2.0], [2.0, 4.0]])
    else:
        n, scale = case
        T = scale * random_operator(np.random.default_rng(n), n)
    P = char_matrix(T)
    I = np.eye(P.n)

    blocks = (P.p11, I - P.p22, I - P.p11)
    w11, w22, wc = (np.abs(np.linalg.eigvalsh(M)) for M in blocks)

    report = verify_identities(T, P)
    assert report.sigma_min == min(float(w11.min()), float(w22.min()))
    threshold = KERNEL_TOL * (1.0 + max(float(w11.max()), float(w22.max())))
    assert report.residuals["A8"] == max(0.0, threshold - report.sigma_min)
    assert report.bounds["A8"] == 0.0

    gate_open = float(wc.min()) > KERNEL_TOL * (1.0 + float(wc.max()))
    try:
        inverse_char_matrix(P)
    except ValueError:
        assert not gate_open
    else:
        assert gate_open

    # both solvers are backward stable to p(n) eps ||M|| (here up to 27 eps ||M||
    # at n = 300), so the two formulas agree within 4 n eps ||M||
    for M, w in zip(blocks, (w11, w22, wc)):
        s = np.linalg.svd(M, compute_uv=False)
        bound = 4 * P.n * np.finfo(float).eps * s[0]
        assert abs(w.min() - s[-1]) <= bound
        assert abs(w.max() - s[0]) <= bound


def test_suite_on_discretized_derivative_operators():
    # cross-module integration: the difference operators live inside the
    # graph-projection machinery like any other matrix
    from charmat.boundary import GridDiscretization, derivative_operator

    for bc in ("dirichlet", "periodic", "free"):
        T = derivative_operator(GridDiscretization(30, bc))
        report = verify_identities(T, char_matrix(T))
        assert report.all_pass, (bc, report.residuals)


# ------------------------------------------------------- operator dtype rule


@pytest.mark.parametrize("n", [1, 7, 40])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
def test_real_operator_gives_real_blocks_equal_to_complex_route(n, scale):
    T = scale * np.random.default_rng(n).standard_normal((n, n))
    Tc = T.astype(complex)
    tol = 1e-14 * max(1.0, np.linalg.norm(T, 2) ** 2)
    for build in (char_matrix, char_matrix_oracle):
        P, Pc = build(T), build(Tc)
        assert all(getattr(P, b).dtype == np.float64 for b in BLOCKS)
        assert all(getattr(Pc, b).dtype == np.complex128 for b in BLOCKS)
        assert P.blockwise_distance(Pc) <= tol
    real = verify_identities(T, char_matrix(T))
    cplx = verify_identities(Tc, char_matrix(Tc))
    assert real.bounds == cplx.bounds
    for label, value in real.residuals.items():
        assert (value <= real.bounds[label]) == (cplx.residuals[label] <= cplx.bounds[label])
        assert abs(value - cplx.residuals[label]) <= tol, label
    assert abs(real.sigma_min - cplx.sigma_min) <= tol


@pytest.mark.parametrize(
    "dtype, promoted",
    [(np.int64, np.float64), (np.bool_, np.float64), (np.float32, np.float64),
     (np.complex64, np.complex128)],
)
def test_operator_dtype_promotion(dtype, promoted):
    T = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]], dtype=dtype)
    assert _as_operator(T).dtype == promoted
    for build in (char_matrix, char_matrix_oracle):
        P = build(T)
        assert all(getattr(P, b).dtype == promoted for b in BLOCKS)
        assert P.blockwise_distance(build(T.astype(promoted))) == 0.0
    assert verify_identities(T, char_matrix(T)).all_pass


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 64),
    log_norm=st.floats(-8.0, 4.0),
    is_complex=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_cholesky_route_matches_oracle_across_scales(n, log_norm, is_complex, seed):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((n, n))
    if is_complex:
        T = T + 1j * rng.standard_normal((n, n))
    norm = 10.0**log_norm
    T *= norm / np.linalg.norm(T, 2)
    P = char_matrix(T)
    assert P.p11.dtype == T.dtype
    # Up to ||T||_2 = 1e2 the bounds are the oracle tests' 1e-11 and the
    # library's (IDENTITY_TOL, and 0 for A8).  Beyond it, rounding in forming
    # T*T and in evaluating A12/A13 grows as eps*n*||T||_2^2 while both
    # tolerances are absolute, so both scale with (||T||_2 / 1e2)^2 there; the
    # test below pins a draw where the absolute tolerance alone fails.
    growth = max(1.0, (norm / 1e2) ** 2)
    assert P.blockwise_distance(char_matrix_oracle(T)) <= 1e-11 * growth
    report = verify_identities(T, P)
    assert report.bounds == {**dict.fromkeys(report.residuals, IDENTITY_TOL), "A8": 0.0}
    for label, value in report.residuals.items():
        assert value <= report.bounds[label] * growth, report.residuals


def test_absolute_identity_tolerance_fails_at_large_norm():
    # Known limit of the absolute IDENTITY_TOL, which the scale-aware bounds
    # of ROADMAP item 2 are to lift: on this real Gaussian with
    # ||T||_2 = 10^3.75, A12 and A13 exceed 1e-10 at the default tolerance
    # and pass at the (||T||_2 / 1e2)^2-scaled one of the test above.
    T = np.random.default_rng(847738374).standard_normal((33, 33))
    T *= 10.0**3.75 / np.linalg.norm(T, 2)
    P = char_matrix(T)
    report = verify_identities(T, P)
    assert report.residuals["A12"] > report.bounds["A12"] == IDENTITY_TOL
    assert report.residuals["A13"] > report.bounds["A13"] == IDENTITY_TOL
    growth = (10.0**3.75 / 1e2) ** 2
    assert all(v <= report.bounds[k] * growth for k, v in report.residuals.items())
    assert P.blockwise_distance(char_matrix_oracle(T)) <= 1e-11 * growth


@pytest.mark.parametrize("entry", [1e160, 1e200])
def test_overflowing_gram_matrix_raises(entry):
    T = np.array([[entry, 1.0], [2.0, 3.0]])
    with pytest.raises(np.linalg.LinAlgError, match=r"Gram matrix T\*T \+ I is not finite"):
        char_matrix(T)


def test_gram_matrix_that_fails_cholesky_raises():
    # a finite Gram matrix can still fail its Cholesky gate: for a rank-one
    # T = 1e8 u v^T, T*T + I is 1 on seven directions, below the rounding
    # (~1e16 eps) of its one huge eigenvalue
    rng = np.random.default_rng(0)
    T = 1e8 * np.outer(rng.standard_normal(8), rng.standard_normal(8))
    match = r"Gram matrix T\*T \+ I is not positive definite"
    with pytest.raises(np.linalg.LinAlgError, match=match):
        char_matrix(T)


def svd_basis_blocks(U, s, Vh):
    # the blocks of the SVD basis [V c; U s c], c = 1/sqrt(1 + s^2), of the graph of U diag(s) Vh
    c = 1.0 / np.hypot(1.0, s)
    return _basis_blocks(adjoint(Vh) * c, U * (s * c))


def test_svd_basis_blocks_stay_finite_and_accurate_at_extreme_singular_values():
    s = np.array([1e200, 1.0, 1e-8, 0.0])
    I = np.eye(4)
    p11, p21, p22 = svd_basis_blocks(I, s, I)
    for block in (p11, p21, p22):
        assert np.isfinite(block).all()
    # c^2 = 1/(1+s^2), s c^2 and s^2 c^2, to a few ulps, with no cancellation at 1e-8
    assert_allclose(np.diag(p11), [0.0, 0.5, 1.0, 1.0], rtol=4e-16, atol=0)
    assert_allclose(np.diag(p21), [1e-200, 0.5, 1e-8, 0.0], rtol=4e-16, atol=0)
    assert_allclose(np.diag(p22), [1.0, 0.5, 1e-16, 0.0], rtol=4e-16, atol=0)


@pytest.mark.parametrize("is_complex", [False, True])
def test_svd_basis_blocks_match_the_oracle(is_complex):
    rng = np.random.default_rng(73)
    T = rng.standard_normal((12, 12)) + (1j * rng.standard_normal((12, 12)) if is_complex else 0)
    ref = char_matrix_oracle(T)
    p11, p21, p22 = svd_basis_blocks(*np.linalg.svd(T))
    got = CharacteristicMatrix(p11, adjoint(p21), p21, p22)
    assert got.blockwise_distance(ref) <= 1e-14
    # a Hermitian T passes its eigh: eigenvectors, signed eigenvalues, adjoint
    H = (T + adjoint(T)) / 2.0
    w, V = np.linalg.eigh(H)
    p11, p21, p22 = svd_basis_blocks(V, w, adjoint(V))
    got = CharacteristicMatrix(p11, adjoint(p21), p21, p22)
    assert got.blockwise_distance(char_matrix_oracle(H)) <= 1e-14


def test_oracle_sets_p12_to_the_adjoint_of_p21():
    rng = np.random.default_rng(29)
    for T in (rng.standard_normal((9, 9)), random_operator(rng, 9)):
        P = char_matrix_oracle(T)
        assert np.array_equal(P.p12, adjoint(P.p21))


# ------------------------------------------------------ the in-place QR oracle


@pytest.mark.parametrize("norm", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("n", [1, 2, 40, 300])
@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_in_place_oracle_is_bitwise_numpy_qr(is_complex, n, norm):
    # the oracle calls LAPACK through numpy.linalg.lapack_lite; numpy's qr is the reference
    rng = np.random.default_rng(n)
    T = random_operator(rng, n) if is_complex else rng.standard_normal((n, n))
    T *= norm / np.linalg.norm(T, 2)
    Q, _ = np.linalg.qr(np.vstack([np.eye(n), T]))
    p11, p21, p22 = _basis_blocks(Q[:n], Q[n:])
    P = char_matrix_oracle(T)
    for got, want in ((P.p11, p11), (P.p12, adjoint(p21)), (P.p21, p21), (P.p22, p22)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("failure", ["info", "LapackError"])
@pytest.mark.parametrize("routine", ["zgeqrf", "zungqr"])
def test_oracle_lapack_failure_is_a_linalg_error(monkeypatch, routine, failure):
    from numpy.linalg import lapack_lite

    def failing(*args):
        if failure == "info":
            return {"info": 2}
        raise lapack_lite.LapackError("Parameter a is not contiguous")

    monkeypatch.setattr(lapack_lite, routine, failing)
    with pytest.raises(np.linalg.LinAlgError, match=f"LAPACK {routine} failed"):
        char_matrix_oracle(random_operator(np.random.default_rng(3), 4))


def test_diagonal_operators_give_positive_zero_blocks():
    # I - X is formed as 0 - X, +1 on the diagonal: negating X would give -0.0
    for d in (np.array([-2.0, 0.5, 3.0]), np.array([1j, -2.0 + 1j, 0.0])):
        for P in (char_matrix(np.diag(d)), adjoint_char_matrix(char_matrix(np.diag(d)))):
            for b in BLOCKS:
                X = getattr(P, b).view(float)
                assert not np.signbit(X[X == 0]).any(), b


_RSS_SETUP = """
import sys
import numpy as np
from charmat import graph

n, dtype, route = 400, np.dtype(sys.argv[1]), getattr(graph, sys.argv[2])
rng = np.random.default_rng(5)
T = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if dtype.kind == "c" else 0)
route(T[:16, :16])  # LAPACK's code and buffers are paged in here
"""


@pytest.mark.parametrize("dtype", ["float64", "complex128"])
def test_oracle_rss_high_water_is_bounded(rss_growth_bytes, dtype):
    # numpy's qr held the stacked [I; T], its copy, two work buffers and Q at
    # once: 10.6 n^2 entries (real 11.3) above the RSS before the call
    grown = rss_growth_bytes(_RSS_SETUP, "P = route(T)", dtype, "char_matrix_oracle")
    assert grown / (400 * 400 * np.dtype(dtype).itemsize) <= 8.5


def test_char_matrix_rss_high_water_is_bounded(rss_growth_bytes):
    # the second inv holds p11, G, and inv's own input copy, identity and
    # result, which tracemalloc does not see: 5.58 n^2 complex entries above
    # the RSS before the call.  A copy of T* held through both factorizations
    # read 6.58 n^2.
    grown = rss_growth_bytes(_RSS_SETUP, "P = route(T)", "complex128", "char_matrix")
    assert grown / (400 * 400 * 16) <= 6.0


_A9_RSS_SETUP = """
import numpy as np
from charmat.graph import adjoint_char_matrix, char_matrix

rng = np.random.default_rng(5)
T = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
W = T[:16, :16]
adjoint_char_matrix(char_matrix(W)).blockwise_distance(char_matrix(W.conj().T))  # pages in LAPACK
P = char_matrix(T)
"""


def test_a9_step_rss_high_water_is_bounded(rss_growth_bytes):
    # char_matrix(T*) runs while the adjoint of P holds only P; each diagonal
    # block is formed when blockwise_distance reads it.  Growth in n^2 complex
    # entries above the RSS before the call: 6.93 with both blocks formed
    # before char_matrix(T*), 5.96 with blocks cached on first read, 4.96
    # with blocks formed on every read.
    call = "adjoint_char_matrix(P).blockwise_distance(char_matrix(T.conj().T))"
    grown = rss_growth_bytes(_A9_RSS_SETUP, call)
    assert grown / (400 * 400 * 16) <= 5.5


# ------------------------------------------------- A7 without the 2n x 2n P


A7_CASES = [(kind, n, norm) for kind in ("real", "complex") for n in (1, 2, 40)
            for norm in (1e-8, 1.0, 1e4)] + ["laplacian", "corrupted"]


@pytest.mark.parametrize("case", A7_CASES, ids=lambda c: c if isinstance(c, str) else "-".join(map(str, c)))
def test_blockwise_a7_equals_the_dense_residual(case):
    from charmat.boundary import GridDiscretization, laplacian

    if case in ("laplacian", "corrupted"):
        T = laplacian(GridDiscretization(40, "dirichlet"))
    else:
        kind, n, norm = case
        rng = np.random.default_rng(n)
        T = rng.standard_normal((n, n)) if kind == "real" else random_operator(rng, n)
        T *= norm / np.linalg.norm(T, 2)
    P = char_matrix(T)
    if case == "corrupted":
        E = np.random.default_rng(4).standard_normal(P.p21.shape)
        P = CharacteristicMatrix(P.p11, P.p12, P.p21 + 1e-6 * E, P.p22)
    full = np.block([[P.p11, P.p12], [P.p21, P.p22]])
    a7, dense = verify_identities(T, P).residuals["A7"], np.linalg.norm(full @ full - full)
    assert abs(a7 - dense) <= 1e-14 * max(1.0, dense)
    if case == "corrupted":
        assert dense > 1e-8  # far above rounding, where a misplaced block would show


def test_verify_identities_forms_no_2n_by_2n_array(traced_peak_mb):
    # the assembled complex P alone is 4 n^2 entries, and P^2 - P needs two more
    n = 300
    T = random_operator(np.random.default_rng(31), n)
    P = char_matrix(T)
    assert traced_peak_mb(verify_identities, T, P) <= 6 * n * n * 16 / 2**20


def test_char_matrix_and_identity_suite_memory_is_bounded(traced_peak_mb):
    # four complex blocks are 4 n^2 entries; neither T* nor an identity matrix
    # outlives its use, and p22 overwrites the second Gram inverse
    n = 300
    T = random_operator(np.random.default_rng(37), n)
    assert traced_peak_mb(char_matrix, T) <= 5.5 * n * n * 16 / 2**20
    # verify_identities holds T* throughout; I - p22 is formed once and freed before A12
    assert traced_peak_mb(verify_identities, T, char_matrix(T)) <= 3.5 * n * n * 16 / 2**20
