import numpy as np
import pytest
from numpy.testing import assert_allclose

from charmat.calculus import (
    bounded_calculus_step_check,
    fourier_resolvent_check,
    resolvent,
    spectral_decomposition,
    spectral_projection,
    spectral_transform_check,
    stone_formula_check,
    unitary_group,
)

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2.0


def random_vectors(rng, n):
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return f, g


# ------------------------------------------------------------ decomposition


def test_decompositions_compare_and_hash_by_identity():
    T = random_hermitian(np.random.default_rng(5), 4)
    dec, again = spectral_decomposition(T), spectral_decomposition(T)
    assert dec == dec and dec != again and len({dec, again}) == 2


def test_decomposition_invariants():
    rng = np.random.default_rng(5)
    T = random_hermitian(rng, 6)
    dec = spectral_decomposition(T)
    assert dec.multiplicities.sum() == 6
    # resolution of the identity and reconstruction
    assert_allclose(dec.projectors.sum(axis=0), np.eye(6), atol=1e-12)
    recon = sum(v * P for v, P in zip(dec.eigenvalues, dec.projectors))
    assert_allclose(recon, T, atol=1e-12)
    # mutually orthogonal idempotents
    for j, P in enumerate(dec.projectors):
        assert_allclose(P @ P, P, atol=1e-12)
        assert_allclose(P, P.conj().T, atol=1e-12)
        for Q in dec.projectors[j + 1 :]:
            assert_allclose(P @ Q, 0, atol=1e-12)


def test_decomposition_merges_rounding_split_degeneracy():
    T = np.diag([2.0, 2.0 + 1e-12, 5.0])
    dec = spectral_decomposition(T)
    assert list(dec.multiplicities) == [2, 1]
    assert dec.eigenvalues[0] == pytest.approx(2.0, abs=1e-12)
    assert np.trace(dec.projectors[0]).real == pytest.approx(2.0, abs=1e-12)


def test_decomposition_rejects_nonhermitian():
    with pytest.raises(ValueError):
        spectral_decomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ------------------------------------------------------------- projections


def test_projection_pinned_cases():
    T = np.diag([1.0, 3.0])
    assert_allclose(spectral_projection(T, 2.0), np.diag([1.0, 0.0]), atol=1e-14)
    # right continuity: an eigenvalue at the threshold is included
    assert_allclose(spectral_projection(T, 1.0), np.diag([1.0, 0.0]), atol=1e-14)
    assert_allclose(spectral_projection(T, 3.0), np.eye(2), atol=1e-14)
    assert_allclose(spectral_projection(T, 0.5), np.zeros((2, 2)), atol=1e-14)


def test_projection_of_flip_at_zero():
    P = spectral_projection(FLIP, 0.0)
    assert_allclose(P, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-14)


def test_projection_is_monotone_in_lambda():
    rng = np.random.default_rng(9)
    T = random_hermitian(rng, 5)
    w = np.linalg.eigvalsh(T)
    prev = np.zeros((5, 5))
    for lam in np.linspace(w[0] - 1, w[-1] + 1, 20):
        P = spectral_projection(T, lam)
        # ranges are nested: P prev = prev
        assert_allclose(P @ prev, prev, atol=1e-10)
        prev = P
    assert_allclose(prev, np.eye(5), atol=1e-10)


@pytest.mark.parametrize("dtype", [float, complex])
def test_projection_is_the_sum_of_decomposition_projectors(dtype):
    # a cluster lam +- 1e-12 straddles lam: it is kept or dropped whole, by
    # its mean, exactly as the decomposition's eigenvalue is judged
    rng = np.random.default_rng(41)
    lam = 0.3
    Q, _ = np.linalg.qr(random_hermitian(rng, 6) if dtype is complex
                        else rng.standard_normal((6, 6)))
    w = np.array([lam - 2.0, lam - 1e-12, lam + 1e-12, lam + 1.0, lam + 1.0, lam + 4.0])
    T = (Q * w) @ Q.conj().T
    T = (T + T.conj().T) / 2.0
    dec = spectral_decomposition(T)
    assert list(dec.multiplicities) == [1, 2, 2, 1]
    for level in (lam - 3.0, lam - 1e-12, lam, lam + 1e-12, lam + 1.0, lam + 5.0):
        P = spectral_projection(T, level)
        assert P.dtype == np.dtype(dtype)
        keep = dec.eigenvalues <= level
        assert_allclose(P, dec.projectors[keep].sum(axis=0), atol=1e-12)
        assert np.trace(P).real == pytest.approx(dec.multiplicities[keep].sum(), abs=1e-12)


# -------------------------------------------------------------- resolvents


def test_resolvent_pinned_diagonal():
    R = resolvent(np.diag([1.0, 3.0]), 2.0 + 0.0j)
    assert_allclose(R, np.diag([-1.0, 1.0]), atol=1e-14)


def test_first_resolvent_identity():
    rng = np.random.default_rng(13)
    T = random_hermitian(rng, 4)
    z1, z2 = 1.0 + 2.0j, -0.5 + 0.25j
    R1, R2 = resolvent(T, z1), resolvent(T, z2)
    assert_allclose(R1 - R2, (z1 - z2) * (R1 @ R2), atol=1e-12)


@pytest.mark.parametrize("n", [5, 64, 200])
def test_resolvent_is_bitwise_the_solve_against_the_identity(n):
    # inv is LAPACK's gesv against an identity right-hand side, which it makes itself
    T = random_hermitian(np.random.default_rng(n), n)
    A = T - (0.3 + 1.0j) * np.eye(n)
    assert resolvent(T, 0.3 + 1.0j).tobytes() == np.linalg.solve(A, np.eye(n)).tobytes()


def test_resolvent_at_eigenvalue_is_singular():
    with pytest.raises(np.linalg.LinAlgError):
        resolvent(np.diag([1.0, 3.0]), 3.0 + 0.0j)


# ------------------------------------------------------------ unitary group


def test_group_of_flip_at_pi_is_minus_identity():
    assert_allclose(unitary_group(FLIP, np.pi), -np.eye(2), atol=1e-14)


def test_group_is_unitary_and_multiplicative():
    rng = np.random.default_rng(17)
    T = random_hermitian(rng, 4)
    U = unitary_group(T, 0.7)
    assert_allclose(U @ U.conj().T, np.eye(4), atol=1e-12)
    assert_allclose(
        unitary_group(T, 0.7 + 1.3), U @ unitary_group(T, 1.3), atol=1e-12
    )
    assert_allclose(unitary_group(T, 0.0), np.eye(4), atol=1e-14)


# ------------------------------------------------------ quadrature identities


def test_fourier_scalar_truncation_calibration():
    # for T = [0], z = i the quadrature is i*(1 - e^-smax) against the
    # exact value i, so the deviation equals the truncation tail e^-smax
    smax = 10.0
    dev = fourier_resolvent_check(
        np.array([[0.0]]), 1j, np.ones(1), np.ones(1), smax=smax
    ).residuals["fourier"]
    assert dev == pytest.approx(np.exp(-smax), rel=1e-3)


def test_fourier_random_hermitian_small_deviation():
    rng = np.random.default_rng(21)
    T = random_hermitian(rng, 4)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    dev = fourier_resolvent_check(T, 0.3 + 1.0j, f, g, smax=20.0).residuals["fourier"]
    assert dev <= 1e-4


def test_fourier_rejects_lower_half_plane():
    one = np.ones(1)
    with pytest.raises(ValueError, match="upper half plane"):
        fourier_resolvent_check(np.array([[0.0]]), -1j, one, one, smax=1.0)
    with pytest.raises(ValueError, match="upper half plane"):
        fourier_resolvent_check(np.array([[0.0]]), 2.0 + 0.0j, one, one, smax=1.0)


def test_fourier_rejects_bad_quadrature_window():
    one = np.ones(1)
    with pytest.raises(ValueError, match="smax"):
        fourier_resolvent_check(np.array([[0.0]]), 1j, one, one, smax=0.0)


def test_stone_formula_recovers_projection():
    T = np.diag([1.0, 3.0])
    f = np.array([1.0, 1.0])
    dev = stone_formula_check(T, 2.0, f, f, epsilon=1e-4, delta=0.5).residuals["stone"]
    assert dev <= 1e-3


def test_stone_formula_off_diagonal_element():
    rng = np.random.default_rng(25)
    T = random_hermitian(rng, 3)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lam = float(np.linalg.eigvalsh(T)[1])  # include the two lowest eigenspaces
    dev = stone_formula_check(T, lam, f, g, epsilon=1e-4, delta=0.3).residuals["stone"]
    assert dev <= 5e-3


def test_stone_endpoint_must_clear_eigenvalues():
    T = np.diag([1.0, 3.0])
    f = np.ones(2)
    with pytest.raises(ValueError, match="endpoint"):
        stone_formula_check(T, 2.9, f, f, epsilon=1e-4, delta=0.1)


def test_stone_rejects_nonpositive_widths():
    T = np.diag([1.0, 3.0])
    f = np.ones(2)
    with pytest.raises(ValueError, match="positive"):
        stone_formula_check(T, 2.0, f, f, epsilon=0.0, delta=0.5)
    with pytest.raises(ValueError, match="positive"):
        stone_formula_check(T, 2.0, f, f, epsilon=1e-4, delta=-0.1)


def test_spectral_transform_is_exact():
    rng = np.random.default_rng(29)
    T = random_hermitian(rng, 5)
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for s in (0.0, 1.0, -3.7):
        assert spectral_transform_check(T, s, f, g) <= 1e-10


# ------------------------------------------- quadrature references and memory


def one_shot_stone(T, lam, f, g, epsilon, delta, steps):
    """Stone quadrature and exact side on the full node array at once."""
    w, V = np.linalg.eigh(T)
    c = np.conj(V.conj().T @ f) * (V.conj().T @ g)
    u = np.linspace(w.min() - 1.0, lam + delta, steps + 1)
    vals = ((epsilon / np.pi) / ((w[None, :] - u[:, None]) ** 2 + epsilon**2)) @ c
    quad = (u[1] - u[0]) * (0.5 * (vals[0] + vals[-1]) + vals[1:-1].sum())
    return quad, np.vdot(f, spectral_projection(T, lam) @ g)


def one_shot_fourier(T, z, f, g, smax, steps):
    """Fourier quadrature and exact side on the full node array at once."""
    w, V = np.linalg.eigh(T)
    c = np.conj(V.conj().T @ f) * (V.conj().T @ g)
    s = np.linspace(0.0, smax, steps + 1)
    vals = 1j * (np.exp(1j * np.outer(s, z - w)) @ c)
    quad = (s[1] - s[0]) * (0.5 * (vals[0] + vals[-1]) + vals[1:-1].sum())
    return quad, np.vdot(f, resolvent(T, z) @ g)


def spread_operator(rng):
    """A 5 x 5 Hermitian matrix with eigenvalues -2, -1, 0.5, 1.5, 3 and two probes."""
    Q, _ = np.linalg.qr(random_hermitian(rng, 5))
    T = (Q * np.array([-2.0, -1.0, 0.5, 1.5, 3.0])) @ Q.conj().T
    return T, *random_vectors(rng, 5)


def exact_fourier_integral(T, z, f, g, smax):
    """i * integral_0^smax e^(i z s) (f, e^(-i s T) g) ds, one exponential per eigenvalue."""
    w, V = np.linalg.eigh(T)
    c = np.conj(V.conj().T @ f) * (V.conj().T @ g)
    return c @ ((np.exp(1j * (z - w) * smax) - 1.0) / (z - w))


@pytest.mark.parametrize("smax", [3.0, 10.0, 30.0])
def test_fourier_deviation_is_the_analytic_tail(smax):
    # the integral is exact, so all that parts it from the resolvent element is the
    # tail |sum_j c_j e^(i (z - w_j) smax) / (z - w_j)|; at smax 30 the tail is 2e-13,
    # so the O(1) sides' rounding shows at 1e-15
    T, f, g = spread_operator(np.random.default_rng(45))
    z = 0.5 + 1.0j
    w, V = np.linalg.eigh(T)
    c = np.conj(V.conj().T @ f) * (V.conj().T @ g)
    tail = abs(c @ (np.exp(1j * (z - w) * smax) / (z - w)))
    dev = fourier_resolvent_check(T, z, f, g, smax=smax).residuals["fourier"]
    assert dev == pytest.approx(tail, rel=1e-10, abs=1e-14)


def test_one_shot_trapezoid_converges_to_the_exact_integral_as_h_squared():
    # the trapezoid rule misses the exact integral by 8.7e-6, 8.7e-8 and 8.7e-10 at
    # 10^3, 10^4 and 10^5 steps, and so its deviation closes on the check's at that rate
    T, f, g = spread_operator(np.random.default_rng(45))
    z, smax = 0.5 + 1.0j, 3.0
    integral = exact_fourier_integral(T, z, f, g, smax)
    dev = fourier_resolvent_check(T, z, f, g, smax=smax).residuals["fourier"]
    misses = []
    for steps in (10**3, 10**4, 10**5):
        quad, exact = one_shot_fourier(T, z, f, g, smax, steps)
        misses.append(abs(quad - integral))
        assert abs(abs(quad - exact) - dev) <= misses[-1]
    assert misses[0] == pytest.approx(8.745e-6, rel=1e-3)
    assert misses[0] / misses[1] == pytest.approx(100.0, rel=1e-3)
    assert misses[1] / misses[2] == pytest.approx(100.0, rel=1e-3)


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3])
def test_stone_closed_form_is_the_limit_of_the_trapezoid_rule(epsilon):
    # the endpoint lam + delta = 1.0 clears every eigenvalue by 0.5.  Over the
    # window [-3, 1], 40000 steps space the nodes 1e-4 apart, at most epsilon/10,
    # and the trapezoid rule then meets the exact integral up to its own rounding
    T, f, g = spread_operator(np.random.default_rng(45))
    dev = stone_formula_check(T, 0.5, f, g, epsilon=epsilon, delta=0.5).residuals["stone"]
    quad, exact = one_shot_stone(T, 0.5, f, g, epsilon, 0.5, 40_000)
    assert dev == pytest.approx(abs(quad - exact), abs=1e-10)
    # with nodes 4e-3 apart the rule is off by 1.2e-6 (epsilon 1e-2) and by 2.3 (1e-3)
    quad, exact = one_shot_stone(T, 0.5, f, g, epsilon, 0.5, 1_000)
    assert abs(abs(quad - exact) - dev) > 1e-7


@pytest.mark.parametrize("lam", [-2.5, -1.5, 0.0, 1.0, 2.0, 3.5])
def test_stone_closed_form_matches_the_trapezoid_in_every_spectral_gap(lam):
    # lam + delta runs through each gap of the spectrum -2, -1, 0.5, 1.5, 3 (and below and
    # above it), so E(lam) keeps 0, 1, ..., 5 eigenvalues and the exact side moves by O(1)
    # from gap to gap.  80000 steps space the nodes at most 8.5e-5 apart, below epsilon/100
    T, f, g = spread_operator(np.random.default_rng(45))
    dev = stone_formula_check(T, lam, f, g, epsilon=1e-2, delta=0.25).residuals["stone"]
    quad, exact = one_shot_stone(T, lam, f, g, 1e-2, 0.25, 80_000)
    assert dev == pytest.approx(abs(quad - exact), abs=1e-10)


@pytest.mark.parametrize("probe", ["f-f", "f-g"])
def test_stone_deviation_is_first_order_in_epsilon(probe):
    # each kernel's mass misses its indicator on [a, b] = [w_min - 1, lam + delta] by
    # (epsilon/pi) (1/(w - b) - 1/(w - a)) + O(epsilon^3), so the deviation over epsilon
    # tends to |sum_j c_j (1/(w_j - b) - 1/(w_j - a))| / pi
    T, f, g = spread_operator(np.random.default_rng(45))
    g = f if probe == "f-f" else g
    w, V = np.linalg.eigh(T)
    c = np.conj(V.conj().T @ f) * (V.conj().T @ g)
    a, b = w.min() - 1.0, 1.0
    slope = abs(c @ (1.0 / (w - b) - 1.0 / (w - a))) / np.pi
    for epsilon in (1e-3, 1e-4):
        dev = stone_formula_check(T, 0.5, f, g, epsilon=epsilon, delta=0.5).residuals["stone"]
        assert dev == pytest.approx(epsilon * slope, rel=epsilon)


@pytest.mark.parametrize("epsilon, lam, delta", [(1e-300, 1e10, 0.5), (1e-4, 1e308, 1e308)])
def test_stone_is_exact_at_extreme_widths_and_endpoints(epsilon, lam, delta):
    # arctan2 takes (u - w, epsilon) apart, so no (u - w)/epsilon overflows (a RuntimeWarning
    # fails the suite); lam + delta = inf takes in each kernel's whole upper tail
    T, f, g = spread_operator(np.random.default_rng(45))
    assert stone_formula_check(T, lam, f, g, epsilon=epsilon, delta=delta).residuals["stone"] <= 1e-3


def test_calculus_memory_is_bounded(traced_peak_mb):
    rng = np.random.default_rng(49)
    T = random_hermitian(rng, 200)
    f, g = random_vectors(rng, 200)
    lam = float(np.median(np.linalg.eigvalsh(T)))
    # one-shot quadratures and a stack of projectors held 307, 245 and 245 MB here
    assert traced_peak_mb(stone_formula_check, T, lam, f, g, 1e-3, 1e-4) <= 40
    assert traced_peak_mb(fourier_resolvent_check, T, 2j, f, g, 20.0) <= 40
    assert traced_peak_mb(spectral_projection, T, lam) <= 8


# ------------------------------------------------------------ step calculus


def test_step_function_calculus_yields_projection():
    # the indicator of (-inf, lam] applied through the calculus is exactly
    # the right-continuous spectral projection
    rng = np.random.default_rng(33)
    T = random_hermitian(rng, 5)
    lam = float(np.median(np.linalg.eigvalsh(T)))
    out = bounded_calculus_step_check(
        T,
        F=lambda x: 1.0 if x <= lam else 0.0,
        Fsteps=[lambda x: 1.0 if x <= lam else 0.0],
    )
    assert out["op_errors"][0] <= 1e-14
    # cross-check the indicator route against the projection route
    w, V = np.linalg.eigh(T)
    ind = (w <= lam).astype(float)
    assert_allclose((V * ind) @ V.conj().T, spectral_projection(T, lam), atol=1e-10)


def test_step_approximations_track_sup_distance():
    rng = np.random.default_rng(37)
    T = random_hermitian(rng, 6)

    def staircase(k):
        return lambda x: np.floor(x * k) / k

    out = bounded_calculus_step_check(T, F=lambda x: x, Fsteps=[staircase(k) for k in (1, 4, 16, 64)])
    # spectral mapping: the operator error equals the sup over eigenvalues
    assert_allclose(out["op_errors"], out["sup_distances"], atol=1e-12)
    # finer staircases approximate better
    assert np.all(np.diff(out["sup_distances"]) < 0)
    assert out["sup_distances"][-1] <= 1.0 / 64


# ------------------------------------------------------------ nan parameters

NAN = float("nan")
H3 = np.diag([1.0, 2.0, 3.0])
ONES3 = np.ones(3) / np.sqrt(3.0)


@pytest.mark.parametrize("call, match", [
    (lambda: fourier_resolvent_check(H3, 2j, ONES3, ONES3, smax=NAN), "smax"),
    (lambda: fourier_resolvent_check(H3, complex(NAN, 1.0), ONES3, ONES3, smax=20.0), "half plane"),
    (lambda: fourier_resolvent_check(H3, complex(0.0, NAN), ONES3, ONES3, smax=20.0), "half plane"),
    (lambda: stone_formula_check(H3, NAN, ONES3, ONES3, epsilon=1e-4, delta=1e-2), "lam"),
    (lambda: stone_formula_check(H3, 1.5, ONES3, ONES3, epsilon=NAN, delta=1e-2), "positive"),
    (lambda: stone_formula_check(H3, 1.5, ONES3, ONES3, epsilon=1e-4, delta=NAN), "positive"),
    (lambda: spectral_projection(H3, NAN), "lam"),
    (lambda: unitary_group(H3, NAN), "finite"),
    (lambda: resolvent(H3, complex(NAN, 1.0)), "finite"),
], ids=["fourier-smax", "fourier-re-z", "fourier-im-z", "stone-lam", "stone-epsilon",
        "stone-delta", "projection-lam", "group-s", "resolvent-z"])
def test_a_nan_parameter_raises(call, match):
    # every comparison with nan is false, so a guard written as `x <= 0` lets nan through
    # (fourier would read the exact resolvent, a pass, and the projection would be I)
    with pytest.raises(ValueError, match=match):
        call()


def test_infinite_parameters_keep_their_meaning():
    # E(-inf) = 0, E(inf) = I, and smax = inf is the exact transform
    assert not spectral_projection(H3, -np.inf).any()
    assert_allclose(spectral_projection(H3, np.inf), np.eye(3))
    assert fourier_resolvent_check(H3, 2j, ONES3, ONES3, smax=np.inf).residuals["fourier"] <= 1e-15
