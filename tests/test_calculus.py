import numpy as np
import pytest
from numpy.testing import assert_allclose

from charmat import calculus
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
    )
    assert dev == pytest.approx(np.exp(-smax), rel=1e-3)


def test_fourier_random_hermitian_small_deviation():
    rng = np.random.default_rng(21)
    T = random_hermitian(rng, 4)
    f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    dev = fourier_resolvent_check(T, 0.3 + 1.0j, f, g, smax=20.0, steps=40_000)
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
    dev = stone_formula_check(T, 2.0, f, f, epsilon=1e-4, delta=0.5)
    assert dev <= 1e-3


def test_stone_formula_off_diagonal_element():
    rng = np.random.default_rng(25)
    T = random_hermitian(rng, 3)
    f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lam = float(np.linalg.eigvalsh(T)[1])  # include the two lowest eigenspaces
    dev = stone_formula_check(T, lam, f, g, epsilon=1e-4, delta=0.3)
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


# ------------------------------------------- blocked quadrature and memory


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


# (steps, rows per block) for n = 5: one subinterval; steps + 1 = 11 not a
# multiple of the 3 rows; one row per block
BLOCKINGS = [(1, 4), (10, 3), (10, 1)]


@pytest.mark.parametrize("steps, rows", BLOCKINGS)
def test_blocked_quadratures_match_one_shot_trapezoid(monkeypatch, steps, rows):
    rng = np.random.default_rng(45)
    n = 5
    Q, _ = np.linalg.qr(random_hermitian(rng, n))
    T = (Q * np.array([-2.0, -1.0, 0.5, 1.5, 3.0])) @ Q.conj().T
    f, g = random_vectors(rng, n)
    lam = 0.5  # the endpoint lam + delta = 1.0 clears every eigenvalue by 0.5
    monkeypatch.setattr(calculus, "_BLOCK_BUDGET", rows * n)
    quad, exact = one_shot_stone(T, lam, f, g, 0.25, 0.5, steps)
    dev = stone_formula_check(T, lam, f, g, epsilon=0.25, delta=0.5, steps=steps)
    assert dev == pytest.approx(abs(quad - exact), abs=1e-13 * max(abs(quad), abs(exact)))
    quad, exact = one_shot_fourier(T, 0.5 + 1.0j, f, g, 3.0, steps)
    dev = fourier_resolvent_check(T, 0.5 + 1.0j, f, g, smax=3.0, steps=steps)
    assert dev == pytest.approx(abs(quad - exact), abs=1e-13 * max(abs(quad), abs(exact)))


@pytest.mark.parametrize("steps", [1, 7, 1000, 40_000])
def test_fourier_closed_form_matches_one_shot_trapezoid(steps):
    # the geometric sum is the trapezoid rule itself.  h Re(z - w) is 0 for
    # w = Re z, and 2 pi at 7 steps for w = Re z - 2 pi/h; at more steps that
    # w would be large enough to cost the one-shot sum its own accuracy
    rng = np.random.default_rng(47)
    n, z, smax = 6, 0.5 + 1.0j, 3.5
    h = smax / steps
    w = np.array([0.5, 0.5 - 2.0 * np.pi / h if steps == 7 else -2.5, -1.0, 0.0, 1.5, 3.0])
    Q, _ = np.linalg.qr(random_hermitian(rng, n))
    T = (Q * w) @ Q.conj().T
    f, g = random_vectors(rng, n)
    quad, exact = one_shot_fourier(T, z, f, g, smax, steps)
    dev = fourier_resolvent_check(T, z, f, g, smax=smax, steps=steps)
    assert dev == pytest.approx(abs(quad - exact), abs=1e-13 * max(abs(quad), abs(exact)))


@pytest.mark.parametrize("steps, rows", BLOCKINGS + [(40_000, 4096), (7, 100)])
@pytest.mark.parametrize("start, stop", [(0.0, 20.0), (-3.7, 0.01), (-1e3, 1.0 / 3.0)])
def test_block_nodes_are_linspace(monkeypatch, steps, rows, start, stop):
    monkeypatch.setattr(calculus, "_BLOCK_BUDGET", rows)
    blocks = []

    def integrand(x):
        blocks.append(x.copy())
        return np.zeros(len(x))

    calculus._blocked_trapezoid(integrand, start, stop, steps, 1)
    assert all(len(b) <= rows for b in blocks)
    assert np.array_equal(np.concatenate(blocks), np.linspace(start, stop, steps + 1))


@pytest.mark.parametrize("start, stop, steps", [(-5.3, 0.7, 60_000), (-5.123, 2.05, 40_000)])
def test_trapezoid_weights_sum_to_the_interval(monkeypatch, start, stop, steps):
    # every node carries the weight (stop - start)/steps; the rounded spacing
    # of the first two nodes missed stop - start here by a relative 2.3e-12
    # and 2.2e-12
    monkeypatch.setattr(calculus, "_BLOCK_BUDGET", 4096)
    total = calculus._blocked_trapezoid(np.ones_like, start, stop, steps, 1)
    assert abs(total - (stop - start)) <= 4 * np.finfo(float).eps * (stop - start)


def test_calculus_memory_is_bounded(traced_peak_mb):
    rng = np.random.default_rng(49)
    T = random_hermitian(rng, 200)
    f, g = random_vectors(rng, 200)
    lam = float(np.median(np.linalg.eigvalsh(T)))
    # one-shot quadratures and a stack of projectors held 307, 245 and 245 MB here
    assert traced_peak_mb(stone_formula_check, T, lam, f, g, 1e-3, 1e-4) <= 40
    assert traced_peak_mb(fourier_resolvent_check, T, 2j, f, g, 20.0) <= 40
    assert traced_peak_mb(spectral_projection, T, lam) <= 8


def test_fourier_steps_cost_no_memory(traced_peak_mb):
    rng = np.random.default_rng(53)
    T = random_hermitian(rng, 50)
    f, g = random_vectors(rng, 50)
    peaks = [traced_peak_mb(fourier_resolvent_check, T, 2j, f, g, 20.0, steps)
             for steps in (40_000, 400_000)]
    assert abs(peaks[1] - peaks[0]) <= 2


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
