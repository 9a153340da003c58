import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from charmat.hilbert import _eig_hermitian as eig_hermitian
from charmat.hilbert import _inner_product as inner_product
from charmat.hilbert import adjoint

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def complex_vectors(n):
    return st.tuples(
        arrays(float, n, elements=finite), arrays(float, n, elements=finite)
    ).map(lambda p: p[0] + 1j * p[1])


@given(complex_vectors(5), complex_vectors(5))
def test_inner_product_conjugate_symmetry(f, g):
    assert np.isclose(inner_product(f, g), np.conj(inner_product(g, f)))


@given(complex_vectors(4), complex_vectors(4), st.complex_numbers(max_magnitude=1e3))
def test_inner_product_linear_in_second_argument(f, g, a):
    lhs = inner_product(f, a * g)
    rhs = a * inner_product(f, g)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_inner_product_convention():
    # conjugation sits on the first argument
    assert inner_product([1j], [1.0]) == -1j
    assert inner_product([1.0], [1j]) == 1j


def test_inner_product_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        inner_product([1.0, 2.0], [1.0])


def test_inner_product_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        inner_product([np.nan], [1.0])


def test_adjoint_is_conjugate_transpose():
    A = np.array([[1 + 2j, 3.0], [0.0, -1j]])
    assert_allclose(adjoint(A), A.conj().T)
    assert_allclose(adjoint(adjoint(A)), A)


def test_adjoint_of_a_stack_is_taken_matrix_by_matrix():
    rng = np.random.default_rng(2)
    S = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    out = adjoint(S)
    assert out.shape == S.shape
    for k in range(3):
        assert np.array_equal(out[k], S[k].conj().T)
    with pytest.raises(ValueError, match="matrix"):
        adjoint(np.ones(3))


def test_eig_hermitian_reconstructs():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    A = (A + A.conj().T) / 2
    w, V = eig_hermitian(A)
    assert np.all(np.diff(w) >= 0)
    assert_allclose(V.conj().T @ V, np.eye(8), atol=1e-12)
    assert_allclose((V * w) @ V.conj().T, A, atol=1e-12)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_symmetrizes_tiny_skew():
    A = np.array([[1.0, 0.5], [0.5 + 1e-15, 2.0]])
    w, V = eig_hermitian(A)
    assert_allclose((V * w) @ V.conj().T, (A + A.conj().T) / 2, atol=1e-12)
