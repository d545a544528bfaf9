"""Tests for the dense operator-algebra layer.

The matrix exponential is checked against scipy.linalg.expm as an
independent oracle; everything else is either an exact algebraic fact of
the convention (bracket table, exp(t sigma_z) phases) or a round trip.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from qindirect.qalg import (ID2, ID4, PAULI_BASIS, PAULI_X_TILDE,
                            PAULI_Y_TILDE, PAULI_Z_TILDE, SIGMA_X, SIGMA_Y,
                            SIGMA_Z, anticommutator, bloch, bloch_inverse,
                            check_density, commutator, dagger, frob,
                            from_pauli_coords, is_skew_hermitian, mat_exp,
                            partial_trace, pauli, pauli_coords,
                            sigma_from_vec, tensor, z_rotation)

st_angle = st.floats(-10.0, 10.0)
st_coeff = st.floats(-2.0, 2.0)
st_bloch = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda p: np.linalg.norm(p) <= 0.99)

_reals = hnp.arrays(np.float64, (2, 2), elements=st.floats(-1.0, 1.0))
st_c22 = st.tuples(_reals, _reals).map(lambda ab: ab[0] + 1j * ab[1])
_reals4 = hnp.arrays(np.float64, (4, 4), elements=st.floats(-1.0, 1.0))
st_c44 = st.tuples(_reals4, _reals4).map(lambda ab: ab[0] + 1j * ab[1])


def test_tilde_matrices_entries():
    assert_allclose(PAULI_X_TILDE, [[0, 1], [1, 0]])
    # y carries the flipped sign relative to the textbook matrix
    assert_allclose(PAULI_Y_TILDE, [[0, 1j], [-1j, 0]])
    assert_allclose(PAULI_Z_TILDE, [[1, 0], [0, -1]])


def test_sigma_is_half_i_tilde():
    for sig, til in ((SIGMA_X, PAULI_X_TILDE), (SIGMA_Y, PAULI_Y_TILDE),
                     (SIGMA_Z, PAULI_Z_TILDE)):
        assert_allclose(sig, 0.5j * til)
        assert is_skew_hermitian(sig)


def test_bracket_table_cyclic():
    assert frob(commutator(SIGMA_X, SIGMA_Y) - SIGMA_Z) < 1e-15
    assert frob(commutator(SIGMA_Y, SIGMA_Z) - SIGMA_X) < 1e-15
    assert frob(commutator(SIGMA_Z, SIGMA_X) - SIGMA_Y) < 1e-15


def test_anticommutator_table():
    sigmas = [SIGMA_X, SIGMA_Y, SIGMA_Z]
    for j, sj in enumerate(sigmas):
        for k, sk in enumerate(sigmas):
            expect = -0.5 * ID2 if j == k else np.zeros((2, 2))
            assert frob(anticommutator(sj, sk) - expect) < 1e-15


def test_pauli_accessor():
    assert_allclose(pauli("x"), SIGMA_X)
    assert_allclose(pauli("y", tilde=True), PAULI_Y_TILDE)
    with pytest.raises(ValueError):
        pauli("w")
    # returned copies must not alias the module constants
    p = pauli("z")
    p[0, 0] = 99.0
    assert pauli("z")[0, 0] == 0.5j


def test_sigma_from_vec():
    v = np.array([0.3, -1.2, 2.0])
    assert_allclose(sigma_from_vec(v),
                    0.3 * SIGMA_X - 1.2 * SIGMA_Y + 2.0 * SIGMA_Z)
    with pytest.raises(ValueError):
        sigma_from_vec([1.0, 2.0])


def test_tensor_ordering():
    a = np.arange(4).reshape(2, 2)
    b = np.eye(2)
    assert_allclose(tensor(a, b), np.kron(a, b))
    assert tensor(a, b).shape == (4, 4)


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(4))


@given(st_c22, st_c22)
def test_partial_trace_factorizes(a, b):
    full = tensor(a, b)
    assert_allclose(partial_trace(full, keep="S"), np.trace(b) * a, atol=1e-12)
    assert_allclose(partial_trace(full, keep="A"), np.trace(a) * b, atol=1e-12)


@given(st_c44, st_c44, st_coeff)
def test_partial_trace_linear(m1, m2, c):
    lhs = partial_trace(m1 + c * m2, keep="S")
    rhs = partial_trace(m1, keep="S") + c * partial_trace(m2, keep="S")
    assert_allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(np.eye(2))
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), keep="B")


@given(st_c44)
def test_mat_exp_matches_scipy(a):
    assert_allclose(mat_exp(a), scipy.linalg.expm(a), atol=1e-12)


@given(st_c44)
def test_mat_exp_skew_path(h):
    a = 0.5 * (h - dagger(h))  # skew-Hermitian part
    u = mat_exp(a, skew_hermitian=True)
    assert_allclose(u, scipy.linalg.expm(a), atol=1e-12)
    assert frob(u @ dagger(u) - ID4) < 1e-12


def test_mat_exp_skew_rejects_non_skew():
    with pytest.raises(ValueError):
        mat_exp(np.eye(2), skew_hermitian=True)
    with pytest.raises(ValueError):
        mat_exp(np.ones((2, 3)))


@given(st_angle)
def test_exp_sigma_z_phases(t):
    # the convention anchor: exp(t sigma_z) = diag(e^{it/2}, e^{-it/2})
    expect = np.diag([np.exp(0.5j * t), np.exp(-0.5j * t)])
    assert_allclose(mat_exp(t * SIGMA_Z, skew_hermitian=True), expect,
                    atol=1e-12)
    assert_allclose(z_rotation(t), expect, atol=1e-15)


def test_is_skew_hermitian():
    assert is_skew_hermitian(1j * PAULI_X_TILDE)
    assert not is_skew_hermitian(PAULI_X_TILDE)
    assert is_skew_hermitian(np.zeros((3, 3)))


@given(st_bloch)
def test_bloch_round_trip(p):
    rho = bloch_inverse(p)
    check_density(rho)
    assert_allclose(bloch(rho), p, atol=1e-12)


def test_bloch_inverse_rejects_outside_ball():
    with pytest.raises(ValueError):
        bloch_inverse([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        bloch_inverse([1.0, 0.0])


def test_check_density_rejections():
    with pytest.raises(ValueError):
        check_density(np.array([[1.0, 0.5j], [0.5j, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density(2.0 * np.eye(2))  # trace 4
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        check_density(np.ones((2, 3)))
    out = check_density(np.diag([0.25, 0.75]))
    assert out.dtype == complex


def test_frob_and_dagger():
    m = np.array([[1.0, 2.0j], [0.0, -1.0]])
    assert frob(m) == pytest.approx(np.sqrt(6.0))
    assert_allclose(dagger(m), m.conj().T)


@pytest.mark.parametrize("d", [2, 4])
def test_pauli_basis_orthonormal_skew(d):
    E = PAULI_BASIS[d]
    gram = np.einsum("jab,kab->jk", E.conj(), E)
    assert_allclose(gram, np.eye(d * d), atol=1e-15)
    assert all(is_skew_hermitian(e) for e in E)
    assert_allclose(pauli_coords(E), np.eye(d * d), atol=1e-15)
    assert_allclose(from_pauli_coords(np.eye(d * d), d), E, atol=1e-15)


def test_pauli_basis_partial_trace_is_a_selection():
    # Tr_A E_a0 = sqrt(2) E_a of one qubit, Tr_A E_ab = 0 for b != 0
    for a in range(4):
        for b in range(4):
            expect = np.sqrt(2.0) * PAULI_BASIS[2][a] if b == 0 else 0.0 * ID2
            assert_allclose(partial_trace(PAULI_BASIS[4][4 * a + b], keep="S"),
                            expect, atol=1e-15)


def test_pauli_coords_rejects_bad_shapes():
    for bad in (np.eye(3), np.ones(4), np.ones((2, 4))):
        with pytest.raises(ValueError):
            pauli_coords(bad)
    with pytest.raises(ValueError):
        from_pauli_coords(np.ones(9), 3)
