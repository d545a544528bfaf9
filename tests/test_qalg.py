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

from qindirect import classify, model, qalg, sampler
from qindirect.qalg import (E_AB, ID2, PAULI_BASIS, PAULI_X_TILDE,
                            PAULI_Y_TILDE, PAULI_Z_TILDE, SIGMA_X, SIGMA_Y,
                            SIGMA_Z, STRUCTURE, TOL_RANK,
                            bloch, bloch_inverse, bracket, check_density,
                            check_skew_coords, dagger, frame, frob,
                            from_pauli_coords, mat_exp, partial_trace,
                            pauli_coords, state_coords, tensor, z_rotation)

from oracles import ID4, commutator, sigma_from_vec

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
    # sigma_j = E_j / sqrt(2) in the one-qubit Pauli-string basis
    sigmas = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
    assert_allclose(pauli_coords(sigmas), np.eye(4)[1:] / np.sqrt(2.0),
                    atol=1e-16)


def test_bracket_table_cyclic():
    assert frob(commutator(SIGMA_X, SIGMA_Y) - SIGMA_Z) < 1e-15
    assert frob(commutator(SIGMA_Y, SIGMA_Z) - SIGMA_X) < 1e-15
    assert frob(commutator(SIGMA_Z, SIGMA_X) - SIGMA_Y) < 1e-15


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


@pytest.mark.parametrize("shape_a, shape_b", [
    ((2, 2), (2, 2)), ((4, 4), (4, 4)), ((2, 1), (2, 1)), ((1, 2), (1, 2)),
    ((2, 1), (1, 2)), ((2, 2), (4, 4)), ((3, 2), (2, 5)),
])
def test_tensor_matches_kron(shape_a, shape_b, rng):
    a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
    b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
    assert_allclose(tensor(a, b), np.kron(a, b), rtol=0, atol=1e-15)
    # mixed real and complex input, either way round
    assert_allclose(tensor(a.real, b), np.kron(a.real, b), rtol=0, atol=1e-15)
    assert_allclose(tensor(a, b.real), np.kron(a, b.real), rtol=0, atol=1e-15)
    out = tensor(a.real, b.real)
    assert out.dtype == complex
    assert_allclose(out, np.kron(a.real, b.real), rtol=0, atol=1e-15)


def test_tensor_rejects_non_matrices():
    with pytest.raises(ValueError):
        tensor(np.ones(2), np.eye(2))
    with pytest.raises(ValueError):
        tensor(np.eye(2), np.ones((2, 2, 2)))


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(4))


@given(st_c22, st_c22)
def test_partial_trace_factorizes(a, b):
    full = tensor(a, b)
    assert_allclose(partial_trace(full), np.trace(b) * a, atol=1e-12)


@given(st_c44, st_c44, st_coeff)
def test_partial_trace_linear(m1, m2, c):
    lhs = partial_trace(m1 + c * m2)
    rhs = partial_trace(m1) + c * partial_trace(m2)
    assert_allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(np.eye(2))


@given(st.one_of(st_c22, st_c44))
def test_mat_exp_matches_scipy(h):
    # mat_exp accepts only skew-Hermitian input, so the oracle sees the
    # skew-Hermitian part of a general complex matrix, on one and two qubits
    a = 0.5 * (h - dagger(h))
    assert_allclose(mat_exp(a), scipy.linalg.expm(a), atol=1e-12)


@given(st_c44)
def test_mat_exp_skew_path(h):
    a = 0.5 * (h - dagger(h))  # skew-Hermitian part
    u = mat_exp(a)
    assert frob(u @ dagger(u) - ID4) < 1e-12
    assert frob(mat_exp(-a) @ u - ID4) < 1e-12


def test_mat_exp_skew_rejects_non_skew():
    with pytest.raises(ValueError):
        mat_exp(np.eye(2))
    with pytest.raises(ValueError):
        mat_exp(np.ones((2, 3)))
    with pytest.raises(ValueError):
        mat_exp(np.zeros((3, 3)))  # only 2x2 and 4x4 have Pauli coordinates


def test_mat_exp_rejects_a_stack():
    with pytest.raises(ValueError, match="one matrix"):
        mat_exp(np.zeros((2, 2, 2)))


@given(st_angle)
def test_exp_sigma_z_phases(t):
    # the convention anchor: exp(t sigma_z) = diag(e^{it/2}, e^{-it/2})
    expect = np.diag([np.exp(0.5j * t), np.exp(-0.5j * t)])
    assert_allclose(mat_exp(t * SIGMA_Z), expect,
                    atol=1e-12)
    assert_allclose(z_rotation(t), expect, atol=1e-15)


def test_frame(rng):
    e_x, e_y, e_z = np.eye(3)
    cases = [(rng.normal(size=3), rng.normal(size=3)),
             (np.zeros(3), np.zeros(3)), (np.zeros(3), e_y), (e_x, np.zeros(3)),
             (e_z, 2 * e_z), (e_z, -3 * e_z), (-e_x, e_x + e_y)]
    for u, v in cases:
        f = frame(u, v)
        assert_allclose(f @ f.T, np.eye(3), atol=1e-15)
        assert np.linalg.det(f) == pytest.approx(1.0, abs=1e-15)
        fu, fv = f @ u, f @ v
        # u = |u| e1 and v lies in the e1-e2 half plane with v . e2 >= 0
        assert_allclose(fu, [np.linalg.norm(u), 0.0, 0.0], atol=1e-15)
        assert fv[1] >= 0.0 and abs(fv[2]) <= 1e-15
    assert_allclose(frame(-e_x, e_x + e_y), [-e_x, e_y, -e_z], atol=1e-15)


def test_skew_coords(rng):
    # 1j tilde_x = sqrt(2) E_1 and 1j * 1 = sqrt(2) E_0, handed back at unit norm
    assert_allclose(check_skew_coords(pauli_coords(1j * PAULI_X_TILDE),
                                      require_traceless=True, tol=TOL_RANK),
                    [0.0, 1.0, 0.0, 0.0])
    assert_allclose(check_skew_coords(pauli_coords(1j * ID2),
                                      require_traceless=False, tol=TOL_RANK),
                    [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="not traceless"):
        check_skew_coords(pauli_coords(1j * ID2), require_traceless=True,
                          tol=TOL_RANK)
    with pytest.raises(ValueError, match="not skew-Hermitian"):
        check_skew_coords(pauli_coords(PAULI_X_TILDE), require_traceless=False,
                          tol=TOL_RANK)
    # one bad matrix rejects the stack
    with pytest.raises(ValueError, match="not skew-Hermitian"):
        check_skew_coords(pauli_coords(np.stack([SIGMA_X, ID2])),
                          require_traceless=False, tol=TOL_RANK)
    mats = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    with pytest.raises(ValueError, match="not skew-Hermitian"):
        check_skew_coords(pauli_coords(mats), False, TOL_RANK)
    # the bound is relative to max(1, ||M||): a Hermitian part of 1e-4 is
    # rejected next to sigma_x and accepted next to 1e6 sigma_x at tol 1e-9
    with pytest.raises(ValueError):
        check_skew_coords(pauli_coords(SIGMA_X + 1e-4 * ID2),
                          require_traceless=False, tol=1e-9)
    check_skew_coords(pauli_coords(1e6 * SIGMA_X + 1e-4 * ID2),
                      require_traceless=False, tol=1e-9)
    with pytest.raises(ValueError):
        check_skew_coords(pauli_coords(np.zeros((3, 3))),
                          require_traceless=False, tol=TOL_RANK)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e150])
def test_check_skew_coords_returns_unit_rows_at_any_magnitude(rng, scale):
    rows = rng.normal(size=(4, 16))
    rows[:, 0] = 0.0
    rows[2] = 0.0
    got = check_skew_coords(scale * rows, True, TOL_RANK)
    assert got.shape == rows.shape
    assert_allclose(np.linalg.norm(got[[0, 1, 3]], axis=1), 1.0, rtol=0,
                    atol=1e-15)
    assert not got[2].any()  # a zero row stays zero
    for i in (0, 1, 3):
        assert_allclose(got[i], rows[i] / np.linalg.norm(rows[i]), rtol=0,
                        atol=1e-15)


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


def test_bloch_inverse_ball_is_the_state_bloch_ball():
    # both accept |p| <= 1 + 2e-10, the eigenvalue bound -1e-10 of state_bloch
    p = np.array([0.6, 0.0, 0.8])
    check_density(bloch_inverse((1.0 + 1e-10) * p))
    with pytest.raises(ValueError, match="Bloch vector has norm"):
        bloch_inverse((1.0 + 5e-10) * p)


@pytest.mark.parametrize("p", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                               [0.1, 0.2, -np.inf]])
def test_bloch_inverse_rejects_non_finite(p):
    with pytest.raises(ValueError, match="Bloch vector has norm"):
        bloch_inverse(p)


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


def test_state_coords_reads_tr_p_rho(rng):
    rho = _density_stack(rng, 5)
    r = state_coords(rho)
    paulis = np.array([ID2, PAULI_X_TILDE, PAULI_Y_TILDE, PAULI_Z_TILDE])
    expect = np.einsum("aij,nji->na", paulis, rho)
    assert_allclose(r, expect, rtol=0, atol=1e-15)
    assert_allclose(r[:, 1:].real, bloch(rho), rtol=0, atol=0)
    with pytest.raises(ValueError, match="trace"):
        state_coords(2.0 * np.eye(2))
    with pytest.raises(ValueError, match="expected 2x2"):
        state_coords(np.eye(3) / 3)


def _density_stack(rng, n):
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    rho = z @ dagger(z)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def test_check_density_and_bloch_on_a_stack(rng):
    rho = _density_stack(rng, 6).reshape(2, 3, 2, 2)
    assert check_density(rho).shape == (2, 3, 2, 2)
    points = bloch(rho)
    assert points.shape == (2, 3, 3)
    for i in range(2):
        for j in range(3):
            assert_allclose(points[i, j], bloch(rho[i, j]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", [
    # each fails exactly one of the three checks
    np.array([[0.5, 0.1], [0.3, 0.5]]),  # not Hermitian
    2.0 * np.eye(2),  # trace 2
    np.diag([1.5, -0.5]),  # negative eigenvalue
])
def test_check_density_rejects_one_bad_matrix_in_a_stack(bad, rng):
    for where in (0, 3, 7):
        rho = _density_stack(rng, 8)
        check_density(rho)
        rho[where] = bad
        with pytest.raises(ValueError):
            check_density(rho)
        with pytest.raises(ValueError):
            bloch(rho)


def test_check_density_positivity_matches_eigvalsh(rng):
    # Hermitian unit-trace matrices with Bloch radius in [0.9, 1.1]: exactly
    # those whose smallest eigenvalue is at least -1e-10 are accepted
    p = rng.normal(size=(500, 3))
    p *= rng.uniform(0.9, 1.1, size=(500, 1)) / np.linalg.norm(p, axis=1,
                                                              keepdims=True)
    rho = 0.5 * (ID2 + np.einsum("na,aij->nij", p, np.array(
        [PAULI_X_TILDE, PAULI_Y_TILDE, PAULI_Z_TILDE])))
    lam = np.linalg.eigvalsh(rho)[:, 0]
    keep = abs(lam + 1e-10) > 1e-14
    assert keep.sum() > 450 and (lam[keep] < -1e-10).any() \
        and (lam[keep] >= -1e-10).any()
    for m, lo in zip(rho[keep], lam[keep]):
        if lo >= -1e-10:
            check_density(m)
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                check_density(m)


def _rotated_diag(rng, p, q):
    """U diag(p, q) U^dag for a random unitary U."""
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return u @ np.diag([p, q]) @ dagger(u)


@pytest.mark.parametrize("p, q, lam", [
    (1.0, 0.0, 0.0),  # rank 1
    (0.5, 0.5, 0.5),  # maximally mixed
    (1.0 + 5e-11, -5e-11, -5e-11),  # slightly negative, within -1e-10
])
def test_check_density_closed_form_edges_accepted(rng, p, q, lam):
    for rho in (np.diag([p, q]).astype(complex), _rotated_diag(rng, p, q)):
        check_density(rho)
        check_density(np.stack([0.5 * ID2, rho]))


def test_check_density_rejects_eigenvalue_below_threshold(rng):
    for rho in (np.diag([1.0 + 2e-10, -2e-10]).astype(complex),
                _rotated_diag(rng, 1.0 + 2e-10, -2e-10)):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_density(rho)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_density(np.stack([0.5 * ID2, rho, 0.5 * ID2]))


def test_check_density_hermitian_check_reads_both_triangles():
    # the lower triangle is a valid state; the upper one disagrees by more
    # than TOL_RANK, which the eigenvalue alone would not see
    rho = np.array([[0.5, 0.2 + 2e-9j], [0.2, 0.5]])
    with pytest.raises(ValueError, match="not Hermitian"):
        check_density(rho)
    with pytest.raises(ValueError, match="not Hermitian"):
        check_density(np.stack([0.5 * ID2, rho]))
    # a disagreement of norm sqrt(2) * 5e-10 is within TOL_RANK
    check_density(np.array([[0.5, 0.2 + 5e-10j], [0.2, 0.5]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho", [
    # |p|^2 or |Im r|^2 overflowed: "overflow encountered in square"
    [[0.5, 1e200], [1e200, 0.5]], [[0.5, 1e200j], [-1e200j, 0.5]],
    [[0.5, 1e200j], [1e200j, 0.5]],
    # r = Tr(P rho) overflowed: "overflow encountered in matmul"
    [[0.5, 1e308], [1e308, 0.5]],
])
def test_check_density_rejects_huge_entries_without_a_warning(rho):
    with pytest.raises(ValueError, match="huge"):
        check_density(rho)
    with pytest.raises(ValueError, match="huge"):
        check_density(np.stack([0.5 * ID2, rho]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf,
                                   complex(0.0, np.nan)])
def test_check_density_rejects_non_finite(value):
    for i, j in ((0, 0), (0, 1), (1, 0)):
        rho = 0.5 * ID2
        rho[i, j] = value
        with pytest.raises(ValueError, match="non-finite"):
            check_density(rho)
        with pytest.raises(ValueError, match="non-finite"):
            check_density(np.stack([0.5 * ID2, rho]))
        with pytest.raises(ValueError, match="non-finite"):
            bloch(rho)


@pytest.mark.parametrize("bad, message", [
    ([1.5, 0.0, 0.0, 0.0], "trace differs"),
    ([1.0, 0.6, 0.0, 0.8 + 1e-6], "negative eigenvalue"),
    ([1.0, np.nan, 0.0, 0.0], "non-finite"),
    ([1.0, 0.0, -np.inf, 0.0], "non-finite"),
])
def test_state_bloch_checks_a_real_input(bad, message):
    # a real r has no Hermitian part to read; the other checks still hold,
    # also on a transposed block as the sampler passes it
    r = np.array([[1.0, 0.6, 0.0, 0.8], bad])
    for read in (r, np.ascontiguousarray(r.T).T):
        with pytest.raises(ValueError, match=message):
            qalg.state_bloch(read)
    good = r[:1]
    assert np.array_equal(qalg.state_bloch(good),
                          qalg.state_bloch(good.astype(complex)))


def test_partial_trace_on_a_stack(rng):
    m = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    out = partial_trace(m)
    assert out.shape == (5, 2, 2)
    for full, part in zip(m, out):
        assert_allclose(part, partial_trace(full), rtol=0, atol=1e-15)


def test_dagger_on_a_stack(rng):
    m = rng.normal(size=(3, 2, 4)) + 1j * rng.normal(size=(3, 2, 4))
    out = dagger(m)
    assert out.shape == (3, 4, 2)
    for a, b in zip(m, out):
        assert_allclose(b, a.conj().T)


def test_frob_and_dagger():
    m = np.array([[1.0, 2.0j], [0.0, -1.0]])
    assert frob(m) == pytest.approx(np.sqrt(6.0))
    assert_allclose(dagger(m), m.conj().T)


@pytest.mark.parametrize("d", [2, 4])
def test_pauli_basis_orthonormal_skew(d):
    E = PAULI_BASIS[d]
    gram = np.einsum("jab,kab->jk", E.conj(), E)
    assert_allclose(gram, np.eye(d * d), atol=1e-15)
    assert_allclose(check_skew_coords(pauli_coords(E), require_traceless=False,
                                      tol=TOL_RANK), np.eye(d * d), atol=1e-15)
    assert_allclose(pauli_coords(E), np.eye(d * d), atol=1e-15)
    assert_allclose(from_pauli_coords(np.eye(d * d)), E, atol=1e-15)


def test_pauli_basis_partial_trace_is_a_selection():
    # Tr_A E_a0 = sqrt(2) E_a of one qubit, Tr_A E_ab = 0 for b != 0
    for a in range(4):
        for b in range(4):
            expect = np.sqrt(2.0) * PAULI_BASIS[2][a] if b == 0 else 0.0 * ID2
            assert_allclose(partial_trace(PAULI_BASIS[4][4 * a + b]), expect,
                            atol=1e-15)


def test_shared_tables_are_read_only():
    # one caller's in-place write into a shared table would change every
    # element and matrix built from it later
    e1 = np.eye(16)[1]

    def built():
        return (classify._one_a("x"), from_pauli_coords(e1),
                pauli_coords(PAULI_BASIS[4][7] + ID4),
                model.generator_set(model.ising_model()))

    before = built()
    tables = [*PAULI_BASIS.values(), *qalg._FLAT_BASIS.values(),
              *qalg._DUAL_BASIS.values(), *STRUCTURE.values(), E_AB,
              model._DRIFT_MAP,
              *(index for turn in sampler._TURNS for index in turn),
              sampler._START, sampler._READ, sampler._HALF_SCALE]
    for table in tables:
        with pytest.raises(ValueError):
            table[-1] *= 2
    for old, new in zip(before, built()):
        assert np.array_equal(old, new)
    # the builders hand out writable copies
    out = classify._one_a("x")
    out *= 2
    assert np.array_equal(classify._one_a("x"), before[0])
    gens = model.generator_set(model.ising_model())
    gens *= 2
    assert np.array_equal(model.generator_set(model.ising_model()), before[3])


def test_e_ab_rows_are_the_coordinates_of_the_basis():
    assert_allclose(from_pauli_coords(E_AB),
                    PAULI_BASIS[4].reshape(4, 4, 4, 4), rtol=0, atol=0)


@pytest.mark.parametrize("d", [2, 4])
def test_bracket_matches_commutator(d, rng):
    # random (3, 5, d^2) stacks of real coordinates, and a broadcast row
    x = rng.normal(size=(3, 5, d * d))
    y = rng.normal(size=(3, 5, d * d))
    got = bracket(x, y)
    assert got.shape == x.shape
    X, Y = from_pauli_coords(x), from_pauli_coords(y)
    for i in np.ndindex(x.shape[:-1]):
        expect = pauli_coords(commutator(X[i], Y[i])).real
        assert_allclose(got[i], expect, rtol=0, atol=1e-13)
    assert_allclose(bracket(y, x), -got, rtol=0, atol=1e-13)
    assert_allclose(bracket(x[0, 0], y), bracket(x[:1, :1], y), rtol=0,
                    atol=1e-13)


def test_bracket_rejects_bad_widths():
    for x, y in ((np.ones(9), np.ones(9)), (np.ones((2, 8)), np.ones((2, 8)))):
        with pytest.raises(ValueError, match="width 4 or 16"):
            bracket(x, y)
    with pytest.raises(ValueError):
        bracket(np.ones(4), np.ones(16))


def test_check_skew_coords_rejects_bad_widths():
    for bad in (np.zeros(9), np.zeros((2, 8)), np.float64(0.0)):
        with pytest.raises(ValueError, match="width 4 or 16"):
            check_skew_coords(bad, require_traceless=False, tol=TOL_RANK)


def test_pauli_coords_rejects_bad_shapes():
    for bad in (np.ones(4), np.ones((2, 4))):
        with pytest.raises(ValueError, match="square"):
            pauli_coords(bad)
    # d = 3 (width 9) gets coords_dim's one message in either direction
    with pytest.raises(ValueError, match="width 4 or 16"):
        pauli_coords(np.eye(3))
    with pytest.raises(ValueError, match="width 4 or 16"):
        from_pauli_coords(np.ones(9))


def test_check_skew_coords_decides_real_input_as_its_complex_copy(rng):
    # a real row has no Hermitian part, so the real branch keeps only the
    # trace test, at the bound the complex check uses
    rows = rng.normal(size=(6, 16))
    rows[:, 0] = 0.0
    rows[1, 0] = 1e-8  # traceful beyond tol * ||row||
    rows[2, 0] = 1e-12  # within it
    for traceless in (False, True):
        for keep in ([0, 2, 3], [1, 4, 5]):
            c = rows[keep]
            try:
                want = check_skew_coords(c + 0j, traceless, TOL_RANK)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    check_skew_coords(c, traceless, TOL_RANK)
            else:
                got = check_skew_coords(c, traceless, TOL_RANK)
                assert got.dtype == np.float64
                assert_allclose(got, want, rtol=0, atol=0)
    with pytest.raises(ValueError, match="not traceless"):
        check_skew_coords(rows, True, TOL_RANK)
