"""Tests for the obstruction test and the two steering constructions.

Each construction is checked against its defining contract (what the
partial trace of the steered state must equal), plus edge cases at the
gimbal points of the Euler factorization and at degenerate spectra.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from qindirect.classify import case_1b_basis
from qindirect.indirect import (E1, GennegatVerdict, euler_su2, fic_mix,
                                fic_reach, gennegat_test, pure_uic_steer,
                                swap_op)
from qindirect.lieclosure import closure, contains, orthonormalize
from qindirect.model import generator_set, random_model
from qindirect.qalg import (ID2, ID4, SIGMA_X, SIGMA_Z, bloch_inverse,
                            dagger, frob, mat_exp, partial_trace, tensor,
                            z_rotation)

st_angle = st.floats(-6.0, 6.0)
st_bloch = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda p: np.linalg.norm(p) <= 0.99)
st_su2 = st.tuples(st_angle, st_angle, st_angle).map(
    lambda a: z_rotation(a[0]) @ mat_exp(a[1] * SIGMA_X, skew_hermitian=True)
    @ z_rotation(a[2]))
st_pure = st.tuples(st.floats(0, np.pi), st.floats(0, 2 * np.pi)).map(
    lambda a: np.array([np.cos(a[0] / 2),
                        np.exp(1j * a[1]) * np.sin(a[0] / 2)]))


def _density(vec):
    return np.outer(vec, vec.conj())


# ---------------------------------------------------------------------------
# invariant-space obstruction


def test_gennegat_blocks_case_1c(rng):
    m = random_model("1c", rng)
    L = closure(generator_set(m))
    rho_s = bloch_inverse([0.0, 0.0, 0.5])
    rho_a = bloch_inverse([0.0, 0.0, 0.3])
    verdict = gennegat_test(L, rho_s, rho_a)
    assert isinstance(verdict, GennegatVerdict)
    assert verdict.trace_image_dim <= 2
    assert verdict.uic_excluded


def test_gennegat_passes_full_algebra(rng):
    for case in ("1a", "2c"):
        m = random_model(case, rng)
        L = closure(generator_set(m))
        rho_s = bloch_inverse(0.6 * rng.normal(size=3) / np.sqrt(3))
        rho_a = bloch_inverse(0.6 * rng.normal(size=3) / np.sqrt(3))
        verdict = gennegat_test(L, rho_s, rho_a)
        assert verdict.trace_image_dim == 4
        assert not verdict.uic_excluded


def test_gennegat_rejects_maximally_mixed_target(rng):
    m = random_model("1c", rng)
    L = closure(generator_set(m))
    with pytest.raises(ValueError):
        gennegat_test(L, ID2 / 2, bloch_inverse([0, 0, 0.5]))
    with pytest.raises(ValueError):
        gennegat_test(L, 2 * ID2, bloch_inverse([0, 0, 0.5]))  # not a state


# ---------------------------------------------------------------------------
# Euler factorization of SU(2)


@given(st_su2)
@example(z_rotation(4.0) @ mat_exp(1e-12 * SIGMA_X, skew_hermitian=True)
         @ z_rotation(0.0))
def test_euler_su2_reconstructs(x):
    t2, t, t1 = euler_su2(x)
    rebuilt = (z_rotation(t2) @ mat_exp(t * SIGMA_X, skew_hermitian=True)
               @ z_rotation(t1))
    assert frob(rebuilt - x) < 1e-12
    assert 0.0 <= t <= np.pi + 1e-12


def test_euler_su2_gimbal_points():
    assert euler_su2(np.eye(2, dtype=complex)) == (0.0, 0.0, 0.0)
    t2, t, t1 = euler_su2(mat_exp(1.2 * SIGMA_X, skew_hermitian=True))
    assert (t2, t, t1) == pytest.approx((0.0, 1.2, 0.0), abs=1e-12)
    t2, t, t1 = euler_su2(z_rotation(0.8))
    assert t == pytest.approx(0.0, abs=1e-12)
    assert t2 + t1 == pytest.approx(0.8)


def test_euler_su2_input_checks():
    with pytest.raises(ValueError):
        euler_su2(2.0 * np.eye(2))
    with pytest.raises(ValueError):
        euler_su2(np.exp(0.3j) * np.eye(2))  # unitary but det != 1
    with pytest.raises(ValueError):
        euler_su2(np.eye(4))


# ---------------------------------------------------------------------------
# pure-accessor steering


@given(st_bloch, st_su2)
def test_pure_uic_steer_contract(p, x):
    rho_s = bloch_inverse(p)
    t = pure_uic_steer(rho_s, x)
    assert frob(t @ dagger(t) - ID4) < 1e-12
    out = partial_trace(t @ tensor(rho_s, E1) @ dagger(t), keep="S")
    assert frob(out - x @ rho_s @ dagger(x)) < 1e-12


def test_steering_generators_live_in_case_1b_algebra():
    # the three factors exponentiate sigma_z (x) 1 and i sigma_x (x) sigma_z
    basis = orthonormalize(case_1b_basis())
    assert contains(basis, tensor(SIGMA_Z, ID2))
    assert contains(basis, 1j * tensor(SIGMA_X, SIGMA_Z))


def test_pure_uic_steer_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pure_uic_steer(np.eye(2), np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        pure_uic_steer(ID2 / 2, 2.0 * np.eye(2))


# ---------------------------------------------------------------------------
# swap and free-interaction transfer


@given(st_pure, st_pure)
def test_swap_exchanges_factors(u, v):
    s = swap_op()
    assert_allclose(s @ np.kron(u, v), np.kron(v, u), atol=1e-12)


def test_swap_is_involution():
    s = swap_op()
    assert_allclose(s @ s, ID4, atol=1e-15)
    assert_allclose(dagger(s), s, atol=1e-15)
    rho_s = bloch_inverse([0.1, 0.2, 0.3])
    rho_a = bloch_inverse([0.0, -0.4, 0.5])
    out = partial_trace(s @ tensor(rho_s, rho_a) @ dagger(s), keep="S")
    assert frob(out - rho_a) < 1e-12


@given(st_bloch, st_pure)
def test_fic_mix_maximally_mixes(p, psi):
    rho_s = bloch_inverse(p)
    u = fic_mix(rho_s, _density(psi))
    assert frob(u @ dagger(u) - ID4) < 1e-10
    out = partial_trace(u @ tensor(rho_s, _density(psi)) @ dagger(u), keep="S")
    assert frob(out - ID2 / 2) < 1e-10


def test_fic_mix_edge_spectra():
    psi = _density(np.array([1.0, 0.0]))
    for p in ([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]):  # mixed and pure targets
        rho_s = bloch_inverse(p)
        u = fic_mix(rho_s, psi)
        out = partial_trace(u @ tensor(rho_s, psi) @ dagger(u), keep="S")
        assert frob(out - ID2 / 2) < 1e-10


def test_fic_mix_requires_pure_accessor():
    with pytest.raises(ValueError):
        fic_mix(ID2 / 2, bloch_inverse([0.0, 0.0, 0.5]))


@settings(max_examples=25)
@given(st_bloch, st_pure, st_bloch)
def test_fic_reach_contract(p, psi, q):
    rho_s = bloch_inverse(p)
    target = bloch_inverse(q)
    u = fic_reach(rho_s, _density(psi), target)
    assert frob(u @ dagger(u) - ID4) < 1e-10
    out = partial_trace(u @ tensor(rho_s, _density(psi)) @ dagger(u), keep="S")
    assert frob(out - target) < 1e-8


def test_fic_reach_extreme_targets():
    rho_s = bloch_inverse([0.2, -0.1, 0.4])
    psi = _density(np.array([0.6, 0.8j]))
    for q in ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.99, 0.0]):
        target = bloch_inverse(q)
        u = fic_reach(rho_s, psi, target)
        out = partial_trace(u @ tensor(rho_s, psi) @ dagger(u), keep="S")
        assert frob(out - target) < 1e-8


def test_fic_reach_rejects_bad_inputs():
    rho_s = bloch_inverse([0.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        fic_reach(rho_s, bloch_inverse([0.0, 0.0, 0.5]), rho_s)  # mixed psi_A
    with pytest.raises(ValueError):
        fic_reach(rho_s, _density(np.array([1.0, 0.0])), 2.0 * np.eye(2))
