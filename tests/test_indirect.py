"""Tests for the obstruction test and the two steering constructions.

Each construction is checked against its defining contract (what the
partial trace of the steered state must equal), plus edge cases at the
gimbal points of the Euler factorization and at degenerate spectra.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from qindirect import indirect
from qindirect.classify import CASE_DIMS, case_1b_basis
from qindirect.indirect import (E1, GennegatVerdict, fic_mix, fic_reach,
                                gennegat_test, pure_uic_steer, swap_op)
from qindirect.lieclosure import (closure, contains, invariant_space,
                                  orthonormalize, trace_A_image)
from qindirect.model import (SingleAxis, TwoQubitModel, generator_set,
                             random_model, random_single_axis_model)
from qindirect.qalg import (ID2, SIGMA_X, SIGMA_Z, bloch_inverse, dagger,
                            frame, frob, mat_exp, partial_trace, pauli_coords,
                            tensor, z_rotation)

from oracles import ID4, euler_su2

st_angle = st.floats(-6.0, 6.0)
st_bloch = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda p: np.linalg.norm(p) <= 0.99)
st_su2 = st.tuples(st_angle, st_angle, st_angle).map(
    lambda a: z_rotation(a[0]) @ mat_exp(a[1] * SIGMA_X)
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


def _matrix_route(L, rho_s, rho_a, tol):
    """(v_dim, trace_image_dim) from the 4x4 seed matrix i rho_S (x) rho_A."""
    V = invariant_space(L, pauli_coords(1j * tensor(rho_s, rho_a)), tol)
    return len(V), len(trace_A_image(V, tol))


def _random_state(rng, hi=1.0):
    p = rng.normal(size=3)
    return bloch_inverse(rng.uniform(0.15, hi) * p / np.linalg.norm(p))


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-6])
def test_gennegat_matches_matrix_route(tol):
    # the seed enters as the coordinates r_S (x) r_A / 2 of the states read
    # once; the verdict must equal the one from the 4x4 seed matrix
    rng = np.random.default_rng(41)
    models = [random_model(case, rng) for case in sorted(CASE_DIMS)
              for _ in range(4)]
    models += [random_single_axis_model(rng, violate=v)
               for v in (None, "c1", "c2") for _ in range(3)]
    images = set()
    for m in models:
        L = closure(generator_set(m), tol=tol)
        pairs = [(_random_state(rng), _random_state(rng)) for _ in range(3)]
        # a z-axis rho_S gives smaller spaces on the 1c algebras, which
        # also tell rho_S (x) rho_A from rho_A (x) rho_S
        z_s = bloch_inverse([0.0, 0.0, rng.uniform(0.2, 1.0)])
        pairs += [(z_s, bloch_inverse([0.0, 0.0, rng.uniform(-1.0, 1.0)])),
                  (z_s, _random_state(rng))]
        for rho_s, rho_a in pairs:
            v = gennegat_test(L, rho_s, rho_a, tol)
            assert (v.v_dim, v.trace_image_dim) == _matrix_route(
                L, rho_s, rho_a, tol)
            assert v.uic_excluded == (v.trace_image_dim < 4)
            images.add(v.trace_image_dim)
    assert len(images) > 1  # both verdicts occur


@pytest.mark.parametrize("tol, verdict", [(1e-6, (1, 1)), (1e-7, (16, 4))])
def test_gennegat_near_mixed_state_on_su4(tol, verdict):
    # rho_S = (1 + 5e-7 sigma_z) / 2 and rho_A = 1/2: the seed's traceless
    # part is 5e-7 E_z0, and ad(E_z0) has its eight nonzero singular values
    # at 1, so no bracket clears tol = 1e-6 and V is the seed alone, though
    # the brackets' Frobenius norm sqrt(8) 5e-7 exceeds that tol
    L = closure(generator_set(random_model("2c", np.random.default_rng(1))))
    v = gennegat_test(L, bloch_inverse([0.0, 0.0, 5e-7]), ID2 / 2, tol)
    assert (v.v_dim, v.trace_image_dim) == verdict
    assert v.uic_excluded == (verdict[1] < 4)


def _about_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _frame_draw(kind, rng):
    """A full-control case, the ``violate`` of a single-axis draw, or one of
    two draws whose structure only their base frame shows: the C2 normal
    form with n = e_z exactly (before ``random_single_axis_model``'s Haar
    turn), and an omega_S = 0 2a model with K = outer(x, e_z)."""
    if kind == "c2-normal-form":
        alpha, beta, gamma, z, c = rng.uniform(-1.0, 1.0, 5)
        return TwoQubitModel(omega_S=0.0, K=[[alpha, gamma, 0.0],
                                             [0.0, beta, 0.0],
                                             [0.0, 0.0, z]],
                             C=[0.0, 0.0, c], control=SingleAxis(n=[0, 0, 1]))
    if kind == "2a-z":
        return TwoQubitModel(omega_S=0.0, K=np.outer(rng.uniform(-1.0, 1.0, 3),
                                                     [0.0, 0.0, 1.0]),
                             C=rng.uniform(-1.0, 1.0, 3))
    if kind in CASE_DIMS:
        return random_model(kind, rng)
    return random_single_axis_model(rng, kind)


@settings(max_examples=135)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([*CASE_DIMS, None, "c1", "c2", "c2-normal-form",
                        "2a-z"]))
@example(0, "c2-normal-form")
@example(0, "2a-z")
def test_gennegat_verdict_is_frame_free(seed, kind):
    # Local turns U_S (x) U_A conjugate the algebra and the seed together:
    # K -> R_A K R_S^T, C -> R_A C with R_S about z when omega_S != 0, a
    # control axis n -> R_A n, and the Bloch vectors r_S -> R_S r_S,
    # r_A -> R_A r_A.  1a, 2c and an unviolated single-axis draw take the
    # su(4) read-off, every other kind the sweep.
    rng = np.random.default_rng(seed)
    m = _frame_draw(kind, rng)
    r_a = frame(*rng.normal(size=(2, 3)))
    r_s = (frame(*rng.normal(size=(2, 3))) if m.omega_S == 0.0
           else _about_z(rng.uniform(0.0, 2.0 * np.pi)))
    control = (SingleAxis(n=r_a @ m.control.n)
               if isinstance(m.control, SingleAxis) else m.control)
    turned = TwoQubitModel(omega_S=m.omega_S, K=r_a @ m.K @ r_s.T,
                           C=r_a @ m.C, control=control)
    L, L_turned = (closure(generator_set(x)) for x in (m, turned))
    s, a, s_pure, a_pure = (v / np.linalg.norm(v)
                            for v in rng.normal(size=(4, 3)))
    radii = rng.uniform(0.15, 1.0, size=3)
    # a generic pair, a pure accessor, a z-axis pair (blocked on 1c) and an
    # x-axis pair, whose E_zz coordinate is zero only in the first frame
    pairs = [(radii[0] * s, radii[1] * a), (radii[2] * s_pure, a_pure),
             (np.array([0.0, 0.0, 0.6]), np.array([0.0, 0.0, -0.3])),
             (np.array([0.6, 0.0, 0.0]), np.array([0.5, 0.0, 0.0]))]
    for p_s, p_a in pairs:
        base = gennegat_test(L, bloch_inverse(p_s), bloch_inverse(p_a))
        turn = gennegat_test(L_turned, bloch_inverse(r_s @ p_s),
                             bloch_inverse(r_a @ p_a))
        assert (turn.v_dim, turn.trace_image_dim) == (
            base.v_dim, base.trace_image_dim), kind


def test_gennegat_makes_one_invariant_space_call(rng, monkeypatch):
    # wrapped the way a tracer rebinds it, the sweep shows one call per test
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return invariant_space(*args, **kwargs)

    monkeypatch.setattr(indirect, "invariant_space", counted)
    L = closure(generator_set(random_model("1c", rng)))
    for n in range(1, 4):
        gennegat_test(L, _random_state(rng), _random_state(rng))
        assert len(calls) == n


def test_gennegat_maximally_mixed_boundary(rng):
    # ||rho_S - 1/2||_F = |p| / sqrt 2 sits at 1e-9 for |p| = sqrt(2) 1e-9
    L = closure(generator_set(random_model("2c", rng)))
    rho_a = bloch_inverse([0.1, 0.0, 0.5])
    axis = np.array([0.6, 0.0, 0.8])
    for scale, mixed in ((0.99, True), (1.01, False)):
        rho_s = bloch_inverse(scale * np.sqrt(2.0) * 1e-9 * axis)
        assert (frob(rho_s - ID2 / 2) <= 1e-9) == mixed
        if mixed:
            with pytest.raises(ValueError, match="maximally mixed"):
                gennegat_test(L, rho_s, rho_a)
        else:
            assert gennegat_test(L, rho_s, rho_a).v_dim == _matrix_route(
                L, rho_s, rho_a, 1e-9)[0]


def test_gennegat_seed_skew_check_follows_tol(rng):
    # a non-Hermitian part within TOL_RANK passes the state check; the seed's
    # skew check then decides at the caller's tol, as for the matrix seed
    L = closure(generator_set(random_model("2c", rng)))
    rho_s = bloch_inverse([0.3, 0.2, 0.4]) + 1e-10 * np.array([[0, 1], [-1, 0]])
    rho_a = bloch_inverse([0.0, -0.5, 0.2])
    for tol in (1e-12, 1e-9):
        strict = tol < 1e-10
        if strict:
            with pytest.raises(ValueError, match="not skew-Hermitian"):
                _matrix_route(L, rho_s, rho_a, tol)
            with pytest.raises(ValueError, match="not skew-Hermitian"):
                gennegat_test(L, rho_s, rho_a, tol)
        else:
            v = gennegat_test(L, rho_s, rho_a, tol)
            assert (v.v_dim, v.trace_image_dim) == _matrix_route(
                L, rho_s, rho_a, tol)


@pytest.mark.parametrize("rho_a, match", [
    (2.0 * ID2, "trace"),
    (np.diag([1.2, -0.2]), "negative eigenvalue"),
    (np.array([[0.5, 0.4j], [0.4j, 0.5]]), "not Hermitian"),
    (np.eye(3) / 3, "expected 2x2"),
])
def test_gennegat_rejects_non_density_accessor(rng, rho_a, match):
    L = closure(generator_set(random_model("2c", rng)))
    with pytest.raises(ValueError, match=match):
        gennegat_test(L, bloch_inverse([0.3, 0.2, 0.4]), rho_a)


# ---------------------------------------------------------------------------
# Euler factorization of SU(2): the oracle of the steering unitary's form


@given(st_su2)
@example(z_rotation(4.0) @ mat_exp(1e-12 * SIGMA_X)
         @ z_rotation(0.0))
def test_euler_su2_reconstructs(x):
    t2, t, t1 = euler_su2(x)
    rebuilt = (z_rotation(t2) @ mat_exp(t * SIGMA_X)
               @ z_rotation(t1))
    assert frob(rebuilt - x) < 1e-12
    assert 0.0 <= t <= np.pi + 1e-12


def test_euler_su2_gimbal_points():
    assert euler_su2(np.eye(2, dtype=complex)) == (0.0, 0.0, 0.0)
    t2, t, t1 = euler_su2(mat_exp(1.2 * SIGMA_X))
    assert (t2, t, t1) == pytest.approx((0.0, 1.2, 0.0), abs=1e-12)
    t2, t, t1 = euler_su2(z_rotation(0.8))
    assert t == pytest.approx(0.0, abs=1e-12)
    assert t2 + t1 == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# pure-accessor steering


@given(st_bloch, st_su2)
def test_pure_uic_steer_contract(p, x):
    rho_s = bloch_inverse(p)
    t = pure_uic_steer(rho_s, x)
    assert frob(t @ dagger(t) - ID4) < 1e-12
    out = partial_trace(t @ tensor(rho_s, E1) @ dagger(t))
    assert frob(out - x @ rho_s @ dagger(x)) < 1e-12


def test_steering_generators_live_in_case_1b_algebra():
    # the three factors of T's Euler form exponentiate sigma_z (x) 1 and
    # i sigma_x (x) sigma_z
    basis = orthonormalize(case_1b_basis())
    assert contains(basis, pauli_coords(tensor(SIGMA_Z, ID2)))
    assert contains(basis, pauli_coords(1j * tensor(SIGMA_X, SIGMA_Z)))


@given(st.floats(0.0, np.pi))
@example(0.0)
@example(np.pi)
def test_pure_uic_steer_factor_closed_form(theta):
    # the block unitary e^{theta sigma_x} (x) |0><0| + e^{-theta sigma_x} (x)
    # |1><1| is the exponential of -2 theta i sigma_x (x) sigma_z
    t = pure_uic_steer(ID2 / 2, mat_exp(theta * SIGMA_X))
    expected = mat_exp(-2.0 * theta * 1j * tensor(SIGMA_X, SIGMA_Z))
    assert np.abs(t - expected).max() <= 1e-14


def _euler_product(x):
    t2, theta, t1 = euler_su2(x)
    return (tensor(z_rotation(t2), ID2)
            @ mat_exp(-2.0 * theta * 1j * tensor(SIGMA_X, SIGMA_Z))
            @ tensor(z_rotation(t1), ID2))


def _haar_su2(rng):
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    n = np.hypot(abs(a), abs(b))
    return np.array([[a, b], [-np.conj(b), np.conj(a)]]) / n


def test_pure_uic_steer_is_the_euler_product(rng):
    # T = (e^{t2 sigma_z} (x) 1) exp(-2 theta i sigma_x (x) sigma_z)
    # (e^{t1 sigma_z} (x) 1), a product of exponentials of the 1b algebra,
    # also at the gimbal points t = 0, pi of the Euler form and at -1
    edges = [ID2, -ID2, z_rotation(0.8), mat_exp(np.pi * SIGMA_X),
             mat_exp(1e-12 * SIGMA_X)]
    for x in edges + [_haar_su2(rng) for _ in range(200)]:
        err = np.abs(pure_uic_steer(ID2 / 2, x) - _euler_product(x)).max()
        assert err <= 1e-12


def test_pure_uic_steer_ignores_the_state(rng):
    x = _haar_su2(rng)
    assert np.array_equal(pure_uic_steer(bloch_inverse([0.3, -0.2, 0.5]), x),
                          pure_uic_steer(bloch_inverse([0.0, 0.0, -1.0]), x))


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 2, 2)],
                         ids=["empty", "two"])
def test_pure_uic_steer_refuses_a_stack_of_states(shape):
    # check_density reads stacks, so an empty stack would check no state
    rho = np.broadcast_to(ID2 / 2, shape)
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        pure_uic_steer(rho, np.eye(2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pure_uic_steer_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pure_uic_steer(np.eye(2), np.eye(2))  # trace 2
    # non-finite and huge entries are rejected before any product warns
    for x in (2.0 * ID2, np.exp(0.3j) * ID2,  # unitary but det != 1
              ID4, [[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]],
              [[1e200, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError):
            pure_uic_steer(ID2 / 2, x)


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
    out = partial_trace(s @ tensor(rho_s, rho_a) @ dagger(s))
    assert frob(out - rho_a) < 1e-12


@given(st_bloch, st_pure)
def test_fic_mix_maximally_mixes(p, psi):
    rho_s = bloch_inverse(p)
    u = fic_mix(rho_s, _density(psi))
    assert frob(u @ dagger(u) - ID4) < 1e-10
    out = partial_trace(u @ tensor(rho_s, _density(psi)) @ dagger(u))
    assert frob(out - ID2 / 2) < 1e-10


def test_fic_mix_edge_spectra():
    psi = _density(np.array([1.0, 0.0]))
    for p in ([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]):  # mixed and pure targets
        rho_s = bloch_inverse(p)
        u = fic_mix(rho_s, psi)
        out = partial_trace(u @ tensor(rho_s, psi) @ dagger(u))
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
    out = partial_trace(u @ tensor(rho_s, _density(psi)) @ dagger(u))
    assert frob(out - target) < 1e-8


def test_fic_reach_extreme_targets():
    rho_s = bloch_inverse([0.2, -0.1, 0.4])
    psi = _density(np.array([0.6, 0.8j]))
    for q in ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.99, 0.0]):
        target = bloch_inverse(q)
        u = fic_reach(rho_s, psi, target)
        out = partial_trace(u @ tensor(rho_s, psi) @ dagger(u))
        assert frob(out - target) < 1e-8


def test_fic_reach_is_exact():
    # closed form: no search tolerance, so residuals sit at rounding level,
    # including pure and maximally mixed rho_S and targets
    rng = np.random.default_rng(9)

    def pure():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return _density(v / np.linalg.norm(v))

    def mixed():
        p = rng.normal(size=3)
        return bloch_inverse(rng.uniform(0, 0.99) * p / np.linalg.norm(p))

    cases = [(mixed(), pure(), mixed()) for _ in range(300)]
    cases += [(r, pure(), t) for r in (pure(), ID2 / 2)
              for t in (pure(), ID2 / 2)]
    for rho_s, psi, target in cases:
        u = fic_reach(rho_s, psi, target)
        assert frob(u @ dagger(u) - ID4) <= 1e-12
        out = partial_trace(u @ tensor(rho_s, psi) @ dagger(u))
        assert frob(out - target) <= 1e-12


def test_fic_reach_rejects_bad_inputs():
    rho_s = bloch_inverse([0.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        fic_reach(rho_s, bloch_inverse([0.0, 0.0, 0.5]), rho_s)  # mixed psi_A
    with pytest.raises(ValueError):
        fic_reach(rho_s, _density(np.array([1.0, 0.0])), 2.0 * np.eye(2))


def test_fic_reach_diagonalizes_its_states_in_one_call(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    u = fic_reach(*_GOOD)
    assert calls == [(3, 2, 2)]
    out = partial_trace(u @ tensor(_GOOD[0], _GOOD[1]) @ dagger(u))
    assert frob(out - _GOOD[2]) <= 1e-12


_GOOD = (bloch_inverse([0.2, -0.1, 0.4]), _density(np.array([0.6, 0.8j])),
         bloch_inverse([0.0, 0.3, 0.5]))
_BAD = {0: (2.0 * ID2, "trace"), 1: (bloch_inverse([0.0, 0.0, 0.5]), "pure"),
        2: (np.diag([1.2, -0.2]), "negative eigenvalue")}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("big", [1e200, 1e308])
def test_state_reads_reject_huge_entries_without_a_warning(rng, big):
    huge = np.array([[0.5, big], [big, 0.5]])
    L = closure(generator_set(random_model("2c", rng)))
    with pytest.raises(ValueError, match="huge"):
        gennegat_test(L, bloch_inverse([0.3, 0.2, 0.4]), huge)
    for pos in range(3):
        args = list(_GOOD)
        args[pos] = huge
        with pytest.raises(ValueError, match="huge"):
            fic_reach(*args)


@pytest.mark.parametrize("func, n_args", [(fic_reach, 3), (fic_mix, 2)])
def test_fic_rejects_each_bad_input(func, n_args):
    # the states are read in one stacked check; each bad one still fails it,
    # and a 3x3 matrix in any position fails the shape check first
    assert func(*_GOOD[:n_args]).shape == (4, 4)
    for pos in range(n_args):
        for bad, match in (_BAD[pos], (np.eye(3) / 3, "expected 2x2")):
            args = list(_GOOD[:n_args])
            args[pos] = bad
            with pytest.raises(ValueError, match=match):
                func(*args)
