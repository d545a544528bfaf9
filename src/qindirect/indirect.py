"""Indirect-controllability verdicts and steering constructions.

Three layers, all for the target-plus-accessor pair:

* an invariant-space obstruction: propagating i rho_S (x) rho_A through the
  dynamical Lie algebra and tracing out the accessor bounds what any
  unitary in e^L can do to the target (a necessary test only);
* the pure-accessor steering construction realizing an arbitrary SU(2)
  conjugation of the target using the 10-dim algebra of the D != 0,
  F = 0 case (Euler factorization through the axis the controls provide);
* free-interaction state transfer: with full controllability, the target
  can be driven from any initial pair to any density matrix with the
  right trace, along a closed-form one-angle family of unitaries running
  from SWAP to one that maximally mixes the target.  These two return
  group elements, so they work on 2x2 and 4x4 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qalg import (ID2, ID4, PAULI_X_TILDE, PAULI_Z_TILDE, TOL_RANK,
                   check_density, dagger, frob, state_coords, tensor)
# Unused here; qbench/selftest.py checks that its tracer rebinds
# indirect.partial_trace, so the name stays bound in this module.
from .qalg import partial_trace  # noqa: F401
from .lieclosure import invariant_space, trace_A_image


def _read_states(*rhos) -> tuple:
    """(the 2x2 states as complex arrays, their r = Tr(P rho) stacked (n, 4)),
    checked by one ``state_coords`` read."""
    rhos = [np.asarray(rho, dtype=complex) for rho in rhos]
    for rho in rhos:
        if rho.shape != (2, 2):
            raise ValueError(f"expected 2x2 density matrices, got shape "
                             f"{rho.shape}")
    return rhos, state_coords(np.stack(rhos))


@dataclass(frozen=True)
class GennegatVerdict:
    v_dim: int
    trace_image_dim: int
    uic_excluded: bool


def gennegat_test(L: np.ndarray, rho_S: np.ndarray, rho_A: np.ndarray,
                  tol: float = TOL_RANK) -> GennegatVerdict:
    """Necessary test for steering the target from rho_S (x) rho_A.

    Builds the smallest ad(L)-invariant subspace V containing
    i rho_S (x) rho_A, with L the (n, 16) coordinate basis that ``closure``
    returns, and measures the dimension of its image under the
    partial trace over the accessor.  If that image is not all of u(2),
    unitary steering to arbitrary targets is impossible from this pair.
    The converse does not hold: a full image proves nothing.

    The states are read once as r = Tr(P rho); the seed has the Pauli
    coordinates r_S[a] r_A[b] / 2 on E_ab, so no 4x4 matrix is built.
    """
    _, (r_S, r_A) = _read_states(rho_S, rho_A)
    # ||rho_S - 1/2||_F = ||r_S - (1, 0, 0, 0)|| / sqrt 2: Tr(P_a P_b) = 2 delta_ab
    if np.linalg.norm(r_S - (1.0, 0.0, 0.0, 0.0)) / np.sqrt(2.0) <= 1e-9:
        raise ValueError("rho_S maximally mixed: the obstruction is vacuous")
    V = invariant_space(L, 0.5 * np.outer(r_S, r_A).ravel(), tol)
    img = trace_A_image(V, tol)
    return GennegatVerdict(v_dim=len(V), trace_image_dim=len(img),
                           uic_excluded=len(img) < 4)


# ---------------------------------------------------------------------------
# pure-accessor steering (10-dim algebra, D != 0, F = 0)


def _check_su2(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if frob(X @ dagger(X) - ID2) > 1e-9:
        raise ValueError("matrix is not unitary")
    if abs(X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0] - 1.0) > 1e-9:  # det X
        raise ValueError("matrix does not have determinant 1")
    return X


def euler_su2(X: np.ndarray) -> tuple:
    """Angles (t2, t, t1) with X = e^{t2 sigma_z} e^{t sigma_x} e^{t1 sigma_z}.

    The product has entries [[cos(t/2) e^{i(t2+t1)/2}, i sin(t/2) e^{i(t2-t1)/2}],
    [i sin(t/2) e^{-i(t2-t1)/2}, cos(t/2) e^{-i(t2+t1)/2}]]; the angles are read
    off the polar forms of the first row.  At the gimbal points (t = 0 or pi)
    only the sum or difference of t2, t1 matters and the free one is set to 0.
    """
    X = _check_su2(X)
    a, b = X[0, 0], X[0, 1]
    t = 2.0 * np.arctan2(abs(b), abs(a))
    phi_sum = np.angle(a) if a != 0 else 0.0
    phi_diff = np.angle(b) - np.pi / 2 if b != 0 else 0.0
    return (phi_sum + phi_diff, t, phi_sum - phi_diff)


E1 = np.diag([1.0, 0.0]).astype(complex)
_XZ = tensor(PAULI_X_TILDE, PAULI_Z_TILDE)
_XZ.setflags(write=False)
# e^{t sigma_z} (x) 1 = diag(exp(i t s / 2)) with these signs s
_Z_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_Z_SIGNS.setflags(write=False)


def pure_uic_steer(rho_S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """4x4 unitary T with Tr_A(T (rho_S (x) E1) T^dag) = X rho_S X^dag.

    Requires the accessor prepared in E1 = diag(1, 0); an arbitrary pure
    accessor state is first rotated there by a local accessor unitary.
    Each factor of T exponentiates an element of the 10-dim algebra
    span{sigma_z (x) 1, 1 (x) su(2), i sigma_{x,y} (x) su(2)}: the outer
    factors are S-side z-rotations (times 1) and the middle factor is
    exp(t i sigma_x (x) sigma_z).  On the accessor ground block the middle
    factor conjugates the target by e^{-(t/2) sigma_x}, hence t = -2 theta
    realizes the Euler x-rotation by theta.  With i sigma_x (x) sigma_z =
    -(i/4) X (x) Z and (X (x) Z)^2 = 1, that factor is
    cos(theta/2) 1 + i sin(theta/2) X (x) Z; the outer factors are diagonal.
    """
    check_density(rho_S)
    t2, theta, t1 = euler_su2(X)
    mid = np.cos(0.5 * theta) * ID4 + 1j * np.sin(0.5 * theta) * _XZ
    left, right = np.exp(0.5j * np.multiply.outer((t2, t1), _Z_SIGNS))
    return left[:, None] * mid * right


# ---------------------------------------------------------------------------
# free-interaction state transfer (full su(4))


def swap_op() -> np.ndarray:
    """The 4x4 permutation exchanging the two tensor factors."""
    return np.array([[1, 0, 0, 0],
                     [0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1]], dtype=complex)


# the fixed factors of the transfer family, shared read-only
_SWAP = swap_op()
_X_1 = tensor(PAULI_X_TILDE, ID2)
_Z_X = tensor(PAULI_Z_TILDE, PAULI_X_TILDE)
for _factor in (_SWAP, _X_1, _Z_X):
    _factor.setflags(write=False)


def _pure_state_vector(psi: np.ndarray) -> np.ndarray:
    """The state vector of a checked density matrix psi, which must be pure."""
    w, u = np.linalg.eigh(psi)
    if 1.0 - w[-1] > 1e-8:
        raise ValueError("accessor state must be pure")
    return u[:, -1]


def _transfer(rho_S: np.ndarray, psi_A: np.ndarray, phi: float,
              t: np.ndarray) -> np.ndarray:
    """U(phi) = (t (x) 1) M(phi) (W^dag (x) E^dag) SWAP.

    M(phi) = cos(phi) X (x) 1 + sin(phi) Z (x) X with X, Z the Hermitian
    Paulis (real, symmetric and squaring to 1, hence orthogonal).  E holds
    the eigenvectors e_k of rho_S, W = (v, v_perp) the pure accessor vector
    and its complement, and t the columns (t_0, t_1).  With a_k the
    accessor basis,

        e_k (x) v      ->  cos(phi) t_1 (x) a_k + sin(phi) t_0 (x) a_{1-k},
        e_k (x) v_perp ->  cos(phi) t_0 (x) a_k - sin(phi) t_1 (x) a_{1-k}.

    The images of the two e_k (x) v put orthogonal accessor vectors next to
    each t_j, so the target ends in cos^2(phi) |t_1><t_1| +
    sin^2(phi) |t_0><t_0| whatever the spectrum of rho_S.  phi = 0 is SWAP
    up to local unitaries; phi = pi/4 mixes the target maximally.  The
    caller has checked both states.
    """
    v = _pure_state_vector(psi_A)
    w = np.column_stack([v, [-np.conj(v[1]), np.conj(v[0])]])
    e = np.linalg.eigh(rho_S)[1]
    mix = np.cos(phi) * _X_1 + np.sin(phi) * _Z_X
    return tensor(t, ID2) @ mix @ dagger(tensor(w, e)) @ _SWAP


def fic_mix(rho_S: np.ndarray, psi_A: np.ndarray) -> np.ndarray:
    """Unitary sending rho_S (x) psi_A to a state with maximally mixed target.

    The phi = pi/4 member of the transfer family: each eigenvector of
    rho_S paired with the pure accessor vector goes to a maximally
    entangled vector, which kills every target Bloch component regardless
    of the eigenvalues.
    """
    (rho_S, psi_A), _ = _read_states(rho_S, psi_A)
    return _transfer(rho_S, psi_A, np.pi / 4, ID2)


def fic_reach(rho_S: np.ndarray, psi_A: np.ndarray,
              target: np.ndarray) -> np.ndarray:
    """4x4 unitary U with Tr_A(U (rho_S (x) psi_A) U^dag) = target.

    A member of the SWAP-to-mixing family of fic_mix, in closed form: with
    lambda the largest eigenvalue of the target and t its eigenvectors,
    phi = arccos sqrt(lambda) puts weight lambda on t_1 and 1 - lambda on
    t_0.  lambda runs from 1 (phi = 0, SWAP) to 1/2 (phi = pi/4, fic_mix).
    """
    (rho_S, psi_A, target), _ = _read_states(rho_S, psi_A, target)
    w_t, t = np.linalg.eigh(target)
    phi = np.arccos(np.sqrt(np.clip(w_t[-1], 0.5, 1.0)))
    return _transfer(rho_S, psi_A, phi, t)
