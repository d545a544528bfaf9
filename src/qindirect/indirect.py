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
  from SWAP to one that maximally mixes the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qalg import (ID2, PAULI_X_TILDE, PAULI_Z_TILDE, SIGMA_X, SIGMA_Z,
                   TOL_RANK, check_density, dagger, frob, mat_exp, tensor,
                   z_rotation)
# Unused here; qbench/selftest.py checks that its tracer rebinds
# indirect.partial_trace, so the name stays bound in this module.
from .qalg import partial_trace  # noqa: F401
from .lieclosure import LieBasis, invariant_space, trace_A_image


@dataclass(frozen=True)
class GennegatVerdict:
    v_dim: int
    trace_image_dim: int
    uic_excluded: bool


def gennegat_test(L: LieBasis, rho_S: np.ndarray, rho_A: np.ndarray,
                  tol: float = TOL_RANK) -> GennegatVerdict:
    """Necessary test for steering the target from rho_S (x) rho_A.

    Builds the smallest ad(L)-invariant subspace V containing
    i rho_S (x) rho_A and measures the dimension of its image under the
    partial trace over the accessor.  If that image is not all of u(2),
    unitary steering to arbitrary targets is impossible from this pair.
    The converse does not hold: a full image proves nothing.
    """
    rho_S = np.asarray(rho_S, dtype=complex)
    rho_A = np.asarray(rho_A, dtype=complex)
    check_density(rho_S)
    check_density(rho_A)
    if frob(rho_S - ID2 / 2) <= 1e-9:
        raise ValueError("rho_S maximally mixed: the obstruction is vacuous")
    V = invariant_space(L, 1j * tensor(rho_S, rho_A), tol)
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
    if abs(np.linalg.det(X) - 1.0) > 1e-9:
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


def pure_uic_steer(rho_S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """4x4 unitary T with Tr_A(T (rho_S (x) E1) T^dag) = X rho_S X^dag.

    Requires the accessor prepared in E1 = diag(1, 0); an arbitrary pure
    accessor state is first rotated there by a local accessor unitary.
    Each factor of T exponentiates an element of the 10-dim algebra
    span{sigma_z (x) 1, 1 (x) su(2), i sigma_{x,y} (x) su(2)}: the outer
    factors are S-side z-rotations (times 1) and the middle factor is
    exp(t i sigma_x (x) sigma_z).  On the accessor ground block the middle
    factor conjugates the target by e^{-(t/2) sigma_x}, hence t = -2 theta
    realizes the Euler x-rotation by theta.
    """
    check_density(np.asarray(rho_S, dtype=complex))
    t2, theta, t1 = euler_su2(X)
    mid = mat_exp(-2.0 * theta * 1j * tensor(SIGMA_X, SIGMA_Z))
    return (tensor(z_rotation(t2), ID2) @ mid @ tensor(z_rotation(t1), ID2))


# ---------------------------------------------------------------------------
# free-interaction state transfer (full su(4))


def swap_op() -> np.ndarray:
    """The 4x4 permutation exchanging the two tensor factors."""
    return np.array([[1, 0, 0, 0],
                     [0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1]], dtype=complex)


def _pure_state_vector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    check_density(psi)
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
    up to local unitaries; phi = pi/4 mixes the target maximally.
    """
    rho_S = np.asarray(rho_S, dtype=complex)
    check_density(rho_S)
    v = _pure_state_vector(psi_A)
    w = np.column_stack([v, [-np.conj(v[1]), np.conj(v[0])]])
    e = np.linalg.eigh(rho_S)[1]
    mix = (np.cos(phi) * tensor(PAULI_X_TILDE, ID2)
           + np.sin(phi) * tensor(PAULI_Z_TILDE, PAULI_X_TILDE))
    return tensor(t, ID2) @ mix @ dagger(tensor(w, e)) @ swap_op()


def fic_mix(rho_S: np.ndarray, psi_A: np.ndarray) -> np.ndarray:
    """Unitary sending rho_S (x) psi_A to a state with maximally mixed target.

    The phi = pi/4 member of the transfer family: each eigenvector of
    rho_S paired with the pure accessor vector goes to a maximally
    entangled vector, which kills every target Bloch component regardless
    of the eigenvalues.
    """
    return _transfer(rho_S, psi_A, np.pi / 4, ID2)


def fic_reach(rho_S: np.ndarray, psi_A: np.ndarray,
              target: np.ndarray) -> np.ndarray:
    """4x4 unitary U with Tr_A(U (rho_S (x) psi_A) U^dag) = target.

    A member of the SWAP-to-mixing family of fic_mix, in closed form: with
    lambda the largest eigenvalue of the target and t its eigenvectors,
    phi = arccos sqrt(lambda) puts weight lambda on t_1 and 1 - lambda on
    t_0.  lambda runs from 1 (phi = 0, SWAP) to 1/2 (phi = pi/4, fic_mix).
    """
    target = np.asarray(target, dtype=complex)
    check_density(target)
    w_t, t = np.linalg.eigh(target)
    phi = np.arccos(np.sqrt(np.clip(w_t[-1], 0.5, 1.0)))
    return _transfer(rho_S, psi_A, phi, t)
