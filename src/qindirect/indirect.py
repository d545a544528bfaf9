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
  right trace, by interpolating between SWAP and an entangling unitary
  that maximally mixes the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .qalg import (ID2, SIGMA_X, SIGMA_Z, check_density, dagger, frob,
                   mat_exp, partial_trace, tensor, z_rotation)
from .lieclosure import LieBasis, invariant_space, trace_A_image


@dataclass(frozen=True)
class GennegatVerdict:
    v_dim: int
    trace_image_dim: int
    uic_excluded: bool


def gennegat_test(L: LieBasis, rho_S: np.ndarray, rho_A: np.ndarray,
                  tol: float | None = None) -> GennegatVerdict:
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


def _check_su2(X: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if frob(X @ dagger(X) - ID2) > tol:
        raise ValueError("matrix is not unitary")
    if abs(np.linalg.det(X) - 1.0) > tol:
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
    mid = mat_exp(-2.0 * theta * 1j * tensor(SIGMA_X, SIGMA_Z),
                  skew_hermitian=True)
    return (tensor(z_rotation(t2), ID2) @ mid @ tensor(z_rotation(t1), ID2))


# ---------------------------------------------------------------------------
# free-interaction state transfer (full su(4))


def swap_op() -> np.ndarray:
    """The 4x4 permutation exchanging the two tensor factors."""
    return np.array([[1, 0, 0, 0],
                     [0, 0, 1, 0],
                     [0, 1, 0, 0],
                     [0, 0, 0, 1]], dtype=complex)


def _pure_state_vector(psi: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    check_density(psi)
    w, u = np.linalg.eigh(psi)
    if 1.0 - w[-1] > tol:
        raise ValueError("accessor state must be pure")
    return u[:, -1]


# columns: (|00>+|11>)/sqrt2, (|01>-|10>)/sqrt2, (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2
_BELL = np.array([[1, 0, 1, 0],
                  [0, 1, 0, 1],
                  [0, -1, 0, 1],
                  [1, 0, -1, 0]], dtype=complex) / np.sqrt(2)


def fic_mix(rho_S: np.ndarray, psi_A: np.ndarray) -> np.ndarray:
    """Unitary sending rho_S (x) psi_A to a state with maximally mixed target.

    The eigenvectors of rho_S paired with the pure accessor vector form an
    orthonormal pair of product vectors; mapping them to two orthonormal
    maximally entangled vectors (and the complementary pair to the other
    two Bell-type vectors, for unitarity) kills every target Bloch
    component regardless of the eigenvalues.
    """
    rho_S = np.asarray(rho_S, dtype=complex)
    check_density(rho_S)
    v_a = _pure_state_vector(psi_A)
    w, u = np.linalg.eigh(rho_S)
    order = np.argsort(w)[::-1]
    e1, e2 = u[:, order[0]], u[:, order[1]]
    perp = np.array([-np.conj(v_a[1]), np.conj(v_a[0])])
    source = np.column_stack([np.kron(e1, v_a), np.kron(e2, v_a),
                              np.kron(e1, perp), np.kron(e2, perp)])
    return _BELL @ dagger(source)


def _unitary_phases(U: np.ndarray) -> tuple:
    # unitary matrices are normal, so the complex Schur form is diagonal
    T, Q = scipy.linalg.schur(U, output="complex")
    return np.angle(np.diag(T)), Q


def fic_reach(rho_S: np.ndarray, psi_A: np.ndarray,
              target: np.ndarray) -> np.ndarray:
    """4x4 unitary U with Tr_A(U (rho_S (x) psi_A) U^dag) = target.

    Interpolates along U(theta) = exp(theta log(U_ent SWAP^dag)) SWAP
    between SWAP (theta = 0, pure output) and the entangling unitary of
    fic_mix (theta = 1, maximally mixed output).  The largest output
    eigenvalue moves continuously from 1 to 1/2, so bisection brackets any
    target spectrum; a final S-side rotation aligns the eigenbasis.
    """
    rho_S = np.asarray(rho_S, dtype=complex)
    target = np.asarray(target, dtype=complex)
    check_density(rho_S)
    check_density(target)
    v_a = _pure_state_vector(psi_A)
    psi = np.outer(v_a, v_a.conj())
    state = tensor(rho_S, psi)

    u_swap = swap_op()
    u_ent = fic_mix(rho_S, psi)
    phases, q = _unitary_phases(u_ent @ dagger(u_swap))

    def u_of(theta: float) -> np.ndarray:
        return (q * np.exp(1j * theta * phases)) @ dagger(q) @ u_swap

    def lam_max(theta: float) -> tuple:
        out = partial_trace(u_of(theta) @ state @ dagger(u_of(theta)), keep="S")
        return float(np.linalg.eigvalsh(out)[-1]), out

    w_t = np.linalg.eigvalsh(target)
    lam_target = float(w_t[-1])

    lo, hi = 0.0, 1.0  # lam(lo) = 1 >= lam_target >= 1/2 = lam(hi)
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        lam, _ = lam_max(theta)
        if abs(lam - lam_target) <= 1e-11:
            break
        if lam > lam_target:
            lo = theta
        else:
            hi = theta

    u_theta = u_of(theta)
    out = partial_trace(u_theta @ state @ dagger(u_theta), keep="S")
    w_o, v_o = np.linalg.eigh(out)
    w_tt, v_t = np.linalg.eigh(target)
    align = v_t @ dagger(v_o)  # both ascending order
    return tensor(align, ID2) @ u_theta
