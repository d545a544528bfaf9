"""Indirect-controllability verdicts and steering constructions.

Three layers, all for the target-plus-accessor pair:

* an invariant-space obstruction: propagating i rho_S (x) rho_A through the
  dynamical Lie algebra and tracing out the accessor bounds what any
  unitary in e^L can do to the target (a necessary test only);
* the pure-accessor steering construction realizing an arbitrary SU(2)
  conjugation of the target using the 10-dim algebra of the D != 0,
  F = 0 case: the block unitary X (x) |0><0| + Z X Z (x) |1><1|, in e^L
  through the Euler form of X;
* free-interaction state transfer: with full controllability, the target
  can be driven from any initial pair to any density matrix with the
  right trace, along a closed-form one-angle family of unitaries running
  from SWAP to one that maximally mixes the target.  These two return
  group elements, so they work on 2x2 and 4x4 matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qalg import (ID2, PAULI_X_TILDE, PAULI_Z_TILDE, TOL_RANK,
                   check_density, dagger, frob, state_coords, tensor)
# Unused here; qbench/selftest.py checks that its tracer rebinds
# indirect.partial_trace, so the name stays bound in this module.
from .qalg import partial_trace  # noqa: F401
from .lieclosure import invariant_space, trace_A_image


def _read_states(*rhos) -> tuple:
    """(the 2x2 states stacked (n, 2, 2) complex, their r = Tr(P rho)
    stacked (n, 4)), checked by one ``state_coords`` read."""
    rhos = [np.asarray(rho, dtype=complex) for rho in rhos]
    for rho in rhos:
        if rho.shape != (2, 2):
            raise ValueError(f"expected 2x2 density matrices, got shape "
                             f"{rho.shape}")
    stack = np.stack(rhos)
    return stack, state_coords(stack)


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
    # ||X||_F^2 is 2 for a unitary; vdot gives inf or nan with no warning and
    # nan fails every test below, so no product overflows or passes on nan
    if not np.vdot(X, X).real <= 4.0:
        raise ValueError("matrix has non-finite or huge entries")
    if not frob(X @ dagger(X) - ID2) <= 1e-9:
        raise ValueError("matrix is not unitary")
    if not abs(X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0] - 1.0) <= 1e-9:  # det X
        raise ValueError("matrix does not have determinant 1")
    return X


E1 = np.diag([1.0, 0.0]).astype(complex)


def pure_uic_steer(rho_S: np.ndarray, X: np.ndarray) -> np.ndarray:
    """4x4 unitary T with Tr_A(T (rho_S (x) E1) T^dag) = X rho_S X^dag.

    Requires the accessor prepared in E1 = diag(1, 0); an arbitrary pure
    accessor state is first rotated there by a local accessor unitary.
    T = X (x) |0><0| + Z X Z (x) |1><1| with Z the Hermitian Pauli, i.e. X
    on the accessor ground block and X with its off-diagonal entries negated
    on the other.  T does not depend on rho_S, which is checked only so that
    the contract's input is a state.

    T lies in e^L for the 10-dim algebra L = span{sigma_z (x) 1,
    1 (x) su(2), i sigma_{x,y} (x) su(2)} of the D != 0, F = 0 case: with
    X = e^{t2 sigma_z} e^{theta sigma_x} e^{t1 sigma_z} its Euler form,
    T = (e^{t2 sigma_z} (x) 1) exp(-2 theta i sigma_x (x) sigma_z)
    (e^{t1 sigma_z} (x) 1), because the middle factor is e^{theta sigma_x}
    on accessor |0> and e^{-theta sigma_x} = Z e^{theta sigma_x} Z on |1>,
    and Z commutes with the outer z-rotations.
    """
    if np.shape(rho_S) != (2, 2):  # check_density also reads stacks
        raise ValueError(f"expected a 2x2 state, got shape {np.shape(rho_S)}")
    check_density(rho_S)
    X = _check_su2(X)
    T = np.zeros((2, 2, 2, 2), dtype=complex)  # (s, a, s', a')
    T[:, 0, :, 0] = X
    T[:, 1, :, 1] = X * [[1, -1], [-1, 1]]
    return T.reshape(4, 4)


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


def fic_mix(rho_S: np.ndarray, psi_A: np.ndarray) -> np.ndarray:
    """Unitary sending rho_S (x) psi_A to a state with maximally mixed target:
    ``fic_reach`` to the target 1/2, the phi = pi/4 member of its family.

    Each eigenvector of rho_S paired with the pure accessor vector goes to a
    maximally entangled vector, which kills every target Bloch component
    regardless of the eigenvalues.
    """
    return fic_reach(rho_S, psi_A, ID2 / 2)


def fic_reach(rho_S: np.ndarray, psi_A: np.ndarray,
              target: np.ndarray) -> np.ndarray:
    """4x4 unitary U with Tr_A(U (rho_S (x) psi_A) U^dag) = target.

    A member of the one-angle family U(phi) = (t (x) 1) M(phi)
    (W^dag (x) E^dag) SWAP, in closed form.  M(phi) = cos(phi) X (x) 1 +
    sin(phi) Z (x) X with X, Z the Hermitian Paulis (real, symmetric and
    squaring to 1, hence orthogonal).  E holds the eigenvectors e_k of
    rho_S, W = (v, v_perp) the pure accessor vector and its complement, and
    t the eigenvectors (t_0, t_1) of the target, all from one ``eigh`` of
    the three stacked states; W is psi_A's eigenvector columns in reverse
    order.  The phase of v_perp changes U only on span{e_k (x) v_perp},
    which a pure accessor never occupies.  With a_k the accessor basis,

        e_k (x) v      ->  cos(phi) t_1 (x) a_k + sin(phi) t_0 (x) a_{1-k},
        e_k (x) v_perp ->  cos(phi) t_0 (x) a_k - sin(phi) t_1 (x) a_{1-k}.

    The images of the two e_k (x) v put orthogonal accessor vectors next to
    each t_j, so the target ends in cos^2(phi) |t_1><t_1| +
    sin^2(phi) |t_0><t_0| whatever the spectrum of rho_S.  With lambda the
    largest eigenvalue of the target, phi = arccos sqrt(lambda) runs from 0
    (lambda = 1, SWAP up to local unitaries) to pi/4 (lambda = 1/2, the
    maximally mixing ``fic_mix``).
    """
    lam, (e, u_a, t) = np.linalg.eigh(_read_states(rho_S, psi_A, target)[0])
    if 1.0 - lam[1, -1] > 1e-8:
        raise ValueError("accessor state must be pure")
    phi = np.arccos(np.sqrt(np.clip(lam[2, -1], 0.5, 1.0)))
    w = u_a[:, ::-1]  # (v, v_perp), v the eigenvector of eigenvalue 1
    mix = np.cos(phi) * _X_1 + np.sin(phi) * _Z_X
    return tensor(t, ID2) @ mix @ dagger(tensor(w, e)) @ _SWAP
