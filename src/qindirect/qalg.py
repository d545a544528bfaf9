"""Dense complex operator algebra for one and two qubits.

Conventions used throughout the package:

* ``tilde`` Pauli matrices are the Hermitian ones, with
  ``pauli_y_tilde = [[0, i], [-i, 0]]`` (sign flipped relative to the
  textbook convention; this makes the skew family below right-handed).
* The working (skew-Hermitian) family is ``sigma_j = (i/2) * tilde_j``,
  so that [sigma_x, sigma_y] = sigma_z cyclically and
  {sigma_j, sigma_k} = -(1/2) delta_jk * 1.
* Two-qubit operators order the factors as target (x) accessor,
  i.e. S first, A second.
* Bloch coordinates refer to rho = (1/2)(1 + x*tilde_x + y*tilde_y + z*tilde_z).
* Pauli coordinates of a d x d matrix (d = 2 or 4) refer to the basis
  E_ab = (i/sqrt d) P_a (x) P_b with P in (1, tilde_x, tilde_y, tilde_z),
  index 4a + b (one factor for d = 2).  The basis is orthonormal under
  Re Tr(A^dag B); skew-Hermitian matrices have real coordinates and the
  identity component is coordinate 0.  Inside the package an element of
  u(d) is its (d^2,) row of real coordinates, a set of them a (k, d^2)
  array; matrices are group elements and states.
* The skew family in that basis (d = 4, index 0 for the identity factor):
  sigma_s (x) 1 = E_s0, 1 (x) sigma_a = E_0a and
  i sigma_s (x) sigma_a = -E_sa / 2 for s, a in x, y, z.  ``E_AB[a, b]``
  is the coordinate row of E_ab, from which ``model`` and ``classify``
  write their su(4) elements.
* ``STRUCTURE`` holds the brackets F[j, k, l] = <E_l, [E_j, E_k]> of the
  basis and ``bracket`` applies it to coordinates; ``check_skew_coords``
  decides which coordinates lie in u(d) and returns them at unit norm.
* Everything the package exponentiates is skew-Hermitian (a generator of a
  unitary), so ``mat_exp`` accepts only matrices whose coordinates pass
  ``check_skew_coords`` and uses a Hermitian eigendecomposition.  TOL_RANK
  is the one global default tolerance.
"""

from __future__ import annotations

import math

import numpy as np

# Global default tolerance for rank and nonzero decisions.  The rank
# decisions take overrides; the density check and ``mat_exp`` do not.
TOL_RANK = 1e-9
# How far below 0 the smallest eigenvalue of a one-qubit state may lie: the
# Bloch ball is |p| <= 1 + 2 TOL_EIG, for ``state_bloch`` and ``bloch_inverse``.
TOL_EIG = 1e-10

PAULI_X_TILDE = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y_TILDE = np.array([[0, 1j], [-1j, 0]], dtype=complex)
PAULI_Z_TILDE = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

SIGMA_X = 0.5j * PAULI_X_TILDE
SIGMA_Y = 0.5j * PAULI_Y_TILDE
SIGMA_Z = 0.5j * PAULI_Z_TILDE


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only: the basis tables are shared by every caller.

    A view made before its base is frozen stays writable, so each table is
    frozen on its own.
    """
    a.setflags(write=False)
    return a


_STRINGS_1 = np.array([ID2, PAULI_X_TILDE, PAULI_Y_TILDE, PAULI_Z_TILDE])
# d -> (d^2, d, d) stack of the orthonormal basis E_j
PAULI_BASIS = {
    2: _frozen((1j / np.sqrt(2.0)) * _STRINGS_1),
    4: _frozen(0.5j * np.einsum("aij,bkl->abikjl", _STRINGS_1,
                                _STRINGS_1).reshape(16, 4, 4)),
}
_FLAT_BASIS = {d: _frozen(E.reshape(d * d, d * d)) for d, E in PAULI_BASIS.items()}
_DUAL_BASIS = {d: _frozen(E.conj().T) for d, E in _FLAT_BASIS.items()}
_DIM_OF_WIDTH = {(d * d,): d for d in PAULI_BASIS}  # shape[-1:] -> d
# (4, 4, 16): E_AB[a, b] is the coordinate row of E_ab, a unit vector
E_AB = _frozen(np.eye(16).reshape(4, 4, 16))


def coords_dim(c) -> int:
    """d of (..., d^2) Pauli coordinates; ValueError for d not in PAULI_BASIS."""
    d = _DIM_OF_WIDTH.get(np.shape(c)[-1:])
    if d is None:
        widths = " or ".join(str(w) for (w,) in _DIM_OF_WIDTH)
        raise ValueError(f"Pauli coordinates need width {widths}, got shape "
                         f"{np.shape(c)}")
    return d


def pauli_coords(mats) -> np.ndarray:
    """Complex coordinates Tr(E_j^dag M) of (..., d, d) matrices, shape (..., d^2)."""
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim < 2 or mats.shape[-2] != mats.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {mats.shape}")
    flat = mats.reshape(mats.shape[:-2] + (mats.shape[-1] ** 2,))
    return flat @ _DUAL_BASIS[coords_dim(flat)]


def from_pauli_coords(coords) -> np.ndarray:
    """Inverse of ``pauli_coords``: (..., d^2) coordinates to (..., d, d) matrices."""
    coords = np.asarray(coords)
    d = coords_dim(coords)
    return (coords @ _FLAT_BASIS[d]).reshape(coords.shape[:-1] + (d, d))


def check_skew_coords(c, require_traceless: bool, tol: float) -> np.ndarray:
    """Re c at unit norm per row (a zero row stays zero) for complex Pauli
    coordinates c (..., d^2) of matrices M in u(d).

    Raises ValueError unless the width passes ``coords_dim``, the sum of
    ||M||^2 over all M is finite, and ||M + M^dag|| = 2 ||Im c|| and, if
    required, |Tr M| = sqrt(d) |c_0| are at most tol * max(1, ||M||) for
    every M.  The norms are ``np.hypot`` reductions, which never underflow.
    """
    c = np.asarray(c)
    d = coords_dim(c)
    # vdot gives inf past the float range with no warning
    if not math.isfinite(np.vdot(c, c).real):
        raise ValueError("input matrix has a non-finite squared norm")
    norm = np.hypot.reduce(c.real, axis=-1, keepdims=True)  # ||Re c||
    skew = np.iscomplexobj(c)
    im = np.hypot.reduce(c.imag, axis=-1, keepdims=True) if skew else 0.0
    bound = tol * np.maximum(1.0, np.hypot(norm, im) if skew else norm)
    if skew and (2.0 * im > bound).any():
        raise ValueError("input matrix is not skew-Hermitian")
    if require_traceless and (math.sqrt(d) * abs(c[..., :1]) > bound).any():
        raise ValueError("input matrix is not traceless")
    return c.real / np.where(norm > 0.0, norm, 1.0)


def _structure(E: np.ndarray) -> np.ndarray:
    prod = E[:, None] @ E[None, :]  # E_j E_k
    return _frozen(pauli_coords(prod - prod.transpose(1, 0, 2, 3)).real)


# d -> (d^2, d^2, d^2) structure tensor F[j, k, l] = <E_l, [E_j, E_k]>
STRUCTURE = {d: _structure(E) for d, E in PAULI_BASIS.items()}


def bracket(x, y) -> np.ndarray:
    """Coordinates of [X, Y] from real coordinates (..., d^2) of X and Y."""
    return np.einsum("...j,...k,jkl->...l", x, y, STRUCTURE[coords_dim(x)])


def tensor(A, B) -> np.ndarray:
    """Kronecker product of two matrices with the S factor first.

    A broadcast product: np.kron costs several times as much on 2x2 factors.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError(f"tensor expects two matrices, got shapes "
                         f"{A.shape} and {B.shape}")
    (p, q), (r, s) = A.shape, B.shape
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(p * r, q * s)


def dagger(A) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a (..., m, n) stack."""
    return np.asarray(A, dtype=complex).conj().swapaxes(-1, -2)


def frob(A) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(A)))


def partial_trace(rho) -> np.ndarray:
    """Tr_A of a 4x4 operator in S (x) A ordering, or of each matrix in a
    (..., 4, 4) stack: the accessor is traced out and S is kept."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial_trace expects 4x4 matrices, got {rho.shape}")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...iaja->...ij", r)


def mat_exp(A) -> np.ndarray:
    """Exponential of a skew-Hermitian 2x2 or 4x4 matrix.

    The input is checked by ``check_skew_coords`` and the exponential is
    computed from the eigendecomposition of the Hermitian matrix iA, which
    yields an exactly unitary result up to eigensolver accuracy.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError("mat_exp expects one matrix")
    check_skew_coords(pauli_coords(A), require_traceless=False, tol=TOL_RANK)
    w, u = np.linalg.eigh(1j * A)  # A = -i H with H Hermitian
    return (u * np.exp(-1j * w)) @ u.conj().T


def z_rotation(angle: float) -> np.ndarray:
    """exp(angle * sigma_z) = diag(e^{i angle/2}, e^{-i angle/2})."""
    return np.diag([np.exp(0.5j * angle), np.exp(-0.5j * angle)])


def frame(u, v) -> np.ndarray:
    """Proper 3x3 rotation whose rows are e1 along u, e2 along the part of v
    perpendicular to u, and e3 = e1 x e2, with u . e1 >= 0 and v . e2 >= 0.

    One complete Householder QR of the columns (u, v): it returns an
    orthonormal frame for zero or parallel inputs too, completing e1 and e2
    where u or v leaves them free.
    """
    q, r = np.linalg.qr(np.column_stack([u, v]), mode="complete")
    e1, e2 = (q[:, :2] * np.where(np.diag(r) < 0.0, -1.0, 1.0)).T
    return np.array([e1, e2, np.cross(e1, e2)])


def state_bloch(r) -> np.ndarray:
    """Bloch vectors Re r[1:] of one-qubit states from (..., 4) arrays of
    r = Tr(P rho), P in (1, tilde_x, tilde_y, tilde_z); one bad r rejects all.

    rho must be finite, Hermitian (sqrt(2) ||Im r|| = ||rho - rho^dag||_F)
    and of unit trace r_0 to TOL_RANK, with (Re r_0 - ||Re r[1:]||)/2 (the
    smallest eigenvalue of its Hermitian part) at least -TOL_EIG.
    """
    r = np.asarray(r)
    _check_bounded(r)
    if (np.iscomplexobj(r)
            and (2.0 * (r.imag ** 2).sum(axis=-1) > TOL_RANK ** 2).any()):
        raise ValueError("density matrix is not Hermitian to tolerance")
    if (abs(r[..., 0] - 1.0) > TOL_RANK).any():
        raise ValueError("density matrix trace differs from 1")
    re = r.real
    p = re[..., 1:]
    if (0.5 * (re[..., 0] - np.sqrt((p ** 2).sum(axis=-1))) < -TOL_EIG).any():
        raise ValueError("density matrix has a negative eigenvalue")
    return p


def _check_bounded(x) -> None:
    """ValueError unless sum |x|^2 <= 1e300 (nan fails): no state is near
    (sum |r|^2 = 2 Tr(rho^2) <= 2), no square in the state checks overflows
    below it, and vdot, unlike **, gives inf with no overflow warning."""
    v = x.ravel("K")  # a view in memory order, also of a transposed block
    if not np.vdot(v, v).real <= 1e300:
        raise ValueError("density matrix has non-finite or huge entries")


# Tr(P_a rho) = vec(rho) . vec(P_a^T) for each P_a: one product
_STATE_READ = _frozen(_STRINGS_1.transpose(0, 2, 1).reshape(4, 4).T)


def _read_state(rho):
    """(rho, r = Tr(P rho), Bloch vectors) for a 2x2 matrix or a (..., 2, 2)
    stack, checked by ``state_bloch``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 density matrices, got shape {rho.shape}")
    _check_bounded(rho)  # so that the product cannot overflow
    r = rho.reshape(rho.shape[:-2] + (4,)) @ _STATE_READ
    return rho, r, state_bloch(r)


def check_density(rho) -> np.ndarray:
    """A 2x2 density matrix or (..., 2, 2) stack, checked by ``state_bloch``."""
    return _read_state(rho)[0]


def state_coords(rho) -> np.ndarray:
    """Complex r = Tr(P rho) (..., 4) of a checked 2x2 density matrix or stack."""
    return _read_state(rho)[1]


def bloch(rho) -> np.ndarray:
    """Bloch vectors (..., 3) of a checked 2x2 density matrix or stack."""
    return _read_state(rho)[2]


def bloch_inverse(p) -> np.ndarray:
    """Density matrix (1/2)(1 + p . tilde_sigma) for a finite p with
    |p| <= 1, up to the eigenvalue bound TOL_EIG of ``state_bloch``."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError("expected a real 3-vector")
    norm = math.sqrt(np.vdot(p, p))  # inf past the float range, no warning
    if not 0.5 * (1.0 - norm) >= -TOL_EIG:  # a nan norm fails too
        raise ValueError(f"Bloch vector has norm {norm} > 1")
    return 0.5 * (ID2 + p[0] * PAULI_X_TILDE + p[1] * PAULI_Y_TILDE + p[2] * PAULI_Z_TILDE)
