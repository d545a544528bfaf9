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
  identity component is coordinate 0.
"""

from __future__ import annotations

import numpy as np

# Global default tolerances: TOL_EQ for equality of matrices / identities,
# TOL_RANK for rank and nonzero decisions.  Functions take overrides.
TOL_EQ = 1e-12
TOL_RANK = 1e-9

PAULI_X_TILDE = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y_TILDE = np.array([[0, 1j], [-1j, 0]], dtype=complex)
PAULI_Z_TILDE = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

SIGMA_X = 0.5j * PAULI_X_TILDE
SIGMA_Y = 0.5j * PAULI_Y_TILDE
SIGMA_Z = 0.5j * PAULI_Z_TILDE

_TILDE = {"x": PAULI_X_TILDE, "y": PAULI_Y_TILDE, "z": PAULI_Z_TILDE}
_SIGMA = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


_STRINGS_1 = np.array([ID2, PAULI_X_TILDE, PAULI_Y_TILDE, PAULI_Z_TILDE])
# d -> (d^2, d, d) stack of the orthonormal basis E_j
PAULI_BASIS = {
    2: (1j / np.sqrt(2.0)) * _STRINGS_1,
    4: 0.5j * np.einsum("aij,bkl->abikjl", _STRINGS_1, _STRINGS_1).reshape(16, 4, 4),
}
_FLAT_BASIS = {d: E.reshape(d * d, d * d) for d, E in PAULI_BASIS.items()}
_DUAL_BASIS = {d: E.conj().T for d, E in _FLAT_BASIS.items()}


def _check_pauli_dim(d: int) -> None:
    if d not in PAULI_BASIS:
        raise ValueError(f"Pauli coordinates need 2x2 or 4x4 matrices, got d={d}")


def pauli_coords(mats) -> np.ndarray:
    """Complex coordinates Tr(E_j^dag M) of (..., d, d) matrices, shape (..., d^2)."""
    mats = np.asarray(mats, dtype=complex)
    if mats.ndim < 2 or mats.shape[-2] != mats.shape[-1]:
        raise ValueError(f"expected square matrices, got shape {mats.shape}")
    d = mats.shape[-1]
    _check_pauli_dim(d)
    return mats.reshape(mats.shape[:-2] + (d * d,)) @ _DUAL_BASIS[d]


def from_pauli_coords(coords, d: int) -> np.ndarray:
    """Inverse of ``pauli_coords``: (..., d^2) coordinates to (..., d, d) matrices."""
    coords = np.asarray(coords)
    _check_pauli_dim(d)
    return (coords @ _FLAT_BASIS[d]).reshape(coords.shape[:-1] + (d, d))


def pauli(axis: str, tilde: bool = False) -> np.ndarray:
    """Return sigma_axis, or the Hermitian tilde_axis when ``tilde`` is set."""
    if axis not in _TILDE:
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    return (_TILDE if tilde else _SIGMA)[axis].copy()


def sigma_from_vec(a) -> np.ndarray:
    """Return sigma_a = a_x sigma_x + a_y sigma_y + a_z sigma_z."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError("expected a real 3-vector")
    return a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z


def tensor(A, B) -> np.ndarray:
    """Kronecker product with the S factor first."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def _check_same_dim(A, B):
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A, B


def commutator(A, B) -> np.ndarray:
    A, B = _check_same_dim(A, B)
    return A @ B - B @ A


def anticommutator(A, B) -> np.ndarray:
    A, B = _check_same_dim(A, B)
    return A @ B + B @ A


def dagger(A) -> np.ndarray:
    return np.asarray(A, dtype=complex).conj().T


def frob(A) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(A)))


def partial_trace(rho, keep: str = "S") -> np.ndarray:
    """Trace out one qubit of a 4x4 operator in S (x) A ordering.

    Args:
        rho: 4x4 complex matrix.
        keep: "S" traces out the accessor, "A" traces out the target.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "S":
        return np.trace(r, axis1=1, axis2=3)
    if keep == "A":
        return np.trace(r, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'S' or 'A', got {keep!r}")


def is_skew_hermitian(A, tol: float | None = None) -> bool:
    A = np.asarray(A, dtype=complex)
    tol = TOL_RANK if tol is None else tol
    return frob(A + dagger(A)) <= tol * max(1.0, frob(A))


def _exp_series(A: np.ndarray) -> np.ndarray:
    # Scaling and squaring with a 30-term Taylor series; after scaling the
    # norm is <= 0.5 so the truncation error is far below double precision.
    nrm = np.linalg.norm(A, 2)
    squarings = max(0, int(np.ceil(np.log2(max(nrm, 1e-300) / 0.5))))
    B = A / (2.0 ** squarings)
    term = np.eye(A.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 31):
        term = term @ B / k
        out += term
    for _ in range(squarings):
        out = out @ out
    return out


def mat_exp(A, skew_hermitian: bool = False) -> np.ndarray:
    """Matrix exponential.

    With ``skew_hermitian`` set the input is checked and the exponential is
    computed from the eigendecomposition of the Hermitian matrix iA, which
    yields an exactly unitary result up to eigensolver accuracy.  Otherwise
    a scaling-and-squaring power series is used.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("mat_exp expects a square matrix")
    if not skew_hermitian:
        return _exp_series(A)
    if not is_skew_hermitian(A):
        raise ValueError("matrix is not skew-Hermitian to tolerance")
    w, u = np.linalg.eigh(1j * A)  # A = -i H with H Hermitian
    return (u * np.exp(-1j * w)) @ u.conj().T


def z_rotation(angle: float) -> np.ndarray:
    """exp(angle * sigma_z) = diag(e^{i angle/2}, e^{-i angle/2})."""
    return np.diag([np.exp(0.5j * angle), np.exp(-0.5j * angle)])


def _rotation_about(axis, angle: float) -> np.ndarray:
    """Real 3x3 rotation by ``angle`` about ``axis`` (Rodrigues formula)."""
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    kx = np.array([[0.0, -k[2], k[1]],
                   [k[2], 0.0, -k[0]],
                   [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)


def _rotation_between(u, v) -> np.ndarray:
    """Rotation mapping unit vector u onto unit vector v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = float(np.dot(u, v))
    w = np.cross(u, v)
    s = np.linalg.norm(w)
    if s < 1e-15:
        if c > 0:
            return np.eye(3)
        # antiparallel: rotate by pi about any axis perpendicular to u
        ref = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        perp = np.cross(u, ref)
        return _rotation_about(perp, np.pi)
    return _rotation_about(w / s, np.arctan2(s, c))


def check_density(rho, tol: float | None = None) -> np.ndarray:
    """Validate a density matrix (Hermitian, unit trace, psd to -1e-10)."""
    rho = np.asarray(rho, dtype=complex)
    tol = TOL_RANK if tol is None else tol
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if frob(rho - dagger(rho)) > tol:
        raise ValueError("density matrix is not Hermitian to tolerance")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix has a negative eigenvalue")
    return rho


def bloch(rho) -> np.ndarray:
    """Bloch coordinates (x, y, z) of a one-qubit density matrix."""
    rho = check_density(rho)
    if rho.shape != (2, 2):
        raise ValueError("bloch expects a 2x2 density matrix")
    return np.array([np.trace(t @ rho).real for t in (PAULI_X_TILDE, PAULI_Y_TILDE, PAULI_Z_TILDE)])


def bloch_inverse(p) -> np.ndarray:
    """Density matrix (1/2)(1 + p . tilde_sigma) for |p| <= 1."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise ValueError("expected a real 3-vector")
    if np.linalg.norm(p) > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector has norm {np.linalg.norm(p)} > 1")
    return 0.5 * (ID2 + p[0] * PAULI_X_TILDE + p[1] * PAULI_Y_TILDE + p[2] * PAULI_Z_TILDE)
