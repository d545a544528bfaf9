"""Matrix oracles shared by the tests: the package works on Pauli
coordinates, and these write the same elements as matrices."""

import numpy as np

from qindirect.qalg import SIGMA_X, SIGMA_Y, SIGMA_Z


def sigma_from_vec(a) -> np.ndarray:
    """Return sigma_a = a_x sigma_x + a_y sigma_y + a_z sigma_z."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError("expected a real 3-vector")
    return a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z


def commutator(A, B) -> np.ndarray:
    """AB - BA of two square matrices; the oracle of ``qalg.bracket``."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B - B @ A
