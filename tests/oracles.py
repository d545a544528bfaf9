"""Matrix oracles shared by the tests: the package works on Pauli
coordinates, and these write the same elements as matrices."""

import numpy as np

from qindirect.qalg import SIGMA_X, SIGMA_Y, SIGMA_Z

ID4 = np.eye(4, dtype=complex)


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


def euler_su2(X) -> tuple:
    """Angles (t2, t, t1) with X = e^{t2 sigma_z} e^{t sigma_x} e^{t1 sigma_z}
    for X in SU(2); the oracle of the Euler form in ``pure_uic_steer``.

    The product has entries [[cos(t/2) e^{i(t2+t1)/2}, i sin(t/2) e^{i(t2-t1)/2}],
    [i sin(t/2) e^{-i(t2-t1)/2}, cos(t/2) e^{-i(t2+t1)/2}]]; the angles are read
    off the polar forms of the first row.  At the gimbal points (t = 0 or pi)
    only the sum or difference of t2, t1 matters and the free one is set to 0.
    """
    a, b = np.asarray(X, dtype=complex)[0]
    t = 2.0 * np.arctan2(abs(b), abs(a))
    phi_sum = np.angle(a) if a != 0 else 0.0
    phi_diff = np.angle(b) - np.pi / 2 if b != 0 else 0.0
    return (phi_sum + phi_diff, t, phi_sum - phi_diff)
