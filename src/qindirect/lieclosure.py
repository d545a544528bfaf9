"""Real Lie algebra machinery in Pauli coordinates.

Elements of u(d), d = 2 or 4, are real coordinates in the orthonormal basis
E_ab = (i/sqrt d) P_a (x) P_b of :mod:`qindirect.qalg`, so Re Tr(A^dag B) is
a dot product and tolerances keep their matrix meaning.  Brackets come from
the structure tensor F[j, k, l] = <E_l, [E_j, E_k]>, computed at import.

One routine finds the smallest subspace that contains some seeds and is
invariant under ad_x for x in a set of operators, with one SVD rank decision
per sweep over the newly found vectors.  ``closure(G)`` uses G as both seeds
and operators: by the Jacobi identity the right-nested brackets of the
generators span the algebra they generate.  Matrices are converted to
coordinates once, at the boundary.
"""

from __future__ import annotations

import numpy as np

from . import qalg
from .qalg import TOL_RANK


def _structure(E: np.ndarray) -> np.ndarray:
    prod = E[:, None] @ E[None, :]  # E_j E_k
    return qalg.pauli_coords(prod - prod.transpose(1, 0, 2, 3)).real


STRUCTURE = {d: _structure(E) for d, E in qalg.PAULI_BASIS.items()}


class LieBasis:
    """Orthonormal real subspace, stored as (n, dim^2) Pauli coordinates."""

    def __init__(self, dim: int, coords: np.ndarray | None = None):
        self.dim = dim
        self.coords = np.zeros((0, dim * dim)) if coords is None else coords

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def mats(self) -> np.ndarray:
        return qalg.from_pauli_coords(self.coords, self.dim)

    def __iter__(self):
        return iter(self.mats)


def _coords(mats, require_traceless: bool, tol: float) -> np.ndarray:
    """Real coordinates of skew-Hermitian matrices, checked like the matrices.

    Skew-Hermitian: ||M + M^dag|| = 2 ||Im c||; trace: |Tr M| = sqrt(d) |c_0|;
    both are bounded by tol * max(1, ||M||).
    """
    c = qalg.pauli_coords(mats)
    im2 = (c.imag * c.imag).sum(axis=1)
    scale = tol * np.sqrt(np.maximum(1.0, (c.real * c.real).sum(axis=1) + im2))
    if (2.0 * np.sqrt(im2) > scale).any():
        raise ValueError("input matrix is not skew-Hermitian")
    if require_traceless and (np.sqrt(c.shape[1]) * np.abs(c[:, 0]) > scale).any():
        raise ValueError("input matrix is not traceless")
    return c.real


def _residual(basis: np.ndarray, W: np.ndarray) -> np.ndarray:
    for _ in range(2):  # project twice for numerical stability
        W = W - (W @ basis.T) @ basis
    return W


def _unit_coords(mats, require_traceless: bool, tol: float,
                 dim: int | None = None) -> tuple:
    """(d, checked coordinates of the nonzero matrices scaled to unit norm)."""
    mats = list(mats)
    if not mats:
        d = dim or 2
        return d, np.zeros((0, d * d))
    c = _coords(mats, require_traceless, tol)
    n = np.sqrt((c * c).sum(axis=1))
    return np.shape(mats[0])[-1], c[n > 0] / n[n > 0, None]


def _split(W: np.ndarray, frame: np.ndarray, tol: float, room: int) -> tuple:
    """Split span(frame) into the directions of W with singular value > tol
    (at most ``room``) and the rest.  ``frame`` is an orthonormal basis of the
    complement of the span found so far, so W @ frame.T projects that out.
    """
    Wc = W @ frame.T
    if room <= 0 or np.linalg.norm(Wc) <= tol:  # bounds every singular value
        return frame[:0], frame
    # vt must be square to span the rest of the frame; U is never needed
    _, s, vt = np.linalg.svd(Wc, full_matrices=Wc.shape[0] < Wc.shape[1])
    rotated = vt @ frame
    r = min(np.count_nonzero(s > tol), room)
    return rotated[:r], rotated[r:]


def _ad_invariant(seeds: np.ndarray, ops: np.ndarray, dim: int, tol: float,
                  cap: int) -> LieBasis:
    """Smallest subspace containing the unit rows ``seeds``, invariant under ad(ops)."""
    n = dim * dim
    ad = (ops @ STRUCTURE[dim].reshape(n, n * n)).reshape(-1, n, n)  # v @ ad[x] = [x, v]
    new, frame = _split(seeds, np.eye(n), tol, cap)
    found = [new]
    while len(new) and n - len(frame) < cap:  # n - len(frame) = dim found so far
        new, frame = _split((new @ ad).reshape(-1, n), frame, tol, cap - n + len(frame))
        found.append(new)
    return LieBasis(dim, np.concatenate(found))


def orthonormalize(mats, tol: float | None = None,
                   require_traceless: bool = True, dim: int | None = None) -> LieBasis:
    """Orthonormal basis of span(mats); near-dependent inputs are dropped.

    Inputs are scaled to unit norm first.  ``dim`` is only needed when the
    list is empty.
    """
    tol = TOL_RANK if tol is None else tol
    d, c = _unit_coords(mats, require_traceless, tol, dim)
    return LieBasis(d, _split(c, np.eye(d * d), tol, d * d)[0])


def contains(basis: LieBasis, M, tol: float | None = None) -> bool:
    """True iff M lies in span(basis) with relative residual below tol."""
    tol = TOL_RANK if tol is None else tol
    c = qalg.pauli_coords(M)
    n = np.linalg.norm(c)
    if n == 0.0:
        return True
    # the imaginary (Hermitian) part of c is never in a real skew span
    res = np.hypot(np.linalg.norm(_residual(basis.coords, c.real)),
                   np.linalg.norm(c.imag))
    return res <= tol * n


def closure(generators, tol: float | None = None) -> LieBasis:
    """Smallest bracket-closed real subspace containing the generators.

    Stops when a sweep adds nothing or the dimension reaches dim^2 - 1
    (the whole of su(d)).
    """
    tol = TOL_RANK if tol is None else tol
    d, G = _unit_coords(generators, require_traceless=True, tol=tol)
    return _ad_invariant(G, G, d, tol, d * d - 1)


def invariant_space(L: LieBasis, seed, tol: float | None = None) -> LieBasis:
    """Smallest subspace containing seed and invariant under ad of L.

    The seed may carry a trace (it is typically i times a density matrix),
    so only skew-Hermiticity is required of it.
    """
    tol = TOL_RANK if tol is None else tol
    _, c = _unit_coords([seed], require_traceless=False, tol=tol)
    return _ad_invariant(c, L.coords, L.dim, tol, L.dim ** 2)


def trace_A_image(V: LieBasis, tol: float | None = None) -> LieBasis:
    """Orthonormal basis of the image of V under the partial trace over A.

    Tr_A E_a0 = sqrt(2) E_a of one qubit and Tr_A E_ab = 0 for b != 0, so
    the image is a selection of coordinates.
    """
    tol = TOL_RANK if tol is None else tol
    if V.dim != 4:
        raise ValueError("trace_A_image expects a basis of 4x4 matrices")
    img = np.sqrt(2.0) * V.coords[:, 0::4]
    return LieBasis(2, _split(img, np.eye(4), tol, 4)[0])


def span_equals(a: LieBasis, b: LieBasis, tol: float | None = None) -> bool:
    """Mutual containment of two bases."""
    tol = TOL_RANK if tol is None else tol
    if a.dim != b.dim or len(a) != len(b):
        return False
    res = [_residual(y.coords, x.coords) for x, y in ((a, b), (b, a))]
    return all(np.linalg.norm(r, axis=1).max(initial=0.0) <= tol for r in res)
