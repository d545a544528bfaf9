"""Real Lie algebra machinery in Pauli coordinates.

Elements of u(d), d = 2 or 4, are real coordinates in the orthonormal basis
E_ab = (i/sqrt d) P_a (x) P_b of :mod:`qindirect.qalg`, so Re Tr(A^dag B) is
a dot product and tolerances keep their matrix meaning.  Brackets come from
the structure tensor ``qalg.STRUCTURE``, F[j, k, l] = <E_l, [E_j, E_k]>.

One routine finds the smallest subspace that contains some seeds and is
invariant under ad_x for x in a set of operators, with one SVD rank decision
per sweep over the newly found vectors.  ``closure(G)`` uses G as both seeds
and operators: by the Jacobi identity the right-nested brackets of the
generators span the algebra they generate.  Matrices are checked and
converted to coordinates once, at the boundary (``qalg.skew_coords``);
``invariant_space`` takes its seed already in coordinates.
"""

from __future__ import annotations

import numpy as np

from . import qalg
from .qalg import STRUCTURE, TOL_RANK, check_skew_coords, skew_coords

# n -> read-only n x n identity, the first frame of every span search
_EYE = {n: np.eye(n) for n in (4, 16)}
for _eye in _EYE.values():
    _eye.setflags(write=False)


class LieBasis:
    """Orthonormal real subspace, stored as (n, dim^2) Pauli coordinates."""

    def __init__(self, dim: int, coords: np.ndarray):
        self.dim = dim
        self.coords = coords

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def mats(self) -> np.ndarray:
        return qalg.from_pauli_coords(self.coords, self.dim)

    def __iter__(self):
        return iter(self.mats)


def _residual(basis: np.ndarray, W: np.ndarray) -> np.ndarray:
    for _ in range(2):  # project twice for numerical stability
        W = W - (W @ basis.T) @ basis
    return W


def _unit_rows(c: np.ndarray) -> np.ndarray:
    """Rows of c scaled to unit norm; a zero row stays zero and adds no
    direction to any span."""
    n = np.sqrt((c * c).sum(axis=1, keepdims=True))
    return c / np.where(n > 0.0, n, 1.0)


def _unit_coords(mats, require_traceless: bool, tol: float) -> tuple:
    """(d, checked coordinates of the matrices scaled to unit norm)."""
    mats = list(mats)
    if not mats:
        return 2, np.zeros((0, 4))
    return (np.shape(mats[0])[-1],
            _unit_rows(skew_coords(mats, require_traceless, tol)))


def _split(W: np.ndarray, frame: np.ndarray, tol: float, room: int) -> tuple:
    """Split span(frame) into the directions of W with singular value > tol
    (at most ``room``) and the rest.  ``frame`` is an orthonormal basis of the
    complement of the span found so far, so W @ frame.T projects that out.
    """
    Wc = W @ frame.T
    w = Wc.ravel()
    if room <= 0 or w @ w <= tol * tol:  # ||Wc|| bounds every singular value
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
    new, frame = _split(seeds, _EYE[n], tol, cap)
    found = [new]
    while len(new) and n - len(frame) < cap:  # n - len(frame) = dim found so far
        new, frame = _split((new @ ad).reshape(-1, n), frame, tol, cap - n + len(frame))
        found.append(new)
    return LieBasis(dim, np.concatenate(found))


def orthonormalize(mats, tol: float = TOL_RANK) -> LieBasis:
    """Orthonormal basis of span(mats); near-dependent inputs are dropped.

    The inputs must be traceless.  They are scaled to unit norm first; no
    inputs give the empty basis of 2x2 matrices.
    """
    d, c = _unit_coords(mats, require_traceless=True, tol=tol)
    return LieBasis(d, _split(c, _EYE[d * d], tol, d * d)[0])


def contains(basis: LieBasis, M, tol: float = TOL_RANK) -> bool:
    """True iff M lies in span(basis) with relative residual below tol."""
    c = qalg.pauli_coords(M)
    n = np.linalg.norm(c)
    if n == 0.0:
        return True
    # the imaginary (Hermitian) part of c is never in a real skew span
    res = np.hypot(np.linalg.norm(_residual(basis.coords, c.real)),
                   np.linalg.norm(c.imag))
    return res <= tol * n


def closure(generators, tol: float = TOL_RANK) -> LieBasis:
    """Smallest bracket-closed real subspace containing the generators.

    Stops when a sweep adds nothing or the dimension reaches dim^2 - 1
    (the whole of su(d)).
    """
    d, G = _unit_coords(generators, require_traceless=True, tol=tol)
    return _ad_invariant(G, G, d, tol, d * d - 1)


def invariant_space(L: LieBasis, c, tol: float = TOL_RANK) -> LieBasis:
    """Smallest subspace containing the seed and invariant under ad of L.

    The seed is given by its complex Pauli coordinates c = Tr(E_j^dag seed),
    shape (dim^2,); a matrix seed goes through ``qalg.pauli_coords``.  It may
    carry a trace (it is typically i times a density matrix), so only
    skew-Hermiticity is required of it (``qalg.check_skew_coords``).
    """
    c = check_skew_coords(c, require_traceless=False, tol=tol)
    if c.shape != (L.dim ** 2,):
        raise ValueError(f"seed coordinates of shape {c.shape} do not fit "
                         f"{L.dim}x{L.dim} matrices")
    return _ad_invariant(_unit_rows(c[None]), L.coords, L.dim, tol, L.dim ** 2)


def trace_A_image(V: LieBasis, tol: float = TOL_RANK) -> LieBasis:
    """Orthonormal basis of the image of V under the partial trace over A.

    Tr_A E_a0 = sqrt(2) E_a of one qubit and Tr_A E_ab = 0 for b != 0, so
    the image is a selection of coordinates.
    """
    if V.dim != 4:
        raise ValueError("trace_A_image expects a basis of 4x4 matrices")
    img = np.sqrt(2.0) * V.coords[:, 0::4]
    return LieBasis(2, _split(img, _EYE[4], tol, 4)[0])


def span_equals(a: LieBasis, b: LieBasis, tol: float = TOL_RANK) -> bool:
    """Mutual containment of two bases."""
    if a.dim != b.dim or len(a) != len(b):
        return False
    res = [_residual(y.coords, x.coords) for x, y in ((a, b), (b, a))]
    return all(np.linalg.norm(r, axis=1).max(initial=0.0) <= tol for r in res)
