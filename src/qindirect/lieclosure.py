"""Real Lie algebra machinery in Pauli coordinates.

Elements of u(d), d = 2 or 4, are real coordinates in the orthonormal basis
E_ab = (i/sqrt d) P_a (x) P_b of :mod:`qindirect.qalg`, so Re Tr(A^dag B) is
a dot product and tolerances keep their matrix meaning.  Brackets come from
the structure tensor ``qalg.STRUCTURE``, F[j, k, l] = <E_l, [E_j, E_k]>.

Generators come in as a 2-D (k, d^2) array and every subspace goes out as
its orthonormal (n, d^2) basis, so ``len()`` is its dimension; no matrix is
built or read here.

One routine finds the smallest subspace that contains some seeds and is
invariant under ad_x for x in a set of operators, with one SVD rank decision
per sweep over the newly found vectors.  ``closure(G)`` uses G as both seeds
and operators: by the Jacobi identity the right-nested brackets of the
generators span the algebra they generate.
"""

from __future__ import annotations

import numpy as np

from .qalg import STRUCTURE, TOL_RANK, check_skew_coords, coords_dim

# n -> read-only n x n identity, the first frame of every span search
_EYE = {n: np.eye(n) for n in (4, 16)}
for _eye in _EYE.values():
    _eye.setflags(write=False)


def _residual(basis: np.ndarray, W: np.ndarray) -> np.ndarray:
    for _ in range(2):  # project twice for numerical stability
        W = W - (W @ basis.T) @ basis
    return W


def _unit_rows(c: np.ndarray) -> np.ndarray:
    """Rows of c scaled to unit norm; a zero row stays zero and adds no
    direction to any span."""
    n = np.sqrt((c * c).sum(axis=1, keepdims=True))
    return c / np.where(n > 0.0, n, 1.0)


def _generators(G, tol: float) -> np.ndarray:
    """Rows of the 2-D array G, checked by ``check_skew_coords``, at unit norm."""
    if np.ndim(G) != 2:
        raise ValueError(f"generators must be a 2-D array, got shape {np.shape(G)}")
    return _unit_rows(check_skew_coords(G, require_traceless=True, tol=tol))


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


def _ad_invariant(seeds: np.ndarray, ops: np.ndarray, tol: float,
                  cap: int) -> np.ndarray:
    """Smallest subspace containing the unit rows ``seeds``, invariant under ad(ops)."""
    n = seeds.shape[1]
    F = STRUCTURE[coords_dim(seeds)].reshape(n, n * n)
    ad = (ops @ F).reshape(-1, n, n)  # v @ ad[x] = [x, v]
    new, frame = _split(seeds, _EYE[n], tol, cap)
    found = [new]
    while len(new) and n - len(frame) < cap:  # n - len(frame) = dim found so far
        new, frame = _split((new @ ad).reshape(-1, n), frame, tol, cap - n + len(frame))
        found.append(new)
    return np.concatenate(found)


def orthonormalize(G, tol: float = TOL_RANK) -> np.ndarray:
    """Orthonormal (n, d^2) basis of the span of the traceless rows of
    G (k, d^2), scaled to unit norm first; near-dependent rows are dropped."""
    G = _generators(G, tol)
    return _split(G, _EYE[G.shape[1]], tol, G.shape[1])[0]


def contains(basis: np.ndarray, c, tol: float = TOL_RANK) -> bool:
    """True iff the element of Pauli coordinates c (real, or complex as
    from ``qalg.pauli_coords``) lies in span(basis) to relative tol."""
    c = np.asarray(c)
    n = np.linalg.norm(c)
    if n == 0.0:
        return True
    # the imaginary (Hermitian) part of c is never in a real skew span
    res = np.hypot(np.linalg.norm(_residual(basis, c.real)),
                   np.linalg.norm(c.imag))
    return res <= tol * n


def closure(G, tol: float = TOL_RANK) -> np.ndarray:
    """Orthonormal (n, d^2) basis of the smallest bracket-closed real
    subspace containing the rows of G (k, d^2).  Stops when a sweep adds
    nothing or the dimension reaches d^2 - 1 (the whole of su(d))."""
    G = _generators(G, tol)
    return _ad_invariant(G, G, tol, G.shape[1] - 1)


def invariant_space(L: np.ndarray, c, tol: float = TOL_RANK) -> np.ndarray:
    """Smallest subspace containing the seed and invariant under ad of the
    orthonormal (n, d^2) basis L.

    The seed is given by its complex Pauli coordinates c = Tr(E_j^dag seed),
    shape (d^2,); a matrix seed goes through ``qalg.pauli_coords``.  It may
    carry a trace (it is typically i times a density matrix), so only
    skew-Hermiticity is required of it (``qalg.check_skew_coords``).
    """
    c = check_skew_coords(c, require_traceless=False, tol=tol)
    if c.shape != L.shape[1:]:
        raise ValueError(f"seed coordinates of shape {c.shape} do not fit "
                         f"a basis of shape {L.shape}")
    return _ad_invariant(_unit_rows(c[None]), L, tol, len(c))


def trace_A_image(V: np.ndarray, tol: float = TOL_RANK) -> np.ndarray:
    """Orthonormal (n, 4) basis of the image of V (k, 16) under Tr_A.

    Tr_A E_a0 = sqrt(2) E_a of one qubit and Tr_A E_ab = 0 for b != 0, so
    the image is a selection of coordinates.
    """
    if V.shape[1:] != (16,):
        raise ValueError(f"trace_A_image expects coordinates of 4x4 "
                         f"matrices, got shape {V.shape}")
    img = np.sqrt(2.0) * V[:, 0::4]
    return _split(img, _EYE[4], tol, 4)[0]


def span_equals(a: np.ndarray, b: np.ndarray, tol: float = TOL_RANK) -> bool:
    """Mutual containment of two orthonormal bases."""
    if a.shape != b.shape:
        return False
    res = [_residual(y, x) for x, y in ((a, b), (b, a))]
    return all(np.linalg.norm(r, axis=1).max(initial=0.0) <= tol for r in res)
