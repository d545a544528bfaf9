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
per sweep over the newly found vectors.  It starts from a frame, an
orthonormal basis of the directions the subspace may take, and stops when a
sweep adds nothing or the frame is used up.  ``closure(G)`` seeds it with the
generators and their pairwise brackets, G u [G, G], in one rank decision,
and then brackets every found direction with G: by the Jacobi identity the
right-nested brackets of the generators span the algebra they generate.  Its
generators are traceless, so its frame is the d^2 - 1 traceless directions
and its rows come out exactly traceless.  ``invariant_space`` seeds it with
one element that may carry a trace, and its frame is all d^2 directions.
"""

from __future__ import annotations

import functools

import numpy as np

from .qalg import (PAULI_BASIS, STRUCTURE, TOL_RANK, check_skew_coords,
                   coords_dim)

# d^2 -> read-only d^2 x d^2 identity, the first frame of every span search;
# row 0 is the identity coordinate, so _EYE[d * d][1:] is the traceless frame
_EYE = {d * d: np.eye(d * d) for d in PAULI_BASIS}
for _eye in _EYE.values():
    _eye.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _pairs(k: int) -> tuple:
    """Read-only index arrays (x, y) of the k(k-1)/2 pairs x < y."""
    pairs = np.triu_indices(k, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


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


def _ad(ops: np.ndarray) -> np.ndarray:
    """(k, n, n) stack with v @ ad[x] = [ops[x], v]."""
    n = ops.shape[1]
    F = STRUCTURE[coords_dim(ops)].reshape(n, n * n)
    return (ops @ F).reshape(-1, n, n)


def _split(W: np.ndarray, frame: np.ndarray, tol: float) -> tuple:
    """Split span(frame) into the directions of W with singular value > tol
    and the rest.  ``frame`` is an orthonormal basis of the directions not
    yet found, so W @ frame.T keeps the part of W that is new.
    """
    Wc = W @ frame.T
    w = Wc.ravel()
    if w @ w <= tol * tol:  # ||Wc|| bounds every singular value
        return frame[:0], frame
    # vt must be square to span the rest of the frame; U is never needed
    _, s, vt = np.linalg.svd(Wc, full_matrices=Wc.shape[0] < Wc.shape[1])
    rotated = vt @ frame
    r = np.count_nonzero(s > tol)
    return rotated[:r], rotated[r:]


def _ad_invariant(seeds: np.ndarray, ad: np.ndarray, frame: np.ndarray,
                  tol: float) -> np.ndarray:
    """Smallest subspace of span(frame) containing the rows ``seeds`` and
    invariant under the maps v -> v @ ad[x].  Stops when a sweep adds nothing
    or the frame is used up."""
    new, frame = _split(seeds, frame, tol)
    found = [new]
    while len(new) and len(frame):
        new, frame = _split((new @ ad).reshape(-1, new.shape[1]), frame, tol)
        found.append(new)
    return np.concatenate(found)


def orthonormalize(G, tol: float = TOL_RANK) -> np.ndarray:
    """Orthonormal (n, d^2) basis of the span of the traceless rows of
    G (k, d^2), scaled to unit norm first; near-dependent rows are dropped.
    The basis is found in the traceless frame, so its rows are exactly
    traceless."""
    G = _generators(G, tol)
    return _split(G, _EYE[G.shape[1]][1:], tol)[0]


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
    subspace containing the rows of G (k, d^2).

    The first rank decision takes G and its pairwise brackets [g_x, g_y],
    x < y, together; each later sweep brackets the directions found by the
    one before with G.  It stops when a sweep adds nothing or the traceless
    frame is used up (dimension d^2 - 1, the whole of su(d)).
    """
    G = _generators(G, tol)
    k, n = G.shape
    ad = _ad(G)
    seeds = np.concatenate([G, (G @ ad)[_pairs(k)]])  # (G @ ad)[x, y] = [g_x, g_y]
    return _ad_invariant(seeds, ad, _EYE[n][1:], tol)


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
    return _ad_invariant(_unit_rows(c[None]), _ad(L), _EYE[len(c)], tol)


def trace_A_image(V: np.ndarray, tol: float = TOL_RANK) -> np.ndarray:
    """Orthonormal (n, 4) basis of the image of V (k, 16) under Tr_A.

    Tr_A E_a0 = sqrt(2) E_a of one qubit and Tr_A E_ab = 0 for b != 0, so
    the image is a selection of coordinates.
    """
    if V.shape[1:] != (16,):
        raise ValueError(f"trace_A_image expects coordinates of 4x4 "
                         f"matrices, got shape {V.shape}")
    img = np.sqrt(2.0) * V[:, 0::4]
    return _split(img, _EYE[4], tol)[0]


def span_equals(a: np.ndarray, b: np.ndarray, tol: float = TOL_RANK) -> bool:
    """Mutual containment of two orthonormal bases."""
    if a.shape != b.shape:
        return False
    res = [_residual(y, x) for x, y in ((a, b), (b, a))]
    return all(np.linalg.norm(r, axis=1).max(initial=0.0) <= tol for r in res)
