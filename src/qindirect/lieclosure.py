"""Real Lie algebra machinery in Pauli coordinates.

Elements of u(d), d = 2 or 4, are real coordinates in the orthonormal basis
E_ab = (i/sqrt d) P_a (x) P_b of :mod:`qindirect.qalg`, so Re Tr(A^dag B) is
a dot product and tolerances keep their matrix meaning.  Brackets come from
the structure tensor ``qalg.STRUCTURE``, F[j, k, l] = <E_l, [E_j, E_k]>.

Generators come in as a 2-D (k, d^2) array and every subspace goes out as
its orthonormal (n, d^2) basis, so ``len()`` is its dimension; no matrix is
built or read here.  A basis depends on the SVD that found it, so subspaces
are compared through the orthogonal projector P = L^T L, which does not.

One routine finds the smallest subspace that contains some seeds and is
invariant under ad_x for x in a set of operators, with one SVD rank decision
per sweep over the newly found vectors.  It starts from a frame, an
orthonormal basis of the directions the subspace may take, and stops when a
sweep adds nothing or the frame is used up.  ``closure(G)`` seeds it with the
generators and their pairwise brackets, G u [G, G], in one rank decision,
and then brackets every found direction with G: by the Jacobi identity the
right-nested brackets of the generators span the algebra they generate.  Its
generators are traceless, so its frame is the d^2 - 1 traceless directions
and its rows come out exactly traceless.  ``invariant_space`` takes its
seed c, one element that may carry a trace, as the first direction without
an SVD, and seeds the sweep with the brackets [L, c] in the Householder
complement of c, so its frame is the other d^2 - 1 directions.  On the full
algebra su(d), which ``closure`` returns for every controllable model, it
needs no sweep for most seeds: ad(su(d)) is irreducible on su(d) and kills
the identity, and sum_x ||[L_x, c']||^2 = 2d ||c'||^2 for the traceless
part c' of c, spread over at most d^2 - d singular values (the rank of
ad_c'), so the space is u(d) when sqrt(2 / (d - 1)) min(||c'||, |c_0|)
exceeds tol for the trace part c_0 of c.
"""

from __future__ import annotations

import functools
import math

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


def _generators(G, tol: float) -> np.ndarray:
    """Rows of the 2-D array G, checked by ``check_skew_coords``, at unit norm."""
    if np.ndim(G) != 2:
        raise ValueError(f"generators must be a 2-D array, got shape {np.shape(G)}")
    return check_skew_coords(G, require_traceless=True, tol=tol)


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


def projector(L: np.ndarray) -> np.ndarray:
    """Orthogonal projector L^T L onto the span of the orthonormal (n, d^2)
    basis L: a (d^2, d^2) array that depends on the span alone."""
    return L.T @ L


def contains(basis: np.ndarray, c, tol: float = TOL_RANK) -> bool:
    """True iff the element of Pauli coordinates c (real, or complex as
    from ``qalg.pauli_coords``) lies in span(basis) to relative tol:
    ||c - P c|| <= tol ||c|| for P = ``projector(basis)``."""
    n = np.hypot.reduce(np.abs(c).ravel())  # ||c||, scaled before squaring
    if n == 0.0:
        return True
    c = np.asarray(c) / n
    # the imaginary (Hermitian) part of c is never in a real skew span
    res = np.hypot(np.linalg.norm(c.real - c.real @ projector(basis)),
                   np.linalg.norm(c.imag))
    return res <= tol


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


def _complement(c: np.ndarray) -> np.ndarray:
    """Orthonormal (n - 1, n) basis of the directions orthogonal to the unit
    row c: rows 1 to n - 1 of the Householder reflection I - v v^T / |v_0|,
    v = c + sign(c_0) e_0, which maps e_0 to -sign(c_0) c; |v_0| >= 1."""
    v = c.copy()
    v[0] += math.copysign(1.0, c[0])
    return _EYE[len(c)][1:] - np.outer(c[1:], v / abs(v[0]))


def invariant_space(L: np.ndarray, c, tol: float = TOL_RANK) -> np.ndarray:
    """Smallest subspace containing the seed and invariant under ad of the
    orthonormal (n, d^2) basis L.

    The seed is given by its complex Pauli coordinates c = Tr(E_j^dag seed),
    shape (d^2,); a matrix seed goes through ``qalg.pauli_coords``.  It may
    carry a trace (it is typically i times a density matrix), so only
    skew-Hermiticity is required of it (``qalg.check_skew_coords``).

    The unit seed c is the first direction found, unless it is zero or tol
    is at least 1, and the sweep starts from its brackets [L_x, c] in the
    Householder complement of c: the rank decisions are those of a sweep
    from the single seed, without the SVD of the seed itself.

    When L is su(d) (d^2 - 1 rows with an exactly zero identity coordinate)
    the space is u(d) if sqrt(2 / (d - 1)) min(||c'||, |c_0|) exceeds tol,
    for the traceless part c' and the trace part c_0 of c.  The first
    sweep's Frobenius norm is sqrt(2d) ||c'||, and ad_c' has rank at most
    d^2 - d, so its largest singular value is at least sqrt(2 / (d - 1))
    ||c'||: the first sweep finds a direction, and the later ones bracket
    unit directions.  sqrt(2 / (d - 1)) |c_0| is a lower bound on the
    identity's share of the second sweep.  Every other seed takes the sweep.
    """
    c = check_skew_coords(c, require_traceless=False, tol=tol)
    if c.shape != L.shape[1:]:
        raise ValueError(f"seed coordinates of shape {c.shape} do not fit "
                         f"a basis of shape {L.shape}")
    n = len(c)
    if not (tol < 1.0 and c.any()):  # the seed's own decision rejects it
        return np.empty((0, n))
    if len(L) == n - 1 and not L[:, 0].any():  # L spans su(d)
        bound = math.sqrt(2 / (coords_dim(c) - 1))
        if bound * min(np.linalg.norm(c[1:]), abs(c[0])) > tol:
            return np.eye(n)
    ad = _ad(L)
    found = _ad_invariant(c @ ad, ad, _complement(c), tol)
    return np.concatenate([c[None], found])


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
    """True iff the orthonormal bases a and b of one shape span one subspace
    to tol: the largest singular value of P_a - P_b, the sine of the largest
    principal angle between the spans, is at most tol.  The verdict depends
    on the two spans alone, not on the bases given for them."""
    if a.shape != b.shape:
        return False
    return np.linalg.norm(projector(a) - projector(b), 2) <= tol
