"""Tests for the real Lie-algebra span and closure machinery.

Dimension facts used as oracles are classical: su(2) acting on one factor
closes at 3, the standard coupled generator set closes at 15 = dim su(4),
and closure dimensions are invariant under a unitary change of frame.  The
Pauli-coordinate layer is checked against matrix commutators, and the
coordinate closure against a brute-force closure in matrix form.  The tests
write their elements as matrices and convert at the call: ``pauli_coords``
on inputs (checked by ``check_skew_coords`` where they must be
skew-Hermitian), ``from_pauli_coords`` on outputs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qindirect import lieclosure
from qindirect.lieclosure import (closure, contains, invariant_space,
                                  orthonormalize, projector, span_equals,
                                  trace_A_image)
from qindirect.model import (FullSU2, SingleAxis, TwoQubitModel,
                             generator_set, random_model,
                             random_single_axis_model)
from qindirect.qalg import (ID2, PAULI_BASIS, SIGMA_X, SIGMA_Y, SIGMA_Z,
                            STRUCTURE, TOL_RANK, bloch_inverse,
                            check_skew_coords, commutator, dagger, frob,
                            from_pauli_coords, mat_exp, pauli_coords, tensor)

SX1 = tensor(SIGMA_X, ID2)
SY1 = tensor(SIGMA_Y, ID2)
SZ1 = tensor(SIGMA_Z, ID2)
ONE_A = [tensor(ID2, s) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]

st_angles = st.tuples(*[st.floats(-3.0, 3.0)] * 6)


def _rows(mats):
    """(k, d^2) real coordinates of skew-Hermitian matrices at their own
    norm; the trace is kept, so the traceless check is the one under test."""
    c = pauli_coords(np.asarray(mats))
    check_skew_coords(c, require_traceless=False, tol=TOL_RANK)
    return c.real


def _random_su4(angles):
    gens = [SX1, SZ1, ONE_A[0], ONE_A[2],
            1j * tensor(SIGMA_Y, SIGMA_Y), 1j * tensor(SIGMA_X, SIGMA_Z)]
    u = np.eye(4, dtype=complex)
    for t, g in zip(angles, gens):
        u = u @ mat_exp(t * g)
    return u


def test_orthonormalize_collapses_dependent_elements():
    basis = orthonormalize(_rows([SX1, 2.0 * SX1, SY1]))
    assert len(basis) == 2
    assert contains(basis, pauli_coords(SX1 - 3.0 * SY1))
    assert not contains(basis, pauli_coords(SZ1))


def test_zero_elements_add_no_direction():
    # a zero row stays zero through the unit scaling and never adds a direction
    assert len(orthonormalize(_rows([0.0 * SX1, SY1, 0.0 * SY1]))) == 1
    assert len(orthonormalize(_rows([0.0 * SX1]))) == 0
    assert span_equals(closure(_rows([SX1, 0.0 * SZ1, SY1])),
                       closure(_rows([SX1, SY1])))


def test_orthonormalize_empty_input():
    for build in (orthonormalize, closure):
        basis = build(np.zeros((0, 4)))
        assert basis.shape == (0, 4)


def test_orthonormalize_requires_traceless():
    with pytest.raises(ValueError, match="not traceless"):
        orthonormalize(_rows([1j * np.eye(4)]))  # skew-Hermitian but traceful


def test_orthonormalize_requires_skew():
    hermitian = tensor(np.diag([1.0, -1.0]), ID2)
    with pytest.raises(ValueError, match="not skew-Hermitian"):
        _rows([hermitian])
    # complex coordinates pass the same check inside
    with pytest.raises(ValueError, match="not skew-Hermitian"):
        orthonormalize(pauli_coords([hermitian]))


@pytest.mark.parametrize("build", [closure, orthonormalize])
@pytest.mark.parametrize("bad, match", [
    (np.eye(4)[:1], "not traceless"),  # a nonzero identity coordinate
    (np.eye(16)[[3, 0]], "not traceless"),
    (np.zeros((2, 9)), "width 4 or 16"),
    (np.zeros((1, 8)), "width 4 or 16"),
    (np.eye(16)[5], "2-D"),
    (np.zeros((1, 1, 16)), "2-D"),
    # a squared norm past the float range scaled the row to zero (dim 0)
    (1e160 * np.eye(16)[[5]], "non-finite squared norm"),
])
def test_generators_must_be_traceless_rows_of_width_4_or_16(build, bad,
                                                            match):
    with pytest.raises(ValueError, match=match):
        build(bad)


def test_frames_cover_the_dimensions_of_the_basis():
    assert set(lieclosure._EYE) == {d * d for d in PAULI_BASIS}
    for n, eye in lieclosure._EYE.items():
        assert np.array_equal(eye, np.eye(n)) and not eye.flags.writeable


def test_contains_respects_tolerance():
    basis = orthonormalize(_rows([SX1, SY1]))
    assert contains(basis, pauli_coords(0.25 * SX1 + 1e-13 * SZ1))
    assert not contains(basis, pauli_coords(SX1 + 1e-6 * SZ1))


def test_contains_the_zero_element():
    basis = orthonormalize(_rows([SX1]))
    assert contains(basis, np.zeros(16))
    assert contains(basis[:0], 0)  # in every span, the empty one too


def test_closure_one_sided_su2():
    basis = closure(_rows([SX1, SY1]))
    assert len(basis) == 3
    assert contains(basis, pauli_coords(SZ1))  # generated by the bracket
    assert not contains(basis, pauli_coords(ONE_A[0]))


def test_closure_single_generator():
    assert len(closure(_rows([SX1]))) == 1  # [X, X] = 0


def test_closure_full_su4():
    gens = [SX1, SY1, ONE_A[0], ONE_A[1], 1j * tensor(SIGMA_Z, SIGMA_Z)]
    assert len(closure(_rows(gens))) == 15


def test_closure_scale_invariant():
    gens = [SX1, SY1, 1j * tensor(SIGMA_Z, SIGMA_Z)]
    d1 = len(closure(_rows(gens)))
    d2 = len(closure(_rows([7.0 * g for g in gens[::-1]])))
    assert d1 == d2


def _tiny_case_inputs():
    """The 1b generators of seed 3, their closure and a product-state seed."""
    G = generator_set(random_model("1b", np.random.default_rng(3)))
    seed = pauli_coords(1j * tensor(bloch_inverse([0.4, 0.0, 0.5]),
                                    bloch_inverse([0.0, 0.3, 0.2])))
    return G, closure(G), seed


def test_closure_of_generators_whose_squared_norms_underflow():
    # (1e-170)^2 is below the float range; the norms are hypot reductions
    G, L, _ = _tiny_case_inputs()
    assert len(L) == 10
    for scale in (1e-160, 1e-170, 1e-300):
        assert len(closure(scale * G)) == 10


def test_invariant_space_of_a_seed_whose_squared_norm_underflows():
    _, L, seed = _tiny_case_inputs()
    assert len(invariant_space(L, 1e-170 * seed)) == len(invariant_space(L, seed))


def test_contains_no_tiny_element_outside_the_span():
    E = np.eye(16)
    basis = orthonormalize(E[[5]])
    assert not contains(basis, 1e-170 * E[6])
    assert contains(basis, 1e-170 * E[5])


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["1a", "1b", "1c", "2a", "2b", "2c"]),
       st.integers(-300, 150))
@example(3, "1b", -170)
def test_span_answers_do_not_depend_on_the_magnitude_of_the_input(seed, case,
                                                                  k):
    # a Lie algebra, an invariant space and a span membership do not change
    # when the generators, the seed or the element are rescaled
    rng = np.random.default_rng(seed)
    G = generator_set(random_model(case, rng))
    rho_s, rho_a = (bloch_inverse(v / (1.0 + np.linalg.norm(v)))
                    for v in rng.normal(size=(2, 3)))
    c = pauli_coords(1j * tensor(rho_s, rho_a))
    L = closure(G)
    inside = rng.normal(size=len(L)) @ L
    outside = rng.normal(size=16)
    scale = 10.0 ** k
    assert len(closure(scale * G)) == len(L)
    assert len(orthonormalize(scale * G)) == len(orthonormalize(G))
    assert len(invariant_space(L, scale * c)) == len(invariant_space(L, c))
    for x in (inside, outside):
        assert contains(L, scale * x) == contains(L, x)


@settings(max_examples=20)
@given(st_angles)
def test_closure_dim_frame_invariant(angles):
    u = _random_su4(angles)
    gens = [SX1, SY1, 1j * tensor(SIGMA_Z, SIGMA_Z)]
    rotated = [u @ g @ dagger(u) for g in gens]
    assert len(closure(_rows(rotated))) == len(closure(_rows(gens)))


def test_invariant_space_one_sided_rotation():
    # su(2) on the S side rotates the S Bloch vector of the seed; the
    # identity components ride along untouched, so V is 4-dimensional and
    # its trace image is all of u(2).
    basis = closure(_rows([SX1, SY1]))
    rho_s = bloch_inverse([0.0, 0.0, 0.8])
    rho_a = bloch_inverse([0.3, 0.0, 0.1])
    v = invariant_space(basis, pauli_coords(1j * tensor(rho_s, rho_a)))
    assert len(v) == 4
    img = trace_A_image(v)
    assert len(img) == 4


def test_invariant_space_full_algebra():
    gens = [SX1, SY1, ONE_A[0], ONE_A[1], 1j * tensor(SIGMA_Z, SIGMA_Z)]
    basis = closure(_rows(gens))
    rho_s = bloch_inverse([0.0, 0.0, 0.5])
    rho_a = bloch_inverse([0.0, 0.0, 0.2])
    v = invariant_space(basis, pauli_coords(1j * tensor(rho_s, rho_a)))
    # the traceless part sweeps out all of su(4), plus the fixed i*1 line
    assert len(v) == 16
    assert len(trace_A_image(v)) == 4


def test_invariant_space_checks_its_seed():
    gens = [SX1, ONE_A[2], 1j * tensor(SIGMA_Z, SIGMA_Z)]
    basis = closure(_rows(gens))
    seed = 1j * tensor(bloch_inverse([0.4, 0.0, 0.5]),
                       bloch_inverse([0.0, 0.3, 0.2]))
    v = invariant_space(basis, pauli_coords(seed))
    assert contains(v, pauli_coords(seed))
    assert 1 < len(v) < 16
    with pytest.raises(ValueError, match="do not fit"):
        invariant_space(basis, pauli_coords(seed[:2, :2]))
    with pytest.raises(ValueError, match="not skew-Hermitian"):
        invariant_space(basis, pauli_coords(seed / 1j))


def test_trace_image_can_vanish():
    v = orthonormalize(_rows([1j * tensor(SIGMA_Z, SIGMA_Z)]))
    assert len(trace_A_image(v)) == 0
    assert isinstance(v, np.ndarray) and v.shape == (1, 16)
    with pytest.raises(ValueError, match="4x4"):
        trace_A_image(closure(_rows([SIGMA_X, SIGMA_Y])))


def test_span_equals():
    a = orthonormalize(_rows([SX1, SY1]))
    b = orthonormalize(_rows([SX1 + SY1, SX1 - SY1]))
    c = orthonormalize(_rows([SX1, SZ1]))
    assert span_equals(a, b)
    assert span_equals(b, a)
    assert not span_equals(a, c)
    assert not span_equals(a, orthonormalize(_rows([SX1])))


@pytest.mark.parametrize("sine, same", [(0.5, True), (1.2, False),
                                        (2.0, False)])
def test_span_equals_does_not_depend_on_the_bases(sine, same):
    # {x, y} against {x cos t + z sin t, y}: the largest principal angle is
    # t, given as it is and turned by 45 degrees inside each span
    x, y, z = np.eye(16)[1:4]
    s = sine * TOL_RANK
    a = np.array([x, y])
    b = np.array([np.sqrt(1.0 - s * s) * x + s * z, y])
    turn = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    assert span_equals(a, b) == span_equals(b, a) == same
    assert span_equals(turn @ a, turn @ b) == same


def _kind_model(kind, rng):
    """A random model of a full-control case or a single-axis kind."""
    if kind in (None, "c1", "c2"):
        return random_single_axis_model(rng, violate=kind)
    return random_model(kind, rng)


MODEL_KINDS = ["1a", "1b", "1c", "2a", "2b", "2c", None, "c1", "c2"]


@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(MODEL_KINDS))
def test_projector_is_an_orthogonal_projector(seed, kind):
    L = closure(generator_set(_kind_model(kind, np.random.default_rng(seed))))
    P = projector(L)
    assert P.shape == (16, 16)
    assert np.abs(P @ P - P).max() <= 1e-12
    assert np.abs(P - P.T).max() <= 1e-12
    assert abs(np.trace(P) - len(L)) <= 1e-12


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_projector_depends_on_the_algebra_alone(kind):
    # the bases of closure(G), of closure(G) at rounding-level noise and of
    # the closure of the reversed generators differ; their projectors do not
    # (fixed draws: on a nearly rank-deficient single-axis draw the split
    # itself moves by more than 1e-12)
    rng = np.random.default_rng(1)
    G = generator_set(_kind_model(kind, rng))
    P = projector(closure(G))
    for H in (G * (1.0 + 4e-16 * rng.normal(size=G.shape)), G[::-1]):
        assert np.abs(projector(closure(H)) - P).max() <= 1e-12


def test_closure_generators_must_share_dim():
    # rows of different widths make no 2-D array
    with pytest.raises(ValueError):
        closure([pauli_coords(SX1).real, pauli_coords(SIGMA_X).real])


# ---------------------------------------------------------------------------
# Pauli coordinates


@pytest.mark.parametrize("d", [2, 4])
def test_structure_tensor_matches_commutators(d):
    E = PAULI_BASIS[d]
    for j in range(d * d):
        for k in range(d * d):
            bracket = np.einsum("l,lab->ab", STRUCTURE[d][j, k], E)
            assert frob(bracket - commutator(E[j], E[k])) <= 1e-15


@pytest.mark.parametrize("d", [2, 4])
def test_coords_round_trip(d, rng):
    z = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    skew = z - z.conj().transpose(0, 2, 1)
    skew -= np.trace(skew, axis1=1, axis2=2)[:, None, None] * np.eye(d) / d
    coords = pauli_coords(skew)
    check_skew_coords(coords, require_traceless=True, tol=1e-9)
    mats = from_pauli_coords(coords.real)
    assert np.abs(mats - skew).max() < 1e-14
    assert len(orthonormalize(coords)) == min(5, d * d - 1)


def _oracle_dim(gens, tol=1e-6):
    """Brute-force closure in matrix form: bracket every kept pair.

    Candidates are the generators and the brackets of kept pairs, scaled to
    unit norm, so a candidate's residual against the orthonormal matrices
    kept so far (Gram-Schmidt, twice, in Re Tr(A^dag B)) is relative to its
    own norm.  The candidate with the largest residual is taken next
    (pivoted Gram-Schmidt) and its normalised residual is kept and
    bracketed, so the new direction of a near-dependent candidate is
    explored at full scale.  A residual at most tol drops the candidate for
    good, since later matrices only shrink it; a bracket of two kept
    (unit-norm) matrices below tol counts as zero.
    """
    todo = np.array([g / frob(g) for g in gens if frob(g) > 0])
    kept = todo[:0]
    while len(todo):
        for _ in range(2):
            coef = np.einsum("kij,mij->mk", kept.conj(), todo).real
            todo = todo - np.einsum("mk,kij->mij", coef, kept)
        norms = np.linalg.norm(todo, axis=(1, 2))
        todo, norms = todo[norms > tol], norms[norms > tol]
        if not len(todo):
            break
        best = np.argmax(norms)
        r = todo[best] / norms[best]
        brackets = [c / frob(c) for c in (commutator(r, k) for k in kept)
                    if frob(c) > tol]
        kept = np.concatenate([kept, r[None]])
        todo = np.concatenate([np.delete(todo, best, axis=0)]
                              + [np.reshape(brackets, (-1,) + r.shape)])
    return len(kept)


GEN_SETS = [[SX1, SY1, 1j * tensor(SIGMA_Z, SIGMA_Z)],
            [SX1, ONE_A[0], 1j * tensor(SIGMA_Y, SIGMA_Y)],
            [SZ1, ONE_A[2], 1j * tensor(SIGMA_X, SIGMA_X)],
            [SX1, SZ1, ONE_A[1]]]


@settings(max_examples=25)
@given(st_angles, st.sampled_from(GEN_SETS))
def test_closure_matches_matrix_oracle_rotated(angles, gens):
    u = _random_su4(angles)
    rotated = [u @ g @ dagger(u) for g in gens]
    assert len(closure(_rows(rotated))) == _oracle_dim(rotated)


@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(MODEL_KINDS))
@example(284, None)  # the earlier oracle lost a dimension here (14, not 15)
def test_closure_matches_matrix_oracle_models(seed, kind):
    gens = generator_set(_kind_model(kind, np.random.default_rng(seed)))
    assert len(closure(gens)) == _oracle_dim(from_pauli_coords(gens))


# Models on which a per-vector Gram-Schmidt closure at tol 1e-9 returned 15
# instead of 10: three full-control draws (cases 1b, 2b, 2b) and one
# single-axis draw violating C1.  Values as (omega_S, K, C, axis or None).
DEFECT_MODELS = [
    (-0.88136705762337608,
     [[0.64716389551959641, -0.39939106952592218, 0.0],
      [0.18001759293292063, -0.31795425775116959, 0.0],
      [0.33971048047370256, -0.60000747558237744, 0.0]],
     [-0.75306234492740765, -0.071685034764832345, 0.99843712634730375],
     None),
    (0.0,
     [[0.00033830532826822641, 0.00034946201948881387, 0.00058488727798938441],
      [-0.19311568197014781, -0.1100003433996484, -0.20161607947430291],
      [-0.12513799380559701, -0.22774262328519218, -0.36189728604387694]],
     [0.29666421239635721, -0.8906047292547814, 0.80745030813281216],
     None),
    (0.0,
     [[0.018744520373244471, 0.94372399892525372, 0.1990177706672947],
      [-0.15344071410326571, 0.057386845533652996, -0.51203022489717975],
      [-0.25728774120319342, 0.21211836183896393, -0.84193165540333259]],
     [0.80907028673863224, -0.78303986090225097, 0.30096726666490586],
     [-0.9394128446685821, -0.12098930898129502, 0.32072588667569568]),
    (0.0,
     [[-0.17793068231193301, 0.24274163128366255, -0.75040408680730697],
      [-0.00037329876866853485, 0.00020518499951817482, -0.00063575400637332969],
      [0.14413037555910138, -0.077382206627327435, 0.23978614106920518]],
     [-0.021936262261634587, -0.5008747606467161, -0.57799454061464428],
     None),
]


@pytest.mark.parametrize("omega, K, C, n", DEFECT_MODELS)
def test_closure_near_dependent_brackets(omega, K, C, n):
    control = FullSU2() if n is None else SingleAxis(n=np.array(n))
    m = TwoQubitModel(omega_S=omega, K=np.array(K), C=np.array(C),
                      control=control)
    assert len(closure(generator_set(m))) == 10


# ---------------------------------------------------------------------------
# the first rank decision over G u [G, G], and the traceless frame


def _random_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / abs(np.diag(r)))


def _random_generators(rng, d, k):
    """k traceless skew-Hermitian d x d matrices, each a random combination
    of the same few basis elements in a random frame, so that the closure
    dimension varies from draw to draw."""
    size = rng.integers(1, min(d * d - 1, 6), endpoint=True)
    support = rng.choice(np.arange(1, d * d), size=size, replace=False)
    coef = rng.normal(size=(k, len(support)))
    u = _random_unitary(rng, d)
    return [u @ np.tensordot(c, PAULI_BASIS[d][support], 1) @ dagger(u)
            for c in coef]


def _commuting_partner(g):
    """g^3 minus its trace part: skew-Hermitian, traceless, commutes with g."""
    c = g @ g @ g
    return c - np.trace(c) * np.eye(len(g)) / len(g)


TWISTS = [None, "duplicate", "zero", "commuting", "complex"]


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("twist", TWISTS)
def test_closure_matches_matrix_oracle_random_sets(d, twist):
    rng = np.random.default_rng([d, TWISTS.index(twist)])
    for k in range(1, 6):
        for _ in range(4):
            gens = _random_generators(rng, d, k)
            if twist == "duplicate":
                gens.append(-3.0 * gens[0])
            elif twist == "zero":
                gens.append(0.0 * gens[0])
            elif twist == "commuting":
                gens.append(_commuting_partner(gens[0]))
            rows = _rows(gens)
            if twist == "complex":  # a Hermitian part well inside tol
                rows = rows.astype(complex)
                rows[-1] += 1e-11j * rng.normal(size=d * d)
            L = closure(rows)
            assert len(L) == _oracle_dim(gens), (k, twist)
            assert (L[:, 0] == 0.0).all()  # exactly traceless
            assert (orthonormalize(rows)[:, 0] == 0.0).all()
            assert np.abs(L @ L.T - np.eye(len(L))).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 4, 20])
def test_pairs_are_the_read_only_upper_triangle(k):
    x, y = lieclosure._pairs(k)
    assert [(int(a), int(b)) for a, b in zip(x, y)] == [
        (a, b) for a in range(k) for b in range(a + 1, k)]
    assert not x.flags.writeable and not y.flags.writeable


def test_closure_ends_when_frame_is_used_up(monkeypatch):
    calls = []  # (frame rows in, directions found, frame rows left)
    split = lieclosure._split

    def recorded(W, frame, tol):
        new, rest = split(W, frame, tol)
        calls.append((len(frame), len(new), len(rest)))
        return new, rest

    monkeypatch.setattr(lieclosure, "_split", recorded)
    gens = [SX1, SY1, ONE_A[0], ONE_A[1], 1j * tensor(SIGMA_Z, SIGMA_Z)]
    assert len(closure(_rows(gens))) == 15
    assert calls[0][0] == 15  # the traceless frame
    assert calls[-1][1] > 0 and calls[-1][2] == 0  # no sweep after the last
    assert all(rest > 0 for _, _, rest in calls[:-1])


# ---------------------------------------------------------------------------
# LAPACK calls per closure


def _count_svd(monkeypatch):
    calls = [0]
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("case, svds", [("1a", 2), ("1b", 2), ("1c", 2),
                                        ("2a", 1), ("2b", 2), ("2c", 2)])
def test_closure_svd_count_full_control(monkeypatch, case, svds):
    m = random_model(case, np.random.default_rng(1))
    calls = _count_svd(monkeypatch)
    closure(generator_set(m))
    assert calls[0] == svds


@pytest.mark.parametrize("violate, svds", [(None, 5), ("c1", 4), ("c2", 4)])
def test_closure_svd_count_single_axis(monkeypatch, violate, svds):
    m = random_single_axis_model(np.random.default_rng(1), violate=violate)
    calls = _count_svd(monkeypatch)
    closure(generator_set(m))
    assert calls[0] == svds


# su(4) (1a, 2c) is read off with no SVD; every other algebra takes the seed
# as its first direction with no SVD, and then sweeps twice
INVARIANT_SPACE_SVDS = {"1a": 0, "1b": 2, "1c": 2, "2a": 2, "2c": 0}


@pytest.mark.parametrize("case", ["1a", "1c", "2a", "1b", "2c"])
def test_invariant_space_svd_count(monkeypatch, case):
    L = closure(generator_set(random_model(case, np.random.default_rng(1))))
    rho_s = bloch_inverse([0.3, 0.2, 0.4])
    rho_a = bloch_inverse([0.1, 0.0, 0.2])
    c = pauli_coords(1j * tensor(rho_s, rho_a))
    calls = _count_svd(monkeypatch)
    V = invariant_space(L, c)
    assert calls[0] == INVARIANT_SPACE_SVDS[case]
    monkeypatch.undo()
    assert span_equals(V, _sweep(L, c.real))


# ---------------------------------------------------------------------------
# the invariant space of su(d), read off against the sweep


def _sweep(L, c, tol=TOL_RANK):
    """The general sweep from the single unit seed, with no read-off."""
    n = L.shape[1]
    return lieclosure._ad_invariant(c[None] / np.linalg.norm(c),
                                    lieclosure._ad(L), lieclosure._EYE[n], tol)


@pytest.mark.parametrize("d", [2, 4])
def test_invariant_space_of_su_d_is_read_off_like_the_sweep(monkeypatch, d):
    rng = np.random.default_rng(d)
    n = d * d
    q, _ = np.linalg.qr(rng.normal(size=(n - 1, n - 1)))
    L = q @ np.eye(n)[1:]  # a turned basis of su(d), traceless by construction
    trace, pauli = np.eye(n)[[0, n - 1]]  # E_0, and E_z or E_zz
    unit = np.concatenate([[0.0], rng.normal(size=n - 1)])
    unit /= np.linalg.norm(unit)
    edge = TOL_RANK / np.sqrt(2 * d)  # ||c'|| of the first sweep's norm test
    t0 = TOL_RANK / np.sqrt(d)  # |c_0| of check_skew_coords' traceless rule
    # (seed, its dimension at d = 2 and 4, read off at d = 2 and 4); None
    # marks a seed on one of the read-off's bounds, where either path may run.
    # ad_{E_P} has all its nonzero singular values at 2 / sqrt(d), so a
    # c' = f tol E_P adds directions iff f > sqrt(d) / 2.
    cases = [(trace, (1, 1), (True, True)),
             (unit, (3, 15), (True, True)),
             (trace + unit, (4, 16), (True, True)),
             (trace + 10.0 * edge * unit, (4, 16), (True, True)),
             (trace + 0.1 * edge * unit, (1, 1), (True, True)),
             (trace + 0.5 * TOL_RANK * pauli, (1, 1), (None, False)),
             (trace + 0.9 * TOL_RANK * pauli, (4, 1), (True, False)),
             (unit + 10.0 * t0 * trace, (4, 16), (True, True)),
             (unit + 2.0 * t0 * trace, (4, 16), (True, False)),
             (unit + 1.0 * t0 * trace, (4, 16), (None, False)),
             (unit + 0.5 * t0 * trace, (3, 15), (False, False)),
             (unit + 0.1 * t0 * trace, (3, 15), (False, False))]
    at = d // 4  # index 0 at d = 2, 1 at d = 4
    for c, dims, read_off in cases:
        expected = _sweep(L, c)
        calls = _count_svd(monkeypatch)
        V = invariant_space(L, c)
        monkeypatch.undo()
        assert len(V) == len(expected) == dims[at]
        assert span_equals(V, expected)
        if read_off[at] is not None:
            assert (calls[0] == 0) == read_off[at]  # no SVD iff read off
        assert V.flags.writeable and not np.shares_memory(V, lieclosure._EYE[n])


def test_invariant_space_of_a_15_row_basis_with_a_trace_takes_the_sweep(
        monkeypatch):
    rng = np.random.default_rng(7)
    L = np.linalg.qr(rng.normal(size=(16, 15)))[0].T  # orthonormal rows
    assert L[:, 0].all()
    c = rng.normal(size=16)
    calls = _count_svd(monkeypatch)
    V = invariant_space(L, c)
    assert calls[0] > 0
    assert span_equals(V, _sweep(L, c))


def test_invariant_space_is_empty_when_the_seed_is_rejected():
    # a zero seed, or a unit seed at a tolerance of 1 or more
    seed = pauli_coords(1j * tensor(bloch_inverse([0.4, 0.0, 0.5]), ID2 / 2))
    for case in ("1b", "2c"):  # the sweep and the read-off
        L = closure(generator_set(random_model(case, np.random.default_rng(1))))
        assert invariant_space(L, np.zeros(16)).shape == (0, 16)
        for tol in (1.0, 3.0):
            assert invariant_space(L, seed, tol).shape == (0, 16)
