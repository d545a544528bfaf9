"""Tests for case prediction, the single-axis CC test, and identity suites.

Oracles: closure dimensions computed by the generic sweep, span equality
against the hand-written reference bases, and rotation invariance of the
single-axis verdict. The identity suites are checked to hold at random
parameters and to fail loudly outside their admissible range.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from qindirect.classify import (CASE_DIMS, appendix_b_suite, c2_failure_subalgebra,
                                case_1b_basis, case_1c_basis, case_2a_basis,
                                cross_validate, drift_perp_components,
                                gamma_suite, normal_form, oms0_check,
                                predict_case, reduced_pair_closure_dim,
                                reduced_pair_special_basis)
from qindirect.lieclosure import closure, contains, orthonormalize, span_equals
from qindirect.model import (SingleAxis, TwoQubitModel, generator_set,
                             ising_model, random_model,
                             random_single_axis_model)
from qindirect.qalg import (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, TOL_RANK,
                            check_skew_coords, frame, pauli_coords, tensor)

st_unit3 = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda v: 0.1 < np.linalg.norm(v) <= 1.0).map(
    lambda v: tuple(np.asarray(v) / np.linalg.norm(v)))
st_alpha = st.floats(0.05, 1.0)
st_coeff = st.floats(-1.0, 1.0)


def _axis_model(K, C, n=(0.0, 0.0, 1.0)):
    return TwoQubitModel(omega_S=0.0, K=np.asarray(K, dtype=float),
                         C=np.asarray(C, dtype=float),
                         control=SingleAxis(n=np.asarray(n, dtype=float)))


def _l1_l2(alpha, gamma, beta, omega_a):
    l1 = tensor(ID2, SIGMA_Z)
    l2 = (alpha * 1j * tensor(SIGMA_X, SIGMA_X)
          + gamma * 1j * tensor(SIGMA_Y, SIGMA_X)
          + beta * 1j * tensor(SIGMA_Y, SIGMA_Y)
          + omega_a * tensor(ID2, SIGMA_Y))
    return l1, l2


def test_case_dims_table():
    assert CASE_DIMS == {"1a": 15, "1b": 10, "1c": 7, "2a": 6, "2b": 10,
                         "2c": 15}


def test_reference_bases_are_subalgebras():
    for build, dim in ((case_1b_basis, 10), (case_1c_basis, 7),
                       (lambda: case_2a_basis([0.0, 1.0, 1.0]), 6),
                       (c2_failure_subalgebra, 7)):
        rows = build()
        assert rows.shape == (dim, 16)
        assert len(orthonormalize(rows)) == dim
        assert len(closure(rows)) == dim  # closed under brackets


def test_ising_is_case_1b():
    cv = cross_validate(ising_model())
    assert cv.predicted.tag == "1b"
    assert cv.predicted.predicted_dim == 10
    assert cv.computed_dim == 10
    assert cv.agree
    assert not cv.predicted.marginal


def test_ising_closure_matches_reference_span():
    L = closure(generator_set(ising_model()))
    assert span_equals(L, orthonormalize(case_1b_basis()))


def test_case_1c_closure_matches_reference_span(rng):
    m = random_model("1c", rng)
    L = closure(generator_set(m))
    assert span_equals(L, orthonormalize(case_1c_basis()))


def test_case_2a_closure_matches_reference_span(rng):
    m = random_model("2a", rng)
    # all rows of a rank-1 K share one target-side direction
    u = m.K[np.argmax(np.linalg.norm(m.K, axis=1))]
    L = closure(generator_set(m))
    assert span_equals(L, orthonormalize(case_2a_basis(u)))


def test_cross_validate_all_cases(rng):
    for case in CASE_DIMS:
        for _ in range(3):
            cv = cross_validate(random_model(case, rng))
            assert cv.predicted.tag == case
            assert cv.agree, (case, cv.computed_dim)


@settings(max_examples=90)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([*CASE_DIMS, "2b-axes"]))
@example(0, "2b-axes")
def test_cross_validate_is_frame_free(seed, kind):
    # the draw and three local turns of it, K -> R_A K R_S^T, C -> R_A C,
    # with R_S about z when omega_S != 0 (the drift omega_S sigma_z of S
    # fixes its z axis).  "2b-axes" is coordinate-aligned: K = p e_x e_x^T
    # + q e_y e_z^T has rank 2 but one nonzero eigenvalue, in this frame
    # alone, so a rank read off the eigenvalues fails it
    rng = np.random.default_rng(seed)
    case = kind[:2]
    if kind == "2b-axes":
        p, q = rng.uniform(0.1, 1.0, 2)
        m = TwoQubitModel(omega_S=0.0, K=[[p, 0.0, 0.0], [0.0, 0.0, q],
                                          [0.0, 0.0, 0.0]],
                          C=rng.uniform(-1.0, 1.0, 3))
    else:
        m = random_model(case, rng)
    models = [m]
    for _ in range(3):
        r_a = frame(*rng.normal(size=(2, 3)))
        if m.omega_S == 0.0:
            r_s = frame(*rng.normal(size=(2, 3)))
        else:
            u = np.array([*rng.normal(size=2), 0.0])
            r_s = frame(u, [-u[1], u[0], 0.0])
        models.append(TwoQubitModel(omega_S=m.omega_S, K=r_a @ m.K @ r_s.T,
                                    C=r_a @ m.C, control=m.control))
    for model in models:
        cv = cross_validate(model)
        assert (cv.predicted.tag, cv.computed_dim, cv.agree) == (
            case, CASE_DIMS[case], True)


def test_cross_validate_passes_tol_to_closure():
    # at tol 1e-3 the 1e-6 F column is negligible to the prediction and to
    # the closure alike, so both read case 1b; at 1e-9 both read 1a
    m = TwoQubitModel(omega_S=1.0, K=np.diag([0.7, 1.0, 1e-6]),
                      C=[0.1, 0.2, 0.3])
    for tol, case in ((1e-3, "1b"), (1e-9, "1a")):
        cv = cross_validate(m, tol=tol)
        assert cv.predicted.tag == case
        assert cv.computed_dim == len(closure(generator_set(m), tol=tol))
        assert cv.agree, (tol, cv.computed_dim)


def test_predict_case_rejects_single_axis():
    m = _axis_model(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        predict_case(m)


def test_predict_case_vanishing_interaction():
    K = np.full((3, 3), 1e-6)
    m = TwoQubitModel(omega_S=1.0, K=K)
    with pytest.raises(ValueError):
        predict_case(m, tol=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol", [1.0, 1e300])
@pytest.mark.parametrize("scale", [1.0, 1e10])
def test_predict_case_names_a_case_at_a_tolerance_of_one_or_more(tol, scale):
    # no singular value of K exceeds tol * s1 here, and s1 itself still
    # counts: case 2a, with no KeyError and no overflow warning for
    # tol * s1 past the float range
    K = scale * np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.0, 0.3, 1.0]])
    label = predict_case(TwoQubitModel(omega_S=0.0, K=K), tol=tol)
    assert (label.tag, label.predicted_dim) == ("2a", CASE_DIMS["2a"])


def test_predict_case_marginal_flag(rng):
    K = rng.uniform(-1, 1, (3, 3))
    K[:, 2] = 5e-9  # F sits inside the (tol/10, 10 tol) gray zone
    assert predict_case(TwoQubitModel(omega_S=1.0, K=K)).marginal
    K2 = K.copy()
    K2[:, 2] = 0.5
    assert not predict_case(TwoQubitModel(omega_S=1.0, K=K2)).marginal


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_requires_single_axis_and_degenerate_target():
    with pytest.raises(ValueError):
        normal_form(ising_model())
    m = TwoQubitModel(omega_S=1.0, K=np.eye(3),
                      control=SingleAxis(n=[0, 0, 1]))
    with pytest.raises(ValueError):
        normal_form(m)


def test_normal_form_structure(rng):
    for _ in range(20):
        m = random_single_axis_model(rng)
        nf = normal_form(m)
        # proper rotations
        for r in (nf.r_a, nf.r_s):
            assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        # frame consistency
        assert_allclose(nf.r_a @ m.control.n, [0, 0, 1], atol=1e-9)
        assert_allclose(nf.model.K, nf.r_a @ m.K @ nf.r_s.T, atol=1e-12)
        assert_allclose(nf.model.C, nf.r_a @ m.C, atol=1e-12)
        # sign conventions and structural zeros
        assert nf.alpha >= -1e-12 and nf.beta >= -1e-12
        assert nf.omega_A >= -1e-12
        K = nf.model.K
        assert abs(K[0, 2]) < 1e-9 and abs(K[1, 0]) < 1e-9
        assert abs(K[1, 2]) < 1e-9
        assert abs(nf.model.C[0]) < 1e-9
        # determinant is preserved by the two proper rotations
        assert np.linalg.det(K) == pytest.approx(np.linalg.det(m.K), abs=1e-9)


def test_normal_form_identity_when_already_reduced():
    m = _axis_model(np.eye(3), [0.0, 0.7, 0.2])
    nf = normal_form(m)
    assert nf.alpha == pytest.approx(1.0)
    assert nf.beta == pytest.approx(1.0)
    assert nf.z == pytest.approx(1.0)
    assert nf.gamma == pytest.approx(0.0, abs=1e-12)
    assert nf.omega_A == pytest.approx(0.7)
    assert nf.model.C[2] == pytest.approx(0.2)  # the drift along the axis


# ---------------------------------------------------------------------------
# single-axis CC test


def test_oms0_known_verdicts():
    # K = 1, drift perpendicular to the axis: both conditions hold
    m = _axis_model(np.eye(3), [0.0, 1.0, 0.0])
    rep = oms0_check(m)
    assert rep.c1 and rep.c2 and rep.cc
    assert rep.det_K == pytest.approx(1.0)
    assert rep.c2_magnitude == pytest.approx(1.0)
    assert len(closure(generator_set(m))) == 15

    # same interaction, drift along the axis: C2 fails
    m = _axis_model(np.eye(3), [0.0, 0.0, 0.8])
    rep = oms0_check(m)
    assert rep.c1 and not rep.c2 and not rep.cc
    L = closure(generator_set(m))
    trap = orthonormalize(c2_failure_subalgebra())
    assert all(contains(trap, el) for el in L)

    # rank-deficient K: C1 fails
    m = _axis_model(np.diag([1.0, 1.0, 0.0]), [0.0, 1.0, 0.0])
    rep = oms0_check(m)
    assert not rep.c1 and not rep.cc
    assert len(closure(generator_set(m))) < 15


def test_oms0_equivalence_with_closure(rng):
    for violate in (None, None, None, None, "c1", "c1", "c2", "c2"):
        m = random_single_axis_model(rng, violate=violate)
        rep = oms0_check(m)
        dim = len(closure(generator_set(m)))
        assert rep.cc == (dim == 15), (violate, dim, rep)


def test_oms0_rotation_invariance(rng):
    m = _axis_model([[0.9, 0.2, 0.0], [0.0, 0.4, 0.0], [0.3, -0.5, 0.7]],
                    [0.1, 0.6, -0.3])
    base = oms0_check(m)
    for _ in range(10):
        r_a, r_s = (frame(*rng.normal(size=(2, 3))) for _ in range(2))
        rot = TwoQubitModel(omega_S=0.0, K=r_a @ m.K @ r_s.T, C=r_a @ m.C,
                            control=SingleAxis(n=r_a @ m.control.n))
        rep = oms0_check(rot)
        assert rep.c1 == base.c1 and rep.c2 == base.c2
        assert rep.det_K == pytest.approx(base.det_K, abs=1e-9)
        assert rep.c2_magnitude == pytest.approx(base.c2_magnitude, rel=1e-9)


def test_oms0_scale_invariance():
    # C1 and C2 compare against the model's own scale, so rescaling K and C
    # together keeps the verdict (at 1e-3 the seed-5 model used to lose C1
    # while its closure stayed 15-dim)
    for seed in range(20):
        for violate in (None, "c1", "c2"):
            m = random_single_axis_model(np.random.default_rng(seed),
                                         violate=violate)
            base = oms0_check(m)
            for scale in (1e-6, 1e-3, 1e3, 1e6):
                rep = oms0_check(_axis_model(scale * m.K, scale * m.C,
                                             m.control.n))
                assert (rep.c1, rep.c2) == (base.c1, base.c2), (seed, violate,
                                                                scale)
                assert rep.det_K == pytest.approx(scale ** 3 * base.det_K,
                                                  rel=1e-9, abs=1e-9 * scale ** 3)


def test_drift_perp_components_magnitude():
    # in reduced coordinates the two perpendicular pieces are (x, y) from
    # the sigma_z-coupled row and the drift component along e_y
    m = _axis_model([[1.0, 0.3, 0.0], [0.0, 0.5, 0.0], [0.2, -0.4, 0.9]],
                    [0.0, 0.7, 0.1])
    p1, p2 = drift_perp_components(m)
    mag = np.dot(p1, p1) + np.dot(p2, p2)
    assert mag == pytest.approx(0.7 ** 2 + 0.2 ** 2 + (-0.4) ** 2)
    with pytest.raises(ValueError):
        drift_perp_components(ising_model())


# the sigma_x- and sigma_y-coupled rows are parallel (w = 0): C1 fails, and
# K^T n has no component in span{0.5 e_y, e_y}; the second frame is the
# first turned by pi/2 about the S-side y axis, K -> K R_y^T
PARALLEL_ROWS_K = [[0.0, 0.5, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
PARALLEL_ROWS_K_TURNED = [[0.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]


def _scale(m):
    return np.sum(m.K ** 2) + np.dot(m.C, m.C)


def _parallel_rows_model(rng, trapped):
    """A model whose rows coupled to the axes perpendicular to n are
    parallel (or one of them zero), in a random frame; ``trapped`` puts
    C along n and K^T n perpendicular to the rows, so C2 fails too."""
    v = rng.normal(size=3)
    c = rng.normal(size=3)
    C = rng.uniform(-1, 1, 3)
    if trapped:
        c -= np.dot(c, v) / np.dot(v, v) * v
        C[:2] = 0.0
    s1, s2 = rng.choice([0.0, 1.0], p=[0.2, 0.8]) * rng.uniform(-1, 1, 2)
    return _frame_turn(_axis_model([s1 * v, s2 * v, c], C), rng)


def _frame_turn(m, rng):
    """K -> R_A K R_S^T, C -> R_A C, n -> R_A n for random rotations."""
    r_a, r_s = (frame(*rng.normal(size=(2, 3))) for _ in range(2))
    return TwoQubitModel(omega_S=0.0, K=r_a @ m.K @ r_s.T, C=r_a @ m.C,
                         control=SingleAxis(n=r_a @ m.control.n))


@pytest.mark.parametrize("K, C", [
    # b = 0
    ([[1.0, 0.3, 0.2], [0.0, 0.0, 0.0], [0.2, -0.4, 0.9]], [0.0, 0.7, 0.1]),
    # only row c nonzero
    ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.2, -0.4, 0.9]], [0.3, 0.7, 0.1]),
    (PARALLEL_ROWS_K, [0.0, 0.0, 0.7]),
    # C along n
    ([[1.0, 0.3, 0.0], [0.2, 0.5, 0.0], [0.2, -0.4, 0.9]], [0.0, 0.0, 0.7]),
])
def test_normal_form_degenerate_inputs(K, C, rng):
    for m in (_axis_model(K, C), _frame_turn(_axis_model(K, C), rng)):
        nf = normal_form(m)
        for r in (nf.r_a, nf.r_s):
            assert_allclose(r @ r.T, np.eye(3), atol=1e-14)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)
        assert_allclose(nf.r_a @ m.control.n, [0, 0, 1], atol=1e-14)
        assert_allclose(nf.model.K, nf.r_a @ m.K @ nf.r_s.T, atol=1e-14)
        k_nf = nf.model.K
        assert_allclose([k_nf[0, 2], k_nf[1, 0], k_nf[1, 2], nf.model.C[0]],
                        0.0, atol=1e-14)
        assert min(nf.alpha, nf.beta, nf.omega_A) >= 0.0


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([None, "c2"]))
def test_oms0_closed_form_matches_normal_form(seed, violate):
    # C1 holds on both kinds, where the normal form is unique
    m = random_single_axis_model(np.random.default_rng(seed), violate=violate)
    rep = oms0_check(m)
    nf = normal_form(m)
    assert rep.c1 and rep.c2 == (violate is None)
    k_nf = nf.model.K
    assert_allclose([k_nf[0, 2], k_nf[1, 0], k_nf[1, 2]], 0.0,
                    atol=1e-9 * np.abs(k_nf).max())
    nf_c2 = nf.omega_A ** 2 + nf.x ** 2 + nf.y ** 2
    assert rep.c2_magnitude == pytest.approx(nf_c2, rel=1e-9,
                                             abs=1e-12 * _scale(m))
    k3 = np.linalg.norm(m.K) ** 3
    assert abs(rep.det_K) == pytest.approx(abs(nf.alpha * nf.beta * nf.z),
                                           abs=1e-9 * k3)
    assert rep.det_K == pytest.approx(np.linalg.det(m.K), abs=1e-12 * k3)


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([None, "c1", "c2", "parallel", "parallel-trapped"]))
def test_oms0_is_frame_free(seed, kind):
    rng = np.random.default_rng(seed)
    if kind in ("parallel", "parallel-trapped"):
        m = _parallel_rows_model(rng, trapped=kind == "parallel-trapped")
    else:
        m = random_single_axis_model(rng, violate=kind)
    base = oms0_check(m)
    for _ in range(3):
        rep = oms0_check(_frame_turn(m, rng))
        assert (rep.c1, rep.c2) == (base.c1, base.c2), kind
        assert rep.c2_magnitude == pytest.approx(
            base.c2_magnitude, rel=1e-9, abs=1e-12 * _scale(m)), kind
    if kind == "parallel-trapped":
        assert not base.c2 and not base.cc


def test_oms0_parallel_rows_pinned():
    # the normal form resolved K^T n against the xy plane in the first
    # frame (c2 true, magnitude 1) and the yz plane in the second (c2 false)
    for K in (PARALLEL_ROWS_K, PARALLEL_ROWS_K_TURNED):
        m = _axis_model(K, [0.0, 0.0, 0.7])
        rep = oms0_check(m)
        assert not rep.c1 and not rep.c2 and not rep.cc
        assert rep.c2_magnitude == 0.0 and rep.det_K == 0.0
        assert len(closure(generator_set(m))) == 4


def test_oms0_report_holds_python_scalars():
    rep = oms0_check(random_single_axis_model(np.random.default_rng(3)))
    assert [type(v) for v in (rep.c1, rep.c2, rep.cc)] == [bool] * 3
    assert [type(v) for v in (rep.det_K, rep.c2_magnitude)] == [float] * 2


def test_oms0_check_preconditions():
    with pytest.raises(ValueError, match="single-axis control"):
        oms0_check(random_model("2c", np.random.default_rng(0)))
    with pytest.raises(ValueError, match="omega_S = 0"):
        oms0_check(TwoQubitModel(omega_S=1.0, K=np.eye(3), C=[0.0, 1.0, 0.0],
                                 control=SingleAxis(n=[0, 0, 1])))


def test_single_axis_precondition_is_relative():
    # omega_S = 0 is judged against sqrt(||K||_F^2 + ||C||^2), so a scale of
    # the model keeps both the report and the refusal
    def scaled(omega, s):
        return TwoQubitModel(omega_S=s * omega, K=s * np.eye(3),
                             C=[0.0, s, 0.0], control=SingleAxis(n=[0, 0, 1]))

    small, large = (oms0_check(scaled(1e-14, s)) for s in (1.0, 1e6))
    assert (small.c1, small.c2, small.cc) == (large.c1, large.c2, large.cc)
    assert small.cc
    assert large.det_K == pytest.approx(1e18 * small.det_K)
    assert large.c2_magnitude == pytest.approx(1e12 * small.c2_magnitude)
    for s in (1.0, 1e6):
        for check in (oms0_check, normal_form, drift_perp_components):
            check(scaled(1e-14, s))
            with pytest.raises(ValueError, match="omega_S = 0"):
                check(scaled(1e-3, s))


# ---------------------------------------------------------------------------
# identity suites


@settings(max_examples=50)
@given(st_alpha, st_coeff, st_coeff, st_coeff)
def test_gamma_suite_residuals(alpha, gamma, beta, omega_a):
    rep = gamma_suite(alpha, gamma, beta, omega_a)
    assert rep.max_residual < 1e-12
    assert len(rep.residuals) == 18


def test_gamma_suite_rejects_alpha_zero():
    with pytest.raises(ValueError):
        gamma_suite(0.0, 0.1, 0.2, 0.3)


def test_reduced_pair_dims():
    alpha, omega_a = 0.8, 0.3
    rk = np.sqrt(alpha ** 2 + 4 * omega_a ** 2)
    assert reduced_pair_closure_dim(alpha, 0.0, rk, omega_a) == 4
    assert reduced_pair_closure_dim(alpha, 0.0, -rk, omega_a) == 4
    assert reduced_pair_closure_dim(alpha, 0.0, 0.5 * rk, omega_a) == 6
    assert reduced_pair_closure_dim(alpha, 0.4, rk, omega_a) == 6


@pytest.mark.parametrize("scale", [1e-170, 1e-13, 1.0, 1e8])
def test_identity_suites_are_scale_free(scale):
    # the alpha != 0 and mixing-angle guards are relative: the reduced pair
    # closes at 6 at every scale, and the suites run on the same pair
    alpha, gamma, beta, omega_a = (scale * v for v in (0.7, 0.3, -0.4, 0.5))
    assert reduced_pair_closure_dim(alpha, gamma, beta, omega_a) == 6
    rep = gamma_suite(alpha, gamma, beta, omega_a)
    assert rep.max_residual < 1e-12 * max(1.0, scale) ** 2
    assert appendix_b_suite(0.6, 0.0, 0.8, alpha, omega_a).max_residual < 1e-12


def test_identity_suites_refuse_only_a_zero_alpha():
    with pytest.raises(ValueError, match="requires alpha"):
        reduced_pair_closure_dim(1e-13, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="degenerate mixing angle"):
        appendix_b_suite(0.6, 0.0, 0.8, 0.0, 0.0)


def test_reduced_pair_special_basis_spans_closure():
    alpha, omega_a = 0.8, 0.3
    rk = np.sqrt(alpha ** 2 + 4 * omega_a ** 2)
    for flip in (False, True):
        beta = -rk if flip else rk
        L = closure(check_skew_coords(
            pauli_coords(np.array(_l1_l2(alpha, 0.0, beta, omega_a))),
            require_traceless=True, tol=TOL_RANK))
        special = orthonormalize(reduced_pair_special_basis(alpha, omega_a,
                                                            flip=flip))
        assert span_equals(L, special)


@settings(max_examples=50)
@given(st_unit3, st_alpha, st_coeff)
def test_appendix_b_suite_residuals(v, alpha, omega_a):
    rep = appendix_b_suite(*v, alpha, omega_a)
    assert rep.max_residual < 1e-12
    assert len(rep.residuals) == 13


def test_appendix_b_suite_requires_unit_vector():
    with pytest.raises(ValueError):
        appendix_b_suite(1.0, 1.0, 0.0, 0.5, 0.5)


def test_appendix_b_suite_rejects_a_degenerate_mixing_angle():
    with pytest.raises(ValueError, match="degenerate mixing angle"):
        appendix_b_suite(0.0, 0.0, 1.0, 0.0, 0.0)
