"""Tests for the reachable-set sampler and its CSV round trip.

The closed form of the six-factor propagator is cross-checked against the
plain exponential product over random angles; each rotation of the
coordinate sweep against the conjugation by its 4x4 exponential; the
sampled clouds against the per-point matrix route and for the symmetries
that the figure configurations rely on.
"""

import io

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from qindirect import sampler
from qindirect.model import ModelFormatError
from qindirect.qalg import (ID2, SIGMA_X, SIGMA_Z, dagger, frob,
                            mat_exp, pauli_coords, state_bloch, tensor)
from qindirect.sampler import (ANGLE_NAMES, DEFAULT_RANGE, SampleConfig,
                               _angle_table, emit_csv, kak_to_alphas,
                               parse_csv, reachable_point, sample,
                               y_closed_form, y_product)

from oracles import ID4

st_alphas = st.tuples(*[st.floats(-5.0, 5.0)] * 6)
st_angle = st.floats(0.0, 4.0 * np.pi)


def test_angle_names_and_default_range():
    assert ANGLE_NAMES == ("t1", "t3", "t4", "a1", "a2", "s1", "s2", "s3", "s4")
    assert DEFAULT_RANGE == (0.0, 4.0 * np.pi)


def test_kak_to_alphas_frozen():
    assert_allclose(kak_to_alphas(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                    [-0.25, 1.0, 1.5, -1.0, 2.5, -1.5])


@given(st_alphas)
def test_closed_form_matches_product(alphas):
    y1 = y_closed_form(alphas)
    y2 = y_product(alphas)
    assert frob(y1 - y2) < 1e-12
    assert frob(y1 @ dagger(y1) - ID4) < 1e-12


def test_closed_form_identity_at_zero():
    assert_allclose(y_closed_form(np.zeros(6)), ID4, atol=1e-15)


# the generator of each factor of the sweep as a 4x4 matrix, built from the
# sigma matrices rather than from the E_ab dictionary
_FACTOR_GENERATORS = {
    "s3": tensor(SIGMA_Z, ID2), "s1": tensor(SIGMA_Z, ID2),
    "t4": tensor(SIGMA_Z, ID2), "t1": tensor(SIGMA_Z, ID2),
    "s2": 1j * tensor(SIGMA_X, SIGMA_Z), "t3": 1j * tensor(SIGMA_X, SIGMA_Z),
    "a2": 1j * tensor(SIGMA_X, SIGMA_X),
    "a1": tensor(ID2, SIGMA_X),
}


def test_sweep_covers_every_angle_but_s4():
    names = [name for name, _, _ in sampler._SWEEP]
    assert sorted(names) == sorted(set(ANGLE_NAMES) - {"s4"})
    assert names[0] == "s3" and names[-1] == "t1"


def _rotate(x, planes, cos, sin) -> None:
    """The sweep's turn one plane (x_k, x_l) at a time: the oracle of
    ``sampler._turn``."""
    k, l = planes.T
    xk, xl = x[k], x[l]
    x[k] = cos * xk - sin * xl
    x[l] = sin * xk + cos * xl


def _turn_all(x, j, cos, sin) -> None:
    """``sampler._turn`` on every plane of the factor on E_j."""
    (kl, lk), = sampler._turns((sampler._PLANES[j],))
    sampler._turn(x, kl, lk, cos, np.reshape([-sin, sin], (2, 1, -1)))


@pytest.mark.parametrize("name, j, g", sampler._SWEEP)
@pytest.mark.parametrize("theta", [0.7, -1.3, 2.9, -4.1])
def test_sweep_rotation_matches_conjugation(name, j, g, theta, rng):
    # one factor's turn of random coordinates (five columns) equals the
    # conjugation of the matrices by U = e^{theta G}
    m = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
    rho = 0.25 * (m + dagger(m))
    x = pauli_coords(1j * rho).real.T.copy()
    u = mat_exp(theta * _FACTOR_GENERATORS[name])
    expect = pauli_coords(1j * (u @ rho @ dagger(u))).real.T
    _turn_all(x, j, np.cos(theta * g), np.sin(theta * g))
    assert np.abs(x - expect).max() <= 1e-14


@pytest.mark.parametrize("j", sorted(sampler._PLANES))
def test_turn_is_the_plane_rotation_bit_for_bit(j, rng):
    # one angle per column, as the sweep passes them; zeros of both signs
    # among the coordinates, so the sign of every zero is compared too
    x = rng.normal(size=(16, 64))
    x[:, ::4] = 0.0
    x[:, 1::4] = -0.0
    phi = rng.uniform(-10.0, 10.0, 64)
    cos, sin = np.cos(phi), np.sin(phi)
    turned = x.copy()
    _turn_all(turned, j, cos, sin)
    _rotate(x, sampler._PLANES[j], cos, sin)
    assert turned.tobytes() == x.tobytes()


def test_first_factor_turns_into_zeros():
    # sample() writes s3 as x_k cos and x_k sin: the start state is zero
    # at the l coordinate of each of its planes
    assert sampler._SWEEP[0][0] == "s3"
    k, l = sampler._TURNS[0][0]
    assert np.isin(k, sampler._START).all()
    assert not np.isin(l, sampler._START).any()


def test_sample_config_validation():
    SampleConfig(s_x=0.6, s_z=0.8, a_z=1.0)  # boundary of the ball is fine
    with pytest.raises(ValueError):
        SampleConfig(s_x=0.8, s_z=0.8, a_z=0.0)
    with pytest.raises(ValueError):
        SampleConfig(s_x=0.0, s_z=0.0, a_z=1.5)
    with pytest.raises(ValueError):
        SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, n=0)
    with pytest.raises(ValueError):
        SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, mode="sobol")
    with pytest.raises(ValueError):
        SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0,
                     angle_ranges=((0.0, 1.0),) * 8)
    with pytest.raises(ValueError):
        SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0,
                     angle_ranges=((1.0, 0.0),) * 9)
    for bad in (np.nan, np.inf, -np.inf):
        for key in ("s_x", "s_z", "a_z"):
            state = {"s_x": 0.0, "s_z": 0.5, "a_z": 0.0, key: bad}
            with pytest.raises(ValueError, match="finite"):
                SampleConfig(**state)
    # lists are coerced to float tuples
    cfg = SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0,
                       angle_ranges=[[0, 1]] * 9)
    assert cfg.angle_ranges == ((0.0, 1.0),) * 9


def test_reachable_point_zero_angles():
    cfg = SampleConfig(s_x=0.3, s_z=0.4, a_z=0.7)
    p = reachable_point(cfg, np.zeros(9))
    assert_allclose(p, [0.3, 0.0, 0.4], atol=1e-12)


@pytest.mark.parametrize("state", [(0.3, 0.4, 0.7), (0.5, 0.0, 1.0),
                                   (0.0, -0.6, -0.2)])
def test_initial_a_rotation_irrelevant(state, rng):
    # rho_A is diagonal, so e^{s4 sz} rho_A e^{-s4 sz} = rho_A: the batched
    # sampler skips this rotation, and the oracle, which applies it, agrees
    s_x, s_z, a_z = state
    cfg = SampleConfig(s_x=s_x, s_z=s_z, a_z=a_z)
    for _ in range(4):
        row = rng.uniform(0.0, 4 * np.pi, 9)  # (t1, t3, ..., s3, s4)
        row[8] = 0.0
        ref = reachable_point(cfg, row)
        for s4 in (0.3, -1.7, np.pi, 2.5 * np.pi, 11.0):
            row[8] = s4
            p = reachable_point(cfg, row)
            assert np.abs(p - ref).max() <= 1e-15


def test_final_z_rotation_preserves_height_and_radius(rng):
    cfg = SampleConfig(s_x=0.5, s_z=0.1, a_z=0.9)
    rows = np.repeat(rng.uniform(0, 4 * np.pi, (1, 9)), 5, axis=0)
    rows[:, 0] = rng.uniform(0, 4 * np.pi, 5)  # t1
    pts = [reachable_point(cfg, row) for row in rows]
    z = [p[2] for p in pts]
    r = [np.hypot(p[0], p[1]) for p in pts]
    assert np.ptp(z) < 1e-12
    assert np.ptp(r) < 1e-12


def test_initial_s_rotation_irrelevant_for_axial_state(rng):
    # with s_x = 0 the initial S state commutes with its z-rotation
    cfg = SampleConfig(s_x=0.0, s_z=0.8, a_z=0.3)
    row = rng.uniform(0, 4 * np.pi, 9)
    row[[0, 7, 8]] = 0.7, 0.0, 1.1  # t1, s3, s4
    p0 = reachable_point(cfg, row)
    row[7] = 2.5
    p1 = reachable_point(cfg, row)
    assert_allclose(p0, p1, atol=1e-12)


@given(st.tuples(*[st_angle] * 9))
def test_sampled_points_stay_in_ball(angles):
    cfg = SampleConfig(s_x=0.4, s_z=0.2, a_z=0.9)
    p = reachable_point(cfg, angles)
    assert np.linalg.norm(p) <= 1.0 + 1e-9


def test_sample_deterministic():
    cfg = SampleConfig(s_x=0.0, s_z=0.5, a_z=1.0, n=16, seed=5)
    p1 = sample(cfg)
    p2 = sample(cfg)
    assert np.array_equal(p1, p2)
    assert p1.shape == (16, 3)
    p3 = sample(SampleConfig(s_x=0.0, s_z=0.5, a_z=1.0, n=16, seed=6))
    assert not np.array_equal(p1, p3)


def test_grid_mode_ignores_seed():
    kw = dict(s_x=0.0, s_z=0.5, a_z=1.0, n=16, mode="grid")
    p1 = sample(SampleConfig(seed=1, **kw))
    p2 = sample(SampleConfig(seed=2, **kw))
    assert np.array_equal(p1, p2)


def test_grid_table_layout():
    cfg = SampleConfig(s_x=0.0, s_z=0.0, a_z=0.0, n=4, mode="grid",
                       angle_ranges=((0.0, 1.0),) * 9)
    table = _angle_table(cfg)
    assert table.shape == (4, 9)
    # per-axis count 2 -> midpoints 0.25 / 0.75, C-order unraveling:
    # consecutive indices vary the last axis first
    assert_allclose(table[0], [0.25] * 9)
    assert_allclose(table[1], [0.25] * 8 + [0.75])
    assert_allclose(table[2], [0.25] * 7 + [0.75, 0.25])


# the four reference initial states (axial/equatorial target x mixed/pure
# accessor) of the point-cloud figures
REFERENCE_STATES = [(0.0, 0.5, 0.0), (0.5, 0.0, 0.0),
                    (0.0, 0.5, 1.0), (0.5, 0.0, 1.0)]


def _point_loop(cfg):
    """sample() one row at a time through the per-point oracle."""
    return np.array([reachable_point(cfg, row)
                     for row in _angle_table(cfg)]).reshape(-1, 3)


# s_x, s_z and a_z all nonzero: the start state holds every coordinate of
# the support that the sampler's live planes are derived from
FULL_SUPPORT_STATE = (0.3, -0.4, 0.7)
GRID_RANGES = tuple((0.1 * k, 0.1 * k + 2.0 + 0.5 * k) for k in range(9))


@pytest.mark.parametrize("state", REFERENCE_STATES + [FULL_SUPPORT_STATE])
@pytest.mark.parametrize("mode, ranges", [
    ("random", (DEFAULT_RANGE,) * 9),
    ("grid", GRID_RANGES),
])
def test_batched_sample_matches_point_loop(state, mode, ranges):
    s_x, s_z, a_z = state
    cfg = SampleConfig(s_x=s_x, s_z=s_z, a_z=a_z, n=300, seed=17,
                       mode=mode, angle_ranges=ranges)
    assert np.abs(sample(cfg) - _point_loop(cfg)).max() <= 1e-14


def _plane_sweep(cfg):
    """sample() as the sweep of one-plane turns of ``_rotate``, s3 turned
    like every other factor, over the whole table in one pass."""
    table = _angle_table(cfg)
    state = 0.5 * np.outer([1.0, cfg.s_x, 0.0, cfg.s_z],
                           [1.0, 0.0, 0.0, cfg.a_z]).ravel()
    half = table[:, sampler._SWEEP_COLUMNS].T * sampler._HALF_SCALE[:, None]
    cos, sin = sampler._half_angle_turn(half)
    x = np.repeat(state[:, None], len(table), axis=1)
    for planes, c, s in zip(sampler._LIVE, cos, sin):
        _rotate(x, planes, c, s)
    return state_bloch(2.0 * x[sampler._READ].T)


@pytest.mark.parametrize("state", REFERENCE_STATES)
@pytest.mark.parametrize("mode, ranges, n", [
    ("random", (DEFAULT_RANGE,) * 9, 729),
    ("grid", GRID_RANGES, 729),
    ("random", (DEFAULT_RANGE,) * 9, 2 * sampler._BLOCK + 3),
    ("grid", GRID_RANGES, 2 * sampler._BLOCK + 3),
])
def test_sample_equals_the_plane_sweep(state, mode, ranges, n):
    # the same values at every coordinate, not only to rounding (an exact
    # zero may change sign)
    s_x, s_z, a_z = state
    cfg = SampleConfig(s_x=s_x, s_z=s_z, a_z=a_z, n=n, seed=11, mode=mode,
                       angle_ranges=ranges)
    assert np.array_equal(sample(cfg), _plane_sweep(cfg))


def test_batched_sample_row_blocks(monkeypatch):
    # 50 rows in blocks of 7: six full blocks and a tail of one
    monkeypatch.setattr(sampler, "_BLOCK", 7)
    cfg = SampleConfig(s_x=0.5, s_z=0.0, a_z=1.0, n=50, seed=2)
    assert np.abs(sample(cfg) - _point_loop(cfg)).max() <= 1e-14


@pytest.mark.parametrize("state", REFERENCE_STATES + [FULL_SUPPORT_STATE])
@pytest.mark.parametrize("mode, ranges", [("random", (DEFAULT_RANGE,) * 9),
                                          ("grid", GRID_RANGES)])
def test_live_planes_match_all_planes(state, mode, ranges, monkeypatch):
    # the sweep over the live planes against the sweep over every plane of
    # each factor, from a start state written here from the two Bloch
    # vectors; the values agree exactly (an exact zero may change sign)
    s_x, s_z, a_z = state
    cfg = SampleConfig(s_x=s_x, s_z=s_z, a_z=a_z, n=300, seed=8, mode=mode,
                       angle_ranges=ranges)
    start = 0.5 * np.outer([1.0, s_x, 0.0, s_z], [1.0, 0.0, 0.0, a_z]).ravel()
    table = _angle_table(cfg)
    live = sampler._sample_block(start, table)
    monkeypatch.setattr(sampler, "_TURNS", sampler._turns(
        sampler._PLANES[j] for _, j, _ in sampler._SWEEP))
    assert np.array_equal(live, sampler._sample_block(start, table))


st_huge = st.floats(-1e300, 1e300, allow_nan=False)
st_quarter_turns = st.integers(-10 ** 9, 10 ** 9).map(lambda k: k * np.pi / 2)


@given(st.lists(st_huge | st_quarter_turns, min_size=1, max_size=40))
def test_half_angle_turn_matches_cos_sin(phis):
    # the sweep's cos and sin of phi from one tangent of phi / 2, on an
    # array as the sweep passes them, for huge angles and at the zeros and
    # poles of cos and sin
    phi = np.array(phis)
    c, s = sampler._half_angle_turn(phi / 2)
    assert np.abs(c - np.cos(phi)).max() <= 1e-15
    assert np.abs(s - np.sin(phi)).max() <= 1e-15
    assert np.abs(c * c + s * s - 1.0).max() <= 2e-15


@pytest.mark.parametrize("n, passes", [(729, 1),
                                       (100000, -(-100000 // sampler._BLOCK))])
def test_sample_passes(n, passes, monkeypatch):
    # the default cloud in one pass, a large one in passes of _BLOCK rows
    block = sampler._sample_block
    rows = []
    monkeypatch.setattr(sampler, "_sample_block",
                        lambda state, table: rows.append(len(table))
                        or block(state, table))
    sample(SampleConfig(s_x=0.5, s_z=0.0, a_z=1.0, n=n, seed=1))
    assert len(rows) == passes
    assert sum(rows) == n


def test_sample_block_checks_every_point():
    # the start states of a pure accessor and of a target outside the ball
    state = 0.5 * np.outer([1.0, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, 1.0]).ravel()
    outside = 0.5 * np.outer([1.0, 1.5, 0.0, 0.0],
                             [1.0, 0.0, 0.0, 1.0]).ravel()
    table = np.zeros((5, 9))
    assert_allclose(sampler._sample_block(state, table), [[0.0, 0.0, 0.5]] * 5)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        sampler._sample_block(outside, table)
    table[3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        sampler._sample_block(state, table)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (0.0, np.inf),
                                    (-np.inf, 0.0), (np.nan, 1.0)])
def test_sample_config_rejects_range_of_non_finite_width(lo, hi):
    ranges = [DEFAULT_RANGE] * 9
    ranges[1] = (lo, hi)
    with pytest.raises(ValueError, match="finite-width"):
        SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, angle_ranges=ranges)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "4"])
def test_sample_config_rejects_a_count_that_is_no_integer(n):
    with pytest.raises(ModelFormatError, match="n must be an integer"):
        SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, n=n)


@pytest.mark.parametrize("n", [0, -3])
def test_sample_config_rejects_a_count_below_one(n):
    with pytest.raises(ModelFormatError, match="integer of at least 1"):
        SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, n=n)


def test_sample_config_checks_its_states_as_sample_checks_points():
    # the ball of qalg.state_bloch, |p| <= 1 + 2 TOL_EIG, for both qubits
    edge = 1.0 + 1.9e-10
    SampleConfig(s_x=edge, s_z=0.0, a_z=-edge)
    for state in ({"s_x": 0.0, "s_z": 1.0 + 5e-10, "a_z": 0.0},
                  {"s_x": 0.0, "s_z": 0.0, "a_z": 1.0 + 5e-10}):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            SampleConfig(**state)
    # Ky Fan: with one start state in the unit ball every point passes;
    # the s2 factor turns S about x by an angle that depends on A's z,
    # which carries s_z a_z into y, past the ball when both are past it
    ranges = [(0.0, 0.0)] * 9
    ranges[ANGLE_NAMES.index("s2")] = DEFAULT_RANGE
    points = sample(SampleConfig(s_x=0.0, s_z=edge, a_z=1.0, n=200,
                                 angle_ranges=ranges))
    assert np.linalg.norm(points, axis=1).max() <= edge + 1e-15
    with pytest.raises(ValueError, match="negative eigenvalue"):
        sample(SampleConfig(s_x=0.0, s_z=edge, a_z=edge, n=200,
                            angle_ranges=ranges))


@pytest.mark.parametrize("field", [
    {"s_x": "a"}, {"s_x": None}, {"a_z": [0.5]}, {"s_z": 10 ** 400},
    {"angle_ranges": 5}, {"angle_ranges": [(0, 1, 2)] * 9},
    {"angle_ranges": [("a", 1.0)] * 9}, {"angle_ranges": [None] * 9},
])
def test_sample_config_raises_model_format_error_for_malformed_fields(field):
    with pytest.raises(ModelFormatError, match="angle_ranges"):
        SampleConfig(**{"s_x": 0.0, "s_z": 0.5, "a_z": 0.0, **field})


def test_sample_config_reads_its_state_numbers_as_floats():
    cfg = SampleConfig(s_x=np.float32(0.5), s_z=0, a_z=np.int64(1))
    assert (cfg.s_x, cfg.s_z, cfg.a_z) == (0.5, 0.0, 1.0)
    assert all(type(v) is float for v in (cfg.s_x, cfg.s_z, cfg.a_z))


@pytest.mark.parametrize("seed", [1.5, -1, 2.0, True])
def test_sample_config_rejects_a_bad_seed(seed):
    with pytest.raises(ModelFormatError, match="seed must be an integer"):
        SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, seed=seed)


def test_sample_config_takes_numpy_integers():
    cfg = SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, n=np.int32(5),
                       seed=np.uint64(3))
    expect = sample(SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, n=5, seed=3))
    assert np.array_equal(sample(cfg), expect)


def test_sample_config_names_a_reversed_range():
    ranges = [DEFAULT_RANGE] * 9
    ranges[ANGLE_NAMES.index("s3")] = (2.0, 1.0)
    with pytest.raises(ModelFormatError, match="s3"):
        SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, angle_ranges=ranges)


@pytest.mark.parametrize("mode", ["random", "grid"])
def test_widest_finite_range_samples(mode):
    ranges = [DEFAULT_RANGE] * 9
    ranges[1] = (-1e308, 7e307)  # hi - lo = 1.7e308
    points = sample(SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, n=20, mode=mode,
                                 angle_ranges=ranges))
    assert np.isfinite(points).all()
    assert (np.linalg.norm(points, axis=1) <= 0.5 + 1e-12).all()


def test_closed_form_broadcasts_row_by_row(rng):
    alphas = rng.uniform(-2 * np.pi, 2 * np.pi, (40, 6))
    stacked = y_closed_form(alphas)
    assert stacked.shape == (40, 4, 4)
    for row, y in zip(alphas, stacked):
        assert_allclose(y, y_closed_form(row), rtol=0, atol=1e-15)
    assert y_closed_form(alphas.reshape(5, 8, 6)).shape == (5, 8, 4, 4)
    with pytest.raises(ValueError):
        y_closed_form(np.zeros(5))


def _grid_table_per_index(cfg):
    """The grid table built one index at a time, as the oracle."""
    lo = np.array([r[0] for r in cfg.angle_ranges])
    hi = np.array([r[1] for r in cfg.angle_ranges])
    m = 1
    while m ** 9 < cfg.n:
        m += 1
    steps = (np.arange(m) + 0.5) / m
    table = np.empty((cfg.n, 9))
    for idx in range(cfg.n):
        digits = np.unravel_index(idx, (m,) * 9)
        table[idx] = lo + (hi - lo) * steps[list(digits)]
    return table


@pytest.mark.parametrize("n", [1, 4, 729, 1000, 2, 511, 512, 513])
def test_grid_table_matches_per_index_construction(n):
    ranges = tuple((-0.5 * k, 1.0 + k) for k in range(9))
    cfg = SampleConfig(s_x=0.0, s_z=0.0, a_z=0.0, n=n, mode="grid",
                       angle_ranges=ranges)
    assert np.array_equal(_angle_table(cfg), _grid_table_per_index(cfg))


def test_axial_config_keeps_cloud_on_axis():
    cfg = SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, n=32, seed=3)
    pts = sample(cfg)
    assert np.abs(pts[:, :2]).max() < 1e-10


def test_equatorial_config_keeps_cloud_in_plane():
    cfg = SampleConfig(s_x=0.5, s_z=0.0, a_z=0.0, n=32, seed=3)
    pts = sample(cfg)
    assert np.abs(pts[:, 2]).max() < 1e-10


def test_pure_accessor_lifts_purity():
    cfg = SampleConfig(s_x=0.0, s_z=0.5, a_z=1.0, n=128, seed=0)
    pts = sample(cfg)
    assert np.linalg.norm(pts, axis=1).max() > 0.5 + 1e-6


def test_csv_round_trip_memory_and_file(tmp_path):
    pts = sample(SampleConfig(s_x=0.0, s_z=0.5, a_z=1.0, n=8, seed=11))
    buf = io.StringIO()
    emit_csv(pts, buf, seed=11)
    text = buf.getvalue()
    assert text.startswith("# seed=11\nx,y,z\n")
    assert text.endswith("\n")
    back = parse_csv(io.StringIO(text))
    assert np.array_equal(back, pts)  # 17 significant digits are lossless

    path = tmp_path / "cloud.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        emit_csv(pts, fh)
    assert not path.read_text().startswith("#")  # no seed comment by default
    with open(path, encoding="utf-8") as fh:
        assert np.array_equal(parse_csv(fh), pts)


def _emit_rows(points, seed):
    """emit_csv's output written one row at a time, as the oracle; a zero
    is written as 0 whatever its sign."""
    text = "" if seed is None else f"# seed={seed}\n"
    text += "x,y,z\n"
    for p in points:
        text += "%.17g,%.17g,%.17g\n" % (p[0] + 0.0, p[1] + 0.0, p[2] + 0.0)
    return text


def test_emit_csv_matches_row_format():
    tiny = np.finfo(float).tiny
    special = np.array([[-0.0, 0.0, 5e-324], [-5e-324, tiny / 3, -tiny],
                        [1.0, -1.0, 0.1], [1e-300, -2.5e-310, 1 / 3]])
    cloud = sample(SampleConfig(s_x=0.5, s_z=0.0, a_z=1.0, n=300, seed=4))
    # two full formatting steps and one row more
    long = np.resize(cloud, (2 * sampler._CSV_ROWS + 1, 3))
    for points, seed in ((special, None), (cloud, 7), (cloud[:1], 0),
                         (np.empty((0, 3)), None), (long, 1)):
        buf = io.StringIO()
        emit_csv(points, buf, seed=seed)
        assert buf.getvalue() == _emit_rows(points, seed)
        back = parse_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back, points)
        # the sign survives on every value but zero
        assert np.array_equal(np.signbit(back), np.signbit(points + 0.0))
    buf = io.StringIO()
    emit_csv(special.tolist(), buf)  # nested lists are accepted too
    assert buf.getvalue() == _emit_rows(special, None)


def test_emit_csv_writes_no_negative_zero():
    # this cloud has exact -0.0 z-coordinates; the text writes each as 0
    pts = sample(SampleConfig(s_x=0.5, s_z=0.0, a_z=0.0, n=729, seed=3))
    assert np.count_nonzero((pts == 0.0) & np.signbit(pts)) > 0
    buf = io.StringIO()
    emit_csv(pts, buf, seed=3)
    fields = [f for line in buf.getvalue().splitlines()[2:]
              for f in line.split(",")]
    assert len(fields) == 3 * 729
    assert "-0" not in fields
    assert np.array_equal(parse_csv(io.StringIO(buf.getvalue())), pts)


def test_parse_csv_skips_comments_and_blanks():
    text = "# comment\n\nx,y,z\n1.0,2.0,3.0\n\n# tail\n4.0,5.0,6.0\n"
    pts = parse_csv(io.StringIO(text))
    assert_allclose(pts, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert parse_csv(io.StringIO("x,y,z\n")).shape == (0, 3)
