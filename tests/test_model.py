"""Tests for model dataclasses, the JSON format, and random draws.

The K -> i H_I element map is frozen entry by entry: row j of K couples
the accessor-side sigma_j, the column index is the target-side component,
and every coupling term carries the explicit scalar i.  ``generator_set``
returns real Pauli coordinates; they are turned into matrices by
``from_pauli_coords`` and checked against an oracle written with tensor
products of the skew Paulis, which does not read the coordinate table that
``generator_set`` uses.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qindirect.model import (MAX_MAGNITUDE, FullSU2, ModelFormatError,
                             SingleAxis, TwoQubitModel, generator_set,
                             ising_model, load_model, model_from_dict,
                             model_to_dict, random_model,
                             random_single_axis_model, save_model)
from qindirect.qalg import (ID2, TOL_RANK, dagger, frob, from_pauli_coords,
                            pauli, sigma_from_vec, skew_coords, tensor)

st_k = hnp.arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0))


def _model(K, omega=0.7, C=(0.1, 0.2, 0.3)):
    return TwoQubitModel(omega_S=omega, K=np.asarray(K, dtype=float),
                         C=np.asarray(C, dtype=float))


def _generator_mats(m):
    """generator_set(m) as a (k, 4, 4) stack of matrices."""
    return from_pauli_coords(generator_set(m))


def _kron_generators(m):
    """Oracle: the drift i(H_S + H_I + H_A) and the control directions as
    tensor products, with rows a, b, c of K coupled to sigma_{x,y,z} on A."""
    a, b, c = m.K
    drift = (m.omega_S * tensor(pauli("z"), ID2)
             + 1j * tensor(sigma_from_vec(a), pauli("x"))
             + 1j * tensor(sigma_from_vec(b), pauli("y"))
             + 1j * tensor(sigma_from_vec(c), pauli("z"))
             + tensor(ID2, sigma_from_vec(m.C)))
    if isinstance(m.control, FullSU2):
        return [drift] + [tensor(ID2, pauli(ax)) for ax in "xyz"]
    return [drift, tensor(ID2, sigma_from_vec(m.control.n))]


def test_ising_model_structure():
    m = ising_model()
    assert m.omega_S == 1.0
    expect = np.zeros((3, 3))
    expect[1, 1] = 1.0
    assert_allclose(m.K, expect)
    assert_allclose(m.C, np.zeros(3))
    assert isinstance(m.control, FullSU2)


def test_validation_rejects_bad_shapes():
    with pytest.raises(ModelFormatError):
        TwoQubitModel(omega_S=1.0, K=np.zeros((3, 3)))  # trivial interaction
    with pytest.raises(ModelFormatError):
        TwoQubitModel(omega_S=1.0, K=np.eye(2))
    with pytest.raises(ModelFormatError):
        TwoQubitModel(omega_S=1.0, K=np.eye(3), C=np.zeros(2))
    with pytest.raises(ModelFormatError, match="finite"):
        TwoQubitModel(omega_S=1.0, K=[[0, 0, 0], [0, np.nan, 0], [0, 0, 0]])
    with pytest.raises(ModelFormatError, match="finite"):
        TwoQubitModel(omega_S=np.inf, K=np.eye(3))
    with pytest.raises(ModelFormatError, match="finite"):
        TwoQubitModel(omega_S=1.0, K=np.eye(3), C=[0.0, -np.inf, 0.0])
    with pytest.raises(ModelFormatError, match="unknown control"):
        TwoQubitModel(omega_S=1.0, K=np.eye(3), control="all")


def test_model_arrays_read_only():
    m = ising_model()
    with pytest.raises(ValueError):
        m.K[1, 1] = 2.0
    with pytest.raises(ValueError):
        m.C[0] = 1.0


def test_single_axis_normalized():
    ax = SingleAxis(n=[0.0, 0.0, 2.0])
    assert_allclose(ax.n, [0.0, 0.0, 1.0])
    with pytest.raises(ModelFormatError):
        SingleAxis(n=[0.0, 0.0, 0.0])
    with pytest.raises(ModelFormatError):
        SingleAxis(n=[1.0, 2.0])
    with pytest.raises(ModelFormatError, match="finite"):
        SingleAxis(n=[0.0, np.nan, 1.0])


def test_model_numbers_are_bounded_by_max_magnitude():
    # at the bound a model is valid; past it, where the closure zeroed a
    # drift row (1e155) and the single-axis test overflowed (1e100), every
    # number of the model is refused
    TwoQubitModel(omega_S=-MAX_MAGNITUDE, K=MAX_MAGNITUDE * np.eye(3),
                  C=[0.0, MAX_MAGNITUDE, 0.0],
                  control=SingleAxis(n=[0.0, 0.0, MAX_MAGNITUDE]))
    for big in (1e76, 1e100, 1e155, 1e200, 1.7e308):
        for field in ({"omega_S": -big}, {"K": big * np.eye(3)},
                      {"C": [0.0, big, 0.0]}):
            with pytest.raises(ModelFormatError, match="at most 1e"):
                TwoQubitModel(**{"omega_S": 1.0, "K": np.eye(3), **field})
        with pytest.raises(ModelFormatError, match="at most 1e"):
            SingleAxis(n=[0.0, 0.0, big])


def test_interaction_element_map():
    # K with a single unit entry (j, k) must give i H_I = i sigma_k (x) sigma_j:
    # the row index picks the accessor axis, the column the target axis.
    axes = "xyz"
    for j in range(3):
        for k in range(3):
            K = np.zeros((3, 3))
            K[j, k] = 1.0
            drift = _generator_mats(_model(K, omega=0.0, C=np.zeros(3)))[0]
            expect = 1j * tensor(pauli(axes[k]), pauli(axes[j]))
            assert frob(drift - expect) < 1e-15, (j, k)


def test_hamiltonians_hermitian_and_controls_skew():
    # H = -i x (drift) is Hermitian exactly when the drift is skew-Hermitian
    m = _model(np.eye(3), omega=0.3, C=(0.4, -0.2, 0.9))
    gens = _generator_mats(m)
    assert len(gens) == 4
    for g in gens:
        assert frob(g + dagger(g)) < 1e-12
        skew_coords(g, require_traceless=True, tol=TOL_RANK)
    axis_m = TwoQubitModel(omega_S=0.0, K=np.eye(3),
                           control=SingleAxis(n=[0.0, 1.0, 0.0]))
    assert len(generator_set(axis_m)) == 2


def test_generator_set_layout():
    m = ising_model()
    coords = generator_set(m)
    # one real array of coordinates, drift row first
    assert coords.shape == (4, 16) and coords.dtype == np.float64
    gens = from_pauli_coords(coords)
    assert len(gens) == 4
    # omega_S sigma_z (x) 1 + i sigma_y (x) sigma_y, then 1 (x) sigma_{x,y,z}
    drift = tensor(pauli("z"), ID2) + 1j * tensor(pauli("y"), pauli("y"))
    assert_allclose(gens[0], drift, rtol=0, atol=1e-15)
    for g, ax in zip(gens[1:], "xyz"):
        assert_allclose(g, tensor(ID2, pauli(ax)), rtol=0, atol=1e-15)
    skew_coords(gens[0], require_traceless=True, tol=TOL_RANK)


st_vec = hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0))


@given(st_k, st_vec, st.floats(-1.0, 1.0), st.one_of(st.none(), st_vec))
def test_generator_set_matches_hamiltonians(K, C, omega, axis):
    # the coordinate-built generators against the kron-built oracle
    assume(np.abs(K).max() > 1e-6)
    assume(axis is None or np.linalg.norm(axis) > 1e-3)
    control = FullSU2() if axis is None else SingleAxis(n=axis)
    m = TwoQubitModel(omega_S=omega, K=K, C=C, control=control)
    expect = _kron_generators(m)
    gens = _generator_mats(m)
    assert len(gens) == len(expect)
    for g, e in zip(gens, expect):
        assert np.abs(g - e).max() <= 1e-14


@given(st_k, st_k)
def test_interaction_additive_in_K(k1, k2):
    assume(np.abs(k1).max() > 1e-6 and np.abs(k2).max() > 1e-6)
    assume(np.abs(k1 + k2).max() > 1e-6)
    # at omega_S = 0 and C = 0 the drift is i H_I alone
    g1, g2, g12 = (_generator_mats(_model(k, omega=0.0, C=np.zeros(3)))[0]
                   for k in (k1, k2, k1 + k2))
    assert frob(g12 - g1 - g2) < 1e-12


def test_json_round_trip_full_control():
    m = _model(np.arange(9.0).reshape(3, 3) + 0.5, omega=-1.25)
    d = model_to_dict(m)
    m2 = model_from_dict(json.loads(json.dumps(d)))
    assert m2.omega_S == m.omega_S
    assert np.array_equal(m2.K, m.K)
    assert np.array_equal(m2.C, m.C)
    assert isinstance(m2.control, FullSU2)


def test_json_round_trip_single_axis():
    m = TwoQubitModel(omega_S=0.0, K=np.eye(3), C=np.ones(3),
                      control=SingleAxis(n=[3.0, 0.0, 4.0]))
    m2 = model_from_dict(model_to_dict(m))
    assert isinstance(m2.control, SingleAxis)
    assert_allclose(m2.control.n, [0.6, 0.0, 0.8])


def test_model_from_dict_strictness():
    good = model_to_dict(ising_model())
    with pytest.raises(ModelFormatError):
        model_from_dict({**good, "extra": 1})
    with pytest.raises(ModelFormatError):
        model_from_dict({k: v for k, v in good.items() if k != "C"})
    with pytest.raises(ModelFormatError):
        model_from_dict({**good, "control": "full"})
    with pytest.raises(ModelFormatError):
        model_from_dict({**good, "control": {"type": "full", "n": [0, 0, 1]}})
    with pytest.raises(ModelFormatError):
        model_from_dict({**good, "control": {"type": "axis"}})
    with pytest.raises(ModelFormatError):
        model_from_dict({**good, "control": {"type": "diagonal"}})
    with pytest.raises(ModelFormatError):
        model_from_dict({**good, "K": "not a matrix"})
    with pytest.raises(ModelFormatError):
        model_from_dict([1, 2, 3])
    # non-finite numbers, here as strings that float() reads as nan / inf
    for field, value in (("omega_S", "nan"), ("K", [[0, 0, 0], [0, "inf", 0],
                                                    [0, 0, 0]]),
                         ("C", [0.0, float("nan"), 0.0]),
                         ("control", {"type": "axis", "n": [0, "-inf", 1]})):
        with pytest.raises(ModelFormatError, match="finite"):
            model_from_dict({**good, field: value})
    # integers beyond the float range
    for field, value in (("omega_S", 10 ** 400), ("C", [0, 10 ** 400, 0])):
        with pytest.raises(ModelFormatError):
            model_from_dict({**good, field: value})


def test_model_from_dict_rejects_bools_and_numeric_strings():
    good = model_to_dict(ising_model())
    for field, value in (("omega_S", True), ("omega_S", "1.0"),
                         ("K", [[0, 0, 0], [0, "1", 0], [0, 0, 0]]),
                         ("C", [0, False, 0]),
                         ("control", {"type": "axis", "n": [0, 0, True]})):
        with pytest.raises(ModelFormatError, match="not a finite number"):
            model_from_dict({**good, field: value})


def test_save_load(tmp_path):
    path = tmp_path / "model.json"
    m = TwoQubitModel(omega_S=0.0, K=np.eye(3),
                      control=SingleAxis(n=[0.0, 1.0, 0.0]))
    save_model(m, path)
    text = path.read_text()
    assert text.endswith("\n")
    m2 = load_model(path)
    assert np.array_equal(m2.K, m.K)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(bad)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_model_rejects_non_finite_numbers(tmp_path, literal):
    path = tmp_path / "model.json"
    save_model(ising_model(), path)
    text = path.read_text()
    assert '"omega_S": 1.0' in text
    path.write_text(text.replace('"omega_S": 1.0', f'"omega_S": {literal}'))
    with pytest.raises(ModelFormatError, match=literal):
        load_model(path)


def test_random_model_case_structure(rng):
    for _ in range(5):
        m = random_model("1a", rng)
        assert m.omega_S != 0.0
        assert np.abs(m.K[:, :2]).max() > 1e-3
        assert np.abs(m.K[:, 2]).max() > 1e-3

        m = random_model("1b", rng)
        assert np.abs(m.K[:, 2]).max() == 0.0
        assert np.abs(m.K[:, :2]).max() > 1e-3

        m = random_model("1c", rng)
        assert np.abs(m.K[:, :2]).max() == 0.0

        m = random_model("2a", rng)
        assert m.omega_S == 0.0
        assert np.linalg.matrix_rank(m.K, tol=1e-9) == 1

        m = random_model("2b", rng)
        s = np.linalg.svd(m.K, compute_uv=False)
        assert s[1] > 1e-3 * s[0] and s[2] < 1e-10 * s[0]

        m = random_model("2c", rng)
        assert abs(np.linalg.det(m.K)) > 1e-3
    with pytest.raises(ValueError):
        random_model("3a", rng)


def test_random_single_axis_draws(rng):
    from qindirect.classify import oms0_check

    m = random_single_axis_model(rng)
    assert m.omega_S == 0.0
    assert isinstance(m.control, SingleAxis)

    for _ in range(5):
        m = random_single_axis_model(rng, violate="c1")
        assert abs(np.linalg.det(m.K)) < 1e-9

        m = random_single_axis_model(rng, violate="c2")
        rep = oms0_check(m)
        assert rep.c1 and not rep.c2

    with pytest.raises(ValueError):
        random_single_axis_model(rng, violate="c3")
