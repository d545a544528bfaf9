"""Tests for model dataclasses, the JSON format, and random draws.

The K -> i H_I element map is frozen entry by entry: row j of K couples
the accessor-side sigma_j, the column index is the target-side component,
and every coupling term carries the explicit scalar i.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qindirect.model import (DFSplit, FullSU2, ModelFormatError, SingleAxis,
                             TwoQubitModel, control_directions, df_split,
                             generator_set, hamiltonians, ising_model,
                             load_model, model_from_dict, model_to_dict,
                             random_model, random_single_axis_model,
                             save_model)
from qindirect.qalg import (ID2, dagger, frob, is_skew_hermitian, pauli,
                            tensor)

st_k = hnp.arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0))


def _model(K, omega=0.7, C=(0.1, 0.2, 0.3)):
    return TwoQubitModel(omega_S=omega, K=np.asarray(K, dtype=float),
                         C=np.asarray(C, dtype=float))


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


def test_rows_property():
    m = _model(np.arange(9.0).reshape(3, 3) + 1.0)
    a, b, c = m.rows
    assert_allclose(a, [1.0, 2.0, 3.0])
    assert_allclose(c, [7.0, 8.0, 9.0])


def test_interaction_element_map():
    # K with a single unit entry (j, k) must give i H_I = i sigma_k (x) sigma_j:
    # the row index picks the accessor axis, the column the target axis.
    axes = "xyz"
    for j in range(3):
        for k in range(3):
            K = np.zeros((3, 3))
            K[j, k] = 1.0
            h = hamiltonians(_model(K))
            ihi = 1j * h.h_i
            expect = 1j * tensor(pauli(axes[k]), pauli(axes[j]))
            assert frob(ihi - expect) < 1e-15, (j, k)


def test_hamiltonians_hermitian_and_controls_skew():
    m = _model(np.eye(3), omega=0.3, C=(0.4, -0.2, 0.9))
    h = hamiltonians(m)
    for mat in (h.h_s, h.h_i, h.h_a):
        assert frob(mat - dagger(mat)) < 1e-12
    for ctl in h.controls:
        assert is_skew_hermitian(ctl)
    assert len(h.controls) == 3
    axis_m = TwoQubitModel(omega_S=0.0, K=np.eye(3),
                           control=SingleAxis(n=[0.0, 1.0, 0.0]))
    assert len(hamiltonians(axis_m).controls) == 1


def test_generator_set_layout():
    m = ising_model()
    gens = generator_set(m)
    assert len(gens) == 4
    h = hamiltonians(m)
    assert_allclose(gens[0], 1j * (h.h_s + h.h_i + h.h_a))
    assert is_skew_hermitian(gens[0])


st_vec = hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0))


@given(st_k, st_vec, st.floats(-1.0, 1.0), st.one_of(st.none(), st_vec))
def test_generator_set_matches_hamiltonians(K, C, omega, axis):
    # the coordinate-built generators against the kron-built Hamiltonians
    assume(np.abs(K).max() > 1e-6)
    assume(axis is None or np.linalg.norm(axis) > 1e-3)
    control = FullSU2() if axis is None else SingleAxis(n=axis)
    m = TwoQubitModel(omega_S=omega, K=K, C=C, control=control)
    h = hamiltonians(m)
    expect = [1j * (h.h_s + h.h_i + h.h_a)] + h.controls
    gens = generator_set(m)
    assert len(gens) == len(expect)
    for g, e in zip(gens, expect):
        assert np.abs(g - e).max() <= 1e-14


def test_control_directions_rejects_unknown():
    with pytest.raises(ModelFormatError):
        control_directions("all")


@given(st_k, st_k)
def test_interaction_additive_in_K(k1, k2):
    assume(np.abs(k1).max() > 1e-6 and np.abs(k2).max() > 1e-6)
    assume(np.abs(k1 + k2).max() > 1e-6)
    h1 = hamiltonians(_model(k1)).h_i
    h2 = hamiltonians(_model(k2)).h_i
    h12 = hamiltonians(_model(k1 + k2)).h_i
    assert frob(h12 - h1 - h2) < 1e-12


def test_df_split():
    K = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    split = df_split(_model(K))
    assert isinstance(split, DFSplit)
    assert_allclose(split.D, K[:, :2])
    assert_allclose(split.F, K[:, 2])
    assert split.rank_K == 2


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
