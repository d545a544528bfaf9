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
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qindirect.model import (MAX_MAGNITUDE, FullSU2, ModelFormatError,
                             SingleAxis, TwoQubitModel, generator_set,
                             ising_model, load_model, model_from_dict,
                             random_model, random_single_axis_model,
                             read_integer, read_numbers)
from qindirect.qalg import (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, TOL_RANK,
                            check_skew_coords, dagger, frob, from_pauli_coords,
                            pauli_coords, tensor)

from oracles import sigma_from_vec

SIGMAS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

st_k = hnp.arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0))


# the JSON form of ising_model()
ISING = {"omega_S": 1.0, "K": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
         "C": [0.0, 0.0, 0.0], "control": {"type": "full"}}


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
    drift = (m.omega_S * tensor(SIGMA_Z, ID2)
             + 1j * tensor(sigma_from_vec(a), SIGMA_X)
             + 1j * tensor(sigma_from_vec(b), SIGMA_Y)
             + 1j * tensor(sigma_from_vec(c), SIGMA_Z)
             + tensor(ID2, sigma_from_vec(m.C)))
    if isinstance(m.control, FullSU2):
        return [drift] + [tensor(ID2, s) for s in SIGMAS]
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


# one of each kind of malformed number: no number, no array, a ragged
# array, the wrong shape, an integer past the float range, nan and a float
# past MAX_MAGNITUDE; each is put in one entry of an otherwise valid field
MALFORMED = {"None": None, "str": "abc", "dict": {}, "ragged": [[1, 2], [3]],
             "shape": np.ones(2), "int-10^400": 10 ** 400, "nan": np.nan,
             "1e76": 1e76}
FIELDS = {"omega_S": ((), "omega_S"), "K": ((3, 3), "K"), "C": ((3,), "C"),
          "n": ((3,), "control axis")}


def _in_field(shape, value):
    """``value`` as the field of ``shape``: in entry 0 of a field of ones
    when it is a number, the whole field otherwise."""
    if shape == () or not isinstance(value, (int, float)):
        return value
    out = np.ones(shape, dtype=object)
    out.flat[0] = value
    return out.tolist()


@pytest.mark.parametrize("kind", sorted(MALFORMED))
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_malformed_field_is_a_format_error_naming_it(name, kind):
    shape, label = FIELDS[name]
    value = _in_field(shape, MALFORMED[kind])
    with pytest.raises(ModelFormatError, match=f"^{label} "):
        if name == "n":
            SingleAxis(n=value)
        else:
            TwoQubitModel(**{"omega_S": 1.0, "K": np.eye(3), "C": np.zeros(3),
                             name: value})


def test_read_numbers_returns_a_read_only_copy():
    given = np.array([[0.0, 1.0], [-2.0, 1.7e308]])
    out = read_numbers(given, (2, 2), "x")  # no ceiling but the float range
    assert out.dtype == float and np.array_equal(out, given)
    assert not out.flags.writeable and given.flags.writeable
    assert not np.shares_memory(out, given)
    given[0, 0] = 7.0
    assert out[0, 0] == 0.0
    assert np.array_equal(read_numbers([[1, 2]] * 9, (9, 2), "x"),
                          np.tile([1.0, 2.0], (9, 1)))


@pytest.mark.parametrize("value", [
    [1.0, 2.0], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0], None,
    [[1.0, 2.0], [3.0]], "abc", [0, 10 ** 400, 0]],
    ids=["shape", "nan", "inf", "None", "ragged", "str", "int-10^400"])
def test_read_numbers_names_the_field_first(value):
    with pytest.raises(ModelFormatError, match=r"^angle_ranges\.t1 "):
        read_numbers(value, (3,), "angle_ranges.t1")


def test_read_numbers_names_a_ragged_nesting_as_a_shape():
    with pytest.raises(ModelFormatError) as exc:
        read_numbers([[0], 0.5, 0], (3,), "rho_S")
    assert str(exc.value) == "rho_S must have shape (3,), got a ragged nesting"
    with pytest.raises(ModelFormatError) as exc:
        read_numbers([[1.0, 2.0], [3.0]], (2, 2), "x")
    assert str(exc.value) == "x must have shape (2, 2), got a ragged nesting"


def test_read_numbers_names_a_nesting_past_numpys_dimensions_by_depth():
    # np.shape raises past 64 levels as it does for a ragged nesting
    value = 0.0
    for _ in range(70):
        value = [value]
    with pytest.raises(ModelFormatError) as exc:
        read_numbers(value, (3,), "rho_S")
    assert str(exc.value) == ("rho_S must have shape (3,), "
                              "got 70 levels of nesting")


def test_read_integer():
    for value in (5, np.int32(5), np.uint64(5)):
        out = read_integer(value, "n", 1)
        assert type(out) is int and out == 5
    assert read_integer(0, "seed", 0) == 0
    # -10^5000 is past str()'s 4300 digits: the message leaves it out
    for value in (True, 3.0, "4", None, 0, -10 ** 5000):
        with pytest.raises(ModelFormatError) as exc:
            read_integer(value, "n", 1)
        assert str(exc.value) == "n must be an integer of at least 1"


def test_model_copies_the_callers_arrays():
    K, C, n = 2.0 * np.eye(3), np.array([0.1, 0.2, 0.3]), np.array([0., 0., 1.])
    m = TwoQubitModel(omega_S=0.5, K=K, C=C, control=SingleAxis(n=n))
    for given, kept in ((K, m.K), (C, m.C), (n, m.control.n)):
        assert not np.shares_memory(given, kept)
        assert given.flags.writeable
    K[0, 0], C[0], n[0] = 7.0, 7.0, 7.0
    assert m.K[0, 0] == 2.0 and m.C[0] == 0.1 and m.control.n[0] == 0.0


def test_interaction_element_map():
    # K with a single unit entry (j, k) must give i H_I = i sigma_k (x) sigma_j:
    # the row index picks the accessor axis, the column the target axis.
    for j in range(3):
        for k in range(3):
            K = np.zeros((3, 3))
            K[j, k] = 1.0
            drift = _generator_mats(_model(K, omega=0.0, C=np.zeros(3)))[0]
            expect = 1j * tensor(SIGMAS[k], SIGMAS[j])
            assert frob(drift - expect) < 1e-15, (j, k)


def test_hamiltonians_hermitian_and_controls_skew():
    # H = -i x (drift) is Hermitian exactly when the drift is skew-Hermitian
    m = _model(np.eye(3), omega=0.3, C=(0.4, -0.2, 0.9))
    gens = _generator_mats(m)
    assert len(gens) == 4
    for g in gens:
        assert frob(g + dagger(g)) < 1e-12
        check_skew_coords(pauli_coords(g), require_traceless=True, tol=TOL_RANK)
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
    drift = tensor(SIGMA_Z, ID2) + 1j * tensor(SIGMA_Y, SIGMA_Y)
    assert_allclose(gens[0], drift, rtol=0, atol=1e-15)
    for g, s in zip(gens[1:], SIGMAS):
        assert_allclose(g, tensor(ID2, s), rtol=0, atol=1e-15)
    check_skew_coords(pauli_coords(gens[0]), require_traceless=True,
                      tol=TOL_RANK)


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
    K = np.arange(9.0).reshape(3, 3) + 0.5
    d = {"omega_S": -1.25, "K": K.tolist(), "C": [0.1, 0.2, 0.3],
         "control": {"type": "full"}}
    m = model_from_dict(json.loads(json.dumps(d)))
    assert m.omega_S == -1.25
    assert np.array_equal(m.K, K)
    assert np.array_equal(m.C, [0.1, 0.2, 0.3])
    assert isinstance(m.control, FullSU2)


def test_json_round_trip_single_axis():
    d = {"omega_S": 0.0, "K": np.eye(3).tolist(), "C": [1.0, 1.0, 1.0],
         "control": {"type": "axis", "n": [3.0, 0.0, 4.0]}}
    m = model_from_dict(json.loads(json.dumps(d)))
    assert isinstance(m.control, SingleAxis)
    assert_allclose(m.control.n, [0.6, 0.0, 0.8])


def test_model_from_dict_strictness():
    good = ISING
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
    good = ISING
    for field, value in (("omega_S", True), ("omega_S", "1.0"),
                         ("K", [[0, 0, 0], [0, "1", 0], [0, 0, 0]]),
                         ("C", [0, False, 0]),
                         ("control", {"type": "axis", "n": [0, 0, True]})):
        with pytest.raises(ModelFormatError, match="not a finite number"):
            model_from_dict({**good, field: value})


def test_save_load(tmp_path):
    path = tmp_path / "model.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"omega_S": 0.0, "K": np.eye(3).tolist(), "C": [0, 0, 0],
                   "control": {"type": "axis", "n": [0.0, 1.0, 0.0]}}, fh)
    m = load_model(path)
    assert np.array_equal(m.K, np.eye(3))
    assert isinstance(m.control, SingleAxis)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(bad)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_load_model_rejects_non_finite_numbers(tmp_path, literal):
    path = tmp_path / "model.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ISING, fh)
    text = path.read_text()
    assert '"omega_S": 1.0' in text
    path.write_text(text.replace('"omega_S": 1.0', f'"omega_S": {literal}'))
    with pytest.raises(ModelFormatError, match=literal):
        load_model(path)


# a file that is not UTF-8, an integer past int()'s 4300-digit limit and an
# array nested past the parser's recursion limit
UNDECODABLE = {"not-utf8": b'{"omega_S": \xff}',
               "5000-digit-int": b'{"omega_S": 1' + b"0" * 4999 + b"}",
               "5000-deep-array": b"[" * 5000 + b"]" * 5000}


@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_load_model_refuses_an_undecodable_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNDECODABLE[name])
    with pytest.raises(ModelFormatError,
                       match=re.escape(f"invalid JSON in {path}: ")):
        load_model(path)


@pytest.mark.parametrize("digits", [401, 5001])
def test_integer_past_the_float_range_is_a_format_error(digits):
    # str() of a 5001-digit int raises ValueError, so the message must not
    # write the integer out
    value = -10 ** (digits - 1)
    with pytest.raises(ModelFormatError, match="not a finite number"):
        TwoQubitModel(omega_S=value, K=np.eye(3))


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
