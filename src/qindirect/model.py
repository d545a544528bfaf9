"""Two-qubit indirect-control model: drift parameters and control layout.

A model is (omega_S, K, C, control):

* ``omega_S`` scales the free target Hamiltonian, i H_S = omega_S sigma_z (x) 1.
* ``K`` is the real 3x3 interaction matrix with rows a, b, c, giving
  i H_I = i sigma_a (x) sigma_x + i sigma_b (x) sigma_y + i sigma_c (x) sigma_z
  (row j of K couples to the accessor-side sigma_j; the columns are the
  target-side components).  D denotes the first two columns, F the third.
* ``C`` defines the accessor drift i H_A = 1 (x) sigma_C.
* ``control`` is either full su(2) on the accessor (three independent
  directions) or a single fixed axis.

``generator_set`` gives the Lie layer one real (k, 16) coordinate array.
``read_numbers`` reads every number that comes from outside: the model's
fields here, under the MAX_MAGNITUDE ceiling, and the fields of
``sampler.SampleConfig`` and the CLI's arrays.  ``read_integer`` reads
every integer: ``SampleConfig``'s n and seed and the CLI's draws and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .qalg import E_AB, TOL_RANK, frame


# Largest magnitude of a model number: the highest power in any verdict,
# ||K^T u1 x K^T u2||^2 <= 81 max|K|^4 of oms0_check, is finite up to 1e75.
MAX_MAGNITUDE = 1e75


class ModelFormatError(ValueError):
    """Raised for malformed model files or dictionaries."""


def read_numbers(value, shape: tuple, name: str) -> np.ndarray:
    """A read-only float copy of ``value`` of the given shape with finite
    entries; anything else is one ModelFormatError whose message starts
    with ``name``."""
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        try:
            np.shape(value)  # raises for a ragged nesting or past 64 levels
        except ValueError:
            depth = 0  # counted along first elements
            while isinstance(value, (list, tuple)) and value:
                depth, value = depth + 1, value[0]
            raise ModelFormatError(f"{name} must have shape {shape}, got " + (
                f"{depth} levels of nesting" if depth > 64
                else "a ragged nesting")) from None
        # str() of an int past 4300 digits raises: leave ``value`` out
        raise ModelFormatError(f"{name} is not a finite number: {exc}") from None
    if out.shape != shape:
        raise ModelFormatError(f"{name} must have shape {shape}, "
                               f"got {out.shape}")
    if not np.isfinite(out).all():
        raise ModelFormatError(f"{name} must be finite numbers")
    out.setflags(write=False)
    return out


def read_integer(value, name: str, low: int) -> int:
    """``value`` as a Python int if it is an int or a numpy integer, not a
    bool, of at least ``low``; anything else is one ModelFormatError whose
    message leaves the value out, as str() refuses an int past 4300 digits."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or int(value) < low):
        raise ModelFormatError(f"{name} must be an integer of at least {low}")
    return int(value)


def _numbers(value, shape: tuple, name: str) -> np.ndarray:
    """``read_numbers`` with every entry of magnitude at most MAX_MAGNITUDE."""
    out = read_numbers(value, shape, name)
    if not (abs(out) <= MAX_MAGNITUDE).all():
        raise ModelFormatError(f"{name} must be finite numbers of magnitude "
                               f"at most {MAX_MAGNITUDE:g}")
    return out


@dataclass(frozen=True)
class FullSU2:
    """Full control of the accessor: directions 1 (x) sigma_{x,y,z}."""


@dataclass(frozen=True)
class SingleAxis:
    """One control direction 1 (x) sigma_n; the axis is stored unit length,
    as a read-only copy.  A malformed n raises ModelFormatError naming the
    control axis."""

    n: np.ndarray

    def __post_init__(self):
        n = _numbers(self.n, (3,), "control axis")
        nrm = np.linalg.norm(n)
        if nrm < TOL_RANK:
            raise ModelFormatError("control axis must be nonzero")
        object.__setattr__(self, "n", n / nrm)
        self.n.setflags(write=False)


@dataclass(frozen=True)
class TwoQubitModel:
    """A validated model: numbers of magnitude at most MAX_MAGNITUDE, K 3x3
    and nonzero, C of length 3, and a FullSU2 or SingleAxis control.  A
    malformed field raises ModelFormatError that names it; K and C are
    read-only copies, so the caller's arrays are neither shared nor frozen."""

    omega_S: float
    K: np.ndarray
    C: np.ndarray = field(default_factory=lambda: np.zeros(3))
    control: FullSU2 | SingleAxis = field(default_factory=FullSU2)

    def __post_init__(self):
        omega = float(_numbers(self.omega_S, (), "omega_S"))
        K = _numbers(self.K, (3, 3), "K")
        C = _numbers(self.C, (3,), "C")
        if np.abs(K).max() < TOL_RANK:  # the floor; MAX_MAGNITUDE is the ceiling
            raise ModelFormatError("K must be nonzero (trivial interaction)")
        if not isinstance(self.control, (FullSU2, SingleAxis)):
            raise ModelFormatError(f"unknown control type {self.control!r}")
        object.__setattr__(self, "omega_S", omega)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "C", C)


# Row r of _DRIFT_MAP holds the coordinates multiplying parameter r of
# (omega_S, K[j, s] row-major, C_j): E_z0, -E_sj / 2 and E_0j, by the
# sigma <-> E_ab dictionary of :mod:`qindirect.qalg`.
_DRIFT_MAP = np.concatenate(
    [E_AB[3, :1], -0.5 * E_AB[1:, 1:].transpose(1, 0, 2).reshape(9, 16),
     E_AB[0, 1:]])
_DRIFT_MAP.setflags(write=False)


def generator_set(m: TwoQubitModel) -> np.ndarray:
    """Real (k, 16) Pauli coordinates of the drift i(H_S + H_I + H_A),
    first, and of the control directions after it.

    Built straight from the model's numbers, without tensor products: the
    drift holds omega_S on E_z0, -K[j, s]/2 on E_sj and C_j on E_0j, and a
    control direction n holds n_j on E_0j.
    """
    drift = np.concatenate([[m.omega_S], m.K.ravel(), m.C]) @ _DRIFT_MAP
    if isinstance(m.control, FullSU2):
        return np.concatenate([drift[None], E_AB[0, 1:]])  # 1 (x) sigma_j = E_0j
    return np.concatenate([drift[None], m.control.n[None] @ E_AB[0, 1:]])


def ising_model() -> TwoQubitModel:
    """Ising interaction with a free target and full accessor control."""
    K = np.zeros((3, 3))
    K[1, 1] = 1.0  # i H_I = i sigma_y (x) sigma_y
    return TwoQubitModel(omega_S=1.0, K=K, C=np.zeros(3), control=FullSU2())


# ---------------------------------------------------------------------------
# JSON model files


_MODEL_KEYS = {"omega_S", "K", "C", "control"}


def finite_float(value) -> float:
    """float(value), rejecting nan, +-inf and too large integers with
    ModelFormatError."""
    try:
        out = float(value)
    except OverflowError:  # an int beyond the float range; str() of it
        # raises ValueError past 4300 digits, so the message leaves it out
        raise ModelFormatError("an integer past the float range is not a "
                               "finite number") from None
    if not math.isfinite(out):
        raise ModelFormatError(f"{value!r} is not a finite number")
    return out


def json_numbers(value, key: str):
    """``value`` if it is a JSON number or nested lists of them.

    float() reads True as 1.0 and "2" as 2.0, so a bool or a string is
    rejected here with ModelFormatError naming ``key``.
    """
    if isinstance(value, list):
        for v in value:
            json_numbers(v, key)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{key}: {value!r} is not a finite number")
    return value


def model_from_dict(d: dict) -> TwoQubitModel:
    if not isinstance(d, dict):
        raise ModelFormatError("model must be a JSON object")
    unknown = set(d) - _MODEL_KEYS
    if unknown:
        raise ModelFormatError(f"unknown model fields: {sorted(unknown)}")
    missing = _MODEL_KEYS - set(d)
    if missing:
        raise ModelFormatError(f"missing model fields: {sorted(missing)}")
    ctl = d["control"]
    if not isinstance(ctl, dict) or "type" not in ctl:
        raise ModelFormatError("control must be an object with a 'type' field")
    if ctl["type"] == "full":
        if set(ctl) != {"type"}:
            raise ModelFormatError("full control takes no extra fields")
        control = FullSU2()
    elif ctl["type"] == "axis":
        if set(ctl) != {"type", "n"}:
            raise ModelFormatError("axis control takes exactly the field 'n'")
        control = SingleAxis(n=json_numbers(ctl["n"], "control axis"))
    else:
        raise ModelFormatError(f"unknown control type {ctl['type']!r}")
    return TwoQubitModel(omega_S=json_numbers(d["omega_S"], "omega_S"),
                         K=json_numbers(d["K"], "K"),
                         C=json_numbers(d["C"], "C"), control=control)


def load_json(path):
    """The JSON file at ``path``, read as UTF-8; every failure to decode it
    is one ModelFormatError that names the file.

    Python's json accepts the literals NaN, Infinity and -Infinity, reads
    1e999 as inf and a 400-digit integer as an int that no float holds; a
    NaN passes every comparison-based check downstream, so all of them are
    refused where the file is read.  The other failures are a file that is
    not UTF-8 or not JSON (ValueError, as is int()'s 4300-digit limit) and
    nesting past the parser's recursion limit (RecursionError).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=finite_float,
                             parse_float=finite_float, parse_int=_finite_int)
        except (ValueError, RecursionError) as exc:
            raise ModelFormatError(f"invalid JSON in {path}: {exc}") from exc


def _finite_int(text: str) -> int:
    value = int(text)
    finite_float(value)
    return value


def load_model(path) -> TwoQubitModel:
    return model_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# Random models, one constructor per classification case.  Parameters are
# uniform in [-1, 1]; structural zeros are set exactly and rank conditions
# are enforced by resampling.


def _unit(rng) -> np.ndarray:
    while True:
        v = rng.uniform(-1.0, 1.0, size=3)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


def _nonzero(rng, shape):
    while True:
        v = rng.uniform(-1.0, 1.0, size=shape)
        if np.abs(v).max() > 1e-3:
            return v


def random_model(case: str, rng: np.random.Generator) -> TwoQubitModel:
    """Random full-control model satisfying the conditions of one case."""
    omega = _nonzero(rng, ()) if case in ("1a", "1b", "1c") else 0.0
    if case == "1a":
        K = _nonzero(rng, (3, 3))
        while (np.abs(K[:, :2]).max() < 1e-3) or (np.abs(K[:, 2]).max() < 1e-3):
            K = _nonzero(rng, (3, 3))
    elif case == "1b":
        K = np.zeros((3, 3))
        K[:, :2] = _nonzero(rng, (3, 2))
    elif case == "1c":
        K = np.zeros((3, 3))
        K[:, 2] = _nonzero(rng, (3,))
    elif case == "2a":
        K = np.outer(_nonzero(rng, (3,)), _nonzero(rng, (3,)))
    elif case == "2b":
        while True:
            K = (np.outer(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
                 + np.outer(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)))
            s = np.linalg.svd(K, compute_uv=False)
            if s[1] > 1e-3 * s[0] and s[2] < 1e-12 * s[0]:
                break
    elif case == "2c":
        while True:
            K = rng.uniform(-1, 1, (3, 3))
            if abs(np.linalg.det(K)) > 1e-3:
                break
    else:
        raise ValueError(f"unknown case {case!r}")
    C = rng.uniform(-1.0, 1.0, size=3)
    return TwoQubitModel(omega_S=float(omega), K=K, C=C, control=FullSU2())


def random_single_axis_model(rng: np.random.Generator,
                             violate: str | None = None) -> TwoQubitModel:
    """Random single-control model with omega_S = 0.

    ``violate`` forces a condition failure: "c1" zeroes det K, "c2" builds a
    model whose accessor drift and sigma_z coupling row vanish in the frame
    where the control axis is e_z, then hides the structure behind
    Haar-random rotations of both qubits (the ``frame`` of two Gaussian
    vectors).
    """
    if violate is None:
        return TwoQubitModel(omega_S=0.0, K=_nonzero(rng, (3, 3)),
                             C=rng.uniform(-1, 1, 3),
                             control=SingleAxis(n=_unit(rng)))

    # start from the normal form and rotate it away
    alpha, beta = _nonzero(rng, ()), _nonzero(rng, ())
    gamma = rng.uniform(-1, 1)
    if violate == "c1":
        K = np.array([[alpha, gamma, 0.0],
                      [0.0, beta, 0.0],
                      rng.uniform(-1, 1, 3)])
        K[2, 2] = 0.0  # det = alpha * beta * z = 0
        C = rng.uniform(-1, 1, 3)
    elif violate == "c2":
        z = _nonzero(rng, ())
        K = np.array([[alpha, gamma, 0.0],
                      [0.0, beta, 0.0],
                      [0.0, 0.0, z]])
        C = np.array([0.0, 0.0, rng.uniform(-1, 1)])  # parallel to the axis
    else:
        raise ValueError(f"unknown violation {violate!r}")

    r_a, r_s = (frame(*rng.normal(size=(2, 3))) for _ in range(2))
    # frame change: K -> R_A K R_S^T, C -> R_A C, n -> R_A e_z
    return TwoQubitModel(omega_S=0.0, K=r_a @ K @ r_s.T, C=r_a @ C,
                         control=SingleAxis(n=r_a @ np.array([0.0, 0.0, 1.0])))
