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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import qalg
from .qalg import (ID2, TOL_RANK, _rotation_about, _rotation_between,
                   sigma_from_vec, tensor)


class ModelFormatError(ValueError):
    """Raised for malformed model files or dictionaries."""


@dataclass(frozen=True)
class FullSU2:
    """Full control of the accessor: directions 1 (x) sigma_{x,y,z}."""


@dataclass(frozen=True)
class SingleAxis:
    """One control direction 1 (x) sigma_n; the axis is stored unit length."""

    n: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        if n.shape != (3,):
            raise ModelFormatError("control axis must be a real 3-vector")
        nrm = np.linalg.norm(n)
        if nrm < TOL_RANK:
            raise ModelFormatError("control axis must be nonzero")
        object.__setattr__(self, "n", n / nrm)
        self.n.setflags(write=False)


@dataclass(frozen=True)
class TwoQubitModel:
    omega_S: float
    K: np.ndarray
    C: np.ndarray = field(default_factory=lambda: np.zeros(3))
    control: FullSU2 | SingleAxis = field(default_factory=FullSU2)

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        C = np.asarray(self.C, dtype=float)
        if K.shape != (3, 3):
            raise ModelFormatError("K must be a real 3x3 matrix")
        if C.shape != (3,):
            raise ModelFormatError("C must be a real 3-vector")
        if np.abs(K).max() < TOL_RANK:
            raise ModelFormatError("K must be nonzero (trivial interaction)")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "omega_S", float(self.omega_S))
        self.K.setflags(write=False)
        self.C.setflags(write=False)

    @property
    def rows(self):
        """The rows a, b, c of K."""
        return self.K[0], self.K[1], self.K[2]


@dataclass(frozen=True)
class ModelHamiltonians:
    h_s: np.ndarray
    h_i: np.ndarray
    h_a: np.ndarray
    controls: list  # skew-Hermitian control directions 1 (x) sigma_k


def control_directions(control) -> list:
    if isinstance(control, FullSU2):
        return [tensor(ID2, qalg.pauli(ax)) for ax in "xyz"]
    if isinstance(control, SingleAxis):
        return [tensor(ID2, sigma_from_vec(control.n))]
    raise ModelFormatError(f"unknown control type {control!r}")


def hamiltonians(m: TwoQubitModel) -> ModelHamiltonians:
    """Hermitian H_S, H_I, H_A plus the skew-Hermitian control directions."""
    a, b, c = m.rows
    ihs = m.omega_S * tensor(qalg.pauli("z"), ID2)
    ihi = (1j * tensor(sigma_from_vec(a), qalg.pauli("x"))
           + 1j * tensor(sigma_from_vec(b), qalg.pauli("y"))
           + 1j * tensor(sigma_from_vec(c), qalg.pauli("z")))
    iha = tensor(ID2, sigma_from_vec(m.C))
    return ModelHamiltonians(h_s=-1j * ihs, h_i=-1j * ihi, h_a=-1j * iha,
                             controls=control_directions(m.control))


# In Pauli coordinates (see :mod:`qindirect.qalg`), with E_ab = (i/2) P_a (x) P_b:
# sigma_z (x) 1 = E_z1, i sigma_s (x) sigma_j = -E_sj / 2 and 1 (x) sigma_j = E_1j.
# Row r of _DRIFT_MAP is the flattened matrix multiplying parameter r of
# (omega_S, K[j, s] row-major, C_j); its last three rows are the controls.
_E = qalg.PAULI_BASIS[4].reshape(4, 4, 16)
_DRIFT_MAP = np.concatenate([_E[3, :1],
                             -0.5 * _E[1:, 1:].transpose(1, 0, 2).reshape(9, 16),
                             _E[0, 1:]])
_DRIFT_MAP.setflags(write=False)
_AXIS_MAP = _DRIFT_MAP[10:]
_FULL_CONTROLS = tuple(_AXIS_MAP.reshape(3, 4, 4))  # read-only views


def generator_set(m: TwoQubitModel) -> list:
    """Drift i(H_S + H_I + H_A) followed by the control directions.

    Built straight from the model's numbers in Pauli coordinates, without
    tensor products: the drift holds omega_S on E_z1, -K[j, s]/2 on E_sj and
    C_j on E_1j, and a control direction n holds n_j on E_1j.  The three
    full-control directions are shared read-only arrays, like a model's K
    and C.
    """
    p = np.empty(13)
    p[0] = m.omega_S
    p[1:10] = m.K.ravel()
    p[10:] = m.C
    drift = (p @ _DRIFT_MAP).reshape(4, 4)
    if isinstance(m.control, FullSU2):
        return [drift, *_FULL_CONTROLS]
    if isinstance(m.control, SingleAxis):
        return [drift, (m.control.n @ _AXIS_MAP).reshape(4, 4)]
    raise ModelFormatError(f"unknown control type {m.control!r}")


@dataclass(frozen=True)
class DFSplit:
    D: np.ndarray
    F: np.ndarray
    rank_K: int


def df_split(m: TwoQubitModel, tol: float | None = None) -> DFSplit:
    """Column split K = (D F) and the numerical rank of K."""
    tol = TOL_RANK if tol is None else tol
    s = np.linalg.svd(m.K, compute_uv=False)
    rank = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
    return DFSplit(D=m.K[:, :2].copy(), F=m.K[:, 2].copy(), rank_K=rank)


def ising_model() -> TwoQubitModel:
    """Ising interaction with a free target and full accessor control."""
    K = np.zeros((3, 3))
    K[1, 1] = 1.0  # i H_I = i sigma_y (x) sigma_y
    return TwoQubitModel(omega_S=1.0, K=K, C=np.zeros(3), control=FullSU2())


# ---------------------------------------------------------------------------
# JSON model files


_MODEL_KEYS = {"omega_S", "K", "C", "control"}


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
        control = SingleAxis(n=np.asarray(ctl["n"], dtype=float))
    else:
        raise ModelFormatError(f"unknown control type {ctl['type']!r}")
    try:
        return TwoQubitModel(omega_S=float(d["omega_S"]),
                             K=np.asarray(d["K"], dtype=float),
                             C=np.asarray(d["C"], dtype=float),
                             control=control)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(str(exc)) from exc


def model_to_dict(m: TwoQubitModel) -> dict:
    if isinstance(m.control, FullSU2):
        ctl = {"type": "full"}
    else:
        ctl = {"type": "axis", "n": m.control.n.tolist()}
    return {"omega_S": m.omega_S, "K": m.K.tolist(), "C": m.C.tolist(),
            "control": ctl}


def load_model(path) -> TwoQubitModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON in {path}: {exc}") from exc
    return model_from_dict(d)


def save_model(m: TwoQubitModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _nonzero(rng, shape, floor=1e-3):
    while True:
        v = rng.uniform(-1.0, 1.0, size=shape)
        if np.abs(v).max() > floor:
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
    where the control axis is e_z, then hides the structure behind random
    rotations of both qubits.
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

    r_a = _rotation_between(np.array([0.0, 0.0, 1.0]), _unit(rng))
    r_a = r_a @ _rotation_about(np.array([0.0, 0.0, 1.0]), rng.uniform(0, 2 * np.pi))
    r_s = _rotation_about(_unit(rng), rng.uniform(0, 2 * np.pi))
    # frame change: K -> R_A K R_S^T, C -> R_A C, n -> R_A e_z
    return TwoQubitModel(omega_S=0.0, K=r_a @ K @ r_s.T, C=r_a @ C,
                         control=SingleAxis(n=r_a @ np.array([0.0, 0.0, 1.0])))
