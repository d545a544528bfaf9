"""Indirect controllability of a target qubit steered through an accessor.

Submodules:

* :mod:`qindirect.qalg` -- Pauli conventions, coordinates, the structure
  tensor and the u(d) check; tensor and bracket helpers.
* :mod:`qindirect.lieclosure` -- numeric Lie-algebra closures and spans in
  Pauli coordinates.
* :mod:`qindirect.model` -- the (omega_S, K, C, control) model and JSON loading.
* :mod:`qindirect.classify` -- dimension table, single-axis CC test,
  identity suites.
* :mod:`qindirect.indirect` -- invariant-space obstruction and steering
  constructions.
* :mod:`qindirect.sampler` -- reachable-set sampling and the closed-form
  propagator decomposition.
"""

from .model import (FullSU2, ModelFormatError, SingleAxis, TwoQubitModel,
                    ising_model, load_model)
from .classify import (CaseLabel, Oms0Report, cross_validate, oms0_check,
                       predict_case)

__all__ = [
    "FullSU2", "SingleAxis", "TwoQubitModel", "ModelFormatError",
    "ising_model", "load_model",
    "CaseLabel", "Oms0Report", "predict_case", "cross_validate",
    "oms0_check",
]

__version__ = "0.1.0"
