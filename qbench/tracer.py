"""Span tracer wrapped around the package's public functions from outside.

``install`` replaces every binding of each traced function object across the
``qindirect`` module namespaces (``closure`` is bound in both ``lieclosure``
and ``classify``, for example), so calls made inside the package are traced
too.  Each call records a span: name, start, end, parent span and the item
it belongs to.  Spans stay in flat in-memory arrays until the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

import numpy as np

SPANS = (
    "model.generator_set",
    "lieclosure.closure", "lieclosure.orthonormalize",
    "lieclosure.invariant_space", "lieclosure.trace_A_image",
    "classify.cross_validate", "classify.predict_case", "classify.oms0_check",
    "classify.normal_form", "classify.drift_perp_components",
    "indirect.gennegat_test", "indirect.fic_reach", "indirect.fic_mix",
    "indirect.pure_uic_steer",
    "sampler.sample", "sampler.reachable_point", "sampler.y_closed_form",
    "qalg.tensor", "qalg.partial_trace", "qalg.bloch", "qalg.check_density",
    "qalg.z_rotation", "qalg.mat_exp",
)
# spans whose result length is a work count: algebra dimension, cloud size
SIZED = ("lieclosure.closure", "lieclosure.invariant_space", "sampler.sample")

COUNTS = ("lieclosure.closure.mean_dim", "lieclosure.invariant_space.mean_dim",
          "indirect.fic_reach.lam_evals", "sampler.sample.points")


class Tracer:
    """Records spans while ``active``; ``item`` tags the spans of one item."""

    def __init__(self):
        self.item = -1
        self.active = False
        self.name = array("h")
        self.parent = array("i")
        self.owner = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes = {name: array("i") for name in SIZED}
        self.sized_spans = {name: array("i") for name in SIZED}
        self._stack = [-1]
        self._restore = []

    def install(self, package) -> None:
        """Wrap every span function of ``package`` (a module namespace)."""
        wrappers = {}
        for i, full in enumerate(SPANS):
            module, func = full.split(".")
            fn = getattr(getattr(package, module), func)
            wrappers[id(fn)] = (fn, self._wrap(i, full, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qindirect" and not mod_name.startswith("qindirect."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, index: int, full: str, fn):
        clock = time.perf_counter
        stack = self._stack
        name, parent, owner = self.name, self.parent, self.owner
        start, end = self.start, self.end
        sizes = self.sizes.get(full)
        sized_spans = self.sized_spans.get(full)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(start)
            name.append(index)
            parent.append(stack[-1])
            owner.append(self.item)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if sizes is not None:
                sizes.append(len(out))
                sized_spans.append(span)
            return out

        return traced

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int16),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "item": np.frombuffer(self.owner, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def summary(self, items: int, window: int, wall: float) -> dict:
        """Per-span calls per item, self time per item and share; counts.

        Calls and the work counts are taken over the first ``window`` items,
        which every run of a seed shares, so they repeat exactly.  Self time
        and share use all ``items`` traced items and their ``wall`` time.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested],
                              minlength=len(dur))
        self_time = np.bincount(a["name"], weights=dur - covered,
                                minlength=len(SPANS))
        in_window = a["item"] < window
        calls = np.bincount(a["name"][in_window], minlength=len(SPANS))
        out = {}
        for i, full in enumerate(SPANS):
            out[f"{full}.calls"] = calls[i] / window
            out[f"{full}.self_s"] = self_time[i] / items
            out[f"{full}.share"] = self_time[i] / wall

        def mean_size(full):
            spans = np.frombuffer(self.sized_spans[full], dtype=np.int32)
            sizes = np.frombuffer(self.sizes[full], dtype=np.int32)
            keep = a["item"][spans] < window
            return sizes[keep], keep.sum()

        for full in ("lieclosure.closure", "lieclosure.invariant_space"):
            sizes, n = mean_size(full)
            out[f"{full}.mean_dim"] = float(sizes.mean()) if n else 0.0
        sizes, _ = mean_size("sampler.sample")
        out["sampler.sample.points"] = sizes.sum() / window

        fic = SPANS.index("indirect.fic_reach")
        ptrace = SPANS.index("qalg.partial_trace")
        fic_calls = np.count_nonzero(in_window & (a["name"] == fic))
        from_fic = (in_window & (a["name"] == ptrace) & nested)
        from_fic[from_fic] = a["name"][a["parent"][from_fic]] == fic
        out["indirect.fic_reach.lam_evals"] = (
            np.count_nonzero(from_fic) / fic_calls if fic_calls else 0.0)
        return {key: float(value) for key, value in out.items()}

    def write(self, path: str, meta: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(SPANS), meta=np.array(json.dumps(meta)),
                 **self.arrays())
