"""Command-line front end.

One subcommand per analysis, each driven by a JSON config file plus a few
overriding flags.  A flag is named after the config key it overrides
(``--`` plus the key, with ``_`` written ``-``), and its text goes through
that key's converter.  ``_integer`` reads an integral JSON number or a flag's
integer literal, and ``model.read_integer`` then holds draws, seed and
sample's n to their lower bounds.  ``COMMANDS`` declares every subcommand
once: the function that runs it, whether its config is required (and, for
classify, closure and negat, carries the model fields at the top level),
the flags it takes besides --output, and the config keys it reads.  A
config key outside that set is an error; for the model commands such keys
are passed to ``model_from_dict``, which rejects any that are not model
fields.  steer and fic run either one explicit case (x_angles or target) or
random draws, and a key or flag that the chosen mode does not read is an
error too.  Verdicts are emitted as sorted-key JSON; for the model
commands, which make rank decisions, ``_run`` reads the tolerance once and
adds its "tolerances" block.  ``_emit`` opens the one output file, and
sample writes its CSV there; a failure while writing removes the file.
sample's defaults are ``SampleConfig``'s.
Exit codes: 0 success (negative verdicts included), 1 malformed config or
flag value, 2 precondition violations.  ``main`` decides them in one place,
for the run and the writing of its output alike: a ModelFormatError (so
every file that ``model.load_json`` cannot decode), an OSError and a
MemoryError (a cloud too large to allocate) give exit 1; any other
ValueError exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import classify as _classify
from . import indirect as _indirect
from . import sampler as _sampler
from .lieclosure import closure, projector
from .model import (FullSU2, ModelFormatError, finite_float, generator_set,
                    json_numbers, load_json, model_from_dict, read_integer,
                    read_numbers)
from .qalg import (TOL_RANK, bloch_inverse, dagger, frob, partial_trace,
                   tensor, z_rotation)


def _load_config(path) -> dict:
    cfg = {} if path is None else load_json(path)
    if not isinstance(cfg, dict):
        raise ModelFormatError("config must be a JSON object")
    return cfg


def _integer(value) -> int:
    """int(value) for an integral value; 2.7 is rejected, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _option(cfg: dict, args, key: str, default, kind):
    """The flag's text if given, else cfg[key] or the default, as ``kind``."""
    val = getattr(args, key, None)
    if val is None:
        val = json_numbers(cfg.get(key, default), key)
    try:
        return kind(val)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{key}: {exc}") from exc


def _floats(value, key: str, shape: tuple) -> np.ndarray:
    return read_numbers(json_numbers(value, key), shape, key)


def _density(cfg: dict, key: str, default=None) -> np.ndarray:
    """Density matrix of the Bloch vector cfg[key] (a norm above 1 exits 2)."""
    return bloch_inverse(_floats(cfg.get(key, default), key, (3,)))


def _tolerances(cfg: dict, args) -> dict:
    tols = cfg.get("tolerances", {})
    if not isinstance(tols, dict) or set(tols) - {"tol_rank"}:
        raise ModelFormatError("tolerances must be an object whose only key "
                               f"is tol_rank, got {tols!r}")
    tol = _option(tols, args, "tol_rank", TOL_RANK, finite_float)
    if tol <= 0:
        raise ModelFormatError(f"tol_rank: {tol!r} is not above 0")
    return {"tol_rank": tol}


# ---------------------------------------------------------------------------
# random draws and contract residuals shared by steer/fic/verify


def _random_density(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = z @ dagger(z)
    return h / np.trace(h).real


def _random_su2(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))
    return q / np.sqrt(complex(np.linalg.det(q)))


def _random_pure(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _su2_from_angles(angles) -> np.ndarray:
    """e^{t2 sz} e^{t sx} e^{t1 sz}, with e^{t sx} = cos(t/2) 1 +
    i sin(t/2) tx written out like ``z_rotation``, so every finite angle
    gives an SU(2) element."""
    t2, t, t1 = angles
    c, s = np.cos(0.5 * t), 1j * np.sin(0.5 * t)
    return z_rotation(t2) @ np.array([[c, s], [s, c]]) @ z_rotation(t1)


def _draws(cfg: dict, args, default: int):
    """(draws, seed, generator) of a run over random draws."""
    draws = read_integer(_option(cfg, args, "draws", default, _integer),
                         "draws", 1)
    seed = read_integer(_option(cfg, args, "seed", 0, _integer), "seed", 0)
    return draws, seed, np.random.default_rng(seed)


def _residual(u, rho_s, rho_a, expected) -> float:
    """frob(Tr_A[U (rho_S (x) rho_A) U^dag] - expected), the residual of a
    steering or state-transfer contract."""
    out = partial_trace(u @ tensor(rho_s, rho_a) @ dagger(u))
    return frob(out - expected)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(model, tol: float, cfg: dict) -> dict:
    if isinstance(model.control, FullSU2):
        cv = _classify.cross_validate(model, tol=tol)
        return {"case": cv.predicted.tag,
                "predicted_dim": cv.predicted.predicted_dim,
                "computed_dim": cv.computed_dim,
                "agree": cv.agree,
                "marginal": cv.predicted.marginal}
    rep = _classify.oms0_check(model, tol_rank=tol)
    return {"c1": rep.c1, "c2": rep.c2, "cc": rep.cc,
            "det_K": rep.det_K, "c2_magnitude": rep.c2_magnitude}


def _cmd_closure(model, tol: float, cfg: dict) -> dict:
    show = cfg.get("basis")
    if show is not None and not isinstance(show, bool):
        raise ModelFormatError(f"basis: {show!r} is not true or false")
    basis = closure(generator_set(model), tol=tol)
    payload = {"dim": len(basis)}
    if show:
        payload["projector"] = projector(basis).tolist()
    return payload


def _cmd_negat(model, tol: float, cfg: dict) -> dict:
    if "rho_S" not in cfg or "rho_A" not in cfg:
        raise ModelFormatError("negat needs rho_S and rho_A Bloch vectors")
    rho_s = _density(cfg, "rho_S")
    rho_a = _density(cfg, "rho_A")
    L = closure(generator_set(model), tol=tol)
    verdict = _indirect.gennegat_test(L, rho_s, rho_a, tol=tol)
    return {"lie_dim": len(L), "v_dim": verdict.v_dim,
            "trace_image_dim": verdict.trace_image_dim,
            "uic_excluded": verdict.uic_excluded}


def _unread(cfg: dict, args, keys: tuple, mode: str) -> None:
    """Reject the config keys and flags among ``keys``: ``mode`` reads none."""
    given = [k for k in keys if k in cfg or getattr(args, k, None) is not None]
    if given:
        raise ModelFormatError(f"{mode} does not read {given}")


def _cmd_steer(cfg: dict, args) -> dict:
    if "x_angles" in cfg:
        _unread(cfg, args, _DRAWS, "steer with x_angles")
        cases = [(_density(cfg, "rho_S", [0.0, 0.0, 0.5]),
                  _su2_from_angles(_floats(cfg["x_angles"], "x_angles", (3,))))]
    else:
        _unread(cfg, args, ("rho_S",), "steer without x_angles (random draws)")
        draws, seed, rng = _draws(cfg, args, 500)
        cases = ((_random_density(rng), _random_su2(rng))
                 for _ in range(draws))
    worst = max(_residual(_indirect.pure_uic_steer(rho_s, x), rho_s,
                          _indirect.E1, x @ rho_s @ dagger(x))
                for rho_s, x in cases)
    if "x_angles" in cfg:
        return {"residual": worst}
    return {"draws": draws, "seed": seed, "max_residual": worst}


def _cmd_fic(cfg: dict, args) -> dict:
    if "target" in cfg:
        _unread(cfg, args, _DRAWS, "fic with target")
        cases = [(_density(cfg, "rho_S", [0.0, 0.0, 0.5]),
                  _density(cfg, "psi_A", [0.0, 0.0, 1.0]),
                  _density(cfg, "target"))]
    else:
        _unread(cfg, args, ("rho_S", "psi_A"),
                "fic without target (random draws)")
        draws, seed, rng = _draws(cfg, args, 100)
        cases = ((_random_density(rng), _random_pure(rng),
                  _random_density(rng)) for _ in range(draws))
    worst = max(_residual(_indirect.fic_reach(rho_s, psi_a, target), rho_s,
                          psi_a, target)
                for rho_s, psi_a, target in cases)
    if "target" in cfg:
        return {"residual": worst}
    return {"draws": draws, "seed": seed, "max_residual": worst}


def _cmd_sample(cfg: dict, args) -> Callable:
    ranges = cfg.get("angle_ranges")
    if isinstance(ranges, dict):
        full = dict.fromkeys(_sampler.ANGLE_NAMES, _sampler.DEFAULT_RANGE)
        unknown = set(ranges) - set(full)
        if unknown:
            raise ModelFormatError(f"unknown angle names: {sorted(unknown)}")
        full.update({k: _floats(v, f"angle_ranges.{k}", (2,))
                     for k, v in ranges.items()})
        ranges = [full[name] for name in _sampler.ANGLE_NAMES]
    elif ranges is not None:  # SampleConfig checks the shape
        ranges = json_numbers(ranges, "angle_ranges")
    kwargs = {key: json_numbers(cfg.get(key, 0.0), key)
              for key in ("s_x", "s_z", "a_z")}
    defaults = _sampler.SampleConfig  # its field defaults, as class attributes
    kwargs.update(n=_option(cfg, args, "n", defaults.n, _integer),
                  seed=_option(cfg, args, "seed", defaults.seed, _integer),
                  mode=cfg.get("mode", defaults.mode))
    if ranges is not None:
        kwargs["angle_ranges"] = ranges
    sc = _sampler.SampleConfig(**kwargs)
    points = _sampler.sample(sc)
    return lambda fh: _sampler.emit_csv(points, fh, seed=sc.seed)


def _cmd_verify(cfg: dict, args) -> dict:
    draws, seed, rng = _draws(cfg, args, 1000)
    worst = {"gamma_suite": {}, "appendix_suite": {}}
    for _ in range(draws):
        alpha = 0.0
        while abs(alpha) < 1e-3:
            alpha = rng.uniform(-1, 1)
        gamma = _classify.gamma_suite(alpha, rng.uniform(-1, 1),
                                      rng.uniform(-1, 1), rng.uniform(-1, 1))
        v3 = rng.normal(size=3)
        v3 = v3 / np.linalg.norm(v3)
        alpha, omega_a = 0.0, 0.0
        while alpha ** 2 + 4 * omega_a ** 2 < 1e-6:
            alpha, omega_a = rng.uniform(-1, 1, 2)
        appendix = _classify.appendix_b_suite(*v3, alpha, omega_a)
        for suite, rep in zip(worst.values(), (gamma, appendix)):
            for k, v in rep.residuals.items():
                suite[k] = max(suite.get(k, 0.0), v)
    overall = max(max(suite.values()) for suite in worst.values())
    return {"draws": draws, "seed": seed, **worst, "max_residual": overall}


# ---------------------------------------------------------------------------


class Command(NamedTuple):
    run: Callable  # (model, tol, cfg) for "model", else (cfg, args)
    help: str
    config: str  # "optional", "required" or "model" (required, with model fields)
    flags: tuple  # besides --output, which every subcommand takes
    keys: frozenset  # config keys read besides the model fields


_DRAWS = ("seed", "draws")
COMMANDS = {
    "classify": Command(_cmd_classify, "dimension table / single-axis CC verdict",
                        "model", ("tol_rank",), frozenset({"tolerances"})),
    "closure": Command(_cmd_closure, "numeric Lie-algebra closure dimension",
                       "model", ("tol_rank",),
                       frozenset({"tolerances", "basis"})),
    "negat": Command(_cmd_negat, "invariant-space steering obstruction",
                     "model", ("tol_rank",),
                     frozenset({"tolerances", "rho_S", "rho_A"})),
    "steer": Command(_cmd_steer, "pure-accessor steering contract residual",
                     "optional", _DRAWS,
                     frozenset({"x_angles", "rho_S", *_DRAWS})),
    "fic": Command(_cmd_fic, "state-transfer contract residual",
                   "optional", _DRAWS,
                   frozenset({"target", "rho_S", "psi_A", *_DRAWS})),
    "sample": Command(_cmd_sample, "reachable-set CSV for the Ising example",
                      "required", ("seed",),
                      frozenset({"s_x", "s_z", "a_z", "n", "seed", "mode",
                                 "angle_ranges"})),
    "verify": Command(_cmd_verify, "identity-suite residuals over random draws",
                      "optional", _DRAWS, frozenset(_DRAWS)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qindirect",
        description="Indirect-controllability analyses for two qubits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.config == "optional":
            p.add_argument("config", nargs="?", default=None,
                           help="optional JSON config file")
        else:
            p.add_argument("config", help="JSON config file")
        for key in cmd.flags:
            p.add_argument("--" + key.replace("_", "-"), default=None)
        p.add_argument("--output", default=None)
    return parser


def _run(cmd: Command, args):
    cfg = _load_config(args.config)
    rest = {k: v for k, v in cfg.items() if k not in cmd.keys}
    if cmd.config == "model":
        model = model_from_dict(rest)
        tols = _tolerances(cfg, args)
        return {**cmd.run(model, tols["tol_rank"], cfg), "tolerances": tols}
    if rest:
        raise ModelFormatError(f"unknown config keys: {sorted(rest)}")
    return cmd.run(cfg, args)


def _json_writer(payload: dict) -> Callable:
    """Writer of a verdict as sorted-key JSON."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return lambda fh: fh.write(text)


def _emit(write: Callable, output_path) -> None:
    """Call write(fh) on the --output file (utf-8, LF), or on stdout.  A
    failure while writing removes the file, so no partial output is left."""
    if not output_path:
        write(sys.stdout)
        return
    # opened outside the try: a file that cannot be opened is not removed
    fh = open(output_path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            write(fh)
    except BaseException:
        # a device or a link such as /dev/stdout is left in place
        if os.path.isfile(output_path) and not os.path.islink(output_path):
            os.remove(output_path)
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = _run(COMMANDS[args.command], args)
        # the output file is opened only now, so rejected input writes nothing
        _emit(_json_writer(result) if isinstance(result, dict) else result,
              args.output)
    except (ModelFormatError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
