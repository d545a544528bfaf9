"""Command-line front end.

One subcommand per analysis, each driven by a JSON config file plus a small
set of overriding flags (--seed, --draws, --output, --tol-rank, --tol-eq).
Model-driven commands (classify, closure, negat) read the model schema at
the top level of the config, with the extra non-model keys listed in
_CONFIG_KEYS stripped first.  Verdicts are emitted as sorted-key JSON with
a "tolerances" block; sample emits CSV.  Exit codes: 0 success (negative
verdicts included), 1 malformed config, 2 precondition violations.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import classify as _classify
from . import indirect as _indirect
from . import sampler as _sampler
from .lieclosure import closure
from .model import (FullSU2, ModelFormatError, SingleAxis, TwoQubitModel,
                    generator_set, model_from_dict)
from .qalg import (TOL_EQ, TOL_RANK, bloch_inverse, dagger, frob,
                   mat_exp, partial_trace, tensor, z_rotation)

_CONFIG_KEYS = {"rho_S", "rho_A", "psi_A", "target", "x_angles", "seed",
                "draws", "output", "tolerances", "basis",
                "s_x", "s_z", "a_z", "n", "mode", "angle_ranges"}


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ModelFormatError("config must be a JSON object")
    return cfg


def _split_model(cfg: dict) -> tuple:
    model_part = {k: v for k, v in cfg.items() if k not in _CONFIG_KEYS}
    rest = {k: v for k, v in cfg.items() if k in _CONFIG_KEYS}
    return model_from_dict(model_part), rest


def _tolerances(cfg: dict, args) -> dict:
    tols = dict(cfg.get("tolerances", {}))
    unknown = set(tols) - {"tol_rank", "tol_eq"}
    if unknown:
        raise ModelFormatError(f"unknown tolerance keys: {sorted(unknown)}")
    if args.tol_rank is not None:
        tols["tol_rank"] = args.tol_rank
    if args.tol_eq is not None:
        tols["tol_eq"] = args.tol_eq
    tols.setdefault("tol_rank", TOL_RANK)
    tols.setdefault("tol_eq", TOL_EQ)
    return {"tol_rank": float(tols["tol_rank"]), "tol_eq": float(tols["tol_eq"])}


def _int_option(cfg: dict, args, name: str, default: int) -> int:
    val = getattr(args, name, None)
    if val is None:
        val = cfg.get(name, default)
    return int(val)


def _serialize_matrix(m: np.ndarray) -> dict:
    return {"real": np.asarray(m).real.tolist(),
            "imag": np.asarray(m).imag.tolist()}


def _jsonable(obj):
    """Recursively convert numpy scalars so json.dumps accepts the payload."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


# ---------------------------------------------------------------------------
# random draws shared by steer/fic/verify


def _random_density(rng, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
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
    t2, t, t1 = (float(a) for a in angles)
    return z_rotation(t2) @ mat_exp(t * (0.5j) * np.array([[0, 1], [1, 0]])) \
        @ z_rotation(t1)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> dict:
    cfg = _load_config(args.config)
    model, rest = _split_model(cfg)
    tols = _tolerances(rest, args)
    if isinstance(model.control, FullSU2):
        cv = _classify.cross_validate(model, tol=tols["tol_rank"])
        payload = {"case": cv.predicted.tag,
                   "predicted_dim": cv.predicted.predicted_dim,
                   "computed_dim": cv.computed_dim,
                   "agree": cv.agree,
                   "marginal": cv.predicted.marginal}
    else:
        rep = _classify.oms0_check(model, tol_rank=tols["tol_rank"])
        payload = {"c1": rep.c1, "c2": rep.c2, "cc": rep.cc,
                   "det_K": rep.det_K, "c2_magnitude": rep.c2_magnitude}
    payload["tolerances"] = tols
    return payload


def _cmd_closure(args) -> dict:
    cfg = _load_config(args.config)
    model, rest = _split_model(cfg)
    tols = _tolerances(rest, args)
    basis = closure(generator_set(model), tol=tols["tol_rank"])
    payload = {"dim": len(basis), "tolerances": tols}
    if rest.get("basis"):
        payload["basis"] = [_serialize_matrix(m) for m in basis.mats]
    return payload


def _cmd_negat(args) -> dict:
    cfg = _load_config(args.config)
    model, rest = _split_model(cfg)
    tols = _tolerances(rest, args)
    if "rho_S" not in rest or "rho_A" not in rest:
        raise ModelFormatError("negat needs rho_S and rho_A Bloch vectors")
    rho_s = bloch_inverse(rest["rho_S"])
    rho_a = bloch_inverse(rest["rho_A"])
    L = closure(generator_set(model), tol=tols["tol_rank"])
    verdict = _indirect.gennegat_test(L, rho_s, rho_a, tol=tols["tol_rank"])
    return {"lie_dim": len(L), "v_dim": verdict.v_dim,
            "trace_image_dim": verdict.trace_image_dim,
            "uic_excluded": verdict.uic_excluded, "tolerances": tols}


def _cmd_steer(args) -> dict:
    cfg = _load_config(args.config)
    tols = _tolerances(cfg, args)
    if "x_angles" in cfg:
        rho_s = bloch_inverse(cfg.get("rho_S", [0.0, 0.0, 0.5]))
        x = _su2_from_angles(cfg["x_angles"])
        t = _indirect.pure_uic_steer(rho_s, x)
        out = partial_trace(t @ tensor(rho_s, _indirect.E1) @ dagger(t), "S")
        return {"residual": frob(out - x @ rho_s @ dagger(x)),
                "tolerances": tols}
    draws = _int_option(cfg, args, "draws", 500)
    seed = _int_option(cfg, args, "seed", 0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        rho_s = _random_density(rng)
        x = _random_su2(rng)
        t = _indirect.pure_uic_steer(rho_s, x)
        out = partial_trace(t @ tensor(rho_s, _indirect.E1) @ dagger(t), "S")
        worst = max(worst, frob(out - x @ rho_s @ dagger(x)))
    return {"draws": draws, "seed": seed, "max_residual": worst,
            "tolerances": tols}


def _cmd_fic(args) -> dict:
    cfg = _load_config(args.config)
    tols = _tolerances(cfg, args)
    if "target" in cfg:
        rho_s = bloch_inverse(cfg.get("rho_S", [0.0, 0.0, 0.5]))
        psi_a = bloch_inverse(cfg.get("psi_A", [0.0, 0.0, 1.0]))
        target = bloch_inverse(cfg["target"])
        u = _indirect.fic_reach(rho_s, psi_a, target)
        out = partial_trace(u @ tensor(rho_s, psi_a) @ dagger(u), "S")
        return {"residual": frob(out - target), "tolerances": tols}
    draws = _int_option(cfg, args, "draws", 100)
    seed = _int_option(cfg, args, "seed", 0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        rho_s = _random_density(rng)
        psi_a = _random_pure(rng)
        target = _random_density(rng)
        u = _indirect.fic_reach(rho_s, psi_a, target)
        out = partial_trace(u @ tensor(rho_s, psi_a) @ dagger(u), "S")
        worst = max(worst, frob(out - target))
    return {"draws": draws, "seed": seed, "max_residual": worst,
            "tolerances": tols}


def _cmd_sample(args) -> str:
    cfg = _load_config(args.config)
    seed = _int_option(cfg, args, "seed", 0)
    ranges = cfg.get("angle_ranges")
    if isinstance(ranges, dict):
        full = dict.fromkeys(_sampler.ANGLE_NAMES, _sampler.DEFAULT_RANGE)
        unknown = set(ranges) - set(full)
        if unknown:
            raise ModelFormatError(f"unknown angle names: {sorted(unknown)}")
        full.update({k: tuple(v) for k, v in ranges.items()})
        ranges = tuple(full[name] for name in _sampler.ANGLE_NAMES)
    elif ranges is not None:
        ranges = tuple(tuple(r) for r in ranges)
    kwargs = {"s_x": float(cfg.get("s_x", 0.0)),
              "s_z": float(cfg.get("s_z", 0.0)),
              "a_z": float(cfg.get("a_z", 0.0)),
              "n": int(cfg.get("n", 729)),
              "seed": seed,
              "mode": cfg.get("mode", "random")}
    if ranges is not None:
        kwargs["angle_ranges"] = ranges
    sc = _sampler.SampleConfig(**kwargs)
    points = _sampler.sample(sc)
    buf = io.StringIO()
    _sampler.emit_csv(points, buf, seed=sc.seed)
    return buf.getvalue()


def _cmd_verify(args) -> dict:
    cfg = _load_config(args.config)
    tols = _tolerances(cfg, args)
    draws = _int_option(cfg, args, "draws", 1000)
    seed = _int_option(cfg, args, "seed", 0)
    rng = np.random.default_rng(seed)
    gamma_worst: dict = {}
    appendix_worst: dict = {}
    for _ in range(draws):
        alpha = 0.0
        while abs(alpha) < 1e-3:
            alpha = rng.uniform(-1, 1)
        rep = _classify.gamma_suite(alpha, rng.uniform(-1, 1),
                                    rng.uniform(-1, 1), rng.uniform(-1, 1))
        for k, v in rep.residuals.items():
            gamma_worst[k] = max(gamma_worst.get(k, 0.0), v)
        v3 = rng.normal(size=3)
        v3 = v3 / np.linalg.norm(v3)
        alpha, omega_a = 0.0, 0.0
        while alpha ** 2 + 4 * omega_a ** 2 < 1e-6:
            alpha, omega_a = rng.uniform(-1, 1, 2)
        rep = _classify.appendix_b_suite(*v3, alpha, omega_a)
        for k, v in rep.residuals.items():
            appendix_worst[k] = max(appendix_worst.get(k, 0.0), v)
    overall = max(max(gamma_worst.values()), max(appendix_worst.values()))
    return {"draws": draws, "seed": seed,
            "gamma_suite": gamma_worst, "appendix_suite": appendix_worst,
            "max_residual": overall, "tolerances": tols}


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qindirect",
        description="Indirect-controllability analyses for two qubits")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "classify": ("dimension table / single-axis CC verdict", True),
        "closure": ("numeric Lie-algebra closure dimension", True),
        "negat": ("invariant-space steering obstruction", True),
        "steer": ("pure-accessor steering contract residual", False),
        "fic": ("state-transfer contract residual", False),
        "sample": ("reachable-set CSV for the Ising example", True),
        "verify": ("identity-suite residuals over random draws", False),
    }
    for name, (help_text, config_required) in specs.items():
        p = sub.add_parser(name, help=help_text)
        if config_required:
            p.add_argument("config", help="JSON config file")
        else:
            p.add_argument("config", nargs="?", default=None,
                           help="optional JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--draws", type=int, default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--tol-rank", dest="tol_rank", type=float, default=None)
        p.add_argument("--tol-eq", dest="tol_eq", type=float, default=None)
    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "closure": _cmd_closure,
    "negat": _cmd_negat,
    "steer": _cmd_steer,
    "fic": _cmd_fic,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
}


def _emit(text: str, output_path) -> None:
    if output_path:
        with open(output_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = _COMMANDS[args.command](args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, dict):
        text = json.dumps(_jsonable(result), indent=2, sort_keys=True) + "\n"
    else:
        text = result
    try:
        _emit(text, args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
