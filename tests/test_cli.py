"""End-to-end tests of the command line interface.

Every command is run in process through main(); outputs are parsed back
from stdout and compared against the library calls they wrap. Exit codes:
0 verdicts (even negative ones), 1 malformed input, 2 violated
mathematical preconditions.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qindirect
from qindirect import cli
from qindirect.lieclosure import closure, projector
from qindirect.model import (ModelFormatError, TwoQubitModel, generator_set,
                             ising_model)
from qindirect.qalg import SIGMA_X, mat_exp, z_rotation
from qindirect.sampler import (SampleConfig, parse_csv, reachable_point,
                               sample)

# the JSON form of ising_model()
ISING = {"omega_S": 1.0, "K": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
         "C": [0.0, 0.0, 0.0], "control": {"type": "full"}}
FULL_I = {"omega_S": 0.0, "K": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
          "C": [0, 0, 0], "control": {"type": "full"}}
AXIS_CC = {"omega_S": 0.0, "K": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           "C": [0.0, 1.0, 0.0], "control": {"type": "axis", "n": [0, 0, 1]}}
CASE_1C = {"omega_S": 1.0, "K": [[0, 0, 0.4], [0, 0, -0.3], [0, 0, 0.8]],
           "C": [0.1, 0.2, 0.3], "control": {"type": "full"}}
NEGAT = {**CASE_1C, "rho_S": [0.0, 0.0, 0.5], "rho_A": [0.0, 0.0, 0.3]}
SAMPLE = {"s_x": 0.0, "s_z": 0.5, "a_z": 1.0, "n": 4, "seed": 9}
# the flags each subcommand takes besides --output
FLAGS = {"classify": {"--tol-rank"}, "closure": {"--tol-rank"},
         "negat": {"--tol-rank"}, "steer": {"--seed", "--draws"},
         "fic": {"--seed", "--draws"}, "verify": {"--seed", "--draws"},
         "sample": {"--seed"}}
REMOVED_FLAGS = [(cmd, flag) for cmd, kept in FLAGS.items()
                 for flag in ("--seed", "--draws", "--tol-rank", "--tol-eq")
                 if flag not in kept]


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_full_control(tmp_path, capsys):
    cfg = _write(tmp_path, "ising.json", ISING)
    code, out, _ = _run(capsys, "classify", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "1b"
    assert payload["predicted_dim"] == 10
    assert payload["computed_dim"] == 10
    assert payload["agree"] is True
    assert payload["marginal"] is False
    assert payload["tolerances"]["tol_rank"] == 1e-9


def test_classify_single_axis(tmp_path, capsys):
    cfg = _write(tmp_path, "axis.json", AXIS_CC)
    code, out, _ = _run(capsys, "classify", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["c1"] is True
    assert payload["c2"] is True
    assert payload["cc"] is True
    assert payload["det_K"] == pytest.approx(1.0)
    assert payload["c2_magnitude"] == pytest.approx(1.0)


def test_classify_parallel_rows_same_json_in_both_frames(tmp_path, capsys):
    # K^T n lies outside the line of the parallel sigma_x- and
    # sigma_y-coupled rows; turning the S frame must not change the report
    outs = []
    for K in ([[0, 0.5, 0], [0, 1, 0], [1, 0, 0]],
              [[0, 0.5, 0], [0, 1, 0], [0, 0, -1]]):
        cfg = _write(tmp_path, "parallel.json", {**AXIS_CC, "K": K,
                                                 "C": [0.0, 0.0, 0.7]})
        code, out, _ = _run(capsys, "classify", cfg)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["c2"] is False and payload["cc"] is False
    assert payload["c2_magnitude"] == 0.0


def test_classify_single_axis_judges_omega_s_relative_to_the_drift(tmp_path,
                                                                   capsys):
    # omega_S = 0 is judged relative to the drift: the same model at two
    # scales gives one verdict
    verdicts = []
    for omega, scale in ((1e-14, 1.0), (1e-8, 1e6)):
        cfg = _write(tmp_path, "axis.json", {
            **AXIS_CC, "omega_S": omega, "K": (scale * np.eye(3)).tolist(),
            "C": [0.0, scale, 0.0]})
        code, out, _ = _run(capsys, "classify", cfg)
        assert code == 0
        r = json.loads(out)
        verdicts.append([r["c1"], r["c2"], r["cc"]])
    assert verdicts == [[True] * 3] * 2


def test_classify_single_axis_with_target_field_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "axis.json", {**AXIS_CC, "omega_S": 1.0})
    code, out, err = _run(capsys, "classify", cfg)
    assert code == 2
    assert out == ""
    assert "precondition violated" in err


def test_classify_tolerance_override(tmp_path, capsys):
    cfg = _write(tmp_path, "ising.json", ISING)
    code, out, _ = _run(capsys, "classify", cfg, "--tol-rank", "1e-6")
    assert code == 0
    assert json.loads(out)["tolerances"]["tol_rank"] == 1e-6


def test_classify_single_axis_with_a_huge_tolerance(tmp_path, capsys):
    # (tol_rank ||K||_F^2) ** 2 raised OverflowError; the verdict at a
    # tolerance past every magnitude is C1 false, in valid JSON
    cfg = _write(tmp_path, "axis.json", AXIS_CC)
    code, out, err = _run(capsys, "classify", cfg, "--tol-rank", "1e200")
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=pytest.fail)
    assert (payload["c1"], payload["c2"], payload["cc"]) == (False, True,
                                                             False)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol", ["1", "1e300"])
def test_classify_full_control_at_a_tolerance_of_one_or_more(tmp_path, capsys,
                                                             tol):
    # the prediction used to raise KeyError 0, reported as "error: 0"
    model = {"omega_S": 0, "K": [[1, 0, 0.2], [0, 1, 0], [0, 0.3, 1]],
             "C": [0, 0, 0], "control": {"type": "full"}}
    cfg = _write(tmp_path, "m.json", model)
    code, out, err = _run(capsys, "classify", cfg, "--tol-rank", tol)
    assert (code, err) == (0, "")
    assert json.loads(out)["case"] == "2a"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", [
    # the closure zeroed the drift row: computed_dim 3, agree false
    {"omega_S": 1.0, "K": (1e155 * np.eye(3)).tolist(), "C": [0, 0, 0],
     "control": {"type": "full"}},
    # OverflowError traceback at 1e100; "det_K": Infinity at 1e200
    *({**AXIS_CC, "K": (big * np.eye(3)).tolist(), "C": [0.0, big, 0.0]}
      for big in (1e100, 1e200)),
])
def test_model_number_past_the_bound_is_exit_1(tmp_path, capsys, model):
    code, out, err = _run(capsys, "classify", _write(tmp_path, "m.json", model))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "at most 1e+75" in err


def test_closure_with_basis(tmp_path, capsys):
    cfg = _write(tmp_path, "ising.json", {**ISING, "basis": True})
    code, out, _ = _run(capsys, "closure", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 10
    assert "basis" not in payload
    # the algebra is printed as its orthogonal projector in Pauli
    # coordinates: symmetric, idempotent, of trace dim
    P = np.asarray(payload["projector"])
    assert P.shape == (16, 16)
    assert np.abs(P - P.T).max() <= 1e-12
    assert np.abs(P @ P - P).max() <= 1e-12
    assert abs(np.trace(P) - 10) <= 1e-12
    expect = projector(closure(generator_set(ising_model())))
    assert np.abs(P - expect).max() <= 1e-12


def test_closure_prints_one_projector_for_one_algebra(tmp_path, capsys):
    # the Ising model at K[1][1] = 1, 1 + 2^-52 and 3 has one algebra
    projectors = []
    for k in (1.0, 1.0 + 2.0 ** -52, 3.0):
        K = [[0, 0, 0], [0, k, 0], [0, 0, 0]]
        cfg = _write(tmp_path, "ising.json", {**ISING, "K": K, "basis": True})
        code, out, _ = _run(capsys, "closure", cfg)
        assert code == 0
        projectors.append(np.asarray(json.loads(out)["projector"]))
    P = projectors[0]
    assert P.shape == (16, 16)
    assert np.abs(P @ P - P).max() <= 1e-12
    assert np.abs(P - P.T).max() <= 1e-12
    assert abs(np.trace(P) - 10) <= 1e-12
    assert max(np.abs(q - P).max() for q in projectors) <= 1e-12


@pytest.mark.parametrize("extra", [{}, {"basis": None}, {"basis": False}])
def test_closure_without_basis(tmp_path, capsys, extra):
    cfg = _write(tmp_path, "ising.json", {**ISING, **extra})
    code, out, _ = _run(capsys, "closure", cfg)
    assert code == 0
    assert set(json.loads(out)) == {"dim", "tolerances"}


def test_negat_excludes_case_1c(tmp_path, capsys):
    cfg = _write(tmp_path, "negat.json",
                 {**CASE_1C, "rho_S": [0.0, 0.0, 0.5],
                  "rho_A": [0.0, 0.0, 0.3]})
    code, out, _ = _run(capsys, "negat", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["lie_dim"] == 7
    assert payload["trace_image_dim"] <= 2
    assert payload["uic_excluded"] is True


# the obstruction blocks a z-axis pair on a 1c model and not a generic pair
# on 2c; the two closures end the two ways a sweep can: one adds nothing
# (7), the frame is used up (15).  su(4) is read off without a sweep (16,
# not blocked); the Ising 1b algebra sweeps from the seed's brackets in the
# seed's complement (6, blocked).  A near-mixed target at tol 1e-6 on su(4):
# the seed's brackets fall under the sweep's first norm test, so the space
# is the seed's own span (1, blocked)
@pytest.mark.parametrize("payload, flags, verdict", [
    ({**FULL_I, "omega_S": 1.0, "K": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
      "rho_S": [0, 0, 0.5], "rho_A": [0, 0, 0.5]}, [], (7, 7, 1, True)),
    ({**FULL_I, "rho_S": [0.3, 0.2, 0.4], "rho_A": [0, 0, 0.5]}, [],
     (15, 16, 4, False)),
    ({**AXIS_CC, "rho_S": [0.3, 0.2, 0.4], "rho_A": [0, 0, 0.5]}, [],
     (15, 16, 4, False)),
    ({**ISING, "rho_S": [0, 0.5, 0], "rho_A": [0, 0, 0]}, [], (10, 6, 3, True)),
    ({**FULL_I, "rho_S": [0, 0, 1e-7], "rho_A": [0, 0, 0]},
     ["--tol-rank", "1e-6"], (15, 1, 1, True)),
], ids=["1c-z-pair", "2c", "axis", "ising", "near-mixed"])
def test_negat_verdicts(tmp_path, capsys, payload, flags, verdict):
    cfg = _write(tmp_path, "negat.json", payload)
    code, out, _ = _run(capsys, "negat", cfg, *flags)
    assert code == 0
    r = json.loads(out)
    assert (r["lie_dim"], r["v_dim"], r["trace_image_dim"],
            r["uic_excluded"]) == verdict


def test_negat_requires_states(tmp_path, capsys):
    cfg = _write(tmp_path, "negat.json", CASE_1C)
    code, _, err = _run(capsys, "negat", cfg)
    assert code == 1
    assert "rho_S" in err


def test_negat_maximally_mixed_is_precondition_error(tmp_path, capsys):
    cfg = _write(tmp_path, "negat.json",
                 {**CASE_1C, "rho_S": [0.0, 0.0, 0.0],
                  "rho_A": [0.0, 0.0, 0.3]})
    code, _, err = _run(capsys, "negat", cfg)
    assert code == 2
    assert "precondition" in err


def test_steer_explicit_angles(tmp_path, capsys):
    cfg = _write(tmp_path, "steer.json",
                 {"x_angles": [0.3, 1.1, -0.4], "rho_S": [0.1, 0.0, 0.6]})
    code, out, _ = _run(capsys, "steer", cfg)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-10


@pytest.mark.parametrize("t", [3e154, 1e300])
def test_steer_takes_any_finite_middle_angle(tmp_path, capsys, t):
    # ||t sx||^2 past the float range once stopped mat_exp with exit 2
    cfg = _write(tmp_path, "steer.json", {"x_angles": [0.0, t, 0.0]})
    code, out, _ = _run(capsys, "steer", cfg)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-12


def test_su2_from_angles_is_the_exponential_product(rng):
    for t2, t, t1 in rng.uniform(-20.0, 20.0, (200, 3)):
        expect = z_rotation(t2) @ mat_exp(t * SIGMA_X) @ z_rotation(t1)
        got = cli._su2_from_angles((t2, t, t1))
        assert np.abs(got - expect).max() <= 1e-15


def test_steer_draws_deterministic(capsys):
    code1, out1, _ = _run(capsys, "steer", "--draws", "10", "--seed", "4")
    code2, out2, _ = _run(capsys, "steer", "--draws", "10", "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["draws"] == 10
    assert payload["max_residual"] < 1e-10


def test_fic_explicit_target(tmp_path, capsys):
    cfg = _write(tmp_path, "fic.json",
                 {"target": [0.2, 0.0, 0.4], "rho_S": [0.0, 0.0, 0.7],
                  "psi_A": [0.0, 1.0, 0.0]})
    code, out, _ = _run(capsys, "fic", cfg)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-8


def test_fic_draws(capsys):
    code, out, _ = _run(capsys, "fic", "--draws", "5", "--seed", "2")
    assert code == 0
    assert json.loads(out)["max_residual"] < 1e-8


def test_config_floats_and_flag_integers_give_one_run(tmp_path, capsys):
    # a config's integral floats and a flag's integer literal meet one rule
    cfg = _write(tmp_path, "fic.json", {"draws": 3.0, "seed": 5.0})
    from_config = _run(capsys, "fic", cfg)
    from_flags = _run(capsys, "fic", "--draws", "3", "--seed", "5")
    assert from_config[0] == 0
    assert from_config == from_flags


# every contract residual at rounding: random runs over their draws (verify
# over both identity suites, every key reported) and one explicit case each
# of steer and fic
@pytest.mark.parametrize("command, payload, flags", [
    ("steer", None, ["--draws", "200"]),
    ("fic", None, ["--draws", "200"]),
    ("verify", None, ["--draws", "50"]),
    ("steer", {"x_angles": [0.1, 0.2, 0.3]}, []),
    ("fic", {"target": [0.1, -0.2, 0.3], "rho_S": [0.2, 0.1, -0.4],
             "psi_A": [0.6, 0, 0.8]}, []),
], ids=["steer-draws", "fic-draws", "verify-draws", "steer-x-angles",
        "fic-target"])
def test_contract_residuals_at_rounding(tmp_path, capsys, command, payload,
                                        flags):
    cfg = [] if payload is None else [_write(tmp_path, "cfg.json", payload)]
    code, out, _ = _run(capsys, command, *cfg, *flags)
    assert code == 0
    r = json.loads(out)
    assert r["residual" if payload else "max_residual"] < 1e-12, r
    if command == "verify":
        assert (len(r["gamma_suite"]), len(r["appendix_suite"])) == (18, 13)


def _readme_angles(cfg, row):
    """Row ``row`` of the angle table, rebuilt from the README's rule for
    the mode and not read from the sampler's own table."""
    lo, hi = np.array(cfg.angle_ranges).T
    if cfg.mode == "random":
        return np.random.default_rng(cfg.seed).uniform(lo, hi, (cfg.n, 9))[row]
    m = 1
    while m ** 9 < cfg.n:
        m += 1
    digits = np.array(np.unravel_index(row, (m,) * 9))
    return lo + (hi - lo) * ((digits + 0.5) / m)


@pytest.mark.parametrize("mode", ["random", "grid"])
def test_a_cloud_of_10_5_points_in_each_mode(tmp_path, capsys, mode):
    # a header plus one line per point; three rows against the matrix oracle
    spec = {"s_x": 0.5, "s_z": 0.0, "a_z": 1.0, "n": 100000, "mode": mode}
    dest = tmp_path / "cloud.csv"
    code, _, _ = _run(capsys, "sample", _write(tmp_path, "big.json", spec),
                      "--output", str(dest))
    assert code == 0
    text = dest.read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(lines) == 100001
    points = parse_csv(io.StringIO(text))
    cfg = SampleConfig(**spec)
    for row in (0, 49999, 99999):
        err = np.abs(points[row] - reachable_point(
            cfg, _readme_angles(cfg, row))).max()
        assert err <= 1e-12, (row, err)


def test_a_cloud_of_10_5_points_with_a_mixed_accessor(tmp_path, capsys):
    # in the x-y plane, of radius at most 1/2
    spec = {"s_x": 0.5, "s_z": 0.0, "a_z": 0.0, "n": 100000}
    dest = tmp_path / "mixed.csv"
    code, _, _ = _run(capsys, "sample", _write(tmp_path, "mixed.json", spec),
                      "--output", str(dest))
    assert code == 0
    with open(dest, encoding="utf-8") as fh:
        points = parse_csv(fh)
    assert len(points) == 100000
    assert np.abs(points[:, 2]).max() <= 1e-10
    assert np.linalg.norm(points, axis=1).max() <= 0.5 + 1e-12


def test_sample_csv_matches_library(tmp_path, capsys):
    spec = {"s_x": 0.0, "s_z": 0.5, "a_z": 1.0, "n": 12, "seed": 9}
    cfg = _write(tmp_path, "fig.json", spec)
    out_path = tmp_path / "cloud.csv"
    code, out, _ = _run(capsys, "sample", cfg, "--output", str(out_path))
    assert code == 0
    assert out == ""  # everything went to the file
    text = out_path.read_text()
    assert text.startswith("# seed=9\nx,y,z\n")
    pts = parse_csv(io.StringIO(text))
    expect = sample(SampleConfig(**spec))
    assert np.array_equal(pts, expect)


def test_sample_integral_float_n(tmp_path, capsys):
    cfg = _write(tmp_path, "fig.json", {**SAMPLE, "n": 3.0})
    code, out, _ = _run(capsys, "sample", cfg)
    assert code == 0
    assert len(parse_csv(io.StringIO(out))) == 3


def test_sample_named_angle_ranges(tmp_path, capsys):
    spec = {"s_x": 0.0, "s_z": 0.5, "a_z": 0.0, "n": 4, "seed": 1,
            "angle_ranges": {"t1": [0.0, 0.1]}}
    cfg = _write(tmp_path, "fig.json", spec)
    code, out, _ = _run(capsys, "sample", cfg)
    assert code == 0
    assert len(parse_csv(io.StringIO(out))) == 4

    bad = _write(tmp_path, "bad.json",
                 {**spec, "angle_ranges": {"t9": [0.0, 0.1]}})
    dest = tmp_path / "cloud.csv"
    code, _, err = _run(capsys, "sample", bad, "--output", str(dest))
    assert code == 1
    assert "t9" in err
    assert not dest.exists()  # the CSV streams, but only once sample() is done


def test_verify_residuals(capsys):
    code, out, _ = _run(capsys, "verify", "--draws", "25", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_residual"] < 1e-12
    assert set(payload) >= {"gamma_suite", "appendix_suite", "draws", "seed"}
    assert len(payload["gamma_suite"]) == 18
    assert len(payload["appendix_suite"]) == 13


def test_unknown_model_field_is_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {**ISING, "bogus": 1})
    code, _, err = _run(capsys, "classify", cfg)
    assert code == 1
    assert "bogus" in err


def test_unknown_tolerance_key_is_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json",
                 {**ISING, "tolerances": {"tol_frob": 1e-9}})
    code, _, err = _run(capsys, "classify", cfg)
    assert code == 1
    assert "tol_frob" in err


def test_missing_config_file_is_exit_1(capsys):
    code, _, err = _run(capsys, "classify", "/nonexistent/config.json")
    assert code == 1
    assert "error" in err


def test_unwritable_output_path_is_exit_1(tmp_path, capsys):
    cfg = _write(tmp_path, "fig.json",
                 {"s_x": 0.0, "s_z": 0.5, "a_z": 1.0, "n": 4, "seed": 9})
    dest = tmp_path / "no_such_dir" / "cloud.csv"
    code, _, err = _run(capsys, "sample", cfg, "--output", str(dest))
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: '{dest}'\n"


@pytest.mark.parametrize("mode", ["random", "grid"])
def test_cloud_too_large_to_allocate_is_exit_1(tmp_path, capsys, mode):
    # 10^15 rows ask for far more than any address space holds, so the
    # first table fails to allocate at once
    cfg = _write(tmp_path, "huge.json", {**SAMPLE, "n": 10 ** 15, "mode": mode})
    dest = tmp_path / "cloud.csv"
    code, out, err = _run(capsys, "sample", cfg, "--output", str(dest))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not dest.exists()


def test_a_failure_while_writing_takes_the_same_exit_codes(tmp_path, capsys,
                                                           monkeypatch):
    # the file is removed, so a partial cloud is not left behind
    def emit_csv(points, fh, seed=None):
        fh.write("# partial\n")
        raise failure("no room for the text")

    monkeypatch.setattr(cli._sampler, "emit_csv", emit_csv)
    cfg = _write(tmp_path, "c.json", SAMPLE)
    dest = tmp_path / "cloud.csv"
    for failure, expect in ((MemoryError, "error: "),
                            (ValueError, "precondition violated: ")):
        code, out, err = _run(capsys, "sample", cfg, "--output", str(dest))
        assert (code, out, err) == (1 if failure is MemoryError else 2, "",
                                    expect + "no room for the text\n")
        assert not dest.exists()


def test_a_failure_while_writing_to_stdout_or_a_link_removes_nothing(
        tmp_path, capsys, monkeypatch):
    # only a regular file is removed: an --output of /dev/stdout, a link,
    # must not unlink it
    def emit_csv(points, fh, seed=None):
        raise MemoryError("no room for the text")

    monkeypatch.setattr(cli._sampler, "emit_csv", emit_csv)
    cfg = _write(tmp_path, "c.json", SAMPLE)
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "cloud.csv")
    for output in ([], ["--output", str(link)]):
        code, out, err = _run(capsys, "sample", cfg, *output)
        assert (code, out, err) == (1, "", "error: no room for the text\n")
    assert link.is_symlink()


# past the most rows an (n, 9) float table can have, refused before the
# grid loop (which would climb to m = 10^10 for 1e90) or numpy's shape
# check (a ValueError, exit 2, for 1e300 and 1e18) can run
@pytest.mark.parametrize("extra", [{"n": 1e90, "mode": "grid"}, {"n": 1e300},
                                   {"n": 1e18}])
def test_sample_count_past_the_largest_table_is_exit_1(tmp_path, capsys,
                                                       extra):
    cfg = _write(tmp_path, "huge.json", {**SAMPLE, **extra})
    dest = tmp_path / "cloud.csv"
    code, out, err = _run(capsys, "sample", cfg, "--output", str(dest))
    assert code == 1
    assert out == ""
    assert err.startswith("error: n must be at most ") and err.count("\n") == 1
    assert not dest.exists()


def test_model_config_and_cli_name_the_field_of_a_short_array(tmp_path,
                                                               capsys):
    short = [0.5, 0.5]
    with pytest.raises(ModelFormatError,
                       match=r"^C must have shape \(3,\), got \(2,\)$"):
        TwoQubitModel(omega_S=1.0, K=np.eye(3), C=short)
    with pytest.raises(ModelFormatError, match=r"^angle_ranges must have "
                       r"shape \(9, 2\), got \(2,\)$"):
        SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, angle_ranges=short)
    for command, payload, expect in (
            ("classify", {**ISING, "C": short}, "C must have shape (3,)"),
            ("negat", {**NEGAT, "rho_S": short}, "rho_S must have shape (3,)"),
            ("steer", {"x_angles": short}, "x_angles must have shape (3,)"),
            ("sample", {**SAMPLE, "angle_ranges": short},
             "angle_ranges must have shape (9, 2)")):
        code, out, err = _run(capsys, command,
                              _write(tmp_path, "short.json", payload))
        assert (code, out) == (1, "")
        assert err == f"error: {expect}, got (2,)\n"


def test_a_ragged_array_is_a_shape_error(tmp_path, capsys):
    cfg = _write(tmp_path, "ragged.json", {**NEGAT, "rho_S": [[0], 0.5, 0]})
    code, out, err = _run(capsys, "negat", cfg)
    assert (code, out) == (1, "")
    assert err == "error: rho_S must have shape (3,), got a ragged nesting\n"


def test_a_nesting_past_numpys_dimensions_is_a_shape_error(tmp_path, capsys):
    deep = 0
    for _ in range(70):
        deep = [deep]
    cfg = _write(tmp_path, "deep.json",
                 {"s_x": deep, "s_z": 0, "a_z": 1, "n": 4})
    code, out, err = _run(capsys, "sample", cfg)
    assert (code, out) == (1, "")
    assert err == "error: s_x must have shape (), got 70 levels of nesting\n"


# each integer below its bound, in the config and, where the command takes
# the flag, as the flag; sample has no --n flag
@pytest.mark.parametrize("command, key, value, low", [
    ("steer", "draws", 0, 1), ("steer", "seed", -1, 0),
    ("fic", "draws", 0, 1), ("fic", "seed", -1, 0),
    ("verify", "draws", 0, 1), ("verify", "seed", -1, 0),
    ("sample", "n", 0, 1), ("sample", "seed", -1, 0)])
def test_an_integer_below_its_bound_is_exit_1(tmp_path, capsys, command, key,
                                              value, low):
    base = SAMPLE if command == "sample" else {}
    runs = [[_write(tmp_path, "cfg.json", {**base, key: value})]]
    if key in cli.COMMANDS[command].flags:
        config = [_write(tmp_path, "base.json", base)] if base else []
        runs.append([*config, "--" + key, str(value)])
    for args in runs:
        code, out, err = _run(capsys, command, *args)
        assert (code, out) == (1, ""), args
        assert err == f"error: {key} must be an integer of at least {low}\n"


def test_config_must_be_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    code, _, err = _run(capsys, "classify", str(path))
    assert code == 1


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        cli.main([])
    capsys.readouterr()


def test_cli_import_leaves_scipy_out():
    code = "import sys, qindirect.cli; print('scipy' in sys.modules)"
    env = {**os.environ,
           "PYTHONPATH": str(Path(qindirect.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_parser_takes_seventeen_flags():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    taken = {(name, opt) for name, p in sub.choices.items()
             for action in p._actions for opt in action.option_strings
             if opt not in ("-h", "--help")}
    expect = {(cmd, flag) for cmd, kept in FLAGS.items()
              for flag in kept | {"--output"}}
    assert taken == expect
    assert len(taken) == 17


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_removed_flag_is_usage_error(tmp_path, capsys, command, flag):
    cfg = _write(tmp_path, "cfg.json", ISING)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, cfg, flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, key", [
    ("classify", {**ISING, "draws": 3}, "draws"),
    ("classify", {**ISING, "tolerances": {"tol_eq": 1e-12}}, "tol_eq"),
    ("closure", {**ISING, "output": "out.json"}, "output"),
    ("negat", {**NEGAT, "seed": 1}, "seed"),
    ("steer", {"tolerances": {"tol_rank": 1e-9}}, "tolerances"),
    ("fic", {"draws": 2, "tol_eq": 1e-12}, "tol_eq"),
    ("sample", {"s_zz": 0.3}, "s_zz"),
    ("verify", {"draws": 2, "output": "out.json"}, "output"),
])
def test_unknown_config_key_is_exit_1(tmp_path, capsys, command, payload,
                                      key):
    cfg = _write(tmp_path, "cfg.json", payload)
    code, out, err = _run(capsys, command, cfg)
    assert code == 1
    assert out == ""
    assert key in err


@pytest.mark.parametrize("command, payload, key", [
    ("sample", {**SAMPLE, "s_x": "abc"}, "s_x"),
    ("sample", {**SAMPLE, "s_z": [0.5]}, "s_z"),
    ("sample", {**SAMPLE, "a_z": {"z": 1}}, "a_z"),
    ("sample", {**SAMPLE, "n": "many"}, "n"),
    ("sample", {**SAMPLE, "seed": "x"}, "seed"),
    ("sample", {**SAMPLE, "angle_ranges": {"t1": ["a", 1.0]}}, "t1"),
    ("steer", {"draws": "ten"}, "draws"),
    ("steer", {"x_angles": [0.1, "b", 0.2]}, "x_angles"),
    ("classify", {**ISING, "tolerances": {"tol_rank": "tight"}}, "tol_rank"),
    ("classify", {**ISING, "tolerances": [1e-9]}, "tolerances"),
    ("negat", {**NEGAT, "rho_S": ["a", 0.0, 0.0]}, "rho_S"),
    ("negat", {**NEGAT, "rho_A": [0.0, 0.3]}, "rho_A"),
    ("fic", {"target": "up"}, "target"),
    ("classify", {**AXIS_CC, "control": {"type": "axis", "n": ["x", 0, 1]}},
     "'x'"),
    ("sample", {**SAMPLE, "n": 2.7}, "2.7"),
    ("sample", {**SAMPLE, "mode": "grids"}, "mode"),
    ("sample", {**SAMPLE, "angle_ranges": [[1.0, 0.0]] * 9}, "angle_ranges"),
    ("sample", {**SAMPLE, "angle_ranges": {"s3": [2.0, 1.0]}}, "s3"),
    ("sample", {**SAMPLE, "s_z": "nan"}, "s_z"),
    ("fic", {"target": ["nan", 0.0, 0.0]}, "target"),
    ("classify", {**ISING, "K": [[0, 0, 0], [0, "nan", 0], [0, 0, 0]]}, "K"),
    ("classify", {**ISING, "omega_S": "-inf"}, "'-inf'"),
    ("classify", {**AXIS_CC, "control": {"type": "axis", "n": [0, 0, "inf"]}},
     "axis"),
    # a tolerance or a draw count that means nothing
    ("closure", {**ISING, "tolerances": {"tol_rank": 0}}, "tol_rank"),
    ("closure", {**ISING, "tolerances": {"tol_rank": -1}}, "tol_rank"),
    ("classify", {**ISING, "tolerances": {"tol_rank": -1}}, "tol_rank"),
    ("verify", {"draws": 0}, "draws"),
    ("steer", {"draws": -3}, "draws"),
    ("fic", {"draws": 0}, "draws"),
    # a sample count below 1 and a negative seed
    ("sample", {**SAMPLE, "n": 0}, "n"),
    ("sample", {**SAMPLE, "seed": -3}, "seed"),
    ("fic", {"draws": 2, "seed": -1}, "seed"),
    ("verify", {"draws": 2, "seed": -1}, "seed"),
    # an angle range whose width overflows
    ("sample", {**SAMPLE, "angle_ranges": {"t1": [-1e308, 1e308]}}, "t1"),
    ("sample", {**SAMPLE, "mode": "grid",
                "angle_ranges": {"t1": [-1e308, 1e308]}}, "t1"),
    ("sample", {**SAMPLE, "angle_ranges": [[-1e308, 1e308]] * 9},
     "angle_ranges"),
    # booleans and numeric strings are not numbers
    ("sample", {**SAMPLE, "n": True}, "n"),
    ("sample", {**SAMPLE, "n": "2"}, "n"),
    ("sample", {**SAMPLE, "seed": False}, "seed"),
    ("fic", {"draws": True}, "draws"),
    ("sample", {**SAMPLE, "s_x": "0.3"}, "s_x"),
    ("sample", {**SAMPLE, "angle_ranges": {"t1": [0.0, True]}}, "t1"),
    ("steer", {"x_angles": [0.1, True, 0.2]}, "x_angles"),
    ("negat", {**NEGAT, "rho_A": [0.0, 0.0, "0.3"]}, "rho_A"),
    ("classify", {**ISING, "omega_S": True}, "omega_S"),
    ("classify", {**ISING, "K": [[0, 0, 0], [0, "1", 0], [0, 0, 0]]}, "K"),
    ("classify", {**ISING, "C": [0, False, 0]}, "C"),
    ("classify", {**AXIS_CC, "control": {"type": "axis", "n": [0, 0, True]}},
     "axis"),
    ("classify", {**ISING, "tolerances": {"tol_rank": "1e-6"}}, "tol_rank"),
    # a key that the chosen mode of steer or fic does not read
    ("steer", {"rho_S": [0, 0, 0.9], "draws": 3}, "rho_S"),
    ("fic", {"psi_A": [0, 0, 0.2]}, "psi_A"),
    ("steer", {"x_angles": [0.1, 0.2, 0.3], "draws": 9, "seed": 3}, "draws"),
    # the basis switch is a JSON boolean
    ("closure", {**ISING, "basis": "false"}, "basis"),
    ("closure", {**ISING, "basis": 1}, "basis"),
    ("closure", {**ISING, "basis": [0]}, "basis"),
    ("steer", {"rho_S": [0, 0, 0.9]}, "rho_S"),
])
def test_malformed_value_is_exit_1(tmp_path, capsys, command, payload, key):
    cfg = _write(tmp_path, "cfg.json", payload)
    code, out, err = _run(capsys, command, cfg)
    assert code == 1
    assert out == ""
    assert key in err


@pytest.mark.parametrize("command, payload", [
    ("steer", {"x_angles": [0.1, 0.2, 0.3]}),
    ("fic", {"target": [0.0, 0.0, 0.4]}),
])
def test_draw_flags_with_an_explicit_case_are_exit_1(tmp_path, capsys,
                                                      command, payload):
    cfg = _write(tmp_path, "cfg.json", payload)
    code, out, err = _run(capsys, command, cfg, "--draws", "9", "--seed", "3")
    assert code == 1
    assert out == ""
    assert "error:" in err and "draws" in err and "seed" in err


@pytest.mark.parametrize("command", ["steer", "fic", "verify", "sample"])
def test_negative_seed_flag_is_exit_1(tmp_path, capsys, command):
    args = ([_write(tmp_path, "cfg.json", SAMPLE)] if command == "sample"
            else ["--draws", "2"])
    code, out, err = _run(capsys, command, *args, "--seed", "-1")
    assert code == 1
    assert out == ""
    assert "error:" in err and "seed" in err


@pytest.mark.parametrize("command, config, flag, value", [
    ("fic", None, "--seed", "abc"),
    ("verify", None, "--draws", "2.5"),
    ("steer", None, "--seed", "3.0"),
    ("closure", ISING, "--tol-rank", "abc"),
    ("sample", SAMPLE, "--seed", "x"),
    ("closure", ISING, "--tol-rank", "0"),
    ("steer", {"x_angles": [0.1, 0.2, 0.3]}, "--draws", "3"),
], ids=["fic-seed-abc", "verify-draws-2.5", "steer-seed-3.0",
        "closure-tol-rank-abc", "sample-seed-x", "closure-tol-rank-0",
        "steer-x-angles-draws-3"])
def test_malformed_flag_value_is_exit_1(tmp_path, capsys, command, config,
                                        flag, value):
    # a flag value goes through the converter and the bound of its config
    # key, so a value of the wrong type or below its bound is malformed
    # input, not an argparse usage error; so is a flag that the chosen mode
    # does not read
    args = [] if config is None else [_write(tmp_path, "cfg.json", config)]
    code, out, err = _run(capsys, command, *args, flag, value)
    assert code == 1
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("command, text", [
    ("sample", '{"s_x": NaN, "s_z": 0.0, "a_z": 1.0, "n": 4}'),
    ("sample", '{"s_x": 0.0, "s_z": 0.5, "a_z": -Infinity}'),
    ("sample", '{"s_x": 0.0, "s_z": 0.5, "a_z": 1e999}'),
    ("fic", '{"target": [NaN, 0.0, 0.0]}'),
    ("fic", '{"target": [0.0, 0.0, 0.5], "rho_S": [Infinity, 0.0, 0.0]}'),
    ("classify", '{"omega_S": 1.0, "K": [[0, 0, 0], [0, NaN, 0], [0, 0, 0]],'
                 ' "C": [0, 0, 0], "control": {"type": "full"}}'),
    ("classify", '{"omega_S": 0.0, "K": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
                 ' "C": [0, 1, 0], "control": {"type": "axis",'
                 ' "n": [0, 0, -Infinity]}}'),
    # integers of 401 digits, beyond the float range
    pytest.param("sample", '{"s_x": 0.0, "a_z": -1%s}' % ("0" * 400),
                 id="sample-huge-int"),
    pytest.param("fic", '{"target": [0.0, 0.0, 1%s]}' % ("0" * 400),
                 id="fic-huge-int"),
    pytest.param("classify", '{"omega_S": 1.0, "K": [[0, 0, 0], [0, 1%s, 0],'
                 ' [0, 0, 0]], "C": [0, 0, 0], "control": {"type": "full"}}'
                 % ("0" * 400), id="classify-huge-int"),
])
def test_non_finite_number_is_exit_1(tmp_path, capsys, command, text):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert "error:" in err and "not a finite number" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tolerance_flag_is_exit_1(tmp_path, capsys, value):
    cfg = _write(tmp_path, "ising.json", ISING)
    code, out, err = _run(capsys, "classify", cfg, f"--tol-rank={value}")
    assert code == 1
    assert out == ""
    assert "tol_rank" in err and "not a finite number" in err


def test_bloch_vector_outside_ball_is_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "fic.json", {"target": [0.0, 0.0, 1.5]})
    code, _, err = _run(capsys, "fic", cfg)
    assert code == 2
    assert "precondition" in err


# 1e200: s_x^2 overflows a float, and the state check still reads it as
# outside, with no overflow warning
@pytest.mark.parametrize("excess, code", [(1e-11, 0), (5e-10, 2), (1e200, 2)])
@pytest.mark.parametrize("qubit", ["S", "A"])
def test_sample_and_negat_share_the_bloch_ball(tmp_path, capsys, excess,
                                               code, qubit):
    # one Bloch vector of norm 1 + excess, as rho_S (s_x) or rho_A (a_z)
    norm = 1.0 + excess
    if qubit == "S":
        sample_cfg = {**SAMPLE, "s_x": norm, "s_z": 0.0}
        negat_cfg = {**NEGAT, "rho_S": [norm, 0.0, 0.0]}
    else:
        sample_cfg = {**SAMPLE, "s_z": 0.0, "a_z": norm}
        negat_cfg = {**NEGAT, "rho_A": [0.0, 0.0, norm]}
    for command, payload in (("sample", sample_cfg), ("negat", negat_cfg)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = _run(capsys, command,
                                 _write(tmp_path, "cfg.json", payload))
        assert got == code, (command, err)
        assert (out == "") == (code == 2)
        assert ("precondition" in err) == (code == 2)
        if command == "negat":
            assert ("Bloch vector" in err) == (code == 2)


# a file that is not UTF-8, an integer past int()'s 4300-digit limit and an
# array nested past the parser's recursion limit
UNDECODABLE = {"not-utf8": b'{"n": \xff}',
               "5000-digit-int": b'{"n": 1' + b"0" * 4999 + b"}",
               "5000-deep-array": b"[" * 5000 + b"]" * 5000}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_config_is_exit_1(tmp_path, capsys, command, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNDECODABLE[name])
    code, out, err = _run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: invalid JSON in {path}: ")


# one valid config per subcommand and mode; the property below replaces one
# or two of its keys, or of the keys the subcommand reads, by JSON values
VALID = [("classify", ISING), ("classify", AXIS_CC),
         ("closure", {**ISING, "basis": True}), ("negat", NEGAT),
         ("steer", {"x_angles": [0.1, 0.2, 0.3], "rho_S": [0.0, 0.3, 0.4]}),
         ("steer", {"draws": 2, "seed": 1}),
         ("fic", {"target": [0.1, -0.2, 0.3], "rho_S": [0.2, 0.1, -0.4],
                  "psi_A": [0.6, 0.0, 0.8]}),
         ("fic", {"draws": 2, "seed": 1}),
         ("sample", {**SAMPLE, "mode": "grid"}),
         ("sample", {**SAMPLE, "angle_ranges": {"t1": [0.0, 1.0]}}),
         ("verify", {"draws": 2, "seed": 1})]
# every number's magnitude is at most 12: a draws of 1e308 would loop for
# ever and an n of 1e9 would allocate about 72 GB
st_words = st.sampled_from(["full", "axis", "type", "n", "random", "grid",
                            "tol_rank", "t1", "s3", "nan", "1", ""])
st_json = st.recursive(
    st.none() | st.booleans() | st.integers(-12, 12)
    | st.floats(-12.0, 12.0) | st_words
    | st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st_words, inner, max_size=3)),
    max_leaves=12)


def st_like(value):
    """JSON values of the structure of ``value`` with other numbers in it."""
    if isinstance(value, list):
        return st.tuples(*map(st_like, value)).map(list)
    if isinstance(value, dict):
        return st.fixed_dictionaries({k: st_like(v) for k, v in value.items()})
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return st.integers(-12, 12) | st.floats(-12.0, 12.0)
    return st.just(value)


@st.composite
def st_config(draw):
    command, base = draw(st.sampled_from(VALID))
    keys = sorted(set(base) | cli.COMMANDS[command].keys)
    cfg = dict(base)
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2,
                             unique=True)):
        cfg[key] = draw(st_json | st_like(base[key]) if key in base
                        else st_json)
    return command, cfg


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st_config())
def test_any_config_exits_0_1_or_2_with_its_message(tmp_path, capsys, case):
    command, cfg = case
    code, out, err = _run(capsys, command, _write(tmp_path, "cfg.json", cfg))
    assert code in (0, 1, 2)
    if code == 1:
        assert out == "" and err.startswith("error:"), err
    if code == 2:
        assert out == "" and err.startswith("precondition violated:"), err
