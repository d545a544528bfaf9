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

import qindirect
from qindirect import cli
from qindirect.model import ising_model, model_to_dict
from qindirect.sampler import SampleConfig, parse_csv, sample

ISING = model_to_dict(ising_model())
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
    assert len(payload["basis"]) == 10
    first = payload["basis"][0]
    assert np.asarray(first["real"]).shape == (4, 4)
    assert np.asarray(first["imag"]).shape == (4, 4)
    # the coordinates come back as skew-Hermitian, traceless matrices,
    # orthonormal under Re Tr(A^dag B)
    mats = np.array([np.asarray(b["real"]) + 1j * np.asarray(b["imag"])
                     for b in payload["basis"]])
    assert np.abs(mats + mats.conj().transpose(0, 2, 1)).max() <= 1e-12
    assert np.abs(np.trace(mats, axis1=1, axis2=2)).max() <= 1e-12
    gram = np.einsum("kij,lij->kl", mats.conj(), mats).real
    assert np.abs(gram - np.eye(10)).max() <= 1e-12


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
    assert "error" in err


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
