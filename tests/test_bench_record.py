"""Tests for scripts/bench_record.py that start no benchmark run."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts",
                     "bench_record.py")


@pytest.fixture
def bench_record(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_record", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    shas = {"parent": "a" * 40, "head": "b" * 40}
    monkeypatch.setattr(module, "REPO", str(tmp_path))
    monkeypatch.setattr(module, "head_commit",
                        lambda checkout: shas[os.path.basename(checkout)])

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(module, "bench_run", no_run)
    monkeypatch.setattr(module, "time_cli_sample", no_run)
    return module


@pytest.mark.parametrize("side", ["a", "b"])
def test_refuses_to_overwrite_a_record(bench_record, tmp_path, capsys, side):
    record = tmp_path / f"BENCH_{side * 12}.json"
    record.write_text("{}\n")
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["parent", "head"])
    assert exc.value.code == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert record.read_text() == "{}\n"


def test_refuses_one_commit_twice(bench_record):
    with pytest.raises(SystemExit):
        bench_record.main(["parent", "parent"])
