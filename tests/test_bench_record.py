"""Tests for scripts/bench_record.py that start no benchmark run."""

import importlib.util
import json
import os
import statistics

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


def test_records_the_cli_sample_median_with_its_quartiles(
        bench_record, tmp_path, monkeypatch):
    metrics = ("throughput_rel", "latency_p50_rel")
    (tmp_path / "head").mkdir()
    (tmp_path / "head" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": m, "better": "higher"} for m in metrics]}))

    def fake_run(checkout, workload, seed, seconds, trace):
        return {"workload": workload, "seed": seed, "seconds": seconds,
                "trace": trace, "env": None,
                "result": {"failed": 0, "metrics": {
                    m: {"value": float(seed)} for m in metrics}}}

    walls = iter(float(i) for i in range(2 * bench_record.SAMPLE_RUNS))
    monkeypatch.setattr(bench_record, "bench_run", fake_run)
    monkeypatch.setattr(bench_record, "time_cli_sample",
                        lambda checkout, workdir: next(walls))
    assert bench_record.main([str(tmp_path / "parent"),
                              str(tmp_path / "head"), "--seconds", "1"]) == 0
    for side in "ab":
        rec = json.loads((tmp_path / f"BENCH_{side * 12}.json").read_text())
        walls_s = rec["cli_sample_seconds"]
        assert len(walls_s) == bench_record.SAMPLE_RUNS == 15
        q1, median, q3 = statistics.quantiles(walls_s, n=4)
        assert rec["cli_sample_median_s"] == statistics.median(walls_s) == median
        assert rec["cli_sample_quartiles_s"] == [q1, q3]
