#!/usr/bin/env python3
"""Record the benchmark of a parent and a head checkout into BENCH files.

Each checkout is a directory holding a copy of this repository (for
example a ``git clone`` at the parent commit and one at the change).  For
each of the ten pairs, one per seed in ``SEEDS``, and each workload the
script runs

    python3 qbench/run.py --workload W --seed S --seconds T --trace 0

in both checkouts, one process at a time, the parent first in even pairs
and the head first in odd ones.  One traced round (``--trace 1``, the
first seed) adds the per-layer metrics.  It then times ``qindirect
sample`` at 10^5 points end to end (interpreter start, sampling and CSV
output to a file), ``SAMPLE_RUNS`` times per checkout, alternated the same
way, as an ungated number with its median and quartiles.  That wall time
cannot show a change: the same sampler code read quartiles
[0.313, 0.456] s in ``BENCH_272ddc867e55.json`` and [0.347, 0.462] s in
``BENCH_05aff3c2bf4b.json``, so it is a record, not a measure of a change.

It writes ``BENCH_<sha>.json`` (sha: the first 12 hex digits of the
checkout's HEAD commit) for both checkouts into the root of this
repository, with every result line, the benchmark's environment record
(commit, source digest, Python, numpy, CPU) and the median and quartiles
of each metric per workload.  The head's file also holds, for every
end-to-end metric of ``BENCHMARK.json``, the pairs in which the head was
better.  It edits nothing in the checkouts, and it exits with an error
before any run if either BENCH file already exists, so a record is never
overwritten.  Usage::

    python3 scripts/bench_record.py PARENT HEAD
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("classify-sweep", "reach-cloud", "steer-obstruct")
SEEDS = tuple(range(1, 11))  # one seed per parent/head pair
SAMPLE_RUNS = 15
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the CLI run timed end to end: a 10^5-point random cloud
SAMPLE_CONFIG = {"s_x": 0.5, "s_z": 0.0, "a_z": 1.0, "n": 100000, "seed": 1}


def bench_run(checkout: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``qbench/run.py`` process; its environment and result lines."""
    cmd = [sys.executable, "qbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "env": env, "result": json.loads(lines[-1])}


def time_cli_sample(checkout: str, workdir: str) -> float:
    """Wall seconds of one ``qindirect sample`` process writing its CSV."""
    config = os.path.join(workdir, "cloud.json")
    output = os.path.join(workdir, "cloud.csv")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(SAMPLE_CONFIG, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qindirect.cli", "sample",
                           config, "--output", output],
                          env=env, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"qindirect sample in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    with open(output, encoding="utf-8") as fh:
        rows = sum(1 for line in fh if not line.startswith("#")) - 1
    if rows != SAMPLE_CONFIG["n"]:
        raise RuntimeError(f"qindirect sample in {checkout} wrote {rows} rows")
    return wall


def head_commit(checkout: str) -> str:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def values(runs: list, workload: str, metric: str) -> list:
    """The metric of the untraced runs of one workload, in pair order."""
    return [run["result"]["metrics"][metric]["value"] for run in runs
            if run["workload"] == workload and not run["trace"]
            and metric in run["result"]["metrics"]]


def summarise(runs: list) -> dict:
    """Median and quartiles of each metric per workload and trace setting."""
    table: dict = {}
    for run in runs:
        key = run["workload"] + (" (traced)" if run["trace"] else "")
        for name, metric in run["result"]["metrics"].items():
            table.setdefault(key, {}).setdefault(name, []).append(
                metric["value"])
    out: dict = {}
    for key, metrics in table.items():
        for name, vals in metrics.items():
            q1, median, q3 = (statistics.quantiles(vals, n=4)
                              if len(vals) > 1 else vals * 3)
            out.setdefault(key, {})[name] = {"median": median, "q1": q1,
                                             "q3": q3}
    return out


def compare(parent_runs: list, head_runs: list, end_to_end: list) -> dict:
    """Per workload and end-to-end metric: head wins over the pairs."""
    out: dict = {}
    for workload in WORKLOADS:
        for metric in end_to_end:
            p = values(parent_runs, workload, metric["name"])
            h = values(head_runs, workload, metric["name"])
            sign = 1.0 if metric["better"] == "higher" else -1.0
            out.setdefault(workload, {})[metric["name"]] = {
                "wins": sum(sign * (b - a) > 0 for a, b in zip(p, h)),
                "pairs": len(p),
                "parent_median": statistics.median(p),
                "parent_quartiles": statistics.quantiles(p, n=4)[::2],
                "head_median": statistics.median(h),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("head")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="seconds per qbench run (default 30, the "
                             "run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)

    checkouts = [os.path.abspath(args.parent), os.path.abspath(args.head)]
    shas = [head_commit(c) for c in checkouts]
    if shas[0] == shas[1]:
        parser.error("both checkouts are at the same commit")
    paths = [os.path.join(REPO, f"BENCH_{sha[:12]}.json") for sha in shas]
    existing = [path for path in paths if os.path.exists(path)]
    if existing:
        parser.error(f"refusing to overwrite {', '.join(existing)}")
    records = [{"commit": sha, "runs": [], "cli_sample_seconds": []}
               for sha in shas]
    rounds = [(0, i, seed) for i, seed in enumerate(SEEDS)] + [(1, 0, SEEDS[0])]
    for trace, i, seed in rounds:
        for workload in WORKLOADS:
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                run = bench_run(checkouts[side], workload, seed, args.seconds,
                                trace)
                records[side]["runs"].append(run)
                value = run["result"]["metrics"].get("throughput_rel", {})
                print(f"{shas[side][:12]} {workload} seed {seed} "
                      f"trace {trace}: throughput_rel "
                      f"{value.get('value', '-')} failed "
                      f"{run['result']['failed']}", flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        for i in range(SAMPLE_RUNS):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                records[side]["cli_sample_seconds"].append(
                    time_cli_sample(checkouts[side], workdir))

    with open(os.path.join(checkouts[1], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    records[1]["compared_with"] = shas[0]
    records[1]["comparison"] = compare(records[0]["runs"], records[1]["runs"],
                                       end_to_end)
    for role, rec, path in zip(("parent", "head"), records, paths):
        rec["role"] = role
        rec["settings"] = {
            "command": "python3 qbench/run.py --workload W --seed S "
                       "--seconds T --trace {0,1}",
            "seconds": args.seconds, "seeds": list(SEEDS),
            "traced_seed": SEEDS[0],
            "cli_sample": {"config": SAMPLE_CONFIG,
                           "command": "python3 -m qindirect.cli sample "
                                      "CONFIG --output FILE",
                           "gated": False},
        }
        rec["summary"] = summarise(rec["runs"])
        q1, median, q3 = statistics.quantiles(rec["cli_sample_seconds"], n=4)
        rec["cli_sample_median_s"] = median
        rec["cli_sample_quartiles_s"] = [q1, q3]
        with open(path, "x", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    for workload, metrics in records[1]["comparison"].items():
        for name, c in metrics.items():
            q1, q3 = c["parent_quartiles"]
            print(f"{workload} {name}: parent {c['parent_median']:.4g} "
                  f"[{q1:.4g}, {q3:.4g}] head {c['head_median']:.4g} "
                  f"wins {c['wins']}/{c['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
