"""Benchmark of the qindirect library: three closed-loop workloads.

Usage, from the root of a checkout::

    python3 qbench/run.py --workload classify-sweep --seed 1 --seconds 30 --trace 0

One caller, one process, one thread: the next item starts when the previous
one returns.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the run environment and a readable
table.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field

import env  # pins BLAS threads; must precede the numpy import

import numpy as np  # noqa: E402

from reference import Reference  # noqa: E402

MIN_ITEMS = 100         # p90 then has at least ten items beyond it
COLD_STARTS = 15        # measured fresh interpreters per run, for setup_s
COLD_START_TIMEOUT = 20.0  # a start takes under a second
NOMINAL_RATE = 20000.0  # reference iter/s that setup_s is scaled to
KEPT_FAILURES = 10      # failures kept with their reason; all are counted
SAMPLE_PERIOD = 0.05    # seconds between reference samples
SAMPLE_ITERATIONS = 30  # reference iterations per sample, about 1.5 ms

END_TO_END_UNITS = {
    "throughput_rel": "item/kref",
    "latency_p50_rel": "kref",
    "latency_p90_rel": "kref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class LogHistogram:
    """Count and sum of positive values in bins 0.1% wide on a log scale.

    A quantile is read as the mean of the values in the bin that holds its
    rank, so it is within 0.1% of the exact one.  The memory is fixed, so
    the benchmark's own bookkeeping does not grow with the number of items
    a run completes and stays out of ``peak_rss_mb``.
    """

    LO, HI, STEP = 1e-6, 1e6, math.log(1.001)

    def __init__(self):
        size = int(math.log(self.HI / self.LO) / self.STEP) + 1
        self.counts = np.zeros(size, dtype=np.int64)
        self.sums = np.zeros(size)

    def add(self, values) -> None:
        values = np.asarray(values, dtype=float)
        i = np.clip((np.log(values / self.LO) / self.STEP).astype(np.int64),
                    0, len(self.counts) - 1)
        np.add.at(self.counts, i, 1)
        np.add.at(self.sums, i, values)

    def quantile(self, q: float) -> float:
        """The value of rank ceil(q n), as the mean of its bin."""
        cum = np.cumsum(self.counts)
        i = int(np.searchsorted(cum, max(1, math.ceil(q * cum[-1]))))
        return float(self.sums[i] / self.counts[i])


@dataclass
class Run:
    """Totals and histograms of a measured loop, fixed in size."""

    items: int = 0
    wall: float = 0.0    # seconds spent in items
    cost: float = 0.0    # kref spent in items
    item_cost: LogHistogram = field(default_factory=LogHistogram)   # kref
    block_rate: LogHistogram = field(default_factory=LogHistogram)  # item/kref
    failed: int = 0
    failures: list = field(default_factory=list)   # (item, reason), the first few
    digest: str = ""

    def add_block(self, times: np.ndarray, rates: np.ndarray | None) -> None:
        """Fold in one block's item seconds and the iter/s each ran at.

        Without ``rates`` only the count and seconds are kept.
        """
        self.items += len(times)
        self.wall += float(times.sum())
        if rates is None:
            return
        cost = times * rates / 1000.0
        self.cost += float(cost.sum())
        self.item_cost.add(cost)
        self.block_rate.add([len(times) / cost.sum()])

    def fail(self, item: int, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < KEPT_FAILURES:
            self.failures.append((item, reason))


def failure(wl, raw, out) -> str | None:
    if isinstance(out, Exception):
        return "raised " + "".join(traceback.format_exception_only(out)).strip()
    try:
        return wl.check(raw, out)
    except Exception as exc:  # a check that cannot read the output fails it
        return f"check raised {exc!r}"


def cold_starts(name: str, seed: int, count: int) -> tuple:
    """Scaled and raw seconds of ``count`` fresh starts, and any problems.

    One start runs ``coldstart.py``: ``import qindirect.cli``, the
    workload's program-side set-up and its first item.  Its time runs from
    starting the interpreter to the item's return, less the benchmark's own
    input drawing, and is scaled to the reference speed ``NOMINAL_RATE``
    through the mean of three reference blocks: the parent's just before,
    the child's right after its item, and the parent's just after.  An
    unmeasured start, which fills the bytecode and file caches, comes
    first; the starts run one at a time and each is waited for.
    """
    args = [sys.executable, os.path.join(env.BENCH_DIR, "coldstart.py"),
            name, str(seed)]
    # cache bytecode as an installed package does, whatever the caller set
    child_env = {k: v for k, v in os.environ.items()
                 if k != "PYTHONDONTWRITEBYTECODE"}
    ref = Reference()
    scaled, raw, problems = [], [], []
    after = ref.rate()
    for attempt in range(count + 1):
        before = after
        t0 = time.monotonic()
        try:
            proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                                  env=child_env, timeout=COLD_START_TIMEOUT)
        except subprocess.TimeoutExpired:
            problems.append(f"cold start did not finish within "
                            f"{COLD_START_TIMEOUT:g} s; no more started")
            break
        after = ref.rate()
        try:
            got = json.loads(proc.stdout.splitlines()[-1])
            elapsed = got["done"] - t0 - got["draw_s"]
            speed = (before + got["rate"] + after) / 3.0
            check = got["check"]
        except (ValueError, KeyError, TypeError, IndexError):
            problems.append(f"cold start exited {proc.returncode} "
                            f"with {proc.stdout!r}")
            continue
        if check is not None:
            problems.append(f"cold start item: {check}")
        if proc.returncode != 0:
            problems.append(f"cold start exited {proc.returncode}")
        if attempt:
            scaled.append(elapsed * speed / NOMINAL_RATE)
            raw.append(elapsed)
    return scaled, raw, problems


class SpeedSampler:
    """Reference samples at a fixed period, for normalising item times.

    An interval timer fires every ``SAMPLE_PERIOD`` seconds; its signal
    handler runs ``SAMPLE_ITERATIONS`` reference iterations and records when
    it started and how long it took.  Python runs signal handlers in the
    main thread between bytecodes, so this needs no second thread, and a
    sample that starts after an item's first clock reading ends before its
    second.  Every item is normalised the same way, whatever its length: by
    the samples from the last one that started before it through the first
    one that started after it, and the samples inside it are subtracted
    from its time.  Only the samples still needed are kept.
    """

    def __init__(self):
        self.ref = Reference()
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.ref.iterate(SAMPLE_ITERATIONS)
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self.sample()  # so that the first item has a sample before it
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def covers(self, end: float) -> bool:
        """Whether a sample has started after the time ``end``."""
        return self.starts[-1] > end

    def normalise(self, begin: np.ndarray, end: np.ndarray) -> tuple:
        """Item seconds net of the samples inside, and iter/s of each item.

        Needs a sample after the last ``end``; drops the samples before the
        one that precedes the first ``begin``.
        """
        starts = np.array(self.starts)
        # the handler appends to both arrays; it may have run between copies
        durations = np.array(self.durations)[:len(starts)]
        spent = np.concatenate([[0.0], np.cumsum(durations)])
        lo = np.searchsorted(starts, begin, side="right") - 1
        hi = np.searchsorted(starts, end, side="right")
        inside = spent[hi] - spent[lo + 1]
        rates = SAMPLE_ITERATIONS * (hi - lo + 1) / (spent[hi + 1] - spent[lo])
        del self.starts[:lo[0]], self.durations[:lo[0]]
        return end - begin - inside, rates


def measure(wl, seconds: float, min_items: int, tracer=None,
            normalise: bool = True) -> Run:
    """Closed loop over items 0, 1, ... for ``seconds`` and ``min_items``.

    Items run in blocks of ``wl.block``; drawing the block's inputs and
    checking its outputs happen outside the timed calls and with tracing
    off.  With ``normalise``, a ``SpeedSampler`` runs throughout and each
    block is normalised once a sample has started after it; without, only
    item seconds are kept and no reference code runs.
    """
    run = Run()
    digest = hashlib.sha256()
    clock = time.perf_counter
    sampler = SpeedSampler() if normalise else contextlib.nullcontext()
    pending = []  # (begin, end) of blocks waiting for a sample after them
    with sampler:
        deadline = clock() + seconds
        k = 0
        while k < min_items or clock() < deadline:
            ks = range(k, k + wl.block)
            raws = [wl.draw(i) for i in ks]
            for i, raw in zip(ks, raws):
                if i < wl.window:
                    wl.digest(digest, raw)
            items = [wl.prepare(raw) for raw in raws]
            outs = []
            begin, end = np.empty(len(items)), np.empty(len(items))
            for j, (i, item) in enumerate(zip(ks, items)):
                if tracer is not None:
                    tracer.item, tracer.active = i, True
                t0 = clock()
                try:
                    out = wl.run(item)
                except Exception as exc:  # a raising item is a failed item
                    out = exc
                t1 = clock()
                if tracer is not None:
                    tracer.active = False
                begin[j], end[j] = t0, t1
                outs.append(out)
            if normalise:
                pending.append((begin, end))
                while pending and sampler.covers(pending[0][1][-1]):
                    run.add_block(*sampler.normalise(*pending.pop(0)))
            else:
                run.add_block(end - begin, None)
            for i, raw, out in zip(ks, raws, outs):
                reason = failure(wl, raw, out)
                if reason is not None:
                    run.fail(i, reason)
            k += wl.block
        if normalise:
            sampler.sample()  # so that the last item has a sample after it
            for block in pending:
                run.add_block(*sampler.normalise(*block))
    run.digest = digest.hexdigest()[:16]
    return run


def warm_up(wl) -> list:
    """Run a few items from a separate input stream; return any failures."""
    problems = []
    for i in range(wl.warmup):
        raw = wl.draw(i, wl.warmup_rng(i))
        try:
            out = wl.run(wl.prepare(raw))
        except Exception as exc:  # reported like a failed item
            out = exc
        reason = failure(wl, raw, out)
        if reason is not None:
            problems.append(f"warm-up item {i}: {reason}")
    return problems


def end_to_end(run: Run, setup_s: float) -> dict:
    """The gated metrics of an untraced run.

    Throughput is the median over blocks of items per kref, which discounts
    a block slowed by other work on the machine; the latency percentiles
    are taken over every item.
    """
    done = 1.0 - run.failed / run.items
    return {
        "throughput_rel": done * run.block_rate.quantile(0.5),
        "latency_p50_rel": run.item_cost.quantile(0.5),
        "latency_p90_rel": run.item_cost.quantile(0.9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(wl, q, seconds: float) -> tuple:
    """Traced run over the same items as an untraced one; per-layer metrics.

    The tracing overhead compares the reference-normalised cost of four
    passes over the first ``window`` items, in the order untraced, traced,
    traced, untraced, which cancels a steady drift of machine speed.  The
    main traced pass follows; it runs no reference code, so no span holds
    reference time, and its per-layer times are in seconds.
    """
    from tracer import Tracer

    passes = {False: [], True: []}
    for traced in (False, True, True, False):
        scratch = Tracer() if traced else None
        if scratch is not None:
            scratch.install(q)
        try:
            passes[traced].append(measure(wl, 0.0, wl.window, scratch))
        finally:
            if scratch is not None:
                scratch.uninstall()
    tracer = Tracer()
    tracer.install(q)
    try:
        run = measure(wl, seconds, wl.window, tracer, normalise=False)
    finally:
        tracer.uninstall()
    layer = tracer.summary(items=run.items, window=wl.window, wall=run.wall)
    base = passes[False][0]
    layer["bench.throughput_raw"] = (base.items - base.failed) / base.wall
    layer["bench.reference_rate"] = 1000.0 * base.cost / base.wall
    cost = {traced: sum(p.cost for p in runs) for traced, runs in passes.items()}
    layer["bench.trace_overhead"] = cost[True] / cost[False] - 1.0
    problems = []
    if len({p.digest for p in passes[False] + passes[True] + [run]}) != 1:
        problems.append("traced and untraced passes saw different inputs")
    return run, layer, tracer, problems, passes[False] + passes[True]


def layer_units() -> dict:
    from tracer import COUNTS, SPANS
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "calls/item"
        units[f"{span}.self_s"] = "s/item"
        units[f"{span}.share"] = "fraction"
    units.update({name: "count" for name in COUNTS})
    units["sampler.sample.points"] = "points/item"
    units["indirect.fic_reach.lam_evals"] = "evals/call"
    units["bench.throughput_raw"] = "item/s"
    units["bench.reference_rate"] = "iter/s"
    units["bench.trace_overhead"] = "fraction"
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env.use_checkout_source()
    except env.MissingSource as exc:
        print(f"qbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, load_package
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    record = env.record()
    print("env " + json.dumps(record, sort_keys=True))
    problems = []

    q = load_package()
    wl = WORKLOADS[args.workload](args.seed, q)
    wl.setup(wl.setup_draws())
    problems += warm_up(wl)

    if args.trace:
        run, metrics, tracer, more, passes = traced_run(wl, q, args.seconds)
        problems += more
        units = layer_units()
        path = os.path.join(env.OUT_DIR,
                            f"trace-{args.workload}-seed{args.seed}.npz")
        tracer.write(path, {"env": record, "workload": args.workload,
                            "seed": args.seed, "window": wl.window,
                            "items": run.items, "metrics": metrics})
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(path)}")
    else:
        run = measure(wl, args.seconds, MIN_ITEMS)
        scaled, raw, more = cold_starts(args.workload, args.seed, COLD_STARTS)
        problems += more
        # 0 only when no start succeeded, which the problems then report
        metrics = end_to_end(run, statistics.median(scaled) if scaled else 0.0)
        units = END_TO_END_UNITS
        passes = []
    attempted = run.items + sum(p.items for p in passes)
    failed = run.failed + sum(p.failed for p in passes)
    failures = run.failures + [f for p in passes for f in p.failures]

    print(f"workload {args.workload} seed {args.seed}: {run.items} items "
          f"(latency samples {run.items}), inputs digest {run.digest}")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'raw throughput (not gated)':<42} "
              f"{run.items / run.wall:14.6g} item/s")
        print(f"  {'reference rate (not gated)':<42} "
              f"{1000.0 * run.cost / run.wall:14.6g} iter/s")
        print(f"  {'raw setup seconds (not gated)':<42} "
              f"{statistics.median(raw or [0.0]):14.6g} s")
    print(f"  {'error_rate':<42} {failed / attempted:14.6g} "
          f"failed/attempted")
    for item, reason in failures[:5]:
        print(f"FAILED item {item}: {reason}")
    for reason in problems:
        print(f"FAILED {reason}")

    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
