"""Self-test of the benchmark itself; exits 0 when every check holds.

Usage, from the root of a checkout::

    python3 qbench/selftest.py

It checks that
* the same seed gives the same inputs and another seed other inputs;
* two traced passes over a workload's count window give identical exact
  counts (items, calls per item, mean dimensions, points, bisection steps),
  and see the same inputs as an untraced pass;
* an item is normalised by the reference samples around and inside it;
* the latency histogram reads quantiles within 0.1% in fixed memory;
* the tracer rebinds every module-level name of a traced function and
  restores them all;
* every output check rejects a deliberately wrong output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys

import env

env.use_checkout_source()

import numpy as np  # noqa: E402

import run as bench  # noqa: E402
from tracer import COUNTS, SPANS, Tracer  # noqa: E402
from workloads import (WORKLOADS, ClassifySweep, ReachCloud,  # noqa: E402
                       SteerObstruct, load_package, z_turn)

FAILED = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILED.append(what)


def input_digest(cls, seed: int, q, n: int) -> str:
    wl = cls(seed, q)
    h = hashlib.sha256()
    for raw in wl.setup_draws():
        wl.digest(h, raw)
    for k in range(n):
        wl.digest(h, wl.draw(k))
    return h.hexdigest()


def exact_counts(wl, q) -> tuple:
    tracer = Tracer()
    tracer.install(q)
    try:
        run = bench.measure(wl, 0.0, wl.window, tracer, normalise=False)
    finally:
        tracer.uninstall()
    summary = tracer.summary(run.items, wl.window, run.wall)
    counts = {k: v for k, v in summary.items()
              if k.endswith(".calls") or k in COUNTS}
    counts["items"] = run.items
    return counts, run, summary


def test_inputs(q) -> None:
    for name, cls in WORKLOADS.items():
        n = cls.window
        same = input_digest(cls, 3, q, n) == input_digest(cls, 3, q, n)
        expect(same, f"{name}: seed 3 gives the same {n} inputs twice")
        other = input_digest(cls, 3, q, n) != input_digest(cls, 4, q, n)
        expect(other, f"{name}: seed 4 gives other inputs than seed 3")


def test_counts(q) -> None:
    for name, cls in WORKLOADS.items():
        wl = cls(3, q)
        wl.setup(wl.setup_draws())
        first, run1, summary = exact_counts(wl, q)
        second, run2, _ = exact_counts(wl, q)
        expect(first == second,
               f"{name}: exact counts repeat over {wl.window} items")
        untraced = bench.measure(wl, 0.0, wl.window)
        expect(run1.digest == run2.digest == untraced.digest,
               f"{name}: traced and untraced passes see the same inputs")
        expect(not run1.failures and not untraced.failures,
               f"{name}: no item fails in the count window")
        shares = sum(summary[f"{s}.share"] for s in SPANS)
        self_ok = all(summary[f"{s}.self_s"] >= -1e-9 for s in SPANS)
        expect(shares <= 1.0 + 1e-9 and self_ok,
               f"{name}: self times are non-negative and shares sum to "
               f"{shares:.3f} <= 1")


def test_histogram() -> None:
    values = np.random.default_rng(5).lognormal(-3.0, 1.0, 2001)
    hist = bench.LogHistogram()
    for chunk in np.array_split(values, 7):
        hist.add(chunk)
    size = hist.counts.nbytes + hist.sums.nbytes
    hist.add(values)
    hist.add(values)
    exact = np.sort(np.concatenate([values] * 3))
    ok = all(abs(hist.quantile(q) / exact[int(np.ceil(q * len(exact))) - 1]
                 - 1.0) <= 1e-3 for q in (0.1, 0.5, 0.9))
    expect(ok and hist.counts.nbytes + hist.sums.nbytes == size,
           "histogram quantiles are within 0.1% of exact ones, in fixed memory")


def test_normalise() -> None:
    sampler = bench.SpeedSampler()
    # samples at 0, 1, 2 and 3 s; the middle two ran at two thirds the speed
    sampler.starts.extend([0.0, 1.0, 2.0, 3.0])
    sampler.durations.extend([0.001, 0.0015, 0.0015, 0.001])
    n = bench.SAMPLE_ITERATIONS
    times, rates = sampler.normalise(np.array([0.5, 1.5]), np.array([0.9, 2.5]))
    expect(np.allclose(times, [0.4, 1.0 - 0.0015])
           and np.allclose(rates, [2 * n / 0.0025, 3 * n / 0.004]),
           "an item takes the samples around and inside it, less those inside")


def test_rebinding(q) -> None:
    import qindirect
    originals = {"classify.closure": q.classify.closure,
                 "lieclosure.closure": q.lieclosure.closure,
                 "indirect.partial_trace": q.indirect.partial_trace,
                 "qindirect.cross_validate": qindirect.cross_validate}
    tracer = Tracer()
    tracer.install(q)
    try:
        wrapped = (q.classify.closure is q.lieclosure.closure
                   and q.classify.closure is not originals["classify.closure"]
                   and q.indirect.partial_trace is q.qalg.partial_trace
                   and q.indirect.partial_trace
                   is not originals["indirect.partial_trace"]
                   and qindirect.cross_validate is q.classify.cross_validate
                   and qindirect.cross_validate
                   is not originals["qindirect.cross_validate"])
    finally:
        tracer.uninstall()
    expect(wrapped, "tracer rebinds a function in every module that binds it")
    restored = (q.classify.closure is originals["classify.closure"]
                and q.lieclosure.closure is originals["lieclosure.closure"]
                and q.indirect.partial_trace is originals["indirect.partial_trace"]
                and qindirect.cross_validate is originals["qindirect.cross_validate"])
    expect(restored, "tracer restores every binding")


def rejects(wl, raw, out, what: str) -> None:
    reason = bench.failure(wl, raw, out)
    expect(reason is not None, f"{wl.name}: check rejects {what} ({reason})")


def first_item(wl, pred):
    k = next(k for k in range(1000) if pred(k, wl.draw(k)))
    raw = wl.draw(k)
    out = wl.run(wl.prepare(raw))
    if wl.check(raw, out) is not None:
        raise RuntimeError(f"{wl.name} item {k} fails its check")
    return raw, out


def test_checks(q) -> None:
    wl = ClassifySweep(3, q)
    raw, cv = first_item(wl, lambda k, r: r["case"] == "1b")
    rejects(wl, raw, dataclasses.replace(cv, agree=False), "agree = False")
    rejects(wl, raw, dataclasses.replace(
        cv, predicted=dataclasses.replace(cv.predicted, tag="1a")),
        "a predicted tag other than the drawn case")
    rejects(wl, raw, ValueError("boom"), "an item that raised")
    raw, (rep, dim) = first_item(wl, lambda k, r: r.get("violate") == "c2")
    rejects(wl, raw, (rep, 15), "cc = False with closure dim 15")
    rejects(wl, raw, (dataclasses.replace(rep, c2=True), dim),
            "a C2 violation reported as C2 holding")

    wl = ReachCloud(3, q)
    for k, what in ((0, "axial"), (1, "equatorial")):
        raw, pts = first_item(wl, lambda i, r, k=k: i == k)
        bad = pts.copy()
        bad[5, 0 if what == "axial" else 2] += 1e-8
        rejects(wl, raw, bad, f"a mixed-accessor point off its {what} invariant")
    raw, pts = first_item(wl, lambda i, r: r["a_z"] == 1.0)
    bad = pts.copy()
    bad[3] = [1.0, 0.1, 0.0]
    rejects(wl, raw, bad, "a point outside the Bloch ball")
    bad = pts.copy()
    bad[242, 1] += 1e-11
    rejects(wl, raw, bad, "a point 1e-11 off the product oracle")
    rejects(wl, raw, pts[:-1], "a cloud one point short")

    wl = SteerObstruct(3, q)
    wl.setup(wl.setup_draws())
    raw, v = first_item(wl, lambda k, r: r["kind"] == "negat" and r["pool"] == 0)
    rejects(wl, raw, dataclasses.replace(v, trace_image_dim=4,
                                         uic_excluded=False),
            "a 1c z-axis pair reported unblocked")
    raw, v = first_item(wl, lambda k, r: r["kind"] == "negat" and r["pool"] == 1)
    rejects(wl, raw, dataclasses.replace(v, trace_image_dim=3,
                                         uic_excluded=True),
            "a 1a generic pair reported blocked")
    nudge = np.kron(z_turn(1e-6), np.eye(2))
    raw, u = first_item(wl, lambda k, r: r["kind"] == "fic")
    rejects(wl, raw, np.eye(4), "fic_reach returning the identity")
    raw, u = first_item(wl, lambda k, r: r["kind"] == "steer")
    rejects(wl, raw, u @ nudge, "pure_uic_steer off by a 1e-6 rotation")


def main() -> int:
    q = load_package()
    test_inputs(q)
    test_histogram()
    test_normalise()
    test_rebinding(q)
    test_checks(q)
    test_counts(q)
    print(f"{len(FAILED)} failed" if FAILED else "all benchmark self-tests pass")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
