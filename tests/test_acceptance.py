"""Acceptance gate for the package.

One test per acceptance criterion; each runs the full stated draw count at
the stated tolerance, prints a single pass/fail line with the measured
margin, and enforces its runtime budget. Run with ``pytest -v`` to get one
line per criterion, or ``pytest -s`` to see the printed details.
"""

import time

import numpy as np

from qindirect.classify import (CASE_DIMS, appendix_b_suite,
                                c2_failure_subalgebra, cross_validate,
                                gamma_suite, normal_form, oms0_check)
from qindirect.indirect import (E1, fic_mix, fic_reach, gennegat_test,
                                pure_uic_steer, swap_op)
from qindirect.lieclosure import closure, contains, orthonormalize
from qindirect.model import (generator_set, random_model,
                             random_single_axis_model)
from qindirect.qalg import (ID2, SIGMA_X, bloch_inverse, dagger, frob,
                            mat_exp, partial_trace, tensor, z_rotation)
from qindirect.sampler import SampleConfig, sample, y_closed_form, y_product


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} [{status}] {name}: {detail} "
          f"({elapsed:.1f} s, budget {budget:.0f} s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.1f} s"


def _random_bloch(rng, lo=0.0, hi=0.9):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return rng.uniform(lo, hi) * v


def _random_su2(rng):
    a, b, c = rng.uniform(0, 2 * np.pi, 3)
    return (z_rotation(a) @ mat_exp(b * SIGMA_X)
            @ z_rotation(c))


def test_criterion_1_dimension_table():
    rng = np.random.default_rng(10)
    start = time.perf_counter()
    agree = 0
    total = 0
    for case in sorted(CASE_DIMS):
        for _ in range(1000):
            cv = cross_validate(random_model(case, rng), tol=1e-9)
            total += 1
            agree += int(cv.agree and cv.predicted.tag == case)
    elapsed = time.perf_counter() - start
    _report(1, "dimension table", agree == total == 6000,
            f"{agree}/{total} closures match the predicted case dimension",
            elapsed, 60.0)


def test_criterion_2_single_axis_equivalence():
    rng = np.random.default_rng(20)
    start = time.perf_counter()
    trap = orthonormalize(c2_failure_subalgebra())
    agree = 0
    contained = True
    c2_failures = 0
    draws = [None] * 700 + ["c1"] * 150 + ["c2"] * 150
    for violate in draws:
        m = random_single_axis_model(rng, violate=violate)
        rep = oms0_check(m, tol_rank=1e-9)
        dim = len(closure(generator_set(m)))
        agree += int(rep.cc == (dim == 15))
        if not rep.c2:
            # the trap algebra lives in reduced coordinates
            c2_failures += 1
            nf = normal_form(m)
            L = closure(generator_set(nf.model))
            contained &= all(contains(trap, el, tol=1e-9) for el in L)
    elapsed = time.perf_counter() - start
    _report(2, "single-axis CC equivalence",
            agree == len(draws) and contained and c2_failures >= 150,
            f"{agree}/{len(draws)} verdicts match the closure dimension; "
            f"{c2_failures} C2 failures all trapped in the 7-dim subalgebra",
            elapsed, 120.0)


def test_criterion_3_identity_suites():
    rng = np.random.default_rng(30)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        alpha = 0.0
        while abs(alpha) < 1e-3:
            alpha = rng.uniform(-1, 1)
        rep = gamma_suite(alpha, rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(-1, 1))
        worst = max(worst, rep.max_residual)

        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        alpha, omega_a = 0.0, 0.0
        while alpha ** 2 + 4 * omega_a ** 2 < 1e-6:
            alpha, omega_a = rng.uniform(-1, 1, 2)
        rep = appendix_b_suite(*v, alpha, omega_a)
        worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - start
    _report(3, "identity suites", worst < 1e-12,
            f"max residual {worst:.2e} over 1000 draws per suite",
            elapsed, 30.0)


def test_criterion_4_obstruction():
    rng = np.random.default_rng(40)
    start = time.perf_counter()
    m = random_model("1c", rng)
    L = closure(generator_set(m))
    verdict = gennegat_test(L, bloch_inverse([0.0, 0.0, 0.5]),
                            bloch_inverse([0.0, 0.0, 0.4]))
    blocked = verdict.trace_image_dim <= 2 and verdict.uic_excluded

    full = 0
    for i in range(500):
        m = random_model("1a" if i % 2 else "2c", rng)
        L = closure(generator_set(m))
        rho_s = bloch_inverse(_random_bloch(rng, lo=0.15))
        rho_a = bloch_inverse(_random_bloch(rng))
        v = gennegat_test(L, rho_s, rho_a)
        full += int(v.trace_image_dim == 4 and not v.uic_excluded)
    elapsed = time.perf_counter() - start
    _report(4, "invariant-space obstruction", blocked and full == 500,
            f"diagonal pair blocked (image dim {verdict.trace_image_dim}); "
            f"{full}/500 CC models give the full image",
            elapsed, 60.0)


def test_criterion_5_steering():
    rng = np.random.default_rng(50)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        rho_s = bloch_inverse(_random_bloch(rng, hi=0.99))
        x = _random_su2(rng)
        t = pure_uic_steer(rho_s, x)
        out = partial_trace(t @ tensor(rho_s, E1) @ dagger(t))
        worst = max(worst, frob(out - x @ rho_s @ dagger(x)))
    elapsed = time.perf_counter() - start
    _report(5, "pure-accessor steering", worst < 1e-10,
            f"max contract residual {worst:.2e} over 500 draws",
            elapsed, 10.0)


def test_criterion_6_state_transfer():
    rng = np.random.default_rng(60)
    start = time.perf_counter()

    def _pure(rng):
        t, p = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        v = np.array([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)])
        return np.outer(v, v.conj())

    mix_worst = 0.0
    swap_worst = 0.0
    s = swap_op()
    for _ in range(100):
        rho_s = bloch_inverse(_random_bloch(rng, hi=0.99))
        psi = _pure(rng)
        u = fic_mix(rho_s, psi)
        out = partial_trace(u @ tensor(rho_s, psi) @ dagger(u))
        mix_worst = max(mix_worst, frob(out - ID2 / 2))
        out = partial_trace(s @ tensor(rho_s, psi) @ dagger(s))
        swap_worst = max(swap_worst, frob(out - psi))

    eig_worst = 0.0
    for _ in range(100):
        rho_s = bloch_inverse(_random_bloch(rng, hi=0.99))
        psi = _pure(rng)
        target = bloch_inverse(_random_bloch(rng, hi=0.99))
        u = fic_reach(rho_s, psi, target)
        out = partial_trace(u @ tensor(rho_s, psi) @ dagger(u))
        err = np.abs(np.linalg.eigvalsh(out) - np.linalg.eigvalsh(target))
        eig_worst = max(eig_worst, err.max())
    elapsed = time.perf_counter() - start
    ok = mix_worst < 1e-10 and swap_worst < 1e-10 and eig_worst < 1e-8
    _report(6, "free-interaction transfer", ok,
            f"mix residual {mix_worst:.2e}, swap residual {swap_worst:.2e}, "
            f"eigenvalue error {eig_worst:.2e} over 100 targets",
            elapsed, 30.0)


def test_criterion_7_point_clouds():
    budgets = []
    # (s_x, s_z, a_z) -> invariant
    start = time.perf_counter()
    pts = sample(SampleConfig(s_x=0.0, s_z=0.5, a_z=0.0, n=729))
    flat = np.abs(pts[:, :2]).max()
    budgets.append(time.perf_counter() - start)

    start = time.perf_counter()
    pts = sample(SampleConfig(s_x=0.5, s_z=0.0, a_z=0.0, n=729))
    plane = np.abs(pts[:, 2]).max()
    budgets.append(time.perf_counter() - start)

    start = time.perf_counter()
    pts = sample(SampleConfig(s_x=0.0, s_z=0.5, a_z=1.0, n=729))
    grow_axial = np.linalg.norm(pts, axis=1).max()
    budgets.append(time.perf_counter() - start)

    start = time.perf_counter()
    pts = sample(SampleConfig(s_x=0.5, s_z=0.0, a_z=1.0, n=729))
    radii = np.linalg.norm(pts, axis=1)
    grow_equatorial = radii.max()
    valid = bool((radii <= 1.0 + 1e-9).all())
    budgets.append(time.perf_counter() - start)

    ok = (flat < 1e-10 and plane < 1e-10
          and grow_axial > 0.5 + 1e-6 and grow_equatorial > 0.5 + 1e-6
          and valid)
    _report(7, "reachable point clouds", ok and max(budgets) < 10.0,
            f"mixed accessor keeps |x|,|y| <= {flat:.1e} and |z| <= {plane:.1e}; "
            f"pure accessor reaches radius {grow_axial:.3f} / {grow_equatorial:.3f}",
            sum(budgets), 40.0)


def test_criterion_8_closed_form():
    rng = np.random.default_rng(80)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        alphas = rng.uniform(-2 * np.pi, 2 * np.pi, 6)
        worst = max(worst, frob(y_closed_form(alphas) - y_product(alphas)))
    elapsed = time.perf_counter() - start
    _report(8, "six-factor closed form", worst < 1e-12,
            f"max Frobenius residual {worst:.2e} over 1000 draws",
            elapsed, 10.0)
