"""The three closed-loop workloads: seeded inputs, the call under test, checks.

Inputs are drawn here with numpy alone, so they do not change when the
package's own random-model helpers change.  Item ``k`` of a workload is a
pure function of ``(seed, k)``: runs of different length see prefixes of
one sequence, and a traced run sees the same items as an untraced one.

Each workload calls the package only through module attributes looked up
at call time (``self.q.classify.cross_validate``), so the span wrappers the
tracer installs on those attributes see every call.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, 1j], [-1j, 0]], dtype=complex)  # the package's sign convention
PZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
E1 = np.diag([1.0, 0.0]).astype(complex)


def load_package() -> SimpleNamespace:
    """The package modules the workloads call, as one namespace."""
    import qindirect.cli  # noqa: F401  (the CLI import is part of set-up)
    from qindirect import classify, indirect, lieclosure, model, qalg, sampler
    return SimpleNamespace(classify=classify, indirect=indirect,
                           lieclosure=lieclosure, model=model, qalg=qalg,
                           sampler=sampler)


# ---------------------------------------------------------------------------
# numpy-only helpers for drawing inputs and checking outputs


def density(p) -> np.ndarray:
    """(1/2)(1 + p . pauli) in the package's Pauli convention."""
    return 0.5 * (I2 + p[0] * PX + p[1] * PY + p[2] * PZ)


def bloch_of(rho) -> np.ndarray:
    return np.array([np.trace(p @ rho).real for p in (PX, PY, PZ)])


def keep_target(rho) -> np.ndarray:
    """Partial trace over the accessor of a 4x4 operator (target first)."""
    return np.trace(rho.reshape(2, 2, 2, 2), axis1=1, axis2=3)


def z_turn(angle: float) -> np.ndarray:
    return np.diag([np.exp(0.5j * angle), np.exp(-0.5j * angle)])


def item_rng(seed: int, stream: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, k])


def ball_point(rng, lo: float, hi: float) -> np.ndarray:
    v = rng.normal(size=3)
    return rng.uniform(lo, hi) * v / np.linalg.norm(v)


def unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def su2(rng) -> np.ndarray:
    q = rng.normal(size=4)
    a, b, c, d = q / np.linalg.norm(q)  # Haar-random unit quaternion
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def pure(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _nonzero(rng, shape, floor=0.1) -> np.ndarray:
    while True:
        v = rng.uniform(-1.0, 1.0, size=shape)
        if np.abs(v).max() > floor:
            return v


def full_control_case(case: str, rng) -> dict:
    """Drift of a full-control model in one case of the dimension table.

    Every decisive magnitude is kept at least 0.05 away from zero, so the
    case is unambiguous at the package's 1e-9 rank tolerance.
    """
    omega = (rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0)
             if case.startswith("1") else 0.0)
    K = np.zeros((3, 3))
    if case == "1a":
        K = _nonzero(rng, (3, 3))
        while np.abs(K[:, :2]).max() < 0.1 or np.abs(K[:, 2]).max() < 0.1:
            K = _nonzero(rng, (3, 3))
    elif case == "1b":
        K[:, :2] = _nonzero(rng, (3, 2))
    elif case == "1c":
        K[:, 2] = _nonzero(rng, 3)
    elif case == "2a":
        K = np.outer(_nonzero(rng, 3), _nonzero(rng, 3))
    elif case == "2b":
        while True:
            K = (np.outer(_nonzero(rng, 3), _nonzero(rng, 3))
                 + np.outer(_nonzero(rng, 3), _nonzero(rng, 3)))
            s = np.linalg.svd(K, compute_uv=False)
            if s[1] > 0.05 * s[0]:
                break
    elif case == "2c":
        K = rng.uniform(-1.0, 1.0, (3, 3))
        while abs(np.linalg.det(K)) < 0.05:
            K = rng.uniform(-1.0, 1.0, (3, 3))
    else:
        raise ValueError(f"unknown case {case!r}")
    return {"case": case, "omega": float(omega), "K": K,
            "C": rng.uniform(-1.0, 1.0, 3), "n": None}


def single_axis_case(violate, rng) -> dict:
    """Single-axis drift at omega_S = 0, optionally violating C1 or C2.

    Violations start from the normal form (control axis e_z) and are hidden
    behind random rotations of both qubits, as in the acceptance gate.
    """
    if violate is None:
        K = rng.uniform(-1.0, 1.0, (3, 3))
        while abs(np.linalg.det(K)) < 0.05:
            K = rng.uniform(-1.0, 1.0, (3, 3))
        return {"case": "axis", "omega": 0.0, "K": K,
                "C": rng.uniform(-1.0, 1.0, 3), "n": unit(rng)}
    alpha, beta = _nonzero(rng, ()), _nonzero(rng, ())
    gamma = rng.uniform(-1.0, 1.0)
    if violate == "c1":  # z = 0, so det K = alpha * beta * z = 0
        x, y = rng.uniform(-1.0, 1.0, 2)
        K = np.array([[alpha, gamma, 0.0], [0.0, beta, 0.0], [x, y, 0.0]])
        C = rng.uniform(-1.0, 1.0, 3)
    elif violate == "c2":  # omega_A = x = y = 0
        K = np.array([[alpha, gamma, 0.0], [0.0, beta, 0.0],
                      [0.0, 0.0, float(_nonzero(rng, ()))]])
        C = np.array([0.0, 0.0, rng.uniform(-1.0, 1.0)])
    else:
        raise ValueError(f"unknown violation {violate!r}")
    r_a, r_s = rotation(rng), rotation(rng)
    return {"case": "axis", "omega": 0.0, "K": r_a @ K @ r_s.T, "C": r_a @ C,
            "n": r_a @ np.array([0.0, 0.0, 1.0])}


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One closed-loop workload.

    ``draw(k)`` makes the raw inputs of item k with numpy alone, ``prepare``
    turns them into package objects (outside the timed region), ``run`` is
    the timed call, and ``check`` returns None or the reason an output is
    wrong.  ``window`` items, a whole number of input cycles, are the span
    over which the traced run's exact per-item counts are taken; ``block``
    items are drawn, run and checked together; ``warmup`` items from a
    separate stream run before timing starts.
    """

    name = ""
    stream = 0
    window = 1
    block = 1
    warmup = 1

    def __init__(self, seed: int, q: SimpleNamespace):
        self.seed = seed
        self.q = q

    def rng(self, k: int) -> np.random.Generator:
        return item_rng(self.seed, self.stream, k)

    def warmup_rng(self, k: int) -> np.random.Generator:
        return item_rng(self.seed, self.stream + 100, k)

    def setup_draws(self) -> list:
        """Raw inputs of the program-side set-up (none by default)."""
        return []

    def setup(self, draws: list) -> None:
        """Program-side set-up done once per process before the first item."""

    def draw(self, k: int, rng=None) -> dict:
        raise NotImplementedError

    def digest(self, h, raw: dict) -> None:
        """Feed the raw inputs of one item to the hash ``h``."""
        for key in sorted(raw):
            value = raw[key]
            h.update(value.tobytes() if isinstance(value, np.ndarray)
                     else repr(value).encode())

    def prepare(self, raw: dict):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, raw: dict, out) -> str | None:
        raise NotImplementedError


CASES = ("1a", "1b", "1c", "2a", "2b", "2c")
# single-axis draws per 20: 14 unviolated, 3 violating C1, 3 violating C2
AXIS_CYCLE = (None,) * 14 + ("c1",) * 3 + ("c2",) * 3


class ClassifySweep(Workload):
    """Verdict for one random model per item.

    Six of every seven items are full-control models, one per case 1a-2c,
    through ``cross_validate``; the seventh is a single-axis model at
    omega_S = 0 through ``oms0_check`` plus ``closure(generator_set(m))``.
    """

    name = "classify-sweep"
    stream = 1
    window = 7 * 20 * 3
    block = 56
    warmup = 14

    def draw(self, k, rng=None):
        rng = self.rng(k) if rng is None else rng
        if k % 7 < 6:
            return full_control_case(CASES[k % 7], rng)
        violate = AXIS_CYCLE[(k // 7) % len(AXIS_CYCLE)]
        return dict(single_axis_case(violate, rng), violate=violate)

    def prepare(self, raw):
        m = self.q.model
        control = m.FullSU2() if raw["n"] is None else m.SingleAxis(n=raw["n"])
        return m.TwoQubitModel(omega_S=raw["omega"], K=raw["K"], C=raw["C"],
                               control=control)

    def run(self, item):
        q = self.q
        if isinstance(item.control, q.model.SingleAxis):
            rep = q.classify.oms0_check(item)
            return rep, len(q.lieclosure.closure(q.model.generator_set(item)))
        return q.classify.cross_validate(item)

    def check(self, raw, out):
        if raw["case"] != "axis":
            if not out.agree:
                return (f"case {raw['case']}: closure dim {out.computed_dim} "
                        f"!= predicted {out.predicted.predicted_dim}")
            if out.predicted.tag != raw["case"]:
                return f"drawn case {raw['case']} predicted as {out.predicted.tag}"
            return None
        rep, dim = out
        if rep.cc != (dim == 15):
            return f"single-axis cc={rep.cc} but closure dim {dim}"
        expected = {None: rep.cc, "c1": not rep.c1, "c2": not rep.c2}
        if not expected[raw["violate"]]:
            return f"single-axis draw violating {raw['violate']} got {rep}"
        return None


REFERENCE_STATES = ((0.0, 0.5, 0.0), (0.5, 0.0, 0.0),
                    (0.0, 0.5, 1.0), (0.5, 0.0, 1.0))
CLOUD_N = 729
ORACLE_POINTS = (0, 242, 485, 728)


def angle_table(raw) -> np.ndarray:
    """The sampler's angle table, rebuilt independently for the oracle."""
    lo, hi = np.array(raw["ranges"]).T
    if raw["mode"] == "random":
        return np.random.default_rng(raw["sample_seed"]).uniform(
            lo, hi, size=(CLOUD_N, 9))
    m = 1
    while m ** 9 < CLOUD_N:
        m += 1
    digits = np.array(np.unravel_index(np.arange(CLOUD_N), (m,) * 9)).T
    return lo + (hi - lo) * (digits + 0.5) / m


def oracle_point(y_product, raw, row) -> np.ndarray:
    """One cloud point through the six-exponential product ``y_product``."""
    t1, t3, t4, a1, a2, s1, s2, s3, s4 = row
    y = y_product([-t3 / 4, t4 / 2, a1 / 2, -a2 / 4, s1 / 2, -s2 / 4])
    rho_s = density((raw["s_x"], 0.0, raw["s_z"]))
    rho_a = density((0.0, 0.0, raw["a_z"]))
    z3, z4, z1 = z_turn(s3), z_turn(s4), z_turn(t1)
    state = np.kron(z3 @ rho_s @ z3.conj().T, z4 @ rho_a @ z4.conj().T)
    out = keep_target(y @ state @ y.conj().T)
    return bloch_of(z1 @ out @ z1.conj().T)


class ReachCloud(Workload):
    """One ``sample()`` call of 729 points per item.

    Items cycle over the four reference initial states (axial/equatorial
    target x mixed/pure accessor); random and grid mode alternate every
    cycle.  Grid items draw their angle ranges from the seed.
    """

    name = "reach-cloud"
    stream = 2
    window = 8
    block = 1
    warmup = 2

    def draw(self, k, rng=None):
        rng = self.rng(k) if rng is None else rng
        s_x, s_z, a_z = REFERENCE_STATES[k % 4]
        mode = ("random", "grid")[(k // 4) % 2]
        sample_seed = int(rng.integers(2 ** 31))
        if mode == "random":
            ranges = ((0.0, 4.0 * np.pi),) * 9
        else:
            lo = rng.uniform(0.0, 2.0 * np.pi, 9)
            hi = lo + rng.uniform(np.pi, 2.0 * np.pi, 9)
            ranges = tuple(zip(lo.tolist(), hi.tolist()))
        return {"s_x": s_x, "s_z": s_z, "a_z": a_z, "mode": mode,
                "sample_seed": sample_seed, "ranges": ranges}

    def prepare(self, raw):
        return self.q.sampler.SampleConfig(
            s_x=raw["s_x"], s_z=raw["s_z"], a_z=raw["a_z"], n=CLOUD_N,
            seed=raw["sample_seed"], angle_ranges=raw["ranges"],
            mode=raw["mode"])

    def run(self, item):
        return self.q.sampler.sample(item)

    def check(self, raw, out):
        pts = np.asarray(out)
        if pts.shape != (CLOUD_N, 3) or not np.isfinite(pts).all():
            return f"cloud has shape {pts.shape} or non-finite points"
        radius = np.linalg.norm(pts, axis=1).max()
        if radius > 1.0 + 1e-9:
            return f"point outside the Bloch ball (radius {radius:.3e})"
        if raw["a_z"] == 0.0:
            axial = raw["s_x"] == 0.0
            off = np.abs(pts[:, :2] if axial else pts[:, 2]).max()
            if off > 1e-10:
                which = "|x|,|y|" if axial else "|z|"
                return f"mixed accessor breaks {which} = 0 (max {off:.3e})"
        table = angle_table(raw)
        for i in ORACLE_POINTS:
            err = np.abs(oracle_point(self.q.sampler.y_product, raw, table[i])
                         - pts[i]).max()
            if err > 1e-12:
                return f"point {i} differs from the product oracle by {err:.3e}"
        return None


POOL_CASES = ("1c", "1a", "2c")


class SteerObstruct(Workload):
    """Obstruction tests and steering constructions, rotating three kinds.

    Kind 0 runs ``gennegat_test`` against a pool of Lie algebras built in
    set-up (1c with z-axis state pairs, 1a and 2c with generic pairs),
    kind 1 ``fic_reach`` and kind 2 ``pure_uic_steer``.
    """

    name = "steer-obstruct"
    stream = 3
    window = 3 * 3 * 40
    block = 54
    warmup = 18

    def setup_draws(self):
        rng = item_rng(self.seed, self.stream + 200, 0)
        return [full_control_case(case, rng) for case in POOL_CASES]

    def setup(self, draws):
        q = self.q
        self.pool = []
        for raw in draws:
            m = q.model.TwoQubitModel(omega_S=raw["omega"], K=raw["K"],
                                      C=raw["C"], control=q.model.FullSU2())
            self.pool.append(q.lieclosure.closure(q.model.generator_set(m)))

    def draw(self, k, rng=None):
        rng = self.rng(k) if rng is None else rng
        kind = ("negat", "fic", "steer")[k % 3]
        if kind == "negat":
            pool = (k // 3) % len(POOL_CASES)
            if POOL_CASES[pool] == "1c":
                p_s = np.array([0.0, 0.0, rng.choice([-1.0, 1.0])
                                * rng.uniform(0.15, 0.9)])
                p_a = np.array([0.0, 0.0, rng.uniform(-0.9, 0.9)])
            else:
                p_s, p_a = ball_point(rng, 0.15, 0.9), ball_point(rng, 0.0, 0.9)
            return {"kind": kind, "pool": pool, "rho_s": density(p_s),
                    "rho_a": density(p_a)}
        rho_s = density(ball_point(rng, 0.0, 0.99))
        if kind == "fic":
            return {"kind": kind, "rho_s": rho_s, "psi": pure(rng),
                    "target": density(ball_point(rng, 0.0, 0.99))}
        return {"kind": kind, "rho_s": rho_s, "x": su2(rng)}

    def prepare(self, raw):
        return raw

    def run(self, item):
        ind = self.q.indirect
        if item["kind"] == "negat":
            return ind.gennegat_test(self.pool[item["pool"]], item["rho_s"],
                                     item["rho_a"])
        if item["kind"] == "fic":
            return ind.fic_reach(item["rho_s"], item["psi"], item["target"])
        return ind.pure_uic_steer(item["rho_s"], item["x"])

    def check(self, raw, out):
        kind = raw["kind"]
        if kind == "negat":
            if POOL_CASES[raw["pool"]] == "1c":
                if not out.uic_excluded or out.trace_image_dim > 2:
                    return f"1c z-axis pair not blocked: {out}"
            elif out.trace_image_dim != 4 or out.uic_excluded:
                return f"{POOL_CASES[raw['pool']]} generic pair blocked: {out}"
            return None
        u = np.asarray(out)
        if kind == "fic":
            state = np.kron(raw["rho_s"], raw["psi"])
            got = np.linalg.eigvalsh(keep_target(u @ state @ u.conj().T))
            err = np.abs(got - np.linalg.eigvalsh(raw["target"])).max()
            if not err <= 1e-8:
                return f"fic_reach eigenvalue error {err:.3e}"
            return None
        x, rho_s = raw["x"], raw["rho_s"]
        got = keep_target(u @ np.kron(rho_s, E1) @ u.conj().T)
        err = np.linalg.norm(got - x @ rho_s @ x.conj().T)
        if not err <= 1e-10:
            return f"pure_uic_steer contract residual {err:.3e}"
        return None


WORKLOADS = {w.name: w for w in (ClassifySweep, ReachCloud, SteerObstruct)}
