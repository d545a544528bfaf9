"""Reachable-set sampling for the Ising example.

The propagators of the 10-dim algebra of the Ising model factor (up to an
inner z-rotation pair absorbed into the initial state) as a six-exponential
product

    Y = e^{i t3 sx (x) sz} e^{t4 sz (x) 1} e^{a1 1 (x) sx}
        e^{i a2 sx (x) sx} e^{s1 sz (x) 1} e^{i s2 sx (x) sz},

which collapses, after substituting the half/quarter angles

    alpha = (-t3/4, t4/2, a1/2, -a2/4, s1/2, -s2/4),

into the closed form Y = C0 (x) 1 + Cx (x) tx + Cy (x) ty + Cz (x) tz with
2x2 blocks C0..Cz (t* are the accessor-side Pauli matrices).  Both routes
are implemented; the closed form is used for sampling and the exponential
product is kept as an independent cross-check.

A sampled point is the Bloch vector of

    e^{t1 sz} Tr_A[ Y (e^{s3 sz} rho_S e^{-s3 sz} (x) e^{s4 sz} rho_A
    e^{-s4 sz}) Y^dag ] e^{-t1 sz},

with rho_S = (1/2)(1 + s_x tx + s_z tz) and rho_A = (1/2)(1 + a_z tz).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .qalg import (ID2, SIGMA_X, SIGMA_Z, bloch, bloch_inverse, dagger,
                   mat_exp, partial_trace, pauli, tensor, z_rotation)

ANGLE_NAMES = ("t1", "t3", "t4", "a1", "a2", "s1", "s2", "s3", "s4")
DEFAULT_RANGE = (0.0, 4.0 * np.pi)


@dataclass(frozen=True)
class SampleConfig:
    """Initial state, sample count, and angle distribution for one run."""

    s_x: float
    s_z: float
    a_z: float
    n: int = 729
    seed: int = 0
    angle_ranges: tuple = (DEFAULT_RANGE,) * 9
    mode: str = "random"  # "random" (i.i.d. uniform) or "grid" (midpoints)

    def __post_init__(self):
        if self.s_x ** 2 + self.s_z ** 2 > 1.0 + 1e-12:
            raise ValueError("initial S Bloch vector leaves the ball")
        if abs(self.a_z) > 1.0 + 1e-12:
            raise ValueError("|a_z| must be <= 1")
        if self.n < 1:
            raise ValueError("need at least one sample")
        if self.mode not in ("random", "grid"):
            raise ValueError("mode must be 'random' or 'grid'")
        ranges = tuple((float(lo), float(hi)) for lo, hi in self.angle_ranges)
        if len(ranges) != 9 or any(hi < lo for lo, hi in ranges):
            raise ValueError("angle_ranges must be nine (lo, hi) intervals")
        object.__setattr__(self, "angle_ranges", ranges)


def kak_to_alphas(t3: float, t4: float, a1: float, a2: float,
                  s1: float, s2: float) -> np.ndarray:
    """Half/quarter-angle substitution for the closed form."""
    return np.array([-t3 / 4, t4 / 2, a1 / 2, -a2 / 4, s1 / 2, -s2 / 4])


def y_product(alphas) -> np.ndarray:
    """The six-exponential product, as an oracle for the closed form."""
    a1, a2, a3, a4, a5, a6 = np.asarray(alphas, dtype=float)
    t3, t4 = -4 * a1, 2 * a2
    b1, b2 = 2 * a3, -4 * a4
    c1, c2 = 2 * a5, -4 * a6
    gens = [t3 * 1j * tensor(SIGMA_X, SIGMA_Z),
            t4 * tensor(SIGMA_Z, ID2),
            b1 * tensor(ID2, SIGMA_X),
            b2 * 1j * tensor(SIGMA_X, SIGMA_X),
            c1 * tensor(SIGMA_Z, ID2),
            c2 * 1j * tensor(SIGMA_X, SIGMA_Z)]
    out = np.eye(4, dtype=complex)
    for g in gens:
        out = out @ mat_exp(g)
    return out


def y_closed_form(alphas) -> np.ndarray:
    """Closed form of the six-factor product, grouped by accessor Pauli."""
    a1, a2, a3, a4, a5, a6 = np.asarray(alphas, dtype=float)
    c3, s3 = np.cos(a3), np.sin(a3)
    c4, s4 = np.cos(a4), np.sin(a4)
    cp25, sp25 = np.cos(a2 + a5), np.sin(a2 + a5)
    cm25, sm25 = np.cos(a2 - a5), np.sin(a2 - a5)
    cp16, sp16 = np.cos(a1 + a6), np.sin(a1 + a6)
    cm16, sm16 = np.cos(a1 - a6), np.sin(a1 - a6)

    one = np.eye(2, dtype=complex)
    tx, ty, tz = (pauli(ax, tilde=True) for ax in "xyz")

    c0 = (c3 * c4 * cp25 * cp16 * one
          - s3 * s4 * cm25 * cp16 * tx
          - s3 * s4 * sm25 * cm16 * ty
          + 1j * c3 * c4 * sp25 * cm16 * tz)
    cx = (1j * s3 * c4 * cp25 * cm16 * one
          + 1j * c3 * s4 * cm25 * cm16 * tx
          + 1j * c3 * s4 * sm25 * cp16 * ty
          - s3 * c4 * sp25 * cp16 * tz)
    cy = (1j * c3 * s4 * cm25 * sm16 * one
          + 1j * s3 * c4 * cp25 * sm16 * tx
          - 1j * s3 * c4 * sp25 * sp16 * ty
          + c3 * s4 * sm25 * sp16 * tz)
    cz = (-1j * s3 * s4 * cm25 * sp16 * one
          + 1j * c3 * c4 * cp25 * sp16 * tx
          - 1j * c3 * c4 * sp25 * sm16 * ty
          - s3 * s4 * sm25 * sm16 * tz)
    return (tensor(c0, one) + tensor(cx, tx)
            + tensor(cy, ty) + tensor(cz, tz))


def reachable_point(cfg: SampleConfig, alphas, outer) -> np.ndarray:
    """Bloch vector of the target after one sampled propagator.

    ``outer`` is (t1, s3, s4): the final S-side z-rotation and the two
    initial-state z-rotations absorbed next to Y.
    """
    t1, s3, s4 = outer
    rho_s = bloch_inverse([cfg.s_x, 0.0, cfg.s_z])
    rho_a = bloch_inverse([0.0, 0.0, cfg.a_z])
    z3, z4 = z_rotation(s3), z_rotation(s4)
    y = y_closed_form(alphas)
    omega = y @ tensor(z3 @ rho_s @ dagger(z3),
                       z4 @ rho_a @ dagger(z4)) @ dagger(y)
    z1 = z_rotation(t1)
    return bloch(z1 @ partial_trace(omega, keep="S") @ dagger(z1))


def _angle_table(cfg: SampleConfig) -> np.ndarray:
    lo = np.array([r[0] for r in cfg.angle_ranges])
    hi = np.array([r[1] for r in cfg.angle_ranges])
    if cfg.mode == "random":
        rng = np.random.default_rng(cfg.seed)
        return rng.uniform(lo, hi, size=(cfg.n, 9))
    # grid: smallest per-axis count m with m^9 >= n, midpoint rule,
    # first n points in C (lexicographic) order
    m = 1
    while m ** 9 < cfg.n:
        m += 1
    steps = (np.arange(m) + 0.5) / m
    table = np.empty((cfg.n, 9))
    for idx in range(cfg.n):
        digits = np.unravel_index(idx, (m,) * 9)
        table[idx] = lo + (hi - lo) * steps[list(digits)]
    return table


def sample(cfg: SampleConfig) -> np.ndarray:
    """n Bloch points; deterministic in the whole config."""
    angles = _angle_table(cfg)
    points = np.empty((cfg.n, 3))
    for i, row in enumerate(angles):
        t1, t3, t4, a1, a2, s1, s2, s3, s4 = row
        alphas = kak_to_alphas(t3, t4, a1, a2, s1, s2)
        points[i] = reachable_point(cfg, alphas, (t1, s3, s4))
    return points


def emit_csv(points, destination, seed: int | None = None) -> None:
    """Write points as CSV: optional "# seed=<n>" comment, header, rows.

    17 significant digits per coordinate (lossless float round trip),
    LF line endings.
    """
    def _write(fh):
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write("x,y,z\n")
        for p in points:
            fh.write("%.17g,%.17g,%.17g\n" % (p[0], p[1], p[2]))

    if hasattr(destination, "write"):
        _write(destination)
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            _write(fh)


def parse_csv(source) -> np.ndarray:
    """Inverse of emit_csv; '#' comment lines and the header are skipped."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line == "x,y,z":
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return np.array(rows).reshape(-1, 3)
