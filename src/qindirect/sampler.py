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
product is kept as an independent cross-check.  ``sample`` evaluates the
closed form and the reduction below for a whole block of angle rows at
once; ``reachable_point`` is the same map for one row, kept as its oracle.

A sampled point is the Bloch vector of

    e^{t1 sz} Tr_A[ Y (e^{s3 sz} rho_S e^{-s3 sz} (x) e^{s4 sz} rho_A
    e^{-s4 sz}) Y^dag ] e^{-t1 sz},

with rho_S = (1/2)(1 + s_x tx + s_z tz) and rho_A = (1/2)(1 + a_z tz).

rho_A = diag((1 + a_z)/2, (1 - a_z)/2) commutes with e^{s4 sz}, so the
s4 conjugation is the identity and s4 does not move a point.  ``sample``
skips it; s4 stays a column of the angle table, so a seed draws the same
table, grid index and cloud as it would with the rotation applied.
``reachable_point`` still applies it, so the tests can pin that the
point does not depend on s4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qalg import (ID2, SIGMA_X, SIGMA_Z, bloch, bloch_inverse, dagger,
                   from_pauli_coords, mat_exp, partial_trace, tensor,
                   z_rotation)

ANGLE_NAMES = ("t1", "t3", "t4", "a1", "a2", "s1", "s2", "s3", "s4")
DEFAULT_RANGE = (0.0, 4.0 * np.pi)
MODES = ("random", "grid")  # i.i.d. uniform angles, or grid midpoints
# rows of the angle table per array pass of ``sample``.  It bounds the
# (rows, 4, 4) complex temporaries of a large cloud.  At 256 rows (64 kB
# each) a 729-point call peaks at about the memory of the per-point loop;
# 1024 rows take about a fifth less time on 10^5 points but hold about
# 1 MB more at 729 points, for no gain there
_BLOCK = 256
# rows per formatting step of emit_csv; a step holds under 1 MB of floats,
# tuple and text, and 10^5 rows take as long as in one step
_CSV_ROWS = 4096


@dataclass(frozen=True)
class SampleConfig:
    """Initial state, sample count, and angle distribution for one run."""

    s_x: float
    s_z: float
    a_z: float
    n: int = 729
    seed: int = 0
    angle_ranges: tuple = (DEFAULT_RANGE,) * 9
    mode: str = "random"  # one of MODES

    def __post_init__(self):
        if not np.isfinite([self.s_x, self.s_z, self.a_z]).all():
            raise ValueError("s_x, s_z and a_z must be finite")
        if self.s_x ** 2 + self.s_z ** 2 > 1.0 + 1e-12:
            raise ValueError("initial S Bloch vector leaves the ball")
        if abs(self.a_z) > 1.0 + 1e-12:
            raise ValueError("|a_z| must be <= 1")
        if self.n < 1:
            raise ValueError("need at least one sample")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
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
    """Closed form of the six-factor product, grouped by accessor Pauli.

    ``alphas`` is one 6-vector (result 4x4) or an (..., 6) array (result
    (..., 4, 4), one propagator per row).
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape[-1:] != (6,):
        raise ValueError(f"expected (..., 6) angles, got shape {alphas.shape}")
    a1, a2, a3, a4, a5, a6 = np.moveaxis(alphas, -1, 0)
    c3, s3 = np.cos(a3), np.sin(a3)
    c4, s4 = np.cos(a4), np.sin(a4)
    cp25, sp25 = np.cos(a2 + a5), np.sin(a2 + a5)
    cm25, sm25 = np.cos(a2 - a5), np.sin(a2 - a5)
    cp16, sp16 = np.cos(a1 + a6), np.sin(a1 + a6)
    cm16, sm16 = np.cos(a1 - a6), np.sin(a1 - a6)

    # Y = C0 (x) 1 + Cx (x) tx + Cy (x) ty + Cz (x) tz; each block lists the
    # coefficients of (1, tx, ty, tz) on the S side
    c0 = (c3 * c4 * cp25 * cp16,
          -s3 * s4 * cm25 * cp16,
          -s3 * s4 * sm25 * cm16,
          1j * c3 * c4 * sp25 * cm16)
    cx = (1j * s3 * c4 * cp25 * cm16,
          1j * c3 * s4 * cm25 * cm16,
          1j * c3 * s4 * sm25 * cp16,
          -s3 * c4 * sp25 * cp16)
    cy = (1j * c3 * s4 * cm25 * sm16,
          1j * s3 * c4 * cp25 * sm16,
          -1j * s3 * c4 * sp25 * sp16,
          c3 * s4 * sm25 * sp16)
    cz = (-1j * s3 * s4 * cm25 * sp16,
          1j * c3 * c4 * cp25 * sp16,
          -1j * c3 * c4 * sp25 * sm16,
          -s3 * s4 * sm25 * sm16)
    # coefficient of P_j (x) P_k at index 4j + k, P_j on S and P_k on A;
    # E_jk = (i/2) P_j (x) P_k (the basis and its sigma dictionary are in
    # the qalg docstring), so the Pauli coordinates are -2i times it
    coef = np.stack([blk[j] for j in range(4) for blk in (c0, cx, cy, cz)],
                    axis=-1)
    coef *= -2j
    return from_pauli_coords(coef, 4)


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
    # the m grid values of each axis, looked up by the base-m digits of the
    # row index one axis at a time, last axis first, into one axis-major
    # table (returned as its (n, 9) transpose)
    values = lo[:, None] + (hi - lo)[:, None] * ((np.arange(m) + 0.5) / m)
    table = np.empty((9, cfg.n))
    index = np.arange(cfg.n)
    digit = np.empty_like(index)
    for axis in range(8, -1, -1):
        np.divmod(index, m, out=(index, digit))
        values[axis].take(digit, out=table[axis])
    return table.T


def _z_conjugated(rho, angles) -> np.ndarray:
    """z_rotation(a) @ rho @ dagger(z_rotation(a)) for each angle a.

    z_rotation(a) is diag(e^{ia/2}, e^{-ia/2}), so the product is rho times
    the phase matrix [[1, e^{ia}], [e^{-ia}, 1]]: one exponential per
    angle.  ``rho`` is one 2x2 matrix or a stack with the leading shape of
    ``angles``.
    """
    e = np.exp(1j * angles)
    phase = np.ones(e.shape + (2, 2), dtype=complex)
    phase[..., 0, 1] = e
    phase[..., 1, 0] = e.conj()
    return rho * phase


def _sample_block(rho_s, rho_a, table) -> np.ndarray:
    """reachable_point for every row (t1, t3, ..., s4) of an angle table.

    s4 is read and dropped: rho_a is diagonal, so it commutes with
    e^{s4 sz} (see the module docstring).
    """
    t1, t3, t4, a1, a2, s1, s2, s3, _ = table.T
    y = y_closed_form(kak_to_alphas(t3, t4, a1, a2, s1, s2).T)
    rs = _z_conjugated(rho_s, s3)
    # the row-wise Kronecker product rs (x) rho_a is not kept past this product
    ys = y @ (rs[:, :, None, :, None]
              * rho_a[None, None, :, None, :]).reshape(-1, 4, 4)
    omega = ys @ dagger(y)
    return bloch(_z_conjugated(partial_trace(omega, keep="S"), t1))


def sample(cfg: SampleConfig) -> np.ndarray:
    """n Bloch points; deterministic in the whole config.

    Batched over row blocks of the angle table; ``reachable_point`` is the
    same map for one row and serves as its oracle.
    """
    angles = _angle_table(cfg)
    rho_s = bloch_inverse([cfg.s_x, 0.0, cfg.s_z])
    rho_a = bloch_inverse([0.0, 0.0, cfg.a_z])
    points = np.empty((cfg.n, 3))
    for start in range(0, cfg.n, _BLOCK):
        stop = start + _BLOCK
        points[start:stop] = _sample_block(rho_s, rho_a, angles[start:stop])
    return points


def emit_csv(points, destination, seed: int | None = None) -> None:
    """Write points as CSV: optional "# seed=<n>" comment, header, rows.

    17 significant digits per coordinate (lossless float round trip),
    LF line endings.  Each block of _CSV_ROWS rows is formatted by one
    ``%`` operation, so the text of one block at a time is held.
    """
    points = np.asarray(points, dtype=float)

    def _write(fh):
        if seed is not None:
            fh.write(f"# seed={seed}\n")
        fh.write("x,y,z\n")
        for start in range(0, len(points), _CSV_ROWS):
            flat = points[start:start + _CSV_ROWS].ravel().tolist()
            fh.write("%.17g,%.17g,%.17g\n" * (len(flat) // 3) % tuple(flat))

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
