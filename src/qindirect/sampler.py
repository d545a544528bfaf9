"""Reachable-set sampling for the Ising example.

The propagators of the 10-dim algebra of the Ising model factor (up to an
inner z-rotation pair absorbed into the initial state) as a six-exponential
product

    Y = e^{i t3 sx (x) sz} e^{t4 sz (x) 1} e^{a1 1 (x) sx}
        e^{i a2 sx (x) sx} e^{s1 sz (x) 1} e^{i s2 sx (x) sz}.

A sampled point is the Bloch vector of

    e^{t1 sz} Tr_A[ Y (e^{s3 sz} rho_S e^{-s3 sz} (x) e^{s4 sz} rho_A
    e^{-s4 sz}) Y^dag ] e^{-t1 sz},

with rho_S = (1/2)(1 + s_x tx + s_z tz) and rho_A = (1/2)(1 + a_z tz).

``sample`` computes this map as a rotation sweep on the real Pauli
coordinates (see :mod:`qindirect.qalg`) of i rho_S (x) rho_A, one column
per row of the angle table.  Every factor is a conjugation by e^{theta g E_j}
with E_j a single Pauli string: sz (x) 1 = E_30, i sx (x) sz = -E_13/2,
i sx (x) sx = -E_11/2 and 1 (x) sx = E_01.  Since [E_j, E_k] = +-E_l or 0,
that conjugation turns four coordinate planes (x_k, x_l) by the angle
phi = theta g and leaves the other coordinates alone.  The planes and their
orientation are read from ``qalg.STRUCTURE[4]`` at import.  The start is
i rho_S (x) rho_A = sum s_a t_b E_ab / 2 with s = (1, s_x, 0, s_z) and
t = (1, 0, 0, a_z).  As Tr_A E_a0 = sqrt(2) E_a and Tr_A E_ab = 0 for
b != 0, ``qalg.state_bloch`` checks and reads Tr(P_a rho') = 2 x_a0, and
no matrix is built.  The t1 z-rotation acts on S only, before the trace.

Each turn is the half-angle form c = (1 - t^2)/(1 + t^2), s = 2t/(1 + t^2)
of one tangent t = tan(phi/2), taken for the whole table at once; phi/2 =
theta (g/2) is exact, since g/2 is a power of two, and c^2 + s^2 = 1 to
rounding at any angle.  Only 18 of the 32 planes of the eight factors are
turned.  The start state is zero off its support E_ab, a in {0, 1, 3} and
b in {0, 3}, and the read-out is x_a0.  A plane is kept when it touches
a coordinate that the earlier planes can have made nonzero and one that
the later planes can carry to the read-out (``_live_planes``).  The others
turn two zeros or change only coordinates that are never read, so
dropping them leaves every point as it was (an exact zero may change
sign).

A factor turns all its live planes in one gather, turn and scatter
(``_turn``): with kl = (k..., l...) and its swap lk = (l..., k...), built
at import (``_TURNS``), x[kl] cos + x[lk] (-sin, +sin) is written back to
kl.  That is (c x_k - s x_l, c x_l + s x_k) bit for bit, since a - b and
a + (-b) round alike.  The first factor, s3, acts on the start state,
which is the same in every column and zero at the l coordinate of each of
its live planes, so its turn is the two outer products x_k cos and x_k sin
(an exact zero may change sign).

Two oracles follow other routes.  ``reachable_point`` maps one angle row
through 4x4 matrices: the closed form ``y_closed_form``, which substitutes
the half/quarter angles

    alpha = (-t3/4, t4/2, a1/2, -a2/4, s1/2, -s2/4)

and writes Y = C0 (x) 1 + Cx (x) tx + Cy (x) ty + Cz (x) tz with 2x2
blocks C0..Cz (t* are the accessor-side Pauli matrices), and
``qalg.partial_trace``.  ``y_product`` multiplies the six exponentials and
is the oracle of the closed form.

rho_A = diag((1 + a_z)/2, (1 - a_z)/2) commutes with e^{s4 sz}, so the
s4 conjugation is the identity and s4 does not move a point.  ``sample``
skips it; s4 stays a column of the angle table, so a seed draws the same
table, grid index and cloud as it would with the rotation applied.
``reachable_point`` still applies it, so the tests can pin that the
point does not depend on s4.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .model import ModelFormatError
from .qalg import (ID2, SIGMA_X, SIGMA_Z, STRUCTURE, bloch, bloch_inverse,
                   dagger, from_pauli_coords, mat_exp, partial_trace,
                   state_bloch, tensor, z_rotation)

ANGLE_NAMES = ("t1", "t3", "t4", "a1", "a2", "s1", "s2", "s3", "s4")
DEFAULT_RANGE = (0.0, 4.0 * np.pi)
MODES = ("random", "grid")  # i.i.d. uniform angles, or grid midpoints
# rows of the angle table per array pass of ``sample``.  The 729-point
# default runs in one pass; a pass of 4096 rows holds about 2.0 MB of
# temporaries at its peak (the (16, rows) coordinates and a few (8, rows)
# tables of tangents, cosines and signed sines), against the 7.2 MB angle
# table of a 10^5-point cloud, and takes that cloud fastest
_BLOCK = 4096
# rows per formatting step of emit_csv; a step holds under 1 MB of floats,
# tuple and text, and 10^5 rows take as long as in one step
_CSV_ROWS = 4096


def _is_integer(value) -> bool:
    """An int or numpy integer; a bool, a float or a string is not."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SampleConfig:
    """Initial state, sample count, and angle distribution for one run.

    A malformed field raises ModelFormatError.  rho_S and rho_A go through
    ``qalg.state_bloch``, the check of every point: by Ky Fan a point can
    fail it only if both lie past the unit ball.
    """

    s_x: float
    s_z: float
    a_z: float
    n: int = 729
    seed: int = 0
    angle_ranges: tuple = (DEFAULT_RANGE,) * 9
    mode: str = "random"  # one of MODES

    def __post_init__(self):
        # malformed fields before the preconditions on the state
        if self.mode not in MODES:
            raise ModelFormatError(f"mode must be one of {MODES}, "
                                   f"got {self.mode!r}")
        ranges = tuple((float(lo), float(hi)) for lo, hi in self.angle_ranges)
        if len(ranges) != 9:
            raise ModelFormatError("angle_ranges: need nine finite-width "
                                   f"intervals, got {len(ranges)}")
        bad = [name for name, (lo, hi) in zip(ANGLE_NAMES, ranges)
               if not 0.0 <= hi - lo < np.inf]
        if bad:
            raise ModelFormatError(f"angle_ranges: {bad} are not "
                                   "finite-width intervals with lo <= hi")
        if not _is_integer(self.n) or self.n < 1:
            raise ModelFormatError("n must be an integer of at least 1, "
                                   f"got {self.n!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ModelFormatError("seed must be an integer of at least 0, "
                                   f"got {self.seed!r}")
        # r = Tr(P rho) of rho_S and rho_A: the check of every output point
        state_bloch(np.array([[1.0, self.s_x, 0.0, self.s_z],
                              [1.0, 0.0, 0.0, self.a_z]]))
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
    return from_pauli_coords(coef)


def reachable_point(cfg: SampleConfig, row) -> np.ndarray:
    """Bloch vector of the target for one angle-table row (t1, t3, ..., s4).

    t1 is the final S-side z-rotation and s3, s4 are the two initial-state
    z-rotations absorbed next to Y; ``kak_to_alphas`` gives Y the other six.
    """
    t1, t3, t4, a1, a2, s1, s2, s3, s4 = row
    rho_s = bloch_inverse([cfg.s_x, 0.0, cfg.s_z])
    rho_a = bloch_inverse([0.0, 0.0, cfg.a_z])
    z3, z4 = z_rotation(s3), z_rotation(s4)
    y = y_closed_form(kak_to_alphas(t3, t4, a1, a2, s1, s2))
    omega = y @ tensor(z3 @ rho_s @ dagger(z3),
                       z4 @ rho_a @ dagger(z4)) @ dagger(y)
    z1 = z_rotation(t1)
    return bloch(z1 @ partial_trace(omega, keep="S") @ dagger(z1))


def _angle_table(cfg: SampleConfig) -> np.ndarray:
    lo = np.array([r[0] for r in cfg.angle_ranges])
    hi = np.array([r[1] for r in cfg.angle_ranges])
    if cfg.mode == "random":
        # lo + (hi - lo) u, rng.uniform's own formula, in place
        table = np.random.default_rng(cfg.seed).random((cfg.n, 9))
        table *= hi - lo
        table += lo
        return table
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


# the factors of the point map in the order they act on the state: the
# angle column, the Pauli string E_j (index 4a + b) of the generator g E_j,
# and g (module docstring)
_E01, _E11, _E13, _E30 = 1, 5, 7, 12
_SWEEP = (("s3", _E30, 1.0), ("s2", _E13, -0.5), ("s1", _E30, 1.0),
          ("a2", _E11, -0.5), ("a1", _E01, 1.0), ("t4", _E30, 1.0),
          ("t3", _E13, -0.5), ("t1", _E30, 1.0))
_SWEEP_COLUMNS = tuple(ANGLE_NAMES.index(name) for name, _, _ in _SWEEP)
# g/2 in {1/2, -1/4}: a power of two, so the half angles theta g/2 are exact
_HALF_SCALE = np.array([g / 2 for _, _, g in _SWEEP])
_HALF_SCALE.setflags(write=False)


def _planes(j: int) -> np.ndarray:
    """(4, 2) rows (k, l) with [E_j, E_k] = E_l, so [E_j, E_l] = -E_k.

    e^{phi E_j} . e^{-phi E_j} turns each plane (x_k, x_l) by phi.
    """
    planes = np.argwhere(STRUCTURE[4][j] > 0.5)
    planes.setflags(write=False)
    return planes


_PLANES = {j: _planes(j) for j in sorted({j for _, j, _ in _SWEEP})}


def _half_angle_turn(half):
    """cos and sin of 2 half from one tangent t = tan(half).

    c = (1 - t^2)/(1 + t^2) and s = 2t/(1 + t^2) satisfy c^2 + s^2 = 1 to
    rounding for every finite t, so a turn stays orthogonal at any angle.
    ``half`` is overwritten: s is computed in its memory.
    """
    t = np.tan(half, out=half)
    d = t * t
    c = 1.0 - d
    d += 1.0
    c /= d
    t *= 2.0
    t /= d
    return c, t


# the start state of ``sample``, sum s_a t_b E_ab / 2 with s = (1, s_x, 0,
# s_z) and t = (1, 0, 0, a_z), is zero off E_ab with a in (0, 1, 3) and b in
# (0, 3); ``sample`` writes it on exactly these coordinates, in this order
_START = np.array([4 * a + b for a in (0, 1, 3) for b in (0, 3)])
_START.setflags(write=False)
_READ = np.arange(0, 16, 4)  # x_a0, the coordinates Tr_A keeps
_READ.setflags(write=False)


def _live_planes(start, read) -> tuple:
    """Per factor of _SWEEP, the planes of _PLANES that can move the read-out.

    A coordinate is nonzero before a factor only if it is in ``start`` or
    an earlier plane joined it to one; it reaches the read-out only if it
    is in ``read`` or a later plane joins it to one.  A plane is kept when
    it touches both sets: every other plane turns two zeros, or changes
    only coordinates that no later plane carries to ``read``, so dropping
    it leaves the values of the read coordinates as they were (an exact
    zero may change sign).
    """
    planes = [_PLANES[j] for _, j, _ in _SWEEP]

    def reach(seed, order):
        marks = [np.zeros(16, dtype=bool)]
        marks[0][seed] = True
        for p in order:
            mark = marks[-1].copy()
            mark[p[mark[p].any(axis=1)]] = True
            marks.append(mark)
        return marks

    nonzero = reach(start, planes)  # nonzero[i]: before factor i
    needed = reach(read, planes[::-1])[::-1]  # needed[i + 1]: after factor i
    live = []
    for i, p in enumerate(planes):
        keep = p[nonzero[i][p].any(axis=1) & needed[i + 1][p].any(axis=1)]
        keep.setflags(write=False)
        live.append(keep)
    return tuple(live)


_LIVE = _live_planes(_START, _READ)


def _turns(live) -> tuple:
    """Per factor, the read-only (2, planes) gather indices kl = (k..., l...)
    of its planes and their swap lk = (l..., k...), for ``_turn``."""
    return tuple((planes.T, planes.T[::-1]) for planes in live)


_TURNS = _turns(_LIVE)


def _turn(x, kl, lk, cos, sines) -> None:
    """Turn the planes (x_k, x_l) of (16, rows) coordinates in place to
    (c x_k - s x_l, c x_l + s x_k) (module docstring); ``sines`` holds
    (-sin, +sin) and broadcasts against (2, planes, rows)."""
    a = x[kl]
    b = x[lk]
    a *= cos
    b *= sines
    a += b
    x[kl] = a


def _sample_block(state, table) -> np.ndarray:
    """reachable_point for every row (t1, t3, ..., s4) of an angle table.

    ``state`` holds the (16,) Pauli coordinates of i rho_S (x) rho_A, zero
    off _START.  s4 is read and dropped: rho_A is diagonal, so it commutes
    with e^{s4 sz} (see the module docstring).
    """
    rows = len(table)
    sines = np.empty((len(_SWEEP), 2, 1, rows))  # (-sin, +sin) per factor
    half = sines[:, 1, 0]
    np.multiply(table[:, _SWEEP_COLUMNS].T, _HALF_SCALE[:, None], out=half)
    cos, sin = _half_angle_turn(half)
    np.negative(sin, out=sines[:, 0, 0])
    # s3 turns the start, the same in every column and zero at l
    k, l = _TURNS[0][0]
    x = np.empty((16, rows))
    x[:] = state[:, None]
    x[k] = np.multiply.outer(state[k], cos[0])
    x[l] = np.multiply.outer(state[k], sin[0])
    for (kl, lk), c, s in zip(_TURNS[1:], cos[1:], sines[1:]):
        _turn(x, kl, lk, c, s)
    return state_bloch(2.0 * x[_READ].T)  # Tr(P_a rho') = 2 x_a0


def sample(cfg: SampleConfig) -> np.ndarray:
    """n Bloch points; deterministic in the whole config.

    A rotation sweep over row blocks of the angle table (module
    docstring); ``reachable_point`` is the same map for one row, computed
    from 4x4 matrices, and serves as its oracle.
    """
    angles = _angle_table(cfg)
    state = np.zeros(16)  # i rho_S (x) rho_A, on its support _START
    state[_START] = 0.5 * np.outer([1.0, cfg.s_x, cfg.s_z],
                                   [1.0, cfg.a_z]).ravel()
    points = np.empty((cfg.n, 3))
    for start in range(0, cfg.n, _BLOCK):
        stop = start + _BLOCK
        points[start:stop] = _sample_block(state, angles[start:stop])
    return points


def emit_csv(points, destination, seed: int | None = None) -> None:
    """Write points as CSV to the open text handle ``destination``:
    optional "# seed=<n>" comment, header, rows.

    17 significant digits per coordinate (lossless float round trip),
    LF line endings.  Each block of _CSV_ROWS rows is formatted by one
    ``%`` operation, so the text of one block at a time is held.  Adding
    0.0 writes -0.0 as 0 and leaves every other value as it is.
    """
    points = np.asarray(points, dtype=float)
    write = destination.write
    if seed is not None:
        write(f"# seed={seed}\n")
    write("x,y,z\n")
    for start in range(0, len(points), _CSV_ROWS):
        flat = (points[start:start + _CSV_ROWS] + 0.0).ravel().tolist()
        write("%.17g,%.17g,%.17g\n" * (len(flat) // 3) % tuple(flat))


def parse_csv(source) -> np.ndarray:
    """Inverse of emit_csv, read from the open text handle ``source``; '#'
    comment lines and the header are skipped."""
    rows = []
    for line in source.read().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line == "x,y,z":
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return np.array(rows).reshape(-1, 3)
