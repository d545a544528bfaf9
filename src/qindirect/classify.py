"""Controllability classification for the two-qubit indirect-control model.

Covers three layers:

* full accessor control (dim B = 3): the six-case dimension table for the
  dynamical Lie algebra, predicted from (omega_S, D, F, rank K) and checked
  against the numeric closure;
* single-axis control with omega_S = 0: the two-condition complete
  controllability test (C1: det K != 0; C2: drift components perpendicular
  to the control axis survive), in closed form and in no chosen frame;
* the ladder of matrix identities behind the single-axis proof (the
  Gamma pair of commuting su(2)'s and the appendix bracket chain), exposed
  as residual suites so they can be re-verified numerically at any
  parameter draw.

Conventions are those of :mod:`qindirect.qalg`; in particular every
two-site basis element written ``i sigma_a (x) sigma_b`` carries the
explicit scalar ``i``.  Every element is a (16,) row of Pauli coordinates
from ``qalg.E_AB`` by the sigma <-> E_ab dictionary stated there, a basis
an (n, 16) array; the suites bracket with ``qalg.bracket`` and measure with
the Euclidean norm, the Frobenius norm in this orthonormal basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import norm

from .qalg import E_AB, TOL_RANK, bracket, frame
from .lieclosure import closure
from .model import FullSU2, SingleAxis, TwoQubitModel, generator_set

CASE_DIMS = {"1a": 15, "1b": 10, "1c": 7, "2a": 6, "2b": 10, "2c": 15}


@dataclass(frozen=True)
class CaseLabel:
    tag: str
    predicted_dim: int
    marginal: bool = False  # some decisive magnitude sits near the tolerance


@dataclass(frozen=True)
class CrossValidation:
    predicted: CaseLabel
    computed_dim: int
    agree: bool


@dataclass(frozen=True)
class Oms0Report:
    c1: bool
    c2: bool
    cc: bool
    det_K: float
    c2_magnitude: float


# ---------------------------------------------------------------------------
# element builders (shared by reference bases and identity suites): rows
# of Pauli coordinates, E_AB[a, b] = E_ab with index 0 for the identity


_AXIS = {"x": 1, "y": 2, "z": 3}


def _two(s_ax: str, a_ax: str) -> np.ndarray:
    """i sigma_s (x) sigma_a = -E_sa / 2."""
    return -0.5 * E_AB[_AXIS[s_ax], _AXIS[a_ax]]


def _two_vec(v, a_ax: str) -> np.ndarray:
    """i sigma_v (x) sigma_a for a real S-side vector v."""
    return -0.5 * np.tensordot(v, E_AB[1:, _AXIS[a_ax]], axes=1)


def _one_s(ax: str) -> np.ndarray:
    """sigma_s (x) 1 = E_s0."""
    return E_AB[_AXIS[ax], 0].copy()


def _one_a(ax: str) -> np.ndarray:
    """1 (x) sigma_a = E_0a."""
    return E_AB[0, _AXIS[ax]].copy()


def case_1b_basis() -> np.ndarray:
    """span{sigma_z (x) 1, 1 (x) su(2), i sigma_{x,y} (x) su(2)} (10-dim)."""
    out = [_one_s("z")]
    out += [_one_a(ax) for ax in "xyz"]
    out += [_two(s_ax, a_ax) for s_ax in "xy" for a_ax in "xyz"]
    return np.array(out)


def case_1c_basis() -> np.ndarray:
    """span{i sigma_z (x) su(2), sigma_z (x) 1, 1 (x) su(2)} (7-dim)."""
    out = [_two("z", ax) for ax in "xyz"]
    out.append(_one_s("z"))
    out += [_one_a(ax) for ax in "xyz"]
    return np.array(out)


def case_2a_basis(direction) -> np.ndarray:
    """span{i sigma_u (x) su(2), 1 (x) su(2)} for a fixed S-direction u."""
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    return np.array([_two_vec(u, ax) for ax in "xyz"]
                    + [_one_a(ax) for ax in "xyz"])


def c2_failure_subalgebra() -> np.ndarray:
    """The 7-dim subalgebra trapping the closure when C2 fails.

    span{1 (x) sz, sz (x) 1, i sy (x) sx, i sx (x) sy, i sy (x) sy,
    i sx (x) sx, i sz (x) sz}, written in normal-form coordinates.
    """
    return np.array([_one_a("z"), _one_s("z"), _two("y", "x"), _two("x", "y"),
                     _two("y", "y"), _two("x", "x"), _two("z", "z")])


# ---------------------------------------------------------------------------
# dim B = 3 classification


def predict_case(m: TwoQubitModel, tol: float = TOL_RANK) -> CaseLabel:
    """Case tag and Lie-algebra dimension for a fully controlled accessor."""
    if not isinstance(m.control, FullSU2):
        raise ValueError("case prediction requires full accessor control")
    w = abs(m.omega_S)
    rows = m.K.tolist()
    d = max(abs(k) for row in rows for k in row[:2])  # D, columns 1-2 of K
    f = max(abs(row[2]) for row in rows)  # F, the third
    checked = [w, d, f]
    if w > tol:
        if d <= tol and f <= tol:
            raise ValueError("interaction vanishes at the working tolerance")
        if d > tol and f > tol:
            tag = "1a"
        elif d > tol:
            tag = "1b"
        else:
            tag = "1c"
    else:
        # s1 >= s2 >= s3, s1 > 0 as K is nonzero; s1 counts at any tol (a
        # tol of 1 or more is case 2a), and tol * s1 on Python floats is inf
        # where it overflows, with no warning
        s1, s2, s3 = np.linalg.svd(m.K, compute_uv=False).tolist()
        tag = ("2a", "2b", "2c")[(s2 > tol * s1) + (s3 > tol * s1)]
        checked += [s2 / s1, s3 / s1]
    marginal = any(tol / 10 < q < tol * 10 for q in checked)
    return CaseLabel(tag=tag, predicted_dim=CASE_DIMS[tag], marginal=marginal)


def cross_validate(m: TwoQubitModel, tol: float = TOL_RANK) -> CrossValidation:
    label = predict_case(m, tol)
    dim = len(closure(generator_set(m), tol))
    return CrossValidation(predicted=label, computed_dim=dim,
                           agree=(dim == label.predicted_dim))


# ---------------------------------------------------------------------------
# single-axis control: the normal form, and C1/C2 in closed form on floats


@dataclass(frozen=True)
class NormalForm:
    """Single-axis model rotated so n = e_z, C_perp = omega_A e_y, b = beta e_y.

    K becomes [[alpha, gamma, 0], [0, beta, 0], [x, y, z]] with
    alpha, beta, omega_A >= 0.
    """

    alpha: float
    gamma: float
    beta: float
    x: float
    y: float
    z: float
    omega_A: float
    r_a: np.ndarray
    r_s: np.ndarray
    model: TwoQubitModel


def normal_form(m: TwoQubitModel) -> NormalForm:
    """r_a from ``frame(n, C)`` (n -> e_z, C_perp -> e_y), r_s from
    ``frame(b, a)`` of r_a K (b -> e_y, a_perp -> e_x); a zero or parallel
    input leaves a direction free, and ``frame`` completes it."""
    _single_axis(m, float(np.sum(m.K ** 2) + m.C @ m.C))
    f = frame(m.control.n, m.C)
    r_a = np.array([-f[2], f[1], f[0]])
    k1 = r_a @ m.K
    g = frame(k1[1], k1[0])
    r_s = np.array([g[1], g[0], -g[2]])

    k_nf = k1 @ r_s.T
    c_nf = r_a @ m.C
    model = TwoQubitModel(omega_S=0.0, K=k_nf, C=c_nf,
                          control=SingleAxis(n=np.array([0.0, 0.0, 1.0])))
    return NormalForm(alpha=k_nf[0, 0], gamma=k_nf[0, 1], beta=k_nf[1, 1],
                      x=k_nf[2, 0], y=k_nf[2, 1], z=k_nf[2, 2],
                      omega_A=float(c_nf[1]), r_a=r_a, r_s=r_s, model=model)


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _single_axis(m: TwoQubitModel, s2: float) -> None:
    """The preconditions of the single-axis test: single-axis control, and
    omega_S = 0 relative to the drift, |omega_S| <= TOL_RANK sqrt(s2) with
    s2 = ||K||_F^2 + ||C||^2, so that a scale of the model keeps the answer."""
    if not isinstance(m.control, SingleAxis):
        raise ValueError("the single-axis test requires single-axis control")
    if m.omega_S * m.omega_S > TOL_RANK * TOL_RANK * s2:
        raise ValueError("the single-axis test assumes omega_S = 0")


def _perp_drift(m: TwoQubitModel, tol: float) -> tuple:
    """(det K, ||K||_F^2, ||K||_F^2 + ||C||^2, p1, p2) as ``oms0_check``
    states them, with u1, u2 the branchless frame of Duff et al. (2017)
    about n, after the ``_single_axis`` check."""
    cols, C = m.K.T.tolist(), m.C.tolist()
    k2 = sum(map(_dot, cols, cols))
    s2 = k2 + _dot(C, C)
    _single_axis(m, s2)
    n = x, y, z = m.control.n.tolist()
    s = 1.0 if z >= 0.0 else -1.0
    a = -1.0 / (s + z)
    u1 = (1.0 + s * x * x * a, s * x * y * a, -s * x)
    u2 = (x * y * a, s + y * y * a, -y)
    r1, r2, c = ([_dot(col, u) for col in cols] for u in (u1, u2, n))
    w = (r1[1] * r2[2] - r1[2] * r2[1], r1[2] * r2[0] - r1[0] * r2[2],
         r1[0] * r2[1] - r1[1] * r2[0])
    det, w2 = _dot(c, w), _dot(w, w)
    if w2 > (tol * k2) * (tol * k2):  # inf past the float range; ** raises
        p1 = [f - det / w2 * g for f, g in zip(c, w)]
    else:
        # on a line, (c.r_i) r_i summed is sum ||r_i||^2 times c's projection
        m2 = _dot(r1, r1) + _dot(r2, r2)
        m2 = m2 if m2 > tol * tol * k2 else float("inf")
        p1 = [(_dot(c, r1) * f + _dot(c, r2) * g) / m2 for f, g in zip(r1, r2)]
    t = _dot(C, n)
    return det, k2, s2, p1, [f - t * g for f, g in zip(C, n)]


def drift_perp_components(m: TwoQubitModel) -> tuple:
    """(p1, p2) of ``oms0_check`` as R^3 vectors: K^T n projected onto the
    rows coupled to the axes perpendicular to n, and C projected off n."""
    return tuple(np.array(p) for p in _perp_drift(m, TOL_RANK)[3:])


def oms0_check(m: TwoQubitModel, tol_rank: float = TOL_RANK) -> Oms0Report:
    """Complete-controllability test for single-axis control at omega_S = 0.

    C1: det K != 0; C2: the drift components perpendicular to the control
    axis do not all vanish.  In no chosen frame: with u1, u2 orthonormal,
    u1 x u2 = n, r_i = K^T u_i and w = r1 x r2, det K = K^T n . w and
    c2 = ||C - (C.n) n||^2 + ||K^T n||^2 - (det K)^2 / ||w||^2 (the normal
    form's omega_A^2 + x^2 + y^2).  Once ||w|| <= tol_rank ||K||_F^2 (C1
    fails) r1, r2 are parallel or zero, and K^T n is projected onto their
    line (onto 0 below tol_rank ||K||_F) instead.  |det K| is compared
    against ||K||_F^3 and c2 against ||K||_F^2 + ||C||^2.  The model must
    have single-axis control and |omega_S| <= TOL_RANK
    sqrt(||K||_F^2 + ||C||^2); otherwise ValueError.
    """
    det, k2, s2, p1, p2 = _perp_drift(m, tol_rank)
    c1 = abs(det) > tol_rank * k2 * math.sqrt(k2)
    c2_magnitude = _dot(p1, p1) + _dot(p2, p2)
    c2 = c2_magnitude > 1e-12 * s2
    return Oms0Report(c1=c1, c2=c2, cc=c1 and c2, det_K=det,
                      c2_magnitude=c2_magnitude)


# ---------------------------------------------------------------------------
# identity suites


@dataclass(frozen=True)
class IdentityReport:
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _gamma_elements(alpha: float, omega_A: float) -> dict:
    rk = math.hypot(alpha, 2.0 * omega_A)  # sqrt(k), k = alpha^2 + 4 omega_A^2
    if rk == 0.0:
        raise ValueError("degenerate mixing angle: alpha = omega_A = 0")
    c = alpha / rk
    s = 2.0 * omega_A / rk
    gx = {sign: _two("y", "x") + sign * (c * _two("x", "y") - (s / 2) * _one_a("x"))
          for sign in (+1, -1)}
    gy = {sign: -0.5 * (_one_a("z") + sign * (c * _one_s("z") - 2 * s * _two("y", "z")))
          for sign in (+1, -1)}
    gz = {sign: _two("y", "y") - sign * (c * _two("x", "x") + (s / 2) * _one_a("y"))
          for sign in (+1, -1)}
    return {"rk": rk, "c": c, "s": s, "gx": gx, "gy": gy, "gz": gz}


def _reduced_pair(alpha: float, gamma: float, beta: float,
                  omega_A: float) -> tuple:
    """L1 = 1 (x) sz and L2 = alpha i sx (x) sx + gamma i sy (x) sx
    + beta i sy (x) sy + omega_A 1 (x) sy; the Gamma basis needs alpha != 0."""
    if not abs(alpha) > 1e-12 * max(map(abs, (alpha, gamma, beta, omega_A))):
        raise ValueError("the Gamma construction requires alpha != 0")
    l2 = (alpha * _two("x", "x") + gamma * _two("y", "x")
          + beta * _two("y", "y") + omega_A * _one_a("y"))
    return _one_a("z"), l2


def gamma_suite(alpha: float, gamma: float, beta: float,
                omega_A: float) -> IdentityReport:
    """Residuals of the commuting-pair identities behind the single-axis proof.

    Checks the two su(2) bracket tables, elementwise commutation of the two
    families, the expansions of the generators L1 = 1 (x) sigma_z and L2 in
    the Gamma basis, and the double bracket [[L1, L2], L2].
    """
    l1, l2 = _reduced_pair(alpha, gamma, beta, omega_A)
    g = _gamma_elements(alpha, omega_A)
    gx, gy, gz, rk = g["gx"], g["gy"], g["gz"], g["rk"]

    res = {}
    for sign, tag in ((+1, "p"), (-1, "m")):
        res[f"bracket_{tag}_xy"] = norm(bracket(gx[sign], gy[sign]) - gz[sign])
        res[f"bracket_{tag}_yz"] = norm(bracket(gy[sign], gz[sign]) - gx[sign])
        res[f"bracket_{tag}_zx"] = norm(bracket(gz[sign], gx[sign]) - gy[sign])
    for a_name, ga in (("x", gx), ("y", gy), ("z", gz)):
        for b_name, gb in (("x", gx), ("y", gy), ("z", gz)):
            res[f"cross_{a_name}{b_name}"] = norm(bracket(ga[+1], gb[-1]))

    res["l1_expansion"] = norm(l1 + (gy[+1] + gy[-1]))
    res["l2_expansion"] = norm(l2 - 0.5 * (gamma * (gx[+1] + gx[-1])
                                           + rk * (gz[-1] - gz[+1])
                                           + beta * (gz[+1] + gz[-1])))
    res["double_bracket"] = norm(
        bracket(bracket(l1, l2), l2)
        - 0.25 * ((gamma ** 2 + (beta - rk) ** 2) * gy[+1]
                  + (gamma ** 2 + (beta + rk) ** 2) * gy[-1]))
    return IdentityReport(residuals=res)


def reduced_pair_closure_dim(alpha: float, gamma: float, beta: float,
                             omega_A: float) -> int:
    """dim of the algebra generated by {L1, L2} alone (4 or 6)."""
    return len(closure(np.array(_reduced_pair(alpha, gamma, beta, omega_A))))


def reduced_pair_special_basis(alpha: float, omega_A: float,
                               flip: bool = False) -> np.ndarray:
    """The 4-dim algebra at gamma = 0, beta = sqrt(k) (flip: beta = -sqrt(k))."""
    g = _gamma_elements(alpha, omega_A)
    lo, hi = (-1, +1) if not flip else (+1, -1)
    return np.array([g["gx"][lo], g["gy"][lo], g["gz"][lo], g["gy"][hi]])


def appendix_b_suite(x: float, y: float, z: float, alpha: float,
                     omega_A: float) -> IdentityReport:
    """Residuals of the bracket chain that rebuilds su(4) from the 4-dim case.

    Parameters follow the proof: (x, y, z) is the unit S-side vector of the
    sigma_z-coupled interaction row, alpha and omega_A fix the mixing angle
    (c, s). Two printed right-hand sides in the source chain are off by a
    factor 2 (the single bracket with the interaction term, and the final
    double bracket); the suite checks the exact forms, which the dimension
    argument downstream needs anyway.
    """
    g = _gamma_elements(alpha, omega_A)
    c, s, rk = g["c"], g["s"], g["rk"]
    cvec = np.array([x, y, z], dtype=float)
    if abs(np.dot(cvec, cvec) - 1.0) > 1e-9:
        raise ValueError("(x, y, z) must be unit length")

    zmat = _one_a("z")
    amat = c * _one_s("z") - 2 * s * _two("y", "z")
    p = _two_vec(cvec, "z")
    gz_p, gz_m = g["gz"][+1], g["gz"][-1]

    q1 = bracket(p, amat)
    q2 = 4.0 * bracket(p, gz_m)
    q1_print = (c * (y * _two("x", "z") - x * _two("y", "z"))
                + (s / 2) * (z * _one_s("x") - x * _one_s("z")))
    q2_print = -y * _one_a("x") + c * x * _one_a("y") - 2 * s * _two_vec(cvec, "x")

    r1 = c * np.tensordot(cvec, E_AB[1:, 0], axes=1)  # c sigma_cvec (x) 1
    r2 = (c ** 2 * z * _two("z", "z") + s ** 2 * y * _two("y", "z")
          - (s * c / 2) * (y * _one_s("z") + z * _one_s("y")))
    r3 = ((c ** 2 * y / 4) * _one_a("y") - (s * c / 2) * y * _two("x", "x")
          + (c * x / 4) * _one_a("x")
          + (s / 2) * (z * _two("z", "y") + x * _two("x", "y")))
    r4 = (y * _two_vec(cvec, "y") + c * x * _two_vec(cvec, "x")
          + (s / 2) * _one_a("y"))
    r5 = y * _one_a("y") + c * x * _one_a("x") + 2 * s * _two_vec(cvec, "y")
    r6 = (-c ** 2 * x * _two("x", "z") - y * _two("y", "z")
          + (s * c / 2) * (y * _one_s("z") - z * _one_s("y")))
    s1 = (y * _two_vec(cvec, "x") - c * x * _two_vec(cvec, "y")
          + (s / 2) * _one_a("x"))

    res = {
        "q1": norm(q1 - q1_print),
        "q2": norm(q2 - q2_print),
        # step-2 brackets: new direction plus already-achieved directions
        "r1": norm(bracket(q1, p)
                   - (0.25 * amat + (s * y / 2) * p - (z / 4) * r1)),
        "r2": norm(bracket(q1, amat) - (r2 - p)),
        "r3": norm(bracket(q1, gz_m) - r3),
        "r4": norm(bracket(q2, p) - r4),
        "r5": norm(bracket(q2, zmat) - r5),
        "r6": norm(bracket(q2, gz_m) - (r6 - s ** 2 * p - s * y * zmat)),
        "s1": norm(bracket(r4, zmat) - s1),
        "local_combination": norm(
            2 * s * c * x * y * s1 - 2 * s * y ** 2 * r4
            + (c ** 2 * x ** 2 * y + y ** 3) * r5
            - (y ** 2 * (y ** 2 + c ** 2 * x ** 2 - s ** 2) * _one_a("y")
               + c * x * y * (c ** 2 * x ** 2 + y ** 2 + s ** 2) * _one_a("x"))),
        # single bracket with the interaction term (exact coefficient y/2)
        "sum_bracket": norm(bracket(gz_p + gz_m, p) - (y / 2) * _one_a("x")),
        # final double bracket, exact form (printed one drops the
        # y-dependent part and halves the local coefficient)
        "final_double": norm(
            (1.0 / rk) * bracket(
                8 * omega_A * bracket(gz_p, p) + alpha * x * (gz_p - gz_m), p)
            - (0.5 * (x ** 2 + s ** 2 * (y ** 2 + z ** 2)) * _one_a("y")
               - s * y * _two_vec(cvec, "y"))),
        "pq2": norm(bracket(p, q2) + r4),
    }
    return IdentityReport(residuals=res)
