"""Controllability classification for the two-qubit indirect-control model.

Covers three layers:

* full accessor control (dim B = 3): the six-case dimension table for the
  dynamical Lie algebra, predicted from (omega_S, D, F, rank K) and checked
  against the numeric closure;
* single-axis control with omega_S = 0: the two-condition complete
  controllability test (C1: det K != 0; C2: drift components perpendicular
  to the control axis survive), evaluated both coordinate-free and in
  normal-form coordinates;
* the ladder of matrix identities behind the single-axis proof (the
  Gamma pair of commuting su(2)'s and the appendix bracket chain), exposed
  as residual suites so they can be re-verified numerically at any
  parameter draw.

Conventions are those of :mod:`qindirect.qalg`; in particular every
two-site basis element written ``i sigma_a (x) sigma_b`` carries the
explicit scalar ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qalg
from .qalg import (ID2, TOL_RANK, _rotation_about, _rotation_between,
                   commutator, frob, pauli, sigma_from_vec, tensor)
from .lieclosure import closure
from .model import (FullSU2, SingleAxis, TwoQubitModel, df_split,
                    generator_set, hamiltonians)

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
# element builders (shared by reference bases and identity suites)


def _two(s_ax: str, a_ax: str) -> np.ndarray:
    """i sigma_s (x) sigma_a."""
    return 1j * tensor(pauli(s_ax), pauli(a_ax))


def _two_vec(v, a_ax: str) -> np.ndarray:
    """i sigma_v (x) sigma_a for a real S-side vector v."""
    return 1j * tensor(sigma_from_vec(v), pauli(a_ax))


def _one_s(ax: str) -> np.ndarray:
    return tensor(pauli(ax), ID2)


def _one_a(ax: str) -> np.ndarray:
    return tensor(ID2, pauli(ax))


def case_1b_basis() -> list:
    """span{sigma_z (x) 1, 1 (x) su(2), i sigma_{x,y} (x) su(2)} (10-dim)."""
    out = [_one_s("z")]
    out += [_one_a(ax) for ax in "xyz"]
    out += [_two(s_ax, a_ax) for s_ax in "xy" for a_ax in "xyz"]
    return out


def case_1c_basis() -> list:
    """span{i sigma_z (x) su(2), sigma_z (x) 1, 1 (x) su(2)} (7-dim)."""
    out = [_two("z", ax) for ax in "xyz"]
    out.append(_one_s("z"))
    out += [_one_a(ax) for ax in "xyz"]
    return out


def case_2a_basis(direction) -> list:
    """span{i sigma_u (x) su(2), 1 (x) su(2)} for a fixed S-direction u."""
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    return [_two_vec(u, ax) for ax in "xyz"] + [_one_a(ax) for ax in "xyz"]


def c2_failure_subalgebra() -> list:
    """The 7-dim subalgebra trapping the closure when C2 fails.

    span{1 (x) sz, sz (x) 1, i sy (x) sx, i sx (x) sy, i sy (x) sy,
    i sx (x) sx, i sz (x) sz}, written in normal-form coordinates.
    """
    return [_one_a("z"), _one_s("z"), _two("y", "x"), _two("x", "y"),
            _two("y", "y"), _two("x", "x"), _two("z", "z")]


# ---------------------------------------------------------------------------
# dim B = 3 classification


def predict_case(m: TwoQubitModel, tol: float | None = None) -> CaseLabel:
    """Case tag and Lie-algebra dimension for a fully controlled accessor."""
    if not isinstance(m.control, FullSU2):
        raise ValueError("case prediction requires full accessor control")
    tol = TOL_RANK if tol is None else tol
    split = df_split(m, tol)
    w = abs(m.omega_S)
    d = np.abs(split.D).max()
    f = np.abs(split.F).max()
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
        tag = {1: "2a", 2: "2b", 3: "2c"}[split.rank_K]
        sv = np.linalg.svd(m.K, compute_uv=False)
        checked += list(sv[1:] / sv[0])
    marginal = any(tol / 10 < q < tol * 10 for q in checked)
    return CaseLabel(tag=tag, predicted_dim=CASE_DIMS[tag], marginal=marginal)


def cross_validate(m: TwoQubitModel, tol: float | None = None) -> CrossValidation:
    label = predict_case(m, tol)
    dim = len(closure(generator_set(m)))
    return CrossValidation(predicted=label, computed_dim=dim,
                           agree=(dim == label.predicted_dim))


def strong_uic(m: TwoQubitModel) -> bool:
    """Steering between arbitrary given spectra holds iff the closure is full."""
    if not isinstance(m.control, FullSU2):
        raise ValueError("strong-UIC equivalence requires full accessor control")
    return len(closure(generator_set(m))) == 15


# ---------------------------------------------------------------------------
# normal form for single-axis control


@dataclass(frozen=True)
class NormalForm:
    """Single-axis model rotated so n = e_z, C_perp = omega_A e_y, b = beta e_y.

    K becomes [[alpha, gamma, 0], [0, beta, 0], [x, y, z]] with
    alpha, beta, omega_A >= 0; c_axis is the drift component along the
    control axis (absorbable into the control, kept for completeness).
    """

    alpha: float
    gamma: float
    beta: float
    x: float
    y: float
    z: float
    omega_A: float
    c_axis: float
    r_a: np.ndarray
    r_s: np.ndarray
    model: TwoQubitModel


def normal_form(m: TwoQubitModel) -> NormalForm:
    if not isinstance(m.control, SingleAxis):
        raise ValueError("normal form requires single-axis control")
    if abs(m.omega_S) > TOL_RANK:
        raise ValueError("normal form assumes a degenerate target (omega_S = 0)")
    ex, ey, ez = np.eye(3)

    r_a = _rotation_between(m.control.n, ez)
    c1 = r_a @ m.C
    w_a = float(np.hypot(c1[0], c1[1]))
    if w_a > 1e-12:
        r_a = _rotation_about(ez, np.pi / 2 - np.arctan2(c1[1], c1[0])) @ r_a
    k1 = r_a @ m.K
    a, b, c = k1

    if np.linalg.norm(b) > 1e-12:
        r_s = _rotation_between(b / np.linalg.norm(b), ey)
        a1 = r_s @ a
        if np.hypot(a1[0], a1[2]) > 1e-12:
            # residual freedom about e_y kills the z-component of row a
            r_s = _rotation_about(ey, np.arctan2(a1[2], a1[0])) @ r_s
    elif np.linalg.norm(a) > 1e-12:
        r_s = _rotation_between(a / np.linalg.norm(a), ex)
    elif np.linalg.norm(c) > 1e-12:
        r_s = _rotation_between(c / np.linalg.norm(c), ez)
    else:
        r_s = np.eye(3)

    k_nf = k1 @ r_s.T
    c_nf = r_a @ m.C
    scale = np.abs(k_nf).max()
    for i, j in ((0, 2), (1, 0), (1, 2)):
        if abs(k_nf[i, j]) > 1e-9 * max(scale, 1.0):
            raise AssertionError("normal-form rotation failed to zero K entries")
    model = TwoQubitModel(omega_S=0.0, K=k_nf, C=c_nf, control=SingleAxis(n=ez))
    return NormalForm(alpha=k_nf[0, 0], gamma=k_nf[0, 1], beta=k_nf[1, 1],
                      x=k_nf[2, 0], y=k_nf[2, 1], z=k_nf[2, 2],
                      omega_A=float(c_nf[1]), c_axis=float(c_nf[2]),
                      r_a=r_a, r_s=r_s, model=model)


def _pauli_vector(mat: np.ndarray) -> np.ndarray:
    """R^3 vector of a traceless 2x2 matrix via the Pauli correspondence.

    The matrices fed in are real multiples of either v.pauli or i v.pauli;
    the returned vector is real either way (overall scale is the caller's
    business).
    """
    w = np.array([np.trace(pauli(ax, tilde=True) @ mat) for ax in "xyz"]) / 2.0
    return w.real if np.linalg.norm(w.real) >= np.linalg.norm(w.imag) else w.imag


def drift_perp_components(m: TwoQubitModel) -> tuple:
    """The two drift components perpendicular to the control axis.

    Computed from partial traces of the Hamiltonians: the interaction row
    coupled to the control axis (as an S-side vector, resolved against the
    rows coupled to the perpendicular axes) and the accessor drift vector,
    each projected off the axis. Returns (p1, p2) as R^3 vectors scaled to
    the row units of K, so ||p1||^2 + ||p2||^2 matches the coordinate form
    omega_A^2 + x^2 + y^2 whenever det K != 0.
    """
    if not isinstance(m.control, SingleAxis):
        raise ValueError("perpendicular components require single-axis control")
    h = hamiltonians(m)
    h_c = -1j * h.controls[0]
    ihi = 1j * h.h_i
    m1 = qalg.partial_trace(ihi @ h_c, keep="S")
    m2 = qalg.partial_trace(h.h_a, keep="A")
    m3 = qalg.partial_trace(h_c, keep="A")
    # m1 = -(i/4)(K^T n).pauli, m2 = C.pauli, m3 = n.pauli
    v1 = 4.0 * _pauli_vector(m1)
    v2 = _pauli_vector(m2)
    n = _pauli_vector(m3)
    nn = np.linalg.norm(n)
    if nn < 1e-12:
        return v1, v2  # degenerate axis: the whole vectors count
    n = n / nn
    p2 = v2 - np.dot(v2, n) * n
    # v1 lives on the S side: resolve it against the span of the rows
    # coupled to axes perpendicular to n, the S-side image of "perp to n"
    ref = np.eye(3)[0] if abs(n[0]) < 0.9 else np.eye(3)[1]
    u1 = np.cross(n, ref)
    u1 = u1 / np.linalg.norm(u1)
    u2 = np.cross(n, u1)
    basis = np.array([m.K.T @ u1, m.K.T @ u2]).T
    coef, *_ = np.linalg.lstsq(basis, v1, rcond=None)
    p1 = basis @ coef
    return p1, p2


def oms0_check(m: TwoQubitModel, tol_rank: float | None = None) -> Oms0Report:
    """Complete-controllability test for single-axis control at omega_S = 0.

    C1: det K != 0. C2: the drift components perpendicular to the control
    axis do not all vanish. The authoritative magnitudes come from the
    normal form (det = alpha*beta*z, c2 = omega_A^2 + x^2 + y^2); the
    coordinate-free projection is evaluated as a cross-check and must agree
    whenever C1 holds (it resolves against a degenerate row span otherwise).
    """
    tol_rank = TOL_RANK if tol_rank is None else tol_rank
    nf = normal_form(m)
    det_k = float(np.linalg.det(m.K))
    c1 = abs(det_k) > tol_rank
    c2_magnitude = nf.omega_A ** 2 + nf.x ** 2 + nf.y ** 2
    c2 = c2_magnitude > 1e-12

    det_nf = nf.alpha * nf.beta * nf.z
    if abs(det_nf - det_k) > 1e-9 * max(1.0, abs(det_k)):
        raise AssertionError("normal-form determinant mismatch")
    if c1:
        p1, p2 = drift_perp_components(m)
        raw = float(np.dot(p1, p1) + np.dot(p2, p2))
        if abs(raw - c2_magnitude) > 1e-9 * max(1.0, c2_magnitude):
            raise AssertionError("coordinate-free C2 disagrees with normal form")
    return Oms0Report(c1=c1, c2=c2, cc=c1 and c2, det_K=det_k,
                      c2_magnitude=c2_magnitude)


# ---------------------------------------------------------------------------
# identity suites


@dataclass(frozen=True)
class IdentityReport:
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _gamma_matrices(alpha: float, omega_A: float) -> dict:
    k = alpha ** 2 + 4.0 * omega_A ** 2
    if k < 1e-24:
        raise ValueError("degenerate mixing angle: alpha and omega_A both zero")
    c = alpha / np.sqrt(k)
    s = 2.0 * omega_A / np.sqrt(k)
    gx = {sign: _two("y", "x") + sign * (c * _two("x", "y") - (s / 2) * _one_a("x"))
          for sign in (+1, -1)}
    gy = {sign: -0.5 * (_one_a("z") + sign * (c * _one_s("z") - 2 * s * _two("y", "z")))
          for sign in (+1, -1)}
    gz = {sign: _two("y", "y") - sign * (c * _two("x", "x") + (s / 2) * _one_a("y"))
          for sign in (+1, -1)}
    return {"k": k, "c": c, "s": s, "gx": gx, "gy": gy, "gz": gz}


def gamma_suite(alpha: float, gamma: float, beta: float,
                omega_A: float) -> IdentityReport:
    """Residuals of the commuting-pair identities behind the single-axis proof.

    Checks the two su(2) bracket tables, elementwise commutation of the two
    families, the expansions of the generators L1 = 1 (x) sigma_z and L2 in
    the Gamma basis, and the double bracket [[L1, L2], L2].
    """
    if abs(alpha) < 1e-12:
        raise ValueError("the Gamma construction requires alpha != 0")
    g = _gamma_matrices(alpha, omega_A)
    gx, gy, gz = g["gx"], g["gy"], g["gz"]
    rk = np.sqrt(g["k"])

    res = {}
    for sign, tag in ((+1, "p"), (-1, "m")):
        res[f"bracket_{tag}_xy"] = frob(commutator(gx[sign], gy[sign]) - gz[sign])
        res[f"bracket_{tag}_yz"] = frob(commutator(gy[sign], gz[sign]) - gx[sign])
        res[f"bracket_{tag}_zx"] = frob(commutator(gz[sign], gx[sign]) - gy[sign])
    for a_name, ga in (("x", gx), ("y", gy), ("z", gz)):
        for b_name, gb in (("x", gx), ("y", gy), ("z", gz)):
            res[f"cross_{a_name}{b_name}"] = frob(commutator(ga[+1], gb[-1]))

    l1 = _one_a("z")
    l2 = (alpha * _two("x", "x") + gamma * _two("y", "x")
          + beta * _two("y", "y") + omega_A * _one_a("y"))
    res["l1_expansion"] = frob(l1 + (gy[+1] + gy[-1]))
    res["l2_expansion"] = frob(l2 - 0.5 * (gamma * (gx[+1] + gx[-1])
                                           + rk * (gz[-1] - gz[+1])
                                           + beta * (gz[+1] + gz[-1])))
    res["double_bracket"] = frob(
        commutator(commutator(l1, l2), l2)
        - 0.25 * ((gamma ** 2 + (beta - rk) ** 2) * gy[+1]
                  + (gamma ** 2 + (beta + rk) ** 2) * gy[-1]))
    return IdentityReport(residuals=res)


def reduced_pair_closure_dim(alpha: float, gamma: float, beta: float,
                             omega_A: float) -> int:
    """dim of the algebra generated by {L1, L2} alone (4 or 6)."""
    if abs(alpha) < 1e-12:
        raise ValueError("the Gamma construction requires alpha != 0")
    l1 = _one_a("z")
    l2 = (alpha * _two("x", "x") + gamma * _two("y", "x")
          + beta * _two("y", "y") + omega_A * _one_a("y"))
    return len(closure([l1, l2]))


def reduced_pair_special_basis(alpha: float, omega_A: float,
                               flip: bool = False) -> list:
    """The 4-dim algebra at gamma = 0, beta = sqrt(k) (flip: beta = -sqrt(k))."""
    g = _gamma_matrices(alpha, omega_A)
    lo, hi = (-1, +1) if not flip else (+1, -1)
    return [g["gx"][lo], g["gy"][lo], g["gz"][lo], g["gy"][hi]]


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
    g = _gamma_matrices(alpha, omega_A)
    c, s, k = g["c"], g["s"], g["k"]
    cvec = np.array([x, y, z], dtype=float)
    if abs(np.dot(cvec, cvec) - 1.0) > 1e-9:
        raise ValueError("(x, y, z) must be unit length")

    zmat = _one_a("z")
    amat = c * _one_s("z") - 2 * s * _two("y", "z")
    p = _two_vec(cvec, "z")
    gz_p, gz_m = g["gz"][+1], g["gz"][-1]

    q1 = commutator(p, amat)
    q2 = 4.0 * commutator(p, gz_m)
    q1_print = (c * (y * _two("x", "z") - x * _two("y", "z"))
                + (s / 2) * (z * _one_s("x") - x * _one_s("z")))
    q2_print = -y * _one_a("x") + c * x * _one_a("y") - 2 * s * _two_vec(cvec, "x")

    r1 = c * tensor(sigma_from_vec(cvec), ID2)
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
        "q1": frob(q1 - q1_print),
        "q2": frob(q2 - q2_print),
        # step-2 brackets: new direction plus already-achieved directions
        "r1": frob(commutator(q1, p)
                   - (0.25 * amat + (s * y / 2) * p - (z / 4) * r1)),
        "r2": frob(commutator(q1, amat) - (r2 - p)),
        "r3": frob(commutator(q1, gz_m) - r3),
        "r4": frob(commutator(q2, p) - r4),
        "r5": frob(commutator(q2, zmat) - r5),
        "r6": frob(commutator(q2, gz_m) - (r6 - s ** 2 * p - s * y * zmat)),
        "s1": frob(commutator(r4, zmat) - s1),
        "local_combination": frob(
            2 * s * c * x * y * s1 - 2 * s * y ** 2 * r4
            + (c ** 2 * x ** 2 * y + y ** 3) * r5
            - (y ** 2 * (y ** 2 + c ** 2 * x ** 2 - s ** 2) * _one_a("y")
               + c * x * y * (c ** 2 * x ** 2 + y ** 2 + s ** 2) * _one_a("x"))),
        # single bracket with the interaction term (exact coefficient y/2)
        "sum_bracket": frob(commutator(gz_p + gz_m, p) - (y / 2) * _one_a("x")),
        # final double bracket, exact form (printed one drops the
        # y-dependent part and halves the local coefficient)
        "final_double": frob(
            (1.0 / np.sqrt(k)) * commutator(
                8 * omega_A * commutator(gz_p, p) + alpha * x * (gz_p - gz_m), p)
            - (0.5 * (x ** 2 + s ** 2 * (y ** 2 + z ** 2)) * _one_a("y")
               - s * y * _two_vec(cvec, "y"))),
        "pq2": frob(commutator(p, q2) + r4),
    }
    return IdentityReport(residuals=res)
