"""Eigenframe polynomial algebra on synthetic data.

The substrate is a Ricci eigenframe {e1, e2, e3} with eigenvalues
(0, lambda2, lambda3), lambda2, lambda3 < 0, represented by free data: the
eigenvalue derivative table L_i lambda_j and the nine independent connection
coefficients G_ijk = g(nabla_{e_i} e_j, e_k) (antisymmetric in j,k).  No
actual metric is involved: the identities under test are frame-level algebra,
and synthetic data makes their constraint structure directly visible.

Special directions X = t e_i + e_j turn the curvature quantities into
polynomials in t:

  case a1: X = t e1 + e2, w1 = e3,   2a = (l3-l2) t^2 + l3
  case a2: X = t e1 + e3, w1 = e2,   2a = (l2-l3) t^2 + l2
  case a3: X = t e2 + e3, w1 = e1,  -2a = l3 t^2 + l2

The bundle polynomials a, c, d1, a1, b1 are produced from general expansions
(a1 via A1 = L_X A - ric(X, nabla_X X), b1 via the projected derived-Jacobi
formula), and the factorization b1 = -(t^2+1) c with c one of the pij
polynomials holds identically and doubles as a cross-check of the expansion code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

R_SILVER = 3.0 - 2.0 * math.sqrt(2.0)  # unique eigenvalue ratio of the rigid frames

CASES = ("a1", "a2", "a3")


@dataclass
class FrameData:
    lambda2: float
    lambda3: float
    dlam: np.ndarray  # (3,2): dlam[i,0] = L_{e_{i+1}} lambda2, dlam[i,1] = ... lambda3
    gamma: np.ndarray  # (3,3,3), gamma[i,j,k] = g(nabla_{e_i} e_j, e_k), antisym in (j,k)
    mode: str = "free"  # "free" or "consistent"
    d2: dict = field(default_factory=dict)  # optional per-case second-order data

    def G(self, i, j, k) -> float:
        """1-based connection coefficient g(nabla_{e_i} e_j, e_k)."""
        return float(self.gamma[i - 1, j - 1, k - 1])

    def L(self, i, j) -> float:
        """1-based eigenvalue derivative L_{e_i} lambda_j (j in {2,3})."""
        return float(self.dlam[i - 1, j - 2])


GAMMA_KEYS = [(i, j, k) for i in (1, 2, 3) for (j, k) in ((1, 2), (1, 3), (2, 3))]


def _gamma_from_nine(vals):
    g = np.zeros((3, 3, 3))
    for (i, j, k), v in zip(GAMMA_KEYS, vals):
        g[i - 1, j - 1, k - 1] = v
        g[i - 1, k - 1, j - 1] = -v
    return g


def consistent_frame(seed: int, mode: str = "consistent") -> FrameData:
    """Random FrameData; in mode consistent the five linear relations between
    the derivative table and the connection coefficients hold exactly.
    """
    if mode not in ("free", "consistent"):
        raise ValueError(f"unknown mode '{mode}'")
    rng = np.random.default_rng(seed)
    l2 = -float(rng.uniform(2.0, 4.0))
    l3 = -float(rng.uniform(0.2, 1.5))
    gamma = _gamma_from_nine(rng.uniform(-1.0, 1.0, size=9))
    fd = FrameData(l2, l3, np.zeros((3, 2)), gamma, mode)
    if mode == "free":
        fd.dlam = rng.uniform(-1.0, 1.0, size=(3, 2))
        return fd
    G = fd.G
    l3l2 = l3 - l2
    L2l2 = 2.0 * l2 * l3 / (l2 - l3) * G(1, 1, 2)
    L1l2 = -2.0 * l2 * G(2, 2, 1)
    L3l2 = float(rng.uniform(-1.0, 1.0))
    L1l3 = 2.0 * l2 * G(2, 2, 1) + 2.0 * l3 * G(3, 3, 1) - L1l2
    L2l3 = L2l2 + 2.0 * l3l2 * G(3, 3, 2) - 2.0 * l2 * G(1, 1, 2)
    L3l3 = L3l2 + 2.0 * l3l2 * G(2, 2, 3) + 2.0 * l3 * G(1, 1, 3)
    fd.dlam = np.array([[L1l2, L1l3], [L2l2, L2l3], [L3l2, L3l3]])
    return fd


def bianchi_frame_residuals(fd: FrameData) -> np.ndarray:
    """Left minus right of the three frame Bianchi equations."""
    l2, l3 = fd.lambda2, fd.lambda3
    G, L = fd.G, fd.L
    d = l3 - l2
    r1 = 0.5 * (L(1, 2) + L(1, 3)) - (l2 * G(2, 2, 1) + l3 * G(3, 3, 1))
    r2 = 0.5 * (L(2, 3) - L(2, 2)) - (d * G(3, 3, 2) - l2 * G(1, 1, 2))
    r3 = 0.5 * (L(3, 3) - L(3, 2)) - (d * G(2, 2, 3) + l3 * G(1, 1, 3))
    return np.array([r1, r2, r3])


def ric111_residual(fd: FrameData) -> float:
    """ric(nabla_{e1}e1, nabla_{e1}e1) + scal^2/2 in frame terms."""
    l2, l3 = fd.lambda2, fd.lambda3
    G = fd.G
    return l2 * G(1, 1, 2) ** 2 + l3 * G(1, 1, 3) ** 2 + 0.5 * (l2 + l3) ** 2


def p_polys(fd: FrameData):
    """The three connection-coefficient polynomials (ascending coefficients)."""
    l2, l3 = fd.lambda2, fd.lambda3
    G = fd.G
    p12 = np.array([l3 * G(2, 1, 3), (l2 - l3) * G(2, 2, 3) + l3 * G(1, 1, 3), (l2 - l3) * G(1, 2, 3)])
    p13 = np.array([l2 * G(3, 1, 2), (l3 - l2) * G(3, 3, 2) + l2 * G(1, 1, 2), (l2 - l3) * G(1, 2, 3)])
    p23 = np.array([-l2 * G(3, 2, 1), l3 * G(3, 3, 1) - l2 * G(2, 2, 1), l3 * G(2, 3, 1)])
    return p12, p13, p23


@dataclass
class PolyBundle:
    case: str
    a: np.ndarray
    c: np.ndarray
    d1: np.ndarray
    a1: np.ndarray
    b1: np.ndarray

    def b1_factor_residual(self) -> float:
        """Coefficient-wise residual of b1 + (t^2 + 1) c."""
        lhs = npoly.polyadd(self.b1, npoly.polymul(np.array([1.0, 0.0, 1.0]), self.c))
        return float(np.max(np.abs(lhs))) if len(lhs) else 0.0


_CASE_FRAME = {"a1": (1, 2, 3), "a2": (1, 3, 2), "a3": (2, 3, 1)}


def special_direction_polys(fd: FrameData, case: str) -> PolyBundle:
    """Bundle (a, c, d1, a1, b1) for one special direction family."""
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}")
    l2, l3 = fd.lambda2, fd.lambda3
    lam = {1: 0.0, 2: l2, 3: l3}
    G, L = fd.G, fd.L
    p12, p13, p23 = p_polys(fd)
    i, j, w = _CASE_FRAME[case]

    if case == "a1":
        a = np.array([l3 / 2.0, 0.0, (l3 - l2) / 2.0])
        c = p12
        if fd.mode == "consistent":
            d1 = (4.0 * l2 / (l2 - l3)) * G(1, 1, 2) * a
        else:
            d1 = np.array([L(2, 2), 2.0 * l2 * G(2, 2, 1) + L(1, 2), -2.0 * l2 * G(1, 1, 2)])
        a1 = np.array(
            [
                0.5 * L(2, 3),
                0.5 * L(1, 3) + l2 * G(2, 2, 1),
                0.5 * (L(2, 3) - L(2, 2)) - l2 * G(1, 1, 2),
                0.5 * (L(1, 3) - L(1, 2)),
            ]
        )
    elif case == "a2":
        a = np.array([l2 / 2.0, 0.0, (l2 - l3) / 2.0])
        c = p13
        d1 = np.array([L(3, 3), L(1, 3) + 2.0 * l3 * G(3, 3, 1), -2.0 * l3 * G(1, 1, 3)])
        a1 = np.array(
            [
                0.5 * L(3, 2),
                0.5 * L(1, 2) + l3 * G(3, 3, 1),
                0.5 * (L(3, 2) - L(3, 3)) - l3 * G(1, 1, 3),
                0.5 * (L(1, 2) - L(1, 3)),
            ]
        )
    else:
        a = np.array([-l2 / 2.0, 0.0, -l3 / 2.0])
        c = p23
        if fd.mode == "consistent":
            t3 = 2.0 * l2 * l3 / (l2 - l3) * G(1, 1, 2)
        else:
            t3 = L(2, 2)
        d1 = np.array(
            [
                L(3, 3),
                L(2, 3) - 2.0 * (l2 - l3) * G(3, 3, 2),
                L(3, 2) - 2.0 * (l3 - l2) * G(2, 2, 3),
                t3,
            ]
        )
        a1 = np.array(
            [
                -0.5 * L(3, 2),
                -0.5 * L(2, 2) - (l2 - l3) * G(3, 3, 2),
                -0.5 * L(3, 3) - (l3 - l2) * G(2, 2, 3),
                -0.5 * L(2, 3),
            ]
        )

    # general derived-Jacobi off-diagonal: b1 = 2a * g(nabla_X e_w, e_i - t e_j)
    #                                         + g(nabla_X X, e_w) * ric(X, e_i - t e_j)
    s1 = np.array([G(j, w, i), G(i, w, i) - G(j, w, j), -G(i, w, j)])
    s2 = np.array([G(j, j, w), G(i, j, w) + G(j, i, w), G(i, i, w)])
    ric_x = np.array([0.0, lam[i] - lam[j]])
    b1 = npoly.polyadd(npoly.polymul(2.0 * a, s1), npoly.polymul(s2, ric_x))
    b1 = np.concatenate([b1, np.zeros(5 - len(b1))])[:5]
    return PolyBundle(case, a, c, d1, a1, b1)


def a1_crosscheck(fd: FrameData):
    """Closed-form coefficient expressions for a1 in cases a2/a3 against the general
    expansion; both residuals vanish exactly on consistent-consistent data.
    """
    l2, l3 = fd.lambda2, fd.lambda3
    G = fd.G
    p12, p13, p23 = p_polys(fd)
    p12p, p13p, p23p = p12[1], p13[1], p23[1]
    d113_0 = fd.L(3, 3)
    D2c = -2.0 * l3 * G(1, 1, 3)  # t^2 coefficient of d1^13

    a13_closed = np.array(
        [
            p12p - 2.0 * l3 * G(1, 1, 3) + 0.5 * d113_0,
            p23p,
            p12p - 3.0 * l3 * G(1, 1, 3),
            3.0 * p23p - 4.0 * l3 * G(3, 3, 1),
        ]
    )
    c3 = l2 * (3.0 * l3 - 2.0 * l2) / (l2 - l3) * G(1, 1, 2) + p13p
    c2 = 0.5 * d113_0 - 0.5 * D2c - p12p
    c1 = l2 * l2 / (l2 - l3) * G(1, 1, 2) - p13p
    c0 = 0.5 * d113_0 + D2c + p12p
    a23_closed = -np.array([c0, c1, c2, c3])

    gen13 = special_direction_polys(fd, "a2").a1
    gen23 = special_direction_polys(fd, "a3").a1
    res13 = float(np.max(np.abs(gen13 - a13_closed)))
    res23 = float(np.max(np.abs(gen23 - a23_closed)))
    return res13, res23


def _eval_at_imag(coeffs, kappa: float):
    """(Re, Im) of the polynomial at i*kappa by alternating coefficient sums."""
    re = 0.0
    im = 0.0
    power = 1.0  # kappa^k
    for k, ck in enumerate(coeffs):
        if k % 2 == 0:
            re += ck * power * (-1.0) ** (k // 2)
        else:
            im += ck * power * (-1.0) ** (k // 2)
        power *= kappa
    return re, im


def root_identities(fd: FrameData) -> dict:
    """Residuals of the evaluation identities at the distinguished imaginary
    roots; all six vanish on consistent-consistent data with lambda2 < lambda3.
    """
    l2, l3 = fd.lambda2, fd.lambda3
    if not (l2 < l3 < 0):
        raise ValueError("need lambda2 < lambda3 < 0 for the root arguments")
    G = fd.G
    p12, p13, p23 = p_polys(fd)
    b_a2 = special_direction_polys(fd, "a2")
    b_a3 = special_direction_polys(fd, "a3")
    d113, a113 = b_a2.d1, b_a2.a1
    d123, a123 = b_a3.d1, b_a3.a1

    kappa = math.sqrt(l2 / l3)
    mu = math.sqrt(l2 / (l2 - l3))
    nu = math.sqrt((l2 + 2.0 * l3) / (l2 - l3))
    D2c = d113[2]

    re_d123, im_d123 = _eval_at_imag(d123, kappa)
    res_re = re_d123 - (
        (l3 - l2) / l3 * (d113[0] + 3.0 * l2 / (l2 - l3) * D2c) - 4.0 * l2 / l3 * p12[1]
    )
    res_im = im_d123 - 4.0 * (p13[1] - 2.0 * l2 * G(1, 1, 2)) * kappa

    re_a113, im_a113 = _eval_at_imag(a113, mu)
    res_re2 = 2.0 * re_a113 - (
        2.0 * l3 / (l3 - l2) * p12[1] - (l2 + 2.0 * l3) / (l2 - l3) * D2c + d113[0]
    )

    re_a123, im_a123 = _eval_at_imag(a123, kappa)
    re_d113_nu, _ = _eval_at_imag(d113, nu)
    res_re3 = re_a123 - ((l2 - l3) / (2.0 * l3) * re_d113_nu - (l2 + l3) / l3 * p12[1])
    res_im3 = -math.sqrt(l3 / l2) * im_a123 - (
        2.0 * l2 * l2 / l3 * G(1, 1, 2) - (l2 + l3) / l3 * p13[1]
    )

    res_im1 = im_a113 + mu / (l2 - l3) * ((2.0 * l2 + l3) * p23[1] - 4.0 * l2 * l3 * G(3, 3, 1))

    return {
        "re_d123": float(res_re),
        "im_d123": float(res_im),
        "re2_a113": float(res_re2),
        "re3_a123": float(res_re3),
        "im3_a123": float(res_im3),
        "im1_a113": float(res_im1),
    }


def rigid_frame(which: str, lambda2: float, eps=(1, 1), r_override: float | None = None) -> FrameData:
    """FrameData from the rigid connection tables, with lambda3 = r lambda2.

    which = 'eds1' takes signs (eps1, eps2); 'eds2' takes (eps1, eps3).  The
    default ratio is r = 3 - 2*sqrt(2); r_override exists so the degenerate
    closure determinant can be demonstrated.
    """
    if lambda2 >= 0:
        raise ValueError("lambda2 must be negative")
    if which not in ("eds1", "eds2"):
        raise ValueError("which must be 'eds1' or 'eds2'")
    e1, e2 = (int(eps[0]), int(eps[1]))
    if abs(e1) != 1 or abs(e2) != 1:
        raise ValueError("signs must be +-1")
    r = R_SILVER if r_override is None else float(r_override)
    l2 = float(lambda2)
    l3 = r * l2
    s = math.sqrt(-2.0 * l2)
    sr = math.sqrt(r)
    vals = dict.fromkeys(GAMMA_KEYS, 0.0)

    def put(i, j, k, v):
        if j < k:
            vals[(i, j, k)] = v
        else:
            vals[(i, k, j)] = -v

    if which == "eds1":
        put(1, 1, 2, -e1 * (r - 1.0) / 2.0 * s)
        put(1, 1, 3, e2 * (r - 1.0) / (2.0 * sr) * s)
        put(2, 2, 3, -e2 * (r - 1.0) / (2.0 * sr) * s)
        put(3, 3, 2, e1 * (r - 1.0) / 2.0 * s)
        L2l2 = e1 * r * l2 * s
        L3l2 = e2 / sr * l2 * s
    else:
        put(1, 1, 2, -e1 * (r - 1.0) / 2.0 * s)
        put(1, 1, 3, -e2 * (r - 1.0) / (2.0 * sr) * s)
        put(2, 2, 3, e2 * (3.0 * r - 1.0) / (2.0 * sr) * s)
        put(3, 3, 2, e1 * (r - 1.0) / 2.0 * s)
        L2l2 = e1 * r * l2 * s
        L3l2 = e2 * (2.0 * r - 1.0) / sr * l2 * s
    gamma = _gamma_from_nine([vals[k] for k in GAMMA_KEYS])
    dlam = np.array([[0.0, 0.0], [L2l2, r * L2l2], [L3l2, r * L3l2]])
    return FrameData(l2, l3, dlam, gamma, "consistent")


@dataclass
class ClosureVerdict:
    contradiction: bool
    certificate: str
    determinant: float
    de2: float
    de3: float
    structure_residual: float


def eds_closure(which: str, lambda2: float, eps=(1, 1), r_override: float | None = None) -> ClosureVerdict:
    """Integrability check of the rigid structure equations.

    Two 1-form combinations x e^2 + y e^3 are forced closed: one by the
    structure equations themselves, one because it equals f(lambda2) d lambda2.
    If their coefficient vectors are independent, de^2 = de^3 = 0 follows,
    contradicting the nonzero connection table.
    """
    which = which.lower()
    fd = rigid_frame(which, lambda2, eps, r_override)
    r = fd.lambda3 / fd.lambda2
    e1, e2 = (int(eps[0]), int(eps[1]))
    sr = math.sqrt(r)

    G = fd.G
    de2 = G(2, 2, 3)  # coefficient of e^2 ^ e^3 in d e^2
    de3 = -G(3, 3, 2)
    stray = max(
        abs(-G(2, 2, 1)),
        abs(G(1, 2, 3) - G(3, 2, 1)),
        abs(-G(3, 3, 1)),
        abs(G(1, 2, 3) + G(2, 3, 1)),
    )

    if which == "eds1":
        u_struct = (e1, -e2 / sr)
        u_grad = (e1 * r, e2 / sr)
    else:
        u_struct = (e1 * (r - 1.0), e2 * (3.0 * r - 1.0) / sr)
        u_grad = (e1 * r, e2 * (2.0 * r - 1.0) / sr)

    struct_resid = abs(u_struct[0] * de2 + u_struct[1] * de3) + stray
    det = u_struct[0] * u_grad[1] - u_struct[1] * u_grad[0]
    table_nonzero = max(abs(de2), abs(de3)) > 1e-9
    contradiction = abs(det) > 1e-9 and table_nonzero and struct_resid < 1e-9

    if which == "eds2":
        quad = -r * r - 2.0 * r + 1.0
        cert = (
            f"closed combinations independent: det = eps1*eps2*r^(-1/2)*(-r^2-2r+1) "
            f"with -r^2-2r+1 = {quad:.12g} at r = {r:.12g}"
        )
    else:
        cert = f"closed combinations independent: det = eps1*eps2*r^(-1/2)*(1+r) = {det:.12g}"
    if not contradiction:
        if abs(det) <= 1e-9:
            cert = f"determinant ~ 0 at r = {r:.12g}: closed combinations dependent, no contradiction"
        elif not table_nonzero:
            cert = "structure table already closed, nothing to contradict"
    return ClosureVerdict(contradiction, cert, det, de2, de3, struct_resid)


def _bisect_root(f, lo, hi, tol=1e-14):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if hi - lo < tol:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def isolate_roots(coeffs, lo=0.0, hi=1.0, n_scan: int = 4096, tol: float = 1e-14):
    """All roots of a polynomial in the open interval (lo, hi) by sign scan
    and bisection.  Endpoint roots are excluded.
    """
    def f(x):
        return float(npoly.polyval(x, coeffs))

    eps = (hi - lo) * 1e-9
    xs = np.linspace(lo + eps, hi - eps, n_scan + 1)
    vals = npoly.polyval(xs, coeffs)
    # an exact zero at a grid point (the last one included), or a strict sign
    # change on the cell that starts there; a cell ending in a zero has none,
    # so a grid zero is counted once
    sign = np.sign(vals)
    change = np.append(sign[:-1] * sign[1:] < 0, False)
    hits = np.flatnonzero((vals == 0.0) | change)
    return [
        float(xs[k]) if vals[k] == 0.0 else _bisect_root(f, float(xs[k]), float(xs[k + 1]), tol)
        for k in hits
    ]


def contradiction_certificates() -> dict:
    """Root-freeness of the three case-elimination polynomials on (0, 1)."""
    cubic_a = [8.0, 21.0, 6.0, 1.0]  # r^3 + 6 r^2 + 21 r + 8
    cubic_b = [-4.0, 4.0, -1.0, 1.0]  # (r - 1)(r^2 + 4)
    quad = [1.0, -6.0, 1.0]  # 2(1-r)^2 - (1+r)^2
    report = {
        "r3+6r2+21r+8": isolate_roots(cubic_a),
        "(r-1)(r2+4)": isolate_roots(cubic_b),
        "2(1-r)2-(1+r)2": isolate_roots(quad),
    }
    report["silver_ratio_root"] = report["2(1-r)2-(1+r)2"][0] if report["2(1-r)2-(1+r)2"] else None
    return report


# --- serialization ------------------------------------------------------


def frame_to_text(fd: FrameData) -> str:
    lines = [
        f"lambda2 = {fd.lambda2!r}",
        f"lambda3 = {fd.lambda3!r}",
        f"mode = {fd.mode}",
    ]
    for i in (1, 2, 3):
        for j in (2, 3):
            lines.append(f"dlam_{i}_{j} = {fd.L(i, j)!r}")
    for (i, j, k) in GAMMA_KEYS:
        lines.append(f"gamma_{i}{j}{k} = {fd.G(i, j, k)!r}")
    return "\n".join(lines) + "\n"


def frame_from_text(text: str) -> FrameData:
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        kv[key.strip()] = val.strip()
    dlam = np.array(
        [[float(kv[f"dlam_{i}_{j}"]) for j in (2, 3)] for i in (1, 2, 3)]
    )
    gamma = _gamma_from_nine([float(kv[f"gamma_{i}{j}{k}"]) for (i, j, k) in GAMMA_KEYS])
    return FrameData(float(kv["lambda2"]), float(kv["lambda3"]), dlam, gamma, kv.get("mode", "free"))


def constraint_instance(fd: FrameData, case: str, d2_coeffs=None, rng=None):
    """Couple frame data to the polynomial classifiers: a raw instance dict.

    d2 is free second-order data (random if not given); the instance
    generically violates the constraint, which is informative on its own.
    """
    bundle = special_direction_polys(fd, case)
    if d2_coeffs is None:
        key = f"d2_{case}"
        if key in fd.d2:
            d2_coeffs = fd.d2[key]
        else:
            rng = rng or np.random.default_rng(0)
            d2_coeffs = rng.uniform(-1.0, 1.0, size=4 if case != "a3" else 5)
    d2_coeffs = np.asarray(d2_coeffs, dtype=float)
    P = npoly.polysub(npoly.polymul(bundle.a, d2_coeffs), npoly.polymul(bundle.a1, bundle.d1))
    inst = {
        "a": list(bundle.a),
        "c": list(bundle.c),
        "d1": list(bundle.d1),
        "P": list(P),
    }
    if case == "a3":
        inst["regime"] = "a3"
        inst["lambda2"] = fd.lambda2
        inst["lambda3"] = fd.lambda3
    else:
        inst["regime"] = "a12"
        inst["Lambda"] = -8.0 * (fd.lambda2 if case == "a1" else fd.lambda3)
    return inst
