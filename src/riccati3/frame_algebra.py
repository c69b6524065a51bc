"""Eigenframe polynomial algebra on synthetic data.

The substrate is a Ricci eigenframe {e1, e2, e3} with eigenvalues
(0, lambda2, lambda3), lambda2, lambda3 < 0, represented by free data: the
eigenvalue derivative table L_i lambda_j and the nine independent connection
coefficients G_ijk = g(nabla_{e_i} e_j, e_k) (antisymmetric in j,k).  No
actual metric is involved: the identities under test are frame-level algebra,
and synthetic data makes their constraint structure directly visible.

Special directions X = t e_i + e_j, with w1 = e_w, turn the curvature
quantities into polynomials in t; each case is its frame (i, j, w):

  case a1: X = t e1 + e2, w1 = e3,   2a = (l3-l2) t^2 + l3
  case a2: X = t e1 + e3, w1 = e2,   2a = (l2-l3) t^2 + l2
  case a3: X = t e2 + e3, w1 = e1,  -2a = l3 t^2 + l2

The bundle polynomials a, c, d1, a1, b1 of every case come from one general
expansion in (i, j, w) (a1 via A1 = L_X A - ric(X, nabla_X X), b1 via the
projected derived-Jacobi formula), which reads the frame's data alone: its
``mode`` is a label, "free" or "consistent", that no formula reads.  The
factorization b1 = -(t^2+1) c holds identically and doubles as a cross-check
of the expansion.  lambda1 = 0 and its derivatives L_{e_k} lambda1 are
structural zeros, and their terms are left out.

Frames may carry a leading batch axis: at n frames lambda2 and lambda3 are
(n,) arrays, the derivative table is (n, 3, 2) and the connection
coefficients are (n, 3, 3, 3).  A polynomial is the tuple of its ascending
coefficients, each a float at one frame and an (n,) column at a batch; a
coefficient that is 0 by structure (a's middle one, say) is the float 0.0 in
both.  Products and sums are plain arithmetic on those columns, term by term
in the order of a polynomial product (left to right in j over a_j b_{k-j}),
with the terms of a structural zero left out: that can change only the sign
of a zero, and every consumer takes |.|.  So each column entry of a batch is
bitwise the value the same function gives at that one frame.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

R_SILVER = 3.0 - 2.0 * math.sqrt(2.0)  # unique eigenvalue ratio of the rigid frames

CASES = ("a1", "a2", "a3")


class FrameData(NamedTuple):
    lambda2: float | np.ndarray  # a float, or (n,) at a batch of n frames
    lambda3: float | np.ndarray
    dlam: np.ndarray  # (..., 3, 2): dlam[i,0] = L_{e_{i+1}} lambda2, dlam[i,1] = ... lambda3
    gamma: np.ndarray  # (..., 3, 3, 3), gamma[i,j,k] = g(nabla_{e_i} e_j, e_k), antisym in (j,k)
    mode: str = "free"  # a label, "free" or "consistent", that no formula reads

    def G(self, i, j, k):
        """1-based connection coefficient g(nabla_{e_i} e_j, e_k): a numpy
        float at one frame, the (n,) column of a batch.  The transpose puts
        the frame axis last, so one frame's read is a scalar, not a 0-d array."""
        return self.gamma.T[k - 1, j - 1, i - 1]

    def L(self, i, j):
        """1-based eigenvalue derivative L_{e_i} lambda_j (j in {2,3}), as ``G``."""
        return self.dlam.T[j - 2, i - 1]


GAMMA_KEYS = [(i, j, k) for i in (1, 2, 3) for (j, k) in ((1, 2), (1, 3), (2, 3))]
_GI, _GJ, _GK = (np.array(ax) - 1 for ax in zip(*GAMMA_KEYS))


def _gamma_from_nine(vals):
    """The antisymmetric table from the nine coefficients of GAMMA_KEYS (last axis)."""
    vals = np.asarray(vals, dtype=float)
    g = np.zeros(vals.shape[:-1] + (3, 3, 3))
    g[..., _GI, _GJ, _GK] = vals
    g[..., _GI, _GK, _GJ] = -vals
    return g


_DRAW_LO = np.array([2.0, 0.2] + [-1.0] * 15)
_DRAW_HI = np.array([4.0, 1.5] + [1.0] * 15)


def free_frames(rng, n: int) -> FrameData:
    """n free frames drawn in turn from the numpy Generator rng, 17 uniforms a
    frame: -lambda2 in [2, 4), -lambda3 in [0.2, 1.5), then the nine connection
    coefficients and the derivative table in [-1, 1).  Row k is the k-th draw."""
    draws = rng.uniform(_DRAW_LO, _DRAW_HI, (n, 17))
    gamma = _gamma_from_nine(draws[:, 2:11])
    return FrameData(-draws[:, 0], -draws[:, 1], draws[:, 11:].reshape(-1, 3, 2), gamma, "free")


def consistent_from_free(fd: FrameData) -> FrameData:
    """The consistent frame with fd's eigenvalues and connection coefficients.

    Its derivative table solves the five linear relations exactly, with
    L_{e3} lambda2 taken from fd's first entry L_{e1} lambda2, so the free and
    the consistent frame of a seed share one draw.
    """
    l2, l3 = fd.lambda2, fd.lambda3
    G = fd.G
    l3l2 = l3 - l2
    L2l2 = 2.0 * l2 * l3 / (l2 - l3) * G(1, 1, 2)
    L1l2 = -2.0 * l2 * G(2, 2, 1)
    L3l2 = fd.L(1, 2)
    L1l3 = 2.0 * l2 * G(2, 2, 1) + 2.0 * l3 * G(3, 3, 1) - L1l2
    L2l3 = L2l2 + 2.0 * l3l2 * G(3, 3, 2) - 2.0 * l2 * G(1, 1, 2)
    L3l3 = L3l2 + 2.0 * l3l2 * G(2, 2, 3) + 2.0 * l3 * G(1, 1, 3)
    dlam = np.array((L1l2, L1l3, L2l2, L2l3, L3l2, L3l3)).T.reshape(fd.gamma.shape[:-3] + (3, 2))
    return FrameData(l2, l3, dlam, fd.gamma, "consistent")


def consistent_frame(seed, mode: str = "consistent") -> FrameData:
    """The frame of ``free_frames(default_rng(seed), 1)`` for one integer seed
    (else TypeError); in mode consistent the five linear relations between the
    derivative table and the connection coefficients hold exactly."""
    if mode not in ("free", "consistent"):
        raise ValueError(f"unknown mode '{mode}'")
    fd = free_frames(np.random.default_rng(operator.index(seed)), 1)
    if mode == "consistent":
        fd = consistent_from_free(fd)
    return FrameData(float(fd.lambda2[0]), float(fd.lambda3[0]), fd.dlam[0], fd.gamma[0], mode)


def _max_abs(cols):
    """The largest |value| among columns of one length, frame by frame: a
    float at one frame, an (n,) array at a batch, NaN where one is NaN."""
    return abs(np.array(cols)).max(axis=0)


def bianchi_frame_residuals(fd: FrameData):
    """Left minus right of the three frame Bianchi equations: three columns."""
    l2, l3 = fd.lambda2, fd.lambda3
    G, L = fd.G, fd.L
    d = l3 - l2
    r1 = 0.5 * (L(1, 2) + L(1, 3)) - (l2 * G(2, 2, 1) + l3 * G(3, 3, 1))
    r2 = 0.5 * (L(2, 3) - L(2, 2)) - (d * G(3, 3, 2) - l2 * G(1, 1, 2))
    r3 = 0.5 * (L(3, 3) - L(3, 2)) - (d * G(2, 2, 3) + l3 * G(1, 1, 3))
    return r1, r2, r3


def ric111_residual(fd: FrameData) -> float | np.ndarray:
    """ric(nabla_{e1}e1, nabla_{e1}e1) + scal^2/2 in frame terms: a float at
    one frame, the (n,) array of a batch."""
    l2, l3 = fd.lambda2, fd.lambda3
    G = fd.G
    return l2 * G(1, 1, 2) ** 2 + l3 * G(1, 1, 3) ** 2 + 0.5 * (l2 + l3) ** 2


def _sub(x, y, s):
    """s (x - y), with None for a structural zero in x or y (not both)."""
    if y is None:
        return s * x
    return s * (x - y) if x is not None else -(s * y)


def _add(x, y):
    """x + y, with None for a structural zero."""
    return y if x is None else x if y is None else x + y


class PolyBundle(NamedTuple):
    case: str
    a: tuple
    c: tuple
    d1: tuple
    a1: tuple
    b1: tuple

    def b1_factor_residual(self):
        """The largest |coefficient| of b1 + (t^2 + 1) c, frame by frame."""
        b, c = self.b1, self.c
        return _max_abs((b[0] + c[0], b[1] + c[1], b[2] + (c[2] + c[0]), b[3] + c[1], b[4] + c[2]))


_CASE_FRAME = {"a1": (1, 2, 3), "a2": (1, 3, 2), "a3": (2, 3, 1)}


def special_direction_polys(fd: FrameData, case: str) -> PolyBundle:
    """Bundle (a, c, d1, a1, b1) along X = t e_i + e_j with w1 = e_w, (i, j, w)
    the case's frame, by one expansion for every case.  With r = lam_i - lam_j,
    u = r G(j,i,j) and v = r G(i,i,j):
      a  = ((lam_w - lam_i)/2, 0, (lam_w - lam_j)/2),
      c  = ((lam_w - lam_i) G(j,i,w),
            (lam_j - lam_w) G(j,j,w) + (lam_w - lam_i) G(i,i,w), (lam_j - lam_w) G(i,j,w)),
      d1 = (L(j,j), L(i,j) + 2u, L(j,i) + 2v, L(i,i)), the last only for i != 1,
      a1 = L_X a + (0, u, v, 0),
    and b1 as written below.  lambda1 = 0 and its derivatives L(k,1) are
    structural zeros (None): their terms are left out."""
    if case not in CASES:
        raise ValueError(f"case must be one of {CASES}")
    i, j, w = _CASE_FRAME[case]
    G = fd.G
    lam = {1: None, 2: fd.lambda2, 3: fd.lambda3}
    li, lj, lw = lam[i], lam[j], lam[w]
    L = {(k, m): None if m == 1 else fd.L(k, m) for k in (i, j) for m in (i, j, w)}

    r = _sub(li, lj, 1.0)
    u, v = r * G(j, i, j), r * G(i, i, j)
    a = (_sub(lw, li, 0.5), 0.0, _sub(lw, lj, 0.5))
    c = (
        _sub(lw, li, G(j, i, w)),
        _add(_sub(lj, lw, G(j, j, w)), _sub(lw, li, G(i, i, w))),
        _sub(lj, lw, G(i, j, w)),
    )
    d1 = (L[j, j], _add(L[i, j], 2.0 * u), _add(L[j, i], 2.0 * v)) + ((L[i, i],) if i != 1 else ())
    a1 = (
        _sub(L[j, w], L[j, i], 0.5),
        _add(_sub(L[i, w], L[i, i], 0.5), u),
        _add(_sub(L[j, w], L[j, j], 0.5), v),
        _sub(L[i, w], L[i, j], 0.5),
    )

    # general derived-Jacobi off-diagonal: b1 = 2a * g(nabla_X e_w, e_i - t e_j)
    #                                         + g(nabla_X X, e_w) * ric(X, e_i - t e_j),
    # the products 2a s1 + s2 ric_x without the terms of a's middle 0 and
    # of ric_x = (0, r)'s constant 0
    s1 = (G(j, w, i), G(i, w, i) - G(j, w, j), -G(i, w, j))
    s2 = (G(j, j, w), G(i, j, w) + G(j, i, w), G(i, i, w))
    a0, a2 = 2.0 * a[0], 2.0 * a[2]
    b1 = (
        a0 * s1[0],
        a0 * s1[1] + s2[0] * r,
        (a0 * s1[2] + a2 * s1[0]) + s2[1] * r,
        a2 * s1[1] + s2[2] * r,
        a2 * s1[2],
    )
    return PolyBundle(case, a, c, d1, a1, b1)


def a1_crosscheck(fd: FrameData, bundles=None):
    """Closed-form coefficient expressions for a1 in cases a2/a3 against the general
    expansion; both residuals vanish exactly on consistent-consistent data.
    ``bundles`` is fd's three bundles in CASES order, built here when not given.
    """
    l2, l3 = fd.lambda2, fd.lambda3
    G = fd.G
    b_a1, b_a2, b_a3 = bundles or [special_direction_polys(fd, case) for case in CASES]
    p12p, p13p, p23p = b_a1.c[1], b_a2.c[1], b_a3.c[1]
    d113_0, D2c = b_a2.d1[0], b_a2.d1[2]  # L_{e3} lambda3 and the t^2 coefficient of d1^13

    # D2c = -2 l3 G113, so p12p + D2c is p12p - 2 l3 G113 to the bit
    a13_closed = (
        p12p + D2c + 0.5 * d113_0,
        p23p,
        p12p - 3.0 * l3 * G(1, 1, 3),
        3.0 * p23p - 4.0 * l3 * G(3, 3, 1),
    )
    G112, l2l3 = G(1, 1, 2), l2 - l3
    c3 = l2 * (3.0 * l3 - 2.0 * l2) / l2l3 * G112 + p13p
    c2 = 0.5 * d113_0 - 0.5 * D2c - p12p
    c1 = l2 * l2 / l2l3 * G112 - p13p
    c0 = 0.5 * d113_0 + D2c + p12p
    # the closed a1^23 is -(c0, c1, c2, c3): its residual adds c
    res13 = _max_abs([g - c for g, c in zip(b_a2.a1, a13_closed)])
    res23 = _max_abs([g + c for g, c in zip(b_a3.a1, (c0, c1, c2, c3))])
    return res13, res23


def _eval_at_imag(coeffs, kappa):
    """(Re, Im) of the polynomial at i*kappa: c0 - c2 kappa^2 + c4 kappa^4 - ...
    and c1 kappa - c3 kappa^3 + ..., each summed left to right."""
    re, im, power = coeffs[0], 0.0, kappa
    for k in range(1, len(coeffs)):
        if k > 1:
            power = power * kappa
        term = coeffs[k] * power
        if k == 1:
            im = term
        elif k % 2:
            im = im - term if k % 4 == 3 else im + term
        else:
            re = re - term if k % 4 == 2 else re + term
    return re, im


def root_identities(fd: FrameData, bundles=None) -> dict:
    """Residuals of the evaluation identities at the distinguished imaginary
    roots; all six vanish on consistent-consistent data with lambda2 < lambda3;
    ``bundles`` as for ``a1_crosscheck``.
    """
    l2, l3 = fd.lambda2, fd.lambda3
    if not (np.less(l2, l3) & np.less(l3, 0.0)).all():
        raise ValueError("need lambda2 < lambda3 < 0 for the root arguments")
    G = fd.G
    b_a1, b_a2, b_a3 = bundles or [special_direction_polys(fd, case) for case in CASES]
    p12p, p13p, p23p = b_a1.c[1], b_a2.c[1], b_a3.c[1]
    d113, a113 = b_a2.d1, b_a2.a1
    d123, a123 = b_a3.d1, b_a3.a1

    l2l3 = l2 - l3
    kappa = np.sqrt(l2 / l3)
    mu = np.sqrt(l2 / l2l3)
    nu = np.sqrt((l2 + 2.0 * l3) / l2l3)
    D2c = d113[2]
    G112 = G(1, 1, 2)

    re_d123, im_d123 = _eval_at_imag(d123, kappa)
    res_re = re_d123 - ((l3 - l2) / l3 * (d113[0] + 3.0 * l2 / l2l3 * D2c) - 4.0 * l2 / l3 * p12p)
    res_im = im_d123 - 4.0 * (p13p - 2.0 * l2 * G112) * kappa

    re_a113, im_a113 = _eval_at_imag(a113, mu)
    res_re2 = 2.0 * re_a113 - (2.0 * l3 / (l3 - l2) * p12p - (l2 + 2.0 * l3) / l2l3 * D2c + d113[0])

    re_a123, im_a123 = _eval_at_imag(a123, kappa)
    re_d113_nu, _ = _eval_at_imag(d113, nu)
    res_re3 = re_a123 - ((l2 - l3) / (2.0 * l3) * re_d113_nu - (l2 + l3) / l3 * p12p)
    res_im3 = -np.sqrt(l3 / l2) * im_a123 - (2.0 * l2 * l2 / l3 * G112 - (l2 + l3) / l3 * p13p)

    res_im1 = im_a113 + mu / l2l3 * ((2.0 * l2 + l3) * p23p - 4.0 * l2 * l3 * G(3, 3, 1))

    return {
        "re_d123": res_re,
        "im_d123": res_im,
        "re2_a113": res_re2,
        "re3_a123": res_re3,
        "im3_a123": res_im3,
        "im1_a113": res_im1,
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


def stack_frames(frames) -> FrameData:
    """One batch of one-frame FrameData of one mode, row k the k-th frame."""
    return FrameData(
        np.array([fd.lambda2 for fd in frames]),
        np.array([fd.lambda3 for fd in frames]),
        np.stack([fd.dlam for fd in frames]),
        np.stack([fd.gamma for fd in frames]),
        frames[0].mode,
    )


class ClosureVerdict(NamedTuple):
    contradiction: bool
    certificate: str
    determinant: float
    de2: float
    de3: float
    structure_residual: float


def eds_closure(
    which: str, lambda2: float, eps=(1, 1), r_override: float | None = None, fd: FrameData | None = None
) -> ClosureVerdict:
    """Integrability check of the rigid structure equations.

    Two 1-form combinations x e^2 + y e^3 are forced closed: one by the
    structure equations themselves, one because it equals f(lambda2) d lambda2.
    If their coefficient vectors are independent, de^2 = de^3 = 0 follows,
    contradicting the nonzero connection table.  ``fd`` is the one-frame
    ``rigid_frame`` of the other arguments, built here when not given.
    """
    which = which.lower()
    fd = fd or rigid_frame(which, lambda2, eps, r_override)
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
    return ClosureVerdict(bool(contradiction), cert, det, float(de2), float(de3), float(struct_resid))


def _roots_in_unit_interval(coeffs):
    """The roots in (0, 1) of the polynomial sum_i coeffs[i] r^i with integer
    coefficients, as a list, counted exactly by Descartes' rule of signs.

    r = 1/(1+s) maps (0, 1) onto s > 0, and q(s) = (1+s)^d p(1/(1+s)) has the
    integer coefficients q_k = sum_i coeffs[i] C(d-i, k).  The sign changes of
    q's nonzero coefficients bound its positive roots and share their parity:
    none proves p root-free on (0, 1), one proves exactly one root, which float
    bisection then locates to 1e-15.  Endpoint roots are not counted: r = 1 is
    a zero constant term of q, r = 0 a zero leading term.  More sign changes
    decide nothing and raise ValueError (Collins & Akritas, SYMSAC 1976).
    """
    d = len(coeffs) - 1
    q = [sum(c * math.comb(d - i, k) for i, c in enumerate(coeffs)) for k in range(d + 1)]
    positive = [x > 0 for x in q if x]
    changes = sum(u != v for u, v in zip(positive, positive[1:]))
    if changes > 1:
        raise ValueError(f"{coeffs}: {changes} sign changes, Descartes' rule does not count the roots in (0, 1)")
    if not changes:
        return []
    # p just right of 0 has the sign of q as s -> infinity, its last nonzero coefficient
    lo, hi, left = 0.0, 1.0, positive[-1]
    while hi - lo >= 1e-15:
        mid = 0.5 * (lo + hi)
        p = 0.0
        for c in reversed(coeffs):
            p = p * mid + c
        if (p > 0) == left:
            lo = mid
        else:
            hi = mid
    return [0.5 * (lo + hi)]


def contradiction_certificates() -> dict:
    """The roots in (0, 1) of the three case-elimination polynomials, each
    counted exactly on integers (``_roots_in_unit_interval``): a proof that
    r^3+6r^2+21r+8 and (r-1)(r^2+4) have none, and that
    2(1-r)^2-(1+r)^2 = r^2-6r+1 has exactly one, the silver ratio 3-2 sqrt(2),
    reported as a float within 1e-15."""
    cubic_a = [8, 21, 6, 1]  # r^3 + 6 r^2 + 21 r + 8
    cubic_b = [-4, 4, -1, 1]  # (r - 1)(r^2 + 4)
    quad = [1, -6, 1]  # 2(1-r)^2 - (1+r)^2
    report = {
        "r3+6r2+21r+8": _roots_in_unit_interval(cubic_a),
        "(r-1)(r2+4)": _roots_in_unit_interval(cubic_b),
        "2(1-r)2-(1+r)2": _roots_in_unit_interval(quad),
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
            lines.append(f"dlam_{i}_{j} = {float(fd.L(i, j))!r}")
    for (i, j, k) in GAMMA_KEYS:
        lines.append(f"gamma_{i}{j}{k} = {float(fd.G(i, j, k))!r}")
    return "\n".join(lines) + "\n"
