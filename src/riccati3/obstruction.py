"""Trace-free Jacobi data, the degree-16 obstruction detector, and the
rank-specific certificates.

For a direction X with unit vector v = X/|X| and an orthonormal basis
{w1, w2} of v-perp, the Jacobi operator J(X) restricted to the plane splits
as (t/2) id + [[A, B], [B, -A]] with t = ric(X,X).  The derived operator
J'(X) = (nabla_X R)(., X) X splits the same way into (D1/2) id + A1/B1.
The scalar invariants

    D1 = (nabla_X ric)(X,X)
    D2 = 2 tr(Jo o Jo) + (nabla^2_{X,X} ric)(X,X)
    D  = det(Jo o Jo' - Jo' o Jo) = 4 (A B1 - A1 B)^2
    P  = tr(Jo o Jo) D2 - tr(Jo o Jo') D1

obey  P^2 = D (-D1^2 - 4 tr(Jo o Jo) ric(X,X))  whenever the metric carries
the constrained Riccati solution family; the signed deviation of the two
sides is the obstruction residual this module reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import (
    CurvaturePack,
    jacobi_op,
    orthonormal_perp,
    pack_at,
    plane_entries,
    ricci_rank,
)
from .metrics import MetricSpec
from .riccati import geodesic_step


class DegenerateSystem(ValueError):
    """The 2x2 reconstruction system for u is singular at this (point, X)."""


class EigengapError(ValueError):
    """Trace-free Jacobi eigenframe is ill-defined (isotropic direction)."""


class RankPrecondition(ValueError):
    """Operation requires a specific Ricci rank at the point."""


@dataclass
class JacobiFrame:
    X: np.ndarray
    v: np.ndarray  # unit
    w1: np.ndarray
    w2: np.ndarray
    A: float
    B: float
    t: float  # ric(X, X)
    isotropic: bool


@dataclass
class DerivedJacobi:
    A1: float
    B1: float
    trace: float  # tr J'(X) = (nabla_X ric)(X,X)


@dataclass
class ObstructionValues:
    D1: float
    D2: float
    D: float
    P: float
    lhs: float
    rhs: float
    residual: float
    scale: float
    tr_JJ: float
    tr_JJp: float
    frame: JacobiFrame
    derived: DerivedJacobi


@dataclass
class UCandidate:
    a: float
    b: float
    d: float
    consistency: float


@dataclass
class Rank1Report:
    scal: float
    lie_e3_scal: float
    div_e3: float
    Q: np.ndarray  # 2x2 in the kernel-plane basis
    q_eigenvalues: np.ndarray
    defect_min: float  # min over unit v in the plane
    defect_max: float
    flagged: bool


def fibonacci_directions(n: int) -> np.ndarray:
    """Quasi-uniform deterministic unit directions (euclidean normalization)."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def jacobi_frame(pack: CurvaturePack, X, iso_tol: float = 1e-10) -> JacobiFrame:
    """Eigenbasis of the trace-free Jacobi operator at X, with B = 0 and A >= 0."""
    X = np.asarray(X, dtype=float)
    nX = pack.norm(X)
    if nX == 0.0:
        raise ValueError("zero direction")
    v = X / nX
    w1, w2 = orthonormal_perp(pack.g, v, pack.frame)
    m11, m22, m12 = plane_entries(pack.g, jacobi_op(pack, X), w1, w2)
    t = float(X @ pack.ric @ X)
    A = 0.5 * (m11 - m22)
    B = m12
    h = math.hypot(A, B)
    scale = max(1.0, abs(t), abs(m11) + abs(m22))
    if h < iso_tol * scale:
        return JacobiFrame(X, v, w1, w2, 0.0, 0.0, t, True)
    theta = 0.5 * math.atan2(B, A)
    c, s = math.cos(theta), math.sin(theta)
    w1n = c * w1 + s * w2
    w2n = -s * w1 + c * w2
    return JacobiFrame(X, v, w1n, w2n, h, 0.0, t, False)


def derived_jacobi_direct(pack: CurvaturePack, X, frame: JacobiFrame) -> DerivedJacobi:
    """J'(X) = (nabla_X R)(., X) X projected to the frame plane."""
    X = np.asarray(X, dtype=float)
    Jp = np.einsum("mijkl,m,j,k->li", pack.nablaR, X, X, X)
    m11, m22, m12 = plane_entries(pack.g, Jp, frame.w1, frame.w2)
    return DerivedJacobi(A1=0.5 * (m11 - m22), B1=m12, trace=m11 + m22)


def obstruction_values(pack: CurvaturePack, X) -> ObstructionValues:
    """Evaluate both sides of the detector identity at (point, X).

    A residual of ~0 is necessary for the constrained Riccati family to exist
    at this point and direction; a residual well above the float noise floor
    certifies the metric admits no such family.
    """
    X = np.asarray(X, dtype=float)
    fr = jacobi_frame(pack, X)
    dj = derived_jacobi_direct(pack, X, fr)
    A, B = fr.A, fr.B
    A1, B1 = dj.A1, dj.B1
    ric_xx = fr.t

    D1 = float(np.einsum("kij,k,i,j->", pack.nabla_ric, X, X, X))
    tr_JJ = 2.0 * (A * A + B * B)
    tr_JJp = 2.0 * (A * A1 + B * B1)
    D2 = tr_JJ + float(np.einsum("klij,k,l,i,j->", pack.nabla2_ric, X, X, X, X))

    D = 4.0 * (A * B1 - A1 * B) ** 2

    P = 2.0 * ((A * A + B * B) * D2 - (A * A1 + B * B1) * D1)
    lhs = P * P
    rhs = D * (-D1 * D1 - 4.0 * tr_JJ * ric_xx)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return ObstructionValues(
        D1=D1,
        D2=D2,
        D=D,
        P=P,
        lhs=lhs,
        rhs=rhs,
        residual=lhs - rhs,
        scale=scale,
        tr_JJ=tr_JJ,
        tr_JJp=tr_JJp,
        frame=fr,
        derived=dj,
    )


def reconstruct_u(pack: CurvaturePack, X, rel_tol: float = 1e-10) -> UCandidate:
    """Solve the linear jet system for the trace-free candidate u at (point, X).

    4 d a = B D2 - B1 D1 and 4 d b = -A D2 + A1 D1 with d = A1 B - A B1.
    The consistency value |2(a^2+b^2) + ric(X,X)| vanishes exactly when the
    candidate also satisfies tr(u^2) = -tr(J).
    """
    ov = obstruction_values(pack, X)
    A, B = ov.frame.A, ov.frame.B
    A1, B1 = ov.derived.A1, ov.derived.B1
    d = A1 * B - A * B1
    norm_prod = math.hypot(A, B) * math.hypot(A1, B1)
    if abs(d) <= rel_tol * norm_prod or norm_prod == 0.0:
        raise DegenerateSystem(
            f"jet system singular: |d|={abs(d):.3e} vs scale {norm_prod:.3e}"
        )
    a = (B * ov.D2 - B1 * ov.D1) / (4.0 * d)
    b = (-A * ov.D2 + A1 * ov.D1) / (4.0 * d)
    consistency = abs(2.0 * (a * a + b * b) + ov.frame.t)
    return UCandidate(a=a, b=b, d=d, consistency=consistency)


def model_pack(lambda2: float, lambda3: float) -> CurvaturePack:
    """Synthetic flat-derivative pack with Ric = diag(0, lambda2, lambda3), g = I.

    Curvature comes from the 3d Kulkarni-Nomizu form, all covariant
    derivatives vanish; this is the algebraic substrate for the special
    direction analysis.
    """
    g = np.eye(3)
    ric = np.diag([0.0, lambda2, lambda3])
    scal = lambda2 + lambda3
    Ric = ric.copy()
    R = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    R[i, j, k, l] = (
                        g[j, k] * Ric[l, i]
                        - ric[i, k] * (1.0 if l == j else 0.0)
                        + ric[j, k] * (1.0 if l == i else 0.0)
                        - g[i, k] * Ric[l, j]
                        - 0.5 * scal * (g[j, k] * (l == i) - g[i, k] * (l == j))
                    )
    return CurvaturePack(
        point=(0.0, 0.0, 0.0),
        g=g,
        ginv=g.copy(),
        gamma=np.zeros((3, 3, 3)),
        dgamma=np.zeros((3, 3, 3, 3)),
        R=R,
        nablaR=np.zeros((3, 3, 3, 3, 3)),
        ric=ric,
        Ric_op=Ric,
        scal=scal,
        dscal=np.zeros(3),
        rho=Ric - scal / 4.0 * np.eye(3),
        nabla_ric=np.zeros((3, 3, 3)),
        nabla2_ric=np.zeros((3, 3, 3, 3)),
        frame=np.eye(3),
    )


def null_jacobi_directions(lambda2: float, lambda3: float, tol: float = 1e-12):
    """Unit directions w with vanishing trace-free Jacobi operator, both
    eigenvalues negative (algebraic rank-2 model).
    """
    if lambda2 >= 0 or lambda3 >= 0:
        raise ValueError("both eigenvalues must be negative")
    if abs(lambda2 - lambda3) <= tol * max(abs(lambda2), abs(lambda3)):
        e1 = np.array([1.0, 0.0, 0.0])
        return [e1, -e1]
    if lambda2 < lambda3:
        x = math.sqrt(lambda3 / lambda2)
        y = math.sqrt((lambda2 - lambda3) / lambda2)
        return [np.array([x, y, 0.0]), np.array([x, -y, 0.0])]
    x = math.sqrt(lambda2 / lambda3)
    y = math.sqrt((lambda3 - lambda2) / lambda3)
    return [np.array([x, 0.0, y]), np.array([x, 0.0, -y])]


def _match_sign(vec, reference):
    return vec if float(vec @ reference) >= 0.0 else -vec


def rank1_checks(spec: MetricSpec, p, rank_report=None, step: float = 1e-4, n_angles: int = 720) -> Rank1Report:
    """Numeric certificate of the rank-1 contradiction at a point.

    e3 is the eigenvector field of the nonzero Ricci eigenvalue, continued to
    nearby points by nearest-rotation (sign) matching so finite differences of
    the field are meaningful.  The defect compares (g(nabla_v e3, v))^2 with
    -scal/2 over unit v in the kernel plane; by the supporting theory both the
    Lie derivative of scal along e3 and div e3 must vanish, while the defect
    cannot vanish for every v unless scal = 0.
    """
    p = np.asarray(p, dtype=float)
    pack = pack_at(spec, p)
    rr = rank_report or ricci_rank(pack)
    if rr.rank != 1:
        raise RankPrecondition(f"rank1_checks needs rank 1, got {rr.rank}")
    idx = int(np.argmax(np.abs(rr.eigenvalues)))
    e3 = rr.eigenframe[:, idx]
    plane = [rr.eigenframe[:, k] for k in range(3) if k != idx]

    de3 = np.empty((3, 3))  # de3[i, k] = d_i e3^k
    for i in range(3):
        shift = np.zeros(3)
        shift[i] = step
        col_p = _e3_at(spec, p + shift, e3)
        col_m = _e3_at(spec, p - shift, e3)
        de3[i] = (col_p - col_m) / (2.0 * step)

    grad_e3 = de3 + np.einsum("kim,m->ik", pack.gamma, e3)  # grad_e3[i,k] = (nabla_i e3)^k
    div_e3 = float(np.trace(grad_e3))
    lie_scal = float(e3 @ pack.dscal)

    def nabla_e3(v):
        return np.einsum("i,ik->k", v, grad_e3)

    E1, E2 = plane
    Q = np.empty((2, 2))
    basis = (E1, E2)
    for a in range(2):
        for b in range(2):
            Q[a, b] = float(basis[a] @ pack.g @ nabla_e3(basis[b])) + float(
                basis[b] @ pack.g @ nabla_e3(basis[a])
            )
    q_eigs = np.linalg.eigvalsh(Q)

    target = -pack.scal / 2.0
    angles = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    defects = []
    for phi in angles:
        v = math.cos(phi) * E1 + math.sin(phi) * E2
        val = float(v @ pack.g @ nabla_e3(v)) ** 2 - target
        defects.append(abs(val))
    defects = np.array(defects)
    d_min, d_max = float(defects.min()), float(defects.max())
    return Rank1Report(
        scal=pack.scal,
        lie_e3_scal=lie_scal,
        div_e3=div_e3,
        Q=Q,
        q_eigenvalues=q_eigs,
        defect_min=d_min,
        defect_max=d_max,
        flagged=bool(d_max > 1e-6 * max(1.0, abs(pack.scal))),
    )


def _e3_at(spec, q, reference):
    pk = pack_at(spec, q)
    rr = ricci_rank(pk)
    idx = int(np.argmax(np.abs(rr.eigenvalues)))
    return _match_sign(rr.eigenframe[:, idx], reference)


def derived_jacobi_crosscheck(spec: MetricSpec, p, v, step: float = 1e-4, eigengap_tol: float = 1e-6):
    """Check the derived Jacobi entries against an eigenframe-transport oracle.

    Builds the geodesic through (p, v), continues the eigenframe of the
    trace-free Jacobi operator along it, and evaluates

        A1 = L_v A          (geodesic: nabla_v v = 0)
        B1 = 2 A g(nabla_v w1, w2)

    by central finite differences.  Returns (dA1, dB1), the deviations from
    the direct covariant-derivative computation in the same basis at t = 0.
    """
    p = np.asarray(p, dtype=float)
    pack0 = pack_at(spec, p)
    v = np.asarray(v, dtype=float)
    v = v / pack0.norm(v)
    fr0 = jacobi_frame(pack0, v)
    if fr0.isotropic or 2.0 * fr0.A < eigengap_tol:
        raise EigengapError(f"eigengap {2.0 * fr0.A:.3e} too small along direction")

    states = {}
    for s in (-1, 1):
        x, u = geodesic_step(spec, p, s * v, step)
        states[s] = (x, s * u)

    frames = {}
    for s in (-1, 1):
        x, u = states[s]
        pk = pack_at(spec, x)
        fr = jacobi_frame(pk, u)
        if fr.isotropic or 2.0 * fr.A < eigengap_tol:
            raise EigengapError("eigengap collapses along the geodesic")
        w1 = _match_sign(fr.w1, fr0.w1)
        w2 = _match_sign(fr.w2, fr0.w2)
        frames[s] = (fr.A, w1, w2)

    A_plus, w1_plus, _ = frames[1]
    A_minus, w1_minus, _ = frames[-1]
    A1_fd = (A_plus - A_minus) / (2.0 * step)
    dw1 = (w1_plus - w1_minus) / (2.0 * step)
    nabla_v_w1 = dw1 + np.einsum("kij,i,j->k", pack0.gamma, v, fr0.w1)
    B1_fd = 2.0 * fr0.A * float(nabla_v_w1 @ pack0.g @ fr0.w2)

    dj = derived_jacobi_direct(pack0, v, fr0)
    return (A1_fd - dj.A1, B1_fd - dj.B1)
