"""Oracles: independent checks of quantities the package computes by a
leaner route.  Finite differences check exact quantities computed from one
point's jets against packs at nearby points; a numpy geodesic stage, with
Gamma from the order-1 metric jets and a linear solve, checks the float
step of the generated geodesic walk (``riccati._walk``), the same float step
as a chain of calls over ``gamma_at`` (``reference_float_step`` over
``reference_slopes``) checks it bit for bit, the Riccati steps taken one
function call at a time (``reference_riccati``) check ``integrate_riccati``'s
one loop bit for bit,
and the speed and frame drifts of a geodesic path check its invariants;
the Neumann series of g^-1 to full order checks the curvature kernel's forward substitution for Gamma; a plain-float tree walk
(``eval_scalar``) checks the jet evaluator, and loops over multi-index pairs
the Leibniz tables it is built on and the grouped contracted products; the
polynomial classifiers' decision trees in plain Fraction arithmetic
(``reference_classify``) check their integer form.  The trace-free Jacobi
eigenframe (``jacobi_frame``) and the derived entries in it
(``derived_jacobi_direct``) check the detector's frame-free traces, and the
grid scan of trace-free initial values in that frame (``constrained_probe``)
is the oracle for an algebraic solution of the constrained problem.  The
FrameData text reader (the inverse of ``frame-check --dump-frame``), the
special-direction bundles expanded case by case (``reference_bundle``, which
checks ``special_direction_polys``' one general expansion), the
coupling of a frame's bundle to a classifier instance, the algebraic model
pack with its null Jacobi directions and the reconstruction of the
trace-free candidate u live here too: only tests use them."""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from riccati3.curvature import (
    CurvaturePack,
    _dot,
    _matrix,
    _products,
    jacobi_op,
    orthonormal_perp,
    pack_at,
    ricci_rank,
)
from riccati3.exprjet import (
    INDEX_OF,
    MULTI_INDICES,
    N_BY_ORDER,
    BinOp,
    Call,
    Const,
    Neg,
    Param,
    Power,
    Var,
    contract,
    partials,
)
from riccati3.frame_algebra import CASES, GAMMA_KEYS, FrameData, PolyBundle, _gamma_from_nine, special_direction_polys
from riccati3.metrics import _FULL_INDEX, MetricSpec, gamma_at, lowered_symbol, metric_jets
from riccati3.obstruction import IsotropyMask, _directions, _first, obstruction_values
from riccati3.polyclass import BranchVerdict, ConstraintInstance
from riccati3.riccati import (
    BLOWUP_NORM,
    _blocks,
    _stage_J,
    integrate_geodesic,
    integrate_riccati,
    jacobi_along,
)


class EigengapError(ValueError):
    """Trace-free Jacobi eigenframe is ill-defined (isotropic direction)."""


def geodesic_step(spec, p, v, dt):
    """Single fourth-order step of the geodesic equation; returns (x, v)."""
    y = reference_float_step(spec, [*map(float, p), *map(float, v)] + [0.0] * 6, dt)
    return np.array(y[0:3]), np.array(y[3:6])


def gamma_arrays(spec, p):
    """``gamma_at``'s floats as the arrays (g, ginv, Gamma), (3, 3), (3, 3) and
    (3, 3, 3): Gamma[k, i, j] is ginv times the lowered symbol of its partials."""
    jet, inv = gamma_at(spec, p)
    c = np.array(jet)[:, _FULL_INDEX]  # (4, 3, 3): g_ij, then its partials
    ginv = np.array(inv)[_FULL_INDEX]
    low = lowered_symbol(np.moveaxis(c[1:], 0, -1))
    return c[0], ginv, (ginv @ low.reshape(3, 9)).reshape(3, 3, 3)


def neumann_inverse(G, order):
    """Coefficients of g^-1 at ``order`` from the metric's coefficients G,
    shape (N(k),) + batch + (3, 3), k >= order: the Neumann series
    sum_m (-A H)^m A around A = inv(G[0]), H = G - G[0], by Horner."""
    A = np.linalg.inv(G[0])
    AH = A @ G[: N_BY_ORDER[order]]
    AH[0] = 0.0
    S = np.zeros_like(AH)
    S[0] = A
    for _ in range(order):
        S = -contract("kl,lj->kj", AH, S, order)
        S[0] = A
    return S


def reference_slopes(spec, y):
    """The slopes (v, -Gamma(v, v), -Gamma(v, w1), -Gamma(v, w2)) of the state
    y = (x, v, w1, w2), 12 floats, as a list of 12 floats.

    Gamma_l(v, q) = ((D_v g) q + (D_q g) v)_l / 2 - (d_l g)(v, q) / 2 is linear in q:
    its matrix is (M + S) / 2, with M = D_v g = sum_m v^m d_m g and S the
    antisymmetric matrix S_lj = (d_j g v)_l - (d_l g v)_j.  Each of the three
    lowered vectors is raised once with ``gamma_at``'s g^-1.

    The geodesic stage as a chain of calls over ``gamma_at``: the reference
    for each stage of the walk ``riccati._walk`` generates, bit for bit.
    """
    _, _, _, v1, v2, v3, p1, p2, p3, r1, r2, r3 = y  # x, v, w1, w2
    (_, d1, d2, d3), (i11, i12, i13, i22, i23, i33) = gamma_at(spec, y[:3])
    g11_1, g12_1, g13_1, g22_1, g23_1, g33_1 = d1
    g11_2, g12_2, g13_2, g22_2, g23_2, g33_2 = d2
    g11_3, g12_3, g13_3, g22_3, g23_3, g33_3 = d3
    # M = D_v g
    m11 = g11_1 * v1 + g11_2 * v2 + g11_3 * v3
    m12 = g12_1 * v1 + g12_2 * v2 + g12_3 * v3
    m13 = g13_1 * v1 + g13_2 * v2 + g13_3 * v3
    m22 = g22_1 * v1 + g22_2 * v2 + g22_3 * v3
    m23 = g23_1 * v1 + g23_2 * v2 + g23_3 * v3
    m33 = g33_1 * v1 + g33_2 * v2 + g33_3 * v3
    # the entries of S above the diagonal
    s12 = (g11_2 - g12_1) * v1 + (g12_2 - g22_1) * v2 + (g13_2 - g23_1) * v3
    s13 = (g11_3 - g13_1) * v1 + (g12_3 - g23_1) * v2 + (g13_3 - g33_1) * v3
    s23 = (g12_3 - g13_2) * v1 + (g22_3 - g23_2) * v2 + (g23_3 - g33_2) * v3
    # M + S, whose diagonal is that of M
    b12, b21 = m12 + s12, m12 - s12
    b13, b31 = m13 + s13, m13 - s13
    b23, b32 = m23 + s23, m23 - s23
    # -g^-1 / 2, the 1/2 of Gamma_l folded in (halving a float is exact)
    h11, h12, h13 = -0.5 * i11, -0.5 * i12, -0.5 * i13
    h22, h23, h33 = -0.5 * i22, -0.5 * i23, -0.5 * i33
    out = [v1, v2, v3]
    for c1, c2, c3 in ((v1, v2, v3), (p1, p2, p3), (r1, r2, r3)):
        l1 = m11 * c1 + b12 * c2 + b13 * c3
        l2 = b21 * c1 + m22 * c2 + b23 * c3
        l3 = b31 * c1 + b32 * c2 + m33 * c3
        out += (h11 * l1 + h12 * l2 + h13 * l3, h12 * l1 + h22 * l2 + h23 * l3, h13 * l1 + h23 * l2 + h33 * l3)
    return out


def reference_float_step(spec, y, dt):
    """One RK4 step of length dt of the geodesic and transport system from the
    state y (12 floats); the next state as a list of 12 floats."""
    h = 0.5 * dt
    k1 = reference_slopes(spec, y)
    k2 = reference_slopes(spec, [a + h * b for a, b in zip(y, k1)])
    k3 = reference_slopes(spec, [a + h * b for a, b in zip(y, k2)])
    k4 = reference_slopes(spec, [a + dt * b for a, b in zip(y, k3)])
    w = dt / 6.0
    return [a + w * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def christoffel_solve(spec, x):
    """Gamma[k, i, j] at x from the order-1 metric jets and a linear solve,
    independent of ``gamma_at`` and its adjugate inverse."""
    G = metric_jets(spec, tuple(map(float, x)), order=1).coef  # (4, 3, 3)
    low = lowered_symbol(partials(G)[0])
    return np.linalg.solve(G[0], low.reshape(3, 9)).reshape(3, 3, 3)


def reference_rhs(spec, y):
    """The geodesic and transport slopes of the state y = (x, v, w1, w2) on
    numpy arrays: the reference for the float stage."""
    v = y[3:6]
    W = y[3:12].reshape(3, 3)  # rows v, w1, w2
    gamma = christoffel_solve(spec, y[0:3])
    # [a, k] = -Gamma^k_ij v^i W_a^j: the acceleration and the two frame derivatives
    d = W @ -(v @ gamma).T
    return np.concatenate([v, d.ravel()])


def reference_rk4(spec, y, dt):
    """One RK4 step of ``reference_rhs`` from the (12,) array y."""
    k1 = reference_rhs(spec, y)
    k2 = reference_rhs(spec, y + 0.5 * dt * k1)
    k3 = reference_rhs(spec, y + 0.5 * dt * k2)
    k4 = reference_rhs(spec, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_riccati(ts, Js, u0):
    """The RK4 steps of u' = -u u - J on the entries (u11, u12, u22) over the
    sample times ``ts``, one function call a step, with J's entries ``Js``
    interpolated to the stage times by ``_stage_J``: (us, blowup_time,
    bracket), us the (k, 3) entries up to the last step below BLOWUP_NORM,
    and the first step that blows up bisected as ``integrate_riccati``
    does, (None, None) if none does."""

    def slope(a, b, c, J):
        return -(a * a + b * b) - J[0], -(a * b + b * c) - J[1], -(b * b + c * c) - J[2]

    def step(u, h, J0, Jmid, J1):
        a, b, c = u
        h2 = 0.5 * h
        k1 = slope(a, b, c, J0)
        k2 = slope(a + h2 * k1[0], b + h2 * k1[1], c + h2 * k1[2], Jmid)
        k3 = slope(a + h2 * k2[0], b + h2 * k2[1], c + h2 * k2[2], Jmid)
        k4 = slope(a + h * k3[0], b + h * k3[1], c + h * k3[2], J1)
        w = h / 6.0
        return tuple(x + w * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i, x in enumerate(u))

    def blows_up(u):
        a, b, c = u
        return not math.sqrt(a * a + 2.0 * b * b + c * c) <= BLOWUP_NORM

    us = [tuple(map(float, u0))]
    if blows_up(us[0]):
        return np.array(us), 0.0, (0.0, 0.0)
    for b in _blocks(len(ts) - 1):
        times = ts[b.start : b.stop + 1]
        for t, t_next, stage in zip(times[:-1].tolist(), times[1:].tolist(), _stage_J(ts, Js, times).tolist()):
            u = step(us[-1], t_next - t, *stage)
            if not blows_up(u):
                us.append(u)
                continue
            lo, hi, u_lo = t, t_next, us[-1]
            while hi - lo > 1e-3:
                mid = 0.5 * (lo + hi)
                u = step(u_lo, mid - lo, *_stage_J(ts, Js, np.array([lo, mid]))[0].tolist())
                if blows_up(u):
                    hi = mid
                else:
                    lo, u_lo = mid, u
            return np.array(us), 0.5 * (lo + hi), (lo, hi)
    return np.array(us), None, None


def _inner(a, g, b):
    """g(a, b) at every sample: a, b (n, 3), g (n, 3, 3)."""
    return np.einsum("...i,...ij,...j->...", a, g, b)


def path_metric_values(path):
    """g at every sample of a ``GeodesicPath``, (n, 3, 3), from batched
    order-0 metric jets, one block of SAMPLE_BLOCK samples at a time."""
    blocks = _blocks(len(path.xs))
    return np.concatenate([metric_jets(path.spec, path.xs[b], order=0).g for b in blocks])


def speed_drift(path):
    """max |g(v, v) - 1| over the path's samples."""
    g = path_metric_values(path)
    return float(np.max(np.abs(_inner(path.vs, g, path.vs) - 1.0)))


def frame_drift(path):
    """The largest deviation of (v, w1, w2) from a g-orthonormal frame over
    the path's samples (g(v, v) aside: ``speed_drift``)."""
    g = path_metric_values(path)
    v, w1, w2 = path.vs, path.w1s, path.w2s
    dev = [
        _inner(w1, g, w1) - 1.0,
        _inner(w2, g, w2) - 1.0,
        _inner(w1, g, w2),
        _inner(v, g, w1),
        _inner(v, g, w2),
    ]
    return float(np.max(np.abs(dev)))


def plane_entries(g, M, w1, w2):
    """(m11, m12, m22): the symmetrized matrix of the operator M on span(w1, w2);
    M of shape (..., 3, 3) and w1, w2 of shape (..., 3) give entries of shape
    (...).  A batch of metrics g (n, 3, 3) takes w1, w2 of shape (n, m, 3)."""
    gw1, gw2 = w1 @ g, w2 @ g
    Mw1 = np.einsum("...li,...i->...l", M, w1)
    Mw2 = np.einsum("...li,...i->...l", M, w2)
    return _dot(gw1, Mw1), 0.5 * (_dot(gw1, Mw2) + _dot(gw2, Mw1)), _dot(gw2, Mw2)


class JacobiFrame(NamedTuple):
    """Fields are floats and (3,) vectors for one direction, arrays with a
    leading direction axis for a batch."""

    X: np.ndarray
    v: np.ndarray  # unit
    w1: np.ndarray
    w2: np.ndarray
    A: float
    B: float
    t: float  # ric(X, X)
    isotropic: bool


class DerivedJacobi(NamedTuple):
    A1: float
    B1: float
    trace: float  # tr J'(X) = (nabla_X ric)(X,X)


def jacobi_frame(pack: CurvaturePack, X) -> JacobiFrame:
    """Eigenbasis of the trace-free Jacobi operator at X, with B = 0 and A >= 0,
    for one direction, an (m, 3) batch, or (n, m, 3) at a pack of n points.

    Where the operator is isotropic (|(A, B)| below 1e-10 times the size of
    J) the frame keeps the complement basis, A = 0 and ``isotropic`` is set;
    for a batch that flag is an ``IsotropyMask``.  A zero direction raises
    ValueError.
    """
    X, one = _directions(X)
    nX = np.sqrt(np.einsum("...i,...i->...", X @ pack.g, X))
    if (nX == 0.0).any():
        raise ValueError("zero direction")
    v = X / nX[..., None]
    w1, w2 = orthonormal_perp(pack.g, v, pack.frame)
    m11, m12, m22 = plane_entries(pack.g, jacobi_op(pack, X), w1, w2)
    t = (_products(X, 2) @ _matrix(pack.ric, 2, 0))[..., 0]
    A = 0.5 * (m11 - m22)
    h = np.hypot(A, m12)
    scale = np.maximum(np.maximum(1.0, np.abs(t)), np.abs(m11) + np.abs(m22))
    iso = h < 1e-10 * scale
    theta = 0.5 * np.arctan2(m12, A)
    c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    keep = iso[..., None]
    w1, w2 = np.where(keep, w1, c * w1 + s * w2), np.where(keep, w2, -s * w1 + c * w2)
    frame = JacobiFrame(X, v, w1, w2, np.where(iso, 0.0, h), np.zeros_like(h), t, iso.view(IsotropyMask))
    return _first(frame) if one else frame


def derived_jacobi_direct(pack: CurvaturePack, X, frame: JacobiFrame) -> DerivedJacobi:
    """J'(X) = (nabla_X R)(., X) X projected to the frame plane, for one
    direction or a batch (as for ``jacobi_frame``) with the frame of the same
    shape."""
    X, one = _directions(X)
    # nablaR[m, i, j, k, l] as the (mjk, li) matrix: one product sums over m, j, k
    nablaR = np.moveaxis(pack.nablaR, -4, -1)
    Jp = (_products(X, 3) @ _matrix(nablaR, 3, 2)).reshape(X.shape + (3,))
    w1, w2 = np.reshape(frame.w1, X.shape), np.reshape(frame.w2, X.shape)
    m11, m12, m22 = plane_entries(pack.g, Jp, w1, w2)
    dj = DerivedJacobi(A1=0.5 * (m11 - m22), B1=m12, trace=m11 + m22)
    return _first(dj) if one else dj


def _match_sign(vec, reference):
    return vec if float(vec @ reference) >= 0.0 else -vec


def eigenvector_gradient_fd(spec, p, j, step=1e-4):
    """grad[i, k] = (nabla_i e_j)^k for the Ricci eigenvector e_j (columns of
    ``ricci_rank(...).eigenframe``) at p, by central differences of e_j over
    one-point packs at p +- step e_i, each signed to match e_j at p."""
    p = np.asarray(p, dtype=float)
    pack = pack_at(spec, tuple(p))
    e = ricci_rank(pack).eigenframe[:, j]

    def e_at(q):
        return _match_sign(ricci_rank(pack_at(spec, tuple(q))).eigenframe[:, j], e)

    de = np.array([(e_at(p + step * d) - e_at(p - step * d)) / (2.0 * step) for d in np.eye(3)])
    return de + np.einsum("kim,m->ik", pack.gamma, e)


def derived_jacobi_crosscheck(spec, p, v, step=1e-4, eigengap_tol=1e-6):
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


class ProbeCandidate(NamedTuple):
    a: float
    b: float
    jet1_residual: float
    jet2_residual: float
    trace0_residual: float
    trace_defect: float
    blown_up: bool
    blowup_time: float | None


class ProbeReport(NamedTuple):
    candidates: list
    best: ProbeCandidate
    min_combined: float  # min over candidates of max(jet residuals, trace defect)
    first_jet_inconsistency: bool
    ric_vv: float


def constrained_probe(
    spec: MetricSpec,
    p,
    v,
    T: float = 1.0,
    grid_radius: float | None = None,
    grid_n: int = 21,
    dt: float = 1e-2,
) -> ProbeReport:
    """Scan trace-free initial values u0 = [[a,b],[b,-a]] on a grid, given in
    the trace-free Jacobi eigenframe at p (``jacobi_frame``) and integrated
    from the same operator in the path's parallel frame.

    For each candidate the report carries the two jet-condition residuals at
    t = 0 (the linear conditions 4(aA+bB) = D1 and 4(aA1+bB1) = D2), the
    zeroth trace condition |2(a^2+b^2) + ric(v,v)|, the max trace defect of
    the integrated trajectory, and the blow-up time if any.  The best
    candidate minimizes (max jet residual, trace defect, trace0, |u0|).

    ``first_jet_inconsistency`` is set when the jet system is degenerate (all
    coefficients ~ 0) so its minimal-norm solution is u0 = 0, yet
    ric(v,v) != 0 makes the trace condition unsatisfiable at that candidate.
    """
    p = np.asarray(p, dtype=float)
    pack = pack_at(spec, p)
    v = np.asarray(v, dtype=float)
    v = v / pack.norm(v)
    fr = jacobi_frame(pack, v)
    dj = derived_jacobi_direct(pack, v, fr)
    ov = obstruction_values(pack, v)
    A, B, A1, B1, ric_vv = fr.A, fr.B, dj.A1, dj.B1, fr.t
    D1, D2 = ov.D1, ov.D2

    if grid_radius is None:
        grid_radius = 2.0 * math.sqrt(max(0.0, -ric_vv) / 2.0)
        if grid_radius == 0.0 and ric_vv > 1e-12:
            grid_radius = 1.0

    path = integrate_geodesic(spec, p, v, T, dt)
    Js = jacobi_along(path)
    # u0 is scored in the Jacobi eigenframe and integrated in the path's parallel
    # frame: C[i, j] = g(path w_i(0), eigenframe w_j) carries it over
    C = np.stack([path.w1s[0], path.w2s[0]]) @ pack.g @ np.stack([fr.w1, fr.w2]).T

    if grid_n < 1 or grid_radius == 0.0:
        grid = [0.0]
    else:
        grid = np.linspace(-grid_radius, grid_radius, grid_n)
    candidates = []
    for a in grid:
        for b in grid:
            u0 = C @ np.array([[a, b], [b, -a]]) @ C.T
            res = integrate_riccati(path, Js, (u0[0, 0], u0[0, 1], u0[1, 1]))
            candidates.append(
                ProbeCandidate(
                    a=float(a),
                    b=float(b),
                    jet1_residual=abs(4.0 * (a * A + b * B) - D1),
                    jet2_residual=abs(4.0 * (a * A1 + b * B1) - D2),
                    trace0_residual=abs(2.0 * (a * a + b * b) + ric_vv),
                    trace_defect=res.trace_defect_max,
                    blown_up=res.blown_up,
                    blowup_time=res.blowup_time,
                )
            )

    def key(c):
        return (
            max(c.jet1_residual, c.jet2_residual),
            c.trace_defect,
            c.trace0_residual,
            math.hypot(c.a, c.b),
        )

    best = min(candidates, key=key)
    min_combined = min(max(c.jet1_residual, c.jet2_residual, c.trace_defect) for c in candidates)
    degenerate = (
        math.hypot(A, B) < 1e-9 and math.hypot(A1, B1) < 1e-9 and abs(D1) < 1e-9 and abs(D2) < 1e-9
    )
    inconsistent = degenerate and abs(ric_vv) > 1e-9
    return ProbeReport(
        candidates=candidates,
        best=best,
        min_combined=min_combined,
        first_jet_inconsistency=inconsistent,
        ric_vv=ric_vv,
    )


def frame_from_text(text: str) -> FrameData:
    """The FrameData of ``frame_to_text``'s format."""
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


def column_pmul(a, b):
    """The product of two polynomials in frame_algebra's column form (tuples
    of ascending coefficients, each a float or an (n,) column): coefficient
    k sums a[j] b[k - j] left to right in j from +0.0, so a batch column is
    bitwise the product at one frame."""
    out = []
    for k in range(len(a) + len(b) - 1):
        acc = 0.0
        for j in range(max(0, k + 1 - len(b)), min(k + 1, len(a))):
            acc = acc + a[j] * b[k - j]
        out.append(acc)
    return tuple(out)


def column_padd(a, b):
    """The sum of two polynomials in column form, the shorter one's missing
    coefficients taken from the longer as they are."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b)) + tuple(a[len(b) :])


def reference_bundle(fd: FrameData, case: str) -> PolyBundle:
    """The bundle of ``special_direction_polys`` with a, d1 and a1 expanded
    by hand for each case, and c one of the connection-coefficient
    polynomials p12, p13 and p23 of cases a1, a2 and a3.  On a frame labelled
    consistent, case a1's d1 is the closed form s a with
    s = 4 lambda2 / (lambda2 - lambda3) G112, and case a3's t^3 coefficient
    of d1 is 2 lambda2 lambda3 / (lambda2 - lambda3) G112, the values the
    five linear relations give L_{e2} lambda2 and the raw expansion."""
    l2, l3 = fd.lambda2, fd.lambda3
    lam = {1: 0.0, 2: l2, 3: l3}
    G, L = fd.G, fd.L
    l2l3 = l2 - l3
    G123 = G(1, 2, 3)
    p12 = (l3 * G(2, 1, 3), l2l3 * G(2, 2, 3) + l3 * G(1, 1, 3), l2l3 * G123)
    p13 = (l2 * G(3, 1, 2), (l3 - l2) * G(3, 3, 2) + l2 * G(1, 1, 2), l2l3 * G123)
    p23 = (-l2 * G(3, 2, 1), l3 * G(3, 3, 1) - l2 * G(2, 2, 1), l3 * G(2, 3, 1))
    c = (p12, p13, p23)[CASES.index(case)]
    i, j, w = {"a1": (1, 2, 3), "a2": (1, 3, 2), "a3": (2, 3, 1)}[case]

    if case == "a1":
        a = (l3 / 2.0, 0.0, (l3 - l2) / 2.0)
        L12, L13, L22, L23 = L(1, 2), L(1, 3), L(2, 2), L(2, 3)
        G221, G112 = G(2, 2, 1), G(1, 1, 2)
        if fd.mode == "consistent":
            s = (4.0 * l2 / (l2 - l3)) * G112
            d1 = (s * a[0], 0.0, s * a[2])
        else:
            d1 = (L22, 2.0 * l2 * G221 + L12, -2.0 * l2 * G112)
        a1 = (
            0.5 * L23,
            0.5 * L13 + l2 * G221,
            0.5 * (L23 - L22) - l2 * G112,
            0.5 * (L13 - L12),
        )
    elif case == "a2":
        a = (l2 / 2.0, 0.0, (l2 - l3) / 2.0)
        L12, L13, L32, L33 = L(1, 2), L(1, 3), L(3, 2), L(3, 3)
        G331, G113 = G(3, 3, 1), G(1, 1, 3)
        d1 = (L33, L13 + 2.0 * l3 * G331, -2.0 * l3 * G113)
        a1 = (
            0.5 * L32,
            0.5 * L12 + l3 * G331,
            0.5 * (L32 - L33) - l3 * G113,
            0.5 * (L12 - L13),
        )
    else:
        a = (-l2 / 2.0, 0.0, -l3 / 2.0)
        if fd.mode == "consistent":
            t3 = 2.0 * l2 * l3 / (l2 - l3) * G(1, 1, 2)
        else:
            t3 = L(2, 2)
        L22, L23, L32, L33 = L(2, 2), L(2, 3), L(3, 2), L(3, 3)
        G332, G223 = G(3, 3, 2), G(2, 2, 3)
        d1 = (L33, L23 - 2.0 * (l2 - l3) * G332, L32 - 2.0 * (l3 - l2) * G223, t3)
        a1 = (
            -0.5 * L32,
            -0.5 * L22 - (l2 - l3) * G332,
            -0.5 * L33 - (l3 - l2) * G223,
            -0.5 * L23,
        )

    s1 = (G(j, w, i), G(i, w, i) - G(j, w, j), -G(i, w, j))
    s2 = (G(j, j, w), G(i, j, w) + G(j, i, w), G(i, i, w))
    r = lam[i] - lam[j]
    a0, a2 = 2.0 * a[0], 2.0 * a[2]
    b1 = (
        a0 * s1[0],
        a0 * s1[1] + s2[0] * r,
        (a0 * s1[2] + a2 * s1[0]) + s2[1] * r,
        a2 * s1[1] + s2[2] * r,
        a2 * s1[2],
    )
    return PolyBundle(case, a, c, d1, a1, b1)


def constraint_instance(fd: FrameData, case: str, d2_coeffs=None, rng=None):
    """Couple frame data to the polynomial classifiers: a raw instance dict.

    d2 is free second-order data (random if not given); the instance
    generically violates the constraint, which is informative on its own.
    """
    bundle = special_direction_polys(fd, case)
    if d2_coeffs is None:
        rng = rng or np.random.default_rng(0)
        d2_coeffs = rng.uniform(-1.0, 1.0, size=4 if case != "a3" else 5)
    d2_coeffs = tuple(np.asarray(d2_coeffs, dtype=float))
    P = column_padd(column_pmul(bundle.a, d2_coeffs), tuple(-x for x in column_pmul(bundle.a1, bundle.d1)))
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


# --- the polynomial classifiers in plain arithmetic -----------------------
# One Fraction (or float) operation per term, with no integer form and no
# helper shared with riccati3.polyclass: the decision trees as they ran on
# Fraction coefficients before the classifiers moved to integer numerators.


def reference_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def reference_padd(a, b):
    n = max(len(a), len(b))
    return reference_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def reference_psub(a, b):
    return reference_padd(a, tuple(-x for x in b))


def reference_pscale(a, s):
    return reference_trim([x * s for x in a])


def reference_pmul(a, b):
    """The plain convolution."""
    a, b = reference_trim(a), reference_trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return reference_trim(out)


def reference_pdivmod(num, den):
    """Plain long division."""
    num, den = list(reference_trim(num)), reference_trim(den)
    q = [0] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(x != 0 for x in num):
        k = len(num) - len(den)
        coef = num[-1] / den[-1]
        q[k] = coef
        for i, d in enumerate(den):
            num[k + i] -= coef * d
        num.pop()
        while num and num[-1] == 0:
            num.pop()
    return reference_trim(q), reference_trim(num)


_REF_T2P1 = (1, 0, 1)


def _ref_pmax(a):
    return max((abs(float(x)) for x in a), default=0.0)


def _ref_is_zero(a, tol):
    return not any(a) if tol == 0 else _ref_pmax(a) <= tol


def _ref_rel_tol(tol, a):
    return max(tol, tol * _ref_pmax(a)) if tol else 0


def _ref_degree(c):
    return len(reference_trim(c)) - 1


def reference_sides(inst):
    """The expanded sides P^2 + (t^2+1) (d1 c)^2 and (t^2+1) (a c)^2 w of the
    constraint in the instance's own coefficients, w = Lambda in regime a12
    and -8 (lambda3 t^2 + lambda2) in a3."""
    if inst.regime == "a12":
        w = (inst.Lambda,)
    else:
        w = reference_pscale((inst.lambda3, 0, inst.lambda2), -8)
    d1c, ac = reference_pmul(inst.d1, inst.c), reference_pmul(inst.a, inst.c)
    lhs = reference_padd(reference_pmul(inst.P, inst.P), reference_pmul(_REF_T2P1, reference_pmul(d1c, d1c)))
    rhs = reference_pmul(reference_pmul(_REF_T2P1, reference_pmul(ac, ac)), w)
    return lhs, rhs


def reference_residual(inst):
    """max |lhs - rhs| of the constraint, by the reference expansion."""
    lhs, rhs = reference_sides(inst)
    return _ref_pmax(reference_psub(lhs, rhs))


def _ref_verdicts(inst):
    lhs, rhs = reference_sides(inst)
    oracle = _ref_pmax(reference_psub(lhs, rhs))
    scale = max(_ref_pmax(lhs), _ref_pmax(rhs), 1.0)

    def infeasible(cert):
        return BranchVerdict("Infeasible", (), {}, oracle, cert)

    def sound(branch, signs, witness):
        assert oracle <= 1e-9 * scale, (branch, oracle)
        return BranchVerdict(branch, signs, witness, oracle)

    return infeasible, sound


def _ref_divide(num, den, tol):
    q, r = reference_pdivmod(num, den)
    return q if _ref_is_zero(r, _ref_rel_tol(tol, num)) else None


def _ref_classify_a12(inst):
    tol = inst.tol()
    infeasible, sound = _ref_verdicts(inst)
    if _ref_is_zero(inst.c, tol):
        if _ref_is_zero(inst.P, tol):
            return sound("CZero", (), {})
        return infeasible("c = 0 forces P = 0, but P is nonzero")
    q = _ref_divide(inst.P, inst.c, tol)
    if q is None:
        return infeasible("c does not divide P")
    v = _ref_divide(q, _REF_T2P1, tol)
    if v is None:
        return infeasible("(t^2+1) does not divide P / c")
    W = reference_psub(reference_pscale(reference_pmul(inst.a, inst.a), inst.Lambda), reference_pmul(inst.d1, inst.d1))
    wtol = tol * max(1.0, _ref_pmax(W) / max(_ref_pmax(inst.a) ** 2, 1e-300)) if not inst.exact else 0
    m = math.sqrt(float(inst.Lambda))
    n = max(len(inst.a), len(inst.d1), 3)
    fa = [float(x) for x in inst.a] + [0.0] * (n - len(inst.a))
    fd = [float(x) for x in inst.d1] + [0.0] * (n - len(inst.d1))
    if _ref_is_zero(W, max(tol, wtol)):
        if not _ref_is_zero(v, tol):
            return infeasible("Lambda a^2 = d1^2 but P/c has a (t^2+1) cofactor")
        k = max(len(inst.a), len(inst.d1))
        s = min((1, -1), key=lambda s: sum(abs(fd[i] - s * m * fa[i]) for i in range(k)))
        return sound("DEqualsSqrtLambdaA", (s,), {"v": ()})
    Q = _ref_divide(W, _REF_T2P1, tol)
    if Q is None:
        return infeasible("(t^2+1) does not divide Lambda a^2 - d1^2")
    if not _ref_is_zero(reference_psub(Q, reference_pmul(v, v)), _ref_rel_tol(tol, Q)):
        cert = "constraint violated: (Lambda a^2 - d1^2)/(t^2+1) != v^2"
        Qt = reference_trim(Q)
        if Qt and Qt[-1] < 0:
            cert += " (sign clash: cofactor has negative leading coefficient, x1 x2 < 0)"
        return infeasible(cert)
    dv = _ref_degree(v)
    if dv == 0:
        s = min((1, -1), key=lambda s: abs(m * fa[1] + s * fd[1]) + abs(m * fa[2] + s * fd[2]))
        return sound("CaseIII", (s,), {"v": v, "x2": m * fa[0] + s * fd[0]})
    if dv == 1:
        def resid(s):
            f = [m * fa[k] + s * fd[k] for k in range(3)]
            return abs(f[1]) + abs(f[2] - f[0])

        return sound("CaseIV", (min((1, -1), key=resid),), {"v": v})
    return infeasible(f"unexpected cofactor degree {dv}")


def _ref_classify_a3(inst):
    l2, l3 = inst.lambda2, inst.lambda3
    tol = inst.tol()
    infeasible, sound = _ref_verdicts(inst)
    canon = reference_pscale((l2, 0, l3), Fraction(-1, 2) if inst.exact else -0.5)
    s_scale = reference_trim(inst.a)[-1] / canon[2]
    if s_scale <= 0 or not _ref_is_zero(reference_psub(inst.a, reference_pscale(canon, s_scale)), tol):
        return infeasible("a is not a positive multiple of -(lambda3 t^2 + lambda2)/2")
    c_n = reference_pscale(inst.c, 1 / s_scale)
    d1_n = reference_pscale(inst.d1, 1 / s_scale)
    P_n = reference_pscale(inst.P, 1 / (s_scale * s_scale))
    if _ref_is_zero(c_n, tol):
        if _ref_is_zero(P_n, tol):
            return sound("CZero", (), {})
        return infeasible("c = 0 forces P = 0, but P is nonzero")
    q1 = _ref_divide(P_n, c_n, tol)
    if q1 is None:
        return infeasible("c does not divide P")
    q = _ref_divide(q1, _REF_T2P1, tol)
    if q is None:
        return infeasible("(t^2+1) does not divide P / c")
    if _ref_degree(q) > 2:
        return infeasible("cofactor q has degree > 2")
    base = (l2, 0, l3)
    rhs = reference_pmul(reference_pmul(base, base), reference_pscale((l3, 0, l2), -2))
    target = reference_psub(rhs, reference_pmul(_REF_T2P1, reference_pmul(q, q)))
    qt = list(reference_trim(q)) + [0] * (3 - len(reference_trim(q)))
    if not _ref_is_zero(reference_psub(reference_pmul(d1_n, d1_n), target), _ref_rel_tol(tol, target)):
        cert = "constraint violated: d1^2 != -2(l3 t^2+l2)^2(l2 t^2+l3) - (t^2+1) q^2"
        lead_sq = qt[2] * qt[2] + 2 * l2 * l3 * l3
        if qt[1] == 0 and _ref_is_zero((lead_sq,), max(tol, tol * _ref_pmax((qt[2],)) ** 2)):
            cert += (
                "; q matches a deg q+- = 0 shape, which would force (r-1)(r^2+4) = 0"
                " with r = lambda3/lambda2: root-free on (0, 1)"
            )
        return infeasible(cert)
    t_base = reference_pmul((0, 1), base)
    d1_sq, q_sq = reference_pmul(d1_n, d1_n), reference_pmul(q, q)
    d1_shape = reference_psub(d1_sq, reference_pscale(reference_pmul(t_base, t_base), 2 * (l3 - l2)))
    q_shape = reference_psub(q_sq, reference_pscale(reference_pmul(base, base), -2 * l3))
    if not _ref_is_zero(d1_shape, _ref_rel_tol(tol, d1_sq)) or not _ref_is_zero(q_shape, _ref_rel_tol(tol, q_sq)):
        return infeasible("solution does not match the rigid branch shapes")
    d1t = list(reference_trim(d1_n)) + [0] * (4 - len(reference_trim(d1_n)))
    signs = (-1 if d1t[3] > 0 else 1, -1 if qt[2] > 0 else 1)
    return sound("A3BranchII", signs, {"q": q, "scale": s_scale})


def _ref_reverse(c, deg):
    c = list(c) + [0] * (deg + 1 - len(c))
    return reference_trim(c[::-1])


def reference_classify(inst):
    """(verdict, tilded) of ``polyclass.classify`` by the reference trees: an
    a3 instance with lambda2 > lambda3 is reversed (t -> 1/t) first."""
    if inst.regime == "a12":
        return _ref_classify_a12(inst), False
    if inst.lambda2 < inst.lambda3:
        return _ref_classify_a3(inst), False
    swapped = ConstraintInstance(
        "a3", _ref_reverse(inst.a, 2), _ref_reverse(inst.c, 2), _ref_reverse(inst.d1, 3),
        _ref_reverse(inst.P, 6), lambda2=inst.lambda3, lambda3=inst.lambda2,
    )
    return _ref_classify_a3(swapped), True


def eval_scalar(e, p, params=None, lib=math):
    """Plain scalar tree evaluation; ``lib`` may be mpmath for high precision.

    Deliberately not on the ``Tape``: with finite differences, an oracle
    independent of the jet evaluator.
    """
    params = params or {}

    def rec(node):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return p[node.index]
        if isinstance(node, Param):
            return params[node.name]
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, BinOp):
            a, b = rec(node.left), rec(node.right)
            return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node.op]
        if isinstance(node, Power):
            return rec(node.base) ** node.exponent
        if isinstance(node, Call):
            return getattr(lib, node.func)(rec(node.arg))
        raise TypeError(f"not an Expr: {node!r}")

    return rec(e)


def mul_tables():
    """The Leibniz terms (out, a, b) of ``exprjet._MUL_TABLES`` by a loop over
    the pairs (gamma, alpha) of multi-indices with beta = gamma - alpha >= 0,
    sliced to the N(k) leading outputs for each order k."""
    out_idx, a_idx, b_idx = [], [], []
    for gi, gamma in enumerate(MULTI_INDICES):
        for ai, alpha in enumerate(MULTI_INDICES):
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            if min(beta) < 0:
                continue
            out_idx.append(gi)
            a_idx.append(ai)
            b_idx.append(INDEX_OF[beta])
    out_idx, a_idx, b_idx = np.array(out_idx), np.array(a_idx), np.array(b_idx)
    tables = []
    for n in N_BY_ORDER:
        m = int(np.searchsorted(out_idx, n))
        tables.append((out_idx[:m], a_idx[:m], b_idx[:m]))
    return tuple(tables)


def leibniz_contract(subscripts, a, b, order):
    """``exprjet.contract`` pair by pair: for each output multi-index gamma of
    degree <= order, the ``np.einsum`` contractions of a[alpha] with
    b[gamma - alpha] over every alpha <= gamma, added in graded-lex order
    of alpha.  Operands have shape (N,) + batch + their tensor axes."""
    ins, res = subscripts.split("->")
    sa, sb = ins.split(",")
    out = []
    for gamma in MULTI_INDICES[: N_BY_ORDER[order]]:
        total = 0.0
        for ai, alpha in enumerate(MULTI_INDICES):
            beta = tuple(g - x for g, x in zip(gamma, alpha))
            if min(beta) >= 0:
                total = total + np.einsum(f"...{sa},...{sb}->...{res}", a[ai], b[INDEX_OF[beta]])
        out.append(total)
    return np.array(out)


class DegenerateSystem(ValueError):
    """The 2x2 reconstruction system for u is singular at this (point, X)."""


class UCandidate(NamedTuple):
    a: float
    b: float
    d: float
    consistency: float


def reconstruct_u(pack: CurvaturePack, X, rel_tol: float = 1e-10) -> UCandidate:
    """Solve the linear jet system for the trace-free candidate u at (point, X).

    4 d a = B D2 - B1 D1 and 4 d b = -A D2 + A1 D1 with d = A1 B - A B1.
    The consistency value |2(a^2+b^2) + ric(X,X)| vanishes exactly when the
    candidate also satisfies tr(u^2) = -tr(J).
    """
    fr = jacobi_frame(pack, X)
    dj = derived_jacobi_direct(pack, X, fr)
    ov = obstruction_values(pack, X)
    A, B, A1, B1 = fr.A, fr.B, dj.A1, dj.B1
    d = A1 * B - A * B1
    norm_prod = math.hypot(A, B) * math.hypot(A1, B1)
    if abs(d) <= rel_tol * norm_prod or norm_prod == 0.0:
        raise DegenerateSystem(f"jet system singular: |d|={abs(d):.3e} vs scale {norm_prod:.3e}")
    a = (B * ov.D2 - B1 * ov.D1) / (4.0 * d)
    b = (-A * ov.D2 + A1 * ov.D1) / (4.0 * d)
    consistency = abs(2.0 * (a * a + b * b) + fr.t)
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

    def kn(x, y):  # x[j, k] y[l, i] at R[i, j, k, l]; swapaxes(0, 1) gives x[i, k] y[l, j]
        return np.einsum("jk,li->ijkl", x, y)

    R = kn(g, Ric) - kn(ric, g).swapaxes(0, 1) + kn(ric, g) - kn(g, Ric).swapaxes(0, 1)
    R = R - 0.5 * scal * (kn(g, g) - kn(g, g).swapaxes(0, 1))
    return CurvaturePack(
        point=(0.0, 0.0, 0.0),
        g=g,
        ginv=g.copy(),
        gamma=np.zeros((3, 3, 3)),
        R=R,
        nablaR=np.zeros((3, 3, 3, 3, 3)),
        ric=ric,
        scal=scal,
        dscal=np.zeros(3),
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
