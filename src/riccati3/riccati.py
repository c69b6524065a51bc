"""Geodesics with parallel frames and the matrix Riccati equation along them.

The geodesic and parallel-transport system is integrated with the classical
fourth-order one-step scheme on the combined state (x, x', w1, w2); the
Riccati equation u' + u^2 + J(t) = 0 is integrated on the 2x2 symmetric
matrix u expressed in the parallel frame, with J(t) sampled along the path
and interpolated to stage times by 4-point Lagrange interpolation (also
fourth order, so the scheme keeps its order).
Each symmetric 2x2 matrix of the Riccati side, J(t), u0 and u(t), is carried
as its entries (x11, x12, x22): ``jacobi_along`` gives J as (n, 3) rows,
``integrate_riccati`` takes u0 as three numbers and returns u as (k, 3)
rows, with the sample times and trace defects as (k,) arrays.  J comes
from g and the Schouten tensor rho, never from R (``jacobi_along``).  The
values of J at the stage times of the path's steps are interpolated in one
vectorized evaluation (``_stage_J``) per block of SAMPLE_BLOCK steps, as the
stepping reaches the block, and handed to the stepping as Python floats; the
blow-up bisection interpolates its off-grid steps with the same function.
A Riccati step works on the three entries as floats, with u u written out on
them: a 2x2 step has too little arithmetic to pay numpy's cost per call.
The geodesic step runs the same way on the 12 floats of the state
(x, v, w1, w2).  Each of its four stages makes one metric call,
``gamma_at``: one replay of the metric's compiled tape at order 1 on floats
(``Tape.first_order``), with the leading-minor check and the adjugate
inverse.  The stage contracts the lowered Christoffel symbols with v first,
as the matrix of q -> Gamma_l(v, q), applies it to v, w1 and w2, and raises
each of the three vectors once with g^-1; the full Gamma is never built.
The states of a path go into one preallocated (steps + 1, 12) array, one
row a step.

No projection onto trace-free matrices is performed during integration: the
trace-free constraint is a hypothesis about the metric, and the measured
trace defect is part of the scientific output.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .curvature import curvature_r_only, orthonormal_perp
from .metrics import MetricSpec, gamma_at, metric_jets

BLOWUP_NORM = 1e8
# most integration steps one path may take: bounds the time grid and the states
# before anything is allocated
MAX_STEPS = 10**6
# path samples per batched metric evaluation: one call covers many samples,
# while the jets of a block stay around a megabyte
SAMPLE_BLOCK = 256


class DirectionError(ValueError):
    """A geodesic's initial direction with no positive length in the metric."""


def _blocks(n):
    return [slice(s, s + SAMPLE_BLOCK) for s in range(0, n, SAMPLE_BLOCK)]


class GeodesicPath(NamedTuple):
    spec: MetricSpec
    ts: np.ndarray  # (n,)
    xs: np.ndarray  # (n,3) positions
    vs: np.ndarray  # (n,3) velocities
    w1s: np.ndarray  # (n,3) parallel frame
    w2s: np.ndarray


class RiccatiResult(NamedTuple):
    """The trajectory up to the last sample before any blow-up: k samples."""

    ts: np.ndarray  # (k,) sample times
    u: np.ndarray  # (k, 3) entries (u11, u12, u22)
    trace_defect: np.ndarray  # (k,) |u11 + u22|
    trace_defect_max: float
    blown_up: bool
    blowup_time: float | None
    blowup_bracket: tuple | None


def _slopes(spec, y):
    """The slopes (v, -Gamma(v, v), -Gamma(v, w1), -Gamma(v, w2)) of the state
    y = (x, v, w1, w2), 12 floats, as a list of 12 floats.

    Gamma_l(v, q) = ((D_v g) q + (D_q g) v)_l / 2 - (d_l g)(v, q) / 2 is linear in q:
    its matrix is (M + S) / 2, with M = D_v g = sum_m v^m d_m g and S the
    antisymmetric matrix S_lj = (d_j g v)_l - (d_l g v)_j.  Each of the three
    lowered vectors is raised once with ``gamma_at``'s g^-1.
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


def _rk4(spec, y, dt):
    """One RK4 step of length dt of the geodesic and transport system from the
    state y (12 floats); the next state as a list of 12 floats."""
    h = 0.5 * dt
    k1 = _slopes(spec, y)
    k2 = _slopes(spec, [a + h * b for a, b in zip(y, k1)])
    k3 = _slopes(spec, [a + h * b for a, b in zip(y, k2)])
    k4 = _slopes(spec, [a + dt * b for a, b in zip(y, k3)])
    w = dt / 6.0
    return [a + w * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def _sample_times(T: float, dt: float) -> np.ndarray:
    """0, dt, 2 dt, ..., T: ceil(T/dt) steps, t_k = k dt, the last one shortened
    to end at T; ValueError beyond MAX_STEPS, before anything is allocated."""
    ratio = T / dt * (1.0 - 1e-12)
    if not ratio <= MAX_STEPS:  # also rejects an overflow to inf
        raise ValueError(f"T/dt = {T / dt:.3g} steps is more than MAX_STEPS = {MAX_STEPS}")
    n_steps = max(0, math.ceil(ratio))
    ts = np.arange(n_steps + 1) * dt
    if n_steps:
        ts[-1] = T
    return ts


def integrate_geodesic(spec: MetricSpec, p, v, T: float, dt: float) -> GeodesicPath:
    """Geodesic through (p, v) with a parallel orthonormal frame of v-perp.

    v is normalized to unit g-length at p.  Sample times are 0, dt, ..., T
    (last step shortened if T is not a multiple of dt); more than MAX_STEPS
    steps raise ValueError, a direction with no positive g-length raises
    DirectionError, and a start point or RK4 stage point where the metric is
    not positive definite raises MetricError naming it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ts = _sample_times(T, dt)
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    g = metric_jets(spec, p, order=0).g
    norm2 = float(v @ g @ v)
    if not norm2 > 0.0:
        raise DirectionError(f"direction {tuple(map(float, v))} has no positive length")
    v = v / math.sqrt(norm2)
    w1, w2 = orthonormal_perp(g, v, np.eye(3))
    ys = np.empty((len(ts), 12))
    ys[0] = y = np.concatenate([p, v, w1, w2]).tolist()
    last = len(ts) - 1
    for k in range(1, len(ts)):
        ys[k] = y = _rk4(spec, y, dt if k < last else float(T - ts[-2]))
    return GeodesicPath(
        spec=spec,
        ts=ts,
        xs=ys[:, 0:3],
        vs=ys[:, 3:6],
        w1s=ys[:, 6:9],
        w2s=ys[:, 9:12],
    )


def jacobi_along(path: GeodesicPath) -> np.ndarray:
    """J(t) in the parallel frame at each path sample, as the entries
    (J11, J12, J22) of the symmetric 2x2 matrix: (n, 3).

    Entry (a, b) is g(w_a, J(v) w_b) with J(v) = R(., v)v, the operator
    ``curvature.jacobi_op`` builds.  In dimension 3, R = rho (.) g, so with
    G = W g W^T and S = W rho W^T for the rows W = (v, w1, w2) it is
    G00 S_ab + S00 G_ab - G_a0 S_b0 - S_a0 G_b0, which holds in any frame,
    orthonormal or drifted.  g and rho of each block of SAMPLE_BLOCK samples
    come from one batched ``curvature_r_only`` call on the path's metric.
    """
    out = np.empty((len(path.ts), 3))
    for b in _blocks(len(path.ts)):
        W = np.stack([path.vs[b], path.w1s[b], path.w2s[b]], axis=1)
        # in C order, so the products sum in an order their shapes alone fix
        g, rho = (np.ascontiguousarray(x) for x in curvature_r_only(path.spec, path.xs[b]))
        G, S = W @ g @ W.swapaxes(1, 2), W @ rho @ W.swapaxes(1, 2)
        G0, S0 = G[:, :, :1], S[:, :, :1]  # the columns G_a0, S_a0
        E = G[:, :1, :1] * S + S[:, :1, :1] * G - G0 * S0.swapaxes(1, 2) - S0 * G0.swapaxes(1, 2)
        out[b] = E[:, (1, 1, 2), (1, 2, 2)]
    return out


def _stage_J(ts, Js, times):
    """J's entry rows at the stage times t, t + h/2, t + h of every step
    t -> t + h between consecutive ``times``: (steps, 3 stages, 3 entries).

    Each value is the 4-point Lagrange interpolation of the J samples on the
    window of (up to) four samples around the sample interval holding the
    stage time, clamped at the ends of the path.
    """
    t0 = times[:-1]
    h = times[1:] - t0
    t = np.stack([t0, t0 + 0.5 * h, t0 + h], axis=1)  # (steps, 3)
    n = len(ts)
    if n == 1:
        return np.broadcast_to(Js[0], t.shape + (3,))
    i = np.clip(np.searchsorted(ts, t) - 1, 0, n - 2)
    lo = np.maximum(0, np.minimum(i - 1, n - 4))
    idx = lo[..., None] + np.arange(min(4, n))  # (steps, 3, window)
    out = np.zeros(t.shape + (3,))
    for a in range(idx.shape[-1]):
        w = np.ones(t.shape)
        for b in range(idx.shape[-1]):
            if a != b:
                w *= (t - ts[idx[..., b]]) / (ts[idx[..., a]] - ts[idx[..., b]])
        out += w[..., None] * Js[idx[..., a]]
    return out


def _slope(a, b, c, J):
    """-u u - J on the entries (u11, u12, u22) of the symmetric u = [[a, b], [b, c]]
    and (J11, J12, J22) of the symmetric J."""
    return -(a * a + b * b) - J[0], -(a * b + b * c) - J[1], -(b * b + c * c) - J[2]


def _riccati_step(u, h, J0, Jmid, J1):
    """One RK4 step of length h of u' = -u u - J on the entries (u11, u12, u22),
    given those of J at the step's three stage times."""
    a, b, c = u
    h2 = 0.5 * h
    k1 = _slope(a, b, c, J0)
    k2 = _slope(a + h2 * k1[0], b + h2 * k1[1], c + h2 * k1[2], Jmid)
    k3 = _slope(a + h2 * k2[0], b + h2 * k2[1], c + h2 * k2[2], Jmid)
    k4 = _slope(a + h * k3[0], b + h * k3[1], c + h * k3[2], J1)
    w = h / 6.0
    return (
        a + w * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        b + w * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        c + w * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
    )


def _blows_up(u):
    """The Frobenius norm of u is above BLOWUP_NORM, or is inf or nan."""
    a, b, c = u
    return not math.sqrt(a * a + 2.0 * b * b + c * c) <= BLOWUP_NORM


def integrate_riccati(path: GeodesicPath, Js: np.ndarray, u0) -> RiccatiResult:
    """Integrate u' = -u^2 - J(t) over the path's sample times, from the entries
    (u11, u12, u22) of the symmetric initial value, with ``Js`` the (n, 3)
    entries of ``jacobi_along``.

    Blow-up (Frobenius norm above 1e8, or not finite) is a return value, not
    an error; the crossing time is refined by step bisection to about 1e-3.
    A u0 already blown up is reported at t = 0.
    """
    u = tuple(map(float, u0))
    if len(u) != 3:
        raise ValueError("u0 must be the three entries (u11, u12, u22)")
    ts = path.ts
    entries = [u]

    def result(blown_up, t_blow=None, bracket=None):
        us = np.array(entries)
        defect = np.abs(us[:, 0] + us[:, 2])
        return RiccatiResult(ts[: len(us)], us, defect, float(defect.max()), blown_up, t_blow, bracket)

    def steps():
        """(t, t_next, J at the stage times) for each step between the path's
        sample times; J one SAMPLE_BLOCK of steps at a time."""
        for s in range(0, len(ts) - 1, SAMPLE_BLOCK):
            block = ts[s : s + SAMPLE_BLOCK + 1]
            yield from zip(block[:-1].tolist(), block[1:].tolist(), _stage_J(ts, Js, block).tolist())

    if _blows_up(u):
        return result(True, 0.0, (0.0, 0.0))
    for t, t_next, stage_J in steps():
        u_next = _riccati_step(u, t_next - t, *stage_J)
        if _blows_up(u_next):
            lo, hi = t, t_next
            u_lo = u
            while hi - lo > 1e-3:
                mid = 0.5 * (lo + hi)
                (stage_mid,) = _stage_J(ts, Js, np.array([lo, mid])).tolist()
                u_mid = _riccati_step(u_lo, mid - lo, *stage_mid)
                if _blows_up(u_mid):
                    hi = mid
                else:
                    lo, u_lo = mid, u_mid
            return result(True, 0.5 * (lo + hi), (lo, hi))
        u = u_next
        entries.append(u)
    return result(False)
