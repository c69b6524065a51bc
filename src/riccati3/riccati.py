"""Geodesics with parallel frames and the matrix Riccati equation along them.

The geodesic and parallel-transport system is integrated with the classical
fourth-order one-step scheme on the combined state (x, x', w1, w2); the
Riccati equation u' + u^2 + J(t) = 0 is integrated on the 2x2 symmetric
matrix u expressed in the parallel frame, with J(t) sampled along the path
and interpolated to stage times by 4-point Lagrange interpolation (also
fourth order, so the scheme keeps its order).  The values of J at the
stage times of the path's steps are interpolated in one vectorized
evaluation (``_stage_J``) per block of SAMPLE_BLOCK steps, as the stepping
reaches the block; the blow-up bisection interpolates its off-grid steps
with the same function.
The geodesic right-hand side reads the Christoffel symbols from the
metric's compiled order-1 tape (``gamma_at``).

No projection onto trace-free matrices is performed during integration: the
trace-free constraint is a hypothesis about the metric, and the measured
trace defect is part of the scientific output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _blocks(n):
    return [slice(s, s + SAMPLE_BLOCK) for s in range(0, n, SAMPLE_BLOCK)]


def _inner(a, g, b):
    """g(a, b) at every sample: a, b (n, 3), g (n, 3, 3)."""
    return np.einsum("...i,...ij,...j->...", a, g, b)


@dataclass
class GeodesicPath:
    spec: MetricSpec
    dt: float
    ts: np.ndarray  # (n,)
    xs: np.ndarray  # (n,3) positions
    vs: np.ndarray  # (n,3) velocities
    w1s: np.ndarray  # (n,3) parallel frame
    w2s: np.ndarray

    def _metric_values(self) -> np.ndarray:
        """g at every sample, (n, 3, 3), from batched order-0 metric jets."""
        blocks = _blocks(len(self.xs))
        return np.concatenate([metric_jets(self.spec, self.xs[b], order=0).g for b in blocks])

    def speed_drift(self) -> float:
        g = self._metric_values()
        return float(np.max(np.abs(_inner(self.vs, g, self.vs) - 1.0)))

    def frame_drift(self) -> float:
        g = self._metric_values()
        v, w1, w2 = self.vs, self.w1s, self.w2s
        dev = [
            _inner(w1, g, w1) - 1.0,
            _inner(w2, g, w2) - 1.0,
            _inner(w1, g, w2),
            _inner(v, g, w1),
            _inner(v, g, w2),
        ]
        return float(np.max(np.abs(dev)))


@dataclass
class RiccatiState:
    t: float
    u: np.ndarray  # 2x2 symmetric
    trace_defect: float


@dataclass
class RiccatiResult:
    states: list
    trace_defect_max: float
    blown_up: bool
    blowup_time: float | None
    blowup_bracket: tuple | None

    @property
    def final(self) -> np.ndarray:
        return self.states[-1].u


def _rhs(spec, y):
    v = y[3:6]
    W = y[3:12].reshape(3, 3)  # rows v, w1, w2
    _, _, gamma = gamma_at(spec, y[0:3])
    # [a, k] = -Gamma^k_ij v^i W_a^j: the acceleration and the two frame derivatives
    d = W @ -(v @ gamma).T
    return np.concatenate([v, d.ravel()])


def _rk4(spec, y, dt):
    k1 = _rhs(spec, y)
    k2 = _rhs(spec, y + 0.5 * dt * k1)
    k3 = _rhs(spec, y + 0.5 * dt * k2)
    k4 = _rhs(spec, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def geodesic_step(spec: MetricSpec, p, v, dt: float):
    """Single fourth-order step of the geodesic equation; returns (x, v)."""
    y = np.concatenate([np.asarray(p, float), np.asarray(v, float), np.zeros(6)])
    y = _rk4(spec, y, dt)
    return y[0:3], y[3:6]


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
    steps raise ValueError.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ts = _sample_times(T, dt)
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    g, _, _ = gamma_at(spec, p)
    norm2 = float(v @ g @ v)
    if not norm2 > 0.0:
        raise ValueError(f"direction {tuple(map(float, v))} has no positive length")
    v = v / math.sqrt(norm2)
    w1, w2 = orthonormal_perp(g, v, np.eye(3))
    ys = [np.concatenate([p, v, w1, w2])]
    for k in range(1, len(ts)):
        ys.append(_rk4(spec, ys[-1], dt if k < len(ts) - 1 else T - ts[-2]))
    ys = np.array(ys)
    return GeodesicPath(
        spec=spec,
        dt=dt,
        ts=ts,
        xs=ys[:, 0:3],
        vs=ys[:, 3:6],
        w1s=ys[:, 6:9],
        w2s=ys[:, 9:12],
    )


def jacobi_along(spec: MetricSpec, path: GeodesicPath) -> np.ndarray:
    """J(t) in the parallel frame at each path sample: (n,2,2) symmetric.

    Entry (a, b) is the symmetrized g(w_a, J(v) w_b) with J(v) = R(., v)v;
    the curvature of each block of SAMPLE_BLOCK samples comes from one
    batched ``curvature_r_only`` call.
    """
    out = np.empty((len(path.ts), 2, 2))
    for b in _blocks(len(path.ts)):
        g, _, R = curvature_r_only(spec, path.xs[b])
        v = path.vs[b]
        J = np.einsum("...ijkl,...j,...k->...li", R, v, v)
        W = np.stack([path.w1s[b], path.w2s[b]], axis=-2)  # rows w1, w2
        M = np.einsum("...ap,...pq,...qi,...bi->...ab", W, g, J, W)
        out[b] = 0.5 * (M + np.swapaxes(M, -1, -2))
    return out


def _stage_J(ts, Js, times):
    """J at the stage times t, t + h/2, t + h of every step t -> t + h between
    consecutive ``times``: (steps, 3, 2, 2).

    Each value is the 4-point Lagrange interpolation of the J samples on the
    window of (up to) four samples around the sample interval holding the
    stage time, clamped at the ends of the path.
    """
    t0 = times[:-1]
    h = times[1:] - t0
    t = np.stack([t0, t0 + 0.5 * h, t0 + h], axis=1)  # (steps, 3)
    n = len(ts)
    if n == 1:
        return np.broadcast_to(Js[0], t.shape + (2, 2))
    i = np.clip(np.searchsorted(ts, t) - 1, 0, n - 2)
    lo = np.maximum(0, np.minimum(i - 1, n - 4))
    idx = lo[..., None] + np.arange(min(4, n))  # (steps, 3, window)
    out = np.zeros(t.shape + (2, 2))
    for a in range(idx.shape[-1]):
        w = np.ones(t.shape)
        for b in range(idx.shape[-1]):
            if a != b:
                w *= (t - ts[idx[..., b]]) / (ts[idx[..., a]] - ts[idx[..., b]])
        out += w[..., None, None] * Js[idx[..., a]]
    return out


def integrate_riccati(path: GeodesicPath, Js: np.ndarray, u0, T: float | None = None) -> RiccatiResult:
    """Integrate u' = -u^2 - J(t) from a symmetric 2x2 initial value.

    Blow-up (Frobenius norm above 1e8) is a return value, not an error; the
    crossing time is refined by step bisection to about 1e-3.
    """
    u = np.asarray(u0, dtype=float)
    if u.shape != (2, 2) or abs(u[0, 1] - u[1, 0]) > 1e-12:
        raise ValueError("u0 must be symmetric 2x2")
    ts = path.ts
    t_end = float(ts[-1]) if T is None else min(float(T), float(ts[-1]))

    def step(u, h, J0, Jmid, J1):
        """One RK4 step of length h, given J at its three stage times."""
        k1 = -(u @ u) - J0
        v = u + 0.5 * h * k1
        k2 = -(v @ v) - Jmid
        v = u + 0.5 * h * k2
        k3 = -(v @ v) - Jmid
        v = u + h * k3
        k4 = -(v @ v) - J1
        return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def blows_up(u):
        # also true for a non-finite entry, whose norm is inf or nan
        return not np.linalg.norm(u) <= BLOWUP_NORM

    def steps():
        """(t, t_next, J at the stage times) for each step on the path's sample
        times, the last one cut at t_end; J one SAMPLE_BLOCK of steps at a time."""
        times = np.append(ts[ts < t_end], t_end)
        for s in range(0, len(times) - 1, SAMPLE_BLOCK):
            block = times[s : s + SAMPLE_BLOCK + 1]
            yield from zip(block[:-1].tolist(), block[1:].tolist(), _stage_J(ts, Js, block))

    states = [RiccatiState(0.0, u.copy(), abs(float(np.trace(u))))]
    defect = states[0].trace_defect
    for t, t_next, stage_J in steps():
        u_next = step(u, t_next - t, *stage_J)
        if blows_up(u_next):
            lo, hi = t, t_next
            u_lo = u.copy()
            while hi - lo > 1e-3:
                mid = 0.5 * (lo + hi)
                u_mid = step(u_lo, mid - lo, *_stage_J(ts, Js, np.array([lo, mid]))[0])
                if blows_up(u_mid):
                    hi = mid
                else:
                    lo, u_lo = mid, u_mid
            t_blow = 0.5 * (lo + hi)
            return RiccatiResult(states, defect, True, t_blow, (lo, hi))
        u = u_next  # a new array every step, so the state can keep it
        d = abs(float(u[0, 0] + u[1, 1]))
        defect = max(defect, d)
        states.append(RiccatiState(t_next, u, d))
    return RiccatiResult(states, defect, False, None, None)


@dataclass
class ProbeCandidate:
    a: float
    b: float
    jet1_residual: float
    jet2_residual: float
    trace0_residual: float
    trace_defect: float
    blown_up: bool
    blowup_time: float | None


@dataclass
class ProbeReport:
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
    from .obstruction import obstruction_values

    p = np.asarray(p, dtype=float)
    from .curvature import pack_at

    pack = pack_at(spec, p)
    v = np.asarray(v, dtype=float)
    v = v / pack.norm(v)
    ov = obstruction_values(pack, v)
    A, B = ov.frame.A, ov.frame.B
    A1, B1 = ov.derived.A1, ov.derived.B1
    D1, D2 = ov.D1, ov.D2
    ric_vv = ov.frame.t

    if grid_radius is None:
        grid_radius = 2.0 * math.sqrt(max(0.0, -ric_vv) / 2.0)
        if grid_radius == 0.0 and ric_vv > 1e-12:
            grid_radius = 1.0

    path = integrate_geodesic(spec, p, v, T, dt)
    Js = jacobi_along(spec, path)
    # u0 is scored in the Jacobi eigenframe and integrated in the path's parallel
    # frame: C[i, j] = g(path w_i(0), eigenframe w_j) carries it over
    C = np.stack([path.w1s[0], path.w2s[0]]) @ pack.g @ np.stack([ov.frame.w1, ov.frame.w2]).T

    if grid_n < 1 or grid_radius == 0.0:
        grid = [0.0]
    else:
        grid = np.linspace(-grid_radius, grid_radius, grid_n)
    candidates = []
    for a in grid:
        for b in grid:
            u0 = C @ np.array([[a, b], [b, -a]]) @ C.T
            res = integrate_riccati(path, Js, 0.5 * (u0 + u0.T), T)
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
