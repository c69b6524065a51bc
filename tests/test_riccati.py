import math
import types

import numpy as np
import pytest

from riccati3 import metrics
from riccati3.curvature import curvature_r_only, jacobi_op, pack_at
from riccati3.riccati import (
    MAX_STEPS,
    SAMPLE_BLOCK,
    _sample_times,
    _stage_J,
    constrained_probe,
    integrate_geodesic,
    integrate_riccati,
    jacobi_along,
)


def test_flat_geodesic_is_straight():
    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (1.0, 0.0, 0.0), 1.0, 1e-2)
    assert np.allclose(path.xs[-1], [1.1, 0.2, 0.3], atol=1e-12)
    assert np.allclose(path.w1s[0], path.w1s[-1], atol=1e-12)


def test_hyperbolic_vertical_closed_form():
    spec = metrics.builtin("hyperbolic", c=1.0)
    path = integrate_geodesic(spec, (0, 0, 1.0), (0, 0, 1.0), 1.0, 1e-3)
    assert np.max(np.abs(path.xs[-1] - np.array([0, 0, math.e]))) < 1e-8
    # parallel frame stays coordinate-aligned and rescales with height
    assert np.max(np.abs(path.w1s[-1] - np.array([math.e, 0, 0]))) < 1e-7


def test_geodesic_invariants_long_run():
    spec = metrics.builtin("heisenberg", L=1.0)
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.6, 0.7, 0.3), 10.0, 1e-3)
    assert path.speed_drift() < 1e-8
    assert path.frame_drift() < 1e-8


def test_geodesic_halving_dt_16x():
    spec = metrics.builtin("hyperbolic", c=1.0)
    errs = []
    for dt in (0.02, 0.01):
        path = integrate_geodesic(spec, (0, 0, 1.0), (0, 0, 1.0), 1.0, dt)
        errs.append(float(np.max(np.abs(path.xs[-1] - np.array([0, 0, math.e])))))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.15)


def test_sphere_great_circle_period():
    spec = metrics.builtin("sphere", c=1.0)
    p0 = np.array([0.3, 0.1, 0.2])
    path = integrate_geodesic(spec, p0, (0.1, 1.0, -0.2), 2 * math.pi, 2.5e-4)
    assert np.max(np.abs(path.xs[-1] - p0)) < 1e-6


def test_jacobi_along_constant_curvature():
    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 0.5, 1e-2)
    Js = jacobi_along(spec, path)
    assert np.max(np.abs(Js)) == 0.0

    spec = metrics.builtin("hyperbolic", c=1.0)
    path = integrate_geodesic(spec, (0, 0, 1.0), (0.2, 0.1, 0.9), 1.0, 1e-2)
    Js = jacobi_along(spec, path)
    assert np.max(np.abs(Js + np.eye(2))) < 1e-8


def test_jacobi_along_heisenberg_crosscheck():
    spec = metrics.builtin("heisenberg", L=1.0)
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.5, 0.7, 0.4), 0.5, 1e-2)
    Js = jacobi_along(spec, path)
    assert np.std([J[0, 0] for J in Js]) > 1e-6  # genuinely non-constant
    for k in (0, len(path.ts) // 2, len(path.ts) - 1):
        pk = pack_at(spec, path.xs[k])
        v, w1, w2 = path.vs[k], path.w1s[k], path.w2s[k]
        J3 = jacobi_op(pk, v)
        m11 = float(w1 @ pk.g @ (J3 @ w1))
        m12 = float(w1 @ pk.g @ (J3 @ w2))
        m22 = float(w2 @ pk.g @ (J3 @ w2))
        assert abs(m11 - Js[k][0, 0]) < 1e-6
        assert abs(m12 - Js[k][0, 1]) < 1e-6
        assert abs(m22 - Js[k][1, 1]) < 1e-6
        assert abs(np.trace(Js[k]) - float(v @ pk.ric @ v)) < 1e-8


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_curvature_r_only_batch_is_stack_of_points(name):
    spec = metrics.builtin(name)
    rng = np.random.default_rng(3)
    xs = np.column_stack([rng.uniform(lo, hi, 12) for lo, hi in spec.box])
    g, ginv, R = curvature_r_only(spec, xs)
    assert g.shape == ginv.shape == (12, 3, 3) and R.shape == (12, 3, 3, 3, 3)
    for k, x in enumerate(xs):
        point = curvature_r_only(spec, tuple(x))
        for got, want in zip((g[k], ginv[k], R[k]), point):
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        # the order-2 and the order-4 run of the curvature kernel agree
        pk = pack_at(spec, tuple(x))
        for got, want in zip(point, (pk.g, pk.ginv, pk.R)):
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_jacobi_along_matches_pack_at_every_sample():
    """The batched J(t), over more than one block of samples, against the
    order-4 pack at each sample projected on the parallel frame."""
    spec = metrics.builtin("heisenberg", L=1.0)
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.5, 0.7, 0.4), 0.6, 2e-3)
    assert len(path.ts) > SAMPLE_BLOCK
    Js = jacobi_along(spec, path)
    for k, (x, v, w1, w2) in enumerate(zip(path.xs, path.vs, path.w1s, path.w2s)):
        pk = pack_at(spec, x)
        gJ = pk.g @ jacobi_op(pk, v)
        m12 = 0.5 * float(w1 @ gJ @ w2 + w2 @ gJ @ w1)
        want = np.array([[w1 @ gJ @ w1, m12], [m12, w2 @ gJ @ w2]])
        assert np.max(np.abs(Js[k] - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


def test_riccati_flat_zero():
    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 1.0, 1e-2)
    Js = jacobi_along(spec, path)
    res = integrate_riccati(path, Js, np.zeros((2, 2)))
    assert res.trace_defect_max == 0.0
    assert np.max(np.abs(res.final)) == 0.0


def test_riccati_hyperbolic_fixed_point():
    spec = metrics.builtin("hyperbolic", c=1.0)
    path = integrate_geodesic(spec, (0, 0, 1.0), (0, 0, 1.0), 10.0, 1e-2)
    Js = jacobi_along(spec, path)
    res = integrate_riccati(path, Js, np.eye(2))
    dev = max(float(np.max(np.abs(s.u - np.eye(2)))) for s in res.states)
    assert dev < 1e-8


def test_riccati_flat_blowup():
    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 1.2, 1e-3)
    Js = jacobi_along(spec, path)
    res = integrate_riccati(path, Js, np.diag([1.0, -1.0]))
    assert res.blown_up
    assert res.blowup_time == pytest.approx(1.0, abs=1e-3)
    assert res.blowup_bracket[1] - res.blowup_bracket[0] <= 1e-3 + 1e-12


def test_riccati_trace_identity():
    spec = metrics.builtin("heisenberg", L=1.0)
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.5, 0.7, 0.4), 1.0, 1e-3)
    Js = jacobi_along(spec, path)
    res = integrate_riccati(path, Js, np.array([[0.3, 0.1], [0.1, -0.3]]))
    ts = path.ts[: len(res.states)]
    tr_u = np.array([np.trace(s.u) for s in res.states])
    tr_u2 = np.array([np.trace(s.u @ s.u) for s in res.states])
    tr_J = np.array([np.trace(J) for J in Js[: len(res.states)]])
    ddt = np.gradient(tr_u, ts)
    assert np.max(np.abs(ddt + tr_u2 + tr_J)[2:-2]) < 1e-6


def test_order4_convergence_both_integrators():
    spec = metrics.builtin("hyperbolic", c=1.0)
    p0, v0 = (0, 0, 1.0), (0, 0, 1.0)
    geo_errs, ric_errs = [], []
    for dt in (0.02, 0.01, 0.005):
        path = integrate_geodesic(spec, p0, v0, 1.0, dt)
        geo_errs.append(float(np.max(np.abs(path.xs[-1] - np.array([0, 0, math.e])))))
        res = integrate_riccati(path, jacobi_along(spec, path), np.zeros((2, 2)))
        ric_errs.append(abs(res.final[0, 0] - math.tanh(1.0)))
    for errs in (geo_errs, ric_errs):
        for k in range(2):
            slope = math.log2(errs[k] / errs[k + 1])
            assert abs(slope - 4.0) < 0.2


def test_metric_fault_along_path():
    from riccati3.exprjet import DomainFault

    comps = {
        "g11": "1", "g12": "0", "g13": "0",
        "g22": "1", "g23": "0", "g33": "1 + 0.1*log(x1)",
    }
    spec = metrics.custom(comps, name="half_space")
    with pytest.raises(DomainFault):
        integrate_geodesic(spec, (0.2, 0, 0), (-1.0, 0, 0), 1.0, 1e-2)


def test_zero_direction_or_step_rejected():
    spec = metrics.builtin("flat")
    with pytest.raises(ValueError, match="direction"):
        integrate_geodesic(spec, (0, 0, 0), (0, 0, 0), 1.0, 1e-2)
    with pytest.raises(ValueError, match="dt"):
        integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 1.0, 0.0)
    # more than MAX_STEPS steps are refused before the time grid is allocated
    assert len(_sample_times(1.0, 1.0 / MAX_STEPS)) == MAX_STEPS + 1
    with pytest.raises(ValueError, match="MAX_STEPS"):
        _sample_times(1.0, 0.999 / MAX_STEPS)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 1.0, 1e-13)
    with pytest.raises(ValueError, match="MAX_STEPS"):
        integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 1e308, 1e-10)  # T/dt overflows


def test_probe_flat():
    rep = constrained_probe(metrics.builtin("flat"), (0, 0, 0), (1.0, 0.2, 0.1), T=1.0, grid_n=9)
    b = rep.best
    assert (b.a, b.b) == (0.0, 0.0)
    assert max(b.jet1_residual, b.jet2_residual, b.trace0_residual, b.trace_defect) == 0.0
    assert not rep.first_jet_inconsistency


def test_probe_hyperbolic_flags_first_jet():
    rep = constrained_probe(
        metrics.builtin("hyperbolic", c=1.0), (0, 0, 1.0), (0.3, 0.2, 0.5), T=1.0, grid_n=9
    )
    assert rep.first_jet_inconsistency
    assert rep.ric_vv == pytest.approx(-2.0, abs=1e-9)
    # candidates on the circle 2(a^2+b^2) = 2 do integrate cleanly
    assert rep.best.trace_defect < 1e-6
    assert rep.best.trace0_residual < 1e-9


def test_probe_heisenberg_no_candidate():
    rep = constrained_probe(
        metrics.builtin("heisenberg", L=1.0), (0.1, 0.2, 0.3), (0.5, 0.7, 0.4), T=1.0, grid_n=15
    )
    assert rep.min_combined > 1e-6
    assert not rep.first_jet_inconsistency


def test_probe_integrates_the_u0_it_scores():
    """For trace-free u0 with 2(a^2+b^2) = -ric(v,v), tr u(t) = k t^2/2 + O(t^3)
    with k = 4(aA+bB) - D1, a frame-free second derivative: the trace defect
    over a short T must reproduce the candidate's jet1 residual |k|."""
    spec = metrics.builtin("sol")
    p, v = (0.1, 0.2, 0.3), (0.5, -0.4, 0.7)
    ric_vv = constrained_probe(spec, p, v, T=0.01, grid_n=0).ric_vv
    r = math.sqrt(-ric_vv / 4.0)  # grid_n = 1 puts the one candidate at a = b = -r
    quot = []
    for T in (0.01, 0.02):
        c = constrained_probe(spec, p, v, T=T, grid_radius=r, grid_n=1, dt=T / 20).best
        assert c.trace0_residual < 1e-12 and not c.blown_up
        quot.append(c.trace_defect / (0.5 * T * T))  # |k| + O(T)
    assert 2.0 * quot[0] - quot[1] == pytest.approx(c.jet1_residual, rel=1e-2)


@pytest.mark.parametrize("T,dt,n_steps", [(1.0, 0.4, 3), (1.0, 0.3, 4), (1.2, 1e-3, 1200)])
def test_integrators_end_exactly_at_T(T, dt, n_steps):
    """ceil(T/dt) steps at t_k = k dt, the last one shortened to end at T;
    the Riccati states sit on the same sample times."""
    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (1.0, 0.0, 0.0), T, dt)
    assert len(path.ts) == n_steps + 1
    assert path.ts[-1] == T
    assert all(path.ts[k] == k * dt for k in range(n_steps))
    assert np.allclose(path.xs[-1], [0.1 + T, 0.2, 0.3], atol=1e-12)
    res = integrate_riccati(path, jacobi_along(spec, path), np.diag([0.5, 0.5]))
    assert not res.blown_up
    assert [st.t for st in res.states] == list(path.ts)
    # u' = -u^2 from 0.5 id: u(T) = 0.5 / (1 + 0.5 T) id
    assert np.allclose(res.final, 0.5 / (1.0 + 0.5 * T) * np.eye(2), atol=1e-4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
@pytest.mark.parametrize("cut", [False, True])
def test_stage_values_interpolate_on_the_window(n, cut):
    """Lagrange interpolation through the m = min(n, 4) samples of the window
    reproduces a polynomial of degree m - 1 and misses t^m by exactly the node
    polynomial prod(t - t_b). With J of degree m, the precomputed J at every
    stage time t, t + h/2, t + h checks both the formula and the window: the
    sample interval holding t and one sample on each side, shifted inward at
    the ends of the path. Paths of 1, 2 and 3 samples have narrower windows;
    the last step may be shortened."""
    dt = 0.1
    ts = np.zeros(1) if n == 1 else _sample_times((n - 1.4) * dt, dt)  # last step 0.6 dt
    assert len(ts) == n
    m = min(n, 4)
    rng = np.random.default_rng(n)
    coef = rng.standard_normal((m + 1, 2, 2))
    coef = coef + np.swapaxes(coef, 1, 2)

    def J(t):
        return sum(c * t**k for k, c in enumerate(coef))

    def interpolated(t):
        i = max([j for j in range(n - 1) if ts[j] <= t], default=0)
        lo = max(0, min(i - 1, n - 4))
        return J(t) - coef[m] * np.prod(t - ts[lo : lo + m])

    Js = np.array([J(t) for t in ts])
    if n == 1:
        times = np.array([0.0, 0.04, 0.07])  # steps on a path of one sample: J is constant
    else:
        t_end = ts[-1] - 0.3 * (ts[-1] - ts[-2]) if cut else ts[-1]
        times = np.append(ts[ts < t_end], t_end)
    stages = _stage_J(ts, Js, times)
    assert stages.shape == (len(times) - 1, 3, 2, 2)
    for k, (t, t_next) in enumerate(zip(times[:-1].tolist(), times[1:].tolist())):
        h = t_next - t
        for s, t_stage in enumerate((t, t + 0.5 * h, t + h)):
            want = interpolated(t_stage)
            assert np.all(np.abs(stages[k, s] - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_riccati_steps_across_sample_blocks():
    """J is interpolated one SAMPLE_BLOCK of steps at a time; the solution runs
    on across the block seams: u' = -u^2 - k^2 from u = 0 is -k tan(k t)."""
    k, dt = 1.2, 1e-3
    ts = _sample_times(1.0, dt)
    assert len(ts) > 3 * SAMPLE_BLOCK
    path = types.SimpleNamespace(ts=ts)
    Js = np.broadcast_to(k * k * np.eye(2), (len(ts), 2, 2))
    res = integrate_riccati(path, Js, np.zeros((2, 2)))
    assert not res.blown_up
    assert [st.t for st in res.states] == list(ts)
    for st in res.states:
        assert np.allclose(st.u, -k * math.tan(k * st.t) * np.eye(2), rtol=0.0, atol=1e-9)
