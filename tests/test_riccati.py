import math
import types

import numpy as np
import pytest
from oracles import constrained_probe, frame_drift, gamma_arrays, reference_rk4, speed_drift
from test_exprjet import _tape_specs

from riccati3 import metrics, riccati
from riccati3.curvature import curvature_r_only, jacobi_op, pack_at
from riccati3.riccati import (
    MAX_STEPS,
    SAMPLE_BLOCK,
    _sample_times,
    _stage_J,
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
    assert speed_drift(path) < 1e-8
    assert frame_drift(path) < 1e-8


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
    Js = jacobi_along(path)
    assert np.max(np.abs(Js)) == 0.0

    spec = metrics.builtin("hyperbolic", c=1.0)
    path = integrate_geodesic(spec, (0, 0, 1.0), (0.2, 0.1, 0.9), 1.0, 1e-2)
    Js = jacobi_along(path)
    assert np.max(np.abs(Js - [-1.0, 0.0, -1.0])) < 1e-8


def test_jacobi_along_heisenberg_crosscheck():
    spec = metrics.builtin("heisenberg", L=1.0)
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.5, 0.7, 0.4), 0.5, 1e-2)
    Js = jacobi_along(path)
    assert np.std(Js[:, 0]) > 1e-6  # genuinely non-constant
    for k in (0, len(path.ts) // 2, len(path.ts) - 1):
        pk = pack_at(spec, path.xs[k])
        v, w1, w2 = path.vs[k], path.w1s[k], path.w2s[k]
        J3 = jacobi_op(pk, v)
        m11 = float(w1 @ pk.g @ (J3 @ w1))
        m12 = float(w1 @ pk.g @ (J3 @ w2))
        m22 = float(w2 @ pk.g @ (J3 @ w2))
        assert abs(m11 - Js[k, 0]) < 1e-6
        assert abs(m12 - Js[k, 1]) < 1e-6
        assert abs(m22 - Js[k, 2]) < 1e-6
        assert abs(Js[k, 0] + Js[k, 2] - float(v @ pk.ric @ v)) < 1e-8


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_curvature_r_only_batch_is_stack_of_points(name):
    spec = metrics.builtin(name)
    rng = np.random.default_rng(3)
    xs = np.column_stack([rng.uniform(lo, hi, 12) for lo, hi in spec.box])
    g, rho = curvature_r_only(spec, xs)
    assert g.shape == rho.shape == (12, 3, 3)
    for k, x in enumerate(xs):
        point = curvature_r_only(spec, tuple(x))
        for got, want in zip((g[k], rho[k]), point):
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        # the order-2 and the order-4 run of the curvature kernel agree
        pk = pack_at(spec, tuple(x))
        for got, want in zip(point, (pk.g, pk.ric - pk.scal / 4.0 * pk.g)):
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_jacobi_along_matches_pack_at_every_sample(name):
    """The batched J(t) from g and the Schouten tensor, over more than one
    block of samples, against J(v) = R(., v)v of the order-4 pack at each
    sample projected on the parallel frame."""
    spec = metrics.builtin(name)
    p = tuple(0.5 * (lo + hi) + x for (lo, hi), x in zip(spec.box, (0.1, 0.2, 0.3)))
    path = integrate_geodesic(spec, p, (0.5, 0.7, 0.4), 0.6, 2e-3)
    assert len(path.ts) > SAMPLE_BLOCK
    Js = jacobi_along(path)
    for k, (x, v, w1, w2) in enumerate(zip(path.xs, path.vs, path.w1s, path.w2s)):
        pk = pack_at(spec, x)
        gJ = pk.g @ jacobi_op(pk, v)
        m12 = 0.5 * float(w1 @ gJ @ w2 + w2 @ gJ @ w1)
        want = np.array([w1 @ gJ @ w1, m12, w2 @ gJ @ w2])
        assert np.max(np.abs(Js[k] - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("name", ["sol", "sphere"])
def test_jacobi_along_does_not_depend_on_curvature_strides(name, monkeypatch):
    """Fortran-ordered copies of g and rho, with the same values, give a
    bitwise-equal J(t): the contraction's summation order is fixed by the
    shapes, not by the memory layout of the kernel's output."""
    spec = metrics.builtin(name)
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.5, 0.7, 0.4), 0.3, 1e-2)
    want = jacobi_along(path)

    def fortran_ordered(spec, p):
        return tuple(np.asfortranarray(x) for x in curvature_r_only(spec, p))

    monkeypatch.setattr(riccati, "curvature_r_only", fortran_ordered)
    assert np.array_equal(jacobi_along(path), want)


def _homothetic_run(lam, T=3.0, dt=1e-2, u0=(1.5, 0.2, 1.3)):
    """J(t) and the Riccati result on the round sphere with the metric scaled
    to lam^2 g, with T and dt scaled by lam and u0 by 1/lam: unit speed in
    lam^2 g, so lam^2 J and lam u are those of lam = 1."""
    conformal = "s*4/(1+x1^2+x2^2+x3^2)^2"
    comps = {"g11": conformal, "g12": "0", "g13": "0", "g22": conformal, "g23": "0", "g33": conformal}
    spec = metrics.custom(comps, params={"s": lam * lam})
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.3, -0.2, 0.5), lam * T, lam * dt)
    Js = jacobi_along(path)
    return Js, integrate_riccati(path, Js, [x / lam for x in u0])


@pytest.mark.parametrize("lam,exact", [(0.5, True), (4.0, True), (0.1, False), (10.0, False)])
def test_riccati_side_is_homothety_invariant(lam, exact):
    """Under g -> lam^2 g the Riccati side changes by scale alone: bit for bit
    at powers of two, where every rescaling is exact, and to rounding
    otherwise.  The run blows up, so the blow-up step is compared too."""
    J1, r1 = _homothetic_run(1.0)
    J, r = _homothetic_run(lam)
    assert r1.blown_up and len(r.ts) == len(r1.ts) and r.blown_up == r1.blown_up
    if exact:
        assert np.array_equal(lam * lam * J, J1)
        assert np.array_equal(lam * r.u, r1.u)
    else:
        assert np.all(np.abs(lam * lam * J - J1) <= 1e-13 * np.maximum(1.0, np.abs(J1)))
        assert np.all(np.abs(lam * r.u - r1.u) <= 1e-11 * np.maximum(1.0, np.abs(r1.u)))


@pytest.mark.xfail(
    strict=True,
    reason="the blow-up norm 1e8 and the bisection width 1e-3 are absolute, so the blow-up time does not scale",
)
@pytest.mark.parametrize("lam", [0.5, 4.0])
def test_blowup_time_scales_with_homothety(lam):
    _, r1 = _homothetic_run(1.0)
    _, r = _homothetic_run(lam)
    assert r.blowup_time == pytest.approx(lam * r1.blowup_time, rel=1e-12)


def test_riccati_flat_zero():
    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 1.0, 1e-2)
    Js = jacobi_along(path)
    res = integrate_riccati(path, Js, (0.0, 0.0, 0.0))
    assert res.trace_defect_max == 0.0
    assert np.max(np.abs(res.u[-1])) == 0.0


def test_riccati_hyperbolic_fixed_point():
    spec = metrics.builtin("hyperbolic", c=1.0)
    path = integrate_geodesic(spec, (0, 0, 1.0), (0, 0, 1.0), 10.0, 1e-2)
    Js = jacobi_along(path)
    res = integrate_riccati(path, Js, (1.0, 0.0, 1.0))
    dev = float(np.max(np.abs(res.u - [1.0, 0.0, 1.0])))
    assert dev < 1e-8


def test_riccati_flat_blowup():
    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 1.2, 1e-3)
    Js = jacobi_along(path)
    res = integrate_riccati(path, Js, (1.0, 0.0, -1.0))
    assert res.blown_up
    assert res.blowup_time == pytest.approx(1.0, abs=1e-3)
    assert res.blowup_bracket[1] - res.blowup_bracket[0] <= 1e-3 + 1e-12


def test_riccati_trace_identity():
    spec = metrics.builtin("heisenberg", L=1.0)
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.5, 0.7, 0.4), 1.0, 1e-3)
    Js = jacobi_along(path)
    res = integrate_riccati(path, Js, (0.3, 0.1, -0.3))
    a, b, c = res.u.T
    tr_u = a + c
    tr_u2 = a * a + 2.0 * b * b + c * c
    tr_J = Js[: len(res.ts), 0] + Js[: len(res.ts), 2]
    ddt = np.gradient(tr_u, res.ts)
    assert np.max(np.abs(ddt + tr_u2 + tr_J)[2:-2]) < 1e-6


def test_order4_convergence_both_integrators():
    spec = metrics.builtin("hyperbolic", c=1.0)
    p0, v0 = (0, 0, 1.0), (0, 0, 1.0)
    geo_errs, ric_errs = [], []
    for dt in (0.02, 0.01, 0.005):
        path = integrate_geodesic(spec, p0, v0, 1.0, dt)
        geo_errs.append(float(np.max(np.abs(path.xs[-1] - np.array([0, 0, math.e])))))
        res = integrate_riccati(path, jacobi_along(path), (0.0, 0.0, 0.0))
        ric_errs.append(abs(res.u[-1, 0] - math.tanh(1.0)))
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


def test_gamma_at_rejects_a_non_positive_definite_point():
    flat = {"g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    spec = metrics.custom({"g11": "x1", **flat})
    metrics.gamma_at(spec, (0.3, 0.0, 0.0))
    for x1 in (0.0, -0.5, float("nan")):
        with pytest.raises(metrics.MetricError, match=rf"not positive definite at \({x1}, 0.0, 0.0\)"):
            metrics.gamma_at(spec, (x1, 0.0, 0.0))
    # indefinite with positive diagonal: only the second minor is negative
    tilted = metrics.custom({"g11": "1", "g12": "2", "g13": "0", "g22": "1", "g23": "0", "g33": "1"})
    with pytest.raises(metrics.MetricError, match="leading principal minors 1.000e\\+00, -3.000e\\+00"):
        metrics.gamma_at(tilted, (0.0, 0.0, 0.0))


def test_geodesic_stage_outside_positive_definite_region_raises():
    """g11 = x1 heading to x1 = 0: the first RK4 stage point with x1 <= 0 stops
    the integration instead of stepping through it."""
    flat = {"g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    spec = metrics.custom({"g11": "x1", **flat})
    with pytest.raises(metrics.MetricError, match=r"not positive definite at \(-"):
        integrate_geodesic(spec, (0.3, 0.0, 0.0), (-1.0, 0.0, 0.0), 1.0, 0.01)


def test_zero_direction_or_step_rejected():
    spec = metrics.builtin("flat")
    with pytest.raises(riccati.DirectionError, match="direction"):
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
    res = integrate_riccati(path, jacobi_along(path), (0.5, 0.0, 0.5))
    assert not res.blown_up
    assert res.ts.tolist() == path.ts.tolist()
    # u' = -u^2 from 0.5 id: u(T) = 0.5 / (1 + 0.5 T) id
    assert np.allclose(res.u[-1], 0.5 / (1.0 + 0.5 * T) * np.array([1.0, 0.0, 1.0]), atol=1e-4)


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
    coef = rng.standard_normal((m + 1, 3))  # rows of entries (J11, J12, J22)

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
    assert stages.shape == (len(times) - 1, 3, 3)
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
    Js = np.broadcast_to([k * k, 0.0, k * k], (len(ts), 3))
    res = integrate_riccati(path, Js, (0.0, 0.0, 0.0))
    assert not res.blown_up
    assert res.ts.tolist() == ts.tolist()
    want = -k * np.tan(k * ts)[:, None] * [1.0, 0.0, 1.0]
    assert np.allclose(res.u, want, rtol=0.0, atol=1e-9)


# every off-diagonal entry nonzero, so that each cofactor of the adjugate counts
TILTED = {"g11": "2 + x1^2", "g12": "0.3*x2", "g13": "0.2 + 0.1*x3",
          "g22": "2 + sin(x1)", "g23": "0.25*x1", "g33": "2 + x2^2"}


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES + ("tilted",))
def test_gamma_at_inverse_is_the_symmetric_adjugate(name, monkeypatch):
    """ginv is exactly symmetric and agrees with np.linalg.inv(g) to 1e-14 of
    cond(g); gamma_at itself makes no linear-algebra call for it."""
    spec = metrics.custom(TILTED, name=name) if name == "tilted" else metrics.builtin(name)
    rng = np.random.default_rng(15)
    box = np.array(spec.box)
    points = rng.uniform(box[:, 0], box[:, 1], (8, 3))
    want = {}
    for p in points:
        g = metrics.metric_jets(spec, tuple(p), order=0).g
        want[tuple(p)] = (np.linalg.inv(g), np.linalg.cond(g))

    def refused(*args, **kwargs):
        raise AssertionError("gamma_at called a numpy linear solver")

    monkeypatch.setattr(np.linalg, "solve", refused)
    monkeypatch.setattr(np.linalg, "inv", refused)
    for p in points:
        _, ginv, gamma = gamma_arrays(spec, p)
        inv, cond = want[tuple(p)]
        assert np.array_equal(ginv, ginv.T)
        assert np.max(np.abs(ginv - inv)) <= 1e-14 * cond * np.max(np.abs(inv))
        # the lowered symbol is symmetric in its last two slots, and so is Gamma
        assert np.array_equal(gamma, gamma.swapaxes(1, 2))


@pytest.mark.parametrize(
    "spec",
    _tape_specs() + [metrics.custom(TILTED, name="tilted")],
    ids=lambda s: f"{s.name}{s.params}",
)
def test_float_step_matches_the_numpy_reference(spec):
    """One RK4 step on the 12 floats of (x, v, w1, w2) agrees with the numpy
    stage of tests/oracles.py, whose Gamma comes from the order-1 metric jets
    and a linear solve, within 1e-14 of max(1, |y|), entry by entry."""
    rng = np.random.default_rng(18)
    box = np.array(spec.box)
    for dt in (1e-2, -5e-2):
        for _ in range(4):
            y = np.concatenate([rng.uniform(box[:, 0], box[:, 1]), rng.uniform(-1.0, 1.0, 9)])
            got = riccati._rk4(spec, y.tolist(), dt)
            want = reference_rk4(spec, y, dt)
            assert type(got) is list and all(type(a) is float for a in got)
            assert np.all(np.abs(np.array(got) - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def test_one_gamma_at_call_per_stage(monkeypatch):
    """A geodesic step evaluates the metric once at each of its four stages,
    through ``riccati.gamma_at``, also on a shortened last step."""
    calls = []

    def counted(spec, p):
        calls.append(p)
        return metrics.gamma_at(spec, p)

    monkeypatch.setattr(riccati, "gamma_at", counted)
    spec = metrics.builtin("sphere")
    for T in (0.1, 0.105):
        calls.clear()
        path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.3, -0.2, 0.5), T, 0.01)
        assert len(calls) == 4 * (len(path.ts) - 1)


def _full_matrix_step(u, h, J0, Jmid, J1):
    """One RK4 step on full 2x2 arrays with u @ u: the reference for the
    integrator's step on the three entries of the symmetric u."""
    k1 = -(u @ u) - J0
    k2 = -((u + 0.5 * h * k1) @ (u + 0.5 * h * k1)) - Jmid
    k3 = -((u + 0.5 * h * k2) @ (u + 0.5 * h * k2)) - Jmid
    k4 = -((u + h * k3) @ (u + h * k3)) - J1
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _entries(m):
    return (float(m[0, 0]), float(m[0, 1]), float(m[1, 1]))


def _matrix(e):
    """The symmetric 2x2 array of the entries (x11, x12, x22)."""
    return np.array([[e[0], e[1]], [e[1], e[2]]])


def _close(got, want, rel):
    return np.all(np.abs(np.asarray(got) - want) <= rel * np.maximum(1.0, np.abs(want)))


def test_three_entry_step_matches_the_full_matrix_step():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u, J0, Jmid, J1 = (m + m.T for m in rng.standard_normal((4, 2, 2)))
        h = rng.uniform(1e-3, 0.1)
        got = riccati._riccati_step(_entries(u), h, _entries(J0), _entries(Jmid), _entries(J1))
        assert _close(got, _entries(_full_matrix_step(u, h, J0, Jmid, J1)), 1e-14)


def test_riccati_trajectory_matches_the_full_matrix_reference():
    """Every state against full-matrix RK4 steps on the same stage values of
    J, over more than one SAMPLE_BLOCK."""
    spec = metrics.builtin("heisenberg", L=1.0)
    path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.5, 0.7, 0.4), 0.6, 2e-3)
    Js = jacobi_along(path)
    res = integrate_riccati(path, Js, (0.3, 0.1, -0.3))
    assert not res.blown_up and len(path.ts) > SAMPLE_BLOCK
    assert res.ts.shape == res.trace_defect.shape == (len(path.ts),) and res.u.shape == (len(path.ts), 3)
    stages = _stage_J(path.ts, Js, path.ts)
    u = _matrix((0.3, 0.1, -0.3))
    for k, got in enumerate(res.u):
        assert _close(got, _entries(u), 1e-14)
        assert res.trace_defect[k] == abs(got[0] + got[2])
        if k < len(stages):
            u = _full_matrix_step(u, path.ts[k + 1] - path.ts[k], *map(_matrix, stages[k]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entry_counts_as_blow_up(bad):
    assert riccati._blows_up((bad, 0.0, 0.0)) and riccati._blows_up((0.0, bad, 0.0))
    assert not riccati._blows_up((1e7, 1e7, 1e7))
    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 0.5, 1e-2)
    res = integrate_riccati(path, jacobi_along(path), (bad, 0.0, 1.0))
    assert res.blown_up and len(res.ts) == 1
    assert res.blowup_time == 0.0


def test_initial_value_already_blown_up_is_reported_at_t_0():
    """A u0 above BLOWUP_NORM is blown up at t = 0, with no step taken."""
    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 0.1, 1e-2)
    u0 = (6e8, 0.0, 8e8)  # Frobenius norm 1e9
    assert riccati._blows_up(u0)
    res = integrate_riccati(path, jacobi_along(path), u0)
    assert res.blown_up and res.blowup_time == 0.0 and res.blowup_bracket == (0.0, 0.0)
    assert res.ts.tolist() == [0.0] and res.u.tolist() == [list(u0)]
