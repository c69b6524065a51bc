import ast
import dis
import math
import re
import types

import numpy as np
import pytest
from oracles import (
    constrained_probe,
    frame_drift,
    gamma_arrays,
    reference_float_step,
    reference_riccati,
    reference_rk4,
    speed_drift,
)
from test_exprjet import _random_specs, _tape_specs

from riccati3 import cli, exprjet, metrics, riccati
from riccati3.exprjet import parse_expr
from riccati3.curvature import curvature_r_only, jacobi_op, pack_at
from riccati3.metrics import MetricSpec
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


def _kernel_J(path):
    """J's rows at the samples of a path of at most SAMPLE_BLOCK samples, as
    ``jacobi_along`` computes a block from the curvature kernel."""
    assert len(path.ts) <= SAMPLE_BLOCK
    W = np.stack([path.vs, path.w1s, path.w2s], axis=1)
    g, rho = (np.ascontiguousarray(x) for x in curvature_r_only(path.spec, path.xs))
    G, S = W @ g @ W.swapaxes(1, 2), W @ rho @ W.swapaxes(1, 2)
    G0, S0 = G[:, :, :1], S[:, :, :1]
    E = G[:, :1, :1] * S + S[:, :1, :1] * G - G0 * S0.swapaxes(1, 2) - S0 * G0.swapaxes(1, 2)
    return E[:, (1, 1, 2), (1, 2, 2)]


def _constant_specs(count, seed):
    """Flat and ``count`` constant SPD custom metrics, each off-diagonal
    entry negative."""
    rng = np.random.default_rng(seed)
    specs = [metrics.builtin("flat")]
    for k in range(count):
        off = -rng.uniform(0.05, 0.6, 3)
        g = {"g11": 1.5 + rng.uniform(), "g22": 1.5 + rng.uniform(), "g33": 1.5 + rng.uniform(),
             "g12": off[0], "g13": off[1], "g23": off[2]}
        specs.append(metrics.custom({c: repr(float(x)) for c, x in g.items()}, name=f"constant{k}"))
    return specs


def test_jacobi_along_a_constant_metric_is_the_kernels_zero_without_a_kernel_call(monkeypatch):
    """On flat and on constant metrics with negative off-diagonal entries,
    whose tapes hold no ``Var``, ``jacobi_along`` gives rows of +0.0 without
    calling ``curvature_r_only``: the bytes the kernel gives on the same
    path, in directions with components of both signs and all negative."""
    rng = np.random.default_rng(41)
    cases = []
    for spec in _constant_specs(6, 41):
        assert all(spec.tape.ops[r][0] == "const" for r in spec.tape.outputs)
        for v in (rng.standard_normal(3), -rng.uniform(0.1, 1.0, 3), (-1.0, -0.0, -2.0)):
            path = integrate_geodesic(spec, rng.uniform(-1.0, 1.0, 3), v, 1.0, 1e-2)
            cases.append((path, _kernel_J(path)))

    def refused(spec, xs):
        raise AssertionError("jacobi_along called the curvature kernel on a constant metric")

    monkeypatch.setattr(riccati, "curvature_r_only", refused)
    for path, want in cases:
        got = jacobi_along(path)
        assert got.shape == (101, 3) and got.tobytes() == want.tobytes() == bytes(want.nbytes)


def test_jacobi_along_a_metric_with_a_var_calls_the_kernel(monkeypatch):
    """The shortcut reads the tape, not the values: a metric whose g12 =
    -0.2 + 0*x2 is constant in value, but has a ``Var`` on its tape, calls
    the kernel once per block of SAMPLE_BLOCK samples, and gives its rows."""
    spec = metrics.custom({**DIAGONAL, "g11": "2", "g12": "-0.2 + 0*x2", "g13": "-0.1"}, name="one-var")
    path = integrate_geodesic(spec, (0.1, -0.2, 0.3), (-0.5, -0.25, -1.0), 3.0, 1e-2)
    calls = []
    kernel = riccati.curvature_r_only
    monkeypatch.setattr(riccati, "curvature_r_only", lambda spec, xs: calls.append(len(xs)) or kernel(spec, xs))
    got = jacobi_along(path)
    assert calls == [SAMPLE_BLOCK, 301 - SAMPLE_BLOCK]
    halves = [path._replace(ts=path.ts[b], xs=path.xs[b], vs=path.vs[b], w1s=path.w1s[b], w2s=path.w2s[b])
              for b in (slice(0, SAMPLE_BLOCK), slice(SAMPLE_BLOCK, None))]
    assert got.tobytes() == np.concatenate([_kernel_J(h) for h in halves]).tobytes()


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: RK4 on u near its pole reports the blow-up late")
def test_flat_blowup_is_at_its_exact_time():
    """On flat, u0 = diag(1, -1) gives u22 = -1 / (1 - t), which blows up at
    t = 1 exactly: the reported time is within 1e-12 of it at dt = 1e-2."""
    path = integrate_geodesic(metrics.builtin("flat"), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.5, 1e-2)
    res = integrate_riccati(path, jacobi_along(path), (1.0, 0.0, -1.0))
    assert res.blown_up and abs(res.blowup_time - 1.0) <= 1e-12


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
    for x1 in (0.0, -0.5):
        with pytest.raises(metrics.MetricError, match=rf"not positive definite at \({x1}, 0.0, 0.0\)"):
            metrics.gamma_at(spec, (x1, 0.0, 0.0))
    with pytest.raises(metrics.MetricError, match=r"at \(nan, 0.0, 0.0\): the point is not finite"):
        metrics.gamma_at(spec, (float("nan"), 0.0, 0.0))
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


def _walk_step(spec, y, dt, walk=None):
    """One step of length dt of the generated walk of ``spec`` (or of
    ``walk``) from the state y (12 floats); the next state as a list of 12
    floats."""
    ys = np.empty((2, 12))
    ys[0] = y
    (walk or riccati._walk(spec))(ys, dt, dt)
    return ys[1].tolist()


def _unfolded_walk(spec):
    """The walk of ``spec`` generated from its tape's replay with nothing
    folded in, the reference of the fold: its stage binds the constant
    outputs by name, followed by ``riccati._STAGE`` as written, and its
    stage points, slope sums and new state are the lines as they stand."""
    replay, constants, glob = spec.tape.replay(metrics.COMPONENT_NAMES)
    stage = [f"{name} = {value!r}" for name, value in constants.items()] + riccati._STAGE
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(riccati, "_fold", lambda _: (riccati._POINTS, stage, riccati._SUMS, riccati._NEW))
        source = riccati._walk_source(replay, constants)
    glob.update(riccati._WALK_GLOBALS, spec=spec)
    exec(compile(source, "<unfolded walk>", "exec"), glob)
    return glob["walk"]


def _folded_lines(spec):
    """The lines of the step of ``spec``'s walk after the replay, as
    ``riccati._fold`` gives them from the constants of its tape: (stage
    points, stage, slope sums, new state)."""
    return riccati._fold(spec.tape.replay(metrics.COMPONENT_NAMES)[1])


@pytest.mark.parametrize(
    "spec",
    _tape_specs() + [metrics.custom(TILTED, name="tilted")],
    ids=lambda s: f"{s.name}{s.params}",
)
def test_float_step_matches_the_numpy_reference(spec):
    """One RK4 step of the walk on the 12 floats of (x, v, w1, w2) agrees with
    the numpy stage of tests/oracles.py, whose Gamma comes from the order-1
    metric jets and a linear solve, within 1e-14 of max(1, |y|), entry by entry."""
    rng = np.random.default_rng(18)
    box = np.array(spec.box)
    for dt in (1e-2, -5e-2):
        for _ in range(4):
            y = np.concatenate([rng.uniform(box[:, 0], box[:, 1]), rng.uniform(-1.0, 1.0, 9)])
            got = _walk_step(spec, y.tolist(), dt)
            want = reference_rk4(spec, y, dt)
            assert np.all(np.abs(np.array(got) - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def test_one_walk_per_path_and_no_gamma_at_call(monkeypatch):
    """A geodesic path calls its metric's generated walk once, with the step
    and the last step's length, also where that one is shortened;
    ``gamma_at`` is not called, and the walk is generated once per spec."""
    calls = []
    generated = riccati._walk

    def counted_walk(spec):
        walk = generated(spec)

        def counted(ys, dt, dt_last):
            calls.append((len(ys), dt, dt_last))
            return walk(ys, dt, dt_last)

        return counted

    def refused(spec, p):
        raise AssertionError("the geodesic walk called gamma_at")

    monkeypatch.setattr(riccati, "_walk", counted_walk)
    monkeypatch.setattr(riccati, "gamma_at", refused)
    monkeypatch.setattr(metrics, "gamma_at", refused)
    spec = metrics.builtin("sphere")
    for T in (0.1, 0.105):
        calls.clear()
        path = integrate_geodesic(spec, (0.1, 0.2, 0.3), (0.3, -0.2, 0.5), T, 0.01)
        assert calls == [(len(path.ts), 0.01, float(T - path.ts[-2]))]
    assert generated(spec) is generated(spec)


def test_walk_has_the_replay_in_its_code_once():
    """The walk runs its four stages as a loop over one copy of the replay,
    with no unrolled copy: its source holds the replay once, and its code
    loads ``_power_series``, ``_function_series`` and ``_mul_floats`` once
    for each power, call and product on the tape, for the replay keeps every
    guard.  It holds one copy of the contraction with the minors rule and
    the cofactors written out: it loads ``_metric_fault`` once, and not at
    all on flat, whose step decides the rule as the walk is generated, and
    ``leading_minors`` and ``cofactors`` not at all.  On flat, whose tape is
    all constants, the replay is empty and no constant register is read."""
    for spec, rules in ((metrics.builtin("sphere"), 1), (metrics.builtin("sol"), 1), (metrics.builtin("flat"), 0)):
        replay, constants, _ = spec.tape.replay(metrics.COMPONENT_NAMES)
        source = riccati._walk_source(replay, constants)
        text = "\n".join(" " * 12 + line for line in replay)
        assert source.count(text) == 1 if replay else spec.name == "flat"
        loads = [i.argval for i in dis.get_instructions(riccati._walk(spec)) if i.opname == "LOAD_GLOBAL"]
        ops = [(kind, b) for kind, _, b, _ in spec.tape.ops]
        assert loads.count("_power_series") == sum(kind == "^" and b != 0 for kind, b in ops)
        assert loads.count("_function_series") == sum(kind == "call" for kind, _ in ops)
        assert loads.count("_mul_floats") == sum(kind == "*" for kind, _ in ops)
        assert loads.count("_metric_fault") == rules
        assert "leading_minors" not in loads and "cofactors" not in loads
        if spec.name == "flat":
            assert not [n for n in loads if n.startswith("_k")]


def test_fast_step_folds_the_constant_entries_away():
    """On flat every g entry and partial is a tape constant: the folded stage
    holds no product of a partial, and only the slopes k0, k1, k2 = v are
    summed.  On a diagonal metric (g12 = g13 = g23 = 0 as constants) the
    folded stage computes no c12 and no h12, and its k3 has no h12 term.
    Constants whose minors overflow to inf fold as any other: the rule
    fails as the walk is generated, and the stage is its raise, which reads
    the constants as floats, before the slopes of v."""
    points, stage, sums, _ = _folded_lines(metrics.builtin("flat"))
    assert not [line for line in stage if re.search(r"g\d\d_\d", line)]
    assert [line for line in stage if not line.startswith("#")] == ["k0, k1, k2 = v1, v2, v3"]
    assert sums[2] == [f"q{i} = q{i} + 2.0 * k{i}" for i in range(3)]
    assert points[3:] == [f"{z} = y{i}" for i, z in enumerate(riccati._POINT) if i >= 3]
    for spec in (metrics.builtin("sol"), metrics.builtin("sphere"), metrics.custom(DIAGONAL | {"g22": "1 + x1^2"})):
        _, stage, _, _ = _folded_lines(spec)
        targets = [t for line in stage if " = " in line for t in line.split(" = ")[0].split(", ")]
        assert "c12" not in targets and "h12" not in targets and "k3" in targets
        (k3,) = [line for line in stage if line.startswith("k3 = ")]
        assert "h12" not in k3 and "h13" not in k3
    huge = metrics.custom({**DIAGONAL, "g11": "1e200", "g22": "1e200", "g33": "1e200"})
    stage = _folded_lines(huge)[1]
    assert [line for line in stage if not line.startswith("#")] == [
        "raise _metric_fault(spec, (x1, x2, x3), (1e+200, 0.0, 0.0, 1e+200, 0.0, 1e+200))",
        "k0, k1, k2 = v1, v2, v3",
    ]


@pytest.mark.parametrize(
    "expr,env,want",
    [
        ("0.0 * x", {}, 0.0),
        ("x * 1.0", {}, "x"),
        ("x * -1.0", {}, "-x"),
        ("b * -s", {}, "-b * s"),
        ("a + -b", {}, "a - b"),
        ("a - -b", {}, "a + b"),
        ("x + 0.0", {}, "x"),
        ("0.0 - x", {}, "-x"),
        ("1.0 / x", {}, "1.0 / x"),
        ("-0.5 * (c11 / m3)", {"m3": 1.0}, "-0.5 * c11"),
        ("(g11_2 - g12_1) * v1 + (g12_2 - g22_1) * v2", {"g11_2": 0.0, "g22_1": 2.0}, "-g12_1 * v1 + (g12_2 - 2.0) * v2"),
        ("2.0 * g12 * g13 * g23 + x", {"g13": 0.0}, "x"),
        ("m2 * g33 - g11 * g23", {"g33": 3.0, "g11": -1.0}, "m2 * 3.0 + g23"),
        ("1.5 + 2.5 + x", {}, "4.0 + x"),
    ],
)
def test_fold_rules_keep_the_bits(expr, env, want):
    """``_folded`` on one expression: an operation on two constants is
    computed, a product with a 0 factor is 0, a factor +-1.0 leaves only its
    sign, a 0 term of a sum is left out, and a negation moves out of a
    product and into a sum as the opposite operator.  The folded expression
    gives the bits of the unfolded one, with the constants of ``env`` bound,
    at random finite nonzero operands, but for the sign of a zero."""
    got = riccati._folded(ast.parse(expr, mode="eval").body, dict(env))
    assert (got if isinstance(got, float) else riccati._source(got)) == want
    names = {n.id for n in ast.walk(ast.parse(expr)) if isinstance(n, ast.Name)} - set(env)
    rng = np.random.default_rng(39)
    for _ in range(200):
        operands = {n: float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)) for n in names}
        full = eval(expr, {}, {**operands, **env})
        folded = eval(want if isinstance(want, str) else repr(want), {}, operands)
        assert folded.hex() == full.hex() or folded == full == 0.0


# each expression with a constant 0 divisor or a constant that is not finite
# (big is an inf in ``env``), and its folded source
ZERO_DIVISOR_AND_NOT_FINITE = {
    "c / 0.0": "c / 0.0",
    "c / (1.0 - 1.0)": "c / 0.0",
    "0.0 * x / 0.0": "0.0 / 0.0",
    "1e300 * 1e300 + x": "inf + x",
    "x * big": "x * inf",
}


@pytest.mark.parametrize("expr", list(ZERO_DIVISOR_AND_NOT_FINITE))
def test_fold_refuses_a_zero_divisor_and_a_constant_that_is_not_finite(expr):
    """The fold refuses to compute a division by a constant 0 or to drop it
    as a product with a 0 factor: the division is left as its operands
    fold.  A constant that overflows, or is an inf in ``env``, is folded as
    any other and written as ``inf``.  At random operands the folded source
    raises as the expression does, or gives its bits."""
    got = riccati._folded(ast.parse(expr, mode="eval").body, {"big": math.inf})
    assert riccati._source(got) == ZERO_DIVISOR_AND_NOT_FINITE[expr]
    rng = np.random.default_rng(48)
    for _ in range(20):
        operands = {"c": float(rng.uniform(-2.0, 2.0)), "x": float(rng.uniform(-2.0, 2.0)), "inf": math.inf}
        want = _outcome(eval, expr, {}, {**operands, "big": math.inf})
        assert _outcome(eval, riccati._source(got), {}, operands) == want


# the BinOp and arithmetic UnaryOp nodes of each builtin's step after the
# replay, as (stage, the rest of the step), with the partials that the tape's
# structure fixes at 0 folded in as constants: sol, heisenberg and h2xr have
# fewer than with the tape's constant outputs alone (85/84, 100/84 and
# 85/84), and the third entries of h2xr's slopes of v, w1 and w2 fold to 0
FAST_STEP_OPERATIONS = {"flat": (0, 21), "sphere": (106, 84), "sol": (59, 84), "heisenberg": (86, 84), "h2xr": (46, 63)}


@pytest.mark.parametrize("name", sorted(FAST_STEP_OPERATIONS))
def test_fast_step_keeps_its_operation_count(name):
    """The step of each benchmark builtin holds as many arithmetic
    operations after its replay as when its counts were recorded, out of 206
    in the unfolded stage: a fold that stops dropping a zero product, or leaving out a
    factor 1.0, or a partial fixed at 0 that stops being folded in, shows
    here without a timing."""

    def operations(lines):
        nodes = [n for line in lines for n in ast.walk(ast.parse(line))]
        return sum(isinstance(n, ast.BinOp) or isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub) for n in nodes)

    points, stage, sums, new = _folded_lines(metrics.builtin(name))
    rest = points + [line for s in sums for line in s] + new
    assert operations(riccati._STAGE) == 206
    assert (operations(stage), operations(rest)) == FAST_STEP_OPERATIONS[name]


def _counted_series(monkeypatch, walk):
    """The calls the walk makes to ``_power_series`` and ``_function_series``,
    counted through its globals, as a list of their names."""
    calls = []
    for name in ("_power_series", "_function_series"):
        def counted(*args, _name=name, _f=walk.__globals__[name]):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setitem(walk.__globals__, name, counted)
    return calls


@pytest.mark.parametrize("spec", _tape_specs(), ids=lambda s: f"{s.name}{s.params}")
def test_walk_calls_no_series_function_on_the_fast_path(spec, monkeypatch):
    """A T = 1, dt = 1e-2 path on each of the benchmark's nine geometries
    (heisenberg at two L) runs every power and function of its stages in
    line: it makes no call to ``_power_series`` or ``_function_series``."""
    calls = _counted_series(monkeypatch, riccati._walk(spec))
    path = integrate_geodesic(spec, np.array(spec.box).mean(axis=1), (0.3, -0.2, 0.5), 1.0, 1e-2)
    assert len(path.ts) == 101 and np.all(np.isfinite(path.xs))
    assert calls == []


@pytest.mark.parametrize(
    "components,x,called,message",
    [
        ({"g11": "1 + x3^-2"}, (0.0, 0.0, 1e-13), "_power_series", "division by ~0 in subtree '(x3^-2)'"),
        ({"g11": "1 + x1^3"}, (1e103, 0.0, 0.0), "_power_series", "power 3 overflows the float range"),
        ({"g33": "1 + 0.1*log(x1)"}, (-0.2, 0.0, 0.0), "_function_series", "log of non-positive value"),
        ({"g22": "2 + sin(x1)"}, (math.inf, 0.0, 0.0), "_function_series", "sin of infinite value"),
    ],
    ids=["floor", "overflow", "log", "sin-inf"],
)
def test_walk_calls_the_series_function_once_at_a_fault(components, x, called, message, monkeypatch):
    """At a state where an in-line power or function faults, the walk calls
    its series function once, which raises the fault's message."""
    spec = metrics.custom({**DIAGONAL, **components})
    calls = _counted_series(monkeypatch, riccati._walk(spec))
    with pytest.raises(exprjet.DomainFault, match=re.escape(message)):
        _walk_step(spec, list(x) + [0.5] * 9, 1e-2)
    assert calls == [called]


# the benchmark's metrics, heisenberg at a third L, one whose product
# (5e153 x1)(5e153 x1) at x1 = 2 has the finite coefficients 1e308 and 1e308,
# whose sum overflows, so that the replay takes _mul's product (_mul_floats),
# and one whose g33 at x1 = 5e-324 is finite with partials inf and nan
STAGE_SPECS = _tape_specs() + [
    metrics.builtin("heisenberg", L=2.0),
    metrics.custom({"g11": "1 + 1e-300*((5e153*x1)*(5e153*x1))", "g12": "0.1", "g13": "0",
                    "g22": "1", "g23": "0", "g33": "1"}, name="mul-fallback"),
    metrics.custom({"g11": "1", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1000 + log(x1)"},
                   name="log-partial", box=((0.5, 1.5), (-1.0, 1.0), (-1.0, 1.0))),
]


def _outcome(f, *args):
    """What f(*args) gives: the bytes of its result as a float array, or its
    exception's type and message."""
    try:
        return np.array(f(*args), dtype=float).tobytes()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _finite(outcome):
    """Whether an ``_outcome`` is a result whose entries are all finite."""
    return isinstance(outcome, bytes) and bool(np.all(np.isfinite(np.frombuffer(outcome))))


@pytest.mark.parametrize("spec", STAGE_SPECS, ids=lambda s: f"{s.name}{s.params}")
def test_generated_stage_is_the_reference_stage_bit_for_bit(spec, monkeypatch):
    """One step of the generated walk, its four stages included, gives the
    bytes of the step over ``gamma_at`` (``reference_float_step`` in
    tests/oracles.py), zero signs included, for dt = 1e-2 and -5e-2, at
    random states and at states with +0.0 and -0.0 entries, where some
    metrics fault the same way; the walk reads a -0.0 entry as +0.0, so the
    reference steps from the state's +0.0 form.  The walk generated with
    nothing folded in (``_unfolded_walk``) gives the same bytes.  So does
    the walk at states near the float range, where the reference step is
    finite; where it is not, the walk's step gives its own outcome: a state
    that is not finite, or a MetricError or DomainFault, never an
    ArithmeticError.  They are: every entry 1.7e308 (the new state
    overflows on flat, a stage point faults elsewhere); a frame of entries
    near 1.7e308 and a fast v (the transport slopes overflow but on flat);
    v1 = inf; and on log-partial a g33 with partials inf and nan, and the
    log of a negative x1."""
    products = []
    glob = riccati._walk(spec).__globals__
    monkeypatch.setitem(glob, "_mul_floats", lambda *args, real=glob["_mul_floats"]: products.append(args) or real(*args))
    rng = np.random.default_rng(34)
    box = np.array(spec.box)
    mid = box.mean(axis=1).tolist()
    states = [np.concatenate([rng.uniform(box[:, 0], box[:, 1]), rng.uniform(-1.0, 1.0, 9)]).tolist()
              for _ in range(40)]
    if spec.name == "mul-fallback":
        states += [[2.0, 0.0, 0.0] + y[3:] for y in states[:4]]
    for signs in np.ndindex(2, 2, 2):
        zeros = [-0.0 if s else 0.0 for s in signs]
        vw = rng.uniform(-1.0, 1.0, 9).tolist()
        states.append(zeros + vw)
        states += [[zeros[i] if i == k else mid[i] for i in range(3)] + vw for k in range(3)]
        states.append(mid + zeros * 3)
    unfolded = _unfolded_walk(spec)
    results = 0
    for dt in (1e-2, -5e-2):
        for y in states:
            want = _outcome(reference_float_step, spec, [x + 0.0 for x in y], dt)
            got = _outcome(_walk_step, spec, y, dt)
            assert got == want == _outcome(_walk_step, spec, y, dt, unfolded), y
            results += isinstance(got, bytes)
    assert results >= 80
    assert bool(products) == (spec.name == "mul-fallback")
    frame = [1.7e308, -1.7e308, 1.7e308, -1.7e308, 1e308, 1.7e308]
    start = [m + 0.0625 for m in mid]
    not_finite = [[1.7e308] * 12, start + [30.0, -20.0, 50.0] + frame, start + [math.inf, 0.5, 0.25] + vw[3:]]
    if spec.name == "log-partial":
        not_finite += [[x1, 0.3, 0.2, 0.3, -0.2, 0.5] + frame[::-1] for x1 in (5e-324, -0.5)]
    non_finite = 0
    for y in not_finite:
        with np.errstate(all="ignore"):
            want = _outcome(reference_float_step, spec, y, 1e-2)
            got = _outcome(_walk_step, spec, y, 1e-2)
        if _finite(want):
            assert got == want, y
        elif isinstance(got, bytes):
            assert not _finite(got), y
            non_finite += 1
        else:
            assert issubclass(got[0], (metrics.MetricError, exprjet.DomainFault)), (y, got)
    assert non_finite >= 1


@pytest.mark.parametrize("spec", STAGE_SPECS + _random_specs(6, 7), ids=lambda s: f"{s.name}{s.params}")
@pytest.mark.parametrize("T,dt", [(0.004, 0.01), (0.1, 0.01), (0.105, 0.01)], ids=["short", "ten", "cut"])
def test_walk_is_the_reference_path_bit_for_bit(spec, T, dt):
    """A whole path of the walk, of one step shorter than dt, of ten steps and
    of ten steps and a shortened last one, is the path of
    ``reference_float_step`` bit for bit, or faults as it does: in two
    directions with no zero entry, and along the axes x1 and x3, where v and
    the frame start with +0.0 entries.  The metrics include six random ones, whose components each depend on their
    own subset of the coordinates (``_random_specs``)."""
    box = np.array(spec.box)
    p = box.mean(axis=1)
    ts = _sample_times(T, dt)

    def reference(p, v):
        ys = np.empty((len(ts), 12))
        path = integrate_geodesic(spec, p, v, 0.0, dt)  # the start state alone
        ys[0] = np.concatenate([path.xs[0], path.vs[0], path.w1s[0], path.w2s[0]])
        for k in range(1, len(ts)):
            ys[k] = reference_float_step(spec, ys[k - 1].tolist(), dt if k < len(ts) - 1 else float(T - ts[-2]))
        return ys

    def walked(p, v):
        path = integrate_geodesic(spec, p, v, T, dt)
        assert np.array_equal(path.ts, ts)
        return np.concatenate([path.xs, path.vs, path.w1s, path.w2s], axis=1)

    for v in ((0.3, -0.2, 0.5), (-1.0, 0.4, 0.1), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
        with np.errstate(all="ignore"):  # mul-fallback's products leave the float range
            assert _outcome(walked, p, v) == _outcome(reference, p, v)


def test_walk_crosses_a_zero_entry_and_reads_a_negative_zero_start_as_positive():
    """On flat, a state whose x1 lands exactly on +0.0 after one step: each
    row of the walk is ``reference_float_step``'s and the unfolded walk's
    bit for bit, across the state with x1 = 0.  From the same state with
    x2 = -0.0, row 0 keeps the -0.0 and every later row is that of the
    start with x2 = +0.0.  (v1 = 0.5 gives q0 = 6 v1 = 3 and w q0 = 0.375
    exactly at dt = 0.75; v2 = -0.0 keeps x2 at -0.0 in a step from it.)"""
    spec = metrics.builtin("flat")
    start = [-0.375, 0.0, 0.2, 0.5, -0.0, -0.5, 0.6, -0.8, 0.1, 0.3, 0.2, -0.7]
    rows = []
    for x2 in (0.0, -0.0):
        ys = np.empty((4, 12))
        ys[0] = row0 = start[:1] + [x2] + start[2:]
        unfolded = ys.copy()
        riccati._walk(spec)(ys, 0.75, 0.75)
        _unfolded_walk(spec)(unfolded, 0.75, 0.75)
        assert ys[1, 0] == 0.0 and ys.tobytes() == unfolded.tobytes()
        assert ys[0].tobytes() == np.array(row0).tobytes()
        for k in range(1, 4):
            y = (ys[k - 1] + 0.0).tolist()
            assert ys[k].tobytes() == np.array(reference_float_step(spec, y, 0.75)).tobytes()
        rows.append(ys)
    assert rows[0][1:].tobytes() == rows[1][1:].tobytes()
    assert np.array(reference_float_step(spec, rows[1][0].tolist(), 0.75)).tobytes() != rows[1][1].tobytes()


@pytest.mark.parametrize("spec", STAGE_SPECS, ids=lambda s: f"{s.name}{s.params}")
def test_paths_from_a_positive_zero_start_take_the_fast_step(spec):
    """A path along an axis direction starts with +0.0 entries in v and the
    frame, and none at -0.0 (flat along e1 and hyperbolic along e3
    included, whose zero entries stay 0): the walk's folded steps are the
    unfolded walk's and ``reference_float_step``'s path bit for bit, or
    fault as they do (mul-fallback along e1, at a step's first stage)."""
    p = np.array(spec.box).mean(axis=1)
    dt = 0.01

    def reference(ys, dt, dt_last):
        for k in range(1, len(ys)):
            ys[k] = reference_float_step(spec, ys[k - 1].tolist(), dt)

    for v in np.eye(3):
        start = integrate_geodesic(spec, p, v, 0.0, dt)
        y = np.concatenate([start.xs[0], start.vs[0], start.w1s[0], start.w2s[0]])
        assert np.any(y == 0.0) and not np.any(np.signbit(y) & (y == 0.0))
        outcomes = []
        for f in (riccati._walk(spec), _unfolded_walk(spec), reference):
            ys = np.tile(y, (11, 1))
            with np.errstate(all="ignore"):  # mul-fallback's products leave the float range
                outcomes.append(_outcome(lambda: f(ys, dt, dt) or ys))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert isinstance(outcomes[0], bytes) or spec.name == "mul-fallback"


DIAGONAL = {"g11": "1", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
UNBOUND = MetricSpec(
    "unbound",
    tuple(parse_expr(src, params=["L"]) for src in ("1", "0", "0", "1 + L*x1^2", "0", "1")),
)


@pytest.mark.parametrize(
    "spec,x,message",
    [
        (metrics.custom({**TILTED, "g11": "x1"}), (-0.5, 0.2, 0.3), "not positive definite at (-0.5, 0.2, 0.3)"),
        (metrics.custom({**TILTED, "g22": "1 + x1*x1*x1*x1"}), (1e100, 0.0, 0.0), "is not finite at"),
        (metrics.custom({**TILTED, "g11": "1 + x3^-2"}), (0.0, 0.0, 1e-13), "division by ~0 in subtree '(x3^-2)'"),
        (metrics.custom({**TILTED, "g33": "1 + 0.1*log(x1)"}), (-0.2, 0.0, 0.0), "log of non-positive value"),
        (metrics.custom({**TILTED, "g11": "1 + exp(x1) - exp(x1)"}), (1000.0, 0.0, 0.0), "exp overflows"),
        (UNBOUND, (0.1, 0.2, 0.3), "unbound parameter 'L'"),
        # states at the clauses of leading_minors' rule; each of the rows
        # g11-negative to det-inf fails that one clause alone
        (metrics.custom({**TILTED, "g11": "x1"}), (0.0, 0.2, 0.3), "minors 0.000e+00,"),
        (metrics.custom({**DIAGONAL, "g12": "x1"}), (1.0, 0.0, 0.0), "minors 1.000e+00, 0.000e+00,"),
        (metrics.custom({**DIAGONAL, "g11": "x1", "g22": "x1"}), (-1.0, 0.0, 0.0), "minors -1.000e+00,"),
        (metrics.custom({**DIAGONAL, "g22": "x1", "g33": "x1"}), (-1.0, 0.0, 0.0), "minors 1.000e+00, -1.000e+00,"),
        (metrics.custom({**DIAGONAL, "g11": "x1"}), (1e7, 0.0, 0.0), "det below 1e-14 max(g_ii)^3"),
        (metrics.custom({**DIAGONAL, "g22": "x2"}), (0.0, 1e7, 0.0), "det below 1e-14 max(g_ii)^3"),
        (metrics.custom({**DIAGONAL, "g33": "x3"}), (0.0, 0.0, 1e7), "det below 1e-14 max(g_ii)^3"),
        (metrics.custom({**DIAGONAL, "g11": "x1", "g22": "x1", "g33": "x1"}), (1e107, 0.0, 0.0), "e+214, inf"),
        (metrics.custom(TILTED), (math.nan, 0.2, 0.3), "at (nan, 0.2, 0.3): the point is not finite"),
        # states with no zero entry
        (metrics.custom({**DIAGONAL, "g11": "x1", "g22": "x1"}), (-1.0, 0.5, 0.5), "minors -1.000e+00,"),
        (metrics.custom({**DIAGONAL, "g11": "x1"}), (1e7, 0.5, 0.5), "det below 1e-14 max(g_ii)^3"),
        (metrics.custom({**DIAGONAL, "g33": "1 + 0.1*log(x1)"}), (-0.2, 0.5, 0.5), "log of non-positive value"),
        # constants whose minors overflow as the walk is generated, or a
        # constant nan, folded in as any other constant
        (metrics.custom({**DIAGONAL, "g11": "1e200", "g22": "1e200", "g33": "1e200"}), (0.5, 0.5, 0.5),
         "minors 1.000e+200, inf, inf"),
        (metrics.custom({**TILTED, "g12": "0*1e999"}), (0.5, 0.5, 0.5), "is not finite at (0.5, 0.5, 0.5): g12 = nan"),
    ],
    ids=["indefinite", "non-finite", "negative-power", "log", "exp-overflow", "unbound", "g11-zero", "m2-zero",
         "g11-negative", "m2-negative", "det-floor-g11", "det-floor-g22", "det-floor-g33", "det-inf", "nan",
         "fast-g11-negative", "fast-det-floor", "fast-log", "fast-unfolded", "constant-nan"],
)
def test_generated_stage_faults_as_gamma_at(spec, x, message):
    """Where ``gamma_at`` raises at a point, the generated walk raises the
    same exception with the same message from a state at that point."""
    y = list(x) + np.random.default_rng(35).uniform(-1.0, 1.0, 9).tolist()
    with np.errstate(all="ignore"):
        got, want = _outcome(_walk_step, spec, y, 1e-2), _outcome(metrics.gamma_at, spec, x)
    assert got == want
    assert issubclass(got[0], ValueError) and message in got[1]


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
    """One step of ``integrate_riccati`` on the three entries of u, over a
    path of two samples, agrees with a full-matrix step on the same stage
    values of J."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        u, J0, J1 = (m + m.T for m in rng.standard_normal((3, 2, 2)))
        path = types.SimpleNamespace(ts=np.array([0.0, rng.uniform(1e-3, 0.1)]))
        Js = np.array([_entries(J0), _entries(J1)])
        (stage,) = _stage_J(path.ts, Js, path.ts)
        got = integrate_riccati(path, Js, _entries(u)).u[1]
        assert _close(got, _entries(_full_matrix_step(u, path.ts[1], *map(_matrix, stage))), 1e-14)


@pytest.mark.parametrize("dt", [1e-2, 3e-3, 1e-3])
def test_riccati_loop_is_the_per_step_reference_bit_for_bit(dt):
    """``integrate_riccati``'s one loop gives the bytes of RK4 steps taken one
    function call at a time (``reference_riccati`` in tests/oracles.py), and
    the same blow-up time and bracket: on flat from u0 = diag(1, -1), whose
    u22 = -1/(1 - t) blows up at t = 1; on heisenberg over more than one
    SAMPLE_BLOCK at dt = 1e-3, from a u0 that stays bounded and one that
    blows up; and from a u0 already past BLOWUP_NORM."""
    flat = integrate_geodesic(metrics.builtin("flat"), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 1.5, dt)
    heisenberg = integrate_geodesic(metrics.builtin("heisenberg", L=1.0), (0.1, 0.2, 0.3), (0.5, 0.7, 0.4), 1.2, dt)
    cases = [(flat, (1.0, 0.0, -1.0)), (flat, (6e8, 0.0, 8e8)), (heisenberg, (0.3, 0.1, -0.3)),
             (heisenberg, (2.0, 0.5, -6.0))]
    blown = 0
    for path, u0 in cases:
        Js = jacobi_along(path)
        res = integrate_riccati(path, Js, u0)
        us, t_blow, bracket = reference_riccati(path.ts, Js, u0)
        assert res.u.tobytes() == us.tobytes() and res.ts.tobytes() == path.ts[: len(us)].tobytes()
        assert (res.blown_up, res.blowup_time, res.blowup_bracket) == (t_blow is not None, t_blow, bracket)
        blown += res.blown_up and res.blowup_time > 0.0
    assert blown == 2


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
