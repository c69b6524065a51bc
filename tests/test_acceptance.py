"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line on success (run with -s to see them);
the test name carries the criterion number.
"""

import math
import time

import numpy as np
import pytest

from riccati3 import metrics, polyclass
from riccati3.curvature import identity_residuals, jacobi_op, pack_at, ricci_rank
from riccati3.frame_algebra import (
    CASES,
    R_SILVER,
    a1_crosscheck,
    bianchi_frame_residuals,
    consistent_frame,
    contradiction_certificates,
    eds_closure,
    rigid_frame,
    ric111_residual,
    root_identities,
    special_direction_polys,
)
from riccati3.obstruction import fibonacci_directions, obstruction_values
from riccati3.riccati import integrate_geodesic, integrate_riccati, jacobi_along

ZOO = (
    ("flat", {}),
    ("hyperbolic", {}),
    ("sphere", {}),
    ("heisenberg", {}),
    ("sol", {}),
    ("h2xr", {}),
)


def _zoo_points(spec, n, rng):
    return [tuple(rng.uniform(lo, hi) for lo, hi in spec.box) for _ in range(n)]


@pytest.fixture(scope="module")
def identity_sweep():
    """6 zoo metrics x 20 points x 20 directions, shared by criteria 1 and 2."""
    rng = np.random.default_rng(0)
    worst = {"j2": 0.0, "bianchi": 0.0, "kulkarni": 0.0}
    sign_lock = 0.0
    t0 = time.time()
    for name, params in ZOO:
        spec = metrics.builtin(name, **params)
        for p in _zoo_points(spec, 20, rng):
            pack = pack_at(spec, p)
            dirs = rng.standard_normal((20, 3))
            res = identity_residuals(pack, vectors=dirs)
            for k in worst:
                worst[k] = max(worst[k], res[k])
            for v in dirs:
                J = jacobi_op(pack, v)
                sign_lock = max(sign_lock, abs(np.trace(J) - float(v @ pack.ric @ v)))
    return worst, sign_lock, time.time() - t0


def test_criterion_01_universal_identity_suite(identity_sweep):
    worst, _, elapsed = identity_sweep
    assert worst["j2"] < 1e-7
    assert worst["bianchi"] < 1e-7
    assert worst["kulkarni"] < 1e-7
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 1 PASS: identity suite, worst residuals "
        f"j2={worst['j2']:.2e} bianchi={worst['bianchi']:.2e} "
        f"kulkarni={worst['kulkarni']:.2e} in {elapsed:.2f}s"
    )


def test_criterion_02_sign_convention_lock(identity_sweep):
    _, sign_lock, _ = identity_sweep
    assert sign_lock < 1e-9
    print(f"\nACCEPTANCE 2 PASS: |tr J(v) - ric(v,v)| <= {sign_lock:.2e}")


def test_criterion_03_constant_curvature_ground_truth():
    spec = metrics.builtin("hyperbolic", c=1.0)
    pack = pack_at(spec, (0.1, -0.2, 0.9))
    ric_err = float(np.max(np.abs(pack.ric + 2.0 * pack.g)))
    scal_err = abs(pack.scal + 6.0)
    assert ric_err < 1e-9 and scal_err < 1e-9

    path = integrate_geodesic(spec, (0, 0, 1.0), (0, 0, 1.0), 10.0, 1e-2)
    res = integrate_riccati(path, jacobi_along(path), (1.0, 0.0, 1.0))
    dev = float(np.max(np.abs(res.u - [1.0, 0.0, 1.0])))
    assert dev < 1e-8
    print(
        f"\nACCEPTANCE 3 PASS: Ric=-2g ({ric_err:.1e}), scal=-6 ({scal_err:.1e}), "
        f"Riccati fixed point drift {dev:.1e} over T=10"
    )


def test_criterion_04_heisenberg_eigenvalues():
    # the positive eigenvalue sits on the center direction and is simple:
    # multiset {-L^2/2, -L^2/2, +L^2/2}; magnitudes and the value set match
    # the quoted constants
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        spec = metrics.builtin("heisenberg", L=lam)
        rr = ricci_rank(pack_at(spec, (0.3, -0.4, 0.2)))
        expect = np.array([-lam**2 / 2, -lam**2 / 2, lam**2 / 2])
        worst = max(worst, float(np.max(np.abs(rr.eigenvalues - expect))))
    assert worst < 1e-8
    print(f"\nACCEPTANCE 4 PASS: heisenberg eigenvalues +-L^2/2, error {worst:.1e}")


# frozen sample points (10 per metric) so the margin of criterion 5 does not
# ride on the random generator's bit stream
DETECTOR_POINTS = {
    "heisenberg": [
        (0.273923, -0.460427, -0.918053),
        (-0.966945, 0.62654, 0.825511),
        (0.213272, 0.458993, 0.08725),
        (0.870145, 0.631707, -0.994523),
        (0.714809, -0.932829, 0.459311),
        (-0.648689, 0.726358, 0.082922),
        (-0.400576, -0.154626, -0.943361),
        (-0.751433, 0.341249, 0.294379),
        (0.23077, -0.232645, 0.99442),
        (0.961671, 0.371084, 0.300919),
    ],
    "sol": [
        (0.273923, -0.460427, -0.734442),
        (-0.966945, 0.62654, 0.660409),
        (0.213272, 0.458993, 0.0698),
        (0.870145, 0.631707, -0.795618),
        (0.714809, -0.932829, 0.367449),
        (-0.648689, 0.726358, 0.066338),
        (-0.400576, -0.154626, -0.754689),
        (-0.751433, 0.341249, 0.235503),
        (0.23077, -0.232645, 0.795536),
        (0.961671, 0.371084, 0.240735),
    ],
}


def test_criterion_05_obstruction_detector_separation():
    dirs = fibonacci_directions(64)
    max_rel_pass = 0.0
    rng = np.random.default_rng(0)
    for name in ("flat", "hyperbolic"):
        spec = metrics.builtin(name)
        for p in _zoo_points(spec, 10, rng):
            pack = pack_at(spec, p)
            for d in dirs:
                ov = obstruction_values(pack, d / pack.norm(d))
                max_rel_pass = max(max_rel_pass, abs(ov.residual) / ov.scale)
    assert max_rel_pass < 1e-9

    worst_frac = 1.0
    for name in ("heisenberg", "sol"):
        spec = metrics.builtin(name)
        for p in DETECTOR_POINTS[name]:
            pack = pack_at(spec, p)
            cnt = sum(
                1
                for d in dirs
                if abs((ov := obstruction_values(pack, d / pack.norm(d))).residual) / ov.scale
                > 1e-6
            )
            frac = cnt / len(dirs)
            worst_frac = min(worst_frac, frac)
            assert frac >= 0.90, (name, p, frac)
    print(
        f"\nACCEPTANCE 5 PASS: flat/hyperbolic max rel {max_rel_pass:.1e}; "
        f"heisenberg/sol worst per-point fraction {worst_frac:.3f} >= 0.90"
    )


def test_criterion_06_homogeneity_degrees():
    # on sol every quantity is O(1); on heisenberg D1 and tr(Jo o Jo') vanish identically
    pack = pack_at(metrics.builtin("sol"), (0.4, 0.7, -0.3))
    X = np.array([0.3, 0.8, 0.5])
    o1 = obstruction_values(pack, X)
    o2 = obstruction_values(pack, 2.0 * X)
    checks = {
        "D1": (o2.D1 / o1.D1, 3),
        "D2": (o2.D2 / o1.D2, 4),
        "tr_JJ": (o2.tr_JJ / o1.tr_JJ, 4),
        "tr_JJp": (o2.tr_JJp / o1.tr_JJp, 5),
        "P": (o2.P / o1.P, 8),
        "D": (o2.D / o1.D, 10),
        "lhs": (o2.lhs / o1.lhs, 16),
        "rhs": (o2.rhs / o1.rhs, 16),
    }
    for name, (got, deg) in checks.items():
        assert got == pytest.approx(2.0**deg, rel=1e-8), name
    print("\nACCEPTANCE 6 PASS: homogeneity degrees 3/4/4/5/8/10 and 16 on both sides")


def test_criterion_07_frame_algebra():
    b1_factor = 0.0
    for seed in range(1000):
        fd = consistent_frame(seed, "free")
        for case in CASES:
            b1_factor = max(b1_factor, special_direction_polys(fd, case).b1_factor_residual())
    assert b1_factor < 1e-10

    cross = 0.0
    roots = 0.0
    for seed in range(1000):
        fd = consistent_frame(seed, "consistent")
        cross = max(cross, *a1_crosscheck(fd))
        roots = max(roots, max(abs(v) for v in root_identities(fd).values()))
    assert cross < 1e-9 and roots < 1e-9

    table = 0.0
    for which in ("eds1", "eds2"):
        for e1 in (1, -1):
            for e2 in (1, -1):
                fd = rigid_frame(which, -1.0, (e1, e2))
                assert fd.lambda3 / fd.lambda2 == pytest.approx(R_SILVER, abs=1e-15)
                table = max(
                    table,
                    float(np.max(np.abs(bianchi_frame_residuals(fd)))),
                    abs(ric111_residual(fd)),
                )
    assert table < 1e-12
    print(
        f"\nACCEPTANCE 7 PASS: b1_factor {b1_factor:.1e} (3000 bundles), a1 crosscheck {cross:.1e}, "
        f"root identities {roots:.1e} (1000 frames), rigid tables {table:.1e}"
    )


def test_criterion_08_certificates():
    rep = contradiction_certificates()
    assert rep["r3+6r2+21r+8"] == []
    assert rep["(r-1)(r2+4)"] == []
    assert abs(rep["silver_ratio_root"] - R_SILVER) < 1e-12
    n_contra = 0
    for which in ("eds1", "eds2"):
        for e1 in (1, -1):
            for e2 in (1, -1):
                verdict = eds_closure(which, -1.0, (e1, e2))
                assert verdict.contradiction
                n_contra += 1
    assert n_contra == 8
    print(
        "\nACCEPTANCE 8 PASS: cubic certificates root-free on (0,1), "
        "silver ratio isolated, 8/8 closure contradictions"
    )


def test_criterion_09_classifier_soundness_completeness():
    rng = np.random.default_rng(2024)
    n = 1000
    plan = [
        ("a12", "CZero", lambda: plant_sign(rng)),
        ("a12", "DEqualsSqrtLambdaA", lambda: plant_sign(rng)),
        ("a12", "CaseIII", lambda: plant_sign(rng)),
        ("a12", "CaseIV", lambda: plant_sign(rng)),
        ("a3", "CZero", lambda: (1, 1)),
        ("a3", "A3BranchII", lambda: plant_signs2(rng)),
    ]

    def plant_sign(rng):
        return 1 if rng.integers(0, 2) else -1

    def plant_signs2(rng):
        return (plant_sign(rng), plant_sign(rng))

    total = 0
    for regime, branch, sig in plan:
        for _ in range(n):
            if regime == "a12":
                s = sig()
                inst, expect = (
                    polyclass.plant_a12(rng, branch, s)
                    if branch != "CZero"
                    else polyclass.plant_a12(rng, branch)
                )
                got = polyclass.classify_a12(inst)
            else:
                s = sig()
                inst, expect = polyclass.plant_a3(rng, branch, s)
                got = polyclass.classify_a3(inst)
            assert inst.exact
            assert got.branch == expect.branch, (regime, branch, got.certificate)
            if branch not in ("CZero",):
                assert got.signs == expect.signs
            assert got.oracle_residual == 0.0
            total += 1

    for _ in range(200):
        inst, _ = polyclass.plant_a3(rng, "A3BranchII", (1, -1))
        t2 = polyclass.tilde_transform(polyclass.tilde_transform(inst))
        assert t2.a == inst.a and t2.c == inst.c and t2.d1 == inst.d1 and t2.P == inst.P
    print(
        f"\nACCEPTANCE 9 PASS: {total} planted instances classified to their branch "
        "with exact-zero oracle; tilde involution exact"
    )


def test_criterion_10_riccati_numerics():
    spec = metrics.builtin("flat")
    path = integrate_geodesic(spec, (0, 0, 0), (1, 0, 0), 1.2, 1e-3)
    res = integrate_riccati(path, jacobi_along(path), (1.0, 0.0, -1.0))
    assert res.blown_up
    assert abs(res.blowup_time - 1.0) <= 1e-3

    spec = metrics.builtin("hyperbolic", c=1.0)
    p0, v0 = (0, 0, 1.0), (0, 0, 1.0)
    geo_errs, ric_errs = [], []
    for dt in (0.02, 0.01, 0.005):
        path = integrate_geodesic(spec, p0, v0, 1.0, dt)
        geo_errs.append(float(np.max(np.abs(path.xs[-1] - np.array([0, 0, math.e])))))
        r = integrate_riccati(path, jacobi_along(path), (0.0, 0.0, 0.0))
        ric_errs.append(abs(r.u[-1, 0] - math.tanh(1.0)))
    slopes = [
        math.log2(errs[k] / errs[k + 1]) for errs in (geo_errs, ric_errs) for k in range(2)
    ]
    for slope in slopes:
        assert abs(slope - 4.0) < 0.2
    print(
        f"\nACCEPTANCE 10 PASS: blow-up at {res.blowup_time:.4f}; "
        f"convergence slopes {['%.2f' % s for s in slopes]}"
    )
