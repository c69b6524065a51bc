import math

import numpy as np
import pytest

from riccati3 import metrics
from riccati3.curvature import pack_at, ricci_rank
from riccati3.obstruction import (
    DegenerateSystem,
    EigengapError,
    RankPrecondition,
    fibonacci_directions,
    jacobi_frame,
    derived_jacobi_crosscheck,
    model_pack,
    null_jacobi_directions,
    obstruction_values,
    rank1_checks,
    reconstruct_u,
)


def test_jacobi_frame_flat_isotropic():
    pk = pack_at(metrics.builtin("flat"), (0, 0, 0))
    fr = jacobi_frame(pk, np.array([0.3, 0.5, -0.2]))
    assert fr.isotropic and fr.A == 0.0 and fr.B == 0.0


def test_jacobi_frame_hyperbolic():
    pk = pack_at(metrics.builtin("hyperbolic", c=1.0), (0.1, 0.2, 0.8))
    v = np.array([0.4, -0.3, 0.6])
    fr = jacobi_frame(pk, v / pk.norm(v))
    assert fr.isotropic
    assert fr.t == pytest.approx(-2.0, abs=1e-9)
    from riccati3.obstruction import derived_jacobi_direct

    dj = derived_jacobi_direct(pk, v / pk.norm(v), fr)
    assert abs(dj.A1) < 1e-10 and abs(dj.B1) < 1e-10 and abs(dj.trace) < 1e-10


def test_jacobi_frame_orthonormal_and_matrix():
    spec = metrics.builtin("heisenberg", L=1.0)
    pk = pack_at(spec, (0.4, 0.7, -0.3))
    X = np.array([0.3, 0.8, 0.5])
    fr = jacobi_frame(pk, X)
    g = pk.g
    for u, w in ((fr.v, fr.w1), (fr.v, fr.w2), (fr.w1, fr.w2)):
        assert abs(float(u @ g @ w)) < 1e-10
    for u in (fr.v, fr.w1, fr.w2):
        assert float(u @ g @ u) == pytest.approx(1.0, abs=1e-10)
    from riccati3.curvature import jacobi_op

    J = jacobi_op(pk, X)
    m11 = float(fr.w1 @ g @ (J @ fr.w1))
    m22 = float(fr.w2 @ g @ (J @ fr.w2))
    m12 = float(fr.w1 @ g @ (J @ fr.w2))
    assert m11 == pytest.approx(fr.t / 2 + fr.A, abs=1e-9)
    assert m22 == pytest.approx(fr.t / 2 - fr.A, abs=1e-9)
    assert abs(m12) < 1e-9
    assert fr.A >= 0.0 and fr.B == 0.0


def test_jacobi_frame_algebraic_model():
    mp = model_pack(-2.0, -1.0)
    for x, y in ((1.0, 0.4), (0.3, 0.9)):
        fr = jacobi_frame(mp, np.array([x, y, 0.0]))
        assert fr.A == pytest.approx(abs(x * x - y * y) / 2, abs=1e-12)


def test_obstruction_flat_and_hyperbolic():
    for name in ("flat", "hyperbolic", "sphere"):
        spec = metrics.builtin(name)
        pk = pack_at(spec, tuple((lo + hi) / 2 for lo, hi in spec.box))
        for d in fibonacci_directions(16):
            ov = obstruction_values(pk, d / pk.norm(d))
            assert abs(ov.residual) / ov.scale < 1e-9
    pk = pack_at(metrics.builtin("hyperbolic"), (0.0, 0.0, 1.0))
    ov = obstruction_values(pk, np.array([0.3, 0.5, -0.2]))
    assert ov.D == pytest.approx(0.0, abs=1e-12)
    assert ov.P == pytest.approx(0.0, abs=1e-12)
    assert ov.D1 == pytest.approx(0.0, abs=1e-12)


def test_detector_separation():
    dirs = fibonacci_directions(64)
    for name in ("heisenberg", "sol"):
        spec = metrics.builtin(name)
        rng = np.random.default_rng(0)
        for _ in range(3):
            p = tuple(rng.uniform(lo, hi) for lo, hi in spec.box)
            pk = pack_at(spec, p)
            cnt = 0
            for d in dirs:
                ov = obstruction_values(pk, d / pk.norm(d))
                if abs(ov.residual) / ov.scale > 1e-6:
                    cnt += 1
            assert cnt >= 0.9 * len(dirs)


def test_homogeneity_degrees():
    pk = pack_at(metrics.builtin("heisenberg"), (0.4, 0.7, -0.3))
    X = np.array([0.3, 0.8, 0.5])
    o1 = obstruction_values(pk, X)
    o2 = obstruction_values(pk, 2.0 * X)
    for got, deg in (
        (o2.D1 / o1.D1, 3),
        (o2.D2 / o1.D2, 4),
        (o2.tr_JJ / o1.tr_JJ, 4),
        (o2.tr_JJp / o1.tr_JJp, 5),
        (o2.P / o1.P, 8),
        (o2.D / o1.D, 10),
        (o2.lhs / o1.lhs, 16),
        (o2.rhs / o1.rhs, 16),
    ):
        assert got == pytest.approx(2.0**deg, rel=1e-8)


def test_commutator_determinant_identity():
    rng = np.random.default_rng(7)
    for name in ("heisenberg", "sol", "h2xr"):
        spec = metrics.builtin(name)
        p = tuple(rng.uniform(lo, hi) for lo, hi in spec.box)
        pk = pack_at(spec, p)
        g = pk.g
        for _ in range(10):
            X = rng.standard_normal(3)
            ov = obstruction_values(pk, X)
            # oracle: det of the commutator of the 3x3 trace-free Jacobi and
            # derived Jacobi operators, restricted to the frame plane
            J3 = np.einsum("ijkl,j,k->li", pk.R, X, X)
            Jp3 = np.einsum("mijkl,m,j,k->li", pk.nablaR, X, X, X)
            v = ov.frame.v
            P_perp = np.eye(3) - np.outer(v, v @ g)
            Jo = J3 - 0.5 * ov.frame.t * P_perp
            Jpo = Jp3 - 0.5 * ov.D1 * P_perp
            C = Jo @ Jpo - Jpo @ Jo
            w = (ov.frame.w1, ov.frame.w2)
            want = float(np.linalg.det([[a @ g @ (C @ b) for b in w] for a in w]))
            assert ov.D == pytest.approx(want, rel=1e-8, abs=1e-12)
            assert ov.derived.trace == pytest.approx(ov.D1, rel=1e-8, abs=1e-8)


def test_c3_equivalence():
    """In the B = 0 eigenbasis the quartic form equals the detector residual
    up to the bookkeeping factor 4 (P carries a factor 2A)."""
    rng = np.random.default_rng(8)
    pk = pack_at(metrics.builtin("heisenberg"), (0.4, 0.7, -0.3))
    for _ in range(10):
        X = rng.standard_normal(3)
        ov = obstruction_values(pk, X)
        A, A1, B1 = ov.frame.A, ov.derived.A1, ov.derived.B1
        c3 = (
            A**2 * (A * ov.D2 - ov.D1 * A1) ** 2
            + (A * B1 * ov.D1) ** 2
            + 8.0 * (A**2 * B1) ** 2 * ov.frame.t
        )
        assert 4.0 * c3 == pytest.approx(ov.lhs - ov.rhs, rel=1e-7, abs=1e-10)


def test_reconstruct_u():
    with pytest.raises(DegenerateSystem):
        reconstruct_u(pack_at(metrics.builtin("flat"), (0, 0, 0)), np.array([1.0, 0, 0]))
    with pytest.raises(DegenerateSystem):
        reconstruct_u(
            pack_at(metrics.builtin("hyperbolic"), (0, 0, 1.0)), np.array([1.0, 0.2, 0])
        )
    pk = pack_at(metrics.builtin("heisenberg"), (0.4, 0.7, -0.3))
    X = np.array([0.3, 0.8, 0.5])
    uc = reconstruct_u(pk, X)
    ov = obstruction_values(pk, X)
    assert uc.consistency > 1e-3
    assert abs(ov.residual) / ov.scale > 1e-6  # both flag the same failure
    # the linear system itself is satisfied by construction
    A, B = ov.frame.A, ov.frame.B
    A1, B1 = ov.derived.A1, ov.derived.B1
    assert 4 * (uc.a * A + uc.b * B) == pytest.approx(ov.D1, rel=1e-9)
    assert 4 * (uc.a * A1 + uc.b * B1) == pytest.approx(ov.D2, rel=1e-9)


def test_null_jacobi_directions():
    assert np.allclose(null_jacobi_directions(-1.0, -1.0)[0], [1, 0, 0])
    for l2, l3 in ((-2.0, -1.0), (-1.0, -2.0), (-3.0, -0.5)):
        mp = model_pack(l2, l3)
        for w in null_jacobi_directions(l2, l3):
            assert float(w @ w) == pytest.approx(1.0, abs=1e-12)
            fr = jacobi_frame(mp, w)
            assert fr.A < 1e-12
    ws = null_jacobi_directions(-2.0, -1.0)
    assert np.allclose(np.abs(ws[0]), [1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-12)
    ws = null_jacobi_directions(-1.0, -2.0)
    assert np.allclose(np.abs(ws[0]), [1 / math.sqrt(2), 0, 1 / math.sqrt(2)], atol=1e-12)
    with pytest.raises(ValueError):
        null_jacobi_directions(1.0, -1.0)


def test_derived_jacobi_crosscheck():
    dA1, dB1 = derived_jacobi_crosscheck(metrics.builtin("heisenberg"), (0.4, 0.7, -0.3), np.array([0.3, 0.8, 0.5]))
    assert abs(dA1) < 1e-4 and abs(dB1) < 1e-4
    dA1, dB1 = derived_jacobi_crosscheck(metrics.builtin("sol"), (0.1, 0.2, 0.3), np.array([1.0, 0.0, 0.0]))
    assert abs(dA1) < 1e-4 and abs(dB1) < 1e-4
    with pytest.raises(EigengapError):
        derived_jacobi_crosscheck(metrics.builtin("flat"), (0, 0, 0), np.array([1.0, 0, 0]))


def test_rank1_checks_sol():
    rep = rank1_checks(metrics.builtin("sol"), (0.1, 0.2, 0.3))
    assert abs(rep.lie_e3_scal) < 1e-9
    assert abs(rep.div_e3) < 1e-9
    assert np.allclose(np.sort(rep.q_eigenvalues), [-2.0, 2.0], atol=1e-6)
    assert rep.defect_min < 1e-6  # attained at the axes
    assert rep.defect_max == pytest.approx(1.0, abs=1e-6)
    assert rep.flagged
    assert abs(np.trace(rep.Q)) <= abs(rep.div_e3) + 1e-9


def test_rank1_checks_precondition():
    with pytest.raises(RankPrecondition):
        rank1_checks(metrics.builtin("flat"), (0, 0, 0))


def test_rank1_checks_perturbed_sol():
    comps = {
        "g11": "exp(2*x3)*(1 + 0.01*x1^2)",
        "g12": "0",
        "g13": "0",
        "g22": "exp(-2*x3)",
        "g23": "0",
        "g33": "1",
    }
    spec = metrics.custom(comps, name="sol_perturbed")
    p = (0.05, 0.1, 0.0)
    rr = ricci_rank(pack_at(spec, p), tol=2e-3)
    if rr.rank == 1:
        rep = rank1_checks(spec, p, rr)
        assert rep.defect_max > 0.1


def test_fibonacci_directions_deterministic():
    d1 = fibonacci_directions(64)
    d2 = fibonacci_directions(64)
    assert np.array_equal(d1, d2)
    assert np.allclose(np.linalg.norm(d1, axis=1), 1.0, atol=1e-12)
