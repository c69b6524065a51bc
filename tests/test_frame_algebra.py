import math
from pathlib import Path

import numpy as np
import pytest

from riccati3.frame_algebra import (
    CASES,
    R_SILVER,
    FrameData,
    a1_crosscheck,
    bianchi_frame_residuals,
    consistent_frame,
    constraint_instance,
    contradiction_certificates,
    eds_closure,
    frame_from_text,
    frame_to_text,
    isolate_roots,
    rigid_frame,
    ric111_residual,
    root_identities,
    special_direction_polys,
)

GOLDEN = Path(__file__).parent / "golden" / "frame_seed7.txt"


def _zero_gamma_frame(mode="consistent"):
    fd = consistent_frame(0, mode)
    fd.gamma[:] = 0.0
    if mode == "consistent":
        # re-solve the constraints with zero connection coefficients
        L3l2 = fd.L(3, 2)
        fd.dlam = np.array([[0.0, 0.0], [0.0, 0.0], [L3l2, L3l2]])
    return fd


def test_consistent_frame_zero_gamma():
    fd = _zero_gamma_frame()
    assert fd.L(2, 2) == 0.0 and fd.L(1, 2) == 0.0
    assert np.max(np.abs(bianchi_frame_residuals(fd))) < 1e-12


def test_consistent_frame_seed7():
    fd = consistent_frame(7)
    assert fd.lambda2 < fd.lambda3 < 0
    assert np.max(np.abs(bianchi_frame_residuals(fd))) < 1e-12


def test_free_frame_generically_violates():
    fd = consistent_frame(7, "free")
    assert np.max(np.abs(bianchi_frame_residuals(fd))) > 1e-3


def test_jacf_a_polynomials():
    fd = FrameData(-2.0, -1.0, np.zeros((3, 2)), np.zeros((3, 3, 3)), "free")
    assert np.allclose(special_direction_polys(fd, "a1").a, [-0.5, 0, 0.5])
    assert np.allclose(special_direction_polys(fd, "a2").a, [-1.0, 0, -0.5])
    assert np.allclose(special_direction_polys(fd, "a3").a, [1.0, 0, 0.5])


def test_zero_gamma_bundle():
    fd = _zero_gamma_frame("free")
    for case in CASES:
        b = special_direction_polys(fd, case)
        assert np.max(np.abs(b.c)) == 0.0
        assert np.max(np.abs(b.b1)) == 0.0


def test_b1_factor_factorization_sweep():
    worst = 0.0
    for seed in range(1000):
        fd = consistent_frame(seed, "free")
        for case in CASES:
            worst = max(worst, special_direction_polys(fd, case).b1_factor_residual())
    assert worst < 1e-10


def test_d12u_reduction_on_constraint_manifold():
    for seed in range(50):
        fd = consistent_frame(seed, "consistent")
        closed = special_direction_polys(fd, "a1").d1
        raw_fd = FrameData(fd.lambda2, fd.lambda3, fd.dlam, fd.gamma, "free")
        raw = special_direction_polys(raw_fd, "a1").d1
        assert np.max(np.abs(closed - raw)) < 1e-10
        # d123-bis t^3 coefficient equals L2 lambda2 only under the constraints
        d123 = special_direction_polys(fd, "a3").d1
        assert d123[3] == pytest.approx(fd.L(2, 2), abs=1e-12)


def test_a1_crosscheck_consistent_and_free():
    for seed in range(200):
        fd = consistent_frame(seed, "consistent")
        r13, r23 = a1_crosscheck(fd)
        assert r13 < 1e-10 and r23 < 1e-10
    bad = 0
    for seed in range(50):
        fd = consistent_frame(seed, "free")
        _, r23 = a1_crosscheck(fd)
        bad += r23 > 1e-3
    assert bad >= 45  # generically nonzero off the constraint manifold


def test_root_identities_consistent_and_free():
    for seed in range(200):
        fd = consistent_frame(seed, "consistent")
        res = root_identities(fd)
        assert max(abs(v) for v in res.values()) < 1e-9
    bad = 0
    for seed in range(50):
        fd = consistent_frame(seed, "free")
        res = root_identities(fd)
        bad += abs(res["re_d123"]) > 1e-3
    assert bad >= 45


def test_ric111_examples():
    fd = rigid_frame("eds1", -1.0, (1, 1))
    assert abs(ric111_residual(fd)) < 1e-12
    fd0 = _zero_gamma_frame("free")
    assert ric111_residual(fd0) == pytest.approx(0.5 * (fd0.lambda2 + fd0.lambda3) ** 2)
    fd = FrameData(-2.0, -1.0, np.zeros((3, 2)), np.zeros((3, 3, 3)), "free")
    fd.gamma[0, 0, 1] = 1.5  # Gamma_112^2 = 9/4 solves the quadratic
    fd.gamma[0, 1, 0] = -1.5
    assert ric111_residual(fd) == pytest.approx(0.0, abs=1e-12)


def test_rigid_frames_tables():
    r = R_SILVER
    fd = rigid_frame("eds1", -1.0, (1, 1))
    assert fd.lambda3 == pytest.approx(r * -1.0)
    assert fd.G(1, 1, 2) == pytest.approx(-(r - 1) / 2 * math.sqrt(2))
    assert fd.G(1, 1, 3) == pytest.approx((r - 1) / (2 * math.sqrt(r)) * math.sqrt(2))
    fd5 = rigid_frame("eds2", -1.0, (1, 1))
    assert fd5.G(2, 2, 3) == pytest.approx((3 * r - 1) / (2 * math.sqrt(r)) * math.sqrt(2))
    for which in ("eds1", "eds2"):
        for e1 in (1, -1):
            for e2 in (1, -1):
                fd = rigid_frame(which, -1.0, (e1, e2))
                assert np.max(np.abs(bianchi_frame_residuals(fd))) < 1e-12
                assert abs(ric111_residual(fd)) < 1e-12


def test_eds_closure_contradictions():
    for which in ("eds1", "eds2"):
        for e1 in (1, -1):
            for e2 in (1, -1):
                v = eds_closure(which, -1.0, (e1, e2))
                assert v.contradiction, (which, e1, e2, v.certificate)
                assert v.structure_residual < 1e-9
                assert abs(v.determinant) > 1e-3


def test_eds_closure_degenerate_ratio():
    v = eds_closure("eds2", -1.0, (1, 1), r_override=math.sqrt(2.0) - 1.0)
    assert not v.contradiction
    assert abs(v.determinant) < 1e-9
    assert "determinant ~ 0" in v.certificate


def test_contradiction_certificates():
    rep = contradiction_certificates()
    assert rep["r3+6r2+21r+8"] == []
    assert rep["(r-1)(r2+4)"] == []
    assert abs(rep["silver_ratio_root"] - (3 - 2 * math.sqrt(2))) < 1e-12
    # positivity of the first cubic at the left endpoint
    assert 8.0 > 0.0


def test_isolate_roots_counts_a_grid_zero_once():
    """A root on a scan point, after a value of the other sign, is one root."""
    assert isolate_roots([0.0, 1.0], -1.0, 1.0, 4) == [0.0]


def test_isolate_roots_finds_roots_at_the_last_scan_point():
    # a root in the last cell, just before the last scan point
    (root,) = isolate_roots([-1.0, 1.0], 0.0, 1.0 + 2e-9, 2)
    assert abs(root - 1.0) < 1e-14
    # an exact zero on the last scan point, after a value of the same sign as before it
    lo, hi, n = -1.0, 1.0, 4
    last = np.linspace(lo + (hi - lo) * 1e-9, hi - (hi - lo) * 1e-9, n + 1)[-1]
    assert isolate_roots([last, -1.0], lo, hi, n) == [last]


def test_serialization_roundtrip_and_golden():
    fd = consistent_frame(7)
    text = frame_to_text(fd)
    fd2 = frame_from_text(text)
    assert np.array_equal(fd.dlam, fd2.dlam)
    assert np.array_equal(fd.gamma, fd2.gamma)
    assert (fd.lambda2, fd.lambda3, fd.mode) == (fd2.lambda2, fd2.lambda3, fd2.mode)
    assert text == GOLDEN.read_text(encoding="utf-8")


def _synthetic_pack(fd):
    """CurvaturePack on the eigenframe data: g = I, Ric = diag(0, l2, l3),
    curvature from the Schouten wedge, nabla ric / nabla R assembled from the
    derivative table and connection coefficients.  Independent of the
    polynomial expansions under test.
    """
    from riccati3.obstruction import model_pack

    pk = model_pack(fd.lambda2, fd.lambda3)
    lam = np.array([0.0, fd.lambda2, fd.lambda3])
    dlam = np.zeros((3, 3))  # dlam[m, i] = L_{e_m} lambda_i
    dlam[:, 1] = fd.dlam[:, 0]
    dlam[:, 2] = fd.dlam[:, 1]
    G = fd.gamma

    nric = np.zeros((3, 3, 3))
    for m in range(3):
        for i in range(3):
            for j in range(3):
                nric[m, i, j] = (
                    (dlam[m, i] if i == j else 0.0)
                    - lam[j] * G[m, i, j]
                    - lam[i] * G[m, j, i]
                )
    dscal = dlam[:, 1] + dlam[:, 2]
    nR = np.zeros((3, 3, 3, 3, 3))
    eye = np.eye(3)
    for m in range(3):
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        nR[m, i, j, k, l] = (
                            eye[j, k] * nric[m, i, l]
                            - nric[m, i, k] * eye[j, l]
                            + nric[m, j, k] * eye[i, l]
                            - eye[i, k] * nric[m, j, l]
                            - 0.5 * dscal[m] * (eye[j, k] * eye[i, l] - eye[i, k] * eye[j, l])
                        )
    pk.nabla_ric = nric
    pk.nablaR = nR
    return pk


def test_bundles_match_tensor_pipeline():
    """The polynomial bundles agree with the obstruction module's projected
    contractions of the synthetic curvature data, at every case and random t."""
    from numpy.polynomial import polynomial as npoly

    from riccati3.obstruction import JacobiFrame, derived_jacobi_direct

    rng = np.random.default_rng(12)
    basis = np.eye(3)
    for seed in range(20):
        fd = consistent_frame(seed, "free")
        pk = _synthetic_pack(fd)
        for case, (i, j, w) in zip(CASES, ((0, 1, 2), (0, 2, 1), (1, 2, 0))):
            bundle = special_direction_polys(fd, case)
            for t in rng.uniform(-2.0, 2.0, 3):
                X = t * basis[i] + basis[j]
                n2 = t * t + 1.0
                w2 = (basis[i] - t * basis[j]) / math.sqrt(n2)
                frame = JacobiFrame(
                    X, X / math.sqrt(n2), basis[w], w2, 0.0, 0.0, 0.0, False
                )
                dj = derived_jacobi_direct(pk, X, frame)
                a1_val = float(npoly.polyval(t, bundle.a1))
                b1_val = float(npoly.polyval(t, bundle.b1)) / math.sqrt(n2)
                d1_val = float(npoly.polyval(t, bundle.d1))
                assert dj.A1 == pytest.approx(a1_val, rel=1e-10, abs=1e-10)
                assert dj.B1 == pytest.approx(b1_val, rel=1e-10, abs=1e-10)
                # free mode stores the raw derivative expansion in every case
                D1 = float(np.einsum("kij,k,i,j->", pk.nabla_ric, X, X, X))
                assert D1 == pytest.approx(d1_val, rel=1e-10, abs=1e-10)
                # the chosen basis diagonalizes the trace-free Jacobi operator
                from riccati3.curvature import jacobi_op

                J = jacobi_op(pk, X)
                a_val = float(npoly.polyval(t, bundle.a))
                m11 = float(basis[w] @ (J @ basis[w]))
                m22 = float(w2 @ (J @ w2))
                m12 = float(basis[w] @ (J @ w2))
                assert 0.5 * (m11 - m22) == pytest.approx(a_val, rel=1e-10, abs=1e-12)
                assert abs(m12) < 1e-10


def test_constraint_instance_coupling():
    from riccati3 import polyclass

    fd = consistent_frame(7)
    rng = np.random.default_rng(0)
    for case in CASES:
        data = constraint_instance(fd, case, rng=rng)
        inst = polyclass.instance_from_dict(data)
        verdict, _ = polyclass.classify(inst)
        assert verdict.branch in ("Infeasible", "CZero")  # random d2 has no reason to solve it
