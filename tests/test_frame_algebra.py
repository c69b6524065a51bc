import math
from pathlib import Path

import numpy as np
import pytest
from oracles import column_padd, column_pmul, constraint_instance, frame_from_text, model_pack, reference_bundle

from riccati3 import cli, frame_algebra
from riccati3.frame_algebra import (
    CASES,
    GAMMA_KEYS,
    R_SILVER,
    FrameData,
    _eval_at_imag,
    _roots_in_unit_interval,
    a1_crosscheck,
    bianchi_frame_residuals,
    consistent_frame,
    consistent_from_free,
    contradiction_certificates,
    eds_closure,
    frame_to_text,
    free_frames,
    rigid_frame,
    ric111_residual,
    root_identities,
    special_direction_polys,
    stack_frames,
)

GOLDEN = Path(__file__).parent / "golden" / "frame_seed7.txt"


def _zero_gamma_frame(mode="consistent"):
    fd = consistent_frame(0, mode)
    fd.gamma[:] = 0.0
    if mode == "consistent":
        # re-solve the constraints with zero connection coefficients
        L3l2 = fd.L(3, 2)
        fd = fd._replace(dlam=np.array([[0.0, 0.0], [0.0, 0.0], [L3l2, L3l2]]))
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


def _d1_closed_forms(fd):
    """Case a1's d1 and case a3's t^3 coefficient of d1 in the closed forms
    the five linear relations reduce them to: s a with case a1's
    a = (lambda3, 0, lambda3 - lambda2) / 2 and
    s = 4 lambda2 / (lambda2 - lambda3) G112, and L_{e2} lambda2 =
    2 lambda2 lambda3 / (lambda2 - lambda3) G112."""
    l2, l3, G112 = fd.lambda2, fd.lambda3, fd.G(1, 1, 2)
    s = (4.0 * l2 / (l2 - l3)) * G112
    return (s * l3 / 2.0, 0.0, s * (l3 - l2) / 2.0), 2.0 * l2 * l3 / (l2 - l3) * G112


def test_d12u_reduction_on_constraint_manifold():
    """On consistent frames the general expansion of case a1's d1 is the
    closed form s a, its middle coefficient exactly 0, and case a3's t^3
    coefficient is the closed L_{e2} lambda2; off the relations neither holds."""
    batch = _drawn(np.random.default_rng(1), 200, "consistent")
    for fd in [consistent_frame(seed, "consistent") for seed in range(50)] + [batch]:
        closed, t3 = _d1_closed_forms(fd)
        d1 = special_direction_polys(fd, "a1").d1
        assert np.all(np.asarray(d1[1]) == 0.0)
        assert np.max(np.abs(_rows(d1) - _rows(closed))) < 1e-10
        d123 = special_direction_polys(fd, "a3").d1
        assert np.max(np.abs(np.subtract(d123[3], t3))) < 1e-12
    free = consistent_frame(7, "free")
    closed, t3 = _d1_closed_forms(free)
    assert np.max(np.abs(np.subtract(special_direction_polys(free, "a1").d1, closed))) > 1e-3
    assert abs(special_direction_polys(free, "a3").d1[3] - t3) > 1e-3


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
    (root,) = rep["2(1-r)2-(1+r)2"]
    assert rep["silver_ratio_root"] == root
    assert abs(root - (3 - 2 * math.sqrt(2))) < 1e-15


def test_two_close_roots_are_not_certified_root_free():
    """1e6 (r - 0.3)(r - 0.30001) has two roots in (0, 1), 1e-5 apart: the
    sign-change count cannot tell them from none, so it raises."""
    with pytest.raises(ValueError, match="2 sign changes"):
        _roots_in_unit_interval([90003, -600010, 1000000])


def test_endpoint_roots_are_not_counted():
    assert _roots_in_unit_interval([0, -1, 1]) == []  # r^2 - r = r (r - 1)
    # a root at 0 beside one inside: r (2r - 1)
    (root,) = _roots_in_unit_interval([0, -1, 2])
    assert abs(root - 0.5) < 1e-15


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
    return pk._replace(nabla_ric=nric, nablaR=nR)


def _bundle_row(bundle, k):
    """Row k of a batch's bundle, each polynomial a tuple of floats."""
    return bundle._replace(**{name: tuple(_rows(getattr(bundle, name))[k]) for name in _FIELDS})


def _pipeline_bundles():
    """(frame, its three bundles), free and consistent, for the frames of 20
    seeds one at a time and for the rows of a 6-frame batch, each row's
    bundles read from the batch's."""
    out = []
    for mode in ("free", "consistent"):
        out += [(fd, [special_direction_polys(fd, case) for case in CASES])
                for fd in (consistent_frame(seed, mode) for seed in range(20))]
        batch = _drawn(np.random.default_rng(3), 6, mode)
        bundles = [special_direction_polys(batch, case) for case in CASES]
        out += [(_row(batch, k), [_bundle_row(b, k) for b in bundles]) for k in range(6)]
    return out


def test_bundles_match_tensor_pipeline():
    """The polynomial bundles agree with the obstruction module's projected
    contractions of the synthetic curvature data, at every case and random t,
    on free and consistent frames, one frame at a time and as batch rows;
    c is checked through the pipeline's B1 = -(t^2+1) c / |X|."""
    from numpy.polynomial import polynomial as npoly

    from oracles import JacobiFrame, derived_jacobi_direct

    from riccati3.curvature import jacobi_op

    rng = np.random.default_rng(12)
    basis = np.eye(3)
    for fd, bundles in _pipeline_bundles():
        pk = _synthetic_pack(fd)
        for bundle, (i, j, w) in zip(bundles, ((0, 1, 2), (0, 2, 1), (1, 2, 0))):
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
                c_val = float(npoly.polyval(t, bundle.c))
                assert dj.B1 == pytest.approx(-n2 * c_val / math.sqrt(n2), rel=1e-10, abs=1e-10)
                # d1 is the raw derivative expansion in every case and mode
                D1 = float(np.einsum("kij,k,i,j->", pk.nabla_ric, X, X, X))
                assert D1 == pytest.approx(d1_val, rel=1e-10, abs=1e-10)
                # the chosen basis diagonalizes the trace-free Jacobi operator
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


# --- frame batches ------------------------------------------------------


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


_FIELDS = ("a", "c", "d1", "a1", "b1")


@pytest.mark.parametrize("mode", ["free", "consistent"])
def test_bundles_equal_the_case_by_case_expansion(mode):
    """Every field of every bundle is bitwise the case-by-case expansion's
    (``reference_bundle``), zero signs included, at a batch, at its rows and
    at one frame, over several seeds and at zero connection coefficients.
    Only case a1's d1 on consistent frames differs: the reference takes the
    closed form s a there, and the two agree within 1e-15 relative."""
    # zero connection coefficients in an antisymmetric table (-0.0 below the diagonal)
    zero = consistent_frame(0, "free")._replace(gamma=frame_algebra._gamma_from_nine(np.zeros(9)))
    frames = [zero if mode == "free" else consistent_from_free(zero)]
    for seed in range(6):
        batch = _drawn(np.random.default_rng(seed), 40, mode)
        frames += [batch, _row(batch, 0), _row(batch, 39), consistent_frame(seed, mode)]
    for fd in frames:
        for case in CASES:
            got, want = special_direction_polys(fd, case), reference_bundle(fd, case)
            for name in _FIELDS:
                g, w = _rows(getattr(got, name)), _rows(getattr(want, name))
                if (mode, case, name) == ("consistent", "a1", "d1"):
                    assert g.shape == w.shape
                    assert np.all(np.abs(g - w) <= 1e-15 * np.abs(w)), (case, name)
                else:
                    assert len(getattr(got, name)) == len(getattr(want, name))
                    assert _bits(g) == _bits(w), (mode, case, name)


def test_mode_is_a_label_no_bundle_reads():
    """Relabelling a frame's mode leaves every bundle bitwise the same, at a
    batch and at one frame: no formula reads the label."""
    for seed in range(4):
        for mode, other in (("free", "consistent"), ("consistent", "free")):
            batch = _drawn(np.random.default_rng(seed), 20, mode)
            for fd in (batch, _row(batch, 7)):
                for case in CASES:
                    got = special_direction_polys(fd._replace(mode=other), case)
                    want = special_direction_polys(fd, case)
                    for name in _FIELDS:
                        assert _bits(_rows(getattr(got, name))) == _bits(_rows(getattr(want, name))), (case, name)


def _row(fd, k):
    """Row k of a batch as a one-frame FrameData."""
    return FrameData(float(fd.lambda2[k]), float(fd.lambda3[k]), fd.dlam[k], fd.gamma[k], fd.mode)


def _drawn(rng, n, mode):
    """n frames of mode drawn from rng by ``free_frames``."""
    fd = free_frames(rng, n)
    return fd if mode == "free" else consistent_from_free(fd)


def _rows(cols):
    """Columns (floats at one frame, (n,) arrays or structural floats at a
    batch) as one array whose leading axis is the frame axis at a batch."""
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def _batched_values(fd):
    """Every batched function's values at fd, as (name, array) pairs whose
    leading axis is the frame axis at a batch."""
    out = [
        ("lambda2", fd.lambda2),
        ("lambda3", fd.lambda3),
        ("dlam", fd.dlam),
        ("gamma", fd.gamma),
        ("bianchi", _rows(bianchi_frame_residuals(fd))),
        ("a1_crosscheck", _rows(a1_crosscheck(fd))),
    ]
    for case in CASES:
        b = special_direction_polys(fd, case)
        out += [(f"{case}.{name}", _rows(getattr(b, name))) for name in _FIELDS]
        out.append((f"{case}.b1_factor_residual", b.b1_factor_residual()))
        re, im = _eval_at_imag(b.a1, np.sqrt(fd.lambda2 / fd.lambda3))
        out += [(f"{case}.a1_at_imag_re", re), (f"{case}.a1_at_imag_im", im)]
    out += [(f"roots.{k}", v) for k, v in root_identities(fd).items()]
    return out


def test_one_frame_bundles_are_the_batch_rows_in_shape_and_bits():
    """A bundle at one frame has the coefficient counts of a batch, and its
    coefficients are the batch columns' entries, also where coefficients
    vanish (zero connection coefficients) and in both modes."""
    for mode in ("free", "consistent"):
        frames = [_zero_gamma_frame(mode), consistent_frame(7, mode)]
        batch = stack_frames(frames)
        for case in CASES:
            cols = special_direction_polys(batch, case)
            for k, fd in enumerate(frames):
                one = special_direction_polys(fd, case)
                for name in _FIELDS:
                    got, want = getattr(one, name), _rows(getattr(cols, name))[k]
                    assert len(got) == len(want) and _bits(got) == _bits(want), (mode, case, k, name)
                assert len(one.b1) == 5


@pytest.mark.parametrize("mode", ["free", "consistent"])
@pytest.mark.parametrize("size", [1, 2, 7])
def test_batch_rows_are_the_one_frame_values(mode, size):
    """A batch of n frames drawn at once has as rows the n frames drawn one
    at a time from an equal generator, and each row's values are bitwise
    that one frame's values."""
    batch = _batched_values(_drawn(np.random.default_rng(11), size, mode))
    rng = np.random.default_rng(11)
    for k in range(size):
        one = _row(_drawn(rng, 1, mode), 0)
        assert isinstance(one.lambda2, float) and isinstance(one.G(1, 1, 2), float)
        for (name, rows), (name1, value) in zip(batch, _batched_values(one)):
            assert name == name1
            assert _bits(rows[k]) == _bits(value), (mode, size, k, name)


def test_batch_permuted_seeds_permute_rows():
    """Permuting a batch's frames permutes the rows of every batched value."""
    perm = np.random.default_rng(1).permutation(6)
    for mode in ("free", "consistent"):
        fd = _drawn(np.random.default_rng(5), 6, mode)
        permuted = FrameData(*(x[perm] for x in fd[:4]), fd.mode)
        for (name, rows), (_, prows) in zip(_batched_values(fd), _batched_values(permuted)):
            assert _bits(np.asarray(rows)[perm]) == _bits(prows), (mode, name)


def test_free_and_consistent_frames_share_one_draw():
    for seed in (0, 3, 7, 123, 99999):
        free = consistent_frame(seed, "free")
        cons = consistent_frame(seed, "consistent")
        assert cons.dlam[2, 0] == free.dlam[0, 0]
        assert _bits(cons.gamma) == _bits(free.gamma)
        assert (cons.lambda2, cons.lambda3) == (free.lambda2, free.lambda3)
        assert _bits(consistent_from_free(free).dlam) == _bits(cons.dlam)
        # the free frame is the generator's uniform draws, in order
        rng = np.random.default_rng(seed)
        assert free.lambda2 == -rng.uniform(2.0, 4.0)
        assert free.lambda3 == -rng.uniform(0.2, 1.5)
        nine = rng.uniform(-1.0, 1.0, size=9)
        assert [free.G(i, j, k) for (i, j, k) in GAMMA_KEYS] == list(nine)
        assert _bits(free.dlam) == _bits(rng.uniform(-1.0, 1.0, size=(3, 2)))


def test_consistent_frame_takes_one_integer_seed():
    """A seed's frame is the first frame its generator draws; a numpy integer
    seed gives the same frame, a sequence of seeds raises TypeError and a
    negative seed ValueError."""
    for mode in ("free", "consistent"):
        want = _row(_drawn(np.random.default_rng(7), 1, mode), 0)
        for seed in (7, np.int64(7), np.uint64(7)):
            got = consistent_frame(seed, mode)
            assert (got.lambda2, got.lambda3, got.mode) == (want.lambda2, want.lambda3, mode)
            assert _bits(got.dlam) == _bits(want.dlam) and _bits(got.gamma) == _bits(want.gamma)
        for bad in ([7], range(3), np.array([7, 8]), 7.0):
            with pytest.raises(TypeError):
                consistent_frame(bad, mode)
        with pytest.raises(ValueError):
            consistent_frame(-1, mode)


def test_b1_and_c_are_shared_by_free_and_consistent_frames():
    """b1 and c read only lambda and Gamma, which a draw's free and consistent
    frames share, so the sweep factors b1 on the consistent frames."""
    free = free_frames(np.random.default_rng(0), 1000)
    cons = consistent_from_free(free)
    assert not np.array_equal(free.dlam, cons.dlam)
    for case in CASES:
        f, c = special_direction_polys(free, case), special_direction_polys(cons, case)
        assert _bits(f.b1) == _bits(c.b1) and _bits(f.c) == _bits(c.c), case


def test_rigid_batch_rows_are_the_one_frame_residuals():
    signs = [(which, (e1, e2)) for which in ("eds1", "eds2") for e1 in (1, -1) for e2 in (1, -1)]
    frames = [rigid_frame(which, -1.0, eps) for which, eps in signs]
    batch = stack_frames(frames)
    bianchi, ric = _rows(bianchi_frame_residuals(batch)), ric111_residual(batch)
    assert bianchi.shape == (8, 3) and ric.shape == (8,)
    for k, ((which, eps), fd) in enumerate(zip(signs, frames)):
        assert _bits(bianchi[k]) == _bits(bianchi_frame_residuals(fd)), (which, eps)
        assert _bits(ric[k]) == _bits(ric111_residual(fd)), (which, eps)
        assert eds_closure(which, -1.0, eps, fd=fd) == eds_closure(which, -1.0, eps)


def _draw_factors(rng, rows, n):
    """rows polynomials of n coefficients spread over twelve decades, with no
    trailing zero to trim."""
    x = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-6, 7, (rows, n))
    x[:, -1] = np.where(np.abs(x[:, -1]) < 1e-6, 1.0, x[:, -1])
    return x


def test_pmul_batch_rows_are_one_frame_products():
    """A product of column polynomials has as its batch rows, bitwise, the
    products at one frame, factors of any length included."""
    rng = np.random.default_rng(5)
    for na in (1, 2, 3, 6, 14):
        for nb in (1, 3, 5, 12, 30):
            a, b = _draw_factors(rng, 40, na), _draw_factors(rng, 40, nb)
            got = _rows(column_pmul(tuple(a.T), tuple(b.T)))
            assert got.shape == (40, na + nb - 1)
            for x, y, row in zip(a, b, got):
                assert _bits(column_pmul(tuple(x), tuple(y))) == _bits(row), (na, nb)


def test_pmul_within_ulps_of_exact_product():
    """A coefficient of n terms is within n ulps of the exact rational product,
    the ulp taken of the sum of the terms' magnitudes (the coefficient's own
    size when no term cancels, as with positive factors)."""
    from fractions import Fraction

    rng = np.random.default_rng(6)
    sizes = ((1, 4), (3, 3), (5, 2), (12, 17))
    pairs = [(_draw_factors(rng, 10, na), _draw_factors(rng, 10, nb)) for na, nb in sizes]
    pairs.append(tuple(rng.uniform(0.5, 2.0, (2, 10, 9))))
    for a, b in pairs:
        for x, y in zip(a, b):
            for k, c in enumerate(column_pmul(tuple(x), tuple(y))):
                terms = [Fraction(x[j]) * Fraction(y[k - j]) for j in range(len(x)) if 0 <= k - j < len(y)]
                ulp = Fraction(math.ulp(float(sum(abs(t) for t in terms))))
                assert abs(Fraction(c) - sum(terms)) <= len(terms) * ulp, (len(x), len(y), k)


def _one_frame_sweep(seed, count):
    """The frame-algebra worst residuals computed one frame at a time, each
    frame drawn alone from one ``default_rng(seed)``."""
    b1 = cross = roots = bianchi = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(count):
        fd = _row(free_frames(rng, 1), 0)
        for case in CASES:
            b1 = max(b1, special_direction_polys(fd, case).b1_factor_residual())
        fd = consistent_from_free(fd)
        cross = max(cross, *a1_crosscheck(fd))
        roots = max(roots, max(abs(v) for v in root_identities(fd).values()))
        bianchi = max(bianchi, float(np.max(np.abs(bianchi_frame_residuals(fd)))))
    return {
        "b1_factor_worst": b1,
        "a1_crosscheck_worst": cross,
        "root_identities_worst": roots,
        "bianchi_worst": bianchi,
    }


@pytest.mark.parametrize("seed,count", [(0, 0), (4, 1), (9, 3), (2, cli.FRAME_BLOCK + 44)])
def test_frame_sweep_blocks_match_the_one_frame_loop(seed, count):
    checks = cli._frame_algebra_checks(seed, count)
    want = _one_frame_sweep(seed, count)
    for key, value in want.items():
        assert isinstance(checks[key], float)
        assert _bits(checks[key]) == _bits(value), (seed, count, key)
    if count == 0:
        assert all(checks[key] == 0.0 for key in want)
    assert checks["rigid_tables_ok"] and checks["eds_contradictions_ok"]


def _separate_sweep(seed, count):
    """The frame-algebra checks with each input built where it is used: free
    frames and their three bundles for the b1 factorization, the consistent
    frames' bundles built by the a1 cross-check and again by the root
    identities, and each rigid frame built for its table checks and again by
    its EDS closure."""
    worst = dict.fromkeys(cli.FRAME_LIMITS, 0.0)
    rng = np.random.default_rng(seed)
    for start in range(0, count, cli.FRAME_BLOCK):
        free = free_frames(rng, min(cli.FRAME_BLOCK, count - start))
        cons = consistent_from_free(free)
        r13, r23 = a1_crosscheck(cons)
        roots = root_identities(cons)
        block = {
            "b1_factor_worst": max(np.max(special_direction_polys(free, case).b1_factor_residual()) for case in CASES),
            "a1_crosscheck_worst": max(np.max(r13), np.max(r23)),
            "root_identities_worst": max(np.max(np.abs(v)) for v in roots.values()),
            "bianchi_worst": np.max(np.abs(bianchi_frame_residuals(cons))),
        }
        for key, value in block.items():
            worst[key] = max(worst[key], float(value))
    tables_ok = eds_ok = True
    for which in ("eds1", "eds2"):
        for e1 in (1, -1):
            for e2 in (1, -1):
                fd = rigid_frame(which, -1.0, (e1, e2))
                tables_ok = tables_ok and bool(
                    np.max(np.abs(bianchi_frame_residuals(fd))) < 1e-12 and abs(ric111_residual(fd)) < 1e-12
                )
                eds_ok = eds_ok and eds_closure(which, -1.0, (e1, e2)).contradiction
    return {**worst, "rigid_tables_ok": tables_ok, "eds_contradictions_ok": eds_ok}


@pytest.mark.parametrize("seed,count", [(0, 0), (7, 25), (3, cli.FRAME_BLOCK + 44)])
def test_frame_sweep_equals_the_separately_built_sweep(seed, count):
    got, want = cli._frame_algebra_checks(seed, count), _separate_sweep(seed, count)
    assert list(got) == list(want)
    for key, value in want.items():
        assert type(got[key]) is type(value) and _bits(got[key]) == _bits(value), (seed, count, key)


def test_frame_sweep_builds_each_bundle_once_per_block(monkeypatch):
    """A block of the sweep builds the three bundles of its consistent frames
    once, each from the frame alone: all three serve the b1 factorization,
    the a1 cross-check and the root identities.  Three bundle calls, not
    nine, and no p polynomials built apart from them."""
    calls = []
    build = frame_algebra.special_direction_polys

    def counted(fd, case):
        calls.append((len(fd.gamma), case))
        return build(fd, case)

    monkeypatch.setattr(frame_algebra, "special_direction_polys", counted)
    cli._frame_algebra_checks(3, cli.FRAME_BLOCK + 5)
    assert calls == [(cli.FRAME_BLOCK, case) for case in CASES] + [(5, case) for case in CASES]
    assert not hasattr(frame_algebra, "p_polys")


def test_shared_bundles_give_the_same_residuals():
    fd = _drawn(np.random.default_rng(5), 12, "consistent")
    bundles = [special_direction_polys(fd, case) for case in CASES]
    for got, want in zip(a1_crosscheck(fd, bundles), a1_crosscheck(fd)):
        assert np.array_equal(got, want)
    shared, own = root_identities(fd, bundles), root_identities(fd)
    assert shared.keys() == own.keys()
    assert all(np.array_equal(shared[k], own[k]) for k in own)


@pytest.mark.parametrize("mode", ["free", "consistent"])
def test_expanded_products_are_the_column_products(mode):
    """b1 is 2a s1 + s2 ric_x and the factorization residual b1 + (t^2+1) c,
    written out without the terms of structural zeros: up to the sign of a
    zero, coefficient for coefficient, the column products from +0.0 with
    every term, at a batch and at one frame."""
    fd = _drawn(np.random.default_rng(8), 9, mode)
    for one in (fd, _row(fd, 4)):
        lam = {1: 0.0, 2: one.lambda2, 3: one.lambda3}
        G = one.G
        for case, (i, j, w) in zip(CASES, ((1, 2, 3), (1, 3, 2), (2, 3, 1))):
            b = special_direction_polys(one, case)
            s1 = (G(j, w, i), G(i, w, i) - G(j, w, j), -G(i, w, j))
            s2 = (G(j, j, w), G(i, j, w) + G(j, i, w), G(i, i, w))
            ric_x = (0.0, lam[i] - lam[j])
            two_a = tuple(2.0 * x for x in b.a)
            b1 = column_padd(column_pmul(two_a, s1), column_pmul(s2, ric_x))
            assert _bits(np.abs(_rows(b.b1))) == _bits(np.abs(_rows(b1))), (mode, case)
            lhs = column_padd(b.b1, column_pmul((1.0, 0.0, 1.0), b.c))
            assert _bits(b.b1_factor_residual()) == _bits(np.max(np.abs(_rows(lhs)), axis=-1)), (mode, case)
