import math

import numpy as np
import pytest

from oracles import (
    DegenerateSystem,
    EigengapError,
    derived_jacobi_crosscheck,
    derived_jacobi_direct,
    eigenvector_gradient_fd,
    jacobi_frame,
    model_pack,
    null_jacobi_directions,
    reconstruct_u,
)
from riccati3 import metrics
from riccati3.curvature import CurvaturePack, pack_at, ricci_rank
from riccati3.obstruction import (
    RankPrecondition,
    _eigenvector_gradient,
    fibonacci_directions,
    obstruction_values,
    rank1_checks,
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
    # on sol every quantity is O(1); on heisenberg D1 and tr(Jo o Jo') vanish identically
    pk = pack_at(metrics.builtin("sol"), (0.4, 0.7, -0.3))
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
            fr = jacobi_frame(pk, X)
            # oracle: det of the commutator of the 3x3 trace-free Jacobi and
            # derived Jacobi operators, restricted to the eigenframe plane
            J3 = np.einsum("ijkl,j,k->li", pk.R, X, X)
            Jp3 = np.einsum("mijkl,m,j,k->li", pk.nablaR, X, X, X)
            P_perp = np.eye(3) - np.outer(fr.v, fr.v @ g)
            Jo = J3 - 0.5 * fr.t * P_perp
            Jpo = Jp3 - 0.5 * ov.D1 * P_perp
            C = Jo @ Jpo - Jpo @ Jo
            w = (fr.w1, fr.w2)
            want = float(np.linalg.det([[a @ g @ (C @ b) for b in w] for a in w]))
            assert ov.D == pytest.approx(want, rel=1e-8, abs=1e-12)
            assert derived_jacobi_direct(pk, X, fr).trace == pytest.approx(ov.D1, rel=1e-8, abs=1e-8)


def test_c3_equivalence():
    """In the B = 0 eigenbasis the quartic form equals the detector residual
    up to the bookkeeping factor 4 (P carries a factor 2A)."""
    rng = np.random.default_rng(8)
    pk = pack_at(metrics.builtin("heisenberg"), (0.4, 0.7, -0.3))
    for _ in range(10):
        X = rng.standard_normal(3)
        ov = obstruction_values(pk, X)
        fr = jacobi_frame(pk, X)
        dj = derived_jacobi_direct(pk, X, fr)
        A, A1, B1 = fr.A, dj.A1, dj.B1
        c3 = (
            A**2 * (A * ov.D2 - ov.D1 * A1) ** 2
            + (A * B1 * ov.D1) ** 2
            + 8.0 * (A**2 * B1) ** 2 * fr.t
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
    fr = jacobi_frame(pk, X)
    dj = derived_jacobi_direct(pk, X, fr)
    A, B = fr.A, fr.B
    A1, B1 = dj.A1, dj.B1
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
            ov = obstruction_values(mp, w)
            assert ov.isotropic and ov.residual == 0.0
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
    rep = rank1_checks(pack_at(metrics.builtin("sol"), (0.1, 0.2, 0.3)))
    assert abs(rep.lie_e3_scal) < 1e-9
    assert abs(rep.div_e3) < 1e-9
    assert np.allclose(np.sort(rep.q_eigenvalues), [-2.0, 2.0], atol=1e-6)
    assert rep.defect_min < 1e-6  # attained at the axes
    assert rep.defect_max == pytest.approx(1.0, abs=1e-6)
    assert rep.flagged
    assert abs(np.trace(rep.Q)) <= abs(rep.div_e3) + 1e-9


def test_rank1_checks_precondition():
    with pytest.raises(RankPrecondition):
        rank1_checks(pack_at(metrics.builtin("flat"), (0, 0, 0)))


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
    pk = pack_at(spec, p)
    rr = ricci_rank(pk, tol=2e-3)
    assert rr.rank == 1
    rep = rank1_checks(pk, rr)
    assert rep.defect_max > 0.1


def test_fibonacci_directions_deterministic():
    d1 = fibonacci_directions(64)
    d2 = fibonacci_directions(64)
    assert np.array_equal(d1, d2)
    assert np.allclose(np.linalg.norm(d1, axis=1), 1.0, atol=1e-12)


BATCH_CASES = metrics.BUILTIN_NAMES + ("heisenberg-L0.3", "model_pack")


def _batch_pack(case):
    """The algebraic model, or the pack at a seeded point of a builtin."""
    if case == "model_pack":
        return model_pack(-2.0, -1.0)
    spec = metrics.builtin("heisenberg", L=0.3) if case == "heisenberg-L0.3" else metrics.builtin(case)
    rng = np.random.default_rng(11)
    return pack_at(spec, tuple(rng.uniform(lo, hi) for lo, hi in spec.box))


def _leaves(obj, prefix=""):
    """(prefixed field name, value) of every field of a record."""
    for name, value in zip(obj._fields, obj):
        yield prefix + name, value


def _detector_leaves(pk, X):
    """The detector's fields, then those of its frame oracle as frame.* and
    derived.* (``jacobi_frame`` and ``derived_jacobi_direct``)."""
    fr = jacobi_frame(pk, X)
    yield from _leaves(obstruction_values(pk, X))
    yield from _leaves(fr, "frame.")
    yield from _leaves(derived_jacobi_direct(pk, X, fr), "derived.")


FLAGS = ("isotropic", "frame.isotropic")


@pytest.mark.parametrize("case", BATCH_CASES)
def test_obstruction_values_batch_is_stack_of_directions(case):
    """Every field of a 64-direction batch is the stack of the one-direction
    calls: floats, bools and (3,) vectors per direction."""
    pk = _batch_pack(case)
    X = fibonacci_directions(64) * np.linspace(0.5, 2.0, 64)[:, None]
    batch = dict(_detector_leaves(pk, X))
    assert batch["isotropic"].shape == batch["frame.isotropic"].shape == (64,)
    for k, x in enumerate(X):
        for name, want in _detector_leaves(pk, x):
            got = batch[name][k]
            if name in FLAGS:
                assert type(want) is bool and bool(got) == want, k
            else:
                assert isinstance(want, float if np.ndim(got) == 0 else np.ndarray), name
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), (name, k)


def test_isotropy_mask_truth_value():
    """A batch's isotropy flags are per direction; the mask is true when any is set."""
    X = fibonacci_directions(8)
    flat = jacobi_frame(pack_at(metrics.builtin("flat"), (0, 0, 0)), X)
    heis = jacobi_frame(pack_at(metrics.builtin("heisenberg"), (0.4, 0.7, -0.3)), X)
    assert flat.isotropic.all() and flat.isotropic
    assert not heis.isotropic.any() and not heis.isotropic


def test_batch_with_a_zero_row_raises():
    pk = pack_at(metrics.builtin("heisenberg"), (0.4, 0.7, -0.3))
    X = fibonacci_directions(5)
    X[3] = 0.0
    for fn in (obstruction_values, jacobi_frame):
        with pytest.raises(ValueError, match="zero direction"):
            fn(pk, X)


def _zoo_batch(name, n, seed):
    spec = metrics.builtin("heisenberg", L=0.3) if name == "heisenberg-L0.3" else metrics.builtin(name)
    rng = np.random.default_rng(seed)
    pts = np.array([[rng.uniform(lo, hi) for lo, hi in spec.box] for _ in range(n)])
    return pack_at(spec, pts)


@pytest.mark.parametrize("case", BATCH_CASES[:-1])
def test_trace_form_matches_frame_oracle(case):
    """The traces of 3x3 operator products agree with the eigenframe
    formulas on the entries A, B of ``jacobi_frame`` and A1, B1 of
    ``derived_jacobi_direct``, and both flag the same directions isotropic."""
    pk = _zoo_batch(case, 4, seed=17)
    X = np.broadcast_to(fibonacci_directions(64), (4, 64, 3))
    ov = obstruction_values(pk, X)
    fr = jacobi_frame(pk, X)
    dj = derived_jacobi_direct(pk, X, fr)
    A, B, A1, B1, t = fr.A, fr.B, dj.A1, dj.B1, fr.t
    D1 = np.einsum("nkij,nak,nai,naj->na", pk.nabla_ric, X, X, X)
    ric4 = np.einsum("nijkl,nai,naj,nak,nal->na", pk.nabla2_ric, X, X, X, X)
    tr_JJ = 2.0 * (A * A + B * B)
    P = 2.0 * ((A * A + B * B) * (tr_JJ + ric4) - (A * A1 + B * B1) * D1)
    D = 4.0 * (A * B1 - A1 * B) ** 2
    oracle = {
        "tr_JJ": tr_JJ,
        "tr_JJp": 2.0 * (A * A1 + B * B1),
        "D": D,
        "P": P,
        "lhs": P * P,
        "rhs": D * (-D1 * D1 - 4.0 * tr_JJ * t),
    }
    assert np.array_equal(ov.isotropic, fr.isotropic)
    for name, want in oracle.items():
        got = getattr(ov, name)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), name


@pytest.mark.parametrize("name", ("flat", "hyperbolic", "sphere"))
def test_constant_curvature_is_isotropic_everywhere(name):
    """Jo = J - (t/2) proj is built entrywise, so on constant curvature its
    trace square stays at rounding squared and every sample is isotropic,
    with a residual of exactly 0."""
    pk = _zoo_batch(name, 8, seed=18)
    ov = obstruction_values(pk, np.broadcast_to(fibonacci_directions(64), (8, 64, 3)))
    assert ov.isotropic.all()
    assert np.all(ov.residual == 0.0)


@pytest.mark.parametrize("case", BATCH_CASES[:-1])
def test_obstruction_values_point_batch_is_stack_of_points(case):
    """At a pack of n points and (n, m, 3) directions, every field has shape
    (n, m) (vectors (n, m, 3)) and row k is the one-point call at that point."""
    pk = _zoo_batch(case, 5, seed=12)
    X = np.random.default_rng(13).standard_normal((5, 7, 3))
    batch = dict(_detector_leaves(pk, X))
    assert batch["D1"].shape == batch["isotropic"].shape == batch["frame.isotropic"].shape == (5, 7)
    assert batch["frame.w1"].shape == (5, 7, 3)
    for k in range(5):
        for name, want in _detector_leaves(pk.row(k), X[k]):
            got = batch[name][k]
            assert np.shape(got) == np.shape(want), name
            if name in FLAGS:
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), (name, k)


@pytest.mark.parametrize("case", BATCH_CASES[:-1])
def test_detector_of_a_permuted_pack_is_permuted_bitwise(case):
    """Given the same per-point data in another order, every detector field
    comes out in that order, bit for bit: a point's values do not depend on
    where it sits in the batch."""
    pk = _zoo_batch(case, 13, seed=14)
    X = np.random.default_rng(15).standard_normal((13, 6, 3))
    perm = np.random.default_rng(16).permutation(13)
    pk_perm = CurvaturePack(*(x[perm] for x in pk))
    want = dict(_detector_leaves(pk, X))
    for name, got in _detector_leaves(pk_perm, X[perm]):
        assert np.array_equal(got, want[name][perm]), name


def test_sol_eigenvector_gradient_closed_form():
    """On sol, e3 = d_z with nabla_x d_z = d_x, nabla_y d_z = -d_y and
    nabla_z d_z = 0: grad e3 = diag(1, -1, 0), so Q has eigenvalues +-2 and
    div e3 = 0, at every point of the box."""
    spec = metrics.builtin("sol")
    rng = np.random.default_rng(21)
    for _ in range(8):
        pk = pack_at(spec, tuple(rng.uniform(lo, hi) for lo, hi in spec.box))
        rr = ricci_rank(pk)
        grad = _eigenvector_gradient(pk, rr, int(np.argmax(np.abs(rr.eigenvalues))))
        assert np.max(np.abs(grad - np.diag([1.0, -1.0, 0.0]))) <= 1e-12
        rep = rank1_checks(pk, rr)
        assert np.max(np.abs(rep.q_eigenvalues - [-2.0, 2.0])) <= 1e-12
        assert abs(rep.div_e3) <= 1e-12
        assert rep.flagged


# three simple Ricci eigenvalues at SKEW_POINT, with off-diagonal metric entries
SKEW = {
    "g11": "1 + 0.3*x2^2",
    "g12": "0.2*x3",
    "g13": "0.1*x1*x2",
    "g22": "exp(0.4*x1)",
    "g23": "0.2*sin(x1)",
    "g33": "1 + 0.2*x1^2 + 0.1*x2",
}
SKEW_POINT = (0.2, -0.1, 0.3)


def test_eigenvector_gradient_matches_fd_oracle():
    """The exact covariant derivative of every Ricci eigenvector agrees with
    central differences of sign-matched eigenvectors at p +- h e_i."""
    spec = metrics.custom(SKEW, name="skew")
    pk = pack_at(spec, SKEW_POINT)
    rr = ricci_rank(pk)
    assert np.min(np.diff(rr.eigenvalues)) > 1e-2 and pk.g[0, 1] != 0.0
    for j in range(3):
        exact = _eigenvector_gradient(pk, rr, j)
        fd = eigenvector_gradient_fd(spec, SKEW_POINT, j)
        assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(exact))
    # and the rank-1 certificate's div e3 against the oracle's, on sol
    sol, p = metrics.builtin("sol"), (0.1, 0.2, 0.3)
    rr = ricci_rank(pack_at(sol, p))
    fd = eigenvector_gradient_fd(sol, p, int(np.argmax(np.abs(rr.eigenvalues))))
    assert abs(rank1_checks(pack_at(sol, p)).div_e3 - np.trace(fd)) <= 1e-9
