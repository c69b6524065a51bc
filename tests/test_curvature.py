import math
import tracemalloc

import numpy as np
import pytest
from oracles import gamma_arrays, neumann_inverse

from riccati3 import metrics
from riccati3.curvature import (
    CurvaturePack,
    _curvature_jets,
    _inverse_jets,
    curvature_pack,
    curvature_r_only,
    identity_residuals,
    jacobi_op,
    orthonormal_perp,
    pack_at,
    ricci_rank,
)
from riccati3.exprjet import INDEX_OF, contract, partials
from riccati3.metrics import MetricError, MetricJet, lowered_symbol, metric_jets

# a custom metric with random-looking polynomial (and one sine) components
RANDOM_POLY = {
    "g11": "1 + 0.3*x2^2 + 0.1*x1*x3",
    "g12": "0.2*x1*x2 - 0.05*x3",
    "g13": "0.1*sin(x2)",
    "g22": "1 + 0.2*x1^2",
    "g23": "0.15*x1 - 0.1*x2*x3",
    "g33": "1 + 0.25*x3^2 + 0.1*x1",
}


def test_flat_jets_and_pack():
    spec = metrics.builtin("flat")
    mj = metric_jets(spec, (0.3, -0.5, 1.2))
    assert np.allclose(mj.g, np.eye(3))
    for i in range(3):
        for j in range(3):
            assert np.max(np.abs(mj.coef[1:, i, j])) == 0.0
    pk = curvature_pack(mj)
    for field in (pk.R, pk.ric, pk.nablaR, pk.nabla_ric, pk.nabla2_ric):
        assert np.max(np.abs(field)) == 0.0


def test_heisenberg_metric_jets():
    spec = metrics.builtin("heisenberg", L=1.0)
    mj = metric_jets(spec, (1.0, 0.0, 0.0))
    assert mj.g[1, 1] == pytest.approx(2.0)
    assert mj.g[1, 2] == pytest.approx(-1.0)
    assert mj.coef[INDEX_OF[1, 0, 0], 1, 1] == pytest.approx(2.0)  # d_1 g_22, a! = 1


def test_degenerate_metric_rejected():
    spec = metrics.custom(
        {"g11": "0", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    )
    with pytest.raises(MetricError):
        metric_jets(spec, (0, 0, 0))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_builtin_parameter_is_refused(value):
    """A builtin's parameter that is inf or nan is refused when the metric is
    built, naming the parameter, not later as a non-finite metric value."""
    with pytest.raises(MetricError, match=rf"^parameter 'L' must be a finite number, got {value!r}$"):
        metrics.builtin("heisenberg", L=value)


def test_tiny_determinant_is_refused_naming_the_point():
    """diag(1e-9, 1e6, 1e6) has positive leading minors, but its determinant
    is below 1e-14 max(g_ii)^3: metric_jets and gamma_at refuse it, at one
    point and in a batch, naming the first such point and its minors."""
    spec = metrics.custom(
        {"g11": "1e-9", "g12": "0", "g13": "0", "g22": "1e6", "g23": "0", "g33": "1e6"}
    )
    p = (0.1, 0.2, 0.3)
    message = (r"^metric 'custom' not positive definite at \(0.1, 0.2, 0.3\): leading principal minors "
               r"1.000e-09, 1.000e-03, 1.000e\+03, det below 1e-14 max\(g_ii\)\^3$")
    for call in (
        lambda: metric_jets(spec, p),
        lambda: metrics.gamma_at(spec, p),
        lambda: pack_at(spec, p),
        lambda: curvature_r_only(spec, np.array([p, p])),
    ):
        with pytest.raises(MetricError, match=message):
            call()


@pytest.mark.parametrize("name,k", [("hyperbolic", -1.0), ("sphere", 1.0)])
def test_constant_curvature_ground_truth(name, k):
    spec = metrics.builtin(name, c=1.0)
    p = (0.2, 0.3, 0.8) if name == "hyperbolic" else (0.3, 0.1, -0.2)
    pk = pack_at(spec, p)
    assert np.max(np.abs(pk.ric - 2.0 * k * pk.g)) < 1e-9
    assert pk.scal == pytest.approx(6.0 * k, abs=1e-9)
    # R(X,Y)Z = k(<Y,Z>X - <X,Z>Y)
    rng = np.random.default_rng(0)
    for _ in range(5):
        X, Y, Z = rng.standard_normal((3, 3))
        lhs = np.einsum("ijkl,i,j,k->l", pk.R, X, Y, Z)
        rhs = k * (float(Y @ pk.g @ Z) * X - float(X @ pk.g @ Z) * Y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_hyperbolic_schouten():
    spec, p = metrics.builtin("hyperbolic", c=1.0), (0.0, 0.0, 1.3)
    pk = pack_at(spec, p)
    assert np.max(np.abs(pk.ginv @ pk.ric - pk.scal / 4.0 * np.eye(3) + 0.5 * np.eye(3))) < 1e-10
    g, rho = curvature_r_only(spec, p)  # lowered
    assert np.max(np.abs(rho + 0.5 * g)) < 1e-10


def test_heisenberg_ricci_eigenvalues():
    for lam in (0.5, 1.0, 2.0):
        spec = metrics.builtin("heisenberg", L=lam)
        rr = ricci_rank(pack_at(spec, (0.4, 0.7, -0.3)))
        expect = np.array([-lam**2 / 2, -lam**2 / 2, lam**2 / 2])
        assert np.max(np.abs(rr.eigenvalues - expect)) < 1e-8
        assert rr.rank == 3 and not rr.det_zero and not rr.ric_nonpositive


def test_jacobi_op_properties():
    rng = np.random.default_rng(1)
    for name in ("hyperbolic", "heisenberg", "sol"):
        spec = metrics.builtin(name)
        p = tuple(rng.uniform(lo, hi) for lo, hi in spec.box)
        pk = pack_at(spec, p)
        for _ in range(10):
            v = rng.standard_normal(3)
            J = jacobi_op(pk, v)
            assert np.max(np.abs(J @ v)) < 1e-10 * max(1, np.max(np.abs(J)))
            assert abs(np.trace(J) - float(v @ pk.ric @ v)) < 1e-10
            gJ = pk.g @ J
            assert np.max(np.abs(gJ - gJ.T)) < 1e-10
    with pytest.raises(ValueError):
        jacobi_op(pk, np.zeros(3))


def test_curvature_symmetries():
    rng = np.random.default_rng(9)
    for name in ("heisenberg", "sol", "h2xr"):
        spec = metrics.builtin(name)
        p = tuple(rng.uniform(lo, hi) for lo, hi in spec.box)
        pk = pack_at(spec, p)
        anti = pk.R + np.einsum("ijkl->jikl", pk.R)
        assert np.max(np.abs(anti)) < 1e-10
        cyclic = pk.R + np.einsum("ijkl->jkil", pk.R) + np.einsum("ijkl->kijl", pk.R)
        assert np.max(np.abs(cyclic)) < 1e-9
        assert np.max(np.abs(pk.ric - pk.ric.T)) < 1e-12
        assert abs(np.trace(pk.ginv @ pk.ric) - pk.scal) < 1e-12
        # ric also agrees with the orthonormal-frame contraction -sum R(e_a,X,e_a,Y)
        contr = -np.einsum("ab,aibj->ij", pk.ginv, np.einsum("aibm,mj->aibj", pk.R, pk.g))
        assert np.max(np.abs(contr - pk.ric)) < 1e-10


def test_jacobi_constant_curvature_projection():
    pk = pack_at(metrics.builtin("hyperbolic", c=1.0), (0.1, 0.0, 0.7))
    v = np.array([0.3, -0.2, 0.5])
    v = v / pk.norm(v)
    J = jacobi_op(pk, v)
    proj = np.eye(3) - np.outer(v, v @ pk.g)
    assert np.max(np.abs(J + proj)) < 1e-9


def test_heisenberg_vertical_positive_direction():
    # the center direction carries the positive Ricci eigenvalue, so some
    # Jacobi eigenvalue on its perp must be positive
    spec = metrics.builtin("heisenberg", L=1.0)
    pk = pack_at(spec, (0.2, -0.1, 0.4))
    rr = ricci_rank(pk)
    e_pos = rr.eigenframe[:, int(np.argmax(rr.eigenvalues))]
    J = jacobi_op(pk, e_pos)
    S = pk.frame.T @ pk.g @ J @ pk.frame
    eig = np.linalg.eigvalsh(0.5 * (S + S.T))
    assert eig[-1] > 1e-6


def test_identity_residuals_universal():
    """J2 / Bianchi / Kulkarni vanish for any metric, including a custom
    random-coefficient polynomial metric."""
    spec = metrics.custom(RANDOM_POLY, name="random_poly")
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = tuple(rng.uniform(-0.5, 0.5, 3))
        pk = pack_at(spec, p)
        res = identity_residuals(pk, n=50, seed=3)
        assert res["j2"] < 1e-7
        assert res["bianchi"] < 1e-7
        assert res["kulkarni"] < 1e-7


def test_identity_residuals_one_and_two_vectors():
    """One vector has no pair, so kulkarni is exactly 0; two vectors give the
    one pair, whose residual on a tampered pack matches the Kulkarni-Nomizu
    form written out with Ric and scal."""
    spec = metrics.builtin("heisenberg")
    p = (0.4, 0.7, -0.3)
    v = np.array([[0.3, -1.1, 0.6], [1.2, 0.4, -0.5]])
    one = identity_residuals(pack_at(spec, p), vectors=v[:1])
    assert one["kulkarni"] == 0.0
    assert one["j2"] < 1e-12 and one["bianchi"] < 1e-12

    pk = pack_at(spec, p, tamper=True)
    X, Y = v
    g = pk.g

    def wedge(u, w):
        return np.outer(u, w @ g) - np.outer(w, u @ g)

    Ric = pk.ginv @ pk.ric
    rhs = wedge(Ric @ X, Y) + wedge(X, Ric @ Y) - 0.5 * pk.scal * wedge(X, Y)
    want = np.max(np.abs(np.einsum("ijkl,i,j->lk", pk.R, X, Y) - rhs))
    got = identity_residuals(pk, vectors=v)["kulkarni"]
    assert want > 1e-3
    assert got == pytest.approx(want, rel=1e-12)


def test_second_bianchi_on_nabla_R():
    """The cyclic sum of (nabla_m R)(d_i, d_j) over (m, i, j) vanishes, at
    three points of each builtin, heisenberg L=0.3 and the random polynomial
    metric."""
    rng = np.random.default_rng(11)
    specs = [metrics.builtin(name) for name in metrics.BUILTIN_NAMES]
    specs += [
        metrics.builtin("heisenberg", L=0.3),
        metrics.custom(RANDOM_POLY, name="random_poly", box=((-0.5, 0.5),) * 3),
    ]
    for spec in specs:
        for _ in range(3):
            p = tuple(rng.uniform(lo, hi) for lo, hi in spec.box)
            nR = pack_at(spec, p).nablaR
            cyc = nR + np.einsum("ijmkl->mijkl", nR) + np.einsum("jmikl->mijkl", nR)
            assert np.max(np.abs(cyc)) <= 1e-12 * max(1.0, np.max(np.abs(nR))), (spec.name, p)


def _sympy_covariant_derivatives(spec, point):
    """Exact nabla ric, nabla^2 ric and nabla R of a metric at a rational
    point, from the metric's components in sympy by the textbook formulas;
    float arrays in the pack's layouts."""
    sp = pytest.importorskip("sympy")
    from riccati3.exprjet import BinOp, Call, Const, Neg, Param, Power, Var

    x = sp.symbols("x1 x2 x3")

    def expr(e):
        if isinstance(e, Const):
            return sp.Rational(repr(e.value))
        if isinstance(e, Var):
            return x[e.index]
        if isinstance(e, Param):
            return sp.Rational(repr(spec.params[e.name]))
        if isinstance(e, Neg):
            return -expr(e.arg)
        if isinstance(e, Power):
            return expr(e.base) ** e.exponent
        if isinstance(e, Call):
            return getattr(sp, e.func)(expr(e.arg))
        assert isinstance(e, BinOp)
        a, b = expr(e.left), expr(e.right)
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[e.op]

    I3 = range(3)
    g = sp.Matrix(3, 3, lambda i, j: expr(spec.component(i, j)))
    gi = g.inv()
    d = sp.diff
    G = [[[sum(gi[k, l] * (d(g[j, l], x[i]) + d(g[i, l], x[j]) - d(g[i, j], x[l])) for l in I3) / 2
           for j in I3] for i in I3] for k in I3]  # G[k][i][j] = Gamma^k_ij
    R = [[[[d(G[l][j][k], x[i]) - d(G[l][i][k], x[j])
            + sum(G[l][i][m] * G[m][j][k] - G[l][j][m] * G[m][i][k] for m in I3)
            for l in I3] for k in I3] for j in I3] for i in I3]
    ric = [[sum(R[k][i][j][k] for k in I3) for j in I3] for i in I3]
    nric = [[[d(ric[i][j], x[k]) - sum(G[m][k][i] * ric[m][j] + G[m][k][j] * ric[i][m] for m in I3)
              for j in I3] for i in I3] for k in I3]
    n2ric = [[[[d(nric[l][i][j], x[k])
                - sum(G[m][k][l] * nric[m][i][j] + G[m][k][i] * nric[l][m][j] + G[m][k][j] * nric[l][i][m]
                      for m in I3)
                for j in I3] for i in I3] for l in I3] for k in I3]
    nR = [[[[[d(R[i][j][k][l], x[m])
              - sum(G[n][m][i] * R[n][j][k][l] + G[n][m][j] * R[i][n][k][l] + G[n][m][k] * R[i][j][n][l]
                    - G[l][m][n] * R[i][j][k][n] for n in I3)
              for l in I3] for k in I3] for j in I3] for i in I3] for m in I3]
    at = dict(zip(x, point))
    value = np.vectorize(lambda e: float(e.subs(at)), otypes=[float])
    return [value(np.array(t, dtype=object)) for t in (nric, n2ric, nR)]


# a warped product whose scal varies: d scal = 0 on every builtin
WARPED = {"g11": "1 + x2^2", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "exp(x1)"}


@pytest.mark.parametrize(
    "name,params", [("sol", {}), ("heisenberg", {"L": 0.3}), ("h2xr", {}), ("warped", WARPED)]
)
def test_covariant_derivatives_match_sympy(name, params):
    """nabla ric, nabla^2 ric and nabla R of the pack against exact symbolic
    values, relative to the largest entry (or to the largest entry of R where
    the exact tensor vanishes, as every covariant derivative does on h2xr).
    ``warped`` (params are its components) checks the d scal term of
    nabla R = nabla rho (.) g."""
    sp = pytest.importorskip("sympy")
    spec = metrics.custom(params, name=name) if name == "warped" else metrics.builtin(name, **params)
    point = (sp.Rational(1, 5), sp.Rational(7, 10), sp.Rational(-3, 10))
    pk = pack_at(spec, tuple(float(c) for c in point))
    exact = _sympy_covariant_derivatives(spec, point)
    for want, got in zip(exact, (pk.nabla_ric, pk.nabla2_ric, pk.nablaR)):
        scale = max(np.max(np.abs(want)), np.max(np.abs(pk.R)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_hyperbolic_j2_hand_value():
    pk = pack_at(metrics.builtin("hyperbolic", c=1.0), (0.0, 0.1, 0.9))
    v = np.array([0.2, 0.5, -0.3])
    v = v / pk.norm(v)
    J = jacobi_op(pk, v)
    assert np.trace(J @ J) == pytest.approx(2.0, abs=1e-9)


def test_nabla_ric_contractions_via_geodesic_transport():
    """Along a geodesic, d/dt ric(v,v) = (nabla_v ric)(v,v) and
    d^2/dt^2 ric(v,v) = (nabla^2_{v,v} ric)(v,v); finite-difference both."""
    from oracles import geodesic_step

    h = 5e-3
    rng = np.random.default_rng(6)
    bumpy = metrics.custom(RANDOM_POLY, name="bumpy", box=((-0.5, 0.5),) * 3)
    for spec in (metrics.builtin("heisenberg"), metrics.builtin("sol"), bumpy):
        p = tuple(rng.uniform(lo, hi) for lo, hi in spec.box)
        pk = pack_at(spec, p)
        v = rng.standard_normal(3)
        v = v / pk.norm(v)

        def ric_vv(x, u):
            return float(u @ pack_at(spec, x).ric @ u)

        f0 = ric_vv(np.asarray(p), v)
        xp, vp = geodesic_step(spec, p, v, h)
        xm, vm = geodesic_step(spec, p, v, -h)
        fp, fm = ric_vv(xp, vp), ric_vv(xm, vm)

        d1 = float(np.einsum("kij,k,i,j->", pk.nabla_ric, v, v, v))
        d2 = float(np.einsum("klij,k,l,i,j->", pk.nabla2_ric, v, v, v, v))
        assert (fp - fm) / (2 * h) == pytest.approx(d1, abs=1e-6 + 1e-4 * abs(d1))
        assert (fp - 2 * f0 + fm) / h**2 == pytest.approx(d2, abs=1e-4 + 1e-3 * abs(d2))


def test_nabla2_ric_ricci_identity():
    for name in ("heisenberg", "sol", "h2xr"):
        spec = metrics.builtin(name)
        pk = pack_at(spec, tuple((lo + hi) / 2 + 0.1 for lo, hi in spec.box))
        comm = pk.nabla2_ric - np.einsum("klij->lkij", pk.nabla2_ric)
        act = -np.einsum("klim,mj->klij", pk.R, pk.ric) - np.einsum(
            "kljm,im->klij", pk.R, pk.ric
        )
        assert np.max(np.abs(comm - act)) < 1e-7


def test_sol_sectional_curvatures():
    """Left-invariant frame e^{-z} dx, e^{z} dy, dz has sectional curvatures
    (+1, -1, -1) on the coordinate planes."""
    spec = metrics.builtin("sol")
    p = (0.2, -0.1, 0.4)
    pk = pack_at(spec, p)
    z = p[2]
    E1 = np.array([math.exp(-z), 0, 0])
    E2 = np.array([0, math.exp(z), 0])
    E3 = np.array([0, 0, 1.0])
    for X, Y, want in ((E1, E2, 1.0), (E1, E3, -1.0), (E2, E3, -1.0)):
        sect = float(np.einsum("ijkl,i,j,k->l", pk.R, X, Y, Y) @ pk.g @ X)
        assert sect == pytest.approx(want, abs=1e-10)


def test_h2xr_product_direction_flat():
    pk = pack_at(metrics.builtin("h2xr"), (0.3, 1.1, -0.2))
    J = jacobi_op(pk, np.array([0.0, 0.0, 1.0]))
    assert np.max(np.abs(J)) < 1e-12  # the line factor is flat


def test_ricci_rank_flags():
    flat = ricci_rank(pack_at(metrics.builtin("flat"), (0, 0, 0)))
    assert flat.rank == 0 and flat.det_zero and flat.ric_nonpositive

    h2 = ricci_rank(pack_at(metrics.builtin("h2xr"), (0.1, 1.2, 0.3)))
    assert np.allclose(h2.eigenvalues, [-1, -1, 0], atol=1e-9)
    assert h2.rank == 2 and h2.det_zero and h2.ric_nonpositive

    sol = ricci_rank(pack_at(metrics.builtin("sol"), (0.1, 0.2, 0.3)))
    assert sol.rank == 1 and sol.det_zero
    assert sol.eigenvalues[0] == pytest.approx(-2.0, abs=1e-9)


def test_eigen_reconstruction_and_orthonormality():
    rng = np.random.default_rng(4)
    for name in ("heisenberg", "sol", "h2xr"):
        spec = metrics.builtin(name)
        p = tuple(rng.uniform(lo, hi) for lo, hi in spec.box)
        pk = pack_at(spec, p)
        rr = ricci_rank(pk)
        W = rr.eigenframe
        assert np.max(np.abs(W.T @ pk.g @ W - np.eye(3))) < 1e-10
        recon = W @ np.diag(rr.eigenvalues) @ (W.T @ pk.g)
        Ric = pk.ginv @ pk.ric
        assert np.max(np.abs(Ric - recon)) < 1e-9
        for k in range(3):
            resid = Ric @ W[:, k] - rr.eigenvalues[k] * W[:, k]
            assert np.max(np.abs(resid)) < 1e-8 * (1 + abs(rr.eigenvalues[k]))


def _box_points(spec, n, rng):
    return np.array([[rng.uniform(lo, hi) for lo, hi in spec.box] for _ in range(n)])


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_jacobi_op_matches_einsum_at_every_shape(name):
    """J(v) as one matrix product, at one direction, a batch of directions
    and a batch of points, against the contraction written out."""
    spec = metrics.builtin(name)
    rng = np.random.default_rng(11)
    pack = pack_at(spec, _box_points(spec, 5, rng))
    V = rng.standard_normal((5, 7, 3))

    def close(got, want):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * max(1.0, float(np.max(np.abs(want)))))

    close(jacobi_op(pack, V), np.einsum("nijkl,naj,nak->nali", pack.R, V, V))
    one = pack.row(2)
    close(jacobi_op(one, V[2]), np.einsum("ijkl,aj,ak->ali", one.R, V[2], V[2]))
    close(jacobi_op(one, V[2, 0]), np.einsum("ijkl,j,k->li", one.R, V[2, 0], V[2, 0]))


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_ricci_rank_batch_rows_are_one_point_reports(name):
    """One ricci_rank call on more than one analyze block of points gives,
    row by row, bitwise the one-point report."""
    from riccati3.cli import POINT_BLOCK

    spec = metrics.builtin(name)
    pack = pack_at(spec, _box_points(spec, POINT_BLOCK + 3, np.random.default_rng(12)))
    batch = ricci_rank(pack)
    for k in range(len(pack.g)):
        one, row = ricci_rank(pack.row(k)), batch.row(k)
        for got, want in zip(row, one):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_rank_report_row_types():
    pack = pack_at(metrics.builtin("sol"), np.array([[0.1, 0.2, 0.3], [0.4, -0.5, 0.6]]))
    batch = ricci_rank(pack)
    assert batch.rank.shape == (2,) and batch.eigenframe.shape == (2, 3, 3)
    row = batch.row(1)
    assert type(row.rank) is int and row.rank == 1
    assert type(row.ric_nonpositive) is bool and type(row.det_zero) is bool
    assert row.eigenvalues.shape == (3,) and row.eigenframe.shape == (3, 3)
    one = ricci_rank(pack.row(1))
    assert type(one.rank) is int and type(one.det_zero) is bool


def test_tamper_flag_breaks_identities():
    pk = pack_at(metrics.builtin("heisenberg"), (0.4, 0.7, -0.3), tamper=True)
    res = identity_residuals(pk, n=10, seed=0)
    assert max(res.values()) > 1e-3


@pytest.mark.parametrize("case", ["parallel_columns", "heisenberg_frame"])
def test_orthonormal_perp_batch(case):
    """A batch of unit vectors gives g-orthonormal complements equal to the
    one-vector calls, also where the second candidate is parallel to the
    first and the third column stands in (the n < 1e-12 fallback)."""
    if case == "parallel_columns":
        # columns e1, 2 e1, e2: for the first two rows the two largest
        # candidates are parallel (w2 would be 0/0 without the fallback)
        g = np.eye(3)
        basis = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        vs = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.6, 0.0, 0.8]])
    else:
        pk = pack_at(metrics.builtin("heisenberg"), (0.4, 0.7, -0.3))
        g, basis = pk.g, pk.frame
        vs = np.random.default_rng(4).standard_normal((16, 3))
        vs /= np.sqrt(np.einsum("mi,ij,mj->m", vs, g, vs))[:, None]
    w1, w2 = orthonormal_perp(g, vs, basis)
    assert w1.shape == w2.shape == vs.shape
    for k, v in enumerate(vs):
        frame = np.stack([v, w1[k], w2[k]], axis=1)
        assert np.allclose(frame.T @ g @ frame, np.eye(3), atol=1e-12)
        one = orthonormal_perp(g, v, basis)
        for got, want in zip((w1[k], w2[k]), one):
            assert want.shape == (3,)
            assert np.all(np.abs(got - want) <= 1e-14)


# the benchmark's custom metrics: H^3, S^3 and H^2 x R in exp/sin/cosh coordinates
CUSTOM_ZOO = {
    "h3exp": ({"g11": "1", "g12": "0", "g13": "0", "g22": "exp(2*x1)", "g23": "0", "g33": "exp(2*x1)"}, None),
    "s3sin": (
        {"g11": "1", "g12": "0", "g13": "0", "g22": "sin(x1)^2", "g23": "0", "g33": "sin(x1)^2*sin(x2)^2"},
        [[0.6, 2.5], [0.6, 2.5], [-1.0, 1.0]],
    ),
    "h2coshr": ({"g11": "1", "g12": "0", "g13": "0", "g22": "cosh(x1)^2", "g23": "0", "g33": "1"}, None),
}
PACK_ZOO = list(metrics.BUILTIN_NAMES) + ["heisenberg-L0.3"] + list(CUSTOM_ZOO)


def _zoo_spec(name):
    if name in CUSTOM_ZOO:
        comps, box = CUSTOM_ZOO[name]
        return metrics.custom(comps, name=name, box=box)
    if name == "heisenberg-L0.3":
        return metrics.builtin("heisenberg", L=0.3)
    return metrics.builtin(name)


def _zoo_points(spec, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.array([[rng.uniform(lo, hi) for lo, hi in spec.box] for _ in range(n)])


def _pack_fields(pk):
    return pk._asdict()


# fields that are covariant derivatives, summed from the order-2..4 metric
# coefficients: their rounding noise scales with the square of the largest
# coefficient, not with the (often cancelling, as on constant curvature) value
DERIVATIVE_FIELDS = ("dscal", "nabla_ric", "nabla2_ric", "nablaR")


def _pack_tolerance(spec, p, field, want):
    scale = 1.0
    if field in DERIVATIVE_FIELDS:
        scale = 5.0 * max(1.0, float(np.max(np.abs(metric_jets(spec, p).coef)))) ** 2
    return 1e-13 * np.maximum(scale, np.abs(want))


def _zoo_jets(name, n):
    """The order-4 coefficients G, with a point axis, at one point (n = 1) or
    a batch of n, and the kernel's (A, gamma, R) from them, A = g(p)^-1."""
    spec = _zoo_spec(name)
    pts = _zoo_points(spec, n, seed=11)
    G = metric_jets(spec, pts if n > 1 else tuple(pts[0])).coef
    G = G if n > 1 else G[:, None]
    return G, _curvature_jets(G)


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("name", PACK_ZOO)
def test_gamma_matches_the_neumann_inverse_product(name, n):
    """Gamma by forward substitution against g^-1 expanded to order 3 by the
    Neumann series times the lowered symbols: every coefficient, orders 0-3,
    within 1e-14 max(1, |x|)."""
    G, (_, gamma, _) = _zoo_jets(name, n)
    want = contract("kl,lij->kij", neumann_inverse(G, 3), lowered_symbol(partials(G)), 3)
    assert gamma.shape == want.shape == (20, n, 3, 3, 3)
    assert np.all(np.abs(gamma - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", PACK_ZOO)
def test_gamma_solves_the_defining_equation(name):
    """g Gamma = L, the lowered symbols, as truncated series at order 3:
    within 1e-14 of the sum of the absolute Leibniz terms."""
    G, (_, gamma, _) = _zoo_jets(name, 7)
    L = lowered_symbol(partials(G))
    bound = contract("kl,lij->kij", np.abs(G), np.abs(gamma), 3)
    assert np.all(np.abs(contract("kl,lij->kij", G, gamma, 3) - L) <= 1e-14 * bound)


@pytest.mark.parametrize("name", PACK_ZOO)
def test_inverse_metric_is_expanded_to_order_one(name):
    """ginv is [A, -A d_i g A] with A = g(p)^-1: four coefficients.  A is
    exactly symmetric and agrees with np.linalg.inv to 1e-14 of cond(g); the
    first-order ones are within 1e-14 max(1, |x|) of -A (d_i g A)."""
    G, (A, _, _) = _zoo_jets(name, 7)
    ginv = _inverse_jets(A, G)
    assert ginv.shape == (4, 7, 3, 3) and np.array_equal(ginv[0], A)
    assert np.array_equal(A, A.swapaxes(-1, -2))
    for a, g in zip(A, G[0]):
        inv = np.linalg.inv(g)
        assert np.max(np.abs(a - inv)) <= 1e-14 * np.linalg.cond(g) * np.max(np.abs(inv))
    want = -(A @ (G[1:4] @ A))
    assert np.all(np.abs(ginv[1:] - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", PACK_ZOO)
def test_kernel_inverse_is_the_adjugate_of_gamma_at(name, monkeypatch):
    """metric_jets and _curvature_jets call no numpy eigenvalue, determinant
    or inverse routine, at one point or a batch; where gamma_at reads the same
    g, the kernel's A = g(p)^-1 has the same bits as its g^-1."""
    spec = _zoo_spec(name)
    pts = _zoo_points(spec, 7, seed=11)

    def refused(*args, **kwargs):
        raise AssertionError("metric_jets or _curvature_jets called numpy linear algebra")

    for routine in ("eigvalsh", "eigh", "det", "inv", "solve"):
        monkeypatch.setattr(np.linalg, routine, refused)
    _curvature_jets(metric_jets(spec, tuple(pts[0])).coef[:, None])
    G = metric_jets(spec, pts).coef
    A = _curvature_jets(G)[0]
    for k, p in enumerate(map(tuple, pts)):
        g, ginv, _ = gamma_arrays(spec, p)
        if np.array_equal(g, G[0, k]):
            assert np.array_equal(A[k], ginv), k


@pytest.mark.parametrize("name", PACK_ZOO)
def test_batched_pack_matches_pack_at_every_point(name):
    """The pack of a batch of points, row by row, against the one-point pack:
    every field within 1e-13 max(1, |x|) (see DERIVATIVE_FIELDS), with a
    one-point pack's types."""
    spec = _zoo_spec(name)
    pts = _zoo_points(spec, 9)
    batch = pack_at(spec, pts)
    assert batch.g.shape == (9, 3, 3) and batch.scal.shape == (9,) and batch.nablaR.shape == (9,) + (3,) * 5
    for k, p in enumerate(map(tuple, pts)):
        one = _pack_fields(pack_at(spec, p))
        row = _pack_fields(batch.row(k))
        assert row["point"] == one["point"] == p
        for field, want in one.items():
            if field == "point":
                continue
            got = row[field]
            assert type(got) is type(want) and np.shape(got) == np.shape(want), field
            assert np.all(np.abs(got - want) <= _pack_tolerance(spec, p, field, want)), (field, k)


def test_pack_of_one_point_has_point_types():
    """One point is a batch of one with the point axis taken off; a (1, 3)
    array is a batch of one point and keeps its axis."""
    spec = metrics.builtin("heisenberg")
    pk = pack_at(spec, (0.4, 0.7, -0.3))
    assert pk.point == (0.4, 0.7, -0.3)
    assert type(pk.scal) is float
    shapes = {"g": (3, 3), "ginv": (3, 3), "gamma": (3,) * 3, "R": (3,) * 4, "nablaR": (3,) * 5,
              "ric": (3, 3), "dscal": (3,), "nabla_ric": (3,) * 3,
              "nabla2_ric": (3,) * 4, "frame": (3, 3)}
    for field, shape in shapes.items():
        assert getattr(pk, field).shape == shape, field
    res = identity_residuals(pk, n=8, seed=2)
    assert all(type(v) is float for v in res.values())

    batch = pack_at(spec, np.array([[0.4, 0.7, -0.3]]))
    assert batch.scal.shape == (1,) and batch.g.shape == (1, 3, 3)
    for field, want in _pack_fields(pk).items():
        got = _pack_fields(batch.row(0))[field]
        assert np.all(np.abs(np.asarray(got) - np.asarray(want)) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("tamper", [False, True])
def test_batched_identity_residuals_are_per_point(tamper):
    """At a batch, the vectors are one draw of shape (n_points, n, 3) from
    default_rng(seed), and point k gets the residuals of a one-point call
    given row k of that draw: noise on a true pack, and O(1) values that
    depend on the vectors on a tampered one."""
    spec = metrics.builtin("sol")
    pts = _zoo_points(spec, 5, seed=3)
    batch = identity_residuals(pack_at(spec, pts, tamper=tamper), n=8, seed=40)
    draw = np.random.default_rng(40).standard_normal((5, 8, 3))
    for key, vals in batch.items():
        assert vals.shape == (5,)
    for k, p in enumerate(pts):
        one = identity_residuals(pack_at(spec, tuple(p), tamper=tamper), vectors=draw[k])
        for key, want in one.items():
            assert abs(batch[key][k] - want) <= 1e-12 * max(1.0, want), (key, k)
        assert (max(one.values()) > 1e-3) if tamper else (max(one.values()) < 1e-9)


# metrics whose packs round by a point's position in the batch: the tape's
# ``exprjet._mul`` sums the Leibniz terms of all points of a batch in one BLAS
# product, whose rounding depends on the column a point lands in, so their
# metric jets do; the curvature kernel itself does not (see the next test)
POSITION_ROUNDED = ("sphere", "s3sin", "h2coshr")


@pytest.mark.parametrize("name", PACK_ZOO)
def test_pack_of_permuted_jets_is_the_permuted_pack(name):
    """The curvature kernel rounds each point the same wherever it stands in
    the batch: at each of 20 seeds, the pack of the permuted metric jets is
    the permuted pack, every field bit for bit, for every metric."""
    spec = _zoo_spec(name)
    perm = np.random.default_rng(7).permutation(11)
    for seed in range(5, 25):
        m = metric_jets(spec, _zoo_points(spec, 11, seed=seed))
        fields = _pack_fields(curvature_pack(m))
        permuted = _pack_fields(curvature_pack(MetricJet(m.point[perm], m.coef[:, perm], spec)))
        for field, value in fields.items():
            assert np.array_equal(permuted[field], value[perm]), (field, seed)


@pytest.mark.parametrize("name", PACK_ZOO)
def test_permuting_points_permutes_pack(name):
    """The sample order cannot change a point's numbers: at each of 20 seeds,
    a permuted batch gives every pack field permuted, bit for bit, and within
    _pack_tolerance for the POSITION_ROUNDED metrics."""
    spec = _zoo_spec(name)
    perm = np.random.default_rng(7).permutation(11)
    for seed in range(5, 25):
        pts = _zoo_points(spec, 11, seed=seed)
        fields = _pack_fields(pack_at(spec, pts))
        permuted = _pack_fields(pack_at(spec, pts[perm]))
        for field, value in fields.items():
            if name not in POSITION_ROUNDED or field == "point":
                assert np.array_equal(permuted[field], value[perm]), (field, seed)
                continue
            for k, p in enumerate(map(tuple, pts[perm])):
                want = value[perm][k]
                bound = _pack_tolerance(spec, p, field, want)
                assert np.all(np.abs(permuted[field][k] - want) <= bound), (field, seed)


@pytest.mark.parametrize("name", PACK_ZOO)
def test_identity_residuals_of_a_permuted_pack_are_permuted_bitwise(name):
    """Given the same per-point data in another order, the batched identity
    residuals come out in that order, bit for bit, for every metric."""
    spec = _zoo_spec(name)
    pts = _zoo_points(spec, 13, seed=8)
    vectors = np.random.default_rng(9).standard_normal((13, 8, 3))
    perm = np.random.default_rng(10).permutation(13)
    pk = pack_at(spec, pts)
    pk_perm = CurvaturePack(**{f: v[perm] for f, v in _pack_fields(pk).items()})
    res = identity_residuals(pk, vectors)
    res_perm = identity_residuals(pk_perm, vectors[perm])
    for key, value in res.items():
        assert np.array_equal(res_perm[key], value[perm]), key


def test_pack_transient_memory_and_owned_fields():
    """A 16-point sol pack allocates at most 400 KB at its peak (tracemalloc),
    and no field of a batched or one-point pack is a view into a larger
    array, such as the higher-order coefficients it was sliced from."""
    spec = metrics.builtin("sol")
    m = metric_jets(spec, _zoo_points(spec, 16, seed=3))
    curvature_pack(m)  # first-call caches outside the measurement
    tracemalloc.start()
    try:
        pack = curvature_pack(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 400_000, peak
    for pk in (pack, pack_at(spec, tuple(m.point[0]))):
        for field, value in _pack_fields(pk).items():
            base = getattr(value, "base", None)
            assert base is None or base.nbytes <= value.nbytes, field
