"""Point-wise curvature data from metric jets, with the sign conventions
pinned operationally by tr J(v) = ric(v,v).

Conventions (recorded here because the literature varies):

* R(X,Y) = nabla^2_{X,Y} - nabla^2_{Y,X} as an operator; in coordinates
  (R(d_i,d_j)d_k)^l = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik.
* Four-tensor slot order R(X,Y,Z,W) = g(R(X,Y)Z, W).
* ric(X,Y) = sum_k (R(d_k,X)Y)^k, which equals -sum_a R(e_a,X,e_a,Y) over any
  orthonormal frame and gives Ric = 2k g on constant curvature k.  With these
  choices tr J(v) = ric(v,v) for the Jacobi operator J(v) = R(.,v)v.
* Schouten: rho = Ric - (scal/4) id; in dimension 3 the curvature is
  R(X,Y) = Ric X ^ Y + X ^ Ric Y - (scal/2) X ^ Y with
  (X ^ Y)Z = g(Y,Z)X - g(X,Z)Y.

Everything is computed in coordinates from order-4 metric jets: Christoffel
jets carry three orders, curvature two, so nabla^2 ric (which needs four
metric derivatives) comes out exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprjet import Jet4
from .metrics import MetricJet, MetricSpec, metric_jets


@dataclass
class CurvaturePack:
    """All point-wise curvature data used downstream.

    Index layouts (coordinate frame):
      gamma[k,i,j]   = Gamma^k_ij
      dgamma[m,k,i,j] = d_m Gamma^k_ij
      R[i,j,k,l]     = l-component of R(d_i,d_j)d_k
      nablaR[m,i,j,k,l] = l-component of (nabla_m R)(d_i,d_j)d_k
      nabla_ric[k,i,j]   = (nabla_k ric)(d_i,d_j)
      nabla2_ric[k,l,i,j] = (nabla^2_{k,l} ric)(d_i,d_j)
      frame          = columns are a g-orthonormal frame (E^T g E = I)
    """

    point: tuple
    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray
    R: np.ndarray
    nablaR: np.ndarray
    ric: np.ndarray
    Ric_op: np.ndarray
    scal: float
    dscal: np.ndarray
    rho: np.ndarray
    nabla_ric: np.ndarray
    nabla2_ric: np.ndarray
    frame: np.ndarray

    def ric_of(self, x, y) -> float:
        return float(x @ self.ric @ y)

    def norm(self, x) -> float:
        return math.sqrt(float(x @ self.g @ x))

    def inner(self, x, y) -> float:
        return float(x @ self.g @ y)


@dataclass
class RankReport:
    eigenvalues: np.ndarray  # ascending
    eigenframe: np.ndarray  # columns, g-orthonormal
    rank: int
    ric_nonpositive: bool
    det_zero: bool
    tol: float


def _jet_matrix_inverse(jets):
    """Adjugate-over-determinant inverse of a symmetric 3x3 jet matrix."""
    a = jets
    cof = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = a[r[0]][c[0]] * a[r[1]][c[1]] - a[r[0]][c[1]] * a[r[1]][c[0]]
            cof[i][j] = minor if (i + j) % 2 == 0 else -minor
    det = a[0][0] * cof[0][0] + a[0][1] * cof[0][1] + a[0][2] * cof[0][2]
    # threshold relative to the metric scale: legitimate metrics can have
    # tiny determinants far from coordinate origins (hyperbolic upper half space)
    scale = max(abs(a[i][j].value) for i in range(3) for j in range(3)) ** 3
    inv_det = det.ipow(-1, threshold=1e-14 * max(scale, 1e-290))
    # adjugate = transpose of cofactor matrix; symmetric here
    return [[cof[j][i] * inv_det for j in range(3)] for i in range(3)]


def _christoffel_jets(jets):
    """Jets of g^-1 and of Gamma^k_ij (nested [k][i][j]) from metric jets;
    Gamma carries one order less than the metric."""
    ginv_j = _jet_matrix_inverse(jets)
    dg = [[[jets[i][j].diff(k) for k in range(3)] for j in range(3)] for i in range(3)]
    # lowered Christoffel low[l][i][j] = (d_i g_jl + d_j g_il - d_l g_ij)/2
    gamma_j = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        for i in range(3):
            for j in range(i, 3):
                acc = None
                for l in range(3):
                    low = (dg[j][l][i] + dg[i][l][j] - dg[i][j][l]) * 0.5
                    term = ginv_j[k][l] * low
                    acc = term if acc is None else acc + term
                gamma_j[k][i][j] = acc
                gamma_j[k][j][i] = acc
    return ginv_j, gamma_j


def _coefs(jets_nested, shape, n):
    """Leading ``n`` Taylor coefficients of a nested list of jets, shape (n,) + shape:
    [0] holds the values and [1:4] the partial derivatives d_m."""
    nodes = np.array(jets_nested, dtype=object).reshape(-1)
    return np.array([jet.coef[:n] for jet in nodes]).T.reshape((n,) + shape)


def curvature_pack(m: MetricJet, tamper: bool = False) -> CurvaturePack:
    """Full curvature package at the base point of the metric jets.

    ``tamper`` flips the sign of the Gamma*Gamma commutator in the curvature
    formula; it exists so the self-test harness can prove the identity suite
    actually detects a broken sign convention.
    """
    point = m.point
    ginv_j, gamma_j = _christoffel_jets(m.jets)

    dgamma_j = [
        [[[gamma_j[k][i][j].diff(mm) for mm in range(3)] for j in range(3)] for i in range(3)]
        for k in range(3)
    ]

    sign = -1.0 if tamper else 1.0
    # R_j[i][j][k][l]: (R(d_i,d_j)d_k)^l, antisymmetric in (i,j)
    zero = Jet4.constant(0.0, point, gamma_j[0][0][0].order - 1)
    R_j = [[[[zero] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                for l in range(3):
                    acc = dgamma_j[l][j][k][i] - dgamma_j[l][i][k][j]
                    quad = None
                    for mm in range(3):
                        q = gamma_j[l][i][mm] * gamma_j[mm][j][k] - gamma_j[l][j][mm] * gamma_j[mm][i][k]
                        quad = q if quad is None else quad + q
                    entry = acc + sign * quad
                    R_j[i][j][k][l] = entry
                    R_j[j][i][k][l] = -entry

    # ric_ij = sum_k (R(d_k,d_i)d_j)^k
    ric_j = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = None
            for k in range(3):
                term = R_j[k][i][j][k]
                acc = term if acc is None else acc + term
            ric_j[i][j] = acc

    scal_j = None
    for i in range(3):
        for j in range(3):
            term = ginv_j[i][j] * ric_j[i][j]
            scal_j = term if scal_j is None else scal_j + term

    # numeric extraction
    g = m.g
    ginv = _coefs(ginv_j, (3, 3), 1)[0]
    c = _coefs(gamma_j, (3, 3, 3), 4)
    gamma, dgamma = c[0], c[1:]
    c = _coefs(R_j, (3, 3, 3, 3), 4)
    R, dR = c[0], c[1:]
    c = _coefs(ric_j, (3, 3), 4)
    ric, dric = c[0], c[1:]
    d2ric = np.empty((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            d2ric[:, :, i, j] = ric_j[i][j].hess()
    scal = scal_j.value
    dscal = scal_j.grad()

    # nabla ric (values and coordinate derivative)
    nabla_ric = (
        dric
        - np.einsum("mki,mj->kij", gamma, ric)
        - np.einsum("mkj,im->kij", gamma, ric)
    )
    # d_k (nabla ric)_{lij} = d_k d_l ric_ij - dG^m_{li,k} ric_mj - G^m_li d_k ric_mj
    #                                        - dG^m_{lj,k} ric_im - G^m_lj d_k ric_im
    d_nabla_ric = (
        d2ric
        - np.einsum("kmli,mj->klij", dgamma, ric)
        - np.einsum("mli,kmj->klij", gamma, dric)
        - np.einsum("kmlj,im->klij", dgamma, ric)
        - np.einsum("mlj,kim->klij", gamma, dric)
    )
    nabla2_ric = (
        d_nabla_ric
        - np.einsum("mkl,mij->klij", gamma, nabla_ric)
        - np.einsum("mki,lmj->klij", gamma, nabla_ric)
        - np.einsum("mkj,lim->klij", gamma, nabla_ric)
    )

    nablaR = (
        dR
        + np.einsum("lmn,ijkn->mijkl", gamma, R)
        - np.einsum("nmi,njkl->mijkl", gamma, R)
        - np.einsum("nmj,inkl->mijkl", gamma, R)
        - np.einsum("nmk,ijnl->mijkl", gamma, R)
    )

    Ric_op = ginv @ ric
    rho = Ric_op - (scal / 4.0) * np.eye(3)
    L = np.linalg.cholesky(g)
    frame = np.linalg.inv(L).T  # columns orthonormal: E^T g E = I

    return CurvaturePack(
        point=point,
        g=g,
        ginv=ginv,
        gamma=gamma,
        dgamma=dgamma,
        R=R,
        nablaR=nablaR,
        ric=ric,
        Ric_op=Ric_op,
        scal=scal,
        dscal=dscal,
        rho=rho,
        nabla_ric=nabla_ric,
        nabla2_ric=nabla2_ric,
        frame=frame,
    )


def pack_at(spec: MetricSpec, p, tamper: bool = False) -> CurvaturePack:
    return curvature_pack(metric_jets(spec, p), tamper=tamper)


def curvature_r_only(spec: MetricSpec, p):
    """(g, ginv, R) only, from order-2 jets; fast path for along-path sampling."""
    m = metric_jets(spec, p, order=2)
    ginv_j, gamma_j = _christoffel_jets(m.jets)
    c = _coefs(gamma_j, (3, 3, 3), 4)
    gamma, dgamma = c[0], c[1:]
    R = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                for l in range(3):
                    val = (
                        dgamma[i, l, j, k]
                        - dgamma[j, l, i, k]
                        + gamma[l, i] @ gamma[:, j, k]
                        - gamma[l, j] @ gamma[:, i, k]
                    )
                    R[i, j, k, l] = val
                    R[j, i, k, l] = -val
    return m.g, _coefs(ginv_j, (3, 3), 1)[0], R


def orthonormal_perp(g, v, basis):
    """Deterministic g-orthonormal basis (w1, w2) of the complement of the unit
    vector v: Gram-Schmidt on the columns of ``basis``, largest projection first."""
    cands = []
    for k in range(3):
        e = basis[:, k]
        c = e - float(e @ g @ v) * v
        cands.append((float(c @ g @ c), k, c))
    cands.sort(key=lambda it: (-it[0], it[1]))
    w1 = cands[0][2] / math.sqrt(cands[0][0])
    c = cands[1][2]
    c = c - float(c @ g @ w1) * w1
    n = math.sqrt(float(c @ g @ c))
    if n < 1e-12:
        c = cands[2][2]
        c = c - float(c @ g @ w1) * w1 - float(c @ g @ v) * v
        n = math.sqrt(float(c @ g @ c))
    return w1, c / n


def plane_entries(g, M, w1, w2):
    """(m11, m22, m12): the symmetrized matrix of the operator M on span(w1, w2)."""
    m11 = float(w1 @ g @ (M @ w1))
    m22 = float(w2 @ g @ (M @ w2))
    m12 = 0.5 * float(w1 @ g @ (M @ w2) + w2 @ g @ (M @ w1))
    return m11, m22, m12


def jacobi_op(pack: CurvaturePack, v) -> np.ndarray:
    """Matrix of J(v) = R(.,v)v acting on column vectors: J[l,i] x^i."""
    v = np.asarray(v, dtype=float)
    if float(v @ pack.g @ v) == 0.0:
        raise ValueError("Jacobi operator needs a nonzero vector")
    return np.einsum("ijkl,j,k->li", pack.R, v, v)


def identity_residuals(pack: CurvaturePack, vectors=None, n: int = 20, seed: int = 0):
    """Max deviations of the universal 3d identities over sample vectors.

    j2:      tr(J(v) o J(v)) against its Schouten-form right-hand side
    bianchi: contracted second Bianchi, g^{ab} (nabla_a ric)_{bj} - d_j scal / 2
    kulkarni: R(X,Y) against Ric X ^ Y + X ^ Ric Y - (scal/2) X ^ Y
    """
    if vectors is None:
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((n, 3))
    vectors = np.asarray(vectors, dtype=float)

    g, rho = pack.g, pack.rho
    j2 = 0.0
    for v in vectors:
        J = jacobi_op(pack, v)
        lhs = np.trace(J @ J)
        gvv = float(v @ g @ v)
        rv = rho @ v
        rhs = (
            np.trace(rho @ rho) * gvv
            + 2.0 * np.trace(rho) * float(v @ g @ rv)
            - 2.0 * float(rv @ g @ rv)
        ) * gvv + float(v @ g @ rv) ** 2
        j2 = max(j2, abs(lhs - rhs))

    bianchi = float(
        np.max(np.abs(np.einsum("ab,abj->j", pack.ginv, pack.nabla_ric) - 0.5 * pack.dscal))
    )

    kulkarni = 0.0
    Ric = pack.Ric_op
    scal = pack.scal
    for a in range(len(vectors)):
        for b in range(a + 1, min(a + 3, len(vectors))):
            X, Y = vectors[a], vectors[b]
            lhs_op = np.einsum("ijkl,i,j->lk", pack.R, X, Y)

            def wedge(u, w):
                return np.outer(u, w @ g) - np.outer(w, u @ g)

            rhs_op = wedge(Ric @ X, Y) + wedge(X, Ric @ Y) - (scal / 2.0) * wedge(X, Y)
            kulkarni = max(kulkarni, float(np.max(np.abs(lhs_op - rhs_op))))

    return {"j2": j2, "bianchi": bianchi, "kulkarni": kulkarni}


def jacobi_eigh3(S: np.ndarray, sweeps: int = 50):
    """Cyclic Jacobi rotations for a symmetric 3x3 matrix; deterministic.

    Returns (eigenvalues ascending, eigenvector columns).
    """
    a = S.copy()
    V = np.eye(3)
    for _ in range(sweeps):
        off = math.sqrt(a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2)
        if off < 1e-15 * (1.0 + np.max(np.abs(np.diag(a)))):
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            if a[p, q] == 0.0:
                continue
            theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            Rot = np.eye(3)
            Rot[p, p] = Rot[q, q] = c
            Rot[p, q] = s
            Rot[q, p] = -s
            a = Rot.T @ a @ Rot
            V = V @ Rot
    order = np.argsort(np.diag(a), kind="stable")
    return np.diag(a)[order].copy(), V[:, order].copy()


def ricci_rank(pack: CurvaturePack, tol: float = 1e-8) -> RankReport:
    """Eigen-structure of the Ricci operator with deterministic signs."""
    E = pack.frame
    S = E.T @ pack.ric @ E  # symmetric matrix of Ric in an orthonormal frame
    lam, V = jacobi_eigh3(S)
    W = E @ V  # g-orthonormal eigenvectors in coordinates
    for k in range(3):
        col = W[:, k]
        for comp in col:
            if abs(comp) > tol:
                if comp < 0:
                    W[:, k] = -col
                break
    lam_max = float(np.max(np.abs(lam))) if lam.size else 0.0
    rank = int(np.sum(np.abs(lam) > tol * (1.0 + lam_max)))
    return RankReport(
        eigenvalues=lam,
        eigenframe=W,
        rank=rank,
        ric_nonpositive=bool(lam[-1] <= tol),
        det_zero=bool(rank <= 2),
        tol=tol,
    )
