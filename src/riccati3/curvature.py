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

Everything is computed in coordinates by one kernel on coefficient arrays:
the metric's order-k Taylor coefficients G, shape (N(k),) + batch + (3, 3)
as in ``MetricJet.coef``, give those of g^-1 (order 1 only: the pack reads
it at the point and, through d scal, once differentiated), Gamma
(order k - 1) and R (order k - 2).  At the point g^-1 is the adjugate over
det g (``metrics.cofactors``), as in ``gamma_at``, and Gamma solves
g Gamma = lowered symbols by forward substitution over the degree, a quotient
of Taylor series that needs g^-1 only at the point, written over the lowered
symbols in place; every other product is a truncated Leibniz product
(``exprjet.contract``) and each derivative a gather of coefficients
(``exprjet.partials``).  Both sum their Leibniz terms in groups into one
output buffer (``exprjet.add_pair_terms``), so a kernel's transient memory
is a few coefficient arrays of the batch, not one array per Leibniz term,
and a point's numbers do not depend on its position in the batch.  The
pack's fields own their data (the order-0 slices are copied), so a pack
keeps none of the higher-order coefficients alive.
Covariant derivatives come from one rule on the same arrays (``_nabla``): a
covariant tensor's coefficients of order q give those of its covariant
derivative at order q - 1, the coordinate derivative minus one Gamma
contraction per slot.  ``curvature_pack`` runs the kernel at k = 4 and the
rule on ric twice, for nabla ric and nabla^2 ric; as R = rho (.) g in
dimension 3 (``_kn``) and nabla g = 0, nabla R = nabla rho (.) g.
``curvature_r_only`` runs the kernel at k = 2 for the value of the lowered
Schouten tensor rho = ric - (scal/4) g alone, which with g fixes R.

Both take one point or a batch of n points.  A pack of a batch carries a
leading point axis on every field (``scal`` is then an (n,) array), and the
consumers below broadcast it against directions of shape (n, m, 3), m per
point.  One point is a batch of one, whose fields come back with the point
axis taken off: ``scal`` a float, ``g`` (3, 3), ``R`` (3, 3, 3, 3).

A tensor is contracted with a direction X by one matrix product: the
flattened products X^a X^b ... (``_products``) times the tensor with those
axes as rows (``_matrix``).  J(X) = R(., X)X is ``_products(X, 2)`` times R
(``jacobi_op``), ``obstruction`` builds J', t, D1 and D2 the same way, and
the Kulkarni check takes R(X, Y) - (rho X ^ Y + X ^ rho Y) from the products
X^i Y^j; ``riccati.jacobi_along`` expands J from g and rho.  ``ricci_rank``
diagonalizes ric in ``pack.frame`` for a whole batch by one
``np.linalg.eigh`` call; its ``RankReport`` takes a point axis and gives
point k by ``row(k)``, as the pack does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .exprjet import DEGREES, N_BY_ORDER, add_pair_terms, contract, partials
from .metrics import (
    _FULL_INDEX,
    _SYM_INDEX,
    MetricJet,
    MetricSpec,
    cofactors,
    leading_minors,
    lowered_symbol,
    metric_jets,
)


class CurvaturePack(NamedTuple):
    """All point-wise curvature data used downstream, at one point or, with
    a leading point axis on every field, at each point of a batch.

    Index layouts (coordinate frame), after the point axis:
      gamma[k,i,j]   = Gamma^k_ij
      R[i,j,k,l]     = l-component of R(d_i,d_j)d_k
      nablaR[m,i,j,k,l] = l-component of (nabla_m R)(d_i,d_j)d_k, from nabla rho
      nabla_ric[k,i,j]   = (nabla_k ric)(d_i,d_j)
      nabla2_ric[k,l,i,j] = (nabla^2_{k,l} ric)(d_i,d_j)
      frame          = columns are a g-orthonormal frame (E^T g E = I)
    """

    point: tuple
    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray
    R: np.ndarray
    nablaR: np.ndarray
    ric: np.ndarray
    scal: float
    dscal: np.ndarray
    nabla_ric: np.ndarray
    nabla2_ric: np.ndarray
    frame: np.ndarray

    def norm(self, x) -> float:
        return math.sqrt(float(x @ self.g @ x))

    def row(self, k: int) -> CurvaturePack:
        """The pack of point k of a batch, with the types of a one-point pack."""
        row = CurvaturePack(*(x[k] for x in self))
        return row._replace(point=tuple(map(float, row.point)), scal=float(row.scal))


class RankReport(NamedTuple):
    """The Ricci eigen-structure at one point or, with a leading point axis
    on every field but ``tol``, at each point of a batch."""

    eigenvalues: np.ndarray  # ascending
    eigenframe: np.ndarray  # columns, g-orthonormal
    rank: int
    ric_nonpositive: bool
    det_zero: bool
    tol: float

    def row(self, k: int) -> RankReport:
        """The report of point k of a batch, with the types of a one-point report."""
        return RankReport(
            eigenvalues=self.eigenvalues[k],
            eigenframe=self.eigenframe[k],
            rank=int(self.rank[k]),
            ric_nonpositive=bool(self.ric_nonpositive[k]),
            det_zero=bool(self.det_zero[k]),
            tol=self.tol,
        )


def _christoffel(G, A):
    """Gamma[..., k, i, j] = Gamma^k_ij to order k - 1 from the metric's
    order-k coefficients G and A = g(p)^-1: it solves g Gamma = L for the lowered
    symbols L (``lowered_symbol``), a quotient of Taylor series, by forward
    substitution over the degree d,
    Gamma[c] = A (L[c] - sum_{0 < a <= c} G[a] Gamma[c - a]) for |c| = d,
    written over L in place.  Each degree's term a = c is one product with
    Gamma[0]; the rest are ``exprjet.add_pair_terms``' groups, which read
    only the lower degrees."""
    gamma = lowered_symbol(partials(G))
    gamma = gamma.reshape(gamma.shape[:-2] + (9,))  # L_lij, then Gamma^k_ij, as (3, 9) matrices
    gamma[0] = A @ gamma[0]
    for d in range(1, N_BY_ORDER.index(len(gamma)) + 1):
        acc = G[DEGREES[d]] @ gamma[0]
        add_pair_terms(acc, G, gamma, d)
        gamma[DEGREES[d]] -= acc
        gamma[DEGREES[d]] = A @ gamma[DEGREES[d]]
    return gamma.reshape(gamma.shape[:-1] + (3, 3))


def _curvature_jets(G, tamper=False):
    """A = g(p)^-1 and the coefficient arrays of Gamma and R from the metric's
    order-k coefficients G, shape (N(k),) + batch + (3, 3), k >= 2, from
    ``metric_jets``: every g(p) passes ``metrics.leading_minors``' rule.

    A, batch + (3, 3), is ``metrics.cofactors`` over det g, as in
    ``gamma_at``; g^-1's higher coefficients are ``_inverse_jets``' to build.
    Gamma[..., k, i, j] = Gamma^k_ij carries order k - 1 (``_christoffel``).
    R[..., i, j, k, l] = (R(d_i, d_j) d_k)^l carries order k - 2:
    R = dGamma + sign Gamma Gamma - (i <-> j), where ``tamper`` flips the sign.
    """
    order = N_BY_ORDER.index(len(G))
    g = [G[0][..., i, j] for i, j in _SYM_INDEX]  # g11, g12, g13, g22, g23, g33
    (_, _, det), _ = leading_minors(*g)
    A = (np.stack(cofactors(*g), -1) / det[..., None])[..., _FULL_INDEX]
    gamma = _christoffel(G, A)

    # T[..., i, j, k, l] = d_i Gamma^l_jk + sign Gamma^l_im Gamma^m_jk
    T = contract("lim,mjk->ijkl", gamma, gamma, order - 2)
    if tamper:
        np.negative(T, out=T)
    T += np.einsum("...ljki->...ijkl", partials(gamma))
    return A, gamma, T - np.swapaxes(T, -4, -3)


def _inverse_jets(A, G):
    """g^-1 to order 1, [A, -A d_i g A], from A = g(p)^-1 and the metric's
    coefficients G: all the pack reads of it."""
    return np.concatenate([A[None], -(A @ G[1:4]) @ A])


def _nabla(T, gamma):
    """Coefficients of the covariant derivative of a covariant tensor: T of
    shape (N(q),) + batch + (3,) * r, q >= 1, and Gamma (as from
    ``_curvature_jets``, of order >= q - 1, same batch) give nabla T at order
    q - 1, derivative slot first: (nabla T)[m, a, ...] = d_m T[a, ...]
    - Gamma^n_ma T[n, ...] - ..., each product one ``contract``.  The
    partials come C-contiguous in that axis order, so the subtractions run
    in place without numpy's buffers."""
    order = N_BY_ORDER.index(len(T)) - 1
    r = T.ndim - gamma.ndim + 3
    idx = "abcdef"[:r]
    out = partials(T, r)
    for s, a in enumerate(idx):
        out -= contract(f"nm{a},{idx[:s]}n{idx[s + 1 :]}->m{idx}", gamma, T, order)
    return out


def _kn(g, S, S_op):
    """(S d_i ^ d_j + d_i ^ S d_j) d_k as T[..., i, j, k, l] from a form S[..., i, k]
    and its operator S_op[..., l, i]; S's leading (derivative) axes broadcast."""
    F = np.einsum("...jk,...li->...ijkl", g, S_op) - np.einsum("...ik,jl->...ijkl", S, np.eye(3))
    return F - np.swapaxes(F, -4, -3)


def curvature_pack(m: MetricJet, tamper: bool = False) -> CurvaturePack:
    """Full curvature package from order-4 metric jets, at their base point
    or at each point of their batch.

    ``tamper`` flips the sign of the Gamma*Gamma commutator in the curvature
    formula; it exists so the self-test harness can prove the identity suite
    actually detects a broken sign convention.
    """
    one = isinstance(m.point, tuple)
    G = m.coef[:, None] if one else m.coef  # one point is a batch of one
    A, gamma_c, R_c = _curvature_jets(G, tamper)
    ginv_c = _inverse_jets(A, G)
    ric_c = np.einsum("...kijk->...ij", R_c)  # ric_ij = sum_k (R(d_k,d_i)d_j)^k
    R, R_c = R_c[0].copy(), None  # only R at the point is read: R_c is freed here
    scal_c = contract("ij,ij->", ginv_c, ric_c, 1)
    nabla_ric_c = _nabla(ric_c, gamma_c)  # order 1, for nabla^2 ric

    # the order-0 slices are copied, so the pack holds no higher-order coefficients
    g, ginv, ric, scal, nabla_ric = (c[0].copy() for c in (G, ginv_c, ric_c, scal_c, nabla_ric_c))
    dscal = scal_c[1:4].T.copy()
    nabla_rho = nabla_ric - dscal[..., None, None] * g[:, None] / 4.0  # lowered
    L = np.linalg.cholesky(g)
    frame = np.linalg.inv(L).swapaxes(-1, -2)  # columns orthonormal: E^T g E = I

    pack = CurvaturePack(
        point=np.array([m.point]) if one else m.point,
        g=g,
        ginv=ginv,
        gamma=gamma_c[0].copy(),
        R=R,
        nablaR=_kn(g[:, None], nabla_rho, ginv[:, None] @ nabla_rho),
        ric=ric,
        scal=scal,
        dscal=dscal,
        nabla_ric=nabla_ric,
        nabla2_ric=_nabla(nabla_ric_c, gamma_c)[0],
        frame=frame,
    )
    return pack.row(0) if one else pack


def pack_at(spec: MetricSpec, p, tamper: bool = False) -> CurvaturePack:
    """The curvature pack at the point p, or at each row of an (n, 3) array p."""
    return curvature_pack(metric_jets(spec, p), tamper=tamper)


def curvature_r_only(spec: MetricSpec, p):
    """(g, rho) from order-2 jets, rho = ric - (scal/4) g the lowered Schouten
    tensor, which fixes R in dimension 3 (``_kn``): the fast path for
    along-path sampling.  ``p`` is one point, giving (3, 3) arrays, or an
    (n, 3) array of points, giving them with a leading batch axis from one
    batched jet evaluation."""
    m = metric_jets(spec, p, order=2)
    A, _, R = _curvature_jets(m.coef)
    ric = np.einsum("...kijk->...ij", R[0])
    # A in C order, so that the sum runs in an order the shapes alone fix
    scal = np.einsum("...ij,...ij->...", np.ascontiguousarray(A), ric)
    return m.g, ric - (scal[..., None, None] / 4.0) * m.g


def _dot(x, y):
    """Row-by-row dot product: x, y of shape (..., 3) give shape (...)."""
    return np.einsum("...i,...i->...", x, y)


def _inner(g, x, y):
    """g(x, y) row by row."""
    return _dot(x @ g, y)


def orthonormal_perp(g, v, basis):
    """Deterministic g-orthonormal basis (w1, w2) of the complement of the unit
    vector v, or of each row of an (m, 3) batch v (then w1, w2 are (m, 3)),
    or, with g and basis of shape (n, 3, 3), of each v[k, a] of an (n, m, 3)
    batch against g[k] and basis[k]: Gram-Schmidt on the columns of
    ``basis``, largest projection first, ties to the lower column; the third
    column stands in when the second is (numerically) in span(v, w1)."""
    v = np.asarray(v, dtype=float)
    vs = np.atleast_2d(v)
    # cands[..., k, :] = basis[..., :, k] minus its g-projection on v
    cands = basis.swapaxes(-1, -2)[..., None, :, :] - (vs @ g @ basis)[..., None] * vs[..., None, :]
    norm2 = _dot(cands @ g[..., None, :, :], cands)
    order = np.argsort(-norm2, axis=-1, kind="stable")
    c0, c1, c2 = np.moveaxis(np.take_along_axis(cands, order[..., None], axis=-2), -2, 0)
    w1 = c0 / np.sqrt(np.take_along_axis(norm2, order[..., :1], axis=-1))
    c1 = c1 - _inner(g, c1, w1)[..., None] * w1
    c2 = c2 - _inner(g, c2, w1)[..., None] * w1 - _inner(g, c2, vs)[..., None] * vs
    n1 = np.sqrt(_inner(g, c1, c1))
    fallback = n1 < 1e-12
    c = np.where(fallback[..., None], c2, c1)
    n = np.where(fallback, np.sqrt(_inner(g, c2, c2)), n1)
    return w1.reshape(v.shape), (c / n[..., None]).reshape(v.shape)


def _outer(X, Y):
    """The products X^a Y^b, flattened: shape (..., 3 * Y.shape[-1])."""
    return np.einsum("...a,...b->...ab", X, Y).reshape(Y.shape[:-1] + (3 * Y.shape[-1],))


def _products(X, k):
    """The k-fold products X^a X^b ..., flattened: shape (..., 3^k)."""
    out = X
    for _ in range(k - 1):
        out = _outer(X, out)
    return out


def _matrix(T, rows, cols):
    """The last rows + cols axes of T as a (3^rows, 3^cols) matrix, at each
    point of a batch: a right factor of ``_products(X, rows)``."""
    return T.reshape(T.shape[: T.ndim - rows - cols] + (3**rows, 3**cols))


def jacobi_op(pack: CurvaturePack, v) -> np.ndarray:
    """Matrix of J(v) = R(.,v)v acting on column vectors: J[l,i] x^i; v of
    shape (3,) gives (3, 3), a batch (m, 3) gives (m, 3, 3), and at a batch
    of n points, v of shape (n, m, 3) gives (n, m, 3, 3)."""
    v = np.asarray(v, dtype=float)
    if (_inner(pack.g, v, v) == 0.0).any():
        raise ValueError("Jacobi operator needs a nonzero vector")
    # R[..., i, j, k, l] as the (jk, li) matrix: one product sums over j, k
    return (_products(v, 2) @ _matrix(np.moveaxis(pack.R, -4, -1), 2, 2)).reshape(v.shape + (3,))


def identity_residuals(pack: CurvaturePack, vectors=None, n: int = 20, seed: int = 0):
    """Max deviations of the universal 3d identities over sample vectors.

    j2:      tr(J(v) o J(v)) against its Schouten-form right-hand side
    bianchi: contracted second Bianchi, g^{ab} (nabla_a ric)_{bj} - d_j scal / 2
    kulkarni: R(X,Y) against rho X ^ Y + X ^ rho Y (``_kn``), which is
              Ric X ^ Y + X ^ Ric Y - (scal/2) X ^ Y, on the pairs of
              consecutive and next-but-one vectors
    Each is computed over all the vectors at once; with fewer than two
    vectors there is no pair and kulkarni is 0.  At one point the values
    are floats and ``vectors`` is (p, 3), by default n draws of
    default_rng(seed).  At a batch of points they are arrays with one value
    per point, ``vectors`` is (n_points, p, 3), by default one draw of shape
    (n_points, n, 3) from default_rng(seed), whose row k is point k's.
    """
    one = pack.g.ndim == 2
    if vectors is None:
        vectors = np.random.default_rng(seed).standard_normal(pack.g.shape[:-2] + (n, 3))
    vectors = np.asarray(vectors, dtype=float)

    g, scal = pack.g, np.asarray(pack.scal)[..., None, None]
    rho = pack.ginv @ pack.ric - (scal / 4.0) * np.eye(3)
    J = jacobi_op(pack, vectors)
    rv = vectors @ rho.swapaxes(-1, -2)
    gvv, gvrv, grr = _inner(g, vectors, vectors), _inner(g, vectors, rv), _inner(g, rv, rv)
    tr2 = np.trace(rho @ rho, axis1=-2, axis2=-1)[..., None]
    tr1 = np.trace(rho, axis1=-2, axis2=-1)[..., None]
    rhs = (tr2 * gvv + 2.0 * tr1 * gvrv - 2.0 * grr) * gvv + gvrv**2
    j2 = np.max(np.abs(np.einsum("...pab,...pba->...p", J, J) - rhs), axis=-1, initial=0.0)

    div = np.einsum("...ab,...abj->...j", pack.ginv, pack.nabla_ric)
    bianchi = np.max(np.abs(div - 0.5 * pack.dscal), axis=-1)

    # R(X, Y) - (rho X ^ Y + X ^ rho Y) on the pairs (a, a + 1) and (a, a + 2)
    X = np.concatenate([vectors[..., :-1, :], vectors[..., :-2, :]], axis=-2)
    Y = np.concatenate([vectors[..., 1:, :], vectors[..., 2:, :]], axis=-2)
    rho_low = pack.ric - (scal / 4.0) * g
    diff = _outer(X, Y) @ _matrix(pack.R - _kn(g, rho_low, rho), 2, 2)
    kulkarni = np.max(np.abs(diff), axis=(-2, -1), initial=0.0)

    res = {"j2": j2, "bianchi": bianchi, "kulkarni": kulkarni}
    return {key: float(x) for key, x in res.items()} if one else res


def ricci_rank(pack: CurvaturePack, tol: float = 1e-8) -> RankReport:
    """Eigen-structure of the Ricci operator, at one point or at each point
    of a batch: the eigenvalues of ric in the orthonormal ``pack.frame`` by
    one ``np.linalg.eigh`` call, each eigenvector's first component above
    ``tol`` made positive.  One point is a batch of one (see ``RankReport``)."""
    E = pack.frame.reshape(-1, 3, 3)
    S = E.swapaxes(-1, -2) @ pack.ric.reshape(-1, 3, 3) @ E  # symmetric: Ric in the frame
    lam, V = np.linalg.eigh(S)
    W = E @ V  # g-orthonormal eigenvectors in coordinates, as columns
    # each column's first component above tol (0 where there is none) is made positive
    big = np.abs(W) > tol
    first = np.take_along_axis(np.where(big, W, 0.0), np.argmax(big, axis=-2)[:, None], axis=-2)
    W = np.where(first < 0.0, -W, W)
    lam_max = np.max(np.abs(lam), axis=-1, keepdims=True)
    rank = np.sum(np.abs(lam) > tol * (1.0 + lam_max), axis=-1)
    report = RankReport(
        eigenvalues=lam,
        eigenframe=W,
        rank=rank,
        ric_nonpositive=lam[:, -1] <= tol,
        det_zero=rank <= 2,
        tol=tol,
    )
    return report.row(0) if pack.g.ndim == 2 else report
