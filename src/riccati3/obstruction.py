"""Trace-free Jacobi data, the degree-16 obstruction detector, and the
rank-specific certificates.

For a direction X the Jacobi operator J(X) = R(., X)X and the derived
operator J'(X) = (nabla_X R)(., X)X are g-self-adjoint, kill X and preserve
X-perp.  With t = ric(X,X) = tr J, D1 = (nabla_X ric)(X,X) = tr J' and the
projection proj = id - X g(X, .)/g(X,X), their trace-free parts
Jo = J - (t/2) proj and Jo' = J' - (D1/2) proj are built entry by entry (the
shortcut tr(Jo o Jo) = tr(J o J) - t^2/2 cancels to the rounding of |J|^2
where Jo vanishes).  The invariants are traces of 3x3 operator products,
with no basis of X-perp:

    D2 = tr(Jo o Jo) + (nabla^2_{X,X} ric)(X,X)
    D  = -tr([Jo, Jo']^2) / 2, the determinant of [Jo, Jo'] on X-perp
    P  = tr(Jo o Jo) D2 - tr(Jo o Jo') D1

They obey  P^2 = D (-D1^2 - 4 tr(Jo o Jo) ric(X,X))  whenever the metric
carries the constrained Riccati solution family; the signed deviation of the
two sides is the obstruction residual this module reports.  X is isotropic
when |Jo| = sqrt(tr(Jo o Jo)/2) is below 1e-10 max(1, |t|, |J|), with
|J|^2 = tr(J o J); there the traces and D are 0, and so is the residual.

In a g-orthonormal basis of X-perp, Jo is [[A, B], [B, -A]] and Jo' is
[[A1, B1], [B1, -A1]], so tr(Jo o Jo) = 2(A^2 + B^2) and
D = 4 (A B1 - A1 B)^2.  No command needs that frame: the eigenframe with
B = 0 (``jacobi_frame``), the entries A1, B1 (``derived_jacobi_direct``) and
the grid probe of trace-free initial values that solves in that frame
(``constrained_probe``) are test oracles, in ``tests/oracles.py``.

``rank1_checks`` certifies a point of Ricci rank 1 from that point's pack
alone: the covariant derivative of the eigenvector e3 of the simple nonzero
Ricci eigenvalue is exact, from nabla ric, with no neighbouring point.

``obstruction_values`` takes one direction or an (m, 3) batch, with one
code path: a batch gives every field as an array with a leading direction
axis, and one direction is a batch of one whose fields come back as floats,
bools and (3,) vectors.  A pack of n points (see ``curvature``) takes directions of shape (n, m, 3), m at each
point, and gives every field a leading point axis before the direction axis.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .curvature import (
    _EYE,
    CurvaturePack,
    _dot,
    _matrix,
    _moved,
    _outer,
    _products,
    ricci_rank,
)


class RankPrecondition(ValueError):
    """Operation requires a specific Ricci rank at the point."""


class ObstructionValues(NamedTuple):
    D1: float
    D2: float
    D: float
    P: float
    lhs: float
    rhs: float
    residual: float
    scale: float
    tr_JJ: float
    tr_JJp: float
    isotropic: bool

    @property
    def frame(self):
        """The values themselves: the benchmark's tracer reads ``ov.frame.isotropic``
        until it counts ``isotropic`` itself (ROADMAP item 16)."""
        return self


class Rank1Report(NamedTuple):
    scal: float
    lie_e3_scal: float
    div_e3: float
    Q: np.ndarray  # 2x2 in the kernel-plane basis
    q_eigenvalues: np.ndarray
    defect_min: float  # min over unit v in the plane
    defect_max: float
    flagged: bool


def fibonacci_directions(n: int) -> np.ndarray:
    """Quasi-uniform deterministic unit directions (euclidean normalization),
    (n, 3): a fresh copy of the table ``_fibonacci_table`` keeps per n."""
    return _fibonacci_table(n).copy()


@functools.lru_cache(maxsize=16)
def _fibonacci_table(n):
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


class IsotropyMask(np.ndarray):
    """The per-direction isotropy flags of a batch.  Its truth value is
    whether any direction is isotropic, so ``if frame.isotropic:`` reads the
    same for one direction and for a batch."""

    def __bool__(self):
        return bool(self.view(np.ndarray).any())


def _directions(X):
    """X as an (m, 3) or (n, m, 3) float array, and whether it was one (3,)
    direction."""
    X = np.asarray(X, dtype=float)
    return np.atleast_2d(X), X.ndim == 1


def _first(batch):
    """The one direction of a batch of one: floats, bools and (3,) vectors."""
    return batch._make(x[0] if x.ndim > 1 else x[0].item() for x in batch)


def _trace_product(A, B):
    """tr(A o B) for operators of shape (..., 3, 3): shape (...)."""
    return np.einsum("...li,...il->...", A, B)


def obstruction_values(pack: CurvaturePack, X) -> ObstructionValues:
    """Evaluate both sides of the detector identity at (point, X), in trace
    form (see the module docstring), for one direction X of shape (3,)
    (fields are floats), an (m, 3) batch (fields are arrays with a leading
    direction axis), or an (n, m, 3) batch at a pack of n points (fields of
    shape (n, m)).  A zero direction raises ValueError.

    A residual of ~0 is necessary for the constrained Riccati family to exist
    at this point and direction; a residual well above the float noise floor
    certifies the metric admits no such family.
    """
    X, one = _directions(X)
    gX = X @ pack.g
    gXX = _dot(gX, X)
    if (gXX == 0.0).any():
        raise ValueError("zero direction")
    # one product per degree: X X against [R | ric | nabla^2 ric], X X X against [nabla R | nabla ric]
    XX = _products(X, 2)
    R, nablaR = _moved(pack.R), _moved(pack.nablaR)
    even = XX @ np.concatenate([_matrix(R, 2, 2), _matrix(pack.ric, 2, 0), _matrix(pack.nabla2_ric, 2, 2)], -1)
    odd = _outer(X, XX) @ np.concatenate([_matrix(nablaR, 3, 2), _matrix(pack.nabla_ric, 3, 0)], -1)
    J, t, ric4 = even[..., :9].reshape(X.shape + (3,)), even[..., 9], _dot(even[..., 10:], XX)
    D1 = odd[..., 9]

    # Jo and Jo' = J - (t/2) proj and J' - (D1/2) proj, proj = id - X g(X, .)/g(X, X)
    proj = _EYE - np.einsum("...l,...i->...li", X, gX / gXX[..., None])
    Jos, tD1 = np.empty((2,) + J.shape), np.empty((2,) + t.shape)
    Jos[0], Jos[1] = J, odd[..., :9].reshape(J.shape)
    tD1[0], tD1[1] = t, D1
    Jos -= 0.5 * tD1[..., None, None] * proj
    Jo, Jpo = Jos
    C = Jo @ Jpo - Jpo @ Jo
    traces = _trace_product(Jo, Jos)  # tr(Jo o Jo), tr(Jo o Jo')
    # isotropic: |Jo| = sqrt(tr(Jo o Jo) / 2) below 1e-10 times the size of J
    iso = traces[0] < 2e-20 * np.maximum(np.maximum(1.0, t * t), _trace_product(J, J))
    tr_JJ, tr_JJp = np.where(iso, 0.0, traces)
    D = np.where(iso, 0.0, -0.5 * _trace_product(C, C))

    D2 = tr_JJ + ric4
    P = tr_JJ * D2 - tr_JJp * D1
    lhs = P * P
    rhs = D * (-D1 * D1 - 4.0 * tr_JJ * t)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    ov = ObstructionValues(D1, D2, D, P, lhs, rhs, lhs - rhs, scale, tr_JJ, tr_JJp, iso.view(IsotropyMask))
    return _first(ov) if one else ov


def _eigenvector_gradient(pack: CurvaturePack, rr, j: int) -> np.ndarray:
    """grad[i, k] = (nabla_i e_j)^k for the g-orthonormal Ricci eigenvector
    e_j of the report ``rr`` at a one-point pack, where eigenvalue j is simple.

    Differentiating ric(e_l, e_j) = lambda_j delta_lj with g(e_l, e_j) =
    delta_lj and nabla g = 0 gives the first-order perturbation formula for a
    simple eigenvector (Kato, Perturbation Theory for Linear Operators, ch. II):
    g(e_l, nabla_i e_j) = (nabla_i ric)(e_l, e_j) / (lambda_j - lambda_l) for
    l != j, and 0 for l = j.
    """
    lam, E = rr.eigenvalues, rr.eigenframe
    gap = lam[j] - lam
    gap[j] = math.inf
    M = (pack.nabla_ric @ E[:, j]) @ E  # M[i, l] = (nabla_i ric)(e_l, e_j)
    return (M / gap) @ E.T


def rank1_checks(pack: CurvaturePack, rank_report=None) -> Rank1Report:
    """Numeric certificate of the rank-1 contradiction at a one-point pack,
    with ``rank_report`` its ``ricci_rank`` (computed when not given).

    e3 is the unit eigenvector of the simple nonzero Ricci eigenvalue; its
    covariant derivative comes exactly from nabla ric (``_eigenvector_gradient``).
    The defect |q(v)^2 + scal/2|, q(v) = g(v, nabla_v e3), is taken over unit v
    in the kernel plane; by the supporting theory both the Lie derivative of
    scal along e3 and div e3 must vanish, while the defect cannot vanish for
    every v unless scal = 0.  q(v) = v^T Q v / 2 ranges over [mu0, mu1], the
    halved eigenvalues of Q, so the defect's extremes are exact: q^2 fills
    [s_lo, s_hi], with s_lo = 0 when mu0 <= 0 <= mu1.
    """
    rr = rank_report or ricci_rank(pack)
    if rr.rank != 1:
        raise RankPrecondition(f"rank1_checks needs rank 1, got {rr.rank}")
    idx = int(np.argmax(np.abs(rr.eigenvalues)))
    e3 = rr.eigenframe[:, idx]
    E = np.delete(rr.eigenframe, idx, axis=1)  # columns: a basis of the kernel plane

    grad_e3 = _eigenvector_gradient(pack, rr, idx)  # grad_e3[i,k] = (nabla_i e3)^k
    div_e3 = float(np.trace(grad_e3))
    lie_scal = float(e3 @ pack.dscal)

    # Q[a, b] = g(E_a, nabla_{E_b} e3) + g(E_b, nabla_{E_a} e3)
    gG = pack.g @ grad_e3.T  # g(x, nabla_y e3) = x^T gG y
    Q = E.T @ (gG + gG.T) @ E
    q_eigs = np.linalg.eigvalsh(Q)

    target = -pack.scal / 2.0
    mu0, mu1 = (q_eigs / 2.0).tolist()
    s_lo = 0.0 if mu0 <= 0.0 <= mu1 else min(mu0 * mu0, mu1 * mu1)
    s_hi = max(mu0 * mu0, mu1 * mu1)
    d_min = max(s_lo - target, target - s_hi, 0.0)  # the distance from target to [s_lo, s_hi]
    d_max = max(s_hi - target, target - s_lo)
    return Rank1Report(
        scal=pack.scal,
        lie_e3_scal=lie_scal,
        div_e3=div_e3,
        Q=Q,
        q_eigenvalues=q_eigs,
        defect_min=d_min,
        defect_max=d_max,
        flagged=bool(d_max > 1e-6 * max(1.0, abs(pack.scal))),
    )
