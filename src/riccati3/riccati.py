"""Geodesics with parallel frames and the matrix Riccati equation along them.

The geodesic and parallel-transport system is integrated with the classical
fourth-order one-step scheme on the combined state (x, x', w1, w2); the
Riccati equation u' + u^2 + J(t) = 0 is integrated on the 2x2 symmetric
matrix u expressed in the parallel frame, with J(t) sampled along the path
and interpolated to stage times by 4-point Lagrange interpolation (also
fourth order, so the scheme keeps its order).
Each symmetric 2x2 matrix of the Riccati side, J(t), u0 and u(t), is carried
as its entries (x11, x12, x22): ``jacobi_along`` gives J as (n, 3) rows,
``integrate_riccati`` takes u0 as three numbers and returns u as (k, 3)
rows, with the sample times and trace defects as (k,) arrays.  J comes
from g and the Schouten tensor rho, never from R (``jacobi_along``).  The
values of J at the stage times of the path's steps are interpolated in one
vectorized evaluation (``_stage_J``) per block of SAMPLE_BLOCK steps, as the
stepping reaches the block, and handed to the stepping as Python floats; the
blow-up bisection interpolates its off-grid steps with the same function.
The Riccati steps run in one loop on the three entries as named floats, with
u u written out on them (a 2x2 step has too little arithmetic to pay numpy's
cost per call): the path's steps and then, where a step blows up, the steps
of the bisection that brackets the blow-up time, so the RK4 formula is
written once.
The geodesic steps run the same way on the 12 floats of the state
(x, v, w1, w2): a path is one call of a function generated for the metric
(``_walk``), on its first path, from the lines of its compiled tape's
replay (``Tape.replay``).  Each step's four stages are a loop over the
tape's order-1 replay as straight-line float code (no partial that the
tape's structure fixes at 0, its powers and functions in line, with the
series functions as fallbacks); the leading-minor check and the adjugate
inverse, written out on floats with the arithmetic of ``leading_minors``
and ``cofactors``, which ``gamma_at`` calls; and the Christoffel
contraction.  A stage calls no Python function unless a guard misses.  The
slopes are summed on named floats in the order of the RK4 combination.
There is one step: the Python lines after the replay (``_emit``) with the
tape's constant entries and the partials it fixes at 0 folded in on each
line's syntax tree (``ast``; partial evaluation), which leaves out every
product with a factor the tape fixes at 0.  The walk reads its start row
with each -0.0 entry as +0.0 (the row itself is kept as given), and a step
that ends in a state that is not finite, or raises, is that step's own
outcome.  Wherever the step over ``gamma_at`` ends in a finite state, the
walk's step gives its bits (the comment above ``_POINT``).
The contraction takes the lowered Christoffel symbols with v first, as the
matrix of q -> Gamma_l(v, q), applies it to v, w1 and w2, and raises each
of the three vectors once with g^-1; the full Gamma is never built.  The
states of a path go into one preallocated (steps + 1, 12) array, one row a
step.
The direction is scaled by a power of two before its g-length is taken, so
a tiny or huge direction normalizes as that direction at unit size does, up
to the entries that scaling a huge direction down rounds (an entry far
smaller than the largest).

No projection onto trace-free matrices is performed during integration: the
trace-free constraint is a hypothesis about the metric, and the measured
trace defect is part of the scientific output.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .curvature import curvature_r_only, orthonormal_perp
# gamma_at is not called here; the benchmark's tracer (perfbench/spans.py)
# looks it up in this module
from .metrics import COMPONENT_NAMES, MetricSpec, _metric_fault, gamma_at, metric_jets

BLOWUP_NORM = 1e8
# most integration steps one path may take: bounds the time grid and the states
# before anything is allocated
MAX_STEPS = 10**6
# path samples per batched metric evaluation: one call covers many samples,
# while the jets of a block stay around a megabyte
SAMPLE_BLOCK = 256


class DirectionError(ValueError):
    """A geodesic's initial direction with no positive length in the metric."""


class StepsError(ValueError):
    """A time grid of more than MAX_STEPS steps."""


def _blocks(n):
    return [slice(s, s + SAMPLE_BLOCK) for s in range(0, n, SAMPLE_BLOCK)]


class GeodesicPath(NamedTuple):
    spec: MetricSpec
    ts: np.ndarray  # (n,)
    xs: np.ndarray  # (n,3) positions
    vs: np.ndarray  # (n,3) velocities
    w1s: np.ndarray  # (n,3) parallel frame
    w2s: np.ndarray


class RiccatiResult(NamedTuple):
    """The trajectory up to the last sample before any blow-up: k samples."""

    ts: np.ndarray  # (k,) sample times
    u: np.ndarray  # (k, 3) entries (u11, u12, u22)
    trace_defect: np.ndarray  # (k,) |u11 + u22|
    trace_defect_max: float
    blown_up: bool
    blowup_time: float | None
    blowup_bracket: tuple | None


# The geodesic walk of a metric as source around its tape's order-1 replay,
# which binds g11 ... g33 and their partials g11_1 ... g33_3 at the stage point
# (x1, x2, x3).  walk(ys, dt, dt_last) takes the path's RK4 steps from the state
# in row 0 of ys, the last one of length dt_last, and writes each step's state
# to the next row.  A step's state is y0 ... y11, (x, v, w1, w2); its four
# stages run the replay and contraction in a loop, the first at the state
# and each other at the state plus h = dt / 2 (dt at the fourth) times the
# previous stage's slopes k0 ... k11.  The slopes K1 ... K4 of the four stages
# are summed into q0 ... q11 as K1 + 2.0 K2 + 2.0 K3 + K4, left to right.
# The slopes at the stage point (x, v, w1, w2) = (x1 x2 x3, v1 v2 v3, p1 p2 p3,
# r1 r2 r3) are (v, -Gamma(v, v), -Gamma(v, w1), -Gamma(v, w2)).
# The replay is followed by ``leading_minors``' rule and ``cofactors`` written
# out on floats, the last cofactor being the minor m2; a g that fails the rule
# raises ``_metric_fault``'s MetricError, whose message is made there.
# Gamma_l(v, q) = ((D_v g) q + (D_q g) v)_l / 2 - (d_l g)(v, q) / 2 is linear
# in q: its matrix is (M + S) / 2, with M = D_v g = sum_m v^m d_m g and S the
# antisymmetric matrix S_lj = (d_j g v)_l - (d_l g v)_j.  Each of the three
# lowered vectors is raised once with g^-1, ``cofactors`` over det g.
#
# The walk's one step is the replay, which leaves out every partial that the
# tape's structure fixes at 0 (in a coordinate whose ``Var`` is not below
# it) and binds no constant output (``Tape.replay``), then the lines below
# with those partials and the constant outputs folded in, on the syntax tree
# that ``ast`` parses from each line (``_folded``), written out again
# (``_source``): a product with a constant 0 factor is dropped, a factor 1.0
# left out, a line of constants computed as the walk is generated, in the
# same float operations and order, and the rule decided there where it
# reads constants only, its raise reading them as floats (partial
# evaluation).  A constant that is an inf or a nan folds as any other and
# is written as ``inf`` or ``nan``: a g entry that is one fails the rule,
# so such a stage never gets past its raise.  A division by a constant 0 is
# left as written; m3 is the one divisor, and a constant m3 = 0 fails the
# rule first.
# Wherever the step over ``gamma_at`` ends in a finite state, this is that
# step bit for bit.  A dropped value is a product with a factor the tape
# fixes at 0.  The replay gives the values and faults of ``run(p, 1)``,
# which ``gamma_at`` reads, and each partial but for the sign of a zero,
# unless a partial it keeps is an inf or a nan in both; that partial enters
# M = D_v g, so the step's new state is not finite.  A stage point or new
# entry y + c k keeps y where the step folds a zero c k away, and the two
# agree: y + c k with y != 0 is y, and with y = +0.0 it is +0.0 whatever
# the sign of a zero c k.  They would differ only at y = -0.0, and no state
# has one: the walk reads its start with each -0.0 entry as +0.0, and a sum
# is -0.0 only when both operands are.  Where a dropped 0 meets an inf or a
# nan, the reference step has a nan there, and that inf or nan also reaches
# the new state through a term that is kept.  A step with an inf or a nan
# among its slopes can reach other stage points than the reference step,
# and so another state that is not finite, or a fault: that is its outcome.
_POINT = ("x1", "x2", "x3", "v1", "v2", "v3", "p1", "p2", "p3", "r1", "r2", "r3")
_STATE = ", ".join(f"y{i}" for i in range(12))


def _each(line):
    """``line`` formatted for i = 0 ... 11, with z the i-th stage point name."""
    return [line.format(i=i, z=z) for i, z in enumerate(_POINT)]


def _contraction():
    """The slopes k3 ... k11: the lowered Gamma(v, .) applied to v, w1 and w2,
    each raised by -g^-1 / 2."""
    lines = []
    for i, (c1, c2, c3) in zip((3, 6, 9), (_POINT[3:6], _POINT[6:9], _POINT[9:12])):
        lines += [
            f"l1 = m11 * {c1} + b12 * {c2} + b13 * {c3}",
            f"l2 = b21 * {c1} + m22 * {c2} + b23 * {c3}",
            f"l3 = b31 * {c1} + b32 * {c2} + m33 * {c3}",
            f"k{i} = h11 * l1 + h12 * l2 + h13 * l3",
            f"k{i + 1} = h12 * l1 + h22 * l2 + h23 * l3",
            f"k{i + 2} = h13 * l1 + h23 * l2 + h33 * l3",
        ]
    return lines


# A stage after the replay, as the Python lines that ``_emit`` folds
_STAGE = [
    "# leading_minors' rule and the cofactors, whose last one is m2",
    "m2 = g11 * g22 - g12 * g12",
    "m3 = m2 * g33 - g11 * g23 * g23 - g22 * g13 * g13 + 2.0 * g12 * g13 * g23",
    "if not (g11 > 0 and m2 > 0 and m3 < inf and m3 > 1e-14 * g11 * g11 * g11"
    " and m3 > 1e-14 * g22 * g22 * g22 and m3 > 1e-14 * g33 * g33 * g33):"
    " raise _metric_fault(spec, (x1, x2, x3), (g11, g12, g13, g22, g23, g33))",
    "c11 = g22 * g33 - g23 * g23",
    "c12 = g13 * g23 - g12 * g33",
    "c13 = g12 * g23 - g13 * g22",
    "c22 = g11 * g33 - g13 * g13",
    "c23 = g12 * g13 - g11 * g23",
    "# M = D_v g",
    "m11 = g11_1 * v1 + g11_2 * v2 + g11_3 * v3",
    "m12 = g12_1 * v1 + g12_2 * v2 + g12_3 * v3",
    "m13 = g13_1 * v1 + g13_2 * v2 + g13_3 * v3",
    "m22 = g22_1 * v1 + g22_2 * v2 + g22_3 * v3",
    "m23 = g23_1 * v1 + g23_2 * v2 + g23_3 * v3",
    "m33 = g33_1 * v1 + g33_2 * v2 + g33_3 * v3",
    "# the entries of S above the diagonal",
    "s12 = (g11_2 - g12_1) * v1 + (g12_2 - g22_1) * v2 + (g13_2 - g23_1) * v3",
    "s13 = (g11_3 - g13_1) * v1 + (g12_3 - g23_1) * v2 + (g13_3 - g33_1) * v3",
    "s23 = (g12_3 - g13_2) * v1 + (g22_3 - g23_2) * v2 + (g23_3 - g33_2) * v3",
    "# M + S, whose diagonal is that of M",
    "b12, b21 = m12 + s12, m12 - s12",
    "b13, b31 = m13 + s13, m13 - s13",
    "b23, b32 = m23 + s23, m23 - s23",
    "# -g^-1 / 2, the 1/2 of Gamma_l folded in (halving a float is exact)",
    "h11, h12, h13 = -0.5 * (c11 / m3), -0.5 * (c12 / m3), -0.5 * (c13 / m3)",
    "h22, h23, h33 = -0.5 * (c22 / m3), -0.5 * (c23 / m3), -0.5 * (m2 / m3)",
    "k0, k1, k2 = v1, v2, v3",
    *_contraction(),
]
_POINTS = _each("{z} = y{i} + c * k{i}")  # at the stages after the first
_SUMS = (_each("q{i} = k{i}"), _each("q{i} = q{i} + k{i}"), _each("q{i} = q{i} + 2.0 * k{i}"))
# the names a stage or a step assigns for the next one, or for the replay:
# the step folds a constant into them, but no name in place of one
_PINNED = frozenset(_POINT + tuple(f"{n}{i}" for n in "kqy" for i in range(12)))


# each operator of the stage as its function on floats, its text and how tightly it binds
_OPS = {ast.Add: (operator.add, "+", 1), ast.Sub: (operator.sub, "-", 1), ast.Mult: (operator.mul, "*", 2),
        ast.Div: (operator.truediv, "/", 2), ast.Gt: (operator.gt, ">", 0), ast.Lt: (operator.lt, "<", 0)}


def _signed(x):
    """x as (negated, the unnegated float or expression)."""
    if isinstance(x, ast.UnaryOp):
        return True, x.operand
    return (x < 0, abs(x)) if isinstance(x, float) else (False, x)


def _negated(x):
    """-x, a negation of a negation cancelled."""
    neg, x = _signed(x)
    return x if neg else -x if isinstance(x, float) else ast.UnaryOp(ast.USub(), x)


def _folded(node, env):
    """The expression ``node`` with the names in ``env`` folded in, left to
    right: a float where it is constant, or else an expression of names,
    floats, + - * / and negations, with no negation below a product or to
    the right of a sum.  An operation on two constants is computed; a product
    with a 0 factor is 0, and a factor +-1.0 leaves only its sign; a 0 term
    of a sum is left out (an expression equals no float).  A constant that
    is an inf or a nan is folded as any other.  A division by a divisor that
    folds to 0 is left as its operands fold: the rule fails on a constant
    m3 = 0, the one divisor, before the walk reaches it."""
    kind = type(node)
    if kind is ast.Name:
        if node.id == "inf":
            return math.inf  # which only the rule reads, and compares with
        value = env.get(node.id, node)
    elif kind is ast.Constant:
        value = float(node.value)
    elif kind is ast.UnaryOp:
        return _negated(_folded(node.operand, env))
    else:
        a, b, op = _folded(node.left, env), _folded(node.right, env), type(node.op)
        if op is ast.Div and b == 0.0:
            return ast.BinOp(a, node.op, b)
        if type(a) is float and type(b) is float:
            value = _OPS[op][0](a, b)
        elif op in (ast.Add, ast.Sub):
            if b == 0.0:
                return a
            if a == 0.0:
                return b if op is ast.Add else _negated(b)
            neg, b = _signed(b)
            return ast.BinOp(a, (ast.Sub if (op is ast.Add) == neg else ast.Add)(), b)
        elif 0.0 in (a, b):
            return 0.0
        else:
            (aneg, a), (bneg, b) = _signed(a), _signed(b)
            value = a if b == 1.0 else b if a == 1.0 and op is ast.Mult else ast.BinOp(a, node.op, b)
            return _negated(value) if aneg != bneg else value
    return value


def _source(x, bind=0):
    """The folded expression ``x`` as Python, in parentheses if it is an
    operation that binds no tighter than ``bind``.  A negation is written
    as a sign, -a * b for -(a * b), which is the same float."""
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, ast.Name):
        return x.id
    if isinstance(x, ast.UnaryOp):
        return "-" + _source(x.operand, 1)
    _, op, tight = _OPS[type(x.op)]
    text = f"{_source(x.left, tight - 1)} {op} {_source(x.right, tight)}"
    return f"({text})" if tight <= bind else text


@functools.lru_cache(maxsize=None)
def _parse(line):
    """A line of the stage as its statement, None for a comment, and the
    names it assigns or reads."""
    module = ast.parse(line)
    stmt = module.body[0] if module.body else None
    return stmt, frozenset(n.id for n in ast.walk(module) if isinstance(n, ast.Name))


class _Bound(ast.NodeTransformer):
    """A syntax tree with each name that ``env`` binds to a float replaced
    by that float."""

    def __init__(self, env):
        self.env = env

    def visit_Name(self, node):
        value = self.env.get(node.id)
        return ast.Constant(value) if isinstance(value, float) else node


def _emit(lines, env):
    """The stage ``lines`` written out as Python lines, with the names in
    ``env`` (each bound to a float, or to the folded expression it stands
    for) folded in: a line that reads none of them as it stands.  Each
    target that folds to a float, or to a name or its negation if it is not
    pinned, goes into ``env`` in place of a line.  The rule, one ``if not``
    of comparisons joined by and, keeps the comparisons that read a name;
    where one of constants fails, it is its raise.  The raise reads the
    names of ``env`` bound to floats as those floats."""
    out = []
    for line in lines:
        stmt, names = _parse(line)
        if names.isdisjoint(env):
            out.append(line)
        elif isinstance(stmt, ast.If):
            fault = ast.unparse(_Bound(env).visit(ast.parse(line[stmt.body[0].col_offset :])))
            kept = []
            for c in stmt.test.operand.values:
                a, b, op = _folded(c.left, env), _folded(c.comparators[0], env), type(c.ops[0])
                if not isinstance(a, float) or not isinstance(b, float):
                    kept.append(f"{_source(a)} {_OPS[op][1]} {_source(b)}")
                elif not _OPS[op][0](a, b):
                    out.append(fault)
                    break
            else:
                out += [f"if not ({' and '.join(kept)}): {fault}"] if kept else []
        else:
            (target,) = stmt.targets
            targets = [t.id for t in getattr(target, "elts", [target])]
            values = [_folded(v, env) for v in getattr(stmt.value, "elts", [stmt.value])]
            written = []
            for t, v in zip(targets, values):
                env.pop(t, None)
                if isinstance(v, float) or (t not in _PINNED and isinstance(_signed(v)[1], ast.Name)):
                    env[t] = v
                elif (text := _source(v)) != t:
                    written.append((t, text))
            if written:
                out.append(", ".join(t for t, _ in written) + " = " + ", ".join(v for _, v in written))
    return out


def _block(lines, indent):
    return "\n".join(" " * indent + line for line in lines or ["pass"])


def _stage(lines, sums, indent):
    """A stage's lines, then its slope sums q at the first, the last and the
    middle stages: ``sums`` is the three."""
    pad = " " * indent
    first, last, middle = (_block(s, indent + 4) for s in sums)
    return f"""{_block(lines, indent)}
{pad}if stage == 0:
{first}
{pad}elif stage == 3:
{last}
{pad}else:
{middle}"""


_NEW = _each("y{i} = y{i} + w * q{i}")


def _fold(constants):
    """The step's lines after the replay, with the outputs ``constants``
    folded in: the stage points after the first stage, the stage, the slope
    sums and the new state."""
    env = dict(constants)
    stage = _emit(_STAGE, env)
    # a slope that folds to a constant is 0, each of its terms having a factor
    # from v, w1 or w2, and so is its sum q at every stage; it may be a nan
    # only after a raise that the rule decided as the walk was generated
    env.update({f"q{i}": 0.0 for i in range(12) if f"k{i}" in env})
    return _emit(_POINTS, env), stage, tuple(_emit(s, env) for s in _SUMS), _emit(_NEW, env)


def _walk_source(replay, constants):
    """The walk's source around the lines ``replay`` of a tape's replay,
    which binds the outputs ``constants`` to constants or leaves them out:
    each step's four stages loop over the replay and the lines of
    ``_fold``."""
    points, stage, sums, new = _fold(constants)
    return f"""def walk(ys, dt, dt_last):
    steps = len(ys) - 1
    {_STATE} = (ys[0] + 0.0).tolist()  # each -0.0 entry as +0.0
    for step in range(1, steps + 1):
        if step == steps:
            dt = dt_last
        h = 0.5 * dt
        for stage in range(4):
            if stage == 0:
{_block(_each("{z} = y{i}"), 16)}
            else:
                c = dt if stage == 3 else h
{_block(points, 16)}
{_stage([*replay, *stage], sums, 12)}
        w = dt / 6.0
{_block(new, 8)}
        ys[step] = {_STATE}"""


# the walk's globals besides the replay's and its spec; inf and nan are read
# by the rule and by constants that fold to them
_WALK_GLOBALS = {"inf": math.inf, "nan": math.nan, "_metric_fault": _metric_fault}


@functools.lru_cache(maxsize=64)
def _walk(spec):
    """The geodesic walk of ``spec``, generated from its tape on its first
    path and kept per spec, as ``metrics.resolve`` keeps the spec: one
    function, whose steps all loop over the tape's replay (``Tape.replay``)
    and the lines folded with the tape's constants (``_walk_source``), from
    the start row read with each -0.0 entry as +0.0.  A g that fails
    ``leading_minors``' rule, written out in the walk, at a stage point
    raises ``metric_jets``' MetricError, as ``gamma_at`` does at the same
    point."""
    replay, constants, glob = spec.tape.replay(COMPONENT_NAMES)
    glob.update(_WALK_GLOBALS, spec=spec)
    exec(compile(_walk_source(replay, constants), "<walk of a tape>", "exec"), glob)
    return glob["walk"]


def _sample_times(T: float, dt: float) -> np.ndarray:
    """0, dt, 2 dt, ..., T: ceil(T/dt) steps, t_k = k dt, the last one shortened
    to end at T; StepsError beyond MAX_STEPS, before anything is allocated."""
    ratio = T / dt * (1.0 - 1e-12)
    if not ratio <= MAX_STEPS:  # also rejects an overflow to inf
        raise StepsError(f"T/dt = {T / dt:.3g} steps is more than MAX_STEPS = {MAX_STEPS}")
    n_steps = max(0, math.ceil(ratio))
    ts = np.arange(n_steps + 1) * dt
    if n_steps:
        ts[-1] = T
    return ts


def integrate_geodesic(spec: MetricSpec, p, v, T: float, dt: float) -> GeodesicPath:
    """Geodesic through (p, v) with a parallel orthonormal frame of v-perp.

    v is normalized to unit g-length at p.  Sample times are 0, dt, ..., T
    (last step shortened if T is not a multiple of dt); more than MAX_STEPS
    steps raise StepsError, a direction with no positive g-length raises
    DirectionError, and a start point or RK4 stage point where the metric is
    not positive definite raises MetricError naming it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    ts = _sample_times(T, dt)
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    g = metric_jets(spec, p, order=0).g
    # v scaled by a power of two to a largest entry in [1/2, 1), so that its
    # g-length neither overflows nor underflows however large or small v is.
    # The vector is scaled itself: for the smallest v the factor 2^-e is not a
    # float.  Scaling up is exact; scaling down can round an entry far smaller
    # than the largest into the subnormals or to 0.
    u = np.ldexp(v, -math.frexp(np.max(np.abs(v)))[1])
    norm2 = float(u @ g @ u)
    if not norm2 > 0.0:
        raise DirectionError(f"direction {tuple(map(float, v))} has no positive length")
    v = u / math.sqrt(norm2)
    w1, w2 = orthonormal_perp(g, v, np.eye(3))
    ys = np.empty((len(ts), 12))
    ys[0] = np.concatenate([p, v, w1, w2])
    if len(ts) > 1:
        _walk(spec)(ys, float(dt), float(T - ts[-2]))
    return GeodesicPath(
        spec=spec,
        ts=ts,
        xs=ys[:, 0:3],
        vs=ys[:, 3:6],
        w1s=ys[:, 6:9],
        w2s=ys[:, 9:12],
    )


def jacobi_along(path: GeodesicPath) -> np.ndarray:
    """J(t) in the parallel frame at each path sample, as the entries
    (J11, J12, J22) of the symmetric 2x2 matrix: (n, 3).

    Entry (a, b) is g(w_a, J(v) w_b) with J(v) = R(., v)v, the operator
    ``curvature.jacobi_op`` builds.  In dimension 3, R = rho (.) g, so with
    G = W g W^T and S = W rho W^T for the rows W = (v, w1, w2) it is
    G00 S_ab + S00 G_ab - G_a0 S_b0 - S_a0 G_b0, which holds in any frame,
    orthonormal or drifted.  g and rho of each block of SAMPLE_BLOCK samples
    come from one batched ``curvature_r_only`` call on the path's metric.
    On a constant metric, whose tape has every output a constant (no
    ``Var`` below it), R = 0 and the rows are +0.0 with no kernel call: the
    kernel's own bits there (tests pin both).
    """
    tape = path.spec.tape
    if all(tape.ops[r][0] == "const" for r in tape.outputs):
        return np.zeros((len(path.ts), 3))
    out = np.empty((len(path.ts), 3))
    for b in _blocks(len(path.ts)):
        W = np.stack([path.vs[b], path.w1s[b], path.w2s[b]], axis=1)
        # in C order, so the products sum in an order their shapes alone fix
        g, rho = (np.ascontiguousarray(x) for x in curvature_r_only(path.spec, path.xs[b]))
        G, S = W @ g @ W.swapaxes(1, 2), W @ rho @ W.swapaxes(1, 2)
        G0, S0 = G[:, :, :1], S[:, :, :1]  # the columns G_a0, S_a0
        E = G[:, :1, :1] * S + S[:, :1, :1] * G - G0 * S0.swapaxes(1, 2) - S0 * G0.swapaxes(1, 2)
        out[b] = E[:, (1, 1, 2), (1, 2, 2)]
    return out


def _stage_J(ts, Js, times):
    """J's entry rows at the stage times t, t + h/2, t + h of every step
    t -> t + h between consecutive ``times``: (steps, 3 stages, 3 entries).

    Each value is the 4-point Lagrange interpolation of the J samples on the
    window of (up to) four samples around the sample interval holding the
    stage time, clamped at the ends of the path.
    """
    t0 = times[:-1]
    h = times[1:] - t0
    t = np.stack([t0, t0 + 0.5 * h, t0 + h], axis=1)  # (steps, 3)
    n = len(ts)
    if n == 1:
        return np.broadcast_to(Js[0], t.shape + (3,))
    i = np.minimum(np.maximum(np.searchsorted(ts, t) - 1, 0), n - 2)
    lo = np.maximum(0, np.minimum(i - 1, n - 4))
    idx = lo[..., None] + np.arange(min(4, n))  # (steps, 3, window)
    tw, Jw = np.take(ts, idx, axis=0), np.take(Js, idx, axis=0)  # the window's times and J rows
    out = np.zeros(t.shape + (3,))
    for a in range(idx.shape[-1]):
        w = np.ones(t.shape)
        for b in range(idx.shape[-1]):
            if a != b:
                w *= (t - tw[..., b]) / (tw[..., a] - tw[..., b])
        out += w[..., None] * Jw[..., a, :]
    return out


def _blows_up(u):
    """The Frobenius norm of u is above BLOWUP_NORM, or is inf or nan."""
    a, b, c = u
    return not math.sqrt(a * a + 2.0 * b * b + c * c) <= BLOWUP_NORM


def integrate_riccati(path: GeodesicPath, Js: np.ndarray, u0) -> RiccatiResult:
    """Integrate u' = -u^2 - J(t) over the path's sample times, from the entries
    (u11, u12, u22) of the symmetric initial value, with ``Js`` the (n, 3)
    entries of ``jacobi_along``.

    Blow-up (Frobenius norm above 1e8, or not finite) is a return value, not
    an error; the crossing time is refined by step bisection to about 1e-3.
    A u0 already blown up is reported at t = 0.
    """
    u = tuple(map(float, u0))
    if len(u) != 3:
        raise ValueError("u0 must be the three entries (u11, u12, u22)")
    ts = path.ts
    entries = [u]

    def result(blown_up, t_blow=None, bracket=None):
        us = np.array(entries)
        defect = np.abs(us[:, 0] + us[:, 2])
        return RiccatiResult(ts[: len(us)], us, defect, float(defect.max()), blown_up, t_blow, bracket)

    if _blows_up(u):
        return result(True, 0.0, (0.0, 0.0))
    # One loop takes every RK4 step on the entries a, b, c of u: the path's
    # steps, one SAMPLE_BLOCK at a time, and once a step blows up, the steps
    # of the bisection of its bracket (lo, hi), each from the last state
    # below the bound at lo to mid.  A step of length h from t to t_next
    # reads J's entries at t, t + h/2 and t_next; its slopes are -u u - J.
    a, b, c = u
    lo = hi = None
    s, i, n = 0, 0, 0
    while True:
        if i == n:  # the next block of steps, or the next bisection step
            if hi is None:
                if s == len(ts) - 1:
                    return result(False)
                times = ts[s : s + SAMPLE_BLOCK + 1]
                s += len(times) - 1
            elif hi - lo > 1e-3:
                times = np.array([lo, 0.5 * (lo + hi)])
            else:
                return result(True, 0.5 * (lo + hi), (lo, hi))
            stages, times = _stage_J(ts, Js, times).reshape(-1, 9).tolist(), times.tolist()
            i, n = 0, len(stages)
        t, t_next = times[i], times[i + 1]
        ja, jb, jc, ma, mb, mc, za, zb, zc = stages[i]
        i += 1
        h = t_next - t
        h2 = 0.5 * h
        k1a, k1b, k1c = -(a * a + b * b) - ja, -(a * b + b * c) - jb, -(b * b + c * c) - jc
        xa, xb, xc = a + h2 * k1a, b + h2 * k1b, c + h2 * k1c
        k2a, k2b, k2c = -(xa * xa + xb * xb) - ma, -(xa * xb + xb * xc) - mb, -(xb * xb + xc * xc) - mc
        xa, xb, xc = a + h2 * k2a, b + h2 * k2b, c + h2 * k2c
        k3a, k3b, k3c = -(xa * xa + xb * xb) - ma, -(xa * xb + xb * xc) - mb, -(xb * xb + xc * xc) - mc
        xa, xb, xc = a + h * k3a, b + h * k3b, c + h * k3c
        k4a, k4b, k4c = -(xa * xa + xb * xb) - za, -(xa * xb + xb * xc) - zb, -(xb * xb + xc * xc) - zc
        w = h / 6.0
        xa = a + w * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        xb = b + w * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        xc = c + w * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        if not math.sqrt(xa * xa + 2.0 * xb * xb + xc * xc) <= BLOWUP_NORM:  # ``_blows_up``
            if hi is None:
                lo, i = t, n  # the bisection, from the state at t
            hi = t_next
            continue
        a, b, c = xa, xb, xc
        if hi is None:
            entries.append((a, b, c))
        else:
            lo = t_next
