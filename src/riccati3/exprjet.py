"""Scalar expression language and truncated Taylor jets of order <= 4 in 3 variables.

An expression is an AST over the coordinate variables ``x1, x2, x3``, named
parameters, real constants, the operators ``+ - * /``, integer powers ``^``,
and the unary functions ``exp, log, sin, cos, sinh, cosh, sqrt``.

A jet is its coefficient array: every partial derivative of total order
<= k at one base point, or at each point of a batch, in graded lexicographic
multi-index order, with the coefficient for multi-index a equal to
(d^a f)(p) / a!.  The coefficient axis comes first, so at one point an
order-k jet has shape (N(k),) and at a batch of n points (N(k), n), and every
operation below is the same module function on both (vectorized Taylor
arithmetic, Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).
Graded-lex order puts all degrees <= k first, so an order-k jet is exactly
the leading N(k) = 1, 4, 10, 20, 35 coefficients of the order-4 jet, and its
product and derivative tables are leading slices of the order-4 tables.
Sums are array sums and products are the truncated Leibniz product
``_mul``; unary functions and integer powers compose a scalar Taylor series
(the binomial series for powers, n = -1 for division) with the
constant-free part of the argument (``_compose``), so no symbolic
differentiation of the AST is ever needed.

There is one jet evaluator, the compiled ``Tape``: a tuple of expressions
becomes one flat list of operations on registers, with each repeated subtree
computed once and each constant subtree folded, replayed at any order and at
one point or a batch.  A metric compiles its six components once
(``MetricSpec.tape``); ``eval_jet`` is a one-expression tape that returns its
array in a ``Jet4`` record, and ``eval_dual`` (value and gradient) is its
order-1 case.  ``eval_scalar`` is a plain-float tree walk kept apart from the
tape as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

NVARS = 3
MAX_ORDER = 4
VAR_NAMES = ("x1", "x2", "x3")
FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")


def _build_multi_indices():
    out = []
    for deg in range(MAX_ORDER + 1):
        level = [
            (a, b, deg - a - b)
            for a in range(deg, -1, -1)
            for b in range(deg - a, -1, -1)
        ]
        out.extend(level)
    return tuple(out)


MULTI_INDICES = _build_multi_indices()
# graded-lex order puts the N(k) multi-indices of degree <= k first
N_BY_ORDER = tuple(math.comb(k + NVARS, NVARS) for k in range(MAX_ORDER + 1))  # 1, 4, 10, 20, 35
INDEX_OF = {m: i for i, m in enumerate(MULTI_INDICES)}
FACTORIALS = np.array(
    [math.factorial(a) * math.factorial(b) * math.factorial(c) for a, b, c in MULTI_INDICES],
    dtype=float,
)


def _build_hess_index():
    """[i, j] -> index of the multi-index e_i + e_j, whose coefficient is
    d_i d_j f, halved on the diagonal."""
    index = np.empty((NVARS, NVARS), dtype=int)
    for i in range(NVARS):
        for j in range(NVARS):
            m = [0] * NVARS
            m[i] += 1
            m[j] += 1
            index[i, j] = INDEX_OF[tuple(m)]
    return index


_HESS_INDEX = _build_hess_index()


def _build_mul_tables():
    """Leibniz terms (out, a, b) sorted by output index, so the order-k
    table is the leading slice that writes the first N(k) outputs."""
    out_idx, a_idx, b_idx = [], [], []
    for gi, gamma in enumerate(MULTI_INDICES):
        for ai, alpha in enumerate(MULTI_INDICES):
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            if min(beta) < 0:
                continue
            out_idx.append(gi)
            a_idx.append(ai)
            b_idx.append(INDEX_OF[beta])
    out_idx, a_idx, b_idx = np.array(out_idx), np.array(a_idx), np.array(b_idx)
    tables = []
    for n in N_BY_ORDER:
        m = int(np.searchsorted(out_idx, n))
        tables.append((out_idx[:m], a_idx[:m], b_idx[:m]))
    return tuple(tables)


_MUL_TABLES = _build_mul_tables()
# the order-k Leibniz terms summed into their outputs by a one-hot (N(k), terms) matrix
_MUL_SCATTER = tuple(
    (out == np.arange(N_BY_ORDER[k])[:, None]).astype(float) for k, (out, _, _) in enumerate(_MUL_TABLES)
)


def _mul(a, b, order):
    """Truncated Leibniz product of two coefficient arrays at ``order``:
    (N,) at one point, (N, n) at a batch."""
    _, ia, ib = _MUL_TABLES[order]
    # ndarray.dot: the same BLAS product as @, without the ufunc dispatch
    # that dominates at one point
    return _MUL_SCATTER[order].dot(a[ia] * b[ib])


def contract(subscripts, a, b, order):
    """Truncated Leibniz product of two tensor-valued coefficient arrays at
    ``order``, contracted over their tensor axes by the einsum ``subscripts``
    (``"kl,lij->kij"``): an operand has shape (N,) + batch + its tensor axes
    (coefficients first, as in ``Jet4.coef``), the result (N(order),) + batch
    + the output axes.  The terms are summed by the same matrix product as
    ``_mul``."""
    _, ia, ib = _MUL_TABLES[order]
    ins, res = subscripts.split("->")
    sa, sb = ins.split(",")
    terms = np.einsum(f"t...{sa},t...{sb}->t...{res}", a[ia], b[ib])
    return (_MUL_SCATTER[order] @ terms.reshape(len(ia), -1)).reshape((-1,) + terms.shape[1:])


def _build_diff_tables():
    """d/dx_i as a gather: output j (the j-th multi-index, degree < 4) reads
    source src[j] scaled by fac[j]; the order-k jet's derivative is the
    leading N(k-1) outputs."""
    tables = []
    for i in range(NVARS):
        src, fac = [], []
        for beta in MULTI_INDICES[: N_BY_ORDER[MAX_ORDER - 1]]:
            up = list(beta)
            up[i] += 1
            src.append(INDEX_OF[tuple(up)])
            fac.append(beta[i] + 1)
        tables.append((np.array(src), np.array(fac, dtype=float)))
    return tables


_DIFF_TABLES = _build_diff_tables()


def partials(c):
    """The first partials of a coefficient array of shape (N(k),) + rest,
    k >= 1: coefficients of order k - 1, d_m on a new last axis."""
    n = N_BY_ORDER[N_BY_ORDER.index(len(c)) - 1]
    fac = (1,) * (c.ndim - 1)
    return np.stack([c[src[:n]] * f[:n].reshape((n,) + fac) for src, f in _DIFF_TABLES], -1)


def hessian(c):
    """The second partials at the base point of a coefficient array of shape
    (N(k),) + rest, k >= 2: [i, j, ...] = d_i d_j."""
    h = c[_HESS_INDEX]  # the coefficient of e_i + e_j is d_i d_j, halved on i == j
    h[range(NVARS), range(NVARS)] *= 2.0
    return h


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    """Syntax or name error; ``offset`` is the byte offset into the source."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainFault(ExprError):
    """Evaluation fault (log/sqrt of non-positive value, division by ~0)."""

    def __init__(self, message, node):
        super().__init__(f"{message} in subtree '{format_expr(node)}'")
        self.node = node


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0..2


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Const, Var, Param, Neg, BinOp, Power, Call]


def format_expr(e: Expr) -> str:
    """Fully parenthesized printing; print/parse round-trips are idempotent."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return VAR_NAMES[e.index]
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        return f"(-{format_expr(e.arg)})"
    if isinstance(e, BinOp):
        return f"({format_expr(e.left)} {e.op} {format_expr(e.right)})"
    if isinstance(e, Power):
        return f"({format_expr(e.base)}^{e.exponent})"
    if isinstance(e, Call):
        return f"{e.func}({format_expr(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


class _Parser:
    """Recursive-descent parser: + - | * / | unary - | ^int | atoms."""

    def __init__(self, src, params):
        self.src = src
        self.pos = 0
        self.params = frozenset(params)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else "\x00"

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def parse(self):
        e = self.expression()
        self.skip_ws()
        if self.pos != len(self.src):
            raise ParseError("unexpected trailing input", self.pos)
        return e

    def expression(self):
        left = self.term()
        while self.peek() in "+-":
            op = self.src[self.pos]
            self.pos += 1
            left = BinOp(op, left, self.term())
        return left

    def term(self):
        left = self.factor()
        while self.peek() in "*/":
            op = self.src[self.pos]
            self.pos += 1
            left = BinOp(op, left, self.factor())
        return left

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.factor())
        if self.peek() == "+":
            self.pos += 1
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            return Power(base, self.integer())
        return base

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.src[start:self.pos].lstrip("-"):
            raise ParseError("expected integer exponent", start)
        return int(self.src[start:self.pos])

    def atom(self):
        c = self.peek()
        if c == "\x00":
            raise ParseError("unexpected end of input", self.pos)
        if c == "(":
            self.pos += 1
            e = self.expression()
            self.expect(")")
            return e
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha() or c == "_":
            return self.identifier()
        raise ParseError(f"unexpected character '{c}'", self.pos)

    def number(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and (self.src[self.pos].isdigit() or self.src[self.pos] == "."):
            self.pos += 1
        if self.pos < len(self.src) and self.src[self.pos] in "eE":
            save = self.pos
            self.pos += 1
            if self.pos < len(self.src) and self.src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.src) and self.src[self.pos].isdigit():
                while self.pos < len(self.src) and self.src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = save
        text = self.src[start:self.pos]
        try:
            return Const(float(text))
        except ValueError:
            raise ParseError(f"bad number '{text}'", start) from None

    def identifier(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and (self.src[self.pos].isalnum() or self.src[self.pos] == "_"):
            self.pos += 1
        name = self.src[start:self.pos]
        if self.peek() == "(":
            if name not in FUNCTIONS:
                raise ParseError(f"unknown function '{name}'", start)
            self.pos += 1
            args = [self.expression()]
            while self.peek() == ",":
                self.pos += 1
                args.append(self.expression())
            self.expect(")")
            if len(args) != 1:
                raise ParseError(f"'{name}' takes 1 argument, got {len(args)}", start)
            return Call(name, args[0])
        if name in VAR_NAMES:
            return Var(VAR_NAMES.index(name))
        if name in self.params:
            return Param(name)
        raise ParseError(f"unknown identifier '{name}'", start)


def parse_expr(src: str, params=()) -> Expr:
    """Parse ``src`` into an AST; identifiers outside x1..x3/params/functions fail."""
    return _Parser(src, params).parse()


# --- Jets --------------------------------------------------------------


def as_point(p):
    """The base point of jets at p: a float tuple for one point, a float (n, 3)
    array for a batch of n points."""
    if isinstance(p, np.ndarray):
        if p.ndim == 2:
            if p.shape[1] != NVARS:
                raise ExprError(f"a batch of points has shape (n, {NVARS}), got {p.shape}")
            return np.asarray(p, dtype=float)
        p = p.tolist()  # Python numbers, which float() converts fastest
    return tuple(map(float, p))


def _any(mask):
    """Whether a fault mask is set: a bool at one point, a bool array at a batch."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _value(c):
    """The value of a coefficient array: a float at one point, an (n,) array at a batch."""
    return float(c[0]) if c.ndim == 1 else c[0]


@dataclass(slots=True)
class Jet4:
    """The jet ``eval_jet`` returns: the coefficient array of an expression
    of total order <= ``order`` <= 4 at ``point``.

    ``coef[i]`` is (d^a f)(p) / a! for the i-th graded-lex multi-index a; an
    order-k jet stores exactly the N(k) = 1, 4, 10, 20, 35 coefficients of
    degree <= k, so truncating a jet is slicing its coefficients.  At one
    point ``point`` is a float tuple and ``coef`` has shape (N(k),); at a
    batch of n points ``point`` is an (n, 3) array and ``coef`` has shape
    (N(k), n), so ``value`` and ``partial`` give length-n arrays.
    """

    point: tuple | np.ndarray
    coef: np.ndarray
    order: int

    @property
    def value(self):
        """The value: a float at one point, an (n,) array at a batch."""
        return _value(self.coef)

    def partial(self, alpha):
        """Exact partial derivative d^alpha at the base point(s)."""
        if sum(alpha) > self.order:
            raise ExprError(f"partial {alpha} beyond jet order {self.order}")
        k = INDEX_OF[tuple(alpha)]
        d = self.coef[k] * FACTORIALS[k]
        return float(d) if self.coef.ndim == 1 else d


def _compose(c, series, order):
    """sum_k series[k] * (c - value)^k by Horner, for a coefficient array c.

    ``series[k]`` is a float at one point and an (n,) array at a batch.
    Terms beyond ``order`` vanish, so only series[:order + 1] is read.
    """
    top = min(order, len(series) - 1)
    if top == 0:
        out = np.zeros(c.shape)
    else:
        out = c * series[top]  # series[top] * h, constant term aside
        if top > 1:
            h = c.copy()
            h[0] = 0.0
            for k in range(top - 1, 0, -1):
                out[0] = series[k]
                out = _mul(out, h, order)
    out[0] = series[0]
    return out


def _ipow(c, n, order, node):
    """c^n by the binomial series (a0 + h)^n; n = -1 is the reciprocal.

    A negative power of a value within 1e-12 of 0 (at any point of a batch)
    raises DomainFault naming ``node``.
    """
    a0 = _value(c)
    if n < 0 and _any(abs(a0) < 1e-12):
        raise DomainFault("division by ~0", node)
    top = order if n < 0 else min(order, n)
    series, b = [], 1.0  # b = binomial(n, k)
    for k in range(top + 1):
        series.append(b * a0 ** (n - k))
        b = b * (n - k) / (k + 1)
    return _compose(c, series, order)


def _function_series(name, a0, node):
    """Taylor coefficients of a unary function at a0 (a float, or an (n,) array)."""
    lib = np if isinstance(a0, np.ndarray) else math
    if name == "exp":
        e = lib.exp(a0)
        return [e, e, e / 2, e / 6, e / 24]
    if name == "log":
        if _any(a0 <= 0):
            raise DomainFault("log of non-positive value", node)
        return [lib.log(a0), 1 / a0, -1 / (2 * a0**2), 1 / (3 * a0**3), -1 / (4 * a0**4)]
    if name == "sqrt":
        if _any(a0 <= 0):
            raise DomainFault("sqrt of non-positive value", node)
        s = lib.sqrt(a0)
        return [s, s / (2 * a0), -s / (8 * a0**2), s / (16 * a0**3), -5 * s / (128 * a0**4)]
    if name == "sin":
        s, c = lib.sin(a0), lib.cos(a0)
        return [s, c, -s / 2, -c / 6, s / 24]
    if name == "cos":
        s, c = lib.sin(a0), lib.cos(a0)
        return [c, -s, -c / 2, s / 6, c / 24]
    if name == "sinh":
        s, c = lib.sinh(a0), lib.cosh(a0)
        return [s, c, s / 2, c / 6, s / 24]
    if name == "cosh":
        s, c = lib.sinh(a0), lib.cosh(a0)
        return [c, s, c / 2, s / 6, c / 24]
    raise ExprError(f"unknown function '{name}'")


_LEAVES = ("const", "var", "unbound")
_BINARY = ("+", "-", "*")


class Tape:
    """A tuple of expressions compiled into one flat list of operations.

    Compilation walks every expression once, in post-order, and gives each
    operation a register (an evaluation tape, Griewank & Walther, ch. 13):

    - hash-consing: an operation whose kind and input registers were seen
      before reuses that register, so a subtree repeated within or across the
      expressions is computed once;
    - constant folding: an operation whose inputs are all constants (no
      ``Var`` below it) is evaluated once, by this evaluator at order 0 at
      one point, and becomes a constant register.  An operation whose folding
      faults stays on the tape, so every run raises the same ``DomainFault``.

    ``run`` replays the operations at any order 0..4, at one point or a
    batch, on coefficient arrays with ``_mul``, ``_ipow`` and ``_compose``:
    the arithmetic of a walk of each tree, in the same order.  A register is
    computed where the walk would first compute its subtree, so the first
    fault of a run is the walk's first fault and names the same subtree.
    Parameters are bound at compilation.

    ``ops[k] = (kind, a, b, node)`` writes register k: ``const`` (a = value),
    ``var`` (a = coordinate index), ``unbound`` (a = parameter name, raises
    when run), ``neg`` (a), ``+ - *`` (a, b), ``^`` (a, b = integer
    exponent) and ``call`` (a, b = function name); ``node`` is the subtree a
    fault names.
    """

    def __init__(self, exprs, params=None):
        self.params = params or {}
        self.ops = []
        self._seen = {}  # (kind, a, b) -> register
        self.outputs = tuple(self._compile(e) for e in exprs)

    def _emit(self, kind, a, b=None, node=None):
        key = (kind, a.hex() if kind == "const" else a, b)  # hex keeps 0.0 and -0.0 apart
        reg = self._seen.get(key)
        if reg is None:
            ins = () if kind in _LEAVES else (a, b) if kind in _BINARY else (a,)
            if ins and all(self.ops[r][0] == "const" for r in ins):
                value = self._fold(kind, ins, b, node)
                if value is not None:
                    return self._emit("const", value)
            reg = self._seen[key] = len(self.ops)
            self.ops.append((kind, a, b, node))
        return reg

    def _fold(self, kind, ins, b, node):
        """The value of an operation on constant registers, from ``_run`` at
        order 0; None if it faults."""
        consts = [self.ops[r] for r in ins]
        op = (kind, 0, 1 if kind in _BINARY else b, node)
        try:
            (c,) = _run(consts + [op], (len(consts),), (0.0,) * NVARS, 0)
        except (ExprError, ArithmeticError):
            return None
        return float(c[0])

    def _compile(self, node):
        if isinstance(node, Const):
            return self._emit("const", float(node.value))
        if isinstance(node, Var):
            return self._emit("var", node.index)
        if isinstance(node, Param):
            if node.name in self.params:
                return self._emit("const", float(self.params[node.name]))
            return self._emit("unbound", node.name)
        if isinstance(node, Neg):
            return self._emit("neg", self._compile(node.arg))
        if isinstance(node, BinOp):
            a, b = self._compile(node.left), self._compile(node.right)
            if node.op == "/":
                return self._emit("*", a, self._emit("^", b, -1, node.right))
            return self._emit(node.op, a, b)
        if isinstance(node, Power):
            return self._emit("^", self._compile(node.base), node.exponent, node)
        if isinstance(node, Call):
            return self._emit("call", self._compile(node.arg), node.func, node)
        raise TypeError(f"not an Expr: {node!r}")

    def run(self, p, order: int = MAX_ORDER):
        """The coefficient arrays of the expressions at point p, or at each
        row of an (n, 3) array p: one (N(order),) or (N(order), n) array per
        expression, the same array for expressions that share a register."""
        if not 0 <= order <= MAX_ORDER:
            raise ExprError(f"order must be 0..{MAX_ORDER}, got {order}")
        return _run(self.ops, self.outputs, as_point(p), order)


def _run(ops, outputs, point, order):
    """Replay tape operations at an ``as_point`` point; the output registers."""
    # coords[i]: x_i at the point, or at each point of the batch
    if isinstance(point, tuple):
        shape, coords = (N_BY_ORDER[order],), point
    else:
        shape, coords = (N_BY_ORDER[order], len(point)), point.T
    regs = []
    for kind, a, b, node in ops:
        if kind == "const":
            c = np.zeros(shape)
            c[0] = a
        elif kind == "var":
            c = np.zeros(shape)
            c[0] = coords[a]
            if order >= 1:
                c[1 + a] = 1.0
        elif kind == "*":
            c = _mul(regs[a], regs[b], order)
        elif kind == "+":
            c = regs[a] + regs[b]
        elif kind == "-":
            c = regs[a] - regs[b]
        elif kind == "^":
            c = _ipow(regs[a], b, order, node)
        elif kind == "call":
            c = _compose(regs[a], _function_series(b, _value(regs[a]), node), order)
        elif kind == "neg":
            c = -regs[a]
        else:
            raise ExprError(f"unbound parameter '{a}'")
        regs.append(c)
    return [regs[r] for r in outputs]


def eval_jet(e: Expr, p, params=None, order: int = MAX_ORDER) -> Jet4:
    """Evaluate an expression as a jet of the given order at point p, or at
    each row of an (n, 3) array p (one batched jet, see ``Jet4``): a
    one-expression ``Tape``."""
    (coef,) = Tape((e,), params).run(p, order)
    return Jet4(as_point(p), coef, order)


def eval_scalar(e: Expr, p, params=None, lib=math):
    """Plain scalar tree evaluation; ``lib`` may be mpmath for high precision.

    Deliberately not on the ``Tape``: the tests use it, with finite
    differences, as an oracle independent of the jet evaluator.
    """
    params = params or {}

    def rec(node):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return p[node.index]
        if isinstance(node, Param):
            return params[node.name]
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, BinOp):
            a, b = rec(node.left), rec(node.right)
            return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[node.op]
        if isinstance(node, Power):
            return rec(node.base) ** node.exponent
        if isinstance(node, Call):
            return getattr(lib, node.func)(rec(node.arg))
        raise TypeError(f"not an Expr: {node!r}")

    return rec(e)


def eval_dual(e: Expr, p, params=None) -> np.ndarray:
    """Value and first partials as a length-4 array, (4, n) at a batch: the order-1 jet."""
    return eval_jet(e, p, params, order=1).coef
