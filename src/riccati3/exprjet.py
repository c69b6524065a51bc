"""Scalar expression language and truncated Taylor jets of order <= 4 in 3 variables.

An expression is an AST over the coordinate variables ``x1, x2, x3``, named
parameters, real constants, the operators ``+ - * /``, integer powers ``^``,
and the unary functions ``exp, log, sin, cos, sinh, cosh, sqrt``.

An order-k jet stores every partial derivative of total order <= k at a base
point: coefficients in graded lexicographic multi-index order, with the
coefficient for multi-index a equal to (d^a f)(p) / a!.  Graded-lex order puts
all degrees <= k first, so an order-k jet is exactly the leading
N(k) = 1, 4, 10, 20, 35 coefficients of the order-4 jet, and its product and
derivative tables are leading slices of the order-4 tables.  Arithmetic is
truncated Taylor arithmetic; unary functions and integer powers are evaluated
by composing a scalar Taylor series (the binomial series for powers, n = -1
for division) with the constant-free part of the argument jet, so no symbolic
differentiation of the AST is ever needed.  There is one evaluator,
``eval_jet``: ``eval_dual`` (value and gradient) is its order-1 case.
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


def _mul(a, b, order):
    """Truncated Leibniz product of two coefficient vectors at ``order``."""
    out, ia, ib = _MUL_TABLES[order]
    return np.bincount(out, weights=a[ia] * b[ib], minlength=N_BY_ORDER[order])


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


class Jet4:
    """Truncated Taylor expansion at a point, total order <= ``order`` <= 4.

    ``coef[i]`` is (d^a f)(p) / a! for the i-th graded-lex multi-index a; an
    order-k jet stores exactly the N(k) = 1, 4, 10, 20, 35 coefficients of
    degree <= k, so truncating a jet is slicing its coefficients.
    """

    __slots__ = ("point", "coef", "order")

    def __init__(self, point, coef, order=MAX_ORDER):
        self.point = tuple(map(float, point))
        self.coef = np.asarray(coef, dtype=float)
        self.order = int(order)
        if self.coef.shape != (N_BY_ORDER[self.order],):
            raise ExprError(
                f"an order-{self.order} jet has {N_BY_ORDER[self.order]} coefficients, "
                f"got shape {self.coef.shape}"
            )

    @classmethod
    def _raw(cls, point, coef, order):
        """Internal constructor: ``point`` is already a float tuple, ``coef`` sized."""
        jet = object.__new__(cls)
        jet.point = point
        jet.coef = coef
        jet.order = order
        return jet

    @classmethod
    def constant(cls, value, point, order=MAX_ORDER):
        coef = np.zeros(N_BY_ORDER[order])
        coef[0] = value
        return cls._raw(tuple(map(float, point)), coef, order)

    @classmethod
    def variable(cls, index, point, order=MAX_ORDER):
        coef = np.zeros(N_BY_ORDER[order])
        coef[0] = point[index]
        if order >= 1:
            coef[1 + index] = 1.0
        return cls._raw(tuple(map(float, point)), coef, order)

    @property
    def value(self) -> float:
        return float(self.coef[0])

    def grad(self) -> np.ndarray:
        """First partials (3,); needs order >= 1."""
        return self.coef[1:4].copy()

    def hess(self) -> np.ndarray:
        """Second partials (3,3), symmetric; needs order >= 2."""
        h = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                m = [0, 0, 0]
                m[i] += 1
                m[j] += 1
                k = INDEX_OF[tuple(m)]
                h[i, j] = self.coef[k] * (2.0 if i == j else 1.0)
        return h

    def partial(self, alpha) -> float:
        """Exact partial derivative d^alpha at the base point."""
        if sum(alpha) > self.order:
            raise ExprError(f"partial {alpha} beyond jet order {self.order}")
        k = INDEX_OF[tuple(alpha)]
        return float(self.coef[k] * FACTORIALS[k])

    def _check(self, other):
        """Mixed orders are fine: the result has the lower order."""
        if self.point != other.point:
            raise ExprError(f"base-point mismatch: {self.point} vs {other.point}")
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, Jet4):
            order = self._check(other)
            n = N_BY_ORDER[order]
            return Jet4._raw(self.point, self.coef[:n] + other.coef[:n], order)
        coef = self.coef.copy()
        coef[0] += other
        return Jet4._raw(self.point, coef, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet4._raw(self.point, -self.coef, self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet4) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet4):
            order = self._check(other)
            return Jet4._raw(self.point, _mul(self.coef, other.coef, order), order)
        return Jet4._raw(self.point, self.coef * float(other), self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet4):
            return self * other.ipow(-1)
        return Jet4._raw(self.point, self.coef / float(other), self.order)

    def __rtruediv__(self, other):
        return self.ipow(-1) * float(other)

    def diff(self, i) -> "Jet4":
        """Jet of the i-th partial derivative (order drops by one, not below 0)."""
        if self.order == 0:
            return Jet4._raw(self.point, np.zeros(1), 0)
        src, fac = _DIFF_TABLES[i]
        n = N_BY_ORDER[self.order - 1]
        return Jet4._raw(self.point, self.coef[src[:n]] * fac[:n], self.order - 1)

    def compose_series(self, series) -> "Jet4":
        """Evaluate sum_k series[k] * (self - value)^k by Horner.

        Terms beyond the jet order vanish, so only series[:order + 1] is read.
        """
        top = min(self.order, len(series) - 1)
        if top == 0:
            coef = np.zeros(len(self.coef))
        else:
            coef = self.coef * float(series[top])  # series[top] * h, constant term aside
            if top > 1:
                h = self.coef.copy()
                h[0] = 0.0
                for k in range(top - 1, 0, -1):
                    coef[0] = series[k]
                    coef = _mul(coef, h, self.order)
        coef[0] = series[0]
        return Jet4._raw(self.point, coef, self.order)

    def ipow(self, n: int, node=None, threshold=1e-12) -> "Jet4":
        """Integer power by the binomial series (a0 + h)^n; n = -1 is the reciprocal.

        A negative power of a value within ``threshold`` of 0 raises
        DomainFault naming ``node`` (or the value).
        """
        a0 = self.value
        if n < 0 and abs(a0) < threshold:
            raise DomainFault("division by ~0", node if node is not None else Const(a0))
        top = self.order if n < 0 else min(self.order, n)
        series, c = [], 1.0  # c = binomial(n, k)
        for k in range(top + 1):
            series.append(c * a0 ** (n - k))
            c = c * (n - k) / (k + 1)
        return self.compose_series(series)


def _function_series(name, a0, node):
    if name == "exp":
        e = math.exp(a0)
        return [e, e, e / 2, e / 6, e / 24]
    if name == "log":
        if a0 <= 0:
            raise DomainFault("log of non-positive value", node)
        return [math.log(a0), 1 / a0, -1 / (2 * a0**2), 1 / (3 * a0**3), -1 / (4 * a0**4)]
    if name == "sqrt":
        if a0 <= 0:
            raise DomainFault("sqrt of non-positive value", node)
        s = math.sqrt(a0)
        return [s, s / (2 * a0), -s / (8 * a0**2), s / (16 * a0**3), -5 * s / (128 * a0**4)]
    if name == "sin":
        s, c = math.sin(a0), math.cos(a0)
        return [s, c, -s / 2, -c / 6, s / 24]
    if name == "cos":
        s, c = math.sin(a0), math.cos(a0)
        return [c, -s, -c / 2, s / 6, c / 24]
    if name == "sinh":
        s, c = math.sinh(a0), math.cosh(a0)
        return [s, c, s / 2, c / 6, s / 24]
    if name == "cosh":
        s, c = math.sinh(a0), math.cosh(a0)
        return [c, s, c / 2, s / 6, c / 24]
    raise ExprError(f"unknown function '{name}'")


def eval_jet(e: Expr, p, params=None, order: int = MAX_ORDER) -> Jet4:
    """Evaluate an expression as a jet of the given order at point p."""
    if not 0 <= order <= MAX_ORDER:
        raise ExprError(f"order must be 0..{MAX_ORDER}, got {order}")
    params = params or {}

    def rec(node):
        if isinstance(node, Const):
            return Jet4.constant(node.value, p, order)
        if isinstance(node, Var):
            return Jet4.variable(node.index, p, order)
        if isinstance(node, Param):
            try:
                return Jet4.constant(float(params[node.name]), p, order)
            except KeyError:
                raise ExprError(f"unbound parameter '{node.name}'") from None
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, BinOp):
            a, b = rec(node.left), rec(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            return a * b.ipow(-1, node.right)
        if isinstance(node, Power):
            return rec(node.base).ipow(node.exponent, node)
        if isinstance(node, Call):
            arg = rec(node.arg)
            return arg.compose_series(_function_series(node.func, arg.value, node))
        raise TypeError(f"not an Expr: {node!r}")

    return rec(e)


def eval_scalar(e: Expr, p, params=None, lib=math):
    """Plain scalar tree evaluation; ``lib`` may be mpmath for high precision."""
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
    """Value and first partials as a length-4 array: the order-1 jet."""
    return eval_jet(e, p, params, order=1).coef
