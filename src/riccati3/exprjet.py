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
differentiation of the AST is ever needed.  Products of tensor-valued
coefficient arrays (``contract``) sum their Leibniz terms in groups
(``add_pair_terms``), which also serve a quotient of series solved degree
by degree by its forward recurrence.

There is one jet evaluator, the compiled ``Tape``: a tuple of expressions
becomes one flat list of operations on registers, with each repeated subtree
computed once and each constant subtree folded, replayed at any order and at
one point or a batch.  A metric compiles its six components once
(``MetricSpec.tape``); ``eval_jet`` is a one-expression tape that returns its
array in a ``Jet4`` record, and ``eval_dual`` (value and gradient) is its
order-1 case.  At order 1 and one point a coefficient array is four numbers,
too few to pay numpy's cost per call, so ``Tape.first_order`` replays the
same operations on Python floats, a register being the tuple of its four
coefficients: the same series functions and fault rules (``_power_series``,
``_function_series``), summed as ``_mul`` sums, so it gives the bits of
``run(p, 1)``.  The geodesic stepper's ``metrics.gamma_at`` runs it.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Union

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
    table is the leading slice that writes the first N(k) outputs: every
    pair gamma >= alpha of multi-indices, in row-major order of (gamma, alpha),
    with beta = gamma - alpha looked up in a cube of multi-index positions."""
    m = np.array(MULTI_INDICES)
    diff = m[:, None, :] - m[None, :, :]
    out_idx, a_idx = np.nonzero((diff >= 0).all(-1))
    cube = np.zeros((MAX_ORDER + 1,) * NVARS, dtype=np.int64)
    cube[tuple(m.T)] = np.arange(len(m))
    b_idx = cube[tuple(diff[out_idx, a_idx].T)]
    tables = []
    for n in N_BY_ORDER:
        k = int(np.searchsorted(out_idx, n))
        tables.append((out_idx[:k], a_idx[:k], b_idx[:k]))
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


@functools.lru_cache(maxsize=None)
def _contraction(subscripts, ndim):
    """``contract``'s plan at operands of ``ndim`` axes: the count n of leading
    (coefficient and batch) axes, the operands' axis orders and matrix
    shapes, and the product's free axes with the order that takes them to
    the output's."""
    ins, res = subscripts.split("->")
    sa, sb = ins.split(",")
    summed = [c for c in sa if c in sb]
    fa, fb = [c for c in sa if c not in sb], [c for c in sb if c not in sa]
    n = ndim - len(sa)

    def axes(sub, letters):  # the leading axes, then sub's in the order of letters
        return tuple(range(n)) + tuple(n + sub.index(c) for c in letters)
    k, s, m = NVARS ** len(fa), NVARS ** len(summed), NVARS ** len(fb)
    free = (NVARS,) * len(fa + fb)
    return n, axes(sa, fa + summed), axes(sb, summed + fb), (k, s), (s, m), free, axes(fa + fb, res)


# the coefficients of degree d: DEGREES[d] = slice(N(d - 1), N(d))
DEGREES = tuple(slice(N_BY_ORDER[d - 1] if d else 0, N_BY_ORDER[d]) for d in range(MAX_ORDER + 1))


def _build_pair_scatters():
    """For each degree c and 0 < j < c, the one-hot (outputs, pairs) matrix
    that sums the products of every degree-j coefficient alpha with every
    degree-(c - j) coefficient beta, the pairs in row-major order, into the
    degree-c output alpha + beta; empty for c < 2."""
    m = np.array(MULTI_INDICES)
    cube = np.zeros((MAX_ORDER + 1,) * NVARS, dtype=np.int64)
    cube[tuple(m.T)] = np.arange(len(m))
    tables = []
    for c, rows in enumerate(DEGREES):
        outputs = np.arange(rows.start, rows.stop)[:, None]
        sums = (m[DEGREES[j], None] + m[None, DEGREES[c - j]] for j in range(1, c))
        tables.append(tuple((cube[tuple(s.reshape(-1, NVARS).T)] == outputs).astype(float) for s in sums))
    return tuple(tables)


_PAIR_SCATTERS = _build_pair_scatters()


def add_pair_terms(out, x, y, c):
    """out += sum x[alpha] @ y[beta] over the Leibniz pairs of the degree-c
    outputs gamma = alpha + beta with alpha and beta both nonzero: x and y
    are coefficient arrays of stacked matrices, shape (N,) + batch + (k, s)
    and (N,) + batch + (s, m), and ``out`` holds the degree-c outputs,
    (n_c,) + batch + (k, m).  The pairs come in groups by |alpha| = j: one
    broadcast product of the degree-j coefficients of x with the
    degree-(c - j) ones of y, summed into ``out`` by that group's one-hot
    matrix, so only one group's products are alive at a time.  The one-hot
    product runs point by point, each point's columns read and written in
    place through the BLAS leading dimension, so a point's sums do not
    depend on its position in the batch."""
    def by_point(t, n):  # n rows of batch + (k, m) as the view (points, n, k m)
        return t.reshape(n, -1, out.shape[-2] * out.shape[-1]).swapaxes(0, 1)

    for j, scatter in enumerate(_PAIR_SCATTERS[c], 1):
        terms = x[DEGREES[j], None] @ y[None, DEGREES[c - j]]  # (n_j, n_{c-j}) + batch + (k, m)
        sums = np.empty(out.shape)
        np.matmul(scatter, by_point(terms, scatter.shape[1]), out=by_point(sums, len(out)))
        out += sums


def contract(subscripts, a, b, order):
    """Truncated Leibniz product of two tensor-valued coefficient arrays at
    ``order``, contracted over their tensor axes by the einsum-style
    ``subscripts`` (``"kl,lij->kij"``, each index summed or kept): an operand
    has shape (N,) + batch + its tensor axes of length 3 (coefficients first,
    as in ``Jet4.coef``), the C-contiguous result (N(order),) + batch + the
    output axes.  The operands' first N(order) coefficients become stacks
    of (free, summed) and (summed, free) matrices, and the Leibniz terms are
    summed into one output buffer in groups, by stacked ``np.matmul``
    products: alpha = 0 for every output in one product, then for each
    degree the terms beta = 0 and the pairs of ``add_pair_terms``.  Only
    then are the free axes put in the output's order, so that copy runs on
    N(order) rows, not one per term."""
    n, axes_a, axes_b, mat_a, mat_b, free, axes_out = _contraction(subscripts, a.ndim)
    shape = (N_BY_ORDER[order],) + a.shape[1:n]
    x = a[: shape[0]].transpose(axes_a).reshape(shape + mat_a)
    y = b[: shape[0]].transpose(axes_b).reshape(shape + mat_b)
    out = x[0] @ y
    for c in range(1, order + 1):
        rows = out[DEGREES[c]]
        rows += x[DEGREES[c]] @ y[0]
        add_pair_terms(rows, x, y, c)
    return np.ascontiguousarray(out.reshape(shape + free).transpose(axes_out))


def _build_diff_tables():
    """d/dx_i as a gather: output j (the j-th multi-index, degree < 4) reads
    source src[j, i] scaled by fac[j, i]; the order-k jet's derivative is
    the leading N(k-1) outputs."""
    n = N_BY_ORDER[MAX_ORDER - 1]
    src, fac = np.empty((n, NVARS), dtype=int), np.empty((n, NVARS))
    for j, beta in enumerate(MULTI_INDICES[:n]):
        for i in range(NVARS):
            up = list(beta)
            up[i] += 1
            src[j, i] = INDEX_OF[tuple(up)]
            fac[j, i] = beta[i] + 1
    return src, fac


_DIFF_SRC, _DIFF_FAC = _build_diff_tables()


def partials(c, before=0):
    """The first partials of a coefficient array of shape (N(k),) + rest,
    k >= 1: coefficients of order k - 1, d_m on a new last axis (a view of
    one gather), or with ``before`` > 0 on a new axis before the last
    ``before`` axes of rest (one gather straight into a C-contiguous array
    in that axis order)."""
    n = N_BY_ORDER[N_BY_ORDER.index(len(c)) - 1]
    if not before:
        d = c[_DIFF_SRC[:n]]
        d *= _DIFF_FAC[:n].reshape((n, NVARS) + (1,) * (c.ndim - 1))
        return d.transpose((0,) + tuple(range(2, d.ndim)) + (1,))
    head, tail = c.shape[1:-before], c.shape[-before:]
    flat = c.reshape(len(c), -1, math.prod(tail))
    d = flat[_DIFF_SRC[:n, None, :], np.arange(flat.shape[1])[:, None], :]  # (n, head, d_m, tail)
    d *= _DIFF_FAC[:n, None, :, None]
    return d.reshape((n,) + head + (NVARS,) + tail)


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    """Syntax or name error; ``offset`` is the byte offset into the source."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainFault(ExprError):
    """Evaluation fault (log/sqrt of non-positive value, division by ~0, an
    integer power, exp, sinh or cosh beyond the float range)."""

    def __init__(self, message, node):
        super().__init__(f"{message} in subtree '{format_expr(node)}'")
        self.node = node


# --- AST ---------------------------------------------------------------


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    index: int  # 0..2


class Param(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "Expr"


class BinOp(NamedTuple):
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


class Power(NamedTuple):
    base: "Expr"
    exponent: int


class Call(NamedTuple):
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


class Jet4(NamedTuple):
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


def _binomial_series(a0, n, top):
    """binomial(n, k) a0^(n - k) for k = 0..top."""
    series, b = [], 1.0  # b = binomial(n, k)
    for k in range(top + 1):
        series.append(b * a0 ** (n - k))
        b = b * (n - k) / (k + 1)
    return series


def _power_series(a0, n, top, node):
    """The Taylor series of x^n at a0 (a float, or an (n,) array at a batch)
    to degree ``top``: ``_binomial_series``.

    A negative power of a value within 1e-12 of 0 (at any point of a batch)
    raises DomainFault naming ``node``; so does a finite a0 where a term of
    the series overflows the float range, at one point and at a batch alike.
    """
    if n < 0 and _any(abs(a0) < 1e-12):
        raise DomainFault("division by ~0", node)
    try:  # a float power raises OverflowError, numpy under ``over="raise"`` FloatingPointError
        if isinstance(a0, np.ndarray):
            with np.errstate(over="raise"):
                series = _binomial_series(a0, n, top)
        else:
            series = _binomial_series(a0, n, top)
            # a float product overflows to inf without raising
            if (math.inf in series or -math.inf in series) and math.isfinite(a0):
                raise OverflowError
    except (OverflowError, FloatingPointError):
        raise DomainFault(f"power {n} overflows the float range", node) from None
    return series


def _ipow(c, n, order, node):
    """c^n by the binomial series (a0 + h)^n; n = -1 is the reciprocal."""
    return _compose(c, _power_series(_value(c), n, order if n < 0 else min(order, n), node), order)


def _growing(f, a0, name, node):
    """f(a0) for f = exp, sinh or cosh from ``math`` at one point or ``np`` at a
    batch; a finite a0 where the value overflows the float range raises
    DomainFault naming ``node``, at one point and at a batch alike."""
    if isinstance(a0, np.ndarray):
        with np.errstate(over="ignore"):
            y = f(a0)
        if not np.any(np.isinf(y) & np.isfinite(a0)):
            return y
    else:
        try:
            return f(a0)
        except OverflowError:
            pass
    raise DomainFault(f"{name} overflows the float range", node)


def _function_series(name, a0, node):
    """Taylor coefficients of a unary function at a0 (a float, or an (n,) array)."""
    lib = np if isinstance(a0, np.ndarray) else math
    if name == "exp":
        e = _growing(lib.exp, a0, name, node)
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
    if name in ("sinh", "cosh"):
        s, c = _growing(lib.sinh, a0, name, node), _growing(lib.cosh, a0, name, node)
        return [s, c, s / 2, c / 6, s / 24] if name == "sinh" else [c, s, c / 2, s / 6, c / 24]
    raise ExprError(f"unknown function '{name}'")


_LEAVES = ("const", "var", "unbound")
_BINARY = ("+", "-", "*")
# the first partials of x1, x2, x3
_UNIT_PARTIALS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


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

    def first_order(self, p):
        """``run(p, 1)`` at one point on Python floats, bit for bit: the
        values and first partials of the expressions as (values, d_1, d_2,
        d_3), one float per expression in each.

        A register is the tuple of its four coefficients.  A product writes
        coefficient i as 0.0 + u0 v_i + u_i v0, the Leibniz terms in
        ``_mul``'s order summed from +0.0, as its one-hot product sums them;
        where a term is inf or nan, which that product spreads over the other
        coefficients as nan, it is ``_mul`` itself.  Powers and calls take
        their series, and their faults, from ``_power_series`` and
        ``_function_series``."""
        x = as_point(p)
        regs = []
        for kind, a, b, node in self.ops:
            if kind == "*":
                u0, u1, u2, u3 = u = regs[a]
                v0, v1, v2, v3 = v = regs[b]
                c = (0.0 + u0 * v0, 0.0 + u0 * v1 + u1 * v0, 0.0 + u0 * v2 + u2 * v0, 0.0 + u0 * v3 + u3 * v0)
                s = c[0] + c[1] + c[2] + c[3]
                if s - s:  # nan: a coefficient, so a term, is inf or nan (or the sum overflows)
                    c = tuple(_mul(np.array(u), np.array(v), 1).tolist())
            elif kind == "+":
                u0, u1, u2, u3 = regs[a]
                v0, v1, v2, v3 = regs[b]
                c = (u0 + v0, u1 + v1, u2 + v2, u3 + v3)
            elif kind == "^":
                u0, u1, u2, u3 = regs[a]
                if b:
                    s0, s1 = _power_series(u0, b, 1, node)
                    c = (s0, u1 * s1, u2 * s1, u3 * s1)
                else:
                    c = (1.0, 0.0, 0.0, 0.0)
            elif kind == "call":
                u0, u1, u2, u3 = regs[a]
                s0, s1 = _function_series(b, u0, node)[:2]
                c = (s0, u1 * s1, u2 * s1, u3 * s1)
            elif kind == "-":
                u0, u1, u2, u3 = regs[a]
                v0, v1, v2, v3 = regs[b]
                c = (u0 - v0, u1 - v1, u2 - v2, u3 - v3)
            elif kind == "neg":
                u0, u1, u2, u3 = regs[a]
                c = (-u0, -u1, -u2, -u3)
            elif kind == "const":
                c = (a, 0.0, 0.0, 0.0)
            elif kind == "var":
                c = (x[a],) + _UNIT_PARTIALS[a]
            else:
                raise ExprError(f"unbound parameter '{a}'")
            regs.append(c)
        return tuple(zip(*[regs[r] for r in self.outputs]))


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


def eval_dual(e: Expr, p, params=None) -> np.ndarray:
    """Value and first partials as a length-4 array, (4, n) at a batch: the order-1 jet."""
    return eval_jet(e, p, params, order=1).coef
