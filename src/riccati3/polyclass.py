"""Classification of the two quadratic polynomial constraints.

Regime a12 (directions mixing the kernel with one nonzero eigendirection):

    P^2 + (t^2+1) (d1 c)^2 = Lambda (t^2+1) (a c)^2,   Lambda > 0

Regime a3 (directions inside the nonzero eigenplane, lambda2 < lambda3 < 0):

    P^2 + (t^2+1) (d1 c)^2 = -8 (t^2+1) (a c)^2 (lambda2 t^2 + lambda3)

with -2a = lambda3 t^2 + lambda2 up to a common positive rescaling.

Verdicts follow the factorization structure of the solution set.  Writing
P = c (t^2+1) v in regime a12, the constraint reduces to
(t^2+1) v^2 = Lambda a^2 - d1^2 and the branches are:

    CZero                c = 0 (and necessarily P = 0)
    DEqualsSqrtLambdaA   v = 0, d1 = sign * sqrt(Lambda) a
    CaseIII              deg v = 0: sqrt(Lambda) a + sign*d1 is the constant
                         cofactor (covers both eigenvalue-ordering variants
                         of the printed solution list; the instance data does
                         not carry which one)
    CaseIV               deg v = 1: sqrt(Lambda) a - sign*d1 = x1 (t-r)^2 and
                         sqrt(Lambda) a + sign*d1 = x2 (t^2+1) with x1 x2 > 0
                         (a valid polynomial solution shape; excluded for the
                         geometric a by the sign analysis, whose clash is the
                         Infeasible certificate when x1 x2 < 0)
    Infeasible           anything else, with the violated step as certificate

All branch decisions run on exact rational arithmetic whenever every input
coefficient is rational (an int, a Fraction or a rational text); a float
anywhere makes a float instance, and the float path uses a relative
coefficient tolerance of 1e-12.  Every non-Infeasible verdict is re-checked
against the expanded constraint (the brute-force oracle).

Exact arithmetic runs on Python integers end to end (fraction-free, as in
Bareiss, Math. Comp. 22 (1968), and Collins, J. ACM 14 (1967)).  An
instance is built straight into its integer form: each polynomial, and the
regime's scalars, as integer numerators over a positive integer denominator
(the lcm of the coefficients' denominators in lowest terms).  A canonical
rational text (``"-3/4"``, ASCII digits) is read by ``int()`` alone; other
exact values go through ``Fraction``.  Every step of the decision trees
and of the oracle computes on these numerators and carries the denominators
alongside; a division scales its dividend by a power of the divisor's
leading numerator first, so that every quotient step divides exactly
(pseudo-division).  A classification builds Fractions only for the
reported witnesses.  A float instance takes the same steps with its floats
as numerators over 1, so its arithmetic is the plain float arithmetic.  The
floats the exact path reads (sqrt(Lambda), the sign choices, the oracle's
residuals) are int / int quotients, which Python rounds correctly, so they
equal those of the Fraction values.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

FLOAT_TOL = 1e-12
_MAX_DIGITS = 4300  # per exact numerator or denominator: what str(int) writes by default
_DIGITS_BOUND = 10**_MAX_DIGITS

T2P1 = (1, 0, 1)  # t^2 + 1

# the scalars of each regime, as instance-file keys
SCALAR_KEYS = {"a12": ("Lambda",), "a3": ("lambda2", "lambda3")}


class PolyclassError(ValueError):
    pass


class OrderingError(PolyclassError):
    """lambda2 >= lambda3 in regime a3; tilde-transform first."""


# --- dense polynomial helpers (coefficients: Python ints, or floats) ------


def trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(c):
    return len(trim(c)) - 1


def padd(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def pneg(a):
    return tuple(-x for x in a)


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    """Product of two polynomials: the plain convolution."""
    a, b = trim(a), trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def pscale(a, s):
    return trim([x * s for x in a])


def pdivmod(num, den):
    """Polynomial long division.  On integer coefficients every quotient step
    is an exact integer division, so num must be a multiple the steps divide:
    ``_qdiv`` first scales it by |lead|^(deg num - deg den + 1), lead the
    leading coefficient of den (pseudo-division).  On other coefficients the
    division runs over the field."""
    num, den = list(trim(num)), trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    lead = den[-1]
    integer = type(lead) is int and all(type(x) is int for x in num)
    q = [0] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(x != 0 for x in num):
        k = len(num) - len(den)
        coef = num[-1] // lead if integer else num[-1] / lead
        q[k] = coef
        for i, d in enumerate(den):
            num[k + i] -= coef * d
        num.pop()
        while num and num[-1] == 0:
            num.pop()
    return trim(q), trim(num)


def pmax(a):
    return max((abs(float(x)) for x in a), default=0.0)


def _rel_tol(tol, a):
    """max(tol, tol * max |a|): tol relative to the largest coefficient of a,
    and at least tol; 0 at tol 0, with no float conversion of a."""
    return max(tol, tol * pmax(a)) if tol else 0


def _is_zero(a, tol):
    """Every coefficient of a is within tol of 0; at tol 0, the tolerance of an
    exact instance, every one is exactly 0, with no float conversion."""
    if tol == 0:
        return not any(a)
    return pmax(a) <= tol


def _reverse(c, deg):
    """t^deg * p(1/t) as a coefficient list: p trimmed, then padded to the
    stated degree, so a trailing zero is no degree overflow."""
    c = list(trim(c))
    c += [0] * (deg + 1 - len(c))
    if len(c) != deg + 1:
        raise PolyclassError(f"degree overflow: got degree {len(c) - 1} > {deg}")
    return trim(c[::-1])


# --- instances ----------------------------------------------------------


def _read_rational(text):
    """(numerator, denominator) in lowest terms of a canonical rational text,
    an ASCII ``-?[0-9]+(/[0-9]+)?``, by two ``int()`` calls, when its value
    lies below 2^1023 in magnitude, inside the float range by its bit
    lengths alone; None for any other text, which ``Fraction(text)``
    decides (a zero denominator, or a value near or past 2^1024, included).
    A part written with over _MAX_DIGITS digits raises a PolyclassError."""
    if not text.isascii():
        return None
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if not digits.isdigit() or (slash and not den.isdigit()):
        return None
    if max(len(digits), len(den)) > _MAX_DIGITS:
        part = "numerator" if len(digits) > _MAX_DIGITS else "denominator"
        raise PolyclassError(f"coefficient text of {len(text)} characters: its {part} has over {_MAX_DIGITS} digits")
    try:  # int() refuses a text past sys.get_int_max_str_digits(), as Fraction does
        n, d = int(num), int(den) if slash else 1
    except ValueError:
        return None
    if d == 0 or n.bit_length() - d.bit_length() > 1022:  # |n / d| < 2^(bits n - bits d + 1)
        return None
    if d != 1:
        g = math.gcd(n, d)
        if g != 1:
            n, d = n // g, d // g
    return n, d


def _read_exponent(text):
    """A text with a decimal exponent (after its last e or E), decided
    without the 10^exponent ``Fraction(text)`` computes first: (0, 1) for a
    zero mantissa, ValueError for a refused text, and None (also for a text
    with no exponent) for ``Fraction(text)`` to read.  An exponent ``int()``
    does not read is refused.  A mantissa with no nonzero digit is 0 if the
    text is in Fraction's syntax: if the mantissa is with exponent 0, and the
    exponent starts with no space.  Otherwise an exponent above 309 + length
    puts the value past the float range, and is refused; one below
    -(_MAX_DIGITS + length) gives it a denominator of more than _MAX_DIGITS
    digits, and is refused by a PolyclassError that names the exponent."""
    k = max(text.rfind("e"), text.rfind("E"))
    if k < 0:
        return None
    mantissa, exponent = text[:k], text[k + 1 :]
    e = int(exponent)
    if not any(ch.isdecimal() and int(ch) for ch in mantissa):
        if exponent[:1].isspace():
            raise ValueError(text)
        Fraction(mantissa + "e0")  # ValueError outside Fraction's syntax
        return 0, 1
    if e > 309 + len(text):
        raise ValueError(text)
    if e < -_MAX_DIGITS - len(text):
        raise PolyclassError(f"coefficient {text!r}: exponent {e} gives a denominator of over {_MAX_DIGITS} digits")
    return None


def _coerce(value):
    """An exact value (int, Fraction or rational text) as its (numerator,
    denominator) in lowest terms, a float otherwise; a value that is not a
    number a float can hold raises PolyclassError (an exact value below the
    float range is kept, unless ``_read_exponent`` refuses its text), as
    does an exact value whose numerator or denominator in lowest terms has
    more than _MAX_DIGITS digits.  A canonical rational text is read by
    ``_read_rational``, a text with an exponent by ``_read_exponent`` when
    it can decide, any other one by ``Fraction``."""
    if type(value) is str:
        pair = _read_rational(value)
        if pair is not None:
            return pair
    if isinstance(value, bool):
        raise PolyclassError("boolean coefficient")
    try:
        if isinstance(value, Fraction):
            x = value
        elif isinstance(value, str):
            pair = _read_exponent(value)
            if pair is not None:
                return pair
            x = Fraction(value)
        elif isinstance(value, int):
            x = Fraction(value)
        else:
            x = float(value)
        if math.isfinite(x):  # float(x) for a Fraction, OverflowError beyond the float range
            if type(x) is float:
                return x
            if abs(x.numerator) < _DIGITS_BOUND > x.denominator:
                return x.numerator, x.denominator
            shown = repr(value) if isinstance(value, str) else f"of type {type(value).__name__}"
            part = "denominator" if x.denominator >= _DIGITS_BOUND else "numerator"
            raise PolyclassError(f"coefficient {shown}: its {part} in lowest terms has over {_MAX_DIGITS} digits")
    except PolyclassError:
        raise
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        pass
    raise PolyclassError(f"coefficient {value!r} is not a finite number within the float range")


def _coerce_list(values, name):
    if not isinstance(values, (list, tuple)):
        raise PolyclassError(f"'{name}' must be a list of coefficients, got {values!r}")
    return tuple(map(_coerce, values))


def _sign(x):
    """A number of the sign of the coerced value x."""
    return x[0] if type(x) is tuple else x


def _over_lcm(pairs):
    """(integer numerators, D) of exact (numerator, denominator) pairs, D the
    lcm of their denominators."""
    D = math.lcm(*(d for _, d in pairs))
    return tuple(n * (D // d) for n, d in pairs), D


def _over_one(values):
    """(floats, 1) of coerced values, an exact pair n / d correctly rounded
    as float(Fraction(n, d)) rounds it."""
    return tuple(x if type(x) is float else x[0] / x[1] for x in values), 1


class _Form(NamedTuple):
    """An instance as the classifiers compute on it.  Each polynomial is a
    pair (numerators, denominator), and ``lam`` holds the regime's scalars,
    (Lambda,) or (lambda2, lambda3), as numerators over one denominator.  On
    an exact instance the numerators are Python ints over a positive int
    denominator, the lcm of the coefficients' denominators in lowest terms;
    on a float instance they are the floats themselves over 1, so one
    arithmetic serves both.  Coefficient lists keep their length, trailing
    zeros included."""

    regime: str
    exact: bool
    tol: float
    a: tuple
    c: tuple
    d1: tuple
    P: tuple
    lam: tuple


class ConstraintInstance:
    """One constraint instance of a regime, 'a12' (with Lambda) or 'a3' (with
    lambda2 and lambda3), with the polynomials a, c, d1 and P as coefficient
    lists.  Coefficients and scalars are checked on construction and held
    as ``form``, the integer form the classifiers read: integer numerators
    over a common positive denominator per polynomial and one for the
    scalars when every value is exact (``exact``: ints, Fractions and
    rational texts), and the floats over 1 otherwise.  A canonical rational
    text, ``-?[0-9]+(/[0-9]+)?`` in ASCII digits, is read by two ``int()``
    calls; any other value takes ``Fraction`` or ``float``, so ``"0.25"``
    and ``"1e-400"`` stay exact.  The fields a, c, d1, P (tuples) and the
    regime's scalars are built from the form when read: Fractions on an
    exact instance, floats otherwise; the other regime's scalars are None.
    Instances compare and hash by identity."""

    def __init__(self, regime, a, c, d1, P, Lambda=None, lambda2=None, lambda3=None):
        if regime not in ("a12", "a3"):
            raise PolyclassError(f"unknown regime '{regime}'")
        polys = (_coerce_list(a, "a"), _coerce_list(c, "c"), _coerce_list(d1, "d1"), _coerce_list(P, "P"))
        if regime == "a12":
            if Lambda is None:
                raise PolyclassError("regime a12 needs Lambda")
            lam = (_coerce(Lambda),)
            if _sign(lam[0]) <= 0:  # exact, so a positive value that underflows as a float passes
                raise PolyclassError("Lambda must be positive")
        else:
            if lambda2 is None or lambda3 is None:
                raise PolyclassError("regime a3 needs lambda2 and lambda3")
            lam = (_coerce(lambda2), _coerce(lambda3))
            if _sign(lam[0]) >= 0 or _sign(lam[1]) >= 0:
                raise PolyclassError("eigenvalues must be negative")
        self.regime = regime
        self.exact = all(type(x) is tuple for seq in (*polys, lam) for x in seq)
        common = _over_lcm if self.exact else _over_one  # a float anywhere makes every value a float
        a, c, d1, P, lam = map(common, (*polys, lam))
        tol = 0 if self.exact else FLOAT_TOL * max(pmax(a[0]), pmax(c[0]), pmax(d1[0]), pmax(P[0]), 1.0)
        self.form = _Form(regime, self.exact, tol, a, c, d1, P, lam)
        if regime == "a3" and lam[0][0] == lam[0][1]:
            # no tilde transform orders equal eigenvalues
            raise PolyclassError(f"lambda2 and lambda3 must differ, both are {self.lambda2}")
        self._check_degrees()

    @classmethod
    def _of_form(cls, form):
        """The instance whose integer form is ``form``, its degrees checked."""
        inst = cls.__new__(cls)
        inst.regime, inst.exact, inst.form = form.regime, form.exact, form
        inst._check_degrees()
        return inst

    def _check_degrees(self):
        f = self.form
        if degree(f.a[0]) != 2:
            raise PolyclassError(f"deg a must be 2, got {degree(f.a[0])}")
        if degree(f.c[0]) > 2:
            raise PolyclassError("deg c exceeds 2")
        dmax, pmax_ = (2, 5) if self.regime == "a12" else (3, 6)
        if degree(f.d1[0]) > dmax:
            raise PolyclassError(f"deg d1 exceeds {dmax}")
        if degree(f.P[0]) > pmax_:
            raise PolyclassError(f"deg P exceeds {pmax_}")

    def tol(self):
        return self.form.tol

    def _scalar(self, regime, k):
        return _values(self.form.lam, self.exact)[k] if self.regime == regime else None

    a = property(lambda self: _values(self.form.a, self.exact))
    c = property(lambda self: _values(self.form.c, self.exact))
    d1 = property(lambda self: _values(self.form.d1, self.exact))
    P = property(lambda self: _values(self.form.P, self.exact))
    Lambda = property(lambda self: self._scalar("a12", 0))
    lambda2 = property(lambda self: self._scalar("a3", 0))
    lambda3 = property(lambda self: self._scalar("a3", 1))


class BranchVerdict(NamedTuple):
    branch: str
    signs: tuple
    witness: dict
    oracle_residual: float
    certificate: str = ""


# --- the integer form ---------------------------------------------------


def _tilde(f: _Form) -> _Form:
    """The form of ``tilde_transform(inst)`` from the form f of inst."""

    def rev(p, deg):
        r = _reverse(p[0], deg)
        return (r if f.exact else tuple(map(float, r))), p[1]

    (l2, l3), den = f.lam
    return f._replace(a=rev(f.a, 2), c=rev(f.c, 2), d1=rev(f.d1, 3), P=rev(f.P, 6), lam=((l3, l2), den))


# Arithmetic on (numerators, denominator) pairs.  On a float form every
# denominator is 1, so each step is the float operation of the numerators
# alone: a product or scaling by an int 1 leaves a float's bits unchanged.

_T2P1 = (T2P1, 1)


def _qmul(x, y):
    return pmul(x[0], y[0]), x[1] * y[1]


def _qscale(x, s):
    """x times the scalar s = (numerator, denominator)."""
    return pscale(x[0], s[0]), x[1] * s[1]


def _qsub(x, y):
    return psub(pscale(x[0], y[1]), pscale(y[0], x[1])), x[1] * y[1]


def _ratio(n, d):
    """The scalar n / d as a pair: (n / d, 1) on floats, and on ints (n, d)
    with the sign moved to n."""
    if type(d) is not int:
        return n / d, 1
    return (n, d) if d > 0 else (-n, -d)


def _qdiv(x, y):
    """(quotient, remainder) of x / y.  On integer numerators x is first
    scaled by s = |lead|^(deg x - deg y + 1), lead the leading numerator of
    y, so that every step of ``pdivmod`` divides exactly (pseudo-division),
    and s joins the denominators."""
    (num, dn), (den, dd) = x, y
    lead, steps = trim(den)[-1], degree(num) - degree(den) + 1
    s = abs(lead) ** max(0, steps) if type(lead) is int else 1
    q, r = pdivmod(pscale(num, s), den)
    return (pscale(q, dd), s * dn), (r, s * dn)


def _floats(p, n):
    """The polynomial p's coefficients as floats (int / int, correctly
    rounded), padded with zeros to n."""
    nums, den = p
    return [x / den for x in nums] + [0.0] * (n - len(nums))


def _values(p, exact):
    """The reported coefficients of p: Fractions on an exact form, the
    floats otherwise."""
    nums, den = p
    return tuple(Fraction(x, den) for x in nums) if exact else nums


def _constraint_sides(f):
    """The expanded sides P^2 + (t^2+1) (d1 c)^2 and (t^2+1) (a c)^2 w, with w
    Lambda in regime a12 and -8 (lambda3 t^2 + lambda2) in a3, as (lhs, rhs,
    D): the sides' coefficients times D.  On an exact form they are integers
    over one common denominator D, so the expansion builds no Fraction; on a
    float form they are the float coefficients and D is 1."""
    lam, dw = f.lam
    w = lam if f.regime == "a12" else pscale((lam[1], 0, lam[0]), -8)
    (P, dP), (d1, dd), (c, dc), (a, da) = f.P, f.d1, f.c, f.a
    d1c, ac = pmul(d1, c), pmul(a, c)
    sq, sq_den = pmul(P, P), dP * dP
    cross, cross_den = pmul(T2P1, pmul(d1c, d1c)), (dd * dc) ** 2
    rhs, rhs_den = pmul(pmul(T2P1, pmul(ac, ac)), w), (da * dc) ** 2 * dw
    D = math.lcm(sq_den, cross_den, rhs_den)
    lhs = padd(pscale(sq, D // sq_den), pscale(cross, D // cross_den))
    return lhs, pscale(rhs, D // rhs_den), D


def _fmax(p, D):
    """max |coefficient| / D as a float, correctly rounded for integers."""
    return max(map(abs, p), default=0) / D


def verify_constraint(inst: ConstraintInstance) -> float:
    """Max coefficient deviation of lhs - rhs; exact zero on the rational path
    when the constraint holds.  This expansion is the oracle every
    classification claim is checked against.
    """
    lhs, rhs, D = _constraint_sides(inst.form)
    return _fmax(psub(lhs, rhs), D)


def _verdicts(f):
    """The two verdict makers of one classification: ``infeasible(cert)``, and
    ``sound(branch, signs, witness)``, which raises unless the expanded
    constraint holds to 1e-9 of the size of its sides."""
    lhs, rhs, D = _constraint_sides(f)
    oracle = _fmax(psub(lhs, rhs), D)
    scale = max(_fmax(lhs, D), _fmax(rhs, D), 1.0)
    if not (math.isfinite(oracle) and math.isfinite(scale)):
        raise PolyclassError("the instance exceeds the float range: its expansion is not finite")

    def infeasible(cert):
        return BranchVerdict("Infeasible", (), {}, oracle, cert)

    def sound(branch, signs, witness):
        if oracle > 1e-9 * scale:
            raise PolyclassError(
                f"classification bug: verdict {branch} but oracle residual {oracle:.3e}"
            )
        return BranchVerdict(branch, signs, witness, oracle)

    return infeasible, sound


def _exact_divide(num, den, tol):
    q, r = _qdiv(num, den)
    if not _is_zero(r[0], _rel_tol(tol, num[0])):
        return None
    return q


def classify_a12(inst: ConstraintInstance) -> BranchVerdict:
    """Decision tree for the a12 constraint; see the module docstring.  An
    instance whose products leave the float range raises PolyclassError."""
    if inst.regime != "a12":
        raise PolyclassError("classify_a12 needs regime a12")
    return _decide(inst.form)


def _classify_a12(f: _Form) -> BranchVerdict:
    tol = f.tol
    infeasible, sound = _verdicts(f)

    if _is_zero(f.c[0], tol):
        if _is_zero(f.P[0], tol):
            return sound("CZero", (), {})
        return infeasible("c = 0 forces P = 0, but P is nonzero")

    q = _exact_divide(f.P, f.c, tol)
    if q is None:
        return infeasible("c does not divide P")
    v = _exact_divide(q, _T2P1, tol)
    if v is None:
        return infeasible("(t^2+1) does not divide P / c")

    (lam,), lam_den = f.lam
    W = _qsub(_qscale(_qmul(f.a, f.a), (lam, lam_den)), _qmul(f.d1, f.d1))
    wtol = tol * max(1.0, pmax(W[0]) / max(pmax(f.a[0]) ** 2, 1e-300)) if not f.exact else 0

    if _is_zero(W[0], max(tol, wtol)):
        if not _is_zero(v[0], tol):
            return infeasible("Lambda a^2 = d1^2 but P/c has a (t^2+1) cofactor")
        s = _match_sqrt_sign(f.a, f.d1, _sqrt_lambda(f))
        return sound("DEqualsSqrtLambdaA", (s,), {"v": ()})

    Q = _exact_divide(W, _T2P1, tol)
    if Q is None:
        return infeasible("(t^2+1) does not divide Lambda a^2 - d1^2")

    diff = _qsub(Q, _qmul(v, v))
    if not _is_zero(diff[0], _rel_tol(tol, Q[0])):
        cert = "constraint violated: (Lambda a^2 - d1^2)/(t^2+1) != v^2"
        Qt = trim(Q[0])
        if Qt and Qt[-1] < 0:
            cert += " (sign clash: cofactor has negative leading coefficient, x1 x2 < 0)"
        return infeasible(cert)

    dv = degree(v[0])
    m = _sqrt_lambda(f)
    fa, fd = _floats(f.a, 3), _floats(f.d1, 3)
    if dv == 0:
        # one of sqrt(Lambda) a +- d1 is the constant cofactor
        s = min((1, -1), key=lambda s: abs(m * fa[1] + s * fd[1]) + abs(m * fa[2] + s * fd[2]))
        return sound("CaseIII", (s,), {"v": _values(v, f.exact), "x2": m * fa[0] + s * fd[0]})
    if dv == 1:
        def resid(s):
            g = [m * fa[k] + s * fd[k] for k in range(3)]
            return abs(g[1]) + abs(g[2] - g[0])  # proportional to t^2+1

        s = min((1, -1), key=resid)
        return sound("CaseIV", (s,), {"v": _values(v, f.exact)})
    return infeasible(f"unexpected cofactor degree {dv}")


def _sqrt_lambda(f):
    """sqrt(Lambda) as a float; a positive Lambda that underflows to 0.0 as a
    float raises PolyclassError."""
    lam = f.lam[0][0] / f.lam[1]
    if lam == 0.0:
        raise PolyclassError(
            "Lambda is positive but underflows to 0.0 as a float, so sqrt(Lambda) has no float value"
        )
    return math.sqrt(lam)


def _match_sqrt_sign(a, d1, m):
    """The sign s with d1 closest to s m a, m = sqrt(Lambda)."""
    n = max(len(a[0]), len(d1[0]))
    fa, fd = _floats(a, n), _floats(d1, n)
    return min((1, -1), key=lambda s: sum(abs(fd[k] - s * m * fa[k]) for k in range(n)))


def classify_a3(inst: ConstraintInstance) -> BranchVerdict:
    """Decision tree for the a3 constraint (lambda2 < lambda3 < 0).  An
    instance whose products leave the float range raises PolyclassError."""
    if inst.regime != "a3":
        raise PolyclassError("classify_a3 needs regime a3")
    (l2, l3), _ = inst.form.lam
    if not l2 < l3:
        raise OrderingError("need lambda2 < lambda3; apply tilde_transform first")
    return _decide(inst.form)


def _classify_a3(f: _Form) -> BranchVerdict:
    (l2, l3), mu = f.lam
    tol = f.tol
    infeasible, sound = _verdicts(f)

    # a must be the canonical -(lambda3 t^2 + lambda2)/2 up to positive scale,
    # and the whole tuple (a, c, d1; P with weight 2) is normalized by it
    canon = _qscale(((l2, 0, l3), mu), (-1, 2) if f.exact else (-0.5, 1))
    lead = trim(f.a[0])[-1]
    s_scale = _ratio(lead * canon[1], f.a[1] * canon[0][2])  # lead / canon[2]
    if s_scale[0] <= 0 or not _is_zero(_qsub(f.a, _qscale(canon, s_scale))[0], tol):
        return infeasible("a is not a positive multiple of -(lambda3 t^2 + lambda2)/2")
    sn, sd = s_scale
    inv, inv2 = _ratio(sd, sn), _ratio(sd * sd, sn * sn)  # 1 / s_scale, 1 / s_scale^2
    c_n, d1_n, P_n = _qscale(f.c, inv), _qscale(f.d1, inv), _qscale(f.P, inv2)

    if _is_zero(c_n[0], tol):
        if _is_zero(P_n[0], tol):
            return sound("CZero", (), {})
        return infeasible("c = 0 forces P = 0, but P is nonzero")

    q1 = _exact_divide(P_n, c_n, tol)
    if q1 is None:
        return infeasible("c does not divide P")
    q = _exact_divide(q1, _T2P1, tol)
    if q is None:
        return infeasible("(t^2+1) does not divide P / c")
    if degree(q[0]) > 2:
        return infeasible("cofactor q has degree > 2")

    base = ((l2, 0, l3), mu)  # lambda3 t^2 + lambda2
    # -2 (l3 t^2+l2)^2 (l2 t^2 + l3)
    rhs = _qmul(_qmul(base, base), (pscale((l3, 0, l2), -2), mu))
    q2, d1_2 = _qmul(q, q), _qmul(d1_n, d1_n)
    target = _qsub(rhs, _qmul(_T2P1, q2))  # must equal d1^2
    resid = _qsub(d1_2, target)
    if not _is_zero(resid[0], _rel_tol(tol, target[0])):
        cert = "constraint violated: d1^2 != -2(l3 t^2+l2)^2(l2 t^2+l3) - (t^2+1) q^2"
        qt = list(trim(q[0])) + [0] * (3 - len(trim(q[0])))
        # (lead of q)^2 + 2 lambda2 lambda3^2, times mu^3 and q's denominator squared
        lead_sq = qt[2] * qt[2] * mu ** 3 + 2 * l2 * l3 * l3 * q[1] * q[1]
        if qt[1] == 0 and _is_zero((lead_sq,), max(tol, tol * pmax((qt[2],)) ** 2)):
            cert += (
                "; q matches a deg q+- = 0 shape, which would force (r-1)(r^2+4) = 0"
                " with r = lambda3/lambda2: root-free on (0, 1)"
            )
        return infeasible(cert)

    # only the printed solution shape remains: verify it exactly and read signs
    t_base = _qmul(((0, 1), 1), base)  # t (lambda3 t^2 + lambda2)
    d1_shape = _qsub(d1_2, _qscale(_qmul(t_base, t_base), (2 * (l3 - l2), mu)))
    q_shape = _qsub(q2, _qscale(_qmul(base, base), (-2 * l3, mu)))
    if not _is_zero(d1_shape[0], _rel_tol(tol, d1_2[0])) or not _is_zero(
        q_shape[0], _rel_tol(tol, q2[0])
    ):
        return infeasible("solution does not match the rigid branch shapes")
    d1t = list(trim(d1_n[0])) + [0] * (4 - len(trim(d1_n[0])))
    qt = list(trim(q[0])) + [0] * (3 - len(trim(q[0])))
    s_d = -1 if d1t[3] > 0 else 1  # d1 lead = s_d sqrt(2(l3-l2)) lambda3 < 0 for s_d=+1
    s_p = -1 if qt[2] > 0 else 1
    scale = Fraction(sn, sd) if f.exact else sn
    return sound("A3BranchII", (s_d, s_p), {"q": _values(q, f.exact), "scale": scale})


def tilde_transform(inst: ConstraintInstance) -> ConstraintInstance:
    """Coefficient reversal t -> 1/t with degree homogenization (6,3,2,2),
    swapping the two eigenvalues, on the integer form (``_tilde``).  An
    involution on a3 instances whose a has a nonzero constant term; any
    other a reverses to degree below 2 and raises PolyclassError.
    """
    if inst.regime != "a3":
        raise PolyclassError("tilde_transform applies to regime a3")
    return ConstraintInstance._of_form(_tilde(inst.form))


def _decide(f: _Form) -> BranchVerdict:
    """The verdict of f's regime's decision tree, which ``classify``,
    ``classify_a12`` and ``classify_a3`` all take: a form whose products
    leave the float range of the checks raises PolyclassError."""
    try:
        return _classify_a12(f) if f.regime == "a12" else _classify_a3(f)
    except OverflowError as exc:
        raise PolyclassError(f"the instance exceeds the float range: {exc}") from None


def classify(inst: ConstraintInstance):
    """Dispatch; a3 instances with swapped ordering are tilde-transformed.  An
    instance whose products leave the float range of the checks raises
    PolyclassError."""
    f = inst.form
    if f.regime == "a3":
        (l2, l3), _ = f.lam
        if not l2 < l3:
            return _decide(_tilde(f)), True
    return _decide(f), False


# --- instance files -----------------------------------------------------


def instance_to_dict(inst: ConstraintInstance) -> dict:
    def enc(x):
        return str(x) if isinstance(x, Fraction) else float(x)

    data = {
        "regime": inst.regime,
        "a": [enc(x) for x in inst.a],
        "c": [enc(x) for x in inst.c],
        "d1": [enc(x) for x in inst.d1],
        "P": [enc(x) for x in inst.P],
    }
    if inst.regime == "a12":
        data["Lambda"] = enc(inst.Lambda)
    else:
        data["lambda2"] = enc(inst.lambda2)
        data["lambda3"] = enc(inst.lambda3)
    return data


def instance_from_dict(data: dict) -> ConstraintInstance:
    if not isinstance(data, dict):
        raise PolyclassError(f"an instance is a JSON object, got {type(data).__name__}")
    missing = [k for k in ("regime", "a", "c", "d1", "P") if k not in data]
    if missing:
        raise PolyclassError(f"instance lacks {', '.join(missing)}")
    regime = data["regime"]
    if not isinstance(regime, str) or regime not in SCALAR_KEYS:
        raise PolyclassError(f"unknown regime '{regime}'")
    keys = ("regime", "a", "c", "d1", "P") + SCALAR_KEYS[regime]
    for key in data:
        if key not in keys:
            raise PolyclassError(f"instance: unknown key {key!r} for regime {regime} (have {', '.join(keys)})")
    return ConstraintInstance(
        regime=data["regime"],
        a=data["a"],
        c=data["c"],
        d1=data["d1"],
        P=data["P"],
        Lambda=data.get("Lambda"),
        lambda2=data.get("lambda2"),
        lambda3=data.get("lambda3"),
    )


def instance_from_file(path) -> ConstraintInstance:
    """The instance of a JSON file; malformed JSON raises a JSONDecodeError
    whose message starts with the path, and a malformed instance a
    PolyclassError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    return instance_from_dict(data)


# --- planted-instance generators (used by tests and the self-test) -------


def _rand_fraction(rng, lo=-8, hi=8, den_max=8, nonzero=False):
    while True:
        f = Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den_max + 1)))
        if not nonzero or f != 0:
            return f


def _rand_poly(rng, deg, den_max=8, lead_nonzero=False):
    c = [_rand_fraction(rng, den_max=den_max) for _ in range(deg + 1)]
    if lead_nonzero:
        c[-1] = _rand_fraction(rng, den_max=den_max, nonzero=True)
    return tuple(c)


def plant_a12(rng, branch: str, sign: int = 1):
    """Rational instance of a given a12 branch plus the expected verdict."""
    m = abs(_rand_fraction(rng, lo=1, hi=6, den_max=4, nonzero=True))
    lam = m * m
    c = _rand_poly(rng, int(rng.integers(0, 3)), lead_nonzero=True)
    if branch == "CZero":
        a = _rand_poly(rng, 2, lead_nonzero=True)
        return (
            ConstraintInstance("a12", a, (), _rand_poly(rng, 2), (), Lambda=lam),
            BranchVerdict("CZero", (), {}, 0.0),
        )
    if branch == "DEqualsSqrtLambdaA":
        a = _rand_poly(rng, 2, lead_nonzero=True)
        d1 = pscale(a, sign * m)
        return (
            ConstraintInstance("a12", a, c, d1, (), Lambda=lam),
            BranchVerdict("DEqualsSqrtLambdaA", (sign,), {}, 0.0),
        )
    if branch == "CaseIII":
        v0 = _rand_fraction(rng, lo=1, hi=6, den_max=4, nonzero=True)
        x1 = _rand_fraction(rng, lo=1, hi=6, den_max=4, nonzero=True)
        sigma = 1 if rng.integers(0, 2) else -1
        x1 = sigma * x1
        x2 = v0 * v0 / x1
        # sqrt(L) a - s d1 = x1 (t^2+1); sqrt(L) a + s d1 = x2
        a = pscale(padd(pscale(T2P1, x1), (x2,)), Fraction(1, 2) / m)
        d1 = pscale(psub((x2,), pscale(T2P1, x1)), sign * Fraction(1, 2))
        P = pmul(pmul(c, T2P1), (v0,))
        return (
            ConstraintInstance("a12", a, c, d1, P, Lambda=lam),
            BranchVerdict("CaseIII", (sign,), {}, 0.0),
        )
    if branch == "CaseIV":
        u = _rand_fraction(rng, lo=1, hi=5, den_max=3, nonzero=True)
        w = _rand_fraction(rng, lo=1, hi=5, den_max=3, nonzero=True)
        sigma = 1 if rng.integers(0, 2) else -1
        x1, x2, v0 = sigma * u * u, sigma * w * w, u * w
        root = _rand_fraction(rng, lo=-4, hi=4, den_max=3, nonzero=True)
        sq = pmul((-root, 1), (-root, 1))
        # sqrt(L) a - s d1 = x1 (t - root)^2; sqrt(L) a + s d1 = x2 (t^2+1)
        a = pscale(padd(pscale(sq, x1), pscale(T2P1, x2)), Fraction(1, 2) / m)
        d1 = pscale(psub(pscale(T2P1, x2), pscale(sq, x1)), sign * Fraction(1, 2))
        P = pmul(pmul(c, T2P1), pscale((-root, 1), v0))
        return (
            ConstraintInstance("a12", a, c, d1, P, Lambda=lam),
            BranchVerdict("CaseIV", (sign,), {}, 0.0),
        )
    if branch == "Infeasible":
        # deg v = 1 shape planted in the x1 x2 < 0 regime: sign clash
        u = _rand_fraction(rng, lo=1, hi=5, den_max=3, nonzero=True)
        w = _rand_fraction(rng, lo=1, hi=5, den_max=3, nonzero=True)
        x1, x2, v0 = u * u, -w * w, u * w
        root = _rand_fraction(rng, lo=-4, hi=4, den_max=3, nonzero=True)
        sq = pmul((-root, 1), (-root, 1))
        a = pscale(padd(pscale(sq, x1), pscale(T2P1, x2)), Fraction(1, 2) / m)
        if degree(a) != 2:  # x1 + x2 could vanish; nudge
            x2 = x2 - 1
            a = pscale(padd(pscale(sq, x1), pscale(T2P1, x2)), Fraction(1, 2) / m)
        d1 = pscale(psub(pscale(T2P1, x2), pscale(sq, x1)), Fraction(1, 2))
        P = pmul(pmul(c, T2P1), pscale((-root, 1), v0))
        return (
            ConstraintInstance("a12", a, c, d1, P, Lambda=lam),
            BranchVerdict("Infeasible", (), {}, -1.0),
        )
    raise PolyclassError(f"unknown a12 branch '{branch}'")


def plant_a3(rng, branch: str, signs=(1, 1)):
    """Rational instance of a given a3 branch plus the expected verdict."""
    n = abs(_rand_fraction(rng, lo=1, hi=6, den_max=3, nonzero=True))
    k = abs(_rand_fraction(rng, lo=1, hi=6, den_max=3, nonzero=True))
    l3 = -n * n / 2
    l2 = l3 - k * k / 2
    base = (l2, 0, l3)
    a = pscale(base, Fraction(-1, 2))
    c = _rand_poly(rng, int(rng.integers(0, 3)), lead_nonzero=True)
    if branch == "CZero":
        return (
            ConstraintInstance("a3", a, (), _rand_poly(rng, 3), (), lambda2=l2, lambda3=l3),
            BranchVerdict("CZero", (), {}, 0.0),
        )
    if branch == "A3BranchII":
        s_d, s_p = signs
        d1 = pscale(pmul((0, 1), base), s_d * k)
        q = pscale(base, s_p * n)
        P = pmul(pmul(c, T2P1), q)
        return (
            ConstraintInstance("a3", a, c, d1, P, lambda2=l2, lambda3=l3),
            BranchVerdict("A3BranchII", (s_d, s_p), {}, 0.0),
        )
    if branch == "Infeasible":
        # deg q+ = 0 shape: q = c1 - sqrt(-2 l2)(l3 t^2 + l2) with rational radical
        w = abs(_rand_fraction(rng, lo=1, hi=6, den_max=3, nonzero=True))
        l2 = -w * w / 2
        l3 = l2 + k * k / 2
        if l3 >= 0:
            l3 = l2 / 2
        base = (l2, 0, l3)
        a = pscale(base, Fraction(-1, 2))
        c1 = _rand_fraction(rng, nonzero=True)
        q = padd((c1,), pscale(base, -w))
        P = pmul(pmul(c, T2P1), q)
        d1 = _rand_poly(rng, 3, lead_nonzero=True)
        return (
            ConstraintInstance("a3", a, c, d1, P, lambda2=l2, lambda3=l3),
            BranchVerdict("Infeasible", (), {}, -1.0),
        )
    raise PolyclassError(f"unknown a3 branch '{branch}'")
