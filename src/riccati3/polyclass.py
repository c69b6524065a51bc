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
coefficient is rational (fractions.Fraction); the float path uses a relative
coefficient tolerance of 1e-12.  Every non-Infeasible verdict is re-checked
against the expanded constraint (the brute-force oracle).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

FLOAT_TOL = 1e-12

T2P1 = (1, 0, 1)  # t^2 + 1


class PolyclassError(ValueError):
    pass


class OrderingError(PolyclassError):
    """lambda2 >= lambda3 in regime a3; tilde-transform first."""


# --- dense polynomial helpers (field coefficients: Fraction or float) ----


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
    """Polynomial long division over a field."""
    num, den = list(trim(num)), trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    while len(num) >= len(den) and any(x != 0 for x in num):
        k = len(num) - len(den)
        coef = num[-1] / lead
        q[k] = coef
        for i, d in enumerate(den):
            num[k + i] -= coef * d
        num.pop()
        while num and num[-1] == 0:
            num.pop()
    return trim(q), trim(num)


def pmax(a):
    return max((abs(float(x)) for x in a), default=0.0)


def _is_zero(a, tol):
    a = trim(a)
    if not a:
        return True
    return pmax(a) <= tol


def _reverse(c, deg):
    """t^deg * p(1/t) as a coefficient list padded to the stated degree."""
    c = list(c) + [0] * (deg + 1 - len(c))
    if len(c) != deg + 1:
        raise PolyclassError(f"degree overflow: got degree {len(c) - 1} > {deg}")
    return trim(c[::-1])


# --- instances ----------------------------------------------------------


def _coerce(value):
    """Exact Fraction for ints/Fractions/strings, float otherwise."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise PolyclassError("boolean coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    return float(value)


def _coerce_list(values):
    return tuple(_coerce(v) for v in values)


@dataclass
class ConstraintInstance:
    regime: str  # 'a12' or 'a3'
    a: tuple
    c: tuple
    d1: tuple
    P: tuple
    Lambda: object = None  # a12
    lambda2: object = None  # a3
    lambda3: object = None
    exact: bool = field(init=False, default=False)

    def __post_init__(self):
        if self.regime not in ("a12", "a3"):
            raise PolyclassError(f"unknown regime '{self.regime}'")
        self.a = _coerce_list(self.a)
        self.c = _coerce_list(self.c)
        self.d1 = _coerce_list(self.d1)
        self.P = _coerce_list(self.P)
        scalars = []
        if self.regime == "a12":
            if self.Lambda is None:
                raise PolyclassError("regime a12 needs Lambda")
            self.Lambda = _coerce(self.Lambda)
            if float(self.Lambda) <= 0:
                raise PolyclassError("Lambda must be positive")
            scalars.append(self.Lambda)
        else:
            if self.lambda2 is None or self.lambda3 is None:
                raise PolyclassError("regime a3 needs lambda2 and lambda3")
            self.lambda2 = _coerce(self.lambda2)
            self.lambda3 = _coerce(self.lambda3)
            if float(self.lambda2) >= 0 or float(self.lambda3) >= 0:
                raise PolyclassError("eigenvalues must be negative")
            scalars.extend([self.lambda2, self.lambda3])
        self.exact = all(
            isinstance(x, Fraction)
            for seq in (self.a, self.c, self.d1, self.P)
            for x in seq
        ) and all(isinstance(s, Fraction) for s in scalars)
        if not self.exact:  # collapse everything to floats
            self.a = tuple(float(x) for x in self.a)
            self.c = tuple(float(x) for x in self.c)
            self.d1 = tuple(float(x) for x in self.d1)
            self.P = tuple(float(x) for x in self.P)
            if self.Lambda is not None:
                self.Lambda = float(self.Lambda)
            if self.lambda2 is not None:
                self.lambda2 = float(self.lambda2)
                self.lambda3 = float(self.lambda3)
        self._check_degrees()

    def _check_degrees(self):
        if degree(self.a) != 2:
            raise PolyclassError(f"deg a must be 2, got {degree(self.a)}")
        if degree(self.c) > 2:
            raise PolyclassError("deg c exceeds 2")
        dmax, pmax_ = (2, 5) if self.regime == "a12" else (3, 6)
        if degree(self.d1) > dmax:
            raise PolyclassError(f"deg d1 exceeds {dmax}")
        if degree(self.P) > pmax_:
            raise PolyclassError(f"deg P exceeds {pmax_}")

    def tol(self):
        if self.exact:
            return 0
        scale = max(pmax(self.a), pmax(self.c), pmax(self.d1), pmax(self.P), 1.0)
        return FLOAT_TOL * scale

    def rhs_weight(self):
        """The regime's right-hand side factor beyond (t^2+1)(a c)^2."""
        if self.regime == "a12":
            return (self.Lambda,)
        return pscale((self.lambda3, 0, self.lambda2), -8)


@dataclass
class BranchVerdict:
    branch: str
    signs: tuple
    witness: dict
    oracle_residual: float
    certificate: str = ""


def _constraint_sides(inst):
    """The expanded sides P^2 + (t^2+1) (d1 c)^2 and (t^2+1) (a c)^2 w, with w
    the regime's ``rhs_weight``."""
    d1c, ac = pmul(inst.d1, inst.c), pmul(inst.a, inst.c)
    lhs = padd(pmul(inst.P, inst.P), pmul(T2P1, pmul(d1c, d1c)))
    rhs = pmul(pmul(T2P1, pmul(ac, ac)), inst.rhs_weight())
    return lhs, rhs


def verify_constraint(inst: ConstraintInstance) -> float:
    """Max coefficient deviation of lhs - rhs; exact zero on the rational path
    when the constraint holds.  This expansion is the oracle every
    classification claim is checked against.
    """
    return pmax(psub(*_constraint_sides(inst)))


def _verdicts(inst):
    """The two verdict makers of one classification: ``infeasible(cert)``, and
    ``sound(branch, signs, witness)``, which raises unless the expanded
    constraint holds to 1e-9 of the size of its sides."""
    lhs, rhs = _constraint_sides(inst)
    oracle = pmax(psub(lhs, rhs))
    scale = max(pmax(lhs), pmax(rhs), 1.0)

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
    q, r = pdivmod(num, den)
    if not _is_zero(r, tol * max(pmax(num), 1.0)):
        return None
    return q


def classify_a12(inst: ConstraintInstance) -> BranchVerdict:
    """Decision tree for the a12 constraint; see the module docstring."""
    if inst.regime != "a12":
        raise PolyclassError("classify_a12 needs regime a12")
    tol = inst.tol()
    infeasible, sound = _verdicts(inst)

    if _is_zero(inst.c, tol):
        if _is_zero(inst.P, tol):
            return sound("CZero", (), {})
        return infeasible("c = 0 forces P = 0, but P is nonzero")

    q = _exact_divide(inst.P, inst.c, max(tol, FLOAT_TOL if not inst.exact else 0))
    if q is None:
        return infeasible("c does not divide P")
    v = _exact_divide(q, T2P1, max(tol, FLOAT_TOL if not inst.exact else 0))
    if v is None:
        return infeasible("(t^2+1) does not divide P / c")

    W = psub(pscale(pmul(inst.a, inst.a), inst.Lambda), pmul(inst.d1, inst.d1))
    wtol = tol * max(1.0, pmax(W) / max(pmax(inst.a) ** 2, 1e-300)) if not inst.exact else 0

    if _is_zero(W, max(tol, wtol)):
        if not _is_zero(v, tol):
            return infeasible("Lambda a^2 = d1^2 but P/c has a (t^2+1) cofactor")
        s = _match_sqrt_sign(inst.a, inst.d1, float(inst.Lambda))
        return sound("DEqualsSqrtLambdaA", (s,), {"v": ()})

    Q = _exact_divide(W, T2P1, max(tol, FLOAT_TOL if not inst.exact else 0))
    if Q is None:
        return infeasible("(t^2+1) does not divide Lambda a^2 - d1^2")

    diff = psub(Q, pmul(v, v))
    if not _is_zero(diff, max(tol, tol * pmax(Q))):
        cert = "constraint violated: (Lambda a^2 - d1^2)/(t^2+1) != v^2"
        Qt = trim(Q)
        if Qt and float(Qt[-1]) < 0:
            cert += " (sign clash: cofactor has negative leading coefficient, x1 x2 < 0)"
        return infeasible(cert)

    dv = degree(v)
    m = math.sqrt(float(inst.Lambda))
    fa = [float(x) for x in inst.a] + [0.0] * (3 - len(inst.a))
    fd = [float(x) for x in inst.d1] + [0.0] * (3 - len(inst.d1))
    if dv == 0:
        # one of sqrt(Lambda) a +- d1 is the constant cofactor
        best, s_best = None, 1
        for s in (1, -1):
            resid = abs(m * fa[1] + s * fd[1]) + abs(m * fa[2] + s * fd[2])
            if best is None or resid < best:
                best, s_best = resid, s
        return sound("CaseIII", (s_best,), {"v": v, "x2": m * fa[0] + s_best * fd[0]})
    if dv == 1:
        best, s_best = None, 1
        for s in (1, -1):
            f = [m * fa[k] + s * fd[k] for k in range(3)]
            resid = abs(f[1]) + abs(f[2] - f[0])  # proportional to t^2+1
            if best is None or resid < best:
                best, s_best = resid, s
        return sound("CaseIV", (s_best,), {"v": v})
    return infeasible(f"unexpected cofactor degree {dv}")


def _match_sqrt_sign(a, d1, lam):
    m = math.sqrt(lam)
    best, s_best = None, 1
    n = max(len(a), len(d1))
    fa = [float(x) for x in a] + [0.0] * (n - len(a))
    fd = [float(x) for x in d1] + [0.0] * (n - len(d1))
    for s in (1, -1):
        resid = sum(abs(fd[k] - s * m * fa[k]) for k in range(n))
        if best is None or resid < best:
            best, s_best = resid, s
    return s_best


def classify_a3(inst: ConstraintInstance) -> BranchVerdict:
    """Decision tree for the a3 constraint (lambda2 < lambda3 < 0)."""
    if inst.regime != "a3":
        raise PolyclassError("classify_a3 needs regime a3")
    l2, l3 = inst.lambda2, inst.lambda3
    if not float(l2) < float(l3):
        raise OrderingError("need lambda2 < lambda3; apply tilde_transform first")
    tol = inst.tol()
    infeasible, sound = _verdicts(inst)

    # a must be the canonical -(lambda3 t^2 + lambda2)/2 up to positive scale,
    # and the whole tuple (a, c, d1; P with weight 2) is normalized by it
    canon = pscale((l2, 0, l3), Fraction(-1, 2) if inst.exact else -0.5)
    lead = trim(inst.a)[-1]
    s_scale = lead / canon[2]
    if float(s_scale) <= 0 or not _is_zero(psub(inst.a, pscale(canon, s_scale)), tol):
        return infeasible("a is not a positive multiple of -(lambda3 t^2 + lambda2)/2")
    c_n = pscale(inst.c, 1 / s_scale)
    d1_n = pscale(inst.d1, 1 / s_scale)
    P_n = pscale(inst.P, 1 / (s_scale * s_scale))

    if _is_zero(c_n, tol):
        if _is_zero(P_n, tol):
            return sound("CZero", (), {})
        return infeasible("c = 0 forces P = 0, but P is nonzero")

    q1 = _exact_divide(P_n, c_n, max(tol, FLOAT_TOL if not inst.exact else 0))
    if q1 is None:
        return infeasible("c does not divide P")
    q = _exact_divide(q1, T2P1, max(tol, FLOAT_TOL if not inst.exact else 0))
    if q is None:
        return infeasible("(t^2+1) does not divide P / c")
    if degree(q) > 2:
        return infeasible("cofactor q has degree > 2")

    base = (l2, 0, l3)  # lambda3 t^2 + lambda2
    rhs = pmul(pmul(base, base), pscale((l3, 0, l2), -2))  # -2 (l3 t^2+l2)^2 (l2 t^2 + l3)
    target = psub(rhs, pmul(T2P1, pmul(q, q)))  # must equal d1^2
    resid = psub(pmul(d1_n, d1_n), target)
    if not _is_zero(resid, max(tol, tol * pmax(target))):
        cert = "constraint violated: d1^2 != -2(l3 t^2+l2)^2(l2 t^2+l3) - (t^2+1) q^2"
        qt = list(trim(q)) + [0] * (3 - len(trim(q)))
        lead_sq = qt[2] * qt[2] + 2 * l2 * l3 * l3
        if qt[1] == 0 and _is_zero((lead_sq,), max(tol, tol * pmax((qt[2],)) ** 2)):
            cert += (
                "; q matches a deg q+- = 0 shape, which would force (r-1)(r^2+4) = 0"
                " with r = lambda3/lambda2: root-free on (0, 1)"
            )
        return infeasible(cert)

    # only the printed solution shape remains: verify it exactly and read signs
    t_base = pmul((0, 1), base)  # t (lambda3 t^2 + lambda2)
    d1_shape = psub(pmul(d1_n, d1_n), pscale(pmul(t_base, t_base), 2 * (l3 - l2)))
    q_shape = psub(pmul(q, q), pscale(pmul(base, base), -2 * l3))
    if not _is_zero(d1_shape, max(tol, tol * pmax(pmul(d1_n, d1_n)))) or not _is_zero(
        q_shape, max(tol, tol * pmax(pmul(q, q)))
    ):
        return infeasible("solution does not match the rigid branch shapes")
    d1t = list(trim(d1_n)) + [0] * (4 - len(trim(d1_n)))
    qt = list(trim(q)) + [0] * (3 - len(trim(q)))
    s_d = -1 if float(d1t[3]) > 0 else 1  # d1 lead = s_d sqrt(2(l3-l2)) lambda3 < 0 for s_d=+1
    s_p = -1 if float(qt[2]) > 0 else 1
    return sound(
        "A3BranchII",
        (s_d, s_p),
        {"q": q, "scale": s_scale},
    )


def tilde_transform(inst: ConstraintInstance) -> ConstraintInstance:
    """Coefficient reversal t -> 1/t with degree homogenization (6,3,2,2),
    swapping the two eigenvalues.  An involution on a3 instances.
    """
    if inst.regime != "a3":
        raise PolyclassError("tilde_transform applies to regime a3")
    return ConstraintInstance(
        regime="a3",
        a=_reverse(inst.a, 2),
        c=_reverse(inst.c, 2),
        d1=_reverse(inst.d1, 3),
        P=_reverse(inst.P, 6),
        lambda2=inst.lambda3,
        lambda3=inst.lambda2,
    )


def classify(inst: ConstraintInstance):
    """Dispatch; a3 instances with swapped ordering are tilde-transformed."""
    if inst.regime == "a12":
        return classify_a12(inst), False
    if float(inst.lambda2) < float(inst.lambda3):
        return classify_a3(inst), False
    return classify_a3(tilde_transform(inst)), True


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
    whose message starts with the path."""
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
