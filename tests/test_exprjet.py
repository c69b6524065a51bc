import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import eval_scalar, leibniz_contract, mul_tables

from riccati3.exprjet import (
    DEGREES,
    DomainFault,
    ExprError,
    MULTI_INDICES,
    N_BY_ORDER,
    ParseError,
    Tape,
    _MUL_TABLES,
    _PAIR_SCATTERS,
    _mul,
    add_pair_terms,
    contract,
    eval_dual,
    eval_jet,
    format_expr,
    parse_expr,
)
from riccati3 import curvature
from riccati3.metrics import MetricError, builtin, custom, gamma_at, metric_jets

mpmath.mp.dps = 50

# central stencils of second-order accuracy, one per derivative order
STENCILS = {
    0: ((0,), (1,)),
    1: ((-1, 1), (mpmath.mpf(-1) / 2, mpmath.mpf(1) / 2)),
    2: ((-1, 0, 1), (1, -2, 1)),
    3: ((-2, -1, 1, 2), (mpmath.mpf(-1) / 2, 1, -1, mpmath.mpf(1) / 2)),
    4: ((-2, -1, 0, 1, 2), (1, -4, 6, -4, 1)),
}


def fd_partial(expr, p, params, alpha, h=None):
    """High-precision central finite difference for a mixed partial."""
    h = h or mpmath.mpf("1e-4")
    offs = [STENCILS[a][0] for a in alpha]
    wts = [STENCILS[a][1] for a in alpha]
    total = mpmath.mpf(0)
    for o1, w1 in zip(offs[0], wts[0]):
        for o2, w2 in zip(offs[1], wts[1]):
            for o3, w3 in zip(offs[2], wts[2]):
                q = (p[0] + o1 * h, p[1] + o2 * h, p[2] + o3 * h)
                total += w1 * w2 * w3 * eval_scalar(expr, q, params, lib=mpmath)
    return total / h ** sum(alpha)


def test_parse_sum_structure():
    e = parse_expr("x1^2 + sinh(x2)*x3")
    s = format_expr(e)
    assert format_expr(parse_expr(s)) == s
    assert "sinh" in s


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("2*")
    assert err.value.offset == 2


def test_unknown_identifier_and_arity():
    with pytest.raises(ParseError):
        parse_expr("x1 + bogus")
    with pytest.raises(ParseError):
        parse_expr("sin(x1, x2)")
    parse_expr("exp(-(L*x1)^2)", params=["L"])  # declared parameter is fine


def test_eval_jet_bilinear():
    j = eval_jet(parse_expr("x1*x2"), (1.0, 2.0, 0.0), order=2)
    assert j.value == 2.0
    assert j.partial((1, 0, 0)) == 2.0
    assert j.partial((0, 1, 0)) == 1.0
    assert j.partial((1, 1, 0)) == 1.0
    others = [m for m in MULTI_INDICES if sum(m) == 2 and m != (1, 1, 0)]
    assert all(j.partial(m) == 0.0 for m in others)


def test_eval_jet_sinh():
    j = eval_jet(parse_expr("sinh(x2)"), (0.0, 0.0, 0.0), order=3)
    assert j.value == 0.0
    assert j.partial((0, 1, 0)) == pytest.approx(1.0, abs=1e-15)
    assert j.partial((0, 2, 0)) == pytest.approx(0.0, abs=1e-15)
    assert j.partial((0, 3, 0)) == pytest.approx(1.0, abs=1e-14)


def test_polynomial_exactness_degree4():
    rng = np.random.default_rng(3)
    coeffs = {m: int(rng.integers(-4, 5)) for m in MULTI_INDICES}
    src = " + ".join(
        f"({c})*x1^{m[0]}*x2^{m[1]}*x3^{m[2]}" for m, c in coeffs.items() if c
    )
    p = (0.7, -0.4, 0.9)
    j = eval_jet(parse_expr(src), p)

    def analytic_partial(alpha):
        total = 0.0
        for m, c in coeffs.items():
            if all(m[i] >= alpha[i] for i in range(3)):
                term = c
                for i in range(3):
                    for k in range(alpha[i]):
                        term *= m[i] - k
                    term *= p[i] ** (m[i] - alpha[i])
                total += term
        return total

    for alpha in MULTI_INDICES:
        assert j.partial(alpha) == pytest.approx(analytic_partial(alpha), rel=1e-12, abs=1e-11)


@pytest.mark.parametrize(
    "src,point,params",
    [
        ("exp(x1)*sin(x2) + cosh(x3)", (0.3, -0.7, 0.4), {}),
        ("log(2 + x1^2 + x2)*sqrt(3 + x3)", (0.5, 0.2, -0.1), {}),
        ("sinh(x1*x2)/(1 + x3^2)", (0.4, 0.6, -0.3), {}),
        ("exp(-(L*x1)^2) + cos(x2 - x3)", (0.2, 0.9, 0.1), {"L": 1.5}),
    ],
)
def test_jet_against_finite_differences(src, point, params):
    """Every coefficient matches a step-1e-4 central stencil to 1e-6 relative."""
    expr = parse_expr(src, params=params.keys())
    j = eval_jet(expr, point, params)
    dual = eval_dual(expr, point, params)
    mp_point = tuple(mpmath.mpf(repr(x)) for x in point)
    for k, alpha in enumerate(MULTI_INDICES):
        got = j.partial(alpha)
        want = float(fd_partial(expr, mp_point, params, alpha))
        if abs(got) > 1e-8:
            assert got == pytest.approx(want, rel=1e-6), (src, alpha)
        else:
            assert abs(want) < 1e-6, (src, alpha)
        if k < len(dual):  # value and first partials
            assert dual[k] == pytest.approx(want, rel=1e-6, abs=1e-6), (src, alpha)


def test_jet_mul_identity_and_square():
    p = (0.0, 0.0, 0.0)
    one = eval_jet(parse_expr("1"), p).coef
    x1 = eval_jet(parse_expr("x1"), p).coef
    j = eval_jet(parse_expr("exp(x1)+x2*x3"), p)
    assert np.array_equal(_mul(one, j.coef, 4), j.coef)
    expected = np.zeros(len(MULTI_INDICES))
    expected[MULTI_INDICES.index((2, 0, 0))] = 1.0
    assert np.array_equal(_mul(x1, x1, 4), expected)


def test_mul_tables_equal_the_pair_loop():
    """The Leibniz tables built in one numpy pass are, order by order, the
    int64 tables of the loop over multi-index pairs, bit for bit."""
    for got, want in zip(_MUL_TABLES, mul_tables(), strict=True):
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype == np.int64 and np.array_equal(g, w)


def test_jet_mul_matches_product_expression():
    rng = np.random.default_rng(11)
    p = tuple(rng.uniform(-1, 1, 3))
    f = "1 + 2*x1 - x2^2 + x3"
    g = "x1*x3 - 3*x2 + 2"
    jf, jg = eval_jet(parse_expr(f), p), eval_jet(parse_expr(g), p)
    jprod = eval_jet(parse_expr(f"({f})*({g})"), p)
    assert np.allclose(_mul(jf.coef, jg.coef, 4), jprod.coef, atol=1e-13)


coef_strategy = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=35, max_size=35
)


@settings(max_examples=50, deadline=None)
@given(coef_strategy, coef_strategy, coef_strategy)
def test_jet_mul_commutative_associative(ca, cb, cc):
    a, b, c = (np.array(v) for v in (ca, cb, cc))
    assert np.max(np.abs(_mul(a, b, 4) - _mul(b, a, 4))) < 1e-13
    lhs = _mul(_mul(a, b, 4), c, 4)
    rhs = _mul(a, _mul(b, c, 4), 4)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_division_by_zero_faults():
    with pytest.raises(DomainFault):
        eval_jet(parse_expr("1/(x1 - x1)"), (0.3, 0, 0))
    with pytest.raises(DomainFault):
        eval_jet(parse_expr("log(x1)"), (-1.0, 0, 0))
    with pytest.raises(DomainFault) as err:
        eval_jet(parse_expr("sqrt(x2 - 4)"), (0, 1.0, 0))
    assert "sqrt" in str(err.value)


def test_order_truncation():
    j = eval_jet(parse_expr("exp(x1)"), (0.0, 0, 0), order=2)
    assert j.order == 2
    assert len(j.coef) == 10
    with pytest.raises(Exception):
        j.partial((3, 0, 0))


MIXED = "exp(x1)*sin(x2)/(1 + x3^2) + log(2 + x1*x2)^3 - sqrt(3 + x3)*x2^-2 + cosh(L*x1)"


@pytest.mark.parametrize("order", range(5))
def test_order_k_jet_is_prefix_of_order_4(order):
    """An order-k jet is exactly the leading N(k) coefficients of the order-4 jet."""
    expr = parse_expr(MIXED, params=["L"])
    p, params = (0.3, -0.7, 0.4), {"L": 1.5}
    full = eval_jet(expr, p, params)
    j = eval_jet(expr, p, params, order=order)
    assert j.order == order
    assert np.array_equal(j.coef, full.coef[: N_BY_ORDER[order]])


def test_negative_power_near_zero_faults_in_gamma_at():
    """One division rule for every order: a negative power of a base within
    1e-12 of zero faults, also in the order-1 evaluation gamma_at uses."""
    comps = {"g11": "1 + x3^-2", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    spec = custom(comps)
    gamma_at(spec, (0.0, 0.0, 0.5))
    with pytest.raises(DomainFault) as err:
        gamma_at(spec, (0.0, 0.0, 1e-13))
    assert "x3^-2" in str(err.value)
    with pytest.raises(DomainFault):
        eval_jet(parse_expr("x1^-3"), (-5e-13, 0.0, 0.0))


@pytest.mark.parametrize("order", range(5))
def test_batch_jet_is_stack_of_point_jets(order):
    """A jet at an (n, 3) array holds, in column k, the jet at row k."""
    expr = parse_expr(MIXED, params=["L"])
    params = {"L": 1.5}
    rng = np.random.default_rng(order)
    xs = np.column_stack(
        [
            rng.uniform(-0.5, 0.5, 40),
            rng.uniform(0.3, 0.9, 40) * rng.choice([-1.0, 1.0], 40),
            rng.uniform(-0.5, 0.5, 40),
        ]
    )
    batch = eval_jet(expr, xs, params, order=order)
    assert batch.order == order and batch.coef.shape == (N_BY_ORDER[order], len(xs))
    stack = np.stack([eval_jet(expr, tuple(x), params, order=order).coef for x in xs], axis=-1)
    assert np.all(np.abs(batch.coef - stack) <= 1e-15 * np.maximum(1.0, np.abs(stack)))
    assert np.array_equal(batch.value, batch.coef[0])
    if order >= 1:
        dual = eval_dual(expr, xs, params)
        assert dual.shape == (4, len(xs)) and np.array_equal(dual, batch.coef[:4])


@pytest.mark.parametrize(
    "src,bad_row,subtree",
    [
        ("x1^-3", (4e-13, 0.0, 0.0), "(x1^-3)"),
        ("log(x1)", (-0.5, 0.0, 0.0), "log(x1)"),
        ("sqrt(x2 - 4)", (0.0, 1.0, 0.0), "sqrt((x2 - 4.0))"),
        ("exp(x1)", (800.0, 0.0, 0.0), "exp(x1)"),
        ("sinh(x3)", (0.0, 0.0, -800.0), "sinh(x3)"),
        ("cosh(x2)", (0.0, 800.0, 0.0), "cosh(x2)"),
    ],
)
def test_batch_with_one_faulting_row_raises(src, bad_row, subtree):
    """One bad row faults the whole batch, with the one-point message."""
    xs = np.array([[0.7, 5.0, 0.1], bad_row, [0.9, 6.0, -0.2]])
    eval_jet(parse_expr(src), np.delete(xs, 1, axis=0))  # the good rows alone are fine
    with pytest.raises(DomainFault) as err:
        eval_jet(parse_expr(src), xs)
    assert subtree in str(err.value)
    with pytest.raises(DomainFault) as one:
        eval_jet(parse_expr(src), bad_row)
    assert str(one.value) == str(err.value)


def test_metric_jets_batch_names_non_positive_definite_row():
    """A batch with one non-positive-definite row names that row's point."""
    comps = {"g11": "x1", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    spec = custom(comps, name="half")
    xs = np.array([[0.5, 0.1, 0.2], [0.25, 0.0, 0.0], [-0.125, 0.5, 0.75], [-0.5, 0.0, 0.0]])
    mj = metric_jets(spec, xs[:2], order=2)
    assert mj.g.shape == (2, 3, 3) and np.array_equal(mj.g[:, 0, 0], xs[:2, 0])
    with pytest.raises(MetricError) as err:
        metric_jets(spec, xs, order=2)
    assert "at (-0.125, 0.5, 0.75)" in str(err.value)
    with pytest.raises(MetricError) as one:
        metric_jets(spec, (-0.125, 0.5, 0.75), order=2)
    assert str(one.value) == str(err.value)


def test_exp_overflow_is_a_domain_fault_not_an_indefinite_metric():
    """exp beyond the float range is named as such at one point (where math.exp
    raises OverflowError) and at a batch (where np.exp gives inf), also when the
    overflow cancels out of the metric; a nan argument is not an overflow."""
    comps = {"g11": "1 + exp(x1) - exp(x1)", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    spec = custom(comps)
    for call in (
        lambda: gamma_at(spec, (1000.0, 0.0, 0.0)),
        lambda: metric_jets(spec, (1000.0, 0.0, 0.0), order=1),
        lambda: metric_jets(spec, np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0]]), order=1),
    ):
        with pytest.raises(DomainFault, match=r"^exp overflows the float range in subtree 'exp\(x1\)'$"):
            call()
    assert gamma_at(spec, (30.0, 0.0, 0.0))[0][0][0] == 1.0  # g11
    with pytest.raises(MetricError, match="not positive definite"):
        gamma_at(spec, (math.nan, 0.0, 0.0))


@pytest.mark.parametrize(
    "g11,x1,power",
    [
        ("1 + x1^4 - x1^4", 1e100, 4),  # the power itself overflows
        ("1 + 1e-300*x1^200", 34.6, 200),  # x1^200 is finite, 200 x1^199 is not
    ],
)
def test_power_overflow_is_a_domain_fault_not_an_indefinite_metric(g11, x1, power):
    """An integer power whose series leaves the float range is named as such
    at one point (where the float power raises OverflowError, or a product
    gives inf) and at a batch (where numpy overflows to inf), with no
    RuntimeWarning, also when the overflow cancels out of the metric."""
    comps = {"g11": g11, "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1"}
    spec = custom(comps)
    message = rf"^power {power} overflows the float range in subtree '\(x1\^{power}\)'$"
    for call in (
        lambda: gamma_at(spec, (x1, 0.0, 0.0)),
        lambda: metric_jets(spec, (x1, 0.0, 0.0), order=1),
        lambda: metric_jets(spec, np.array([[0.0, 0.0, 0.0], [x1, 0.0, 0.0]]), order=1),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainFault, match=message):
                call()
    assert gamma_at(spec, (1.5, 0.0, 0.0))[0][0][0] >= 1.0  # g11


@pytest.mark.parametrize(
    "comps,point,named",
    [
        # the product overflows and cancels to nan
        ({"g11": "1 + x1*x1*x1*x1 - x1*x1*x1*x1"}, (1e100, 0.0, 0.0), "g11 = nan"),
        # inf on the diagonal, where the minors read inf, inf, nan
        ({"g11": "1 + x1*x1*x1*x1"}, (1e100, 0.0, 0.0), "g11 = inf"),
        # inf in the last diagonal entry only: the minors read 1, 1, inf
        ({"g33": "1 + x3*x3*x3*x3"}, (0.0, 0.0, 1e100), "g33 = inf"),
        # the first non-finite component in the order g11, g12, g13, g22, g23, g33
        ({"g23": "x2*x2*x2*x2", "g33": "1 + x2*x2*x2*x2"}, (0.0, 1e100, 0.0), "g23 = inf"),
    ],
)
def test_non_finite_metric_value_is_named(comps, point, named):
    """A metric value that is inf or nan at a finite point is named as such,
    with its point and its first non-finite component, at one point and at the
    first such point of a batch; at a nan point the metric is not positive
    definite, as before."""
    spec = custom({"g11": "1", "g12": "0", "g13": "0", "g22": "1", "g23": "0", "g33": "1", **comps})
    message = rf"^metric 'custom' is not finite at \({re.escape(repr(point)[1:-1])}\): {named}$"
    batch = np.array([[0.0, 0.0, 0.0], point, 2.0 * np.array(point)])
    nan_point = tuple(math.nan if x else 0.0 for x in point)
    with np.errstate(all="ignore"):  # the overflowing products warn at a batch
        for call in (
            lambda: gamma_at(spec, point),
            lambda: metric_jets(spec, point, order=1),
            lambda: metric_jets(spec, batch, order=1),
        ):
            with pytest.raises(MetricError, match=message):
                call()
        for call in (
            lambda: gamma_at(spec, nan_point),
            lambda: metric_jets(spec, nan_point, order=1),
            lambda: metric_jets(spec, np.array([[0.0, 0.0, 0.0], nan_point]), order=1),
        ):
            with pytest.raises(MetricError, match=rf"not positive definite at \({re.escape(repr(nan_point)[1:-1])}\)"):
                call()


# --- the compiled tape ---------------------------------------------------

# the custom metrics of the benchmark (perfbench/workloads.py), with a box each
TAPE_CUSTOM = {
    "h3exp": ({"g11": "1", "g12": "0", "g13": "0", "g22": "exp(2*x1)", "g23": "0", "g33": "exp(2*x1)"},
              ((-1.0, 1.0),) * 3),
    "s3sin": ({"g11": "1", "g12": "0", "g13": "0", "g22": "sin(x1)^2", "g23": "0", "g33": "sin(x1)^2*sin(x2)^2"},
              ((0.6, 2.5), (0.6, 2.5), (-1.0, 1.0))),
    "h2coshr": ({"g11": "1", "g12": "0", "g13": "0", "g22": "cosh(x1)^2", "g23": "0", "g33": "1"},
                ((-1.0, 1.0),) * 3),
}


def _tape_specs():
    from riccati3.metrics import BUILTIN_NAMES, builtin

    specs = [builtin(name) for name in BUILTIN_NAMES] + [builtin("heisenberg", L=0.3)]
    specs += [custom(comps, name=name, box=box) for name, (comps, box) in TAPE_CUSTOM.items()]
    return specs


def test_tape_shares_repeated_subtrees_and_constants():
    from riccati3.metrics import builtin

    tape = builtin("sphere").tape
    g11, g12, g13, g22, g23, g33 = tape.outputs
    assert g11 == g22 == g33  # one register for the three identical diagonal components
    assert g12 == g13 == g23 and tape.ops[g12][:2] == ("const", 0.0)
    # c^2 folds to 1.0, the same constant register as the literal 1 of 1 + x1^2 + ...
    consts = [op[1] for op in tape.ops if op[0] == "const"]
    assert sorted(consts) == [0.0, 1.0, 4.0]


def test_tape_folding_keeps_constant_faults():
    """A constant subtree that faults is not folded away: every evaluation
    raises the walk's DomainFault, naming the same subtree."""
    comps = {"g11": "1 + x1^2", "g12": "0", "g13": "0", "g22": "1/(1-1)", "g23": "0", "g33": "1"}
    spec = custom(comps)
    message = "division by ~0 in subtree '(1.0 - 1.0)'"
    for run in (
        lambda: metric_jets(spec, (0.1, 0.2, 0.3)),
        lambda: metric_jets(spec, np.zeros((4, 3)), order=2),
        lambda: gamma_at(spec, (0.1, 0.2, 0.3)),
        lambda: eval_jet(parse_expr("x1 + 1/(1-1)"), (0.1, 0.2, 0.3), order=0),
    ):
        with pytest.raises(DomainFault) as err:
            run()
        assert str(err.value) == message


def test_tape_fault_order_follows_the_walk():
    """With shared subtrees, the first fault of a run is the one a walk of
    the trees meets first."""
    expr = parse_expr("log(x1) + sqrt(x2) + log(x1)")
    with pytest.raises(DomainFault) as err:
        eval_jet(expr, (-1.0, -1.0, 0.0))
    assert str(err.value) == "log of non-positive value in subtree 'log(x1)'"
    with pytest.raises(DomainFault) as err:
        eval_jet(expr, (1.0, -1.0, 0.0))
    assert str(err.value) == "sqrt of non-positive value in subtree 'sqrt(x2)'"


@pytest.mark.parametrize("spec", _tape_specs(), ids=lambda s: f"{s.name}{s.params}")
def test_gamma_at_matches_order4_pack(spec):
    """gamma_at (order-1 tape, adjugate inverse) against the independent
    order-4 curvature kernel of pack_at."""
    from oracles import gamma_arrays

    from riccati3.curvature import pack_at

    rng = np.random.default_rng(3)
    box = np.array(spec.box)
    for _ in range(4):
        p = rng.uniform(box[:, 0], box[:, 1])
        g, ginv, gamma = gamma_arrays(spec, p)
        pack = pack_at(spec, tuple(p))
        for got, want in ((g, pack.g), (ginv, pack.ginv), (gamma, pack.gamma)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


# neg, -, *, ^0, a negative power and all seven functions
EVERY_OPERATION = {
    "g11": "exp(x1)*sin(x2) - cos(x3)^0 + sinh(x1)/(2 + x2^2)",
    "g12": "-log(3 + x1)*sqrt(4 + x2)",
    "g13": "cosh(x3)^-2 - -x1",
    "g22": "(2 + x1*x2)^-3 - (x1 - x2)*(x3 - x1)",
    "g23": "-(x3^2)^0 - x1*x2*x3",
    "g33": "1/(1 + x3^2) + exp(-x1)",
}


def _first_order_and_run(tape, p):
    """What ``tape.first_order(p)`` and ``tape.run(p, 1)`` give at p: each
    jet as the bytes of its (4, outputs) array, or the exception's type and
    message."""
    outcomes = []
    for replay in (tape.first_order, lambda p: np.array(tape.run(p, 1)).T):
        try:
            jet = replay(p)
        except (ExprError, ArithmeticError) as exc:
            outcomes.append((type(exc), str(exc)))
            continue
        if replay == tape.first_order:
            assert len(jet) == 4 and all(type(x) is float for column in jet for x in column)
        outcomes.append(np.array(jet).tobytes())
    return outcomes


@pytest.mark.parametrize(
    "spec",
    _tape_specs() + [custom(EVERY_OPERATION, name="every-operation")],
    ids=lambda s: f"{s.name}{s.params}",
)
def test_first_order_replay_is_the_order1_run_bit_for_bit(spec):
    """The float replay of gamma_at gives the bytes of the numpy run at order
    1, zero signs included, at random points of the box and points with
    +0.0 and -0.0 coordinates (where some metrics fault, the same way)."""
    rng = np.random.default_rng(11)
    box = np.array(spec.box)
    points = [tuple(rng.uniform(box[:, 0], box[:, 1])) for _ in range(40)]
    mid = box.mean(axis=1)
    for signs in np.ndindex(2, 2, 2):
        zeros = tuple(-0.0 if s else 0.0 for s in signs)
        points.append(zeros)
        points += [tuple(zeros[i] if i == k else float(mid[i]) for i in range(3)) for k in range(3)]
    for p in points:
        got, want = _first_order_and_run(spec.tape, p)
        assert got == want, p


@pytest.mark.parametrize(
    "src,point,message",
    [
        ("1/(x1 - x2)", (0.5, 0.5, 0.0), "division by ~0 in subtree '(x1 - x2)'"),
        ("x1^-3", (4e-13, 0.0, 0.0), "division by ~0 in subtree '(x1^-3)'"),
        ("1 + x1^4 - x1^4", (1e100, 0.0, 0.0), "power 4 overflows the float range in subtree '(x1^4)'"),
        ("1e-300*x1^200", (34.6, 0.0, 0.0), "power 200 overflows the float range in subtree '(x1^200)'"),
        ("exp(x1)", (800.0, 0.0, 0.0), "exp overflows the float range in subtree 'exp(x1)'"),
        ("cosh(x2)", (0.0, -800.0, 0.0), "cosh overflows the float range in subtree 'cosh(x2)'"),
        ("log(x1)", (-0.5, 0.0, 0.0), "log of non-positive value in subtree 'log(x1)'"),
        ("sqrt(x2 - 4)", (0.0, 1.0, 0.0), "sqrt of non-positive value in subtree 'sqrt((x2 - 4.0))'"),
        ("x1 + L*x2", (0.1, 0.2, 0.3), "unbound parameter 'L'"),
        # a product that overflows: numpy's one-hot sum spreads inf and nan
        ("x1*x1*x1*x1", (1e100, 0.0, 0.0), None),
        ("1/(x1*x1*x1*x1) + x1", (1e100, 0.0, 0.0), None),
        ("x1*x2", (math.nan, 1.0, 0.0), None),
        ("x1*x2", (math.inf, 0.0, 0.0), None),
    ],
)
def test_first_order_replay_faults_as_the_order1_run(src, point, message):
    """Each fault raises the same exception with the same message from the
    float replay and the numpy run; a product past the float range gives the
    same bytes, inf and nan included."""
    tape = Tape((parse_expr(src, params=["L"]), parse_expr("x3")))
    with np.errstate(all="ignore"):
        got, want = _first_order_and_run(tape, point)
    assert got == want
    if message is None:
        assert isinstance(got, bytes)
    else:
        assert got[1] == message and issubclass(got[0], ExprError)


@pytest.mark.parametrize("c", [0, 1, 2, 3, 4])
def test_group_tables_cover_every_leibniz_pair_once(c):
    """The outputs of degree c take every Leibniz pair (gamma, alpha, beta) of
    the pair loop exactly once: alpha = 0 and beta = 0 as one term per
    output, and the pairs with both nonzero from _PAIR_SCATTERS[c], whose
    one-hot columns each name the one output alpha + beta."""
    rows = range(DEGREES[c].start, DEGREES[c].stop)
    got = [(g, 0, g) for g in rows] + [(g, g, 0) for g in rows if g]
    for j, scatter in enumerate(_PAIR_SCATTERS[c], 1):
        pairs = [(a, b) for a in range(DEGREES[j].start, DEGREES[j].stop)
                 for b in range(DEGREES[c - j].start, DEGREES[c - j].stop)]
        assert scatter.shape == (len(rows), len(pairs))
        assert np.array_equal(scatter.sum(axis=0), np.ones(len(pairs))) and set(np.unique(scatter)) == {0.0, 1.0}
        got += [(rows[int(np.argmax(scatter[:, t]))], a, b) for t, (a, b) in enumerate(pairs)]
    out, ia, ib = mul_tables()[-1]
    want = [(int(g), int(a), int(b)) for g, a, b in zip(out, ia, ib) if g in rows]
    assert sorted(got) == sorted(want) and len(set(got)) == len(got)


def test_forward_recurrence_divides_jets():
    """q = c / a degree by degree, each degree's sum the term alpha = gamma
    and add_pair_terms' groups on 1x1 matrices, gives the jet of the
    quotient expression, at one point and a batch of 3."""
    num, den = "exp(x1 - x3) + x2", "2 + sin(x1) * x2 + x3^2"
    for p in ((0.3, -0.2, 0.5), np.array([[0.3, -0.2, 0.5], [0.0, 0.0, 0.0], [-1.0, 0.7, 0.4]])):
        c, a = eval_jet(parse_expr(num), p).coef, eval_jet(parse_expr(den), p).coef
        q = np.empty_like(c)
        q[0] = c[0] / a[0]
        A, Q = a[..., None, None], q[..., None, None]
        for d in range(1, 5):
            acc = A[DEGREES[d]] @ Q[0]
            add_pair_terms(acc, A, Q, d)
            q[DEGREES[d]] = (c[DEGREES[d]] - acc[..., 0, 0]) / a[0]
        want = eval_jet(parse_expr(f"({num}) / ({den})"), p).coef
        assert np.all(np.abs(q - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


# every subscript string the curvature kernel passes to ``contract``
CURVATURE_SUBSCRIPTS = (
    "lim,mjk->ijkl",
    "ij,ij->",
    "nma,nb->mab",
    "nmb,an->mab",
    "nma,nbc->mabc",
    "nmb,anc->mabc",
    "nmc,abn->mabc",
)
# four-slot operands with a five-slot result, the widest ``contract`` plans;
# ``contract`` is generic in the slot count, though no kernel call passes
# them (the pack builds nabla R from nabla rho)
FOUR_SLOT_SUBSCRIPTS = (
    "nma,nbcd->mabcd",
    "nmb,ancd->mabcd",
    "nmc,abnd->mabcd",
    "dmn,abcn->mabcd",
)
# and those of the Neumann-series oracle of Gamma (``oracles.neumann_inverse``
# and its product with the lowered symbols)
ORACLE_SUBSCRIPTS = ("kl,lj->kj", "kl,lij->kij")


def test_curvature_subscripts_are_the_kernels(monkeypatch):
    """CURVATURE_SUBSCRIPTS is the set the kernel uses, at one point and a batch."""
    seen = set()

    def recording(subscripts, a, b, order):
        seen.add(subscripts)
        return contract(subscripts, a, b, order)

    monkeypatch.setattr(curvature, "contract", recording)
    spec = builtin("heisenberg")
    curvature.pack_at(spec, (0.1, 0.2, 0.3))
    curvature.pack_at(spec, np.array([[0.1, 0.2, 0.3], [0.0, -0.1, 0.2]]))
    curvature.curvature_r_only(spec, (0.1, 0.2, 0.3))
    assert seen == set(CURVATURE_SUBSCRIPTS)


ALL_SUBSCRIPTS = ORACLE_SUBSCRIPTS + CURVATURE_SUBSCRIPTS + FOUR_SLOT_SUBSCRIPTS


@pytest.mark.parametrize("subscripts", ALL_SUBSCRIPTS)
@pytest.mark.parametrize("batch", [(), (1,), (7,)])
def test_contract_matches_einsum_reference(subscripts, batch):
    """``contract``'s grouped sums give the pair-by-pair einsum Leibniz product
    (``oracles.leibniz_contract``) at orders 0-4, at one point (no batch axis)
    and at batches of 1 and 7: within 4 ulp of the sum of the absolute terms."""
    ins, res = subscripts.split("->")
    sa, sb = ins.split(",")
    rng = np.random.default_rng(len(batch) + 17 * ALL_SUBSCRIPTS.index(subscripts))
    a = rng.uniform(-1.0, 1.0, (N_BY_ORDER[4],) + batch + (3,) * len(sa))
    b = rng.uniform(-1.0, 1.0, (N_BY_ORDER[4],) + batch + (3,) * len(sb))
    for order in range(5):
        got = contract(subscripts, a, b, order)
        want = leibniz_contract(subscripts, a, b, order)
        bound = 4 * np.finfo(float).eps * leibniz_contract(subscripts, np.abs(a), np.abs(b), order)
        assert got.shape == want.shape == (N_BY_ORDER[order],) + batch + (3,) * len(res)
        assert got.flags.c_contiguous
        assert np.all(np.abs(got - want) <= bound), (order, batch)
