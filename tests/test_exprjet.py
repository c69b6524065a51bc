import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati3.exprjet import (
    DomainFault,
    MULTI_INDICES,
    N_BY_ORDER,
    ParseError,
    _mul,
    eval_dual,
    eval_jet,
    eval_scalar,
    format_expr,
    parse_expr,
)
from riccati3.metrics import MetricError, custom, gamma_at, metric_jets

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
    """gamma_at (order-1 tape, one solve) against the independent order-4
    curvature kernel of pack_at."""
    from riccati3.curvature import pack_at

    rng = np.random.default_rng(3)
    box = np.array(spec.box)
    for _ in range(4):
        p = rng.uniform(box[:, 0], box[:, 1])
        g, ginv, gamma = gamma_at(spec, p)
        pack = pack_at(spec, tuple(p))
        for got, want in ((g, pack.g), (ginv, pack.ginv), (gamma, pack.gamma)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
