import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_classify, reference_pdivmod, reference_pmul, reference_residual

from riccati3 import polyclass
from riccati3.polyclass import (
    ConstraintInstance,
    OrderingError,
    PolyclassError,
    classify,
    classify_a3,
    classify_a12,
    instance_from_dict,
    instance_to_dict,
    padd,
    plant_a3,
    plant_a12,
    pmul,
    pscale,
    tilde_transform,
    trim,
    verify_constraint,
)


def same_values_and_fraction_types(got, want):
    """Equal values, and a Fraction wherever the reference has one."""
    assert got == want
    for x, y in zip(got, want):
        if isinstance(y, Fraction):
            assert isinstance(x, Fraction), (got, want)


_coefficient = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**9),
)
_poly = st.one_of(
    st.lists(_coefficient, max_size=7),
    st.lists(st.integers(-(10**20), 10**20), max_size=7),  # int-only
    st.lists(st.sampled_from([0, Fraction(0)]), max_size=4),  # empty and zero
    # trailing zeros
    st.tuples(st.lists(_coefficient, max_size=4), st.lists(st.just(0), max_size=3)).map(
        lambda t: t[0] + t[1]
    ),
)


@settings(max_examples=300, deadline=None)
@given(_poly, _poly)
def test_pmul_equals_fraction_convolution(a, b):
    got, want = pmul(tuple(a), tuple(b)), reference_pmul(a, b)
    same_values_and_fraction_types(got, want)
    assert pmul(tuple(b), tuple(a)) == want


@settings(max_examples=300, deadline=None)
@given(_poly, _poly.filter(lambda d: any(x != 0 for x in d)))
def test_pdivmod_equals_fraction_long_division(num, den):
    """Dividing integer numerators over their denominators, as the
    classifiers divide (pseudo-division by ``pdivmod`` on integers), gives
    the quotient and remainder of the reference's long division of the
    Fraction values."""
    num = [Fraction(x) for x in num]
    num_form, den_form = (
        polyclass._over_lcm([(x.numerator, x.denominator) for x in map(Fraction, p)]) for p in (num, den)
    )
    (q, dq), (r, dr) = polyclass._qdiv(num_form, den_form)
    assert all(type(x) is int for x in q + r) and dq > 0 and dr > 0
    q, r = tuple(Fraction(x, dq) for x in q), tuple(Fraction(x, dr) for x in r)
    q_want, r_want = reference_pdivmod(num, den)
    assert (q, r) == (q_want, r_want)
    assert padd(pmul(q, den), r) == trim(num)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), max_size=6),
    st.lists(st.one_of(st.floats(-1e6, 1e6), st.integers(-5, 5)), max_size=6),
)
def test_pmul_on_floats_is_the_plain_convolution(a, b):
    got, want = pmul(tuple(a), tuple(b)), reference_pmul(a, b)
    assert got == want and [type(x) for x in got] == [type(x) for x in want]


def _planted(seed):
    """The instances of one benchmark round: every a12 branch, and every a3
    branch in both eigenvalue orders."""
    rng = np.random.default_rng(seed)
    out = []
    for branch in ("CZero", "DEqualsSqrtLambdaA", "CaseIII", "CaseIV", "Infeasible"):
        out.append(plant_a12(rng, branch, 1 if rng.integers(0, 2) else -1)[0])
    for branch in ("CZero", "A3BranchII", "Infeasible"):
        signs = (1 if rng.integers(0, 2) else -1, 1 if rng.integers(0, 2) else -1)
        inst = plant_a3(rng, branch, signs)[0]
        out += [inst, tilde_transform(inst)]
    return out


def test_planted_verdicts_equal_the_reference_arithmetic():
    """Every BranchVerdict field, on seeds 0-199 of every planted branch, is
    the one the decision trees give in plain Fraction arithmetic
    (``oracles.reference_classify``, which shares no arithmetic with the
    integer form): the witnesses with their Fraction types, and the oracle
    residual, which is also the reference expansion's."""
    for inst in (inst for seed in range(200) for inst in _planted(seed)):
        (verdict, tilded), (want, want_tilded) = classify(inst), reference_classify(inst)
        assert tilded == want_tilded
        assert verdict == want, (verdict, want)
        assert verdict.witness.keys() == want.witness.keys()
        for key, value in want.witness.items():
            if isinstance(value, tuple):
                same_values_and_fraction_types(verdict.witness[key], value)
            else:
                assert type(verdict.witness[key]) is type(value), key
        assert verdict.oracle_residual == reference_residual(inst)


def _float_copy(inst):
    """The instance with every coefficient and scalar rounded to a float."""
    floats = {k: tuple(map(float, getattr(inst, k))) for k in ("a", "c", "d1", "P")}
    if inst.regime == "a12":
        return ConstraintInstance("a12", **floats, Lambda=float(inst.Lambda))
    return ConstraintInstance("a3", **floats, lambda2=float(inst.lambda2), lambda3=float(inst.lambda3))


def test_float_copies_of_planted_instances_get_the_exact_verdicts():
    """A second number type as an oracle for the integer form: float copies
    of the planted instances of seeds 0-49 (every branch, a3 in both
    eigenvalue orders) take the same branch, signs and tilde flag."""
    for inst in (inst for seed in range(50) for inst in _planted(seed)):
        copy = _float_copy(inst)
        assert inst.exact and not copy.exact
        (exact, exact_tilded), (floats, float_tilded) = classify(inst), classify(copy)
        assert (floats.branch, floats.signs, float_tilded) == (exact.branch, exact.signs, exact_tilded)


def test_trailing_zeros_do_not_change_the_verdict():
    """A coefficient list with trailing zeros is the trimmed polynomial: the
    planted instances of seeds 0-19 (every branch, a3 in both eigenvalue
    orders, so the tilde path reverses them) with a zero appended to each
    list get the verdict and tilde flag of the instances as planted."""
    for inst in (inst for seed in range(20) for inst in _planted(seed)):
        polys = (inst.a + (0,), inst.c + (0,), inst.d1 + (0,), inst.P + (0,))
        padded = ConstraintInstance(inst.regime, *polys, inst.Lambda, inst.lambda2, inst.lambda3)
        assert classify(padded) == classify(inst)
        if inst.regime == "a3":
            want, got = tilde_transform(inst), tilde_transform(padded)
            assert (got.a, got.c, got.d1, got.P) == (want.a, want.c, want.d1, want.P)


def test_float_instances_keep_their_verdicts(monkeypatch):
    """Float instances coupled from frame data classify as under the plain
    arithmetic, bit for bit."""
    from oracles import constraint_instance
    from riccati3.frame_algebra import CASES, consistent_frame

    instances = []
    for seed in range(12):
        fd, rng = consistent_frame(seed), np.random.default_rng(seed)
        instances += [instance_from_dict(constraint_instance(fd, case, rng=rng)) for case in CASES]
    got = [classify(inst) for inst in instances]
    monkeypatch.setattr(polyclass, "pmul", reference_pmul)
    monkeypatch.setattr(polyclass, "pdivmod", reference_pdivmod)
    assert all(not inst.exact for inst in instances)
    assert got == [classify(inst) for inst in instances]
    assert [v.oracle_residual for v, _ in got] == [reference_residual(i) for i in instances]


def test_verify_czero():
    inst = ConstraintInstance("a12", ("1", "2", "3"), (), ("1", "1"), (), Lambda="4")
    assert verify_constraint(inst) == 0.0


def test_verify_sqrt2_float_path():
    a = (1.0, 0.5, 2.0)
    d1 = tuple(math.sqrt(2) * x for x in a)
    inst = ConstraintInstance("a12", a, (1.0, 1.0), d1, (0.0,), Lambda=2.0)
    assert verify_constraint(inst) < 1e-12
    assert not inst.exact
    v = classify_a12(inst)
    assert v.branch == "DEqualsSqrtLambdaA" and v.signs == (1,)


def test_verify_random_nonzero():
    rng = np.random.default_rng(0)
    inst = ConstraintInstance(
        "a12",
        tuple(Fraction(int(x), 3) for x in rng.integers(1, 9, 3)),
        ("1", "1/2"),
        ("1", "0", "2"),
        ("1", "1", "1"),
        Lambda="3",
    )
    assert verify_constraint(inst) > 0


@pytest.mark.parametrize(
    "branch,signs",
    [
        ("CZero", [()]),
        ("DEqualsSqrtLambdaA", [(1,), (-1,)]),
        ("CaseIII", [(1,), (-1,)]),
        ("CaseIV", [(1,), (-1,)]),
        ("Infeasible", [()]),
    ],
)
def test_planted_a12(branch, signs):
    rng = np.random.default_rng(17)
    for sg in signs:
        for _ in range(60):
            inst, expect = plant_a12(rng, branch, *sg)
            assert inst.exact
            v = classify_a12(inst)
            assert v.branch == expect.branch, (branch, v.certificate)
            if branch != "Infeasible":
                assert v.signs == expect.signs
                assert v.oracle_residual == 0.0
            else:
                assert v.oracle_residual > 0


@pytest.mark.parametrize(
    "branch,signs",
    [
        ("CZero", [(1, 1)]),
        ("A3BranchII", [(1, 1), (1, -1), (-1, 1), (-1, -1)]),
        ("Infeasible", [(1, 1)]),
    ],
)
def test_planted_a3(branch, signs):
    rng = np.random.default_rng(23)
    for sg in signs:
        for _ in range(60):
            inst, expect = plant_a3(rng, branch, sg)
            v = classify_a3(inst)
            assert v.branch == expect.branch, (branch, v.certificate)
            if branch == "A3BranchII":
                assert v.signs == expect.signs
                assert v.oracle_residual == 0.0


def test_infeasible_certificates():
    rng = np.random.default_rng(5)
    inst, _ = plant_a12(rng, "Infeasible")
    v = classify_a12(inst)
    assert "sign clash" in v.certificate
    inst, _ = plant_a3(rng, "Infeasible")
    v = classify_a3(inst)
    assert "(r-1)(r^2+4)" in v.certificate


def test_scaling_stability():
    """Common positive rescale (a, c, d1 by s; P by s^2) keeps the verdict."""
    rng = np.random.default_rng(31)
    s = Fraction(7, 3)
    for branch in ("DEqualsSqrtLambdaA", "CaseIII", "CaseIV"):
        inst, expect = plant_a12(rng, branch, -1)
        scaled = ConstraintInstance(
            "a12",
            pscale(inst.a, s),
            pscale(inst.c, s),
            pscale(inst.d1, s),
            pscale(inst.P, s * s),
            Lambda=inst.Lambda,
        )
        v = classify_a12(scaled)
        assert (v.branch, v.signs) == (expect.branch, expect.signs)
    inst, expect = plant_a3(rng, "A3BranchII", (-1, 1))
    scaled = ConstraintInstance(
        "a3",
        pscale(inst.a, s),
        pscale(inst.c, s),
        pscale(inst.d1, s),
        pscale(inst.P, s * s),
        lambda2=inst.lambda2,
        lambda3=inst.lambda3,
    )
    v = classify_a3(scaled)
    assert (v.branch, v.signs) == (expect.branch, expect.signs)


def test_tilde_involution_and_reversal():
    rng = np.random.default_rng(2)
    inst, _ = plant_a3(rng, "A3BranchII", (1, -1))
    t2 = tilde_transform(tilde_transform(inst))
    assert t2.a == inst.a and t2.c == inst.c and t2.d1 == inst.d1 and t2.P == inst.P
    cube = ConstraintInstance(
        "a3", inst.a, inst.c, ("0", "0", "0", "1"), (), lambda2=inst.lambda2, lambda3=inst.lambda3
    )
    assert tilde_transform(cube).d1 == (Fraction(1),)


def _tilde_by_reversed_lists(inst):
    """The tilde transform as the instance built from the reversed
    coefficient lists and the swapped eigenvalues."""
    rev = polyclass._reverse
    return ConstraintInstance("a3", rev(inst.a, 2), rev(inst.c, 2), rev(inst.d1, 3), rev(inst.P, 6),
                              lambda2=inst.lambda3, lambda3=inst.lambda2)


def test_tilde_of_the_form_is_the_instance_of_the_reversed_lists():
    """``tilde_transform`` reverses the integer form.  On every planted a3
    branch of seeds 0-29, in both eigenvalue orders, exact and as a float
    copy, its form and its instance file are those of the instance built
    from the reversed coefficient lists, to the bit and the number type."""
    count = 0
    for inst in (inst for seed in range(30) for inst in _every_branch(seed) if inst.regime == "a3"):
        got, want = tilde_transform(inst), _tilde_by_reversed_lists(inst)
        assert (got.regime, got.exact) == (want.regime, want.exact)
        assert repr(got.form) == repr(want.form)
        assert json.dumps(instance_to_dict(got)) == json.dumps(instance_to_dict(want))
        count += 1
    assert count == 30 * 24


@pytest.mark.parametrize("exact", [True, False])
def test_tilde_of_an_a_without_constant_term_is_refused(exact):
    """An a with a zero constant term reverses to degree 1: the transform
    refuses it as the constructor refuses such an a."""
    one = "1" if exact else 1.0
    inst = ConstraintInstance("a3", (0, one, one), (), (), (), lambda2="-2", lambda3="-1")
    assert inst.exact == exact
    with pytest.raises(PolyclassError, match="deg a must be 2, got 1"):
        tilde_transform(inst)
    with pytest.raises(PolyclassError, match="deg a must be 2, got 1"):
        _tilde_by_reversed_lists(inst)


def test_tilde_swaps_classification():
    rng = np.random.default_rng(3)
    inst, expect = plant_a3(rng, "A3BranchII", (1, 1))
    swapped = tilde_transform(inst)
    assert float(swapped.lambda2) > float(swapped.lambda3)
    with pytest.raises(OrderingError):
        classify_a3(swapped)
    v, tilded = classify(swapped)
    assert tilded and v.branch == "A3BranchII"


def _every_branch(seed):
    """Planted instances of every a12 branch with both signs and every a3
    branch in both eigenvalue orders (A3BranchII with all four sign pairs),
    then the float copy of each."""
    rng = np.random.default_rng(seed)
    out = [plant_a12(rng, branch, sign)[0]
           for branch in ("CZero", "DEqualsSqrtLambdaA", "CaseIII", "CaseIV", "Infeasible") for sign in (1, -1)]
    for branch, sign_pairs in (("CZero", [(1, 1)]), ("A3BranchII", [(1, 1), (1, -1), (-1, 1), (-1, -1)]),
                               ("Infeasible", [(1, 1)])):
        for signs in sign_pairs:
            inst = plant_a3(rng, branch, signs)[0]
            out += [inst, tilde_transform(inst)]
    return out + [_float_copy(inst) for inst in out]


def _instance_file(path, inst):
    """Write inst as the benchmark writes instance files: ``instance_to_dict``
    dumped with sorted keys."""
    path.write_text(json.dumps(instance_to_dict(inst), sort_keys=True), encoding="utf-8")
    return path


def _fields(inst):
    names = ("a", "c", "d1", "P", "Lambda", "lambda2", "lambda3")
    return [(name, getattr(inst, name)) for name in names]


def test_json_roundtrip(tmp_path):
    """instance_to_dict -> file -> instance_from_file keeps ``exact``, every
    coefficient and scalar with its type, the integer form and the verdict,
    for every branch, both a3 eigenvalue orders and the float copies."""
    for k, inst in enumerate(inst for seed in range(4) for inst in _every_branch(seed)):
        back = polyclass.instance_from_file(_instance_file(tmp_path / f"inst_{k}.json", inst))
        assert back.exact == inst.exact
        for (name, got), (_, want) in zip(_fields(back), _fields(inst)):
            assert got == want and type(got) is type(want), name
            if isinstance(want, tuple):
                assert [type(x) for x in got] == [type(x) for x in want], name
        assert back.form == inst.form
        assert classify(back) == classify(inst)


# canonical texts, read by int() alone
_FAST_TEXTS = ("0", "-0", "007", "6/8", "1/08", "-12/18", str(2**1023 - 1))
# refused by Fraction(text) or by the float range
_REFUSED_TEXTS = ("1/0", "3/-4", "--1", "-", "²", "", "1/", "/2", "0/0", "1e400", "1" + "0" * 400)
# accepted by Fraction(text) alone
_FALLBACK_TEXTS = ("٣", "1_0", " 3/4 ", "+3", "0.5", "1e-400", "-1E2", str(2**1023))


def _by_fraction(text):
    """What ``Fraction(text)`` makes of a coefficient text: the Fraction, or
    the PolyclassError the instance reader raises for it."""
    try:
        x = Fraction(text)
        float(x)  # OverflowError past the float range
        return x
    except (ValueError, ZeroDivisionError, OverflowError):
        return PolyclassError(f"coefficient {text!r} is not a finite number within the float range")


def _assert_read_as_fraction(text):
    """An instance with the coefficient text as c and as Lambda reads it as
    Fraction(text) does: the same refusal and message, or the same value,
    exact, with the integer form of its lowest terms."""
    want = _by_fraction(text)
    for where in ({"c": (text,), "Lambda": "1"}, {"c": ("1",), "Lambda": text}):
        args = {"regime": "a12", "a": ("1", "0", "1"), "d1": (), "P": (), **where}
        if isinstance(want, PolyclassError):
            with pytest.raises(PolyclassError) as err:
                ConstraintInstance(**args)
            assert str(err.value) == str(want)
            continue
        if where["Lambda"] == text and want <= 0:
            with pytest.raises(PolyclassError, match="Lambda must be positive"):
                ConstraintInstance(**args)
            continue
        inst = ConstraintInstance(**args)
        assert inst.exact
        got = inst.c[0] if where["c"] == (text,) else inst.Lambda
        assert got == want and type(got) is Fraction
        pair = inst.form.c if where["c"] == (text,) else inst.form.lam
        assert pair == ((want.numerator,), want.denominator)


@pytest.mark.parametrize("text", _FAST_TEXTS + _REFUSED_TEXTS + _FALLBACK_TEXTS)
def test_rational_text_reads_as_fraction_does(text):
    """The table: canonical texts take the int() reader, every other text
    (refused or not) takes Fraction(text), and either way the instance holds
    what Fraction(text) gives."""
    assert (polyclass._read_rational(text) is not None) == (text in _FAST_TEXTS)
    _assert_read_as_fraction(text)


_digits = st.text(alphabet="0123456789", min_size=1, max_size=25)
_rational_text = st.one_of(
    st.builds(lambda s, n, d: s + n + ("/" + d if d else ""), st.sampled_from(["", "-"]), _digits,
              st.one_of(st.just(""), _digits)),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-(2**1100), 2**1100), st.integers(0, 2**80)),
    # exponents stay small: Fraction("1e99999999") computes 10**99999999
    st.builds(lambda m, e: f"{m}e{e}", st.integers(-99, 99), st.integers(-500, 500)),
    st.text(alphabet="0123456789-+/_ .٣²", max_size=10),
    # an e or E in any position; short enough that Fraction's 10^exponent stays small
    st.text(alphabet="0123456789-+/_ .eE٣", max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(_rational_text)
def test_any_text_reads_as_fraction_does(text):
    _assert_read_as_fraction(text)


# the least magnitude that float() rounds up to 2^1024: halfway between the
# largest float, 2^1024 - 2^971, and 2^1024 (round half to even)
_FLOAT_EDGE = 2**1024 - 2**970


@pytest.mark.parametrize(
    "text,accepted",
    [
        (str(_FLOAT_EDGE), False),
        (f"{3 * _FLOAT_EDGE + 1}/3", False),
        (str(-_FLOAT_EDGE), False),
        (str(_FLOAT_EDGE - 1), True),
        (f"{3 * _FLOAT_EDGE - 1}/3", True),
        (f"-{3 * _FLOAT_EDGE - 1}/3", True),
        (str(2**1023), True),
        ("1" + "0" * 400, False),
        ("1e400", False),
    ],
)
def test_float_range_edge_is_exact(text, accepted):
    """A text is accepted exactly when float(Fraction(text)) is finite, on
    either side of the rounding edge and on either route."""
    try:
        float(Fraction(text))
        finite = True
    except OverflowError:
        finite = False
    assert finite == accepted
    _assert_read_as_fraction(text)


@pytest.mark.parametrize(
    "text",
    ["1e999999", "1e9999999", "-2.5E+99999", " 7e1_000_000 ", "0.0001e400", "1/2e99999", "1e" + "9" * 5000,
     "1e-999999", "1e-9999999", "-2.5E-99999", " 7e-1_000_000 ", "0.0001e-400000", f"1e-{4301 + 7}"],
    ids=lambda text: text if len(text) < 20 else f"1e<{len(text) - 2} nines>",
)
def test_huge_exponent_is_refused_without_fraction(text, monkeypatch):
    """A text with a nonzero digit before its decimal exponent is refused
    when the exponent exceeds 309 plus the text's length, as past the float
    range, or lies below -(_MAX_DIGITS + length), which gives a denominator
    of more than _MAX_DIGITS digits, by a message that names the exponent;
    Fraction, which would first compute 10 to that exponent, is never called
    for it.  A zero mantissa is read as 0 without Fraction(text) too."""
    calls = []

    class Guarded(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            calls.append(numerator)
            return Fraction(numerator, denominator)

    monkeypatch.setattr(polyclass, "Fraction", Guarded)
    message = f"coefficient {text!r} is not a finite number within the float range"
    if "e-" in text.lower():
        e = int(text[text.lower().rfind("e") + 1 :])
        message = f"coefficient {text!r}: exponent {e} gives a denominator of over 4300 digits"
    for where in ({"c": (text,), "Lambda": "1"}, {"c": ("1",), "Lambda": text}):
        with pytest.raises(PolyclassError) as err:
            ConstraintInstance(regime="a12", a=("1", "0", "1"), d1=(), P=(), **where)
        assert str(err.value) == message
    assert text not in calls
    inst = ConstraintInstance(regime="a12", a=("1", "0", "1"), c=("0e99999",), d1=(), P=(), Lambda="1")
    assert inst.c == (Fraction(0),) and "0e99999" not in calls


def _no_fraction_of(text, monkeypatch):
    """Make ``polyclass.Fraction`` fail when it is called on ``text``."""

    class Guarded(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            assert numerator != text, f"Fraction({text!r}) was called"
            return Fraction(numerator, denominator)

    monkeypatch.setattr(polyclass, "Fraction", Guarded)


@pytest.mark.parametrize(
    "text", ["0e999999", "0e9999999", "-0.000E+99999999", " 0e-9999999 ", "0_0.0e1_000_000", ".0e99999999"]
)
def test_zero_mantissa_reads_as_zero_without_fraction(text, monkeypatch):
    """A text in Fraction's syntax with no nonzero digit before its exponent
    is 0 at any exponent: it reads as (0, 1), and Fraction(text), which would
    first compute 10 to that exponent, is never called for it."""
    _no_fraction_of(text, monkeypatch)
    assert polyclass._coerce(text) == (0, 1)
    inst = ConstraintInstance(regime="a12", a=("1", "0", "1"), c=(text,), d1=(), P=(), Lambda="1")
    assert inst.exact and inst.c == (Fraction(0),) and inst.form.c == ((0,), 1)


@pytest.mark.parametrize(
    "text", ["0e 99999999", "0 e99999999", "0/1e99999999", "e99999999", "0e99999999_", "0e9__9", "0.0.0e9999999"]
)
def test_zero_mantissa_outside_fraction_syntax_is_refused(text, monkeypatch):
    """A zero mantissa outside Fraction's syntax is refused as Fraction
    refuses it, with the reader's message, and without Fraction(text)."""
    with pytest.raises(ValueError):
        Fraction(text)  # a syntax error, raised before any power of ten
    _no_fraction_of(text, monkeypatch)
    with pytest.raises(PolyclassError) as err:
        ConstraintInstance(regime="a12", a=("1", "0", "1"), c=(text,), d1=(), P=(), Lambda="1")
    assert str(err.value) == f"coefficient {text!r} is not a finite number within the float range"


def test_negative_exponent_at_the_bound_is_read_exactly():
    """At the bound, a denominator of _MAX_DIGITS digits, a text is read
    exactly below the float range; one digit more is refused by name."""
    text = f"1e-{polyclass._MAX_DIGITS - 1}"
    inst = ConstraintInstance(regime="a12", a=("1", "0", "1"), c=(text,), d1=(), P=(), Lambda="1")
    assert inst.exact and inst.c == (Fraction(1, 10 ** (polyclass._MAX_DIGITS - 1)),)
    text = f"1e-{polyclass._MAX_DIGITS}"
    with pytest.raises(PolyclassError, match=f"coefficient '{text}': its denominator in lowest terms has over 4300"):
        ConstraintInstance(regime="a12", a=("1", "0", "1"), c=(text,), d1=(), P=(), Lambda="1")


@pytest.mark.parametrize(
    "value,part",
    [
        ("1e-4306", "denominator"),  # inside _read_exponent's slack of the text's length
        ("2.5e-4305", "denominator"),
        (Fraction(10**4300 + 1, 3 * 10**4299), "numerator"),
    ],
    ids=["1e-4306", "2.5e-4305", "numerator"],
)
def test_coefficient_past_the_digit_bound_is_refused(value, part):
    """An exact coefficient whose numerator or denominator in lowest terms
    has more than 4300 digits, which ``str()`` could not write back, is
    refused on construction by a message that names it."""
    shown = repr(value) if isinstance(value, str) else "of type Fraction"
    with pytest.raises(PolyclassError) as err:
        ConstraintInstance(regime="a12", a=("1", "0", "1"), c=(value,), d1=(), P=(), Lambda="1")
    assert str(err.value) == f"coefficient {shown}: its {part} in lowest terms has over 4300 digits"


@pytest.mark.parametrize(
    "text,part",
    [
        ("1" * 4301 + "/" + "3" * 4301, "numerator"),  # 1/3 in lowest terms
        ("-" + "0" * 4300 + "7", "numerator"),
        ("1/" + "3" * 4301, "denominator"),
    ],
    ids=["one-third", "leading-zeros", "denominator"],
)
def test_rational_text_past_the_digit_limit_names_the_limit(text, part):
    """A canonical rational text whose numerator or denominator is written
    with more than 4300 digits, which ``int()`` does not read, is refused by
    a message that names the digit limit, whatever its value in lowest terms."""
    with pytest.raises(PolyclassError) as err:
        ConstraintInstance(regime="a12", a=("1", "0", "1"), c=(text,), d1=(), P=(), Lambda="1")
    assert str(err.value) == f"coefficient text of {len(text)} characters: its {part} has over 4300 digits"


def test_coefficients_at_the_digit_bound_round_trip():
    """Coefficients with 4300-digit numerators and denominators go through
    ``instance_to_dict`` and ``instance_from_dict`` unchanged."""
    big = "9" * 4300 + "/1" + "0" * 4299  # 4300 digits over 4300 digits, in lowest terms
    inst = ConstraintInstance(regime="a12", a=("1", "0", "1"), c=("1e-4299", big), d1=(), P=(), Lambda=big)
    assert inst.c == (Fraction(1, 10**4299), Fraction(10**4300 - 1, 10**4299))
    back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
    assert back.exact and back.form == inst.form
    assert (back.c, back.Lambda) == (inst.c, inst.Lambda)


def test_canonical_instance_files_build_no_fraction(tmp_path, monkeypatch):
    """Loading canonical instance files (five benchmark rounds) constructs
    no Fraction from a text, and classifying them constructs Fractions only
    for the witnesses.  With the int() reader switched off, the same files
    take one Fraction(text) per coefficient and scalar."""
    planted = (inst for seed in range(5) for inst in _planted(seed))
    paths = [_instance_file(tmp_path / f"inst_{k}.json", inst) for k, inst in enumerate(planted)]
    texts, built = [], []

    class Counted(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            (texts if isinstance(numerator, str) else built).append(numerator)
            return Fraction(numerator, denominator)

    monkeypatch.setattr(polyclass, "Fraction", Counted)
    insts = [polyclass.instance_from_file(path) for path in paths]
    assert texts == [] and built == [] and all(inst.exact for inst in insts)
    for inst in insts:
        verdict, _ = classify(inst)
        witnesses = [x for value in verdict.witness.values()
                     for x in (value if isinstance(value, tuple) else (value,)) if isinstance(x, Fraction)]
        assert len(built) == len(witnesses) and texts == []
        built.clear()

    monkeypatch.setattr(polyclass, "_read_rational", lambda text: None)
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        polyclass.instance_from_file(path)
        assert len(texts) == sum(len(v) if isinstance(v, list) else 1 for k, v in data.items() if k != "regime")
        assert 7 <= len(texts) <= 19
        texts.clear()


def test_degree_validation():
    with pytest.raises(PolyclassError):
        ConstraintInstance("a12", ("1", "1"), (), (), (), Lambda="1")  # deg a != 2
    with pytest.raises(PolyclassError):
        ConstraintInstance(
            "a12", ("1", "0", "1"), (), ("0", "0", "0", "1"), (), Lambda="1"
        )  # deg d1 > 2
    with pytest.raises(PolyclassError):
        ConstraintInstance(
            "a3", ("1", "0", "1"), (), (), ("0",) * 7 + ("1",), lambda2="-2", lambda3="-1"
        )  # deg P > 6


small_fraction = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)
# exact coefficients with large numerators and denominators: the common
# denominators of the integer kernel grow with them
exact_fraction = st.one_of(
    small_fraction,
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**9),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(exact_fraction, min_size=3, max_size=3),
    st.lists(exact_fraction, min_size=2, max_size=3),
    st.lists(exact_fraction, min_size=1, max_size=3),
    st.lists(exact_fraction, min_size=1, max_size=6),
)
def test_classifier_never_unsound(a, c, d1, P):
    """Fuzz: any instance either gets Infeasible or passes the oracle exactly."""
    a = list(a)
    if a[2] == 0:
        a[2] = Fraction(1)
    inst = ConstraintInstance("a12", a, c, d1, P, Lambda=Fraction(9, 4))
    v = classify_a12(inst)
    assert v.oracle_residual == verify_constraint(inst) == reference_residual(inst)
    if v.branch != "Infeasible":
        assert verify_constraint(inst) == 0


def test_equal_eigenvalues_rejected_when_built():
    with pytest.raises(PolyclassError, match="lambda2 and lambda3 must differ"):
        ConstraintInstance("a3", ("1", "0", "1"), (), (), (), lambda2="-2", lambda3="-2")
    with pytest.raises(PolyclassError, match="lambda2 and lambda3 must differ"):
        ConstraintInstance("a3", (1.0, 0.0, 1.0), (), (), (), lambda2=-0.5, lambda3="-1/2")


@pytest.mark.parametrize(
    "field,value",
    [("Lambda", "1/0"), ("Lambda", "x"), ("Lambda", "1e400"), ("Lambda", float("nan")),
     ("a", ["1", "0", float("inf")]), ("a", ["1", "0", 10**400]), ("c", "1"), ("P", [[1]])],
)
def test_malformed_coefficients_raise_polyclass_error(field, value):
    data = {"regime": "a12", "Lambda": "1", "a": ["1", "0", "1"], "c": [], "d1": [], "P": []}
    with pytest.raises(PolyclassError):
        instance_from_dict({**data, field: value})


def test_signs_of_lambdas_below_the_float_range_are_exact():
    """Lambda, lambda2 and lambda3 are compared with 0 and with each other as
    exact values: 1e-400 is positive although float() gives 0.0.  A branch
    that needs sqrt(Lambda) as a float refuses an underflowing Lambda by name."""
    tiny = ConstraintInstance("a12", ("1", "0", "1"), (), ("1",), (), Lambda="1e-400")
    assert tiny.exact and tiny.Lambda > 0 and float(tiny.Lambda) == 0.0
    assert classify(tiny)[0].branch == "CZero"
    with pytest.raises(PolyclassError, match="Lambda must be positive"):
        ConstraintInstance("a12", ("1", "0", "1"), (), (), (), Lambda="-1e-400")
    with pytest.raises(PolyclassError, match="eigenvalues must be negative"):
        ConstraintInstance("a3", ("1", "0", "1"), (), (), (), lambda2="-1", lambda3="1e-400")
    # lambda2 < lambda3 < 0 below the float range: a3 without the tilde transform,
    # with a = -(lambda3 t^2 + lambda2)/2 = 2e-400 + 1e-400 t^2
    a3 = ConstraintInstance("a3", ("2e-400", "0", "1e-400"), (), (), (), lambda2="-4e-400", lambda3="-2e-400")
    verdict, swapped = classify(a3)
    assert (verdict.branch, swapped) == ("CZero", False)
    assert classify(tilde_transform(a3))[1]
    # 1e-400 + 2e-400 t^2 is not a multiple of that a, although it is as floats
    skew = ConstraintInstance("a3", ("1e-400", "0", "2e-400"), (), (), (), lambda2="-4e-400", lambda3="-2e-400")
    verdict, swapped = classify(skew)
    assert (verdict.branch, verdict.certificate, swapped) == (
        "Infeasible", "a is not a positive multiple of -(lambda3 t^2 + lambda2)/2", False)
    # d1 = sqrt(Lambda) a exactly, with Lambda = 1e-800: the sign needs sqrt(Lambda)
    sqrt_branch = ConstraintInstance("a12", ("1", "0", "1"), ("1",), ("1e-400", "0", "1e-400"), (), Lambda="1e-800")
    with pytest.raises(PolyclassError, match="underflows to 0.0 as a float"):
        classify(sqrt_branch)


@pytest.mark.parametrize(
    "P,branch,certificate",
    [
        # read as CZero, and as "c = 0 forces P = 0", when c went through float()
        (("1e-400",), "Infeasible", "(t^2+1) does not divide P / c"),
        (("1",), "Infeasible", "(t^2+1) does not divide P / c"),
        ((), "DEqualsSqrtLambdaA", ""),
    ],
)
def test_exact_coefficient_below_the_float_range_is_not_zero(P, branch, certificate):
    """On an exact instance, c = 1e-400 is decided nonzero by exact comparison,
    although it is 0.0 as a float."""
    inst = ConstraintInstance("a12", ("1", "0", "1"), ("1e-400",), ("1", "0", "1"), P, Lambda="1")
    assert inst.exact and inst.tol() == 0
    verdict, tilded = classify(inst)
    assert (verdict.branch, verdict.certificate, tilded) == (branch, certificate, False)
