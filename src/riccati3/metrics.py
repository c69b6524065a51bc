"""Metric zoo and metric-specification files.

A metric is six scalar expressions for the independent components g11, g12,
g13, g22, g23, g33 in the coordinates x1, x2, x3, plus a parameter map.
Builtins cover the standard constant-curvature and homogeneous test cases;
custom metrics come from a JSON spec file.
"""

from __future__ import annotations

import json
import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

# eval_jet and eval_dual are not called here; they stay importable from this
# module, where the benchmark's tracer (perfbench/spans.py) looks them up
from .exprjet import Expr, Tape, as_point, eval_dual, eval_jet, parse_expr

COMPONENT_NAMES = ("g11", "g12", "g13", "g22", "g23", "g33")
# the keys a metric file may hold
FILE_KEYS = ("builtin", "params", "components", "name", "box")
_SYM_INDEX = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}
# component index of every entry of the full 3x3 matrix
_FULL_INDEX = np.array([[_SYM_INDEX[min(i, j), max(i, j)] for j in range(3)] for i in range(3)])

BUILTIN_NAMES = ("flat", "hyperbolic", "sphere", "heisenberg", "sol", "h2xr")


class MetricError(ValueError):
    pass


class MetricSpec:
    """A metric: six component expressions, in the order g11, g12, g13, g22,
    g23, g33, with their parameter map and a default coordinate sampling box
    of three (lo, hi) pairs.  Specs compare and hash by identity."""

    def __init__(self, name: str, components: tuple, params: dict | None = None, box: tuple = ((-1.0, 1.0),) * 3):
        self.name = name
        self.components = components
        self.params = {} if params is None else params
        self.box = box

    def component(self, i, j) -> Expr:
        return self.components[_SYM_INDEX[(min(i, j), max(i, j))]]

    @cached_property
    def tape(self) -> Tape:
        """The six components compiled into one ``Tape`` with the spec's
        parameters, on first use."""
        return Tape(self.components, self.params)


class MetricJet(NamedTuple):
    """The metric's Taylor coefficients, of the order k asked of
    ``metric_jets``, at one point or at each point of a batch.

    ``coef`` has the layout of a jet's coefficient array with the 3x3 matrix axes
    trailing: shape (N(k), 3, 3) at one point (``point`` a float tuple) and
    (N(k), n, 3, 3) at a batch of n points (``point`` the (n, 3) array).
    """

    point: tuple | np.ndarray
    coef: np.ndarray
    spec: MetricSpec

    @property
    def g(self) -> np.ndarray:
        """The metric values, (3, 3) or (n, 3, 3)."""
        return self.coef[0]


def _spec_from_strings(name, comps, params=None, box=None):
    params = dict(params or {})
    exprs = tuple(parse_expr(src, params=params.keys()) for src in comps)
    kwargs = {"box": tuple(box)} if box else {}
    return MetricSpec(name, exprs, params, **kwargs)


_BUILTIN_DEFS = {
    # name -> (components, default params, sample box)
    "flat": (("1", "0", "0", "1", "0", "1"), {}, None),
    "hyperbolic": (
        ("1/(c^2*x3^2)", "0", "0", "1/(c^2*x3^2)", "0", "1/(c^2*x3^2)"),
        {"c": 1.0},
        ((-1.0, 1.0), (-1.0, 1.0), (0.5, 2.0)),
    ),
    "sphere": (
        ("4/(c^2*(1+x1^2+x2^2+x3^2)^2)",) + ("0",) * 2
        + ("4/(c^2*(1+x1^2+x2^2+x3^2)^2)", "0", "4/(c^2*(1+x1^2+x2^2+x3^2)^2)"),
        {"c": 1.0},
        ((-0.6, 0.6),) * 3,
    ),
    "heisenberg": (
        ("1", "0", "0", "1 + L^2*x1^2", "-L*x1", "1"),
        {"L": 1.0},
        None,
    ),
    "sol": (
        ("exp(2*x3)", "0", "0", "exp(-2*x3)", "0", "1"),
        {},
        ((-1.0, 1.0), (-1.0, 1.0), (-0.8, 0.8)),
    ),
    "h2xr": (
        ("1/x2^2", "0", "0", "1/x2^2", "0", "1"),
        {},
        ((-1.0, 1.0), (0.5, 2.0), (-1.0, 1.0)),
    ),
}


def builtin(name: str, **params) -> MetricSpec:
    """Construct a zoo metric, overriding default parameters by keyword."""
    if name not in _BUILTIN_DEFS:
        raise MetricError(f"unknown builtin metric '{name}' (have {BUILTIN_NAMES})")
    comps, defaults, box = _BUILTIN_DEFS[name]
    merged = dict(defaults)
    for k, v in params.items():
        if k not in defaults:
            raise MetricError(f"metric '{name}' takes no parameter '{k}'")
        merged[k] = _parameter(k, v)
    return _spec_from_strings(name, comps, merged, box)


def custom(components: dict, params=None, name="custom", box=None) -> MetricSpec:
    """Build a metric from component-name -> expression-source strings."""
    missing = [c for c in COMPONENT_NAMES if c not in components]
    if missing:
        raise MetricError(f"missing metric components: {missing}")
    comps = tuple(components[c] for c in COMPONENT_NAMES)
    return _spec_from_strings(name, comps, params, box)


def from_dict(data: dict) -> MetricSpec:
    """Metric spec from a parsed JSON object (builtin or custom form).  A file
    of another shape raises a MetricError naming the key: 'builtin' not a
    string, 'params' not an object of finite numbers, 'components' not an object of
    strings, or 'box' not three [lo, hi] pairs of finite numbers, lo <= hi.
    A key other than those, 'builtin' and 'name', a component other than
    g11 ... g33, or 'components', 'name' or 'box' beside 'builtin', is refused
    by name rather than ignored."""
    if not isinstance(data, dict):
        raise MetricError(f"metric file must hold a JSON object, got {type(data).__name__}")
    for key in data:
        if key not in FILE_KEYS:
            raise MetricError(f"metric file: unknown key {key!r} (have {', '.join(FILE_KEYS)})")
    if data.get("builtin") == "custom":
        data = {k: v for k, v in data.items() if k != "builtin"}
    for key in ("components", "name", "box"):
        if "builtin" in data and key in data:
            raise MetricError(
                f"metric file: key {key!r} does not go with 'builtin' (a builtin metric takes only 'params')"
            )
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise MetricError(f"'params' must be a JSON object, got {type(params).__name__}")
    params = {k: _parameter(k, v) for k, v in params.items()}
    if "builtin" in data:
        if not isinstance(data["builtin"], str):
            raise MetricError(f"'builtin' must be a string, got {data['builtin']!r}")
        return builtin(data["builtin"], **params)
    if "components" in data:
        comps = data["components"]
        if not isinstance(comps, dict):
            raise MetricError(f"'components' must be a JSON object, got {type(comps).__name__}")
        for name in comps:
            if name not in COMPONENT_NAMES:
                raise MetricError(f"metric file: unknown component {name!r} (have {', '.join(COMPONENT_NAMES)})")
            if not isinstance(comps[name], str):
                raise MetricError(f"component '{name}' must be a string, got {comps[name]!r}")
        box = None if data.get("box") is None else _box(data["box"])
        return custom(comps, params=params, name=data.get("name", "custom"), box=box)
    raise MetricError("metric file must contain 'builtin' or 'components'")


def _number(value, what):
    """float(value), or a MetricError naming ``what``; a boolean is refused."""
    if isinstance(value, bool):
        raise MetricError(f"{what} must be a number, got boolean {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise MetricError(f"{what} must be a number, got {value!r}") from None


def _parameter(key, value):
    """The parameter ``key`` as a float, or a MetricError naming it if value
    is not a number or is inf or nan."""
    value = _number(value, f"parameter '{key}'")
    if not math.isfinite(value):
        raise MetricError(f"parameter '{key}' must be a finite number, got {value!r}")
    return value


def _box(box):
    """A metric file's 'box' as three (lo, hi) float pairs."""
    if not isinstance(box, list) or len(box) != 3 or not all(isinstance(b, list) and len(b) == 2 for b in box):
        raise MetricError(f"'box' must be three [lo, hi] pairs, got {box!r}")
    pairs = tuple((_number(lo, "'box' bound"), _number(hi, "'box' bound")) for lo, hi in box)
    for lo, hi in pairs:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise MetricError(f"'box' pair {[lo, hi]} needs finite bounds with lo <= hi")
    return pairs


def from_file(path) -> MetricSpec:
    """The metric of a JSON file, read on every call and compiled once per
    text (``_compiled``); malformed JSON raises a JSONDecodeError whose
    message starts with the path."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return _compiled(text, None)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None


@lru_cache(maxsize=64)
def _compiled(source, params):
    """The spec of a metric file's text (params None), or of the builtin named
    ``source`` with params as (key, ``float.hex``) pairs: kept per process, so
    a source is parsed and its tape compiled once.  A source that raises is
    not kept.  Callers share the spec and must not change it."""
    if params is None:
        return from_dict(json.loads(source))
    return builtin(source, **{k: float.fromhex(h) for k, h in params})


def resolve(name_or_path, params=None) -> MetricSpec:
    """CLI helper: builtin name, or '@file.json' / '*.json' path.  A builtin
    is keyed by the exact bits of its float parameters, so L=0.0 and L=-0.0
    keep their own spec; a file is keyed by its text."""
    if isinstance(name_or_path, MetricSpec):
        return name_or_path
    text = str(name_or_path)
    if text.startswith("@"):
        return from_file(text[1:])
    if text.endswith(".json"):
        return from_file(text)
    return _compiled(text, tuple((k, v.hex()) for k, v in (params or {}).items()))


def metric_jets(spec: MetricSpec, p, order: int = 4) -> MetricJet:
    """The metric's order-``order`` Taylor coefficients (``MetricJet``) at the
    point p, or at each row of an (n, 3) array p; the first point where g fails
    ``leading_minors``' rule raises ``_metric_fault``'s MetricError."""
    point = as_point(p)
    comps = spec.tape.run(point, order)  # (N(k),) or (N(k), n) each
    _, usable = leading_minors(*(c[0] for c in comps))
    if not usable.all():
        k = int(np.argmin(np.ravel(usable)))
        at = point if isinstance(point, tuple) else tuple(map(float, point[k]))
        raise _metric_fault(spec, at, [float(np.ravel(c[0])[k]) for c in comps])
    return MetricJet(point, full_matrices(np.array(comps)), spec)


def leading_minors(g11, g12, g13, g22, g23, g33):
    """((g11, m2, m3 = det g), usable): the leading principal minors of the
    symmetric g with these entries, floats or arrays alike, and the one rule
    for a usable g: g11 > 0, m2 > 0, m3 finite and above 1e-14 max(g_ii)^3,
    a floor on g's own scale that every homothety keeps (a nan fails)."""
    m2 = g11 * g22 - g12 * g12
    m3 = m2 * g33 - g11 * g23 * g23 - g22 * g13 * g13 + 2.0 * g12 * g13 * g23
    usable = (g11 > 0) & (m2 > 0) & (m3 < math.inf) & (m3 > 1e-14 * g11 * g11 * g11)
    usable = usable & (m3 > 1e-14 * g22 * g22 * g22) & (m3 > 1e-14 * g33 * g33 * g33)
    return (g11, m2, m3), usable


def full_matrices(entries):
    """The symmetric matrices, batch + (3, 3), of their six entries in the
    order of ``COMPONENT_NAMES``, an array of shape (6,) + batch: one copy,
    a (3, 3) + batch C-order array seen with its entry axes last, which is
    the layout of ``np.stack(entries, -1)[..., _FULL_INDEX]``."""
    full = entries.take(_FULL_INDEX, axis=0)
    return full.transpose(*range(2, full.ndim), 0, 1)


def cofactors(g11, g12, g13, g22, g23, g33):
    """The cofactors of the symmetric g with these entries, in the same order:
    over det g (``leading_minors``) the entries of g^-1, exactly symmetric."""
    return (
        g22 * g33 - g23 * g23,
        g13 * g23 - g12 * g33,
        g12 * g23 - g13 * g22,
        g11 * g33 - g13 * g13,
        g12 * g13 - g11 * g23,
        g11 * g22 - g12 * g12,
    )


def _metric_fault(spec, at, values):
    """The MetricError of the point ``at``, whose component values ``values``
    (floats) fail ``leading_minors``' rule: it says that a point that is not
    finite is not, or names the first value that is inf or nan, or else the
    minors.  Every command refuses a point that is not finite, so such a
    point is a geodesic stage point whose step's slopes left the float
    range."""
    if not all(map(math.isfinite, at)):
        return MetricError(
            f"metric '{spec.name}' at {at}: the point is not finite, a step's slopes left the float range"
        )
    for name, value in zip(COMPONENT_NAMES, values):
        if not math.isfinite(value):
            return MetricError(f"metric '{spec.name}' is not finite at {at}: {name} = {value}")
    (g11, m2, m3), _ = leading_minors(*values)
    detail = f"leading principal minors {g11:.3e}, {m2:.3e}, {m3:.3e}"
    if g11 > 0 and m2 > 0 and 0 < m3 < math.inf:
        detail += ", det below 1e-14 max(g_ii)^3"
    return MetricError(f"metric '{spec.name}' not positive definite at {at}: {detail}")


def lowered_symbol(dg):
    """Christoffel symbols of the first kind from the metric's first partials
    in the ``partials`` layout dg[..., i, j, m] = d_m g_ij (symmetric in i, j):
    low[..., l, i, j] = (d_i g_jl + d_j g_il - d_l g_ij) / 2, a C-contiguous
    array.  The sum and difference run in the memory order of dg (``partials``
    gives a view whose point axis is innermost), and the halving writes the
    one C-order copy."""
    low = np.add(dg.swapaxes(-1, -2), dg)
    low -= dg.swapaxes(-3, -1)
    return np.multiply(low, 0.5, order="C")


def gamma_at(spec: MetricSpec, p):
    """(jet, inv) at the point p as Python floats, from the metric tape's
    order-1 run (``Tape.run``): ``jet`` is g11, g12, g13, g22, g23, g33 and
    their partials d_1, d_2, d_3 (four lists of six), ``inv`` the six
    entries of g^-1, ``cofactors`` over det g; a g that fails
    ``leading_minors``' rule raises ``metric_jets``' MetricError.  No
    command calls it: it is the reference for the geodesic walk
    (``riccati._walk``), whose stages write the tape's replay, the rule and
    the cofactors out in line, and give its bits wherever a step over it
    ends in a finite state."""
    jet = np.array(spec.tape.run(p, 1)).T.tolist()
    (_, _, m3), usable = leading_minors(*jet[0])
    if not usable:
        raise _metric_fault(spec, tuple(map(float, p)), jet[0])
    c11, c12, c13, c22, c23, c33 = cofactors(*jet[0])
    return jet, (c11 / m3, c12 / m3, c13 / m3, c22 / m3, c23 / m3, c33 / m3)
