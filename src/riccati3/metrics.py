"""Metric zoo and metric-specification files.

A metric is six scalar expressions for the independent components g11, g12,
g13, g22, g23, g33 in the coordinates x1, x2, x3, plus a parameter map.
Builtins cover the standard constant-curvature and homogeneous test cases;
custom metrics come from a JSON spec file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# eval_jet and eval_dual are not called here; they stay importable from this
# module, where the benchmark's tracer (perfbench/spans.py) looks them up
from .exprjet import Expr, Tape, as_point, eval_dual, eval_jet, parse_expr

COMPONENT_NAMES = ("g11", "g12", "g13", "g22", "g23", "g33")
_SYM_INDEX = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}
# component index of every entry of the full 3x3 matrix
_FULL_INDEX = np.array([[_SYM_INDEX[min(i, j), max(i, j)] for j in range(3)] for i in range(3)])

BUILTIN_NAMES = ("flat", "hyperbolic", "sphere", "heisenberg", "sol", "h2xr")


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class MetricSpec:
    name: str
    components: tuple  # 6 Expr, order g11,g12,g13,g22,g23,g33
    params: dict = field(default_factory=dict)
    box: tuple = (((-1.0, 1.0),) * 3)  # default coordinate sampling box

    def component(self, i, j) -> Expr:
        return self.components[_SYM_INDEX[(min(i, j), max(i, j))]]

    @cached_property
    def tape(self) -> Tape:
        """The six components compiled into one ``Tape`` with the spec's
        parameters, on first use."""
        return Tape(self.components, self.params)


@dataclass
class MetricJet:
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
        merged[k] = float(v)
    return _spec_from_strings(name, comps, merged, box)


def custom(components: dict, params=None, name="custom", box=None) -> MetricSpec:
    """Build a metric from component-name -> expression-source strings."""
    missing = [c for c in COMPONENT_NAMES if c not in components]
    if missing:
        raise MetricError(f"missing metric components: {missing}")
    comps = tuple(components[c] for c in COMPONENT_NAMES)
    return _spec_from_strings(name, comps, params, box)


def from_dict(data: dict) -> MetricSpec:
    """Metric spec from a parsed JSON object (builtin or custom form)."""
    if data.get("builtin") == "custom":
        data = {k: v for k, v in data.items() if k != "builtin"}
    if "builtin" in data:
        return builtin(data["builtin"], **data.get("params", {}))
    if "components" in data:
        return custom(
            data["components"],
            params={k: float(v) for k, v in data.get("params", {}).items()},
            name=data.get("name", "custom"),
            box=data.get("box"),
        )
    raise MetricError("metric file must contain 'builtin' or 'components'")


def from_file(path) -> MetricSpec:
    """The metric of a JSON file; malformed JSON raises a JSONDecodeError
    whose message starts with the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
    return from_dict(data)


def resolve(name_or_path, params=None) -> MetricSpec:
    """CLI helper: builtin name, or '@file.json' / '*.json' path."""
    if isinstance(name_or_path, MetricSpec):
        return name_or_path
    text = str(name_or_path)
    if text.startswith("@"):
        return from_file(text[1:])
    if text.endswith(".json"):
        return from_file(text)
    spec = builtin(text, **(params or {}))
    return spec


def metric_jets(spec: MetricSpec, p, order: int = 4) -> MetricJet:
    """The metric's order-``order`` Taylor coefficients (``MetricJet``) at the
    point p, or at each row of an (n, 3) array p, from the jets of its six
    components; rejects a non-positive-definite value, naming the first such point."""
    point = as_point(p)
    # (N(k), 6) at one point, (N(k), n, 6) at a batch, spread to the full matrices
    coef = np.stack(spec.tape.run(point, order), -1)[..., _FULL_INDEX]
    min_eig = np.linalg.eigvalsh(coef[0])[..., 0]
    bad = min_eig <= 1e-10
    if bad.any():
        k = int(np.argmax(bad))
        at = point if isinstance(point, tuple) else tuple(map(float, point[k]))
        raise MetricError(
            f"metric '{spec.name}' not positive definite at {at}: "
            f"min eigenvalue {float(np.ravel(min_eig)[k]):.3e}"
        )
    return MetricJet(point, coef, spec)


_EYE = np.eye(3)


def gamma_at(spec: MetricSpec, p):
    """Fast (g, ginv, Gamma) at one point from the order-1 metric tape.

    Gamma[k,i,j] = Christoffel symbol of the second kind, from one linear
    solve of g against the lowered symbol and the identity (for ginv).  Used
    by the geodesic/transport integrators where full jets are wasteful.
    """
    c = np.array(spec.tape.run(p, 1))[_FULL_INDEX]  # (3, 3, 4): g_ij and its gradient
    # dg[k,i,j] = d_k g_ij; lowered symbol: low[l,i,j] = (d_i g_jl + d_j g_il - d_l g_ij)/2
    g, dg = c[..., 0], c[..., 1:].transpose(2, 0, 1)
    low = 0.5 * (dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg)
    sol = np.linalg.solve(g, np.concatenate([low.reshape(3, 9), _EYE], axis=1))
    return g, sol[:, 9:], sol[:, :9].reshape(3, 3, 3)
