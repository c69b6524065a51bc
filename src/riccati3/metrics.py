"""Metric zoo and metric-specification files.

A metric is six scalar expressions for the independent components g11, g12,
g13, g22, g23, g33 in the coordinates x1, x2, x3, plus a parameter map.
Builtins cover the standard constant-curvature and homogeneous test cases;
custom metrics come from a JSON spec file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .exprjet import Expr, Jet4, eval_dual, eval_jet, parse_expr

COMPONENT_NAMES = ("g11", "g12", "g13", "g22", "g23", "g33")
_SYM_INDEX = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}

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


@dataclass
class MetricJet:
    """Order-4 jets of all six independent metric components at one point."""

    point: tuple
    jets: list  # 3x3 nested list of Jet4, symmetric by sharing
    g: np.ndarray  # (3,3) value part
    spec: MetricSpec


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
    with open(path, "r", encoding="utf-8") as fh:
        return from_dict(json.load(fh))


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
    """Jets of all six components at p; rejects non-positive-definite values."""
    comps = [eval_jet(e, p, spec.params, order) for e in spec.components]
    jets = [[None] * 3 for _ in range(3)]
    for (i, j), k in _SYM_INDEX.items():
        jets[i][j] = comps[k]
        jets[j][i] = comps[k]
    g = np.array([[jets[i][j].value for j in range(3)] for i in range(3)])
    eig = np.linalg.eigvalsh(g)
    if eig[0] <= 1e-10:
        raise MetricError(
            f"metric '{spec.name}' not positive definite at {tuple(p)}: min eigenvalue {eig[0]:.3e}"
        )
    return MetricJet(tuple(float(x) for x in p), jets, g, spec)


def gamma_at(spec: MetricSpec, p):
    """Fast (g, ginv, Gamma) at a point from order-1 jets (``eval_dual``).

    Gamma[k,i,j] = Christoffel symbol of the second kind.  Used by the
    geodesic/transport integrators where full jets are wasteful.
    """
    vals = np.empty((3, 3))
    grads = np.empty((3, 3, 3))
    for (i, j), k in _SYM_INDEX.items():
        d = eval_dual(spec.components[k], p, spec.params)
        vals[i, j] = vals[j, i] = d[0]
        grads[i, j] = grads[j, i] = d[1:]
    ginv = np.linalg.inv(vals)
    # dg[k,i,j] = d_k g_ij; lowered symbol: low[l,i,j] = (d_i g_jl + d_j g_il - d_l g_ij)/2
    dg = np.transpose(grads, (2, 0, 1))
    low = 0.5 * (np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg)
    gamma = np.einsum("kl,lij->kij", ginv, low)
    return vals, ginv, gamma
