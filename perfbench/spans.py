"""Spans around the public functions of each layer, recorded from outside ``src/``.

Each target is patched at the name its caller looks up (``riccati3.riccati``
calls ``gamma_at`` through its own module globals, so that is where the
wrapper goes).  A wrapped call records one span: name, start, end, parent and
whether it raised.  Spans stay in flat arrays in memory and are written out
once, when the run ends.  A span's self time is its duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module whose global is patched, attribute, span name).  The span name is
# the defining module and function; frame_algebra is summed over the
# functions the CLI calls.
TARGETS = (
    ("riccati3.metrics", "eval_jet", "exprjet.eval_jet"),
    ("riccati3.metrics", "eval_dual", "exprjet.eval_dual"),
    ("riccati3.metrics", "resolve", "metrics.resolve"),
    ("riccati3.curvature", "metric_jets", "metrics.metric_jets"),
    ("riccati3.riccati", "gamma_at", "metrics.gamma_at"),
    ("riccati3.curvature", "curvature_pack", "curvature.curvature_pack"),
    ("riccati3.riccati", "curvature_r_only", "curvature.curvature_r_only"),
    ("riccati3.cli", "identity_residuals", "curvature.identity_residuals"),
    ("riccati3.cli", "ricci_rank", "curvature.ricci_rank"),
    ("riccati3.obstruction", "ricci_rank", "curvature.ricci_rank"),
    ("riccati3.cli", "obstruction_values", "obstruction.obstruction_values"),
    ("riccati3.cli", "rank1_checks", "obstruction.rank1_checks"),
    ("riccati3.cli", "integrate_geodesic", "riccati.integrate_geodesic"),
    ("riccati3.cli", "jacobi_along", "riccati.jacobi_along"),
    ("riccati3.cli", "integrate_riccati", "riccati.integrate_riccati"),
    ("riccati3.polyclass", "instance_from_file", "polyclass.instance_from_file"),
    ("riccati3.polyclass", "classify", "polyclass.classify"),
) + tuple(
    ("riccati3.frame_algebra", fn, "frame_algebra")
    for fn in (
        "consistent_frame",
        "special_direction_polys",
        "a1_crosscheck",
        "root_identities",
        "bianchi_frame_residuals",
        "rigid_frame",
        "ric111_residual",
        "eds_closure",
        "contradiction_certificates",
    )
)

ROOT = "cli.main"  # recorded by the request loop around each cli.main call
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS)) + (ROOT,)

# Outcome counters read from return values at the layer boundary.
COUNTERS = ("obstruction.isotropic", "riccati.blowups", "riccati.steps")


def resolve_targets():
    """(module, attribute, span name, function) for every target.

    Raises if a target no longer exists or is no longer the function of the
    module the span name promises, so a rename fails loudly instead of
    reading zero calls.
    """
    out = []
    for mod_name, attr, name in TARGETS:
        module = importlib.import_module(mod_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise LookupError(f"trace target {mod_name}.{attr} no longer exists")
        home = "riccati3." + name.split(".")[0]
        if getattr(fn, "__module__", None) != home:
            raise LookupError(
                f"trace target {mod_name}.{attr} is defined in {fn.__module__}, expected {home}"
            )
        out.append((module, attr, name, fn))
    return out


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {n: k for k, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _hook(self, name):
        c = self.counters
        if name == "obstruction.obstruction_values":
            def hook(ov):
                c["obstruction.isotropic"] += bool(ov.frame.isotropic)
        elif name == "riccati.integrate_riccati":
            def hook(res):
                c["riccati.blowups"] += bool(res.blown_up)
        elif name == "riccati.integrate_geodesic":
            def hook(path):
                c["riccati.steps"] += len(path.ts) - 1
        else:
            return None
        return hook

    def _wrap(self, name, fn):
        name_id = self._ids[name]
        hook = self._hook(name)
        names, parents, starts, ends, errors, stack = (
            self.name, self.parent, self.start, self.end, self.error, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            errors.append(1)  # cleared when fn returns
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                errors[idx] = 0
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        targets = resolve_targets()
        for module, attr, name, fn in targets:
            setattr(module, attr, self._wrap(name, fn))
        try:
            yield self
        finally:
            for module, attr, _, fn in targets:
                setattr(module, attr, fn)

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.error, dtype=np.int8),
        )

    def per_name(self):
        """name -> (calls, self seconds, errors)."""
        name, parent, start, end, error = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=self_s, minlength=k)
        errs = np.bincount(name, weights=error, minlength=k)
        return {
            n: (int(calls[i]), float(selfs[i]), int(errs[i])) for i, n in enumerate(self.names)
        }

    def write(self, path):
        name, parent, start, end, error = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            start=start, end=end, error=error,
        )


def layer_metrics(tracer, overhead_frac):
    """The per-layer metrics of a traced run, as name -> (value, unit)."""
    out = {}
    per = tracer.per_name()
    for n in SPAN_NAMES:
        calls, self_s, errors = per[n]
        out[f"{n}.calls"] = (calls, "count")
        out[f"{n}.self_s"] = (self_s, "s")
        out[f"{n}.errors"] = (errors, "count")
    c = tracer.counters
    ov_calls = per["obstruction.obstruction_values"][0]
    ric_calls = per["riccati.integrate_riccati"][0]
    out["obstruction.isotropic_frac"] = (c["obstruction.isotropic"] / ov_calls if ov_calls else 0.0, "1")
    out["riccati.blowup_frac"] = (c["riccati.blowups"] / ric_calls if ric_calls else 0.0, "1")
    out["riccati.steps"] = (c["riccati.steps"], "count")
    out["trace.spans"] = (len(tracer.start), "count")
    out["trace.overhead_frac"] = (overhead_frac, "1")
    return out
