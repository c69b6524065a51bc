"""The package's public list: what ``from riccati3 import *`` binds."""

import importlib.util
from pathlib import Path

import riccati3
from riccati3 import curvature, obstruction, riccati

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the eigenframe, grid-probe and frame-projection oracles, which live in tests/oracles.py
TEST_ORACLES = (
    "plane_entries",
    "constrained_probe",
    "ProbeCandidate",
    "ProbeReport",
    "jacobi_frame",
    "derived_jacobi_direct",
    "JacobiFrame",
    "DerivedJacobi",
)


def test_star_import_binds_exactly_all():
    """``from riccati3 import *`` binds each name of ``__all__`` once, to the
    package attribute of that name, and nothing else."""
    namespace = {}
    exec("from riccati3 import *", namespace)
    namespace.pop("__builtins__")
    assert len(set(riccati3.__all__)) == len(riccati3.__all__)
    assert sorted(namespace) == sorted(riccati3.__all__)
    for name in riccati3.__all__:
        assert namespace[name] is getattr(riccati3, name), name


def test_test_oracles_are_not_in_the_package():
    """The eigenframe, the grid probe and the projection of an operator on
    a frame plane run in no command: neither the package nor the modules
    they came from carry them."""
    for module in (riccati3, curvature, riccati, obstruction):
        assert [name for name in TEST_ORACLES if hasattr(module, name)] == [], module.__name__


def test_every_benchmark_trace_target_resolves():
    """Each function the benchmark's tracer wraps (``perfbench/spans.py``)
    is still found where the tracer patches it and is defined in the module
    its span names, so a rename fails here and not only in the benchmark."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    resolved = spans.resolve_targets()
    assert [(module.__name__, attr, name) for module, attr, name, _ in resolved] == list(spans.TARGETS)
