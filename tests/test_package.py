"""The package's public list: what ``from riccati3 import *`` binds."""

import importlib.util
import inspect
from pathlib import Path

import riccati3
from riccati3 import cli, curvature, exprjet, frame_algebra, obstruction, riccati

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(riccati3.__file__).resolve().parent

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


def test_case_expansions_are_not_in_frame_algebra():
    """The special-direction bundles come from one expansion in the case's
    frame: the p polynomials and the case-by-case expansion are the test
    oracle ``reference_bundle``, not frame_algebra's, and the expansion
    takes no p and reads no mode label."""
    assert [name for name in ("p_polys", "reference_bundle") if hasattr(frame_algebra, name)] == []
    assert list(inspect.signature(frame_algebra.special_direction_polys).parameters) == ["fd", "case"]
    assert "mode" not in inspect.getsource(frame_algebra.special_direction_polys)


def test_removed_layers_stay_out_of_the_package():
    """The walk compiles the lines of ``Tape.replay`` itself: no function
    template, marker line or regex stands between them, and every tape gets
    the one folded stage.  The polynomial classifier's residual is checked
    against the test oracle ``reference_residual``, not a second copy in
    the package.  No source file names the removed layers."""
    removed = ("verify_constraint", "float_function", "SPARSE_REPLAY", "_Unfolded")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert [name for name in removed if name in text] == [], path.name
    assert not hasattr(exprjet, "re") and hasattr(exprjet.Tape, "replay")


def _spans():
    """``perfbench/spans.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_benchmark_trace_target_resolves():
    """Each function the benchmark's tracer wraps (``perfbench/spans.py``)
    is still found where the tracer patches it and is defined in the module
    its span names, so a rename fails here and not only in the benchmark."""
    spans = _spans()
    resolved = spans.resolve_targets()
    assert [(module.__name__, attr, name) for module, attr, name, _ in resolved] == list(spans.TARGETS)


def test_the_traced_frame_sweep_records_each_identity_once_per_block():
    """The frame sweep calls the traced frame_algebra functions through
    their module, so the benchmark's tracer sees them: per block the three
    bundles, the a1 cross-check, the root identities and the frame Bianchi
    residuals, six spans.  The input-free verdicts are computed first, as
    the benchmark's warm-up does, and stay out of the count."""
    spans = _spans()
    cli._frame_verdicts()
    tracer = spans.Tracer()
    with tracer.installed():
        cli._frame_algebra_checks(3, cli.FRAME_BLOCK + 5)
    calls, _, errors = tracer.per_name()["frame_algebra"]
    assert (calls, errors) == (12, 0)
