"""The package's public list: what ``from riccati3 import *`` binds."""

import riccati3
from riccati3 import obstruction, riccati

# the eigenframe and grid-probe oracles, which live in tests/oracles.py
TEST_ORACLES = (
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
    """The eigenframe and the grid probe run in no command: neither the
    package nor the modules they came from carry them."""
    for module in (riccati3, riccati, obstruction):
        assert [name for name in TEST_ORACLES if hasattr(module, name)] == [], module.__name__
