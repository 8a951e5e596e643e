"""Every boundary that perfbench traces must exist in the package.

``perfbench/tracing.py`` skips a traced attribute that the package no longer
has, and its layer's metrics then drop out of the traced run, which leaves
that run short of the per-layer metrics BENCHMARK.json lists.  These tests
turn such a removal into a test failure.  The tracing module imports only
the standard library and is loaded from its file, read-only.
"""

import importlib.util
from pathlib import Path

import pytest

import capmeter
import capmeter.cli  # noqa: F401  (loads every module the targets name)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(owner, attr, name) for owner, attr, name, _
           in load_tracing()._targets(capmeter)]


@pytest.mark.parametrize("owner, attr, name", TARGETS,
                         ids=[f"{name}:{owner.__name__}.{attr}"
                              for owner, attr, name in TARGETS])
def test_traced_boundary_exists(owner, attr, name):
    assert hasattr(owner, attr), (
        f"{owner.__name__}.{attr} is gone; the traced "
        f"run would lose the {name} metrics")


def test_numba_flag_exists():
    # perfbench/run.py reports it among the machine facts of every run
    assert isinstance(capmeter.kernels.NUMBA_ENABLED, bool)
