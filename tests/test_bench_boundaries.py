"""Every boundary that perfbench traces must exist in the package.

``perfbench/tracing.py`` skips a traced attribute that the package no longer
has, and its layer's metrics then drop out of the traced run, which leaves
that run short of the per-layer metrics BENCHMARK.json lists.  These tests
turn such a removal into a test failure, and check that the learners and
the sampler call the kernels through the traced attributes.  The tracing
module imports only the standard library and is loaded from its file,
read-only.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import capmeter
import capmeter.cli  # noqa: F401  (loads every module the targets name)
from capmeter import kernels
from capmeter.learners import (
    SyntheticConfig,
    gen_synthetic,
    logistic_learner,
    mlp_learner,
)
from capmeter.sgld import (
    QuadraticEnergy,
    RowCount,
    SgldConfig,
    run_incremental_protocol,
)

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


def test_kernels_are_called_through_the_module(monkeypatch):
    # A caller that binds a kernel by name (``from .kernels import ...``)
    # bypasses the traced attribute and zeroes its kernels.* metrics.
    calls = {}
    for name in ("logistic_gd", "mlp_sgd", "sgld_chain_diag_quad"):
        def counted(*args, _name=name, _kernel=getattr(kernels, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counted)

    data = gen_synthetic(SyntheticConfig(d=2, kappa=0.0, seed=1), 40)
    rows = np.arange(20)
    logistic_learner(epochs=3).fit(data, rows, seed=0)
    mlp_learner(hidden=2, epochs=1, batch=8).fit(data, rows, seed=0)
    config = SgldConfig(step_size=0.01, n_schedule=(2,), chains=1,
                        equilibration_epochs=1, samples_per_window=2, seed=0)
    run_incremental_protocol(QuadraticEnergy([1.0]), RowCount(3), config)
    assert calls == {"logistic_gd": 1, "mlp_sgd": 1, "sgld_chain_diag_quad": 1}
