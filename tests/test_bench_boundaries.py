"""The traced perfbench run must still report every per-layer metric.

``perfbench/tracing.py`` skips a traced attribute that the package no longer
has; once every traced attribute of a layer is gone, that layer's metrics
drop out of the traced run, which leaves it short of the per-layer metrics
BENCHMARK.json lists.  These tests turn such a removal into a test failure,
while a boundary may go when its layer keeps another one.  They also check
that the learners and the sampler call the kernels through the module's
attributes, and that the k-NN's group path calls its traced methods through
their classes.  The tracing module imports only the standard library and is
loaded from its file, read-only.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import capmeter
import capmeter.cli  # noqa: F401  (loads every module the targets name)
from capmeter import kernels
from capmeter.learners import (
    KnnLearner,
    KnnModel,
    SyntheticConfig,
    gen_synthetic,
    knn_learner,
    logistic_learner,
    mlp_learner,
)
from capmeter.protocol import ProtocolConfig, plan_experiment, run_protocol
from capmeter.sgld import (
    QuadraticEnergy,
    SgldConfig,
    run_incremental_protocol,
)

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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
    # the boundary, or another traced boundary of its layer, which keeps
    # the layer's metrics in the traced run
    layer = name.split(".")[0]
    assert any(hasattr(o, a) for o, a, n in TARGETS
               if n.split(".")[0] == layer), (
        f"{owner.__name__}.{attr} is gone with the rest of the {layer} "
        "layer; the traced run would lose its metrics")


def benchmark_per_layer_names():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in benchmark["per_layer"]}


def computed_by_perfbench_run(name):
    """perfbench/run.py's own figures: the import time, the stage wall
    times (``run_s``, ``fit_s``, ...), models per second and the
    trace overhead."""
    return (name in ("cli.import_s", "models_per_s")
            or name.startswith("trace.")
            or ("." not in name and name.endswith("_s")))


def test_traced_run_reports_every_per_layer_metric():
    tracing = load_tracing()
    saved, names = tracing.instrument(tracing.Tracer(), capmeter)
    try:
        reported = set(tracing.layer_metrics([], names))
    finally:
        tracing.restore(saved)
    wanted = {name for name in benchmark_per_layer_names()
              if not computed_by_perfbench_run(name)}
    assert len(wanted) == 41
    assert wanted - reported == set()


def test_numba_flag_exists():
    # perfbench/run.py reports it among the machine facts of every run
    assert isinstance(capmeter.kernels.NUMBA_ENABLED, bool)


def test_kernels_are_called_through_the_module(monkeypatch):
    # A caller that binds a kernel by name (``from .kernels import ...``)
    # bypasses a wrapper bound on the module, as a tracer binds one.
    calls = {}
    for name in ("logistic_newton_stack", "mlp_sgd_stack", "sgld_chain_diag_quad"):
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
    run_incremental_protocol(QuadraticEnergy([1.0]), config)
    assert calls == {"logistic_newton_stack": 1, "mlp_sgd_stack": 1,
                     "sgld_chain_diag_quad": 1}


def test_knn_group_fits_and_scores_through_the_class(monkeypatch):
    # perfbench traces learners.knn.* and learners.nll_terms by rebinding
    # these class attributes; one call each per distinct (train, held-out)
    # job, since the k-NN ignores the seed
    calls = Counter()
    for owner, attr in ((KnnLearner, "fit"), (KnnModel, "nll_terms")):
        def counted(*args, _attr=attr, _method=getattr(owner, attr)):
            calls[_attr] += 1
            return _method(*args)
        monkeypatch.setattr(owner, attr, counted)

    data = gen_synthetic(SyntheticConfig(d=2, kappa=0.0, seed=1), 40)
    config = ProtocolConfig(n_grid=(20, 23), n_boots=2, k_folds=4, m_seeds=3)
    result = run_protocol(data, knn_learner(k=3), config)
    assert len(result.records) == 48
    assert calls == {"fit": 16, "nll_terms": 16}


def test_mlp_fit_many_calls_the_stack_kernel_through_the_module(monkeypatch):
    # one kernels.mlp_sgd_stack call per (N, minibatch count) stack; at N =
    # 23 the training sizes 18 and 19 share 3 minibatches of 8
    calls = []

    def counted(X, *args, _kernel=kernels.mlp_sgd_stack):
        calls.append(X.shape[:2])
        return _kernel(X, *args)

    monkeypatch.setattr(kernels, "mlp_sgd_stack", counted)
    data = gen_synthetic(SyntheticConfig(d=2, kappa=0.0, seed=1), 40)
    config = ProtocolConfig(n_grid=(20, 23), n_boots=1, k_folds=5, m_seeds=2)
    run_protocol(data, mlp_learner(hidden=2, epochs=1, batch=8), config)
    stacks = {}
    for job in plan_experiment(config, data.n_rows):
        n = job.train_rows.size
        stacks.setdefault((job.sample_size, -(-n // 8)), []).append(n)
    assert sorted(calls) == sorted((len(ns), max(ns)) for ns in stacks.values())
    assert len(calls) == 2
