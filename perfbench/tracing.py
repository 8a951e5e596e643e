"""Spans around calls into capmeter's layers, recorded from outside the package.

``instrument`` rebinds the module and class attributes through which callers
reach each layer (``capmeter.cli.run_protocol``, ``capmeter.kernels.logistic_gd``,
``capmeter.sgld.sgld_step``, ...) to timing wrappers, and ``restore`` puts the
originals back.  No file of the package changes.  Spans hold a name, a start,
an end and the id of the enclosing span; they stay in memory until the run
writes them out.  ``layer_metrics`` turns one round's spans into the
per-layer figures listed in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
from collections import defaultdict

ROOT = 0  # parent id of a span with no enclosing span


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, extra]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.main_thread()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool worker's outermost span belongs to whatever the main
        # thread has open (run_protocol while the pool runs)
        return self._main_stack[-1] if self._main_stack else ROOT

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed code as one span; yields the span's record."""
        stack = self._stack()
        record = [next(self._ids), name, 0.0, 0.0, self._parent(stack), None]
        stack.append(record[0])
        record[2] = time.perf_counter()
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, name, fn, extra=None):
        """``fn`` wrapped in a span; ``extra(args, kwargs, result)`` may add counts."""

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if extra is not None:
                record[5] = extra(args, kwargs, result)
            return result

        return traced

    def take(self):
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# what to wrap
# ---------------------------------------------------------------------------

def _flops_logistic_gd(args, kwargs, result):
    xb, _, n_classes = args[0], args[1], args[2]
    epochs_run = int(result[2])
    n, d1 = xb.shape
    # per epoch: Z = Xb W^T and G = (P - Y)^T Xb, 2*n*d1*(m-1) flops each
    return {"epochs": epochs_run,
            "flop": 4.0 * n * d1 * (n_classes - 1) * epochs_run}


def _steps_mlp_sgd(args, kwargs, result):
    x, perms, batch = args[0], args[6], args[9]
    return {"steps": perms.shape[0] * -(-x.shape[0] // batch)}


def _steps_sgld_chain(args, kwargs, result):
    return {"steps": int(args[6].shape[0])}


def _records_of_run(args, kwargs, result):
    workers = kwargs.get("workers", args[4] if len(args) > 4 else 1)
    groups = defaultdict(list)
    for rec in result.records:
        groups[(rec.dataset_id, rec.sample_size, rec.boot_index,
                rec.fold_index)].append(rec.nll_sum.hex())
    unique = sum(len(set(v)) for v in groups.values())
    return {"workers": int(workers), "records": len(result.records),
            "unique": unique}


def _targets(capmeter):
    """(owner, attribute, span name, extra) for every traced boundary.

    ``cli.write_records`` is listed twice on purpose: its span counts both
    as the protocol's record writer and as one of the report writers.
    """
    cli, protocol, kernels = capmeter.cli, capmeter.protocol, capmeter.kernels
    learners, estimators, sgld = (capmeter.learners, capmeter.estimators,
                                  capmeter.sgld)
    report = capmeter.report
    return [
        (cli, "run_protocol", "protocol.run_protocol", _records_of_run),
        (protocol, "plan_experiment", "protocol.plan_experiment", None),
        (protocol, "evaluate_job", "protocol.evaluate_job", None),
        (cli, "estimate_avg_energy", "protocol.estimate_avg_energy", None),
        (cli, "ingest_records", "protocol.ingest_records", None),
        (cli, "write_records", "protocol.write_records", None),
        (learners.LogisticLearner, "fit", "learners.logistic.fit", None),
        (learners.MlpLearner, "fit", "learners.mlp.fit", None),
        (learners.KnnLearner, "fit", "learners.knn.fit", None),
        (learners.PredictiveModel, "nll_terms", "learners.nll_terms", None),
        (learners.KnnModel, "nll_terms", "learners.nll_terms", None),
        (kernels, "logistic_gd", "kernels.logistic_gd", _flops_logistic_gd),
        (kernels, "mlp_sgd", "kernels.mlp_sgd", _steps_mlp_sgd),
        (kernels, "sgld_chain_diag_quad", "kernels.sgld_chain_diag_quad",
         _steps_sgld_chain),
        (cli, "fit_sigmoid_capacity", "estimators.fit_sigmoid_capacity", None),
        (cli, "fit_monotone_polynomial", "estimators.fit_monotone_polynomial",
         None),
        (cli, "capacity_from_sigmoid", "estimators.capacity_readout", None),
        (cli, "capacity_from_polynomial", "estimators.capacity_readout", None),
        (cli, "freezing_threshold", "estimators.capacity_readout", None),
        (cli, "kendall_tau", "estimators.compare_stats", None),
        (cli, "capacity_loss_regression", "estimators.compare_stats", None),
        (cli, "run_incremental_protocol", "sgld.run_incremental_protocol",
         None),
        (sgld, "sgld_step", "sgld.sgld_step", None),
        (sgld.DifferentiableEnergy, "heldout_means", "sgld.heldout_means",
         None),
        (sgld.QuadraticEnergy, "heldout_means", "sgld.heldout_means", None),
        (report, "build_manifest", "report.build_manifest", None),
        (cli, "write_records", "report.write", None),
        (report, "write_text_report", "report.write", None),
        (report, "write_json_report", "report.write", None),
        (report, "write_curve_chart", "report.write", None),
        (estimators, "adaptive_gauss_legendre", "quadrature", "panels"),
    ]


def instrument(tracer, capmeter):
    """Rebind every boundary that exists; returns what ``restore`` needs.

    A layer that a later version of the package removes is skipped, and its
    metrics are then absent from the report.
    """
    saved = []
    names = set()
    for owner, attr, name, extra in _targets(capmeter):
        if not hasattr(owner, attr):
            continue
        current = getattr(owner, attr)
        if extra == "panels":
            fn = _with_panel_count(tracer, name, current)
        else:
            fn = tracer.wrap(name, current, extra)
        # None marks an inherited method: shadowed here, deleted on restore
        saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, fn)
        names.add(name)
    return saved, names


def _with_panel_count(tracer, name, quad):
    """Count integrand evaluations (one per Gauss panel) at the call boundary."""

    def counted_quad(f, *args, **kwargs):
        panels = [0]

        def counted_f(x):
            panels[0] += 1
            return f(x)

        return quad(counted_f, *args, **kwargs), panels[0]

    traced = tracer.wrap(name, counted_quad,
                         lambda args, kwargs, result: {"panels": result[1]})

    def quad_entry(f, *args, **kwargs):
        return traced(f, *args, **kwargs)[0]

    return quad_entry


def restore(saved):
    for owner, attr, original in reversed(saved):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# spans to per-layer metrics
# ---------------------------------------------------------------------------

def _self_times(spans):
    """Duration minus the union of child intervals, per span id."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def _outermost(spans):
    """Spans not nested inside another span of the same name."""
    by_id = {s[0]: s for s in spans}
    keep = []
    for span in spans:
        parent = by_id.get(span[4])
        nested = False
        while parent is not None:
            if parent[1] == span[1]:
                nested = True
                break
            parent = by_id.get(parent[4])
        if not nested:
            keep.append(span)
    return keep


def layer_metrics(spans, present):
    """Per-layer figures for one round.

    ``present`` is the set of span names that were instrumented; metrics of
    a layer that was not instrumented are left out.
    """
    self_t = _self_times(spans)
    cli_self = sum(self_t[s[0]] for s in spans if s[1] == "cli.main")
    spans = _outermost(spans)
    busy = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for _, name, start, end, _, extra in spans:
        busy[name] += end - start
        calls[name] += 1
        for key, value in (extra or {}).items():
            counts[(name, key)] += value

    m = {"cli.self_s": cli_self}
    pool_time = sum((end - start) * extra["workers"]
                    for _, name, start, end, _, extra in spans
                    if name == "protocol.run_protocol")
    records = counts[("protocol.run_protocol", "records")]
    unique = counts[("protocol.run_protocol", "unique")]
    m.update({
        "protocol.plan_experiment_s": busy["protocol.plan_experiment"],
        "protocol.run_protocol_s": busy["protocol.run_protocol"],
        "protocol.evaluate_job.calls": calls["protocol.evaluate_job"],
        "protocol.evaluate_job.busy_s": busy["protocol.evaluate_job"],
        "protocol.pool_efficiency": (busy["protocol.evaluate_job"] / pool_time
                                     if pool_time else 0.0),
        "protocol.duplicate_records": int(records - unique),
        "protocol.unique_record_ratio": unique / records if records else 0.0,
        "protocol.estimate_avg_energy_s": busy["protocol.estimate_avg_energy"],
        "protocol.ingest_records_s": busy["protocol.ingest_records"],
        "protocol.write_records_s": busy["protocol.write_records"],
    })
    for learner in ("logistic", "mlp", "knn"):
        m[f"learners.{learner}.fit_s"] = busy[f"learners.{learner}.fit"]
        m[f"learners.{learner}.calls"] = calls[f"learners.{learner}.fit"]
    m["learners.nll_terms_s"] = busy["learners.nll_terms"]
    m.update({
        "kernels.logistic_gd.busy_s": busy["kernels.logistic_gd"],
        "kernels.logistic_gd.calls": calls["kernels.logistic_gd"],
        "kernels.logistic_gd.epochs": int(counts[("kernels.logistic_gd", "epochs")]),
        "kernels.logistic_gd.gflop_computed":
            counts[("kernels.logistic_gd", "flop")] / 1e9,
        "kernels.mlp_sgd.busy_s": busy["kernels.mlp_sgd"],
        "kernels.mlp_sgd.calls": calls["kernels.mlp_sgd"],
        "kernels.mlp_sgd.steps": int(counts[("kernels.mlp_sgd", "steps")]),
        "kernels.sgld_chain_diag_quad.busy_s": busy["kernels.sgld_chain_diag_quad"],
        "kernels.sgld_chain_diag_quad.steps":
            int(counts[("kernels.sgld_chain_diag_quad", "steps")]),
        "estimators.fit_sigmoid_capacity.busy_s":
            busy["estimators.fit_sigmoid_capacity"],
        "estimators.fit_sigmoid_capacity.calls":
            calls["estimators.fit_sigmoid_capacity"],
        "estimators.fit_monotone_polynomial.busy_s":
            busy["estimators.fit_monotone_polynomial"],
        "estimators.capacity_readout_s": busy["estimators.capacity_readout"],
        "estimators.compare_stats_s": busy["estimators.compare_stats"],
        "quadrature.calls": calls["quadrature"],
        "quadrature.panels": int(counts[("quadrature", "panels")]),
        "quadrature.busy_s": busy["quadrature"],
        "sgld.run_incremental_protocol_s": busy["sgld.run_incremental_protocol"],
        "sgld.sgld_step.calls": calls["sgld.sgld_step"],
        "sgld.sgld_step.busy_s": busy["sgld.sgld_step"],
        "sgld.heldout_means_s": busy["sgld.heldout_means"],
        "report.build_manifest_s": busy["report.build_manifest"],
        "report.write_s": busy["report.write"],
    })
    layers = {name.split(".")[0] for name in present} | {"cli"}
    return {k: v for k, v in m.items() if k.split(".")[0] in layers}


def median_metrics(rounds):
    """Median over rounds of each metric; counts repeat exactly and stay ints."""
    out = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        if all(isinstance(v, int) for v in values):
            out[key] = int(statistics.median(values))
        else:
            out[key] = float(statistics.median(values))
    return out


def check_nesting(spans):
    """True if every child span lies inside its parent's interval."""
    by_id = {s[0]: s for s in spans}
    for _, _, start, end, parent, _ in spans:
        if end < start:
            return False
        if parent == ROOT:
            continue
        p = by_id.get(parent)
        if p is None or start < p[2] or end > p[3]:
            return False
    return True
