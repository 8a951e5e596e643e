#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the capmeter command line.

    python3 perfbench/run.py --workload logistic-curve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each round drives the user's commands in-process through
``capmeter.cli.main([...])``; rounds repeat until ``--seconds`` have passed
and every timing is the median over rounds.  ``wall_ref`` counts a round's
time in blocks of fixed reference work run after each command (see
``reference_block``).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of BENCHMARK.json from
spans recorded around the calls into each module.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
REF_LOOP, REF_STEPS = 100_000, 1_500
REF_SHARE = 0.25  # reference time after a command, as a share of its time
STAGES = ("run", "fit", "compare", "sgld_quadratic", "sgld_logistic")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="logistic-curve, model-sweep, known-curves or langevin")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the harness smoke test")
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import capmeter.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "capmeter" / "cli.py").is_file():
        raise SystemExit(f"error: no capmeter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import capmeter.cli  # noqa: F401  (the import is what is timed)
    elapsed = time.perf_counter() - start
    import capmeter
    if Path(capmeter.__file__).resolve().parent != SRC / "capmeter":
        raise SystemExit(f"error: imported capmeter from {capmeter.__file__}")
    return capmeter, elapsed


def make_plan(args, workdir):
    # imported only after capmeter.cli, so that the import time measured for
    # the package does not shrink by what the benchmark's own modules load
    from workloads import PLANS

    if args.workload not in PLANS:
        raise SystemExit(f"error: --workload must be one of {', '.join(PLANS)}")
    return PLANS[args.workload](args.seed, args.size == "tiny", str(workdir))


def measure_setup(args, work_root):
    """Median wall time of fresh interpreters that import capmeter.cli and
    build this workload's inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        target = Path(tempfile.mkdtemp(prefix="setup-", dir=work_root))
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size,
               "--setup-only", str(target)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return statistics.median(times)


def reference_block():
    """Seconds taken by a fixed block of work that does not touch capmeter.

    A pure-Python float loop and logistic-regression gradient steps on a
    256 x 21 array, the sizes the learners use.  It runs after every
    command, and ``wall_ref`` gives a round's time in units of it: on a
    shared virtual machine the speed can drift by up to 2x for tens of
    seconds, and the drift slows both alike.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 21))
    y = (rng.random(256) < 0.5).astype(float)
    w = np.zeros(21)
    start = time.perf_counter()
    total = 0.0
    for i in range(REF_LOOP):
        total += math.sqrt(i * 0.5 + 1.0)
    for _ in range(REF_STEPS):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        w = w - 0.001 * (x.T @ (p - y))
    elapsed = time.perf_counter() - start
    if not (math.isfinite(total) and np.all(np.isfinite(w))):
        raise SystemExit("error: the reference block went wrong")
    return elapsed


def reference_time(threads):
    """Wall time of one reference block on each of ``threads`` threads at once.

    A command that runs a pool of N threads (``--jobs N``) is measured
    against N blocks run the same way, so both meet the same contention
    between the threads and between the CPUs.
    """
    if threads == 1:
        return reference_block()
    with ThreadPoolExecutor(threads) as pool:
        start = time.perf_counter()
        list(pool.map(lambda _: reference_block(), range(threads)))
        return time.perf_counter() - start


def run_command(cli, argv):
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        rc = cli.main(list(argv))
    if rc != 0:
        print(f"command failed ({rc}): capmeter {' '.join(argv)}\n"
              f"{sink_err.getvalue()}", file=sys.stderr)
    return rc


def run_round(cli, plan, tracer=None):
    """All commands of the plan once, each followed by reference blocks.

    Returns (per-stage seconds, failures, the round's time in reference
    blocks).  Each command's time is divided by the mean time of the blocks
    run right after it, as many as make up REF_SHARE of its time.
    """
    stage_s = dict.fromkeys(STAGES, 0.0)
    failures = 0
    in_blocks = 0.0
    for command in plan.commands:
        start = time.perf_counter()
        if tracer is None:
            rc = run_command(cli, command.argv)
        else:
            with tracer.span("cli.main"):
                rc = run_command(cli, command.argv)
        took = time.perf_counter() - start
        stage_s[command.stage] += took
        failures += rc != 0
        argv = command.argv
        threads = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
        blocks = [reference_time(threads)]
        while sum(blocks) < REF_SHARE * took:
            blocks.append(reference_time(threads))
        in_blocks += took * len(blocks) / sum(blocks)
    return stage_s, failures, in_blocks


def run_checks(plan, workdir):
    from workloads import CheckFailed

    failed = 0
    for name, check in plan.checks:
        try:
            detail = check(str(workdir))
            print(f"check ok    {name}: {detail}")
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            failed += 1
            print(f"check FAIL  {name}: {type(exc).__name__}: {exc}")
    return failed


def machine_facts(capmeter):
    import importlib.util

    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba_present": importlib.util.find_spec("numba") is not None,
            "numba_enabled": bool(capmeter.kernels.NUMBA_ENABLED)}


def median_stage(rounds, stage):
    return statistics.median(r[stage] for r in rounds)


def measure(args, capmeter, import_s, plan, workdir):
    """Rounds until the time is up.

    Returns (attempted, failed, correct, metrics, spans of the last traced round).
    """
    import tracing

    models = sum(c.models for c in plan.commands)
    cli = capmeter.cli
    plain, traced, layers, last_spans = [], [], [], []
    ratios = []  # untraced round times in reference blocks
    attempted = failed = 0
    start = time.perf_counter()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        while True:
            use_trace = args.trace == 1 and len(traced) < len(plain)
            if use_trace:
                tracer = tracing.Tracer()
                saved, names = tracing.instrument(tracer, capmeter)
                try:
                    stage_s, bad, _ = run_round(cli, plan, tracer)
                finally:
                    tracing.restore(saved)
                last_spans = tracer.take()
                layers.append(tracing.layer_metrics(last_spans, names))
                traced.append(stage_s)
            else:
                stage_s, bad, in_blocks = run_round(cli, plan)
                plain.append(stage_s)
                ratios.append(in_blocks)
            attempted += len(plan.commands)
            failed += bad
            # stop before a round that would end past the deadline, but keep
            # at least one round of each kind
            elapsed = time.perf_counter() - start
            per_round = elapsed / (len(plain) + len(traced))
            if (elapsed + per_round > args.seconds
                    and (args.trace == 0 or traced)):
                break
    finally:
        os.chdir(cwd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted += len(plan.checks)
    failed_checks = run_checks(plan, workdir)
    if args.trace == 1:
        attempted += 1
        nested = tracing.check_nesting(last_spans)
        print(f"check {'ok  ' if nested else 'FAIL'}  span tree is well nested: "
              f"{len(last_spans)} spans")
        failed_checks += not nested
    failed += failed_checks

    print(f"rounds: {len(plain)} untraced, {len(traced)} traced; untraced round "
          f"seconds {[round(sum(r.values()), 3) for r in plain]}, in reference "
          f"blocks {[round(r, 2) for r in ratios]}")
    # the first round pays for warm-up (the first k-NN run takes about 1 s
    # more than later ones); with four rounds or more it is left out
    warm = 1 if len(plain) >= 4 else 0
    plain, ratios = plain[warm:], ratios[warm:]
    wall = [sum(r.values()) for r in plain]
    if args.trace == 0:
        metrics = {"wall_ref": statistics.median(ratios),
                   "peak_rss_mb": peak_rss_mb}
    else:
        run_s = median_stage(plain, "run")
        metrics = {"cli.import_s": import_s}
        metrics.update(tracing.median_metrics(layers))
        metrics.update({f"{stage}_s": median_stage(plain, stage) for stage in STAGES})
        metrics["models_per_s"] = models / run_s if run_s > 0 else 0.0
        traced_wall = statistics.median(sum(r.values()) for r in traced)
        plain_wall = statistics.median(wall)
        metrics.update({
            "trace.untraced_wall_s": plain_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - plain_wall,
            "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall,
        })
    return attempted, failed, failed_checks == 0, metrics, last_spans


def units_for(metrics):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: units[name] for name in metrics}


def write_trace(args, spans):
    out = HERE / "_traces"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "counts"],
                   "spans": spans}, fh)
    return path


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only is not None:
        import_package()
        make_plan(args, args.setup_only)
        return 0

    capmeter, import_s = import_package()
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        plan = make_plan(args, workdir)
        # set-up is an end-to-end metric; the traced run reports cli.import_s
        setup_s = measure_setup(args, work_root) if args.trace == 0 else None
        print("machine " + json.dumps(machine_facts(capmeter)))
        attempted, failed, correct, metrics, spans = measure(
            args, capmeter, import_s, plan, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace == 0:
        metrics = {"setup_s": setup_s, **metrics}
    else:
        print(f"trace written to {write_trace(args, spans)}")
    units = units_for(metrics)
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
