"""Command-line front end: run protocols, fit capacity curves, query the
quadratic closed forms, compare fitted models, and drive the Langevin
sampler.

Exit codes: 0 success, else the error's ``exit_code``: 2 configuration or
parse problems, 3 training or chain failures, 4 estimator failures.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
from argparse import ArgumentParser

import numpy as np

from . import report
from .errors import (
    AllTied,
    CapmeterError,
    ConfigError,
    DegenerateDesign,
    InsufficientPoints,
    InvalidArgument,
    ParseError,
    UndefinedThreshold,
)
from .estimators import (
    capacity_from_polynomial,
    capacity_from_sigmoid,
    capacity_loss_regression,
    energy_from_sigmoid,
    fit_monotone_polynomial,
    fit_sigmoid_capacity,
    freezing_threshold,
    kendall_tau,
)
from .learners import (
    SyntheticConfig,
    gen_synthetic,
    knn_learner,
    load_tabular,
    logistic_learner,
    mlp_learner,
)
from .oracle import (
    HessianSpectrum,
    load_spectrum,
    pacbayes_bound,
    pacbayes_effective_dim,
    quad_capacity_exact,
    quad_capacity_hm,
)
from .protocol import (
    DATASET_ID_FORBIDDEN,
    RECORD_HEADER,
    EnergyCurve,
    ProtocolConfig,
    content_lines,
    default_n_grid,
    estimate_avg_energy,
    header_values,
    ingest_records,
    read_curve,
    run_protocol,
    write_curve,
    write_records,
)
from .sgld import (
    LogisticEnergy,
    MlpEnergy,
    QuadraticEnergy,
    SgldConfig,
    run_incremental_protocol,
)


def _fmt6(value) -> str:
    """Display rounding for printed oracle values."""
    return str(round(float(value), 6))


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def parse_grid(text: str):
    """Sample-size grid: ``lo:hi:Klog`` (K log-spaced, deduplicated) or a
    comma-separated list of integers."""
    match = re.fullmatch(r"(\d+):(\d+):(\d+)log", text)
    if match:
        lo, hi, count = (int(g) for g in match.groups())
        if not (1 <= lo < hi) or count < 2:
            raise ConfigError(f"bad grid bounds in {text!r}")
        return default_n_grid(lo, hi, count)
    return _parse_ints(text)


def _parse_kv(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_floats(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"expected a comma list of numbers, got {text!r}")


def _parse_ints(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"expected a comma list of integers, got {text!r}")


# synthetic spec key -> (SyntheticConfig keyword, type)
_SYNTHETIC_KEYS = {"d": ("d", int), "kappa": ("kappa", float),
                   "m": ("m_classes", int), "hidden": ("teacher_hidden", int),
                   "seed": ("seed", int)}


def _synthetic_dataset(spec_text: str, rows: int):
    spec = _parse_kv(spec_text)
    unknown = set(spec) - set(_SYNTHETIC_KEYS)
    if unknown:
        raise ConfigError(f"unknown synthetic keys: {sorted(unknown)}")
    if "d" not in spec:
        raise ConfigError("synthetic spec needs d=<dim>")
    values = {}
    for key, text in spec.items():
        keyword, kind = _SYNTHETIC_KEYS[key]
        try:
            values[keyword] = kind(text)
        except ValueError:
            raise ConfigError(f"synthetic key {key} needs {kind.__name__}, "
                              f"got {text!r}") from None
    config = SyntheticConfig(**values)
    dataset = gen_synthetic(config, rows)
    label = (f"synthetic-d{config.d}-kappa{config.kappa:g}-m{config.m_classes}"
             f"-h{config.teacher_hidden}-seed{config.seed}")
    return dataset, label


def _dataset_for(args, rows: int):
    if args.synthetic is not None:
        return _synthetic_dataset(args.synthetic, rows) + ((),)
    if args.data is not None:
        stem = os.path.splitext(os.path.basename(args.data))[0]
        if any(ch in stem for ch in DATASET_ID_FORBIDDEN):
            raise ConfigError(
                f"--data file name {stem!r} is the dataset id of every record "
                "and must not contain a comma or a line break")
        dataset = load_tabular(args.data)
        return dataset, stem, (args.data,)
    raise ConfigError("select a data source with --synthetic or --data")


# Each flag that a library object reads, as its parser destination, and the
# keyword it sets there, by subcommand: "config" is the ProtocolConfig or
# SgldConfig, the other keys name a --learner's learner or energy
# (--synthetic and --data, keyword None, give it its dataset).  A flag is
# passed on only when given, so the object's own default applies otherwise.
_READERS = {
    "run": {
        "config": {"boots": "n_boots", "folds": "k_folds", "seeds": "m_seeds",
                   "seed": "master_seed"},
        "logistic": {"l2": "l2", "epochs": "epochs"},
        "mlp": {"hidden": "hidden", "epochs": "epochs", "lr": "lr_max",
                "batch": "batch"},
        "knn": {"k": "k", "alpha": "alpha", "sigma": "sigma"},
    },
    "sgld": {
        "config": {"chains": "chains", "equil": "equilibration_epochs",
                   "samples": "samples_per_window", "batch": "batch_size",
                   "prior_eps": "prior_eps", "heldout_rows": "heldout_rows",
                   "seed": "seed"},
        "quadratic": {"lambda": "eigenvalues"},
        "logistic": {"synthetic": None, "data": None},
        "mlp": {"synthetic": None, "data": None, "hidden": "hidden"},
    },
}
HIDDEN = 16  # the MLP width of `run` and `sgld`; the library has no default
_LEARNERS = {"logistic": logistic_learner, "mlp": mlp_learner,
             "knn": knn_learner}


def _settings(args, command: str) -> list:
    """The given flags of the config and of the learner or energy, each as
    a keyword dict; a given flag that neither reads draws one warning."""
    readers, given = _READERS[command], vars(args)
    read = {**readers["config"], **readers[args.learner]}
    for dest in dict.fromkeys(d for reader in readers.values() for d in reader):
        if given[dest] is not None and dest not in read:
            print(f"warning: the {args.learner} learner does not read "
                  f"--{dest.replace('_', '-')}; ignored", file=sys.stderr)
    return [{keyword: given[dest] for dest, keyword in readers[name].items()
             if keyword and given[dest] is not None}
            for name in ("config", args.learner)]


def _resolved(args, command: str, config, model) -> dict:
    """The settings that ran, under library names and with defaults: the
    fields of ``config`` and the keywords of ``model`` that flags set."""
    settings = dict(dataclasses.asdict(config), learner=args.learner)
    settings.update((keyword, getattr(model, keyword)) for keyword
                    in _READERS[command][args.learner].values() if keyword)
    return {key: ",".join(map(str, np.ravel(value).tolist()))
            if np.ndim(value) else value for key, value in settings.items()}


def _config_echo(args) -> dict:
    skip = {"func", "_argv"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _load_curve_input(path) -> EnergyCurve:
    """Accept either a record file or a curve summary file.  A ``# scale=``
    comment line names the curve's scale, "nll" when there is none."""
    scale = header_values(path).get("scale", (0, "nll"))[1]
    if next(content_lines(path), (0, None))[1] == RECORD_HEADER:
        return estimate_avg_energy(ingest_records(path), scale=scale)
    return read_curve(path, scale)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    config_args, learner_args = _settings(args, "run")
    config = ProtocolConfig(n_grid=parse_grid(args.n_grid), **config_args)
    if args.learner == "logistic" and args.lr is not None and not args.lr > 0:
        # Newton's method takes no step size, but --lr keeps its check
        raise InvalidArgument(
            f"lr must be > 0, got {args.lr} (the logistic learner ignores it)")
    if args.learner == "mlp":
        learner_args.setdefault("hidden", HIDDEN)
    learner = _LEARNERS[args.learner](**learner_args)
    dataset, label, inputs = _dataset_for(args, max(config.n_grid))
    result = run_protocol(dataset, learner, config, dataset_id=label)
    curve = estimate_avg_energy(result.records)
    manifest = report.build_manifest(
        args._argv, _resolved(args, "run", config, learner),
        config.master_seed, inputs)
    comments = report.manifest_lines(manifest)
    write_records(args.out, result.records, comments=comments + [
        f"clamp_events = {result.clamp_events}"])
    write_curve(args.out + ".curve", curve, comments)
    print(f"wrote {args.out}: {len(result.records)} records over "
          f"{len(config.n_grid)} sample sizes (clamped {result.clamp_events} terms)")
    return 0


def _capacity_by_n(readout, model, curve) -> list:
    """``readout(model, N)`` at each N of the curve, as report entries."""
    points = [(int(n), readout(model, float(n))) for n in curve.n]
    return [{"n": n, "value": p.value, "stderr": p.stderr} for n, p in points]


def _sigmoid_section(model, curve):
    n_max = float(curve.n[-1])
    cap = capacity_from_sigmoid(model, n_max)
    stderrs = np.sqrt(np.maximum(np.diag(model.covariance), 0.0))
    try:
        n_star, guidance = freezing_threshold(model, n_current=n_max)
        guidance_tag = guidance.value
        if not np.isfinite(n_star):
            n_star = None
    except UndefinedThreshold:
        n_star, guidance_tag = None, "undefined"
    lo, hi = model.n_star_interval
    return {
        "a": model.a, "b": model.b, "c": model.c, "u_inf": model.u_inf,
        "stderr": {"a": float(stderrs[0]), "b": float(stderrs[1]),
                   "c": float(stderrs[2]), "u_inf": float(stderrs[3])},
        "covariance": model.covariance,
        "residual_rms": model.residual_rms,
        "identified": model.identified,
        "n_star": n_star,
        "n_star_interval": [lo if lo > 0.0 else None,
                            hi if np.isfinite(hi) else None],
        "guidance": guidance_tag,
        "capacity_at_n_max": {"value": cap.value, "stderr": cap.stderr},
        "capacity_by_n": _capacity_by_n(capacity_from_sigmoid, model, curve),
    }


def _poly_section(model, curve):
    cap = capacity_from_polynomial(model, float(curve.n[-1]))
    return {
        "degree": model.degree,
        "residual_rms": model.residual_rms,
        "constraints_active": model.constraints_active,
        "capacity_at_n_max": {"value": cap.value, "stderr": cap.stderr},
        "capacity_by_n": _capacity_by_n(capacity_from_polynomial, model, curve),
    }


def cmd_fit(args) -> int:
    if args.params is not None and args.params < 1:
        raise ConfigError(f"--params must be >= 1, got {args.params}")
    curve = _load_curve_input(args.records)
    label = args.label or os.path.splitext(os.path.basename(args.records))[0]
    n_max = float(curve.n[-1])
    sigmoid = poly = None
    sigmoid_model = None
    if args.method in ("sigmoid", "both"):
        sigmoid_model = fit_sigmoid_capacity(curve)
        sigmoid = _sigmoid_section(sigmoid_model, curve)
    poly_skipped = None
    if args.method in ("poly", "both"):
        try:
            poly = _poly_section(fit_monotone_polynomial(curve), curve)
        except InsufficientPoints as exc:
            # a curve too short for the polynomial still gets its sigmoid
            if args.method == "poly":
                raise
            poly_skipped = str(exc)

    payload = {
        "label": label,
        "scale": curve.scale,
        "n": [int(n) for n in curve.n],
        "u_mean": curve.u_mean,
        "u_stderr": curve.u_stderr,
        "record_count": curve.record_count,
        "n_max": int(n_max),
        "params": args.params,
        "sigmoid": sigmoid,
        "poly": poly,
    }
    if poly_skipped is not None:
        payload["poly_skipped"] = poly_skipped
    payload["c_over_p_percent"] = None
    primary = sigmoid if sigmoid is not None else poly
    if args.params is not None:
        payload["c_over_p_percent"] = (
            100.0 * primary["capacity_at_n_max"]["value"] / args.params)

    fields = [("label", label), ("scale", curve.scale),
              ("points", len(curve)), ("n_max", int(n_max))]
    if args.params is not None:
        fields.append(("params", args.params))
    if sigmoid is not None:
        for key in ("a", "b", "c", "u_inf"):
            fields.append((f"sigmoid.{key}", sigmoid[key]))
            fields.append((f"sigmoid.{key}_stderr", sigmoid["stderr"][key]))
        fields.append(("sigmoid.residual_rms", sigmoid["residual_rms"]))
        for i, row in enumerate(np.asarray(sigmoid["covariance"])):
            fields.append((f"sigmoid.cov.{i}",
                           " ".join(repr(float(v)) for v in row)))
        fields.append(("sigmoid.identified", sigmoid["identified"]))
        fields.append(("sigmoid.n_star",
                       "undefined" if sigmoid["n_star"] is None
                       else sigmoid["n_star"]))
        fields.append(("sigmoid.n_star_interval", " ".join(
            "open" if end is None else repr(end)
            for end in sigmoid["n_star_interval"])))
        fields.append(("sigmoid.guidance", sigmoid["guidance"]))
        fields.append(("sigmoid.capacity_at_n_max",
                       sigmoid["capacity_at_n_max"]["value"]))
        fields.append(("sigmoid.capacity_stderr",
                       sigmoid["capacity_at_n_max"]["stderr"]))
    if poly is not None:
        fields.append(("poly.capacity_at_n_max", poly["capacity_at_n_max"]["value"]))
        fields.append(("poly.capacity_stderr", poly["capacity_at_n_max"]["stderr"]))
        fields.append(("poly.residual_rms", poly["residual_rms"]))
        fields.append(("poly.constraints_active", poly["constraints_active"]))
    if poly_skipped is not None:
        fields.append(("poly.skipped", poly_skipped))
    if payload["c_over_p_percent"] is not None:
        fields.append(("c_over_p", f"{payload['c_over_p_percent']:.2f}%"))

    manifest = report.build_manifest(args._argv, _config_echo(args), "-",
                                     (args.records,))
    out = args.out or label + ".fit"
    report.write_text_report(out + ".txt", fields, manifest)
    report.write_json_report(out + ".json", payload, manifest)
    if args.plot:
        if sigmoid_model is not None:
            dense = np.geomspace(curve.n[0], curve.n[-1], 64)
            fit_u = energy_from_sigmoid(sigmoid_model, dense)
            cap_c = sigmoid_model.capacity(dense)
            energy_panel = (curve.n, curve.u_mean, curve.u_stderr, dense, fit_u)
            capacity_panel = (dense, cap_c)
        else:
            cap_n = [p["n"] for p in poly["capacity_by_n"]]
            cap_c = [p["value"] for p in poly["capacity_by_n"]]
            energy_panel = (curve.n, curve.u_mean, curve.u_stderr, None, None)
            capacity_panel = (cap_n, cap_c)
        report.write_curve_chart(out + ".svg", os.path.basename(out + ".json"),
                                 energy_panel, capacity_panel)
    summary = [f"wrote {out}.txt"]
    if primary is not None:
        summary.append(f"C(N_max) = {_fmt6(primary['capacity_at_n_max']['value'])}")
    if payload["c_over_p_percent"] is not None:
        summary.append(f"C/p = {payload['c_over_p_percent']:.2f}%")
    print("; ".join(summary))
    return 0


def _spectrum_for(args) -> HessianSpectrum:
    if args.spectrum is not None:
        if args.eps is not None:
            raise ConfigError("--eps is for --lambda; a spectrum file sets "
                              "epsilon in its header")
        return load_spectrum(args.spectrum)
    if args.lambdas is not None:
        if args.eps is None:
            raise ConfigError("inline spectra need --eps")
        return HessianSpectrum(eigenvalues=_parse_floats(args.lambdas),
                               epsilon=args.eps)
    raise ConfigError("select a spectrum with --spectrum or --lambda")


def cmd_oracle(args) -> int:
    spectrum = _spectrum_for(args)
    printed = False
    if args.exact:
        if args.n is None:
            raise ConfigError("--exact needs --n")
        print(f"capacity_exact {_fmt6(quad_capacity_exact(spectrum, args.n))}")
        printed = True
    if args.hm:
        print(f"capacity_hm {_fmt6(quad_capacity_hm(spectrum))}")
        printed = True
    if args.dim_at is not None:
        for n in _parse_ints(args.dim_at):
            print(f"effective_dim@{n} {pacbayes_effective_dim(spectrum, n)}")
        printed = True
    if args.kappa is not None or args.dist2 is not None:
        if args.kappa is None or args.dist2 is None or args.n is None:
            raise ConfigError("the bound needs --kappa, --dist2 and --n")
        value = pacbayes_bound(spectrum, args.n, args.kappa, args.dist2)
        print(f"pacbayes_bound {_fmt6(value)}")
        printed = True
    if not printed:
        raise ConfigError(
            "nothing to compute: pass --exact, --hm, --dim-at, or --kappa/--dist2")
    return 0


def _read_fit_report(path, index: int):
    """Label, scale ("nll" when absent), capacity by N and loss by N from
    one fit .json report."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not JSON: {exc.msg}", exc.lineno,
                             column=exc.colno) from None
    try:
        label = data.get("label", f"model-{index}")
        scale = data.get("scale", "nll")
        section = data.get("sigmoid") or data.get("poly")
        if not section:
            raise ConfigError(f"report {label!r} has no fitted capacity section")
        caps = {int(p["n"]): float(p["value"]) for p in section["capacity_by_n"]}
        losses = {int(n): float(u) for n, u in zip(data["n"], data["u_mean"])}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path} is not a fit report: "
                         f"{type(exc).__name__}: {exc}", line=0) from None
    return label, scale, caps, losses


def cmd_compare(args) -> int:
    if len(args.reports) < 2:
        raise ConfigError(
            f"compare needs two or more fit .json reports, got {len(args.reports)}")
    reports = [_read_fit_report(path, i) for i, path in enumerate(args.reports)]
    labels, scales, caps, losses = (list(column) for column in zip(*reports))
    if len(set(scales)) > 1:
        raise ConfigError("fit reports mix energy scales: " + ", ".join(
            f"{label}={scale}" for label, scale in zip(labels, scales)))
    shared = sorted(set.intersection(*(set(c) for c in caps)))
    if not shared:
        raise ConfigError("fit reports have no overlapping sample sizes")

    fields = [("models", len(reports)),
              ("labels", " ".join(labels)),
              ("shared_n", ",".join(str(n) for n in shared))]
    tau_by_n = {}
    for n in shared:
        cap_vec = [c[n] for c in caps]
        loss_vec = [l[n] for l in losses]
        try:
            tau = kendall_tau(cap_vec, loss_vec)
        except AllTied:
            tau = None
        tau_by_n[n] = tau
        fields.append((f"tau@{n}", "tied" if tau is None else tau))

    points = [(c[n], l[n]) for c, l in zip(caps, losses) for n in shared]
    regression = None
    if len(points) >= 3:
        try:
            slope, intercept, p_value = capacity_loss_regression(points)
            regression = {"slope": slope, "intercept": intercept,
                          "p_value": p_value}
            fields.extend([("regression.slope", slope),
                           ("regression.intercept", intercept),
                           ("regression.p_value", p_value)])
        except DegenerateDesign:
            fields.append(("regression", "refused: capacities all equal"))
    else:
        print("warning: regression refused, needs >= 3 (model, N) points",
              file=sys.stderr)
        fields.append(("regression", "refused: fewer than 3 points"))

    n_rank = shared[-1]
    order = sorted(range(len(reports)), key=lambda i: caps[i][n_rank])
    ranked = []
    for rank, i in enumerate(order, start=1):
        ranked.append({"rank": rank, "label": labels[i],
                       "capacity": caps[i][n_rank], "loss": losses[i][n_rank]})
        fields.append((f"rank.{rank}",
                       f"{labels[i]} capacity={_fmt6(caps[i][n_rank])} "
                       f"loss={_fmt6(losses[i][n_rank])}"))

    payload = {"labels": labels, "shared_n": shared,
               "tau_by_n": {str(n): tau_by_n[n] for n in shared},
               "regression": regression, "ranked_at_n": n_rank,
               "ranked": ranked}
    manifest = report.build_manifest(args._argv, _config_echo(args), "-",
                                     tuple(args.reports))
    report.write_text_report(args.out + ".txt", fields, manifest)
    report.write_json_report(args.out + ".json", payload, manifest)
    for key, value in fields:
        print(f"{key} {report.format_number(value)}")
    return 0


def cmd_sgld(args) -> int:
    schedule = _parse_ints(args.schedule)
    config_args, energy_args = _settings(args, "sgld")
    config = SgldConfig(step_size=args.step, n_schedule=schedule, **config_args)
    if args.learner == "quadratic":
        if "eigenvalues" not in energy_args:
            raise ConfigError("quadratic energy needs --lambda")
        energy = QuadraticEnergy(_parse_floats(energy_args["eigenvalues"]))
        label, inputs = f"quadratic-p{energy.dim}", ()
    else:
        dataset, label, inputs = _dataset_for(
            args, max(schedule) + config.heldout_rows)
        energy = (LogisticEnergy(dataset) if args.learner == "logistic" else
                  MlpEnergy(dataset, hidden=energy_args.get("hidden", HIDDEN)))

    result = run_incremental_protocol(energy, config, dataset_id=label)
    for failure in result.failures:
        print(f"warning: chain {failure.chain} failed at N={failure.sample_size}: "
              f"{failure.detail}", file=sys.stderr)

    manifest = report.build_manifest(
        args._argv, _resolved(args, "sgld", config, energy), config.seed, inputs)
    comments = report.manifest_lines(manifest)
    comments.append(f"scale={result.curve.scale}")
    write_records(args.out, result.records, comments=comments)

    fields = [("label", label), ("scale", result.curve.scale),
              ("schedule", ",".join(str(n) for n in schedule)),
              ("surviving_chains", config.chains - len(result.failures))]
    for n, u, se, _ in result.curve.points:
        fields.append((f"u@{n}", u))
        fields.append((f"u_stderr@{n}", se))
    for cap in result.capacities:
        fields.append((f"capacity@{int(cap.at_n)}", cap.value))
        fields.append((f"capacity_stderr@{int(cap.at_n)}", cap.stderr))
    report.write_text_report(args.out + ".capacities", fields, manifest)
    for cap in result.capacities:
        print(f"C({int(cap.at_n)}) = {_fmt6(cap.value)} +/- {_fmt6(cap.stderr)}")
    print(f"wrote {args.out}: {len(result.records)} records over "
          f"{len(schedule)} schedule points")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_data_flags(sub) -> None:
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--synthetic", help="synthetic spec, e.g. d=20,kappa=1")
    source.add_argument("--data", help="tabular CSV path")


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(prog="capmeter",
                            description="learning-capacity measurement tools")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    run = subs.add_parser("run", help="run the resampling protocol")
    _add_data_flags(run)
    run.add_argument("--learner", required=True,
                     choices=["logistic", "mlp", "knn"])
    run.add_argument("--n-grid", required=True,
                     help="lo:hi:Klog or comma list")
    run.add_argument("--boots", type=int, help="bootstrap resamples per N")
    run.add_argument("--folds", type=int, help="cross-validation folds")
    run.add_argument("--seeds", type=int, help="training seeds per resample")
    run.add_argument("--seed", type=int, help="master seed")
    run.add_argument("--jobs", type=int,
                     help="accepted and checked (>= 1) but changes nothing")
    run.add_argument("--l2", type=float, help="logistic ridge penalty, > 0")
    run.add_argument("--epochs", type=int, help="MLP training epochs, or the "
                     "cap on the logistic learner's Newton iterations")
    run.add_argument("--lr", type=float, help="MLP peak learning rate; "
                     "checked (> 0) but not read by the logistic learner")
    run.add_argument("--hidden", type=int, help="MLP hidden width")
    run.add_argument("--batch", type=int, help="MLP minibatch size")
    run.add_argument("--k", type=int, help="k-NN neighbour count")
    run.add_argument("--alpha", type=float, help="k-NN count smoothing")
    run.add_argument("--sigma", type=float, help="k-NN regression noise scale")
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)

    fit = subs.add_parser("fit", help="fit capacity estimators to a curve")
    fit.add_argument("records", help="record file or curve summary")
    fit.add_argument("--method", choices=["sigmoid", "poly", "both"],
                     default="both")
    fit.add_argument("--params", type=int, default=None,
                     help="parameter count for the C/p line")
    fit.add_argument("--label", default=None)
    fit.add_argument("--plot", action="store_true")
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=cmd_fit)

    oracle = subs.add_parser("oracle", help="closed-form quadratic values")
    spectrum = oracle.add_mutually_exclusive_group()
    spectrum.add_argument("--spectrum", help="spectrum file")
    spectrum.add_argument("--lambda", dest="lambdas",
                          help="inline eigenvalues, comma separated")
    oracle.add_argument("--eps", type=float, default=None,
                        help="prior precision of --lambda; 0 is the flat prior")
    oracle.add_argument("--n", type=int, default=None)
    oracle.add_argument("--exact", action="store_true",
                        help="exact capacity at --n")
    oracle.add_argument("--hm", action="store_true",
                        help="harmonic-mean large-N capacity")
    oracle.add_argument("--dim-at", default=None,
                        help="effective dimension at these N (comma list)")
    oracle.add_argument("--kappa", type=float, default=None)
    oracle.add_argument("--dist2", type=float, default=None)
    oracle.set_defaults(func=cmd_oracle)

    compare = subs.add_parser("compare", help="rank fitted models")
    compare.add_argument("reports", nargs="+",
                         help="two or more fit .json reports")
    compare.add_argument("--out", default="compare")
    compare.set_defaults(func=cmd_compare)

    # whole flag names only, so no prefix such as --prior sets --prior-eps
    sgld = subs.add_parser("sgld", help="Langevin incremental protocol",
                           allow_abbrev=False)
    _add_data_flags(sgld)
    sgld.add_argument("--learner", required=True,
                      choices=["quadratic", "logistic", "mlp"])
    sgld.add_argument("--schedule", required=True,
                      help="comma list of sample sizes")
    sgld.add_argument("--step", type=float, required=True)
    sgld.add_argument("--chains", type=int, help="Langevin chains")
    sgld.add_argument("--equil", type=int,
                      help="equilibration epochs per window")
    sgld.add_argument("--samples", type=int, help="samples per window")
    sgld.add_argument("--batch", type=int, help="minibatch size")
    sgld.add_argument("--prior-eps", type=float,
                      help="Gaussian prior precision; 0 is the flat prior")
    sgld.add_argument("--lambda",
                      help="quadratic energy eigenvalues, comma separated")
    sgld.add_argument("--hidden", type=int, help="MLP energy hidden width")
    sgld.add_argument("--heldout-rows", type=int,
                      help="rows held out past the schedule for the readout")
    sgld.add_argument("--seed", type=int, help="master seed")
    sgld.add_argument("--out", required=True)
    sgld.set_defaults(func=cmd_sgld)
    return parser


def main(argv=None) -> int:
    argv_list = list(argv) if argv is not None else sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv_list)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = ["capmeter"] + argv_list
    try:
        return args.func(args)
    except CapmeterError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
