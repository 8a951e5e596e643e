"""End-to-end tests for the command-line interface.

Each test drives ``capmeter.cli.main`` directly with an argv list and
inspects exit codes, stdout/stderr, and the files written, so the whole
surface (flag parsing, file formats, manifests, exit-code mapping) is
covered without spawning subprocesses.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from scipy import integrate

import capmeter.estimators
import capmeter.sgld
from capmeter import cli, errors
from capmeter.errors import ConfigError, InvariantViolation, ParseError
from capmeter.learners import (
    SyntheticConfig,
    gen_synthetic,
    knn_learner,
    load_tabular,
    logistic_learner,
)
from capmeter.oracle import HessianSpectrum, load_spectrum, pacbayes_bound
from capmeter.protocol import (
    CURVE_HEADER,
    RECORD_HEADER,
    EnergyRecord,
    ProtocolConfig,
    ingest_records,
    run_protocol,
)
from capmeter.sgld import SgldConfig


def truth_energy(a, b, c, u_inf, n):
    """Reference energy via QUADPACK, independent of the package quadrature."""
    val, _ = integrate.quad(lambda u: a / (1.0 + np.exp(b) * u ** c),
                            0.0, 1.0 / n, epsabs=1e-13, epsrel=1e-13,
                            limit=200)
    return u_inf + val


def write_curve_file(path, n, u, se, scale="nll"):
    lines = [f"# scale={scale}", CURVE_HEADER]
    for nn, uu, ss in zip(n, u, se):
        lines.append(f"{int(nn)},{float(uu)!r},{float(ss)!r},10")
    path.write_text("\n".join(lines) + "\n")


def data_lines(text):
    """Non-comment lines of a record/curve file."""
    return [ln for ln in text.splitlines()
            if ln.strip() and not ln.startswith("#")]


def fit_report(label, ns, losses, caps):
    """Minimal fit-report JSON accepted by the compare subcommand."""
    return {"label": label, "n": list(ns), "u_mean": list(losses),
            "sigmoid": {"capacity_by_n": [
                {"n": int(n), "value": float(c), "stderr": 0.0}
                for n, c in zip(ns, caps)]}}


RUN_ARGV = ["run", "--learner", "logistic", "--synthetic", "d=2,kappa=0,seed=1",
            "--n-grid", "20:400:8log", "--boots", "2", "--folds", "3",
            "--seeds", "1", "--epochs", "300", "--seed", "5", "--jobs", "1"]


SGLD_ARGV = ["sgld", "--learner", "quadratic", "--lambda", "1,0.5",
             "--schedule", "4,8,16,32,64,128,256,512,1024,2048",
             "--step", "0.001", "--chains", "3", "--equil", "50",
             "--samples", "400", "--seed", "4", "--heldout-rows", "1"]


@pytest.fixture(scope="module")
def sgld_fit_dir(tmp_path_factory):
    """A quadratic ``sgld`` record file over 10 schedule points and its
    ``fit --method poly`` report."""
    path = tmp_path_factory.mktemp("cli-sgld")
    assert cli.main(SGLD_ARGV + ["--out", str(path / "sgld")]) == 0
    assert cli.main(["fit", str(path / "sgld"), "--method", "poly",
                     "--out", str(path / "sgld-fit")]) == 0
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One small but complete protocol run shared by the run/fit tests."""
    path = tmp_path_factory.mktemp("cli-run")
    out = path / "records.csv"
    assert cli.main(RUN_ARGV + ["--out", str(out)]) == 0
    return path


class TestGridParsing:
    def test_log_grid(self):
        grid = cli.parse_grid("50:5000:12log")
        assert len(grid) == 12
        assert grid[0] == 50 and grid[-1] == 5000
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_comma_list(self):
        assert cli.parse_grid("5,10,20") == (5, 10, 20)

    @pytest.mark.parametrize("text", ["fivety", "10:5:3log", "0:10:3log",
                                      "50:5000:1log", "5,ten,20"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            cli.parse_grid(text)


class TestRun:
    def test_writes_records_and_curve(self, run_dir, capsys):
        text = (run_dir / "records.csv").read_text()
        rows = data_lines(text)
        assert rows[0] == RECORD_HEADER
        # 8 sample sizes x 2 bootstraps x 3 folds x 1 seed
        assert len(rows) - 1 == 8 * 2 * 3 * 1
        assert "# manifest: master_seed = 5" in text
        assert any("timestamp" in ln for ln in text.splitlines())
        curve = data_lines((run_dir / "records.csv.curve").read_text())
        assert curve[0] == CURVE_HEADER
        assert len(curve) - 1 == 8

    def test_missing_learner_flag_exits_2(self, tmp_path, capsys):
        code = cli.main(["run", "--n-grid", "5,10", "--synthetic", "d=2",
                         "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "--learner" in capsys.readouterr().err

    def test_bad_grid_exits_2(self, tmp_path, capsys):
        code = cli.main(["run", "--learner", "logistic", "--synthetic", "d=2",
                         "--n-grid", "junk", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "error: ConfigError" in capsys.readouterr().err

    def test_no_data_source_exits_2(self, tmp_path, capsys):
        code = cli.main(["run", "--learner", "logistic", "--n-grid", "5,10",
                         "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "--synthetic or --data" in capsys.readouterr().err

    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path, monkeypatch):
        argv = ["run", "--learner", "logistic", "--synthetic", "d=2,seed=3",
                "--n-grid", "20,40,60", "--boots", "2", "--folds", "3",
                "--seeds", "1", "--epochs", "120", "--seed", "9",
                "--out", "records.csv"]
        texts = []
        for sub in ("one", "two"):
            workdir = tmp_path / sub
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert cli.main(list(argv)) == 0
            texts.append((workdir / "records.csv").read_text()
                         + (workdir / "records.csv.curve").read_text())
        strip = [[ln for ln in t.splitlines() if "timestamp" not in ln]
                 for t in texts]
        assert strip[0] == strip[1]

    def test_jobs_below_one_exits_2(self, tmp_path, capsys):
        code = cli.main(["run", "--learner", "logistic", "--synthetic", "d=2",
                         "--n-grid", "5,10", "--jobs", "0",
                         "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("learner", ["logistic", "mlp"])
    @pytest.mark.parametrize("flag", ["--epochs", "--lr"])
    def test_zero_epochs_or_lr_exits_2(self, tmp_path, capsys, learner, flag):
        # a zero reaches the learner's own check instead of its default
        out = tmp_path / "r.csv"
        code = cli.main(["run", "--learner", learner, "--synthetic", "d=2",
                         "--n-grid", "5,10", flag, "0", "--out", str(out)])
        assert code == 2
        assert "error: InvalidArgument" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("l2", ["0", "-0.001"])
    def test_non_positive_l2_exits_2(self, tmp_path, capsys, l2):
        out = tmp_path / "r.csv"
        code = cli.main(["run", "--learner", "logistic", "--synthetic", "d=2",
                         "--n-grid", "5,10", "--l2", l2, "--out", str(out)])
        assert code == 2
        assert "error: InvalidArgument: l2 must be finite and > 0" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_tabular_data_digest_in_manifest(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 2))
        y = (x[:, 0] > 0).astype(int)
        csv = tmp_path / "table.csv"
        csv.write_text("".join(f"{float(a)!r},{float(b)!r},{int(c)}\n"
                               for (a, b), c in zip(x, y)))
        out = tmp_path / "r.csv"
        code = cli.main(["run", "--learner", "logistic", "--data", str(csv),
                         "--n-grid", "10,20,30", "--boots", "1", "--folds", "3",
                         "--seeds", "1", "--epochs", "60", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "sha256:" in text
        assert "table" in text


DATA_ARGV = {
    "run": ["run", "--learner", "knn", "--n-grid", "10,20", "--boots", "1",
            "--folds", "2", "--seeds", "1"],
    "sgld": ["sgld", "--learner", "logistic", "--schedule", "8,16",
             "--step", "0.01", "--chains", "2", "--equil", "1",
             "--samples", "2", "--heldout-rows", "8"],
}


class TestDataFlags:
    @pytest.mark.parametrize("command", sorted(DATA_ARGV))
    @pytest.mark.parametrize("spec, message", [
        ("d=x", "synthetic key d needs int, got 'x'"),
        ("d=3,kappa=abc", "synthetic key kappa needs float, got 'abc'"),
    ], ids=["d", "kappa"])
    def test_malformed_synthetic_value_exits_2(self, tmp_path, capsys,
                                               command, spec, message):
        out = tmp_path / "r.csv"
        code = cli.main(DATA_ARGV[command]
                        + ["--synthetic", spec, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: ConfigError: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(DATA_ARGV))
    def test_dataset_id_with_comma_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, command):
        # the file name is the dataset id of every record; with a comma in
        # it each record line would carry an extra field
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "run_protocol", no_training)
        monkeypatch.setattr(cli, "run_incremental_protocol", no_training)
        rng = np.random.default_rng(0)
        csv = tmp_path / "a,b.csv"
        csv.write_text("".join(f"{float(a)!r},{int(a > 0)}\n"
                               for a in rng.normal(size=40)))
        out = tmp_path / "r.csv"
        code = cli.main(DATA_ARGV[command]
                        + ["--data", str(csv), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: ConfigError: --data file name 'a,b'" in err
        assert list(tmp_path.iterdir()) == [csv]

    @pytest.mark.parametrize("command", sorted(DATA_ARGV))
    def test_synthetic_and_data_exclude_each_other(self, tmp_path, capsys,
                                                   command):
        # --data used to be ignored beside --synthetic, missing file or not
        out = tmp_path / "r.csv"
        code = cli.main(DATA_ARGV[command]
                        + ["--synthetic", "d=3,seed=1",
                           "--data", str(tmp_path / "missing.csv"),
                           "--out", str(out)])
        assert code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_label_file_exits_2_naming_no_keyword(self, tmp_path,
                                                         capsys):
        csv = tmp_path / "mixed.csv"
        csv.write_text("".join(f"{float(x)!r},{y}\n" for x, y in
                               zip(np.linspace(0.0, 1.0, 20), [1.0, 0.75] * 10)))
        out = tmp_path / "r.csv"
        code = cli.main(DATA_ARGV["run"] + ["--data", str(csv),
                                            "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: MixedTypes: label column mixes integral and fractional" in err
        assert "kind" not in err and "=" not in err
        assert not out.exists()

    def test_synthetic_id_names_the_teacher_width(self):
        # the two specs label their rows differently, so their records must
        # not share a dataset id
        narrow, narrow_id = cli._synthetic_dataset("d=3,hidden=2,seed=2", 50)
        wide, wide_id = cli._synthetic_dataset("d=3,seed=2", 50)
        assert np.any(narrow.labels != wide.labels)
        assert narrow_id == "synthetic-d3-kappa0-m2-h2-seed2"
        assert wide_id == "synthetic-d3-kappa0-m2-h1000-seed2"

    @pytest.mark.parametrize("dataset_id", ["a,b", "a\nb", "a\rb"])
    def test_record_refuses_an_id_that_splits_its_line(self, dataset_id):
        with pytest.raises(InvariantViolation, match="dataset_id"):
            EnergyRecord(dataset_id, 10, 0, 0, 0, 1.0, 2)


class TestFit:
    def test_records_and_curve_inputs_agree(self, run_dir, tmp_path, capsys):
        out_rec = tmp_path / "from-records"
        out_cur = tmp_path / "from-curve"
        assert cli.main(["fit", str(run_dir / "records.csv"),
                         "--method", "sigmoid", "--out", str(out_rec)]) == 0
        assert cli.main(["fit", str(run_dir / "records.csv.curve"),
                         "--method", "sigmoid", "--out", str(out_cur)]) == 0
        a = json.loads((tmp_path / "from-records.json").read_text())
        b = json.loads((tmp_path / "from-curve.json").read_text())
        assert a["u_mean"] == b["u_mean"]
        assert a["sigmoid"]["a"] == b["sigmoid"]["a"]
        assert a["sigmoid"]["capacity_at_n_max"] == b["sigmoid"]["capacity_at_n_max"]

    def test_sgld_records_keep_their_scale(self, sgld_fit_dir):
        text = (sgld_fit_dir / "sgld-fit.txt").read_text()
        assert "scale probability-complement" in text.splitlines()
        report = json.loads((sgld_fit_dir / "sgld-fit.json").read_text())
        assert report["scale"] == "probability-complement"

    def test_params_ratio_line(self, tmp_path, capsys):
        n = np.rint(np.geomspace(1e3, 1e6, 12)).astype(np.int64)
        u = [truth_energy(609.0, 20.0, 3.0, 0.1, nn) for nn in n]
        curve = tmp_path / "curve.csv"
        write_curve_file(curve, n, u, np.full(n.size, 1e-4))
        out = tmp_path / "fit609"
        code = cli.main(["fit", str(curve), "--method", "both",
                         "--params", "78902", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "C/p = 0.77%" in stdout
        text = (tmp_path / "fit609.txt").read_text()
        assert "c_over_p 0.77%" in text
        assert "poly.capacity_at_n_max" in text
        payload = json.loads((tmp_path / "fit609.json").read_text())
        assert payload["sigmoid"]["a"] == pytest.approx(609.0, rel=0.01)
        assert payload["poly"]["degree"] == 7
        assert payload["c_over_p_percent"] == pytest.approx(
            100.0 * payload["sigmoid"]["capacity_at_n_max"]["value"] / 78902)

    def test_recovers_sigmoid_parameters_from_noisy_curve(self, tmp_path):
        n = np.geomspace(1e2, 1e5, 15)
        u = np.array([truth_energy(100.0, 20.0, 3.0, 0.1, nn) for nn in n])
        rng = np.random.default_rng(7)
        curve = tmp_path / "noisy.csv"
        write_curve_file(curve, n.round().astype(np.int64),
                         u + rng.normal(0, 0.005, n.size),
                         np.full(n.size, 0.005))
        out = tmp_path / "rec"
        assert cli.main(["fit", str(curve), "--method", "sigmoid",
                         "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "rec.json").read_text())
        assert payload["sigmoid"]["a"] == pytest.approx(100.0, rel=0.05)

    def test_reports_carry_the_identifiability_verdict(self, tmp_path):
        n = np.rint(np.geomspace(20, 5000, 12)).astype(np.int64)
        rng = np.random.default_rng(0)
        curves = {"sigmoid": np.array([truth_energy(10.0, math.log(200.0), 1.0,
                                                    0.05, nn) for nn in n]),
                  "power": 0.04 + 2.5 / n}
        reports = {}
        for name, u in curves.items():
            sigma = 0.001 * u
            write_curve_file(tmp_path / f"{name}.csv", n,
                             u + rng.normal(0.0, sigma), sigma)
            out = tmp_path / name
            assert cli.main(["fit", str(tmp_path / f"{name}.csv"),
                             "--method", "sigmoid", "--out", str(out)]) == 0
            reports[name] = (json.loads((tmp_path / f"{name}.json").read_text()),
                             (tmp_path / f"{name}.txt").read_text())
        payload, text = reports["sigmoid"]
        assert payload["sigmoid"]["identified"] is True
        lo, hi = payload["sigmoid"]["n_star_interval"]
        assert lo < payload["sigmoid"]["n_star"] < hi
        assert payload["sigmoid"]["guidance"] == "search-architectures"
        assert "sigmoid.identified True" in text
        payload, text = reports["power"]
        # the flat capacity leaves n* with an upper bound only
        assert payload["sigmoid"]["identified"] is False
        assert payload["sigmoid"]["guidance"] == "undetermined"
        lo, hi = payload["sigmoid"]["n_star_interval"]
        assert lo is None and payload["sigmoid"]["n_star"] == hi
        assert "sigmoid.identified False" in text
        assert "sigmoid.guidance undetermined" in text
        assert re.search(r"^sigmoid\.n_star_interval open \S+$", text, re.M)
        assert payload["sigmoid"]["capacity_at_n_max"]["stderr"] > 0.0

    def test_three_point_curve_exits_4(self, tmp_path, capsys):
        curve = tmp_path / "short.csv"
        write_curve_file(curve, [10, 100, 1000], [0.5, 0.3, 0.2],
                         [0.01, 0.01, 0.01])
        code = cli.main(["fit", str(curve), "--method", "sigmoid",
                         "--out", str(tmp_path / "f")])
        assert code == 4
        assert "DegenerateCurve" in capsys.readouterr().err

    def test_short_curve_gets_the_sigmoid_and_skips_the_poly(self, tmp_path,
                                                              capsys):
        # 8 points: enough for the sigmoid, one short of the degree-7 poly
        records = tmp_path / "knn.csv"
        assert cli.main(["run", "--learner", "knn",
                         "--synthetic", "d=5,kappa=1,seed=3",
                         "--n-grid", "30:300:8log", "--boots", "2",
                         "--out", str(records)]) == 0
        out = tmp_path / "both"
        code = cli.main(["fit", str(records), "--method", "both", "--plot",
                         "--out", str(out)])
        assert code == 0
        reason = "need at least 9 points for degree 7, got 8"
        payload = json.loads((tmp_path / "both.json").read_text())
        assert payload["poly"] is None
        assert payload["poly_skipped"] == reason
        assert payload["sigmoid"]["capacity_at_n_max"]["value"] > 0.0
        text = (tmp_path / "both.txt").read_text()
        assert f"poly.skipped {reason}" in text.splitlines()
        assert (tmp_path / "both.svg").exists()
        capsys.readouterr()
        code = cli.main(["fit", str(records), "--method", "poly",
                         "--out", str(tmp_path / "poly")])
        assert code == 4
        assert f"InsufficientPoints: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "poly.txt").exists()

    def test_constraint_violating_solution_exits_4(self, tmp_path, capsys,
                                                   monkeypatch):
        # zero multipliers make the dual's solution the unconstrained fit,
        # which rises with N on this rising curve
        def no_constraints(M, d):
            return np.zeros(M.shape[1]), d

        monkeypatch.setattr(capmeter.estimators, "_nnls", no_constraints)
        n = np.rint(np.geomspace(50, 5000, 15)).astype(np.int64)
        curve = tmp_path / "rising.csv"
        write_curve_file(curve, n, np.linspace(0.1, 0.5, n.size),
                         np.full(n.size, 0.01))
        code = cli.main(["fit", str(curve), "--method", "poly",
                         "--out", str(tmp_path / "f")])
        assert code == 4
        err = capsys.readouterr().err
        assert "SolverFailure" in err
        assert "violates its shape constraints" in err

    @pytest.mark.parametrize("grid", ["149:727:13log", "61:234:12log",
                                      "189:953:12log"])
    def test_noiseless_power_law_fits(self, tmp_path, grid):
        # the NNLS dual once emptied its positive set on these curves and
        # crashed on an empty SVD; their stderr once came from unit weights
        # taken as an sd of 1, up to 32391
        n = np.array(cli.parse_grid(grid))
        curve = tmp_path / "c.curve"
        write_curve_file(curve, n, 0.05 + 1.0 / n, np.zeros(n.size))
        assert cli.main(["fit", str(curve), "--out", str(tmp_path / "f")]) == 0
        poly = json.loads((tmp_path / "f.json").read_text())["poly"]
        for point in poly["capacity_by_n"]:
            assert point["value"] == pytest.approx(1.0, abs=1e-4)
            assert point["stderr"] < 1e-4

    @pytest.mark.parametrize("method", ["both", "sigmoid"])
    def test_singular_sigmoid_covariance_exits_4(self, tmp_path, capsys,
                                                 method):
        # one stderr of 3e-18 leaves the (a, u_inf) block of the sigmoid
        # covariance singular; its inverse once crashed with a LinAlgError
        n = np.array(cli.parse_grid("150:5000:14log"))
        u = 0.3 + 2.0 / n + np.random.default_rng(1).normal(0.0, 1e-3, n.size)
        se = np.full(n.size, 1e-3)
        se[-1] = 3e-18
        curve = tmp_path / "c.curve"
        write_curve_file(curve, n, u, se)
        code = cli.main(["fit", str(curve), "--method", method,
                         "--out", str(tmp_path / "f")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: DegenerateCurve: sigmoid covariance")
        assert "Traceback" not in err

    def test_params_below_one_exits_2_before_fitting(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before --params was checked")

        monkeypatch.setattr(cli, "fit_sigmoid_capacity", no_fit)
        monkeypatch.setattr(cli, "fit_monotone_polynomial", no_fit)
        n = np.rint(np.geomspace(30, 150, 9)).astype(np.int64)
        curve = tmp_path / "curve.csv"
        write_curve_file(curve, n, 0.5 + 1.0 / n, np.full(n.size, 0.01))
        out = tmp_path / "f"
        code = cli.main(["fit", str(curve), "--method", "both",
                         "--params", "0", "--out", str(out)])
        assert code == 2
        assert "--params must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "f.txt").exists()
        assert not (tmp_path / "f.json").exists()

    @staticmethod
    def _curve_rows():
        n = np.rint(np.geomspace(30, 150, 9)).astype(np.int64).tolist()
        return [f"{nn},{0.5 + 1.0 / nn!r},0.01,10" for nn in n]

    def test_repeated_n_exits_2_naming_its_line(self, tmp_path, capsys):
        rows = self._curve_rows()
        curve = tmp_path / "curve.csv"
        curve.write_text("\n".join([CURVE_HEADER, *rows, rows[4]]) + "\n")
        code = cli.main(["fit", str(curve), "--out", str(tmp_path / "f")])
        assert code == 2
        n = rows[4].split(",")[0]
        assert (f"error: DuplicateKey: duplicate key ({n},) at line 11"
                in capsys.readouterr().err)
        assert not (tmp_path / "f.txt").exists()

    def test_record_count_below_1_exits_2(self, tmp_path, capsys):
        rows = self._curve_rows()
        rows[2] = rows[2].replace(",10", ",-4")
        rows[5] = rows[5].replace(",10", ",0")
        curve = tmp_path / "curve.csv"
        curve.write_text("\n".join([CURVE_HEADER, *rows]) + "\n")
        code = cli.main(["fit", str(curve), "--out", str(tmp_path / "f")])
        assert code == 2
        assert ("error: InvalidArgument: curve record_count must be >= 1"
                in capsys.readouterr().err)
        assert not (tmp_path / "f.txt").exists()

    @pytest.mark.parametrize("header, row", [
        (RECORD_HEADER, "d,{n},0,0,0,1.0,5"), (CURVE_HEADER, "{n},0.4,0.1,3"),
    ], ids=["records", "curve"])
    def test_n_beyond_64_bits_exits_2(self, tmp_path, capsys, header, row):
        path = tmp_path / "input"
        path.write_text("\n".join([header, row.format(n=10),
                                   row.format(n=2 ** 70)]) + "\n")
        assert cli.main(["fit", str(path), "--out", str(tmp_path / "f")]) == 2
        assert ("error: InvalidArgument: curve N and record_count must fit "
                "in 64 bits" in capsys.readouterr().err)

    def test_garbage_header_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("who,what,when\n1,2,3\n")
        code = cli.main(["fit", str(bad), "--out", str(tmp_path / "f")])
        assert code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_plot_is_deterministic(self, tmp_path, monkeypatch):
        n = np.rint(np.geomspace(1e3, 1e6, 12)).astype(np.int64)
        u = [truth_energy(50.0, 12.0, 2.0, 0.05, nn) for nn in n]
        svgs = []
        for sub in ("one", "two"):
            workdir = tmp_path / sub
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            write_curve_file(workdir / "curve.csv", n, u,
                             np.full(n.size, 1e-4))
            assert cli.main(["fit", "curve.csv", "--method", "sigmoid",
                             "--plot", "--out", "fit"]) == 0
            svgs.append((workdir / "fit.svg").read_bytes())
        assert svgs[0] == svgs[1]
        body = svgs[0].decode()
        assert body.lstrip().startswith("<svg")
        assert "manifest: see fit.json" in body
        assert "timestamp" not in body

    def test_poly_plot_draws_one_capacity_point_per_n(self, tmp_path):
        # without a sigmoid the chart's capacity panel plots the poly's
        # capacity_by_n
        n = np.rint(np.geomspace(50, 5000, 12)).astype(np.int64)
        write_curve_file(tmp_path / "curve.csv", n, 0.05 + 2.0 / n,
                         np.full(n.size, 1e-4))
        out = tmp_path / "fit"
        assert cli.main(["fit", str(tmp_path / "curve.csv"), "--method", "poly",
                         "--plot", "--out", str(out)]) == 0
        body = (tmp_path / "fit.svg").read_text()
        energy, capacity = body.split("capacity vs N")
        assert energy.count("<circle") == capacity.count("<circle") == n.size
        assert "manifest: see fit.json" in energy


class TestOracle:
    def test_exact_capacity_example(self, capsys):
        code = cli.main(["oracle", "--lambda", "1,1", "--eps", "1",
                         "--n", "1000000000", "--exact"])
        assert code == 0
        assert capsys.readouterr().out == "capacity_exact 1.0\n"

    def test_effective_dim_example(self, capsys):
        code = cli.main(["oracle", "--lambda", "1,0.1,0.001", "--eps", "0.2",
                         "--dim-at", "101"])
        assert code == 0
        assert capsys.readouterr().out == "effective_dim@101 3\n"

    def test_harmonic_mean_flavour(self, capsys):
        code = cli.main(["oracle", "--lambda", "2,2", "--eps", "1", "--hm"])
        assert code == 0
        assert capsys.readouterr().out == "capacity_hm 0.5\n"

    def test_pacbayes_bound_matches_library(self, capsys):
        spectrum = HessianSpectrum(eigenvalues=(1.0, 0.25), epsilon=0.5)
        expected = pacbayes_bound(spectrum, 200, 0.1, 2.0)
        code = cli.main(["oracle", "--lambda", "1,0.25", "--eps", "0.5",
                         "--n", "200", "--kappa", "0.1", "--dist2", "2.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == f"pacbayes_bound {round(expected, 6)}\n"

    def test_spectrum_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "spec.txt"
        path.write_text("# epsilon=0.2\n1.0\n0.1\n0.001\n")
        code = cli.main(["oracle", "--spectrum", str(path), "--dim-at", "101"])
        assert code == 0
        assert capsys.readouterr().out == "effective_dim@101 3\n"

    def test_spectrum_file_missing_epsilon_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n0.1\n")
        code = cli.main(["oracle", "--spectrum", str(path), "--dim-at", "10"])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_no_quantity_selected_exits_2(self, capsys):
        code = cli.main(["oracle", "--lambda", "1,1", "--eps", "1"])
        assert code == 2
        assert "nothing to compute" in capsys.readouterr().err

    def test_exact_without_n_exits_2(self, capsys):
        assert cli.main(["oracle", "--lambda", "1,1", "--eps", "1",
                         "--exact"]) == 2
        assert "--n" in capsys.readouterr().err

    def test_inline_spectrum_without_eps_exits_2(self, capsys):
        assert cli.main(["oracle", "--lambda", "1,1", "--hm"]) == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        (["--lambda", "5,5,5"], "not allowed with argument --spectrum"),
        (["--eps", "0.1"], "--eps is for --lambda"),
    ], ids=["lambda", "eps"])
    def test_spectrum_file_excludes_inline_values(self, tmp_path, capsys,
                                                  extra, message):
        # the file's values would otherwise be used and the flags ignored
        path = tmp_path / "spec.txt"
        path.write_text("# epsilon=1.0\n2.0\n2.0\n")
        code = cli.main(["oracle", "--spectrum", str(path), "--hm"] + extra)
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestCompare:
    def reports(self, tmp_path, flip_losses=False):
        ns = [100, 200, 400]
        sign = -1.0 if flip_losses else 1.0
        paths = []
        for i, label in enumerate(["small", "medium", "big"]):
            caps = [10.0 * (i + 1) + 0.1 * j for j in range(3)]
            losses = [0.5 + sign * (0.1 * i + 0.02 * j) for j in range(3)]
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps(fit_report(label, ns, losses, caps)))
            paths.append(str(path))
        return paths

    def test_concordant_models_give_tau_one(self, tmp_path, capsys):
        paths = self.reports(tmp_path)
        out = tmp_path / "cmp"
        assert cli.main(["compare", *paths, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        for n in (100, 200, 400):
            assert f"tau@{n} 1.0" in stdout
        payload = json.loads((tmp_path / "cmp.json").read_text())
        assert payload["shared_n"] == [100, 200, 400]
        assert payload["regression"]["slope"] > 0
        assert payload["regression"]["p_value"] < 0.05
        assert [r["label"] for r in payload["ranked"]] == [
            "small", "medium", "big"]

    def test_discordant_models_give_tau_minus_one(self, tmp_path, capsys):
        paths = self.reports(tmp_path, flip_losses=True)
        assert cli.main(["compare", *paths,
                         "--out", str(tmp_path / "cmp")]) == 0
        assert "tau@400 -1.0" in capsys.readouterr().out

    def test_single_shared_n_refuses_regression(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(fit_report("a", [100], [0.5], [10.0])))
        b.write_text(json.dumps(fit_report("b", [100], [0.4], [20.0])))
        assert cli.main(["compare", str(a), str(b),
                         "--out", str(tmp_path / "cmp")]) == 0
        captured = capsys.readouterr()
        assert "regression refused, needs >= 3 (model, N) points" in captured.err
        assert "regression refused: fewer than 3 points" in captured.out
        assert "tau@100 -1.0" in captured.out

    def test_equal_capacities_report_tied_tau(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(fit_report("a", [100, 200], [0.5, 0.4],
                                           [7.0, 7.0])))
        b.write_text(json.dumps(fit_report("b", [100, 200], [0.6, 0.5],
                                           [7.0, 7.0])))
        assert cli.main(["compare", str(a), str(b),
                         "--out", str(tmp_path / "cmp")]) == 0
        captured = capsys.readouterr()
        assert "tau@100 tied" in captured.out
        assert "refused: capacities all equal" in captured.out

    def test_single_report_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(fit_report("a", [100, 200], [0.5, 0.4],
                                           [10.0, 12.0])))
        assert cli.main(["compare", str(a),
                         "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert "ConfigError" in err
        assert "two or more fit .json reports, got 1" in err
        assert not (tmp_path / "cmp.json").exists()

    @pytest.mark.parametrize("text, reason", [
        ("not json\n", "is not JSON"),
        (json.dumps({"label": "a", "sigmoid": {"capacity_by_n": [
            {"n": 100, "value": 1.0}]}}), "is not a fit report: KeyError: 'n'"),
    ], ids=["not-json", "no-curve"])
    def test_malformed_report_exits_2(self, tmp_path, capsys, text, reason):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(text)
        b.write_text(json.dumps(fit_report("b", [100], [0.4], [20.0])))
        assert cli.main(["compare", str(a), str(b),
                         "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert "error: ParseError: " in err
        assert f"{a} {reason}" in err
        assert not (tmp_path / "cmp.json").exists()

    def test_no_overlap_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(fit_report("a", [100], [0.5], [10.0])))
        b.write_text(json.dumps(fit_report("b", [300], [0.4], [20.0])))
        assert cli.main(["compare", str(a), str(b),
                         "--out", str(tmp_path / "cmp")]) == 2
        assert "no overlapping sample sizes" in capsys.readouterr().err


    def test_mixed_scales_exit_2(self, run_dir, sgld_fit_dir, tmp_path, capsys):
        nll = tmp_path / "run-fit"
        assert cli.main(["fit", str(run_dir / "records.csv.curve"),
                         "--method", "sigmoid", "--out", str(nll)]) == 0
        out = tmp_path / "ranking"
        code = cli.main(["compare", str(nll) + ".json",
                         str(sgld_fit_dir / "sgld-fit.json"), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert ("error: ConfigError: fit reports mix energy scales: "
                "records.csv=nll, sgld=probability-complement") in err
        assert not (tmp_path / "ranking.txt").exists()


class TestSgld:
    def test_non_differentiable_learner_exits_2(self, tmp_path, capsys):
        code = cli.main(["sgld", "--learner", "knn", "--schedule", "5,10",
                         "--step", "0.01", "--out", str(tmp_path / "s")])
        assert code == 2
        assert ("argument --learner: invalid choice: 'knn'"
                in capsys.readouterr().err)

    def test_quadratic_capacity_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "sgld.csv"
        code = cli.main(["sgld", "--learner", "quadratic", "--lambda", "1,1",
                         "--schedule", "5,10", "--step", "0.003",
                         "--chains", "4", "--equil", "1500",
                         "--samples", "12000", "--prior-eps", "1",
                         "--seed", "3", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        match = re.search(r"C\(5\) = ([-0-9.e]+) \+/- ([0-9.e]+)", stdout)
        assert match is not None
        assert abs(float(match.group(1)) - 25.0 / 84.0) < 0.15
        assert "# scale=probability-complement" in out.read_text()
        caps_text = (tmp_path / "sgld.csv.capacities").read_text()
        assert "capacity@5" in caps_text
        assert "surviving_chains 4" in caps_text

    def test_schedule_beyond_dataset_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "tiny.csv"
        rng = np.random.default_rng(1)
        csv.write_text("\n".join(f"{float(a)!r},{int(a > 0)}"
                                 for a in rng.normal(size=12)) + "\n")
        code = cli.main(["sgld", "--learner", "logistic", "--data", str(csv),
                         "--schedule", "4,8,200", "--step", "0.01",
                         "--chains", "2", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "ScheduleExhaustsData" in capsys.readouterr().err

    def write_csv(self, path, rows):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(rows, 2))
        path.write_text("".join(f"{float(a)!r},{float(b)!r},{int(a + b > 0)}\n"
                                for a, b in x))

    def test_data_holds_out_the_heldout_rows(self, tmp_path):
        # the held-out pool is --heldout-rows rows from N_max on, not every
        # row past N_max, and the manifest records the count that ran
        csv, out = tmp_path / "d.csv", tmp_path / "s"
        self.write_csv(csv, 60)
        assert cli.main(["sgld", "--learner", "logistic", "--data", str(csv),
                         "--schedule", "8,16", "--step", "0.01",
                         "--chains", "2", "--equil", "2", "--samples", "3",
                         "--heldout-rows", "10", "--out", str(out)]) == 0
        assert {r.heldout_count for r in ingest_records(out)} == {3 * 10}
        assert manifest_config(out)["heldout_rows"] == "10"

    def test_data_shorter_than_the_heldout_rows_exits_2(self, tmp_path,
                                                         capsys):
        csv, out = tmp_path / "d.csv", tmp_path / "s"
        self.write_csv(csv, 20)
        code = cli.main(["sgld", "--learner", "logistic", "--data", str(csv),
                         "--schedule", "8,16", "--step", "0.01",
                         "--chains", "2", "--heldout-rows", "10",
                         "--out", str(out)])
        assert code == 2
        assert ("error: ScheduleExhaustsData: schedule point 16 and 10 "
                "held-out rows need 26 rows but the dataset has 20"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("rows", ["0", "-5"])
    def test_heldout_rows_below_one_exits_2(self, tmp_path, capsys, rows):
        code = cli.main(["sgld", "--learner", "logistic",
                         "--synthetic", "d=2,seed=1", "--schedule", "8,16",
                         "--step", "0.01", "--chains", "2",
                         "--heldout-rows", rows, "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"ConfigError: heldout_rows must be >= 1, got {rows}" in err
        assert not (tmp_path / "s").exists()

    def test_schedule_below_two_exits_2_before_sampling(self, tmp_path, capsys,
                                                        monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(cli, "run_incremental_protocol", no_sampling)
        code = cli.main(["sgld", "--learner", "quadratic", "--lambda", "1",
                         "--schedule", "1,2", "--step", "0.01", "--chains", "1",
                         "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: ConfigError: schedule sample sizes must be >= 2" in err
        assert not (tmp_path / "s").exists()

    def test_majority_chain_failure_exits_3(self, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(["sgld", "--learner", "logistic",
                             "--synthetic", "d=2,seed=1", "--schedule", "8,16",
                             "--step", "1e8", "--chains", "2", "--equil", "60",
                             "--samples", "3", "--seed", "0",
                             "--out", str(tmp_path / "s")])
        assert code == 3
        assert "NonFiniteState" in capsys.readouterr().err

    def test_unstable_quadratic_step_exits_2_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        # at step 0.002 the N=2048 window's factor 1 - h*k/2 is -1.049, so
        # unguarded the state grows, the readout saturates and the command
        # prints C(1024) = -1022.27 +/- 0.05 with exit 0
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(capmeter.sgld, "_window_quadratic", no_sampling)
        monkeypatch.setattr(capmeter.sgld, "_window_stack", no_sampling)
        argv = [("0.002" if a == "0.001" else a) for a in SGLD_ARGV]
        code = cli.main(argv + ["--out", str(tmp_path / "s")])
        assert code == 2
        assert ("error: ConfigError: step 0.002 is unstable at N=2048, "
                "lambda_max=1.0: h*(N*lambda_max + prior_eps) = ") in (
                    capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_capacities_curve_is_the_fit_curve_of_its_records(self, tmp_path):
        # with 3 held-out rows a chain's mean of 1 - p and its record's
        # nll_sum / heldout_count can differ in the last bit; the .capacities
        # curve must be the records' curve, as fit reads it
        out = tmp_path / "s"
        assert cli.main(["sgld", "--learner", "logistic",
                         "--synthetic", "d=5,hidden=2,seed=2",
                         "--schedule", "64,128,256", "--step", "1e-3",
                         "--chains", "4", "--equil", "5", "--samples", "9",
                         "--heldout-rows", "3", "--seed", "1",
                         "--out", str(out)]) == 0
        fields = dict(line.split(" ", 1) for line in
                      data_lines((tmp_path / "s.capacities").read_text()))
        curve = cli._load_curve_input(str(out))  # the curve fit reads
        for n, u, se, _ in curve.points:
            assert float(fields[f"u@{n}"]) == u
            assert float(fields[f"u_stderr@{n}"]) == se


# every flag whose setting a library object owns, by subcommand
LIBRARY_FLAGS = {
    "run": ["--boots", "--folds", "--seeds", "--seed", "--l2", "--epochs",
            "--hidden", "--lr", "--batch", "--k", "--alpha", "--sigma"],
    "sgld": ["--chains", "--equil", "--samples", "--batch", "--prior-eps",
             "--heldout-rows", "--seed", "--hidden", "--lambda", "--synthetic",
             "--data"],
}
REQUIRED_ONLY = {
    "run": ["run", "--learner", "logistic", "--n-grid", "10,20", "--out", "r"],
    "sgld": ["sgld", "--learner", "quadratic", "--schedule", "4,8",
             "--step", "0.01", "--out", "s"],
}
SMALL_RUN = ["run", "--synthetic", "d=2,seed=1", "--n-grid", "10,20",
             "--boots", "1", "--folds", "2", "--seeds", "1"]
SMALL_SGLD = ["sgld", "--schedule", "4,8", "--step", "0.01", "--chains", "2",
              "--equil", "1", "--samples", "2", "--heldout-rows", "4"]
RUN_SETTINGS = {"k_folds": "2", "m_seeds": "1", "master_seed": "0",
                "n_boots": "1", "n_grid": "10,20"}
SGLD_SETTINGS = {"batch_size": "64", "chains": "2", "equilibration_epochs": "1",
                 "heldout_rows": "4", "n_schedule": "4,8", "prior_eps": "1.0",
                 "samples_per_window": "2", "seed": "0", "step_size": "0.01"}


def manifest_config(path):
    """The ``config`` manifest line of an output file, as a dict."""
    prefix = "# manifest: config = "
    [line] = [ln for ln in path.read_text().splitlines()
              if ln.startswith(prefix)]
    return dict(item.split("=", 1) for item in line[len(prefix):].split(" "))


# the exit code of each error type: 4 for the estimator failures, 3 for
# training and chain failures, 2 for everything else
FIT_ERRORS = {"FitFailure", "InsufficientPoints", "SolverFailure",
              "FitDiverged", "DegenerateCurve", "OutOfRange",
              "QuadratureFailure", "UndefinedThreshold", "AllTied",
              "DegenerateDesign"}
TRAINING_ERRORS = {"TrainingFailure", "EmptyTrainingSet", "NonFiniteLoss",
                   "NonFiniteState"}
ERROR_TYPES = sorted((obj for obj in vars(errors).values()
                      if isinstance(obj, type)
                      and issubclass(obj, errors.CapmeterError)),
                     key=lambda cls: cls.__name__)


class TestExitCodes:
    def test_table_names_existing_types(self):
        assert FIT_ERRORS | TRAINING_ERRORS <= {c.__name__ for c in ERROR_TYPES}

    @pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
    def test_each_error_type_carries_its_exit_code(self, cls):
        want = (4 if cls.__name__ in FIT_ERRORS
                else 3 if cls.__name__ in TRAINING_ERRORS else 2)
        assert cls.exit_code == want


class TestSettings:
    """Each setting has one owner: the library object that reads it."""

    @pytest.mark.parametrize("command", sorted(LIBRARY_FLAGS))
    def test_library_owned_flags_have_no_parser_default(self, command):
        args = cli.build_parser().parse_args(REQUIRED_ONLY[command])
        for flag in LIBRARY_FLAGS[command]:
            assert getattr(args, flag[2:].replace("-", "_")) is None, flag
        assert ({"--" + dest.replace("_", "-")
                 for reader in cli._READERS[command].values()
                 for dest in reader} == set(LIBRARY_FLAGS[command]))

    @pytest.mark.parametrize("command, config", [("run", ProtocolConfig),
                                                 ("sgld", SgldConfig)])
    def test_every_config_field_has_one_flag(self, command, config):
        # the required --n-grid, --schedule and --step set the other fields
        fields = ({field.name for field in dataclasses.fields(config)}
                  - {"step_size", "n_schedule", "n_grid"})
        readers = cli._READERS[command]["config"]
        assert sorted(readers.values()) == sorted(fields)
        args = cli.build_parser().parse_args(REQUIRED_ONLY[command])
        for dest in readers:
            assert getattr(args, dest) is None, dest

    @pytest.mark.parametrize("learner, make", [("logistic", logistic_learner),
                                               ("knn", knn_learner)])
    def test_bare_run_is_the_library_default(self, tmp_path, learner, make):
        out = tmp_path / "r"
        assert cli.main(["run", "--learner", learner,
                         "--synthetic", "d=2,seed=1", "--n-grid", "10,20",
                         "--out", str(out)]) == 0
        result = run_protocol(gen_synthetic(SyntheticConfig(d=2, seed=1), 20),
                              make(), ProtocolConfig(n_grid=(10, 20)),
                              dataset_id="synthetic-d2-kappa0-m2-h1000-seed1")
        assert ingest_records(out) == list(result.records)

    @pytest.mark.parametrize("argv, settings", [
        (SMALL_RUN + ["--learner", "logistic", "--jobs", "1"],
         dict(RUN_SETTINGS, learner="logistic", l2="0.001", epochs="2000")),
        (SMALL_RUN + ["--learner", "mlp", "--epochs", "2"],
         dict(RUN_SETTINGS, learner="mlp", hidden="16", epochs="2",
              lr_max="0.1", batch="64")),
        (SMALL_RUN + ["--learner", "knn", "--k", "3"],
         dict(RUN_SETTINGS, learner="knn", k="3", alpha="1.0", sigma="1.0")),
        (SMALL_SGLD + ["--learner", "quadratic", "--lambda", "1,0.5"],
         dict(SGLD_SETTINGS, learner="quadratic", eigenvalues="1.0,0.5")),
        (SMALL_SGLD + ["--learner", "logistic", "--synthetic", "d=2",
                       "--prior-eps", "0"],
         dict(SGLD_SETTINGS, learner="logistic", prior_eps="0.0")),
        (SMALL_SGLD + ["--learner", "mlp", "--synthetic", "d=2"],
         dict(SGLD_SETTINGS, learner="mlp", hidden="16")),
    ], ids=["run-logistic", "run-mlp", "run-knn", "sgld-quadratic",
            "sgld-logistic", "sgld-mlp"])
    def test_manifest_holds_the_settings_that_ran(self, tmp_path, capsys,
                                                  argv, settings):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert "warning:" not in capsys.readouterr().err
        assert manifest_config(out) == settings
        companion = "out.curve" if argv[0] == "run" else "out.capacities"
        assert manifest_config(tmp_path / companion) == settings

    @pytest.mark.parametrize("argv, learner, flag, key", [
        (SMALL_RUN + ["--learner", "mlp", "--epochs", "2", "--l2", "5"],
         "mlp", "--l2", "l2"),
        (SMALL_RUN + ["--learner", "knn", "--epochs", "3"],
         "knn", "--epochs", "epochs"),
        (SMALL_SGLD + ["--learner", "quadratic", "--lambda", "1",
                       "--synthetic", "d=2"],
         "quadratic", "--synthetic", "synthetic"),
        (SMALL_SGLD + ["--learner", "logistic", "--synthetic", "d=2",
                       "--lambda", "1"],
         "logistic", "--lambda", "eigenvalues"),
    ], ids=["mlp-l2", "knn-epochs", "quadratic-synthetic", "logistic-lambda"])
    def test_unread_flag_is_warned_and_left_out(self, tmp_path, capsys,
                                                argv, learner, flag, key):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("warning:")]
        assert warnings == [
            f"warning: the {learner} learner does not read {flag}; ignored"]
        assert key not in manifest_config(out)

    def test_removed_prior_flag_exits_2(self, tmp_path, capsys):
        code = cli.main(REQUIRED_ONLY["sgld"][:-1] + [
            str(tmp_path / "s"), "--lambda", "1", "--prior", "uniform"])
        assert code == 2
        assert "unrecognized arguments: --prior uniform" in (
            capsys.readouterr().err)


NOTES = ["# note", "", "   ", "\t# indented note"]
READERS = {  # good lines, a bad line, the reader, what to compare
    "records": ([RECORD_HEADER, "d,10,0,0,0,1.5,2", "d,10,0,1,0,0.5,2"],
                "d,20,0,0,0,oops,2", ingest_records, lambda records: records),
    "curve": ([CURVE_HEADER, "10,0.5,0.1,3", "20,0.25,0.05,3"],
              "30,oops,0.1,3", cli._load_curve_input,
              lambda curve: (curve.points, curve.scale)),
    "tabular": (["0.0,1.0,0", "1.0,0.0,1", "0.5,0.5,0"], "1.0,oops,1",
                load_tabular,
                lambda data: (data.inputs.tolist(), data.labels.tolist())),
    "spectrum": (["# epsilon=0.5", "1.0", "2.0"], "oops", load_spectrum,
                 lambda spec: (spec.eigenvalues.tolist(), spec.epsilon)),
}
# the columns a field can be bad in: a record's dataset id takes any text
BAD_COLUMNS = {"records": range(2, 8), "curve": range(1, 5),
               "tabular": range(1, 4), "spectrum": range(1, 2)}


class TestLineReaders:
    """The record, curve, tabular and spectrum readers skip blank,
    whitespace-only and '#' lines alike, with LF or CRLF endings, and a
    ParseError counts every line of the file."""

    @pytest.mark.parametrize("reader, column", [
        (reader, column) for reader, columns in sorted(BAD_COLUMNS.items())
        for column in columns])
    def test_bad_field_reports_line_and_column(self, tmp_path, reader, column):
        good, _, read, _ = READERS[reader]
        fields = good[-1].split(",")
        fields[column - 1] = "x"
        lines = [*NOTES, *good[:-1], ",".join(fields)]
        path = tmp_path / "file"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read(path)
        assert (err.value.line, err.value.column) == (len(lines), column)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_notes_are_skipped_and_counted(self, tmp_path, reader, newline):
        good, bad, read, view = READERS[reader]
        clean = tmp_path / "clean"
        clean.write_text("\n".join(good) + "\n")
        lines = [*NOTES, good[0], *NOTES, *good[1:], *NOTES]
        noisy = tmp_path / "noisy"
        noisy.write_bytes("".join(line + newline for line in lines).encode())
        assert view(read(noisy)) == view(read(clean))
        noisy.write_bytes("".join(line + newline
                                  for line in lines + [bad]).encode())
        with pytest.raises(ParseError) as err:
            read(noisy)
        assert err.value.line == len(lines) + 1 == 16
