"""Tests for the measurement protocol: planning, aggregation, record files."""

import math

import numpy as np
import pytest

from capmeter.errors import (
    ConfigError,
    DuplicateKey,
    EmptyGroup,
    EmptyTrainingSet,
    InvalidArgument,
    InvariantViolation,
    NonFinite,
    ParseError,
    TrainingFailure,
)
from capmeter.learners import (
    Learner,
    SyntheticConfig,
    gen_synthetic,
    knn_learner,
    logistic_learner,
    mlp_learner,
)
from capmeter.protocol import (
    EnergyCurve,
    EnergyRecord,
    Job,
    ProtocolConfig,
    _evaluate_group,
    clamped_nll_terms,
    default_n_grid,
    estimate_avg_energy,
    ingest_records,
    plan_experiment,
    read_table,
    run_protocol,
    write_records,
    write_table,
)


class FakeDataset:
    def __init__(self, labels):
        self.labels = np.asarray(labels, dtype=np.float64)

    @property
    def n_rows(self):
        return self.labels.size


class MeanModel:
    """Deterministic model: nll term is squared error to the train-label mean."""

    def __init__(self, mu):
        self.mu = mu

    def nll_terms(self, dataset, rows):
        y = dataset.labels[np.asarray(rows)]
        return (y - self.mu) ** 2 + 0.1


class MeanLearner(Learner):
    """Fits the train-label mean and scores each job it is handed, logging
    the jobs of every ``score_many`` call.  Declares nothing, so it counts
    as a learner that uses the seed."""

    def __init__(self, fail_at=None):
        self.groups = []
        self.fail_at = fail_at

    def fit(self, dataset, rows, seed):
        return MeanModel(float(np.mean(dataset.labels[np.asarray(rows)])))

    def score_many(self, dataset, jobs):
        self.groups.append(list(jobs))
        if self.fail_at is not None:
            raise TrainingFailure("diverged", job=jobs[self.fail_at])
        return [self.fit(dataset, job.train_rows, job.seed).nll_terms(
            dataset, job.heldout_rows) for job in jobs]

    def sizes(self):
        return [[job.sample_size for job in group] for group in self.groups]

    def handed(self):
        """(N, boot, fold, seed index) of every job scored, in order."""
        return [job_key(job) for group in self.groups for job in group]


class SeedFreeMeanLearner(MeanLearner):
    USES_SEED = False


class FailsWithoutRowLearner(MeanLearner):
    """Fails on the first job whose training rows leave out one given row."""

    def __init__(self, row):
        super().__init__()
        self.row = row

    def score_many(self, dataset, jobs):
        for job in jobs:
            if self.row not in job.train_rows:
                raise TrainingFailure("diverged", job=job)
        return super().score_many(dataset, jobs)


class FixedTermsLearner(Learner):
    def __init__(self, terms):
        self.terms = np.asarray(terms, dtype=np.float64)

    def score_many(self, dataset, jobs):
        return [self.terms[: job.heldout_rows.size] for job in jobs]


def job_key(job):
    return (job.sample_size, job.boot_index, job.fold_index, job.seed_index)


def per_job_records(dataset, learner, jobs, dataset_id="data"):
    """(records, clamp events) from one ``fit`` and ``nll_terms`` per job."""
    records, events = [], 0
    for job in jobs:
        model = learner.fit(dataset, job.train_rows, job.seed)
        terms, ev = clamped_nll_terms(model.nll_terms(dataset, job.heldout_rows))
        records.append(EnergyRecord(dataset_id, job.sample_size, job.boot_index,
                                    job.fold_index, job.seed_index,
                                    float(np.sum(terms)),
                                    int(job.heldout_rows.size)))
        events += ev
    return records, events


def make_record(n, boot=0, fold=0, seed=0, nll=1.0, count=1, dataset_id="d"):
    return EnergyRecord(dataset_id, n, boot, fold, seed, nll, count)


class TestConfig:
    def test_defaults(self):
        cfg = ProtocolConfig(n_grid=(10, 20))
        assert (cfg.n_boots, cfg.k_folds, cfg.m_seeds) == (4, 5, 5)

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n_grid=())

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n_grid=(10, 10))

    def test_rejects_n_below_folds(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n_grid=(4,), k_folds=5)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            ProtocolConfig(n_grid=(10,), n_boots=0)
        with pytest.raises(ConfigError):
            ProtocolConfig(n_grid=(10,), k_folds=1)

    def test_default_grid_shape(self):
        grid = default_n_grid()
        assert grid[0] == 50 and grid[-1] == 5000
        assert len(grid) == 12
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestRecordValidation:
    def test_rejects_zero_heldout(self):
        with pytest.raises(InvariantViolation):
            make_record(10, count=0)

    def test_rejects_negative_index(self):
        with pytest.raises(InvariantViolation):
            make_record(10, boot=-1)

    def test_rejects_nan_nll(self):
        with pytest.raises(NonFinite):
            make_record(10, nll=float("nan"))

    def test_rejects_tiny_sample_size(self):
        with pytest.raises(InvariantViolation):
            make_record(1)


class TestPlan:
    def test_two_fold_plan_on_four_rows(self):
        cfg = ProtocolConfig(n_grid=(4,), n_boots=1, k_folds=2, m_seeds=1)
        jobs = plan_experiment(cfg, dataset_size=4)
        assert len(jobs) == 2
        assert {j.heldout_rows.size for j in jobs} == {2}
        pooled = np.sort(np.concatenate([j.heldout_rows for j in jobs]))
        # heldout folds partition the bootstrap draw
        full = np.sort(np.concatenate([jobs[0].heldout_rows, jobs[0].train_rows]))
        assert np.array_equal(pooled, full)

    def test_job_count(self):
        cfg = ProtocolConfig(n_grid=(10,), n_boots=4, k_folds=5, m_seeds=5)
        assert len(plan_experiment(cfg, 50)) == 100

    def test_fold_sizes_differ_by_at_most_one(self):
        cfg = ProtocolConfig(n_grid=(13,), n_boots=2, k_folds=5, m_seeds=1)
        jobs = plan_experiment(cfg, 40)
        sizes = [j.heldout_rows.size for j in jobs]
        assert set(sizes) == {2, 3}
        assert sum(sizes[:5]) == 13

    def test_train_plus_heldout_is_n(self):
        cfg = ProtocolConfig(n_grid=(17, 23), n_boots=2, k_folds=4, m_seeds=2)
        for job in plan_experiment(cfg, 30):
            assert job.train_rows.size + job.heldout_rows.size == job.sample_size

    def test_rows_within_dataset(self):
        cfg = ProtocolConfig(n_grid=(12,), n_boots=3, k_folds=3, m_seeds=1)
        for job in plan_experiment(cfg, 15):
            rows = np.concatenate([job.train_rows, job.heldout_rows])
            assert rows.min() >= 0 and rows.max() < 15

    def test_seeds_distinct_across_jobs(self):
        cfg = ProtocolConfig(n_grid=(10, 20), n_boots=2, k_folds=2, m_seeds=3)
        seeds = [j.seed for j in plan_experiment(cfg, 25)]
        assert len(seeds) == len(set(seeds))

    def test_plan_is_deterministic(self):
        cfg = ProtocolConfig(n_grid=(10,), n_boots=2, k_folds=2, m_seeds=2,
                             master_seed=7)
        a = plan_experiment(cfg, 20)
        b = plan_experiment(cfg, 20)
        for ja, jb in zip(a, b):
            assert ja.seed == jb.seed
            assert np.array_equal(ja.train_rows, jb.train_rows)
            assert np.array_equal(ja.heldout_rows, jb.heldout_rows)

    def test_master_seed_changes_plan(self):
        base = dict(n_grid=(10,), n_boots=1, k_folds=2, m_seeds=1)
        a = plan_experiment(ProtocolConfig(master_seed=0, **base), 20)
        b = plan_experiment(ProtocolConfig(master_seed=1, **base), 20)
        assert not np.array_equal(a[0].train_rows, b[0].train_rows)

    def test_rejects_grid_exceeding_dataset(self):
        cfg = ProtocolConfig(n_grid=(100,), k_folds=5)
        with pytest.raises(ConfigError):
            plan_experiment(cfg, 50)


class TestClamp:
    def test_clamps_both_ends_and_counts(self):
        terms, events = clamped_nll_terms(np.array([0.5, 120.0, -3.0]))
        assert np.allclose(terms, [0.5, 50.0, 0.0])
        assert events == 2

    def test_no_events_inside_range(self):
        terms, events = clamped_nll_terms(np.array([0.0, 50.0, 7.0]))
        assert events == 0

    def test_group_counts_clamps(self):
        ds = FakeDataset([0.0, 1.0, 0.0, 1.0])
        job = Job(4, 0, 0, 0, 1, np.array([0, 1]), np.array([2, 3]))
        [(record, events)] = _evaluate_group(
            ds, FixedTermsLearner([200.0, 1.0]), [job], "d")
        assert record.nll_sum == pytest.approx(51.0)
        assert events == 1


class TestAggregation:
    def test_single_record_point(self):
        recs = [make_record(10, nll=5 * math.log(2), count=5)]
        curve = estimate_avg_energy(recs)
        assert curve.n.tolist() == [10]
        assert curve.u_mean[0] == pytest.approx(math.log(2))
        assert curve.u_stderr[0] == 0.0
        assert curve.record_count[0] == 1

    def test_two_replicates_mean_and_stderr(self):
        recs = [make_record(10, boot=0, nll=0.2 * 4, count=4),
                make_record(10, boot=1, nll=0.4 * 4, count=4)]
        curve = estimate_avg_energy(recs)
        assert curve.u_mean[0] == pytest.approx(0.3)
        assert curve.u_stderr[0] == pytest.approx(0.1)

    def test_folds_pool_within_replicate(self):
        # same (boot, seed): folds pool by summed nll over summed count
        recs = [make_record(10, fold=0, nll=2.0, count=4),
                make_record(10, fold=1, nll=4.0, count=2)]
        curve = estimate_avg_energy(recs)
        assert curve.u_mean[0] == pytest.approx(6.0 / 6.0)
        assert curve.u_stderr[0] == 0.0

    def test_scaling_invariance(self):
        recs = [make_record(20, boot=b, fold=f, nll=0.1 * (b + f + 1) * 3,
                            count=3)
                for b in range(3) for f in range(2)]
        scaled = [EnergyRecord(r.dataset_id, r.sample_size, r.boot_index,
                               r.fold_index, r.seed_index, 4 * r.nll_sum,
                               4 * r.heldout_count) for r in recs]
        a = estimate_avg_energy(recs)
        b = estimate_avg_energy(scaled)
        assert np.allclose(a.u_mean, b.u_mean)
        assert np.allclose(a.u_stderr, b.u_stderr)

    def test_curve_sorted_by_n(self):
        recs = [make_record(100, nll=1.0, count=2), make_record(10, nll=2.0, count=2)]
        curve = estimate_avg_energy(recs)
        assert curve.n.tolist() == [10, 100]

    def test_empty_records_raise(self):
        with pytest.raises(EmptyGroup):
            estimate_avg_energy([])

    def test_mixed_dataset_ids_rejected(self):
        recs = [make_record(10, dataset_id="a"), make_record(10, dataset_id="b")]
        with pytest.raises(InvalidArgument):
            estimate_avg_energy(recs)

    def test_curve_requires_increasing_n(self):
        with pytest.raises(InvalidArgument):
            EnergyCurve(np.array([10, 10]), np.zeros(2), np.zeros(2),
                        np.ones(2, dtype=int))


class TestRunProtocol:
    def test_end_to_end_deterministic(self):
        ds = FakeDataset(np.arange(30) % 2)
        cfg = ProtocolConfig(n_grid=(10, 20), n_boots=2, k_folds=2, m_seeds=2,
                             master_seed=3)
        a = run_protocol(ds, MeanLearner(), cfg)
        b = run_protocol(ds, MeanLearner(), cfg)
        assert a.records == b.records
        assert a.clamp_events == b.clamp_events

    def test_score_many_scores_each_sample_size_in_one_call(self):
        ds = FakeDataset(np.arange(30) % 3)
        cfg = ProtocolConfig(n_grid=(10, 13, 20), n_boots=2, k_folds=3,
                             m_seeds=2, master_seed=5)
        learner = MeanLearner()
        grouped = run_protocol(ds, learner, cfg)
        assert learner.sizes() == [[n] * 12 for n in (10, 13, 20)]
        records, events = per_job_records(ds, learner,
                                          plan_experiment(cfg, ds.n_rows))
        assert grouped.records == records
        assert grouped.clamp_events == events

    def test_seeded_learner_is_handed_every_job(self):
        ds = FakeDataset(np.arange(30) % 3)
        cfg = ProtocolConfig(n_grid=(10, 13), n_boots=2, k_folds=3, m_seeds=3)
        learner = MeanLearner()
        run_protocol(ds, learner, cfg)
        assert learner.handed() == [
            job_key(job) for job in plan_experiment(cfg, ds.n_rows)]

    def test_seed_free_learner_scores_each_distinct_job_once(self):
        ds = FakeDataset(np.arange(40) % 3)
        cfg = ProtocolConfig(n_grid=(10, 13, 20), n_boots=2, k_folds=3,
                             m_seeds=3, master_seed=2)
        jobs = plan_experiment(cfg, ds.n_rows)
        learner = SeedFreeMeanLearner()
        result = run_protocol(ds, learner, cfg)
        # one job per (N, boot, fold), the first of its seed copies
        assert learner.handed() == [job_key(job) for job in jobs
                                    if job.seed_index == 0]
        assert learner.sizes() == [[n] * 6 for n in (10, 13, 20)]
        # every copy keeps its record, with the terms of its distinct job
        records, events = per_job_records(ds, learner, jobs)
        assert result.records == records
        assert result.clamp_events == events

    def test_seed_free_learner_keys_on_row_contents(self):
        # separate arrays with equal rows are one job; any differing row is not
        ds = FakeDataset(np.arange(8) * 0.5)
        train, heldout = np.array([0, 1, 2, 2]), np.array([3])
        jobs = [Job(5, 0, 0, 0, 1, train, heldout),
                Job(5, 1, 0, 0, 2, train.copy(), heldout.copy()),
                Job(5, 2, 0, 0, 3, np.array([0, 1, 2, 3]), heldout),
                Job(5, 3, 0, 0, 4, train, np.array([4]))]
        learner = SeedFreeMeanLearner()
        results = _evaluate_group(ds, learner, jobs, "d")
        assert learner.handed() == [job_key(jobs[k]) for k in (0, 2, 3)]
        assert results[0][0].nll_sum == results[1][0].nll_sum
        assert [rec.boot_index for rec, _ in results] == [0, 1, 2, 3]

    def test_training_failure_names_its_job(self):
        ds = FakeDataset(np.arange(12) % 2)
        cfg = ProtocolConfig(n_grid=(10,), n_boots=1, k_folds=2, m_seeds=1)
        jobs = plan_experiment(cfg, ds.n_rows)
        with pytest.raises(TrainingFailure) as err:
            run_protocol(ds, MeanLearner(fail_at=1), cfg)
        assert err.value.job.fold_index == jobs[1].fold_index == 1
        learner = FailsWithoutRowLearner(int(jobs[0].heldout_rows[0]))
        with pytest.raises(TrainingFailure) as err:
            run_protocol(ds, learner, cfg)
        assert err.value.job.fold_index == 0

    def test_knn_empty_training_set_carries_its_job(self):
        ds = gen_synthetic(SyntheticConfig(d=2, seed=1), 10)
        rows = np.arange(8)
        jobs = [Job(10, 0, 0, s, s, rows, np.array([8, 9])) for s in (0, 1)]
        jobs += [Job(10, 0, 1, s, s, rows[:0], np.array([0, 1])) for s in (0, 1)]
        with pytest.raises(EmptyTrainingSet) as err:
            _evaluate_group(ds, knn_learner(k=3), jobs, "d")
        assert err.value.job is jobs[2]

    def test_mlp_records_match_per_job_evaluation(self):
        # grid points 33 and 47 give fold train sizes n and n - 1, so their
        # groups train as two stacks each
        ds = gen_synthetic(SyntheticConfig(d=4, kappa=0.5, teacher_hidden=3,
                                           seed=2), 60)
        learner = mlp_learner(hidden=3, epochs=5, lr_max=0.2, batch=8)
        cfg = ProtocolConfig(n_grid=(20, 33, 47), n_boots=2, k_folds=5,
                             m_seeds=2, master_seed=4)
        grouped = run_protocol(ds, learner, cfg)
        records, events = per_job_records(ds, learner,
                                          plan_experiment(cfg, ds.n_rows))
        assert len(grouped.records) == 60
        assert grouped.records == records
        assert grouped.clamp_events == events

    @pytest.mark.parametrize("learner", [
        logistic_learner(l2=1e-3, epochs=30),
        knn_learner(k=4, alpha=0.5),
    ], ids=["logistic", "knn"])
    def test_seed_free_records_match_per_job_fits_bitwise(self, learner):
        # N divisible by k_folds: every job of a group has one training-set
        # size, so a stacked logistic fit pads nothing and matches its
        # one-job fit bit for bit
        ds = gen_synthetic(SyntheticConfig(d=3, kappa=0.5, teacher_hidden=4,
                                           m_classes=3, seed=6), 70)
        cfg = ProtocolConfig(n_grid=(20, 35, 70), n_boots=2, k_folds=5,
                             m_seeds=3, master_seed=8)
        grouped = run_protocol(ds, learner, cfg)
        records, events = per_job_records(ds, learner,
                                          plan_experiment(cfg, ds.n_rows))
        assert len(records) == 90
        assert [r.nll_sum.hex() for r in grouped.records] == [
            r.nll_sum.hex() for r in records]
        assert grouped.records == records
        assert grouped.clamp_events == events

    def test_records_aggregate_for_grid(self):
        ds = FakeDataset(np.arange(25) % 2)
        cfg = ProtocolConfig(n_grid=(10, 20), n_boots=2, k_folds=2, m_seeds=1)
        result = run_protocol(ds, MeanLearner(), cfg)
        curve = estimate_avg_energy(result.records)
        assert curve.n.tolist() == [10, 20]
        assert np.all(np.isfinite(curve.u_mean))


class TestTables:
    def test_write_then_read_is_bitwise(self, tmp_path):
        # numpy 2 spells repr(np.float64(x)) "np.float64(x)", which the
        # writer must not copy into the file
        values = [-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2,
                  np.float64(0.1) + np.float64(0.2), np.float64(-5e-324)]
        path = tmp_path / "table"
        write_table(path, "v,neg", [(v, -v) for v in values],
                    comments=("note = 1",))
        rows = list(read_table(path, (float, float), header="v,neg"))
        assert [lineno for lineno, _ in rows] == list(range(3, 3 + len(values)))
        assert [[v.hex() for v in row] for _, row in rows] == [
            [float(v).hex(), float(-v).hex()] for v in values]


class TestRecordFiles:
    def _records(self):
        return [make_record(10, boot=b, fold=f, nll=0.5 + b + f, count=5)
                for b in range(2) for f in range(2)]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.records"
        recs = self._records()
        write_records(path, recs, comments=("seed = 3", "tool = test"))
        assert ingest_records(path) == recs

    def test_roundtrip_preserves_floats(self, tmp_path):
        path = tmp_path / "run.records"
        recs = [make_record(10, nll=0.1 + 0.2, count=3)]
        write_records(path, recs)
        assert ingest_records(path)[0].nll_sum == recs[0].nll_sum

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.records"
        recs = [make_record(10), make_record(10)]
        write_records(path, recs)
        with pytest.raises(DuplicateKey):
            ingest_records(path)

    def test_zero_heldout_rejected(self, tmp_path):
        path = tmp_path / "run.records"
        lines = ["dataset_id,sample_size,boot_index,fold_index,seed_index,nll_sum,heldout_count",
                 "d,10,0,0,0,1.0,0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvariantViolation):
            ingest_records(path)

    def test_bad_float_reports_line_and_column(self, tmp_path):
        path = tmp_path / "run.records"
        lines = ["# comment",
                 "dataset_id,sample_size,boot_index,fold_index,seed_index,nll_sum,heldout_count",
                 "d,10,0,0,0,oops,5"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            ingest_records(path)
        assert err.value.line == 3
        assert err.value.column == 6

    def test_nan_nll_rejected(self, tmp_path):
        path = tmp_path / "run.records"
        lines = ["dataset_id,sample_size,boot_index,fold_index,seed_index,nll_sum,heldout_count",
                 "d,10,0,0,0,nan,5"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvariantViolation):
            ingest_records(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "run.records"
        path.write_text("dataset_id,sample_size,boot_index,fold_index,seed_index,nll_sum,heldout_count\nd,10,0,0,0,1.0\n")
        with pytest.raises(ParseError) as err:
            ingest_records(path)
        assert err.value.line == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "run.records"
        path.write_text("d,10,0,0,0,1.0,5\n")
        with pytest.raises(ParseError):
            ingest_records(path)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "run.records"
        write_records(path, self._records(), comments=("a", "b"))
        text = path.read_text()
        assert text.startswith("# a\n# b\n")
