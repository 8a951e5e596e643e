"""Tests for data generation, the three learners, and tabular loading."""

import inspect
import math

import numpy as np
import pytest

from capmeter import kernels
from capmeter.errors import (
    ConfigError,
    EmptyTrainingSet,
    InvalidArgument,
    MixedTypes,
    NonFiniteLoss,
    ParseError,
)
from capmeter.learners import (
    Dataset,
    SyntheticConfig,
    gen_synthetic,
    k_nearest,
    knn_learner,
    load_tabular,
    logistic_grad_xb,
    logistic_learner,
    logistic_log_probs,
    mlp_grad,
    mlp_init,
    mlp_learner,
    mlp_log_probs,
    with_bias,
)
from capmeter.protocol import (
    Job,
    ProtocolConfig,
    clamped_nll_terms,
    estimate_avg_energy,
    plan_experiment,
    run_protocol,
)


def xor_dataset():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    return Dataset(x, y, 2)


class TestDataset:
    def test_basic_properties(self):
        ds = Dataset(np.zeros((3, 2)), [0, 1, 0], 2)
        assert ds.n_rows == 3 and ds.feature_dim == 2
        assert ds.is_classification

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(InvalidArgument):
            Dataset(np.zeros((2, 1)), [0, 2], 2)

    def test_rejects_fractional_class_labels(self):
        with pytest.raises(InvalidArgument):
            Dataset(np.zeros((2, 1)), [0.5, 1.0], 2)

    def test_rejects_non_finite_inputs(self):
        with pytest.raises(InvalidArgument):
            Dataset(np.array([[np.inf], [0.0]]), [0, 1], 2)

    def test_regression_labels_are_real(self):
        ds = Dataset(np.zeros((2, 1)), [0.25, -1.5], None)
        assert not ds.is_classification
        assert ds.labels.dtype == np.float64

    def test_arrays_read_only(self):
        ds = Dataset(np.zeros((2, 1)), [0, 1], 2)
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 1.0


class TestSynthetic:
    def test_flat_spectrum_covariance_near_identity(self):
        ds = gen_synthetic(SyntheticConfig(d=2, kappa=0.0, seed=1), 10_000)
        cov = np.cov(ds.inputs.T)
        assert np.max(np.abs(cov - np.eye(2))) < 0.05

    def test_steep_spectrum_concentrates_variance(self):
        ds = gen_synthetic(SyntheticConfig(d=200, kappa=10.0, seed=0), 5000)
        var = np.var(ds.inputs, axis=0)
        assert var[0] / var.sum() >= 0.9999

    def test_teacher_deterministic(self):
        cfg = SyntheticConfig(d=5, kappa=0.5, seed=3)
        a = gen_synthetic(cfg, 200)
        b = gen_synthetic(cfg, 200)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_prefix_property(self):
        cfg = SyntheticConfig(d=4, kappa=1.0, seed=9)
        small = gen_synthetic(cfg, 100)
        big = gen_synthetic(cfg, 1000)
        assert np.array_equal(small.inputs, big.inputs[:100])
        assert np.array_equal(small.labels, big.labels[:100])

    def test_both_classes_present(self):
        ds = gen_synthetic(SyntheticConfig(d=6, seed=0), 500)
        assert set(np.unique(ds.labels)) == {0, 1}

    def test_multiclass_labels_in_range(self):
        ds = gen_synthetic(SyntheticConfig(d=6, m_classes=4, seed=2), 300)
        assert ds.labels.min() >= 0 and ds.labels.max() < 4

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(d=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(d=2, kappa=-1.0)


class TestKnn:
    def test_single_neighbor_probability(self):
        ds = Dataset(np.array([[0.0], [2.0]]), [0, 1], 2)
        model = knn_learner(k=1, alpha=1.0).fit(ds, np.array([0, 1]), 0)
        assert model.class_log_probs(np.array([[0.9]]))[0, 0] == pytest.approx(
            math.log(2 / 3))
        assert model.class_log_probs(np.array([[0.9]]))[0, 1] == pytest.approx(
            math.log(1 / 3))

    def test_three_neighbors_split_two_one(self):
        ds = Dataset(np.array([[0.0], [0.1], [2.0]]), [0, 0, 1], 2)
        model = knn_learner(k=3, alpha=1.0).fit(ds, np.arange(3), 0)
        assert model.class_log_probs(np.array([[0.05]]))[0, 0] == pytest.approx(
            math.log(3 / 5))

    def test_huge_alpha_gives_uniform(self):
        ds = Dataset(np.array([[0.0], [2.0]]), [0, 1], 2)
        model = knn_learner(k=1, alpha=1e12).fit(ds, np.arange(2), 0)
        assert model.class_log_probs(np.array([[0.0]]))[0, 1] == pytest.approx(
            math.log(0.5), abs=1e-9)

    def test_distance_tie_prefers_lowest_row(self):
        ds = Dataset(np.array([[-1.0], [1.0]]), [1, 0], 2)
        learner = knn_learner(k=1, alpha=1.0)
        # both rows at distance 1 from the query; row 0 must win even when
        # the training subset lists row 1 first
        model = learner.fit(ds, np.array([1, 0]), 0)
        assert model.class_log_probs(np.array([[0.0]]))[0, 1] == pytest.approx(
            math.log(2 / 3))

    def test_duplicate_rows_count_twice(self):
        ds = Dataset(np.array([[0.0], [3.0]]), [0, 1], 2)
        model = knn_learner(k=3, alpha=1.0).fit(ds, np.array([0, 0, 1]), 0)
        # counts 2-1 for class 0 near the duplicated row
        assert model.class_log_probs(np.array([[0.1]]))[0, 0] == pytest.approx(
            math.log(3 / 5))

    def test_small_training_set_stays_normalized(self):
        ds = Dataset(np.array([[0.0], [1.0]]), [0, 1], 2)
        model = knn_learner(k=10, alpha=0.5).fit(ds, np.arange(2), 0)
        probs = np.exp(model.class_log_probs(np.array([[0.4]])))
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_normalization_random_data(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(size=(40, 3)), rng.integers(0, 3, 40), 3)
        model = knn_learner(k=5, alpha=1.0).fit(ds, np.arange(40), 0)
        probs = np.exp(model.class_log_probs(rng.normal(size=(10, 3))))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_empty_training_set(self):
        ds = Dataset(np.zeros((2, 1)), [0, 1], 2)
        with pytest.raises(EmptyTrainingSet):
            knn_learner(k=1, alpha=1.0).fit(ds, np.array([], dtype=int), 0)

    def test_regression_gaussian_energy(self):
        ds = Dataset(np.array([[0.0], [1.0], [10.0]]), [1.0, 2.0, 9.0],
                     None)
        model = knn_learner(k=2, alpha=1.0, sigma=2.0).fit(ds, np.arange(3), 0)
        # neighbors of x=0.5 are rows 0, 1: prediction 1.5
        terms = model.nll_terms(ds, np.array([0]))
        want = (1.0 - 1.5) ** 2 / 8.0 + math.log(2.0 * math.sqrt(2 * math.pi))
        assert terms[0] == pytest.approx(want)

    def test_parameter_validation(self):
        with pytest.raises(InvalidArgument):
            knn_learner(k=0)
        with pytest.raises(InvalidArgument):
            knn_learner(k=1, alpha=0.0)


def stable_nearest(d2, k):
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


class TestKnnSelection:
    """Top-k by partition against the stable sort it replaces.

    Ties must break toward the lower column (the lower dataset row), and
    the k neighbours must come in the sort's order, since the regression
    mean sums them in that order.
    """

    @pytest.mark.parametrize("k", [1, 3, 10, 29, 30, 35])
    @pytest.mark.parametrize("kind", ["integers", "rounded", "equal", "distinct"])
    def test_matches_stable_sort(self, kind, k):
        rng = np.random.default_rng(k)
        shape = (50, 30)
        d2 = {"integers": lambda: rng.integers(0, 5, shape).astype(float),
              "rounded": lambda: np.round(rng.standard_normal(shape), 1),
              "equal": lambda: np.full(shape, 2.5),
              "distinct": lambda: rng.standard_normal(shape)}[kind]()
        assert np.array_equal(k_nearest(d2, k), stable_nearest(d2, k))

    def test_random_tie_heavy_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            q, n = rng.integers(0, 12), rng.integers(1, 25)
            d2 = rng.integers(0, rng.integers(1, 6), (q, n)).astype(float)
            d2[rng.random(q) < 0.2] = 1.0  # whole rows of equal distances
            k = int(rng.integers(1, n + 1))
            assert np.array_equal(k_nearest(d2, k), stable_nearest(d2, k))

    def lattice_model(self, labels, k, regression=False):
        # inputs on an integer grid give exact distance ties, and a
        # bootstrap draw repeats training rows
        rng = np.random.default_rng(11)
        x = rng.integers(0, 3, (40, 2)).astype(float)
        y = labels(rng, 40)
        ds = Dataset(x, y, None if regression else 3)
        rows = rng.integers(0, 40, 25)
        model = knn_learner(k=k, alpha=0.7).fit(ds, rows, 0)
        train = np.sort(rows)
        queries = np.vstack([rng.integers(0, 3, (30, 2)).astype(float),
                             rng.normal(size=(10, 2))])
        xt = ds.inputs[train]
        d2 = (np.sum(queries ** 2, axis=1)[:, None]
              + np.sum(xt ** 2, axis=1)[None, :] - 2.0 * queries @ xt.T)
        return model, queries, ds.labels[train][stable_nearest(d2, k)]

    @pytest.mark.parametrize("k", [1, 4, 10, 25, 40])
    def test_class_log_probs_match_stable_sort(self, k):
        model, queries, nb = self.lattice_model(
            lambda rng, n: rng.integers(0, 3, n), k)
        kk = min(k, 25)
        counts = np.zeros((queries.shape[0], 3))
        np.add.at(counts, (np.arange(queries.shape[0])[:, None], nb), 1.0)
        want = np.log((counts + 0.7) / (kk + 0.7 * 3))
        assert np.array_equal(model.class_log_probs(queries), want)

    @pytest.mark.parametrize("k", [1, 4, 10, 25, 40])
    def test_regression_mean_matches_stable_sort(self, k):
        model, queries, nb = self.lattice_model(
            lambda rng, n: rng.normal(size=n) * 1e3, k, regression=True)
        assert np.array_equal(model.predict_mean(queries), np.mean(nb, axis=1))

    def protocol_distances(self):
        """(job, d2) per job of a bootstrap plan, d2 as ``KnnModel`` forms it:
        held-out rows against the sorted training multiset, which repeats
        rows and may hold the held-out rows themselves."""
        ds = gen_synthetic(SyntheticConfig(d=4, kappa=1.0, seed=1), 80)
        jobs = plan_experiment(ProtocolConfig(n_grid=(20, 80), n_boots=3,
                                              k_folds=4, m_seeds=1), 80)
        out = []
        for job in jobs:
            train = ds.inputs[np.sort(job.train_rows)]
            queries = ds.inputs[job.heldout_rows]
            out.append((job, np.sum(queries ** 2, axis=1)[:, None]
                        + np.sum(train ** 2, axis=1)[None, :]
                        - 2.0 * queries @ train.T))
        return ds, out

    def test_protocol_multisets_match_stable_sort(self):
        _, pairs = self.protocol_distances()
        # the plan does repeat training rows and hold out rows it trains on
        assert sum(np.unique(job.train_rows).size < job.train_rows.size
                   for job, _ in pairs) > len(pairs) / 2
        assert sum(np.isin(job.heldout_rows, job.train_rows).sum()
                   for job, _ in pairs) > 20
        for job, d2 in pairs:
            n = d2.shape[1]
            for k in sorted({1, 2, 10, n - 1, n}):
                assert np.array_equal(k_nearest(d2, k), stable_nearest(d2, k))

    def test_zero_distance_ties_across_the_cut(self):
        # a held-out row drawn twice into its training multiset sits at
        # distance 0 from both copies, so k = 1 cuts through a tie
        _, pairs = self.protocol_distances()
        crossing = 0
        for _, d2 in pairs:
            zeros = np.count_nonzero(d2 == d2.min(axis=1, keepdims=True), axis=1)
            crossing += np.count_nonzero(zeros > 1)
            assert np.array_equal(k_nearest(d2, 1), stable_nearest(d2, 1))
        assert crossing > 0

    def test_non_finite_distances(self):
        _, pairs = self.protocol_distances()
        d2 = pairs[-1][1].copy()
        n = d2.shape[1]
        d2[0, ::3] = np.inf  # inf below the cut for k near n
        d2[1, :] = np.inf  # every entry tied at inf
        d2[2, 5] = -np.inf
        d2[3, ::2] = np.nan  # fewer than k entries compare
        for k in (1, 10, n // 2 + 1, n - 1, n):
            assert np.array_equal(k_nearest(d2, k), stable_nearest(d2, k))

    def test_class_log_probs_when_k_exceeds_the_training_rows(self):
        ds, pairs = self.protocol_distances()
        job = pairs[0][0]
        rows = job.train_rows[:3]  # three draws, one repeated or not
        model = knn_learner(k=10, alpha=0.5).fit(ds, rows, 0)
        queries = ds.inputs[job.heldout_rows]
        train = np.sort(rows)
        xt = ds.inputs[train]
        d2 = (np.sum(queries ** 2, axis=1)[:, None]
              + np.sum(xt ** 2, axis=1)[None, :] - 2.0 * queries @ xt.T)
        nb = ds.labels[train][stable_nearest(d2, 3)]
        counts = np.zeros((queries.shape[0], 2))
        np.add.at(counts, (np.arange(queries.shape[0])[:, None], nb), 1.0)
        want = np.log((counts + 0.5) / (3 + 0.5 * 2))
        assert np.array_equal(model.class_log_probs(queries), want)


class TestLogistic:
    def separable(self):
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(size=(25, 2)) + [-3, 0],
                       rng.normal(size=(25, 2)) + [3, 0]])
        y = np.repeat([0, 1], 25)
        return Dataset(x, y, 2)

    def test_separable_reaches_full_accuracy(self):
        ds = self.separable()
        model = logistic_learner(l2=1e-3, epochs=500).fit(
            ds, np.arange(50), 0)
        pred = np.argmax(model.class_log_probs(ds.inputs), axis=1)
        assert np.array_equal(pred, ds.labels)

    def test_huge_l2_collapses_to_uniform(self):
        ds = self.separable()
        model = logistic_learner(l2=1e6, epochs=200).fit(
            ds, np.arange(50), 0)
        assert np.max(np.abs(model.weights)) <= 1e-3
        lp = model.class_log_probs(ds.inputs[:5])
        assert np.allclose(lp, math.log(0.5), atol=1e-3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(20, 3))
        y = rng.integers(0, 3, 20)
        eps = 1e-5
        for _ in range(10):
            w = rng.normal(size=(2, 4))
            g = logistic_grad_xb(w, with_bias(x), y)
            fd = np.empty_like(w)
            for idx in np.ndindex(w.shape):
                wp, wm = w.copy(), w.copy()
                wp[idx] += eps
                wm[idx] -= eps
                fp = -logistic_log_probs(wp, x)[np.arange(20), y].mean()
                fm = -logistic_log_probs(wm, x)[np.arange(20), y].mean()
                fd[idx] = (fp - fm) / (2 * eps)
            assert np.max(np.abs(g - fd)) <= 1e-5

    def test_deterministic_across_seeds(self):
        ds = self.separable()
        learner = logistic_learner(l2=0.01, epochs=50)
        a = learner.fit(ds, np.arange(50), 0)
        b = learner.fit(ds, np.arange(50), 7)
        assert np.array_equal(a.weights, b.weights)

    def test_normalization(self):
        ds = self.separable()
        model = logistic_learner(epochs=20).fit(ds, np.arange(50), 0)
        probs = np.exp(model.class_log_probs(ds.inputs))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_non_finite_loss_reports_iteration(self):
        ds = Dataset(np.array([[1e200], [-1e200]]), [0, 1], 2)
        with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteLoss) as err:
            logistic_learner(l2=1e-3, epochs=10).fit(ds, np.arange(2), 0)
        # the first Hessian overflows, before any step
        assert err.value.iteration == 0

    @pytest.mark.parametrize("l2", [0.0, -1e-3, math.nan, math.inf])
    def test_l2_must_be_positive_and_finite(self, l2):
        # at l2 = 0 separable rows have no finite optimum and a Hessian
        # below d + 1 rows is singular
        with pytest.raises(InvalidArgument, match="l2 must be finite and > 0"):
            logistic_learner(l2=l2)

    def test_early_stop_on_small_gradient(self):
        ds = self.separable()
        model = logistic_learner(l2=0.5, epochs=5000).fit(
            ds, np.arange(50), 0)
        assert model.iterations < 5000

    def test_param_count(self):
        ds = gen_synthetic(SyntheticConfig(d=20, seed=0), 100)
        model = logistic_learner(epochs=2).fit(ds, np.arange(100), 0)
        assert model.weights.size == (2 - 1) * (20 + 1)

    def test_empty_rows_rejected(self):
        ds = self.separable()
        with pytest.raises(EmptyTrainingSet):
            logistic_learner().fit(ds, np.array([], dtype=int), 0)


class TestMlp:
    def test_xor_learnable_with_eight_hidden(self):
        ds = xor_dataset()
        model = mlp_learner(hidden=8, epochs=2000, lr_max=0.5, batch=64).fit(
            ds, np.arange(4), 0)
        nll = model.nll_terms(ds, np.arange(4)).mean()
        assert nll <= 0.05

    def test_xor_blocked_with_one_hidden(self):
        ds = xor_dataset()
        model = mlp_learner(hidden=1, epochs=2000, lr_max=0.5, batch=64).fit(
            ds, np.arange(4), 0)
        nll = model.nll_terms(ds, np.arange(4)).mean()
        assert nll >= 0.3

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(15, 3))
        y = rng.integers(0, 2, 15)
        eps = 1e-4
        for _ in range(10):
            params = [rng.normal(size=(3, 4)), rng.normal(size=4),
                      rng.normal(size=(4, 2)), rng.normal(size=2)]
            pre = x @ params[0] + params[1]
            if np.min(np.abs(pre)) < 50 * eps:
                continue  # finite differences invalid near a ReLU kink
            grads = mlp_grad(params, x, y)
            for pi in range(4):
                fd = np.empty_like(params[pi])
                for idx in np.ndindex(params[pi].shape):
                    pp = [q.copy() for q in params]
                    pm = [q.copy() for q in params]
                    pp[pi][idx] += eps
                    pm[pi][idx] -= eps
                    fp = -mlp_log_probs(pp, x)[np.arange(15), y].mean()
                    fm = -mlp_log_probs(pm, x)[np.arange(15), y].mean()
                    fd[idx] = (fp - fm) / (2 * eps)
                assert np.max(np.abs(grads[pi] - fd)) <= 1e-4

    def test_same_seed_bitwise_identical(self):
        ds = gen_synthetic(SyntheticConfig(d=3, seed=1), 60)
        learner = mlp_learner(hidden=4, epochs=10, lr_max=0.2, batch=16)
        a = learner.fit(ds, np.arange(60), 5)
        b = learner.fit(ds, np.arange(60), 5)
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa, pb)

    def test_fit_is_the_kernel_on_seeded_init_and_shuffles(self):
        # the seed contract: init from mlp_init(d, h, m, seed), and epoch
        # e trains in the order of the e-th default_rng(seed + 1).permutation
        ds = gen_synthetic(SyntheticConfig(d=3, m_classes=3, seed=1), 60)
        rows = np.random.default_rng(0).integers(0, 60, 45)
        seed, epochs = 7, 5
        model = mlp_learner(hidden=4, epochs=epochs, lr_max=0.2, batch=16).fit(
            ds, rows, seed)
        params = [p[None].copy() for p in mlp_init(3, 4, 3, seed)]
        rng = np.random.default_rng(seed + 1)
        orders = (rng.permutation(rows.size)[None] for _ in range(epochs))
        loss, bad = kernels.mlp_sgd_stack(
            ds.inputs[rows][None], ds.labels[rows][None], np.array([rows.size]),
            *params, orders, epochs, 0.2, 0.9, 16)
        assert bad[0] == -1
        assert model.final_loss == loss[0]
        for fitted, fed in zip(model.params, params):
            assert np.array_equal(fitted, fed[0])

    def test_different_seed_differs(self):
        ds = gen_synthetic(SyntheticConfig(d=3, seed=1), 60)
        learner = mlp_learner(hidden=4, epochs=10, lr_max=0.2, batch=16)
        a = learner.fit(ds, np.arange(60), 0)
        b = learner.fit(ds, np.arange(60), 1)
        assert not np.array_equal(a.params[0], b.params[0])

    def test_normalization(self):
        ds = gen_synthetic(SyntheticConfig(d=3, seed=1), 60)
        model = mlp_learner(hidden=4, epochs=5, lr_max=0.2, batch=16).fit(
            ds, np.arange(60), 0)
        probs = np.exp(model.class_log_probs(ds.inputs))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_non_finite_loss_reports_epoch(self):
        ds = Dataset(np.array([[1e200, 0.0], [-1e200, 0.0]]), [0, 1], 2)
        with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteLoss) as err:
            mlp_learner(hidden=2, epochs=5, lr_max=1e20, batch=64).fit(
                ds, np.arange(2), 0)
        assert err.value.iteration >= 0

    def test_param_count(self):
        ds = gen_synthetic(SyntheticConfig(d=5, seed=0), 40)
        model = mlp_learner(hidden=3, epochs=2, lr_max=0.1, batch=8).fit(
            ds, np.arange(40), 0)
        assert sum(p.size for p in model.params) == 5 * 3 + 3 + 3 * 2 + 2


class TestLogisticFitMany:
    """The stacked fit against one ``fit`` per job.

    Padding and batched reductions change the summation order, so results
    agree to rounding: weights to rtol 1e-12, record nll_sum to 1e-12
    relative; iteration counts exactly.
    """

    def test_matches_fit_per_job(self):
        ds = gen_synthetic(SyntheticConfig(d=4, kappa=0.5, m_classes=3, seed=4), 60)
        learner = logistic_learner(l2=1e-3, epochs=60)
        jobs = plan_experiment(ProtocolConfig(n_grid=(23,), n_boots=2, k_folds=5,
                                              m_seeds=1), 60)
        assert {job.train_rows.size for job in jobs} == {18, 19}
        models = learner.fit_many(ds, jobs)
        for job, model in zip(jobs, models):
            one = learner.fit(ds, job.train_rows, job.seed)
            np.testing.assert_allclose(model.weights, one.weights, rtol=1e-12,
                                       atol=1e-15)
            assert model.iterations == one.iterations

    def test_protocol_records_match_fit_per_job(self):
        ds = gen_synthetic(SyntheticConfig(d=5, kappa=0.0, teacher_hidden=2,
                                           seed=2), 80)
        learner = logistic_learner(l2=1e-3, epochs=40)
        cfg = ProtocolConfig(n_grid=(20, 33, 80), n_boots=2, k_folds=5,
                             m_seeds=2, master_seed=1)
        grouped = run_protocol(ds, learner, cfg).records
        jobs = plan_experiment(cfg, ds.n_rows)
        assert len(grouped) == len(jobs) == 60
        for rec, job in zip(grouped, jobs):
            assert (rec.sample_size, rec.boot_index, rec.fold_index,
                    rec.seed_index, rec.heldout_count) == (
                job.sample_size, job.boot_index, job.fold_index,
                job.seed_index, job.heldout_rows.size)
            model = learner.fit(ds, job.train_rows, job.seed)
            terms, _ = clamped_nll_terms(model.nll_terms(ds, job.heldout_rows))
            assert rec.nll_sum == pytest.approx(float(np.sum(terms)), rel=1e-12)

    def test_first_failing_job_raises_fits_error(self):
        # rows 0-29 are tame; row 30 sends the logits past overflow
        x = np.vstack([np.random.default_rng(3).normal(size=(30, 2)),
                       [[1e200, 0.0]]])
        ds = Dataset(x, np.arange(31) % 2, 2)
        learner = logistic_learner(l2=1e-3, epochs=10)
        tame, wild = np.arange(20), np.append(np.arange(19), 30)
        jobs = [Job(31, 0, f, 0, 0, rows, np.array([25]))
                for f, rows in enumerate((tame, wild, wild[::-1]))]
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLoss) as alone:
                learner.fit(ds, wild, 0)
            with pytest.raises(NonFiniteLoss) as grouped:
                learner.fit_many(ds, jobs)
        assert str(grouped.value) == str(alone.value)
        assert grouped.value.iteration == alone.value.iteration
        assert grouped.value.job is jobs[1]

    def test_readme_study_fits_converge(self):
        # the README study's data at the sample sizes of its grid: every
        # fit reaches the gradient tolerance well before the cap
        ds = gen_synthetic(SyntheticConfig(d=20, kappa=0.0, teacher_hidden=2,
                                           seed=2), 2000)
        learner = logistic_learner(l2=1e-3, epochs=50)
        cfg = ProtocolConfig(n_grid=(60, 150, 600, 2000), n_boots=2,
                             k_folds=5, m_seeds=1, master_seed=3)
        jobs = plan_experiment(cfg, ds.n_rows)
        for n in cfg.n_grid:
            group = [job for job in jobs if job.sample_size == n]
            for job, model in zip(group, learner.fit_many(ds, group)):
                rows = job.train_rows
                grad = (logistic_grad_xb(model.weights, with_bias(ds.inputs[rows]),
                                         ds.labels[rows])
                        + learner.l2 * model.weights)
                assert model.iterations < 20
                assert np.abs(grad).max() < learner.GRAD_TOL


class TestMlpFitMany:
    """The stacked fit against one ``fit`` per job, bitwise.

    Each part of a group with one minibatch count trains as one stack, and
    every job of a stack keeps its own init, shuffles and schedule.
    """

    def assert_same_model(self, a, b):
        assert a.final_loss == b.final_loss
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa, pb)

    def test_matches_fit_per_job(self):
        ds = gen_synthetic(SyntheticConfig(d=4, kappa=0.5, m_classes=3, seed=4), 60)
        learner = mlp_learner(hidden=3, epochs=6, lr_max=0.2, batch=8)
        jobs = plan_experiment(ProtocolConfig(n_grid=(23,), n_boots=2, k_folds=5,
                                              m_seeds=2), 60)
        assert {job.train_rows.size for job in jobs} == {18, 19}
        models = learner.fit_many(ds, jobs)
        assert len(models) == len(jobs)
        for job, model in zip(jobs, models):
            self.assert_same_model(model, learner.fit(ds, job.train_rows, job.seed))

    def test_minibatch_counts_split_a_group(self, monkeypatch):
        # 64 rows take one minibatch at batch 64 and 65 take two, so the
        # group trains as two stacks; 65 and 66 would share one
        calls = []

        def counted(X, y, n_rows, *args, _kernel=kernels.mlp_sgd_stack):
            calls.append(list(n_rows))
            return _kernel(X, y, n_rows, *args)

        ds = gen_synthetic(SyntheticConfig(d=3, kappa=0.5, m_classes=3, seed=4), 80)
        learner = mlp_learner(hidden=3, epochs=3, lr_max=0.2, batch=64)
        jobs = [Job(80, 0, f, 0, f, np.arange(f, f + n), np.array([79]))
                for f, n in enumerate((65, 64, 66, 64))]
        monkeypatch.setattr(kernels, "mlp_sgd_stack", counted)
        models = learner.fit_many(ds, jobs)
        assert calls == [[64, 64], [65, 66]]
        monkeypatch.undo()
        for job, model in zip(jobs, models):
            self.assert_same_model(model, learner.fit(ds, job.train_rows, job.seed))

    def test_first_failing_job_raises_fits_error(self):
        # row 30 sends the activations past overflow; the first two jobs
        # differ in size, so the failing one trains in the second stack
        x = np.vstack([np.random.default_rng(3).normal(size=(30, 2)),
                       [[1e200, 0.0]]])
        ds = Dataset(x, np.arange(31) % 2, 2)
        learner = mlp_learner(hidden=2, epochs=5, lr_max=0.1, batch=8)
        tame, wild = np.arange(20), np.append(np.arange(18), 30)
        jobs = [Job(31, 0, f, 0, f, rows, np.array([25]))
                for f, rows in enumerate((tame, wild, tame[:19], wild[::-1]))]
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLoss) as alone:
                learner.fit(ds, wild, jobs[1].seed)
            with pytest.raises(NonFiniteLoss) as grouped:
                learner.fit_many(ds, jobs)
        assert str(grouped.value) == str(alone.value)
        assert grouped.value.iteration == alone.value.iteration
        assert grouped.value.job is jobs[1]

    def test_readme_study_fits_converge(self):
        # the README study's data at the sample sizes of its grid: every
        # fit reaches the gradient tolerance well before the cap
        ds = gen_synthetic(SyntheticConfig(d=20, kappa=0.0, teacher_hidden=2,
                                           seed=2), 2000)
        learner = logistic_learner(l2=1e-3, epochs=50)
        cfg = ProtocolConfig(n_grid=(60, 150, 600, 2000), n_boots=2,
                             k_folds=5, m_seeds=1, master_seed=3)
        jobs = plan_experiment(cfg, ds.n_rows)
        for n in cfg.n_grid:
            group = [job for job in jobs if job.sample_size == n]
            for job, model in zip(group, learner.fit_many(ds, group)):
                rows = job.train_rows
                grad = (logistic_grad_xb(model.weights, with_bias(ds.inputs[rows]),
                                         ds.labels[rows])
                        + learner.l2 * model.weights)
                assert model.iterations < 20
                assert np.abs(grad).max() < learner.GRAD_TOL


class TestLearnerContract:
    """Every learner supplies ``fit_many``; ``fit`` is its one-job case."""

    LEARNERS = {
        "logistic": lambda: logistic_learner(l2=1e-3, epochs=40),
        "mlp": lambda: mlp_learner(hidden=3, epochs=4, lr_max=0.2, batch=8),
        "knn": lambda: knn_learner(k=3),
    }

    @pytest.mark.parametrize("name", sorted(LEARNERS))
    def test_fit_is_the_one_job_fit_many(self, name):
        ds = gen_synthetic(SyntheticConfig(d=3, kappa=0.5, m_classes=3, seed=4), 40)
        learner = self.LEARNERS[name]()
        rows = np.arange(5, 30)
        [many] = learner.fit_many(ds, [Job(25, 0, 0, 0, 7, rows, np.arange(5))])
        one = learner.fit(ds, rows, 7)
        assert type(one) is type(many)
        assert (one.class_log_probs(ds.inputs).tobytes()
                == many.class_log_probs(ds.inputs).tobytes())

    def test_knn_fit_many_is_a_generator(self):
        ds = gen_synthetic(SyntheticConfig(d=3, kappa=0.5, seed=4), 40)
        jobs = [Job(20, 0, f, 0, 0, rows, np.array([39]))
                for f, rows in enumerate((np.arange(20), np.arange(0)))]
        models = knn_learner(k=3).fit_many(ds, jobs)
        assert inspect.isgenerator(models)
        # nothing is fitted before it is asked for: the empty second job
        # fails only when its model is
        next(models)
        with pytest.raises(EmptyTrainingSet) as err:
            next(models)
        assert err.value.job is jobs[1]


class TestMonotoneDataBenefit:
    def test_logistic_energy_non_increasing_within_error(self):
        cfg = SyntheticConfig(d=4, kappa=1.0, seed=2)
        ds = gen_synthetic(cfg, 400)
        learner = logistic_learner(l2=1e-3, epochs=300)
        proto = ProtocolConfig(n_grid=(30, 80, 200), n_boots=3, k_folds=3,
                               m_seeds=2, master_seed=0)
        result = run_protocol(ds, learner, proto)
        curve = estimate_avg_energy(result.records)
        for i in range(len(curve) - 1):
            slack = math.hypot(curve.u_stderr[i], curve.u_stderr[i + 1])
            assert curve.u_mean[i + 1] <= curve.u_mean[i] + slack


class TestLoadTabular:
    def test_basic_classification_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# features then label\n0.0,1.0,3\n1.0,0.0,9\n0.5,0.5,3\n")
        ds = load_tabular(path)
        assert ds.n_rows == 3 and ds.feature_dim == 2 and ds.m_classes == 2
        # labels 3 and 9 remap to 0 and 1
        assert ds.labels.tolist() == [0, 1, 0]

    def test_non_numeric_feature_location(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.0,1.0,0\n1.0,oops,1\n")
        with pytest.raises(ParseError) as err:
            load_tabular(path)
        assert err.value.line == 2
        assert err.value.column == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_tabular(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.0,1.0,0\n1.0,1\n")
        with pytest.raises(ParseError):
            load_tabular(path)

    def test_fractional_labels_become_regression(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.0,0.25\n1.0,0.75\n")
        ds = load_tabular(path)
        assert not ds.is_classification

    def test_mixed_labels_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.0,1.0\n1.0,0.75\n")
        with pytest.raises(MixedTypes):
            load_tabular(path)
