"""Langevin sampler tests.

Statistical checks run with fixed seeds and budgets sized so the expected
Monte-Carlo error sits well inside the asserted tolerance; closed-form
targets come from the quadratic partition-function module.
"""

import math
import warnings
from collections import Counter

import numpy as np
import pytest

from capmeter.errors import (
    ConfigError,
    InvalidArgument,
    NonFiniteState,
    ScheduleExhaustsData,
)
import capmeter.sgld
from capmeter import kernels
from capmeter.learners import Dataset, SyntheticConfig, gen_synthetic
from capmeter.oracle import HessianSpectrum, quad_log_z
from capmeter.protocol import EnergyRecord, derive_rng, estimate_avg_energy
from capmeter.sgld import (
    ChainFailure,
    DifferentiableEnergy,
    LogisticEnergy,
    MlpEnergy,
    QuadraticEnergy,
    SgldConfig,
    run_incremental_protocol,
)


class FixedProbEnergy(DifferentiableEnergy):
    """Reads the per-row probability straight off each state's first weight."""

    @property
    def dim(self):
        return 1

    def value(self, weights, rows):
        return 0.0

    def gradient(self, weights, rows):
        return np.zeros_like(weights)

    def prob_on_rows(self, weights, rows):
        w = np.asarray(weights, dtype=np.float64)
        return w[..., :1] * np.ones(np.shape(rows)[-1])


def tiny_logistic_dataset():
    """Two balanced classes at x = +1 / x = -1, train and held-out halves."""
    x = np.concatenate([np.ones(5), -np.ones(5), np.ones(5), -np.ones(5)])
    y = np.concatenate([np.ones(5), np.zeros(5), np.ones(5), np.zeros(5)])
    return Dataset(x.reshape(-1, 1), y.astype(int), m_classes=2)


class TestSgldConfig:
    def test_defaults(self):
        cfg = SgldConfig(step_size=0.01, n_schedule=(10, 20))
        assert cfg.chains == 10
        assert cfg.equilibration_epochs == 20
        assert cfg.samples_per_window == 10
        assert cfg.heldout_rows == 256
        assert cfg.n_schedule == (10, 20)

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.0, n_schedule=(10,))
        with pytest.raises(ConfigError):
            SgldConfig(step_size=-1.0, n_schedule=(10,))

    def test_rejects_bad_schedule(self):
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=())
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(10, 10))
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(20, 10))
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(0, 10))
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(1, 10))

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(10,), chains=0)
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(10,), samples_per_window=0)
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(10,), equilibration_epochs=-1)
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(10,), prior_eps=-0.5)


class TestQuadraticEnergy:
    def test_value_and_gradient(self):
        energy = QuadraticEnergy([2.0, 3.0])
        w = np.array([1.0, -1.0])
        assert energy.value(w, np.arange(4)) == pytest.approx(2.5)
        np.testing.assert_allclose(energy.gradient(w, np.arange(4)), [2.0, -3.0])
        assert energy.dim == 2

    def test_prob_ignores_row_content(self):
        energy = QuadraticEnergy([1.0])
        p = energy.prob_on_rows(np.array([0.5]), np.arange(7))
        assert p.shape == (7,)
        np.testing.assert_allclose(p, math.exp(-0.125))

    def test_heldout_means_matches_generic_loop(self):
        energy = QuadraticEnergy([1.0, 0.5, 2.0])
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((40, 3))
        rows = np.arange(5)
        fast = energy.heldout_means(samples, rows)
        slow = DifferentiableEnergy.heldout_means(energy, samples, rows)
        np.testing.assert_allclose(fast, slow, rtol=1e-12)
        assert np.all(fast >= 0.0) and np.all(fast <= 1.0)

    def test_rejects_bad_eigenvalues(self):
        with pytest.raises(InvalidArgument):
            QuadraticEnergy([])
        with pytest.raises(InvalidArgument):
            QuadraticEnergy([1.0, -0.1])


class TestLogisticEnergy:
    def test_value_matches_hand_computation(self):
        ds = tiny_logistic_dataset()
        energy = LogisticEnergy(ds)
        assert energy.dim == 2
        # Zero weights: every row gets probability 1/2.
        rows = np.arange(10)
        assert energy.value(np.zeros(2), rows) == pytest.approx(math.log(2.0))
        np.testing.assert_allclose(energy.prob_on_rows(np.zeros(2), rows), 0.5)

    def test_gradient_matches_finite_differences(self):
        ds = tiny_logistic_dataset()
        energy = LogisticEnergy(ds)
        rows = np.arange(10)
        w = np.array([0.3, -0.2])
        g = energy.gradient(w, rows)
        eps = 1e-6
        fd = np.empty_like(g)
        for i in range(w.size):
            up, dn = w.copy(), w.copy()
            up[i] += eps
            dn[i] -= eps
            fd[i] = (energy.value(up, rows) - energy.value(dn, rows)) / (2 * eps)
        assert np.linalg.norm(fd - g) <= 1e-4 * np.linalg.norm(g)

    def test_rejects_regression_dataset(self):
        ds = Dataset(np.ones((4, 1)), np.array([0.1, 0.2, 0.3, 0.4]), None)
        with pytest.raises(InvalidArgument):
            LogisticEnergy(ds)


class TestMlpEnergy:
    def test_dim_formula(self):
        cfg = SyntheticConfig(d=5, kappa=0.0, m_classes=3, seed=0)
        ds = gen_synthetic(cfg, 30)
        energy = MlpEnergy(ds, hidden=4)
        assert energy.dim == 5 * 4 + 4 + 4 * 3 + 3

    def test_gradient_matches_finite_differences(self):
        cfg = SyntheticConfig(d=3, kappa=0.0, seed=1)
        ds = gen_synthetic(cfg, 20)
        energy = MlpEnergy(ds, hidden=3)
        rows = np.arange(20)
        rng = np.random.default_rng(5)
        w = 0.7 * rng.standard_normal(energy.dim)
        # Keep the probe away from ReLU kinks so central differences are a
        # valid oracle for the analytic gradient.
        pre = ds.inputs @ energy._unflatten(w)[0] + energy._unflatten(w)[1]
        assert np.min(np.abs(pre)) > 1e-3
        g = energy.gradient(w, rows)
        eps = 1e-6
        fd = np.empty_like(g)
        for i in range(w.size):
            up, dn = w.copy(), w.copy()
            up[i] += eps
            dn[i] -= eps
            fd[i] = (energy.value(up, rows) - energy.value(dn, rows)) / (2 * eps)
        assert np.linalg.norm(fd - g) <= 1e-4 * np.linalg.norm(g)

    def test_rejects_regression_dataset(self):
        ds = Dataset(np.ones((4, 1)), np.array([0.1, 0.2, 0.3, 0.4]), None)
        with pytest.raises(InvalidArgument, match="MlpEnergy needs a classification"):
            MlpEnergy(ds, hidden=2)

    def test_prob_on_rows_in_unit_interval(self):
        cfg = SyntheticConfig(d=3, kappa=0.0, seed=1)
        ds = gen_synthetic(cfg, 10)
        energy = MlpEnergy(ds, hidden=2)
        p = energy.prob_on_rows(np.random.default_rng(0).standard_normal(energy.dim),
                                np.arange(10))
        assert np.all(p > 0.0) and np.all(p < 1.0)


def sgld_step(weights, energy: DifferentiableEnergy, rows, sample_size: int,
              step_size: float, rng: np.random.Generator,
              prior_eps: float) -> np.ndarray:
    """One Langevin update of a single chain's state: the reference that
    the package's stacked windows and fused quadratic kernel must match bit
    for bit.

    Drifts half a step down the gradient of ``sample_size * mean-loss``
    over the given rows plus the Gaussian prior's pull ``prior_eps * w``
    (none at ``prior_eps = 0``, the flat prior) and adds noise of variance
    ``step_size`` per coordinate.  Raises NonFiniteState if the update
    leaves the finite domain.
    """
    w = np.asarray(weights, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise InvalidArgument("sgld_step needs at least one row")
    if not (math.isfinite(step_size) and step_size > 0):
        raise InvalidArgument(f"step_size must be positive, got {step_size}")
    g = sample_size * energy.gradient(w, rows) + prior_eps * w
    new = w - 0.5 * step_size * g + math.sqrt(step_size) * rng.standard_normal(w.size)
    if not np.all(np.isfinite(new)):
        raise NonFiniteState(capmeter.sgld._NON_FINITE)
    return new


class TestSgldStep:
    def test_pure_noise_moments(self):
        # Zero gradient and flat prior leave only the injected noise:
        # increments are Gaussian with per-coordinate variance equal to the
        # step size.
        energy = QuadraticEnergy([0.0, 0.0, 0.0])
        step = 0.04
        rng = np.random.default_rng(11)
        w = np.zeros(3)
        draws = np.empty((10_000, 3))
        for i in range(draws.shape[0]):
            draws[i] = sgld_step(w, energy, np.arange(3), 50, step, rng,
                                 prior_eps=0.0)
        var = draws.reshape(-1).var()
        assert abs(var - step) <= 0.05 * step
        assert abs(draws.mean()) <= 3 * math.sqrt(step / draws.size)

    def test_deterministic_given_rng(self):
        energy = QuadraticEnergy([1.0, 2.0])
        w = np.array([0.3, -0.4])
        a = sgld_step(w, energy, np.arange(2), 10, 0.01,
                      np.random.default_rng(3), prior_eps=1.0)
        b = sgld_step(w, energy, np.arange(2), 10, 0.01,
                      np.random.default_rng(3), prior_eps=1.0)
        np.testing.assert_array_equal(a, b)

    def test_stationary_variance_one_dim(self):
        # Target for N * w^2 / 2 with a unit Gaussian prior has variance
        # 1/(N+1); a long small-step chain should land within 10%.
        energy = QuadraticEnergy([1.0])
        n, eps = 9, 1.0
        step = 0.004
        rng = np.random.default_rng(21)
        w = np.zeros(1)
        burn, keep = 2_000, 80_000
        acc = np.empty(keep)
        for i in range(burn + keep):
            w = sgld_step(w, energy, np.arange(1), n, step, rng, prior_eps=eps)
            if i >= burn:
                acc[i - burn] = w[0]
        target = 1.0 / (n + eps)
        assert abs(acc.var() - target) <= 0.10 * target

    def test_rejects_empty_rows(self):
        with pytest.raises(InvalidArgument):
            sgld_step(np.zeros(1), QuadraticEnergy([1.0]), np.empty(0, dtype=int),
                      10, 0.01, np.random.default_rng(0), prior_eps=0.0)

    def test_non_finite_state_raises(self):
        energy = QuadraticEnergy([1e300])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteState):
                sgld_step(np.array([1e300]), energy, np.arange(1), 10, 1.0,
                          np.random.default_rng(0), prior_eps=0.0)


class TestAvgEnergy:
    """The held-out readout, per sample and over a window."""

    def test_perfect_predictor_scores_zero(self):
        window = np.array([[1.0], [1.0]])
        e = FixedProbEnergy().heldout_means(window, np.arange(3))
        assert e.tolist() == [0.0, 0.0]

    def test_uniform_two_class_scores_half(self):
        window = np.array([[0.5]])
        assert FixedProbEnergy().heldout_means(window, np.arange(4)).tolist() == [0.5]

    def test_averages_over_samples(self):
        window = np.array([[1.0], [0.5]])
        e = FixedProbEnergy().heldout_means(window, np.arange(2))
        assert e.tolist() == [0.0, 0.5]
        assert e.mean() == 0.25

    def test_stays_in_unit_interval(self):
        energy = QuadraticEnergy([1.0, 1.0])
        samples = 3.0 * np.random.default_rng(2).standard_normal((100, 2))
        e = energy.heldout_means(samples, np.arange(5))
        assert np.all(e >= 0.0) and np.all(e <= 1.0)


class TestSgldCapacity:
    """Capacity from the per-sample held-out energies of two windows."""

    def test_identical_windows_give_zero(self):
        window = np.full(3, 0.3)
        est = capmeter.sgld._capacity_from_window_energies(window, window, 10, 1.0)
        assert est.value == 0.0
        assert est.method == "sgld"

    def test_one_over_n_curve_value(self):
        # Average energies 1/10 and 1/11 at N = 10, delta 1:
        # C = -100 * (1/11 - 1/10) = 100/110.
        est = capmeter.sgld._capacity_from_window_energies(
            np.array([0.1]), np.array([1.0 / 11.0]), 10, 1.0)
        assert est.value == pytest.approx(100.0 / 110.0, rel=1e-12)
        assert est.stderr == 0.0
        assert est.at_n == 10.0

    def test_stderr_from_between_sample_scatter(self):
        est = capmeter.sgld._capacity_from_window_energies(
            np.array([0.1, 0.3]), np.array([0.2, 0.2]), 2, 1.0)
        assert est.value == pytest.approx(0.0, abs=1e-15)
        se_lo = np.std([0.1, 0.3], ddof=1) / math.sqrt(2)
        assert est.stderr == pytest.approx(4 * se_lo, rel=1e-12)


class TestGibbsPosteriorFidelity:
    def test_covariance_matches_closed_form(self):
        # Diagonal quadratic at temperature N with Gaussian prior: the
        # target covariance is (N*lam + eps)^{-1} per coordinate.
        lam = np.array([1.0, 0.5])
        energy = QuadraticEnergy(lam)
        n, eps, step = 10, 1.0, 0.004
        rng = np.random.default_rng(31)
        w = np.zeros(2)
        burn, keep = 3_000, 60_000
        acc = np.empty((keep, 2))
        for i in range(burn + keep):
            w = sgld_step(w, energy, np.arange(1), n, step, rng, prior_eps=eps)
            if i >= burn:
                acc[i - burn] = w
        target = np.diag(1.0 / (n * lam + eps))
        emp = np.cov(acc.T)
        rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
        assert rel <= 0.10


class TestQuadraticMatchedLogistic:
    def test_avg_energy_matches_quadratic_partition(self):
        # Symmetric two-point logistic problem with a tight Gaussian prior:
        # the posterior is close to the quadratic expansion of the loss at
        # zero, whose partition function is available in closed form.  The
        # sampler's probability-complement readout should match
        # 1 - exp(-U_quad) to within 5%.
        ds = tiny_logistic_dataset()
        energy = LogisticEnergy(ds)
        train = np.arange(10)
        heldout = np.arange(10, 20)
        n, eps, step = 10, 30.0, 0.005

        # Expansion of the mean loss at w = 0: value log 2, gradient g,
        # curvature A = x'x/(4n) = I/4 for these rows.
        g = energy.gradient(np.zeros(2), train)
        curv = 0.25
        offsets = -g / curv
        const = math.log(2.0) - 0.5 * float(g @ g) / curv
        spectrum = HessianSpectrum(eigenvalues=(curv, curv), epsilon=eps,
                                   offsets=tuple(offsets))
        u_quad = const + (quad_log_z(spectrum, n) - quad_log_z(spectrum, n + 1))
        target = 1.0 - math.exp(-u_quad)

        rng = np.random.default_rng(41)
        w = np.zeros(2)
        burn, keep, thin = 5_000, 30_000, 5
        samples = np.empty((keep // thin, 2))
        for i in range(burn + keep):
            w = sgld_step(w, energy, train, n, step, rng, prior_eps=eps)
            if i >= burn and (i - burn) % thin == 0:
                samples[(i - burn) // thin] = w
        u_sgld = float(energy.heldout_means(samples, heldout).mean())
        assert abs(u_sgld - target) <= 0.05 * target


class WrappedQuadratic(DifferentiableEnergy):
    """Same arithmetic as QuadraticEnergy but a different type, so the
    protocol driver takes its generic stacked path, not the fused kernel."""

    def __init__(self, eigenvalues):
        self._inner = QuadraticEnergy(eigenvalues)

    @property
    def dim(self):
        return self._inner.dim

    def value(self, weights, rows):
        return self._inner.value(weights, rows)

    def gradient(self, weights, rows):
        return self._inner.gradient(weights, rows)

    def prob_on_rows(self, weights, rows):
        return self._inner.prob_on_rows(weights, rows)

    def heldout_means(self, samples, rows):
        # Delegate so the comparison isolates the sampled trajectories;
        # readout reductions are compared in their own test.
        return self._inner.heldout_means(samples, rows)


class TestIncrementalProtocol:
    def config(self, **kw):
        base = dict(step_size=0.003, n_schedule=(5, 10), chains=4,
                    equilibration_epochs=200, samples_per_window=400,
                    heldout_rows=1, seed=3)
        base.update(kw)
        return SgldConfig(**base)

    def test_schedule_beyond_dataset_rejected(self):
        # N_max 10 and one held-out row need 11 rows
        data = tiny_logistic_dataset()
        for n_rows in (8, 10):
            energy = LogisticEnergy(Dataset(data.inputs[:n_rows],
                                            data.labels[:n_rows], m_classes=2))
            with pytest.raises(ScheduleExhaustsData) as err:
                run_incremental_protocol(energy, self.config())
            assert str(err.value) == (
                "schedule point 10 and 1 held-out rows need 11 rows but the "
                f"dataset has {n_rows}")

    def test_no_heldout_rows_rejected(self):
        with pytest.raises(ConfigError, match="heldout_rows must be >= 1, got 0"):
            self.config(heldout_rows=0)

    def test_heldout_rows_follow_the_config(self):
        # the held-out pool is the heldout_rows rows from N_max on, not
        # every row past N_max
        seen = []

        class RecordingLogistic(LogisticEnergy):
            def heldout_means(self, samples, rows):
                seen.append(np.asarray(rows).tolist())
                return super().heldout_means(samples, rows)

        energy = RecordingLogistic(tiny_logistic_dataset())
        result = run_incremental_protocol(
            energy, self.config(heldout_rows=3, equilibration_epochs=2,
                                samples_per_window=4))
        assert seen == [[10, 11, 12], [10, 11, 12]]
        assert {r.heldout_count for r in result.records} == {4 * 3}

    def test_schedule_must_cover_chains(self):
        with pytest.raises(ConfigError):
            run_incremental_protocol(QuadraticEnergy([1.0]),
                                     self.config(n_schedule=(3, 10)))

    def test_record_layout(self):
        result = run_incremental_protocol(QuadraticEnergy([1.0, 1.0]),
                                          self.config())
        assert result.curve.scale == "probability-complement"
        assert len(result.curve) == 2
        assert list(result.curve.record_count) == [4, 4]
        by_n = {}
        for rec in result.records:
            assert rec.dataset_id == "sgld"
            assert rec.fold_index == 0 and rec.seed_index == 0
            by_n.setdefault(rec.sample_size, []).append(rec)
        assert sorted(by_n) == [5, 10]
        for n, group in by_n.items():
            assert sorted(r.boot_index for r in group) == [0, 1, 2, 3]
            pooled = np.mean([r.nll_sum / r.heldout_count for r in group])
            idx = list(result.curve.n).index(n)
            assert pooled == pytest.approx(result.curve.u_mean[idx], rel=1e-12)

    def test_deterministic_given_seed(self):
        a = run_incremental_protocol(QuadraticEnergy([1.0, 1.0]),
                                     self.config())
        b = run_incremental_protocol(QuadraticEnergy([1.0, 1.0]),
                                     self.config())
        np.testing.assert_array_equal(a.curve.u_mean, b.curve.u_mean)
        assert a.records == b.records
        assert [c.value for c in a.capacities] == [c.value for c in b.capacities]

    def test_fused_and_generic_paths_agree_bitwise(self):
        cfg = self.config(equilibration_epochs=50, samples_per_window=60)
        fused = run_incremental_protocol(QuadraticEnergy([1.0, 0.5]), cfg)
        generic = run_incremental_protocol(WrappedQuadratic([1.0, 0.5]), cfg)
        np.testing.assert_array_equal(fused.curve.u_mean, generic.curve.u_mean)
        np.testing.assert_array_equal(fused.curve.u_stderr, generic.curve.u_stderr)
        for x, y in zip(fused.records, generic.records):
            assert x.nll_sum == y.nll_sum

    def test_fused_and_generic_agree_over_five_chains(self):
        # 5 chains x 4 schedule points with batch 2: at N=5 and N=10 all five
        # pools fit one batch and advance as one stacked state; at N=12 the
        # pools hold 3, 3, 2, 2, 2 rows and straddle the batch; at N=20 every
        # chain is minibatched
        cfg = self.config(n_schedule=(5, 10, 12, 20), chains=5, batch_size=2,
                          equilibration_epochs=30, samples_per_window=40)
        fused = run_incremental_protocol(QuadraticEnergy([1.0, 0.5, 2.0]), cfg)
        generic = run_incremental_protocol(WrappedQuadratic([1.0, 0.5, 2.0]), cfg)
        assert [np.arange(c, 12, 5).size for c in range(5)] == [3, 3, 2, 2, 2]
        np.testing.assert_array_equal(fused.curve.u_mean, generic.curve.u_mean)
        np.testing.assert_array_equal(fused.curve.u_stderr, generic.curve.u_stderr)
        assert fused.records == generic.records
        assert ([c.value for c in fused.capacities]
                == [c.value for c in generic.capacities])

    def test_fused_quadratic_keeps_its_recorded_bits(self):
        # float literals from the fused kernel's per-step numpy loop, as it
        # was before the scalar loop, so a rewrite of the kernel is held to
        # those bits and not only to the generic path; eigenvalue 0.3 and
        # sample sizes 5 and 10 make a reordered product change them
        cfg = SgldConfig(step_size=0.003, n_schedule=(5, 10, 20), chains=5,
                         equilibration_epochs=50, samples_per_window=60,
                         heldout_rows=1, seed=11)
        result = run_incremental_protocol(QuadraticEnergy([1.0, 0.3]), cfg)
        assert list(result.curve.u_mean) == [
            0.053433629959018694, 0.10205927122296224, 0.07234074481032678]
        assert list(result.curve.u_stderr) == [
            0.01510432287479239, 0.037992384725502794, 0.01756277711107381]
        assert [c.value for c in result.capacities] == [
            -0.24312820631971777, 0.29718526412635465]
        assert [c.stderr for c in result.capacities] == [
            0.027502311299022048, 0.056872835512798356]

    def test_fused_and_generic_agree_above_the_scalar_size(self):
        # 8 chains x 6 dims is a state larger than the kernel's scalar loop
        # takes, so the fused run goes through its numpy loop
        lam = [1.1, 0.3, 2.3, 0.0, 1.7, 0.45]
        assert 8 * len(lam) > kernels._SCALAR_COORDS
        cfg = self.config(n_schedule=(9, 15), chains=8,
                          equilibration_epochs=100, samples_per_window=100,
                          heldout_rows=2)
        fused = run_incremental_protocol(QuadraticEnergy(lam), cfg)
        generic = run_incremental_protocol(WrappedQuadratic(lam), cfg)
        np.testing.assert_array_equal(fused.curve.u_mean, generic.curve.u_mean)
        np.testing.assert_array_equal(fused.curve.u_stderr, generic.curve.u_stderr)
        assert fused.records == generic.records
        assert ([(c.value, c.stderr) for c in fused.capacities]
                == [(c.value, c.stderr) for c in generic.capacities])

    def diverging_config(self, equilibration_epochs):
        # at N=10 the update multiplies the lambda=1 coordinate by -1.2 a
        # step (h*k = 4.4), so after ~3860 steps the states reach the
        # overflow edge and whether a chain overflows depends on its noise;
        # run_incremental_protocol refuses this config for a
        # QuadraticEnergy, whose spectrum it sees, but runs WrappedQuadratic
        return SgldConfig(step_size=0.4, n_schedule=(5, 10), chains=5,
                          equilibration_epochs=equilibration_epochs,
                          samples_per_window=20, heldout_rows=1, seed=3)

    def diverging_windows(self, window, equilibration_epochs):
        """The kept mask, final states and samples of each window of the
        diverging config, five chains run by ``window`` alone: the fused
        kernel or the stacked path, on the unstable QuadraticEnergy."""
        cfg = self.diverging_config(equilibration_epochs)
        energy = QuadraticEnergy([1.0, 0.5])
        noise = [derive_rng(cfg.seed, c, 0) for c in range(5)]
        shuffle = [derive_rng(cfg.seed, c, 1) for c in range(5)]
        w, out = np.zeros((5, 2)), []
        for n in cfg.n_schedule:
            if window == "fused":
                w, samples, kept = capmeter.sgld._window_quadratic(
                    energy, w, n, cfg, noise)
            else:
                pools = np.stack([np.arange(c, n, 5) for c in range(5)])
                w, samples, kept = capmeter.sgld._window_stack(
                    energy, w, pools, n, cfg, noise, shuffle)
            out.append((kept, w[kept], samples[:, kept]))
        return out

    def assert_windows_agree(self, fused, stacked, dropped):
        for (kept, w, samples), (kept_s, w_s, samples_s) in zip(fused, stacked):
            np.testing.assert_array_equal(kept, kept_s)
            np.testing.assert_array_equal(w, w_s)
            np.testing.assert_array_equal(samples, samples_s)
        assert [np.flatnonzero(~kept).tolist() for kept, _, _ in fused] == [
            [], dropped]

    def test_diverging_chain_is_dropped_as_before(self):
        cfg = self.diverging_config(3860)
        with np.errstate(all="ignore"):
            generic = run_incremental_protocol(WrappedQuadratic([1.0, 0.5]), cfg)
            self.assert_windows_agree(self.diverging_windows("fused", 3860),
                                      self.diverging_windows("stacked", 3860),
                                      dropped=[2])
        assert generic.failures == (ChainFailure(
            chain=2, sample_size=10,
            detail="langevin update produced a non-finite state"),)
        assert list(generic.curve.record_count) == [5, 4]
        with pytest.raises(ConfigError, match="N=10, lambda_max=1.0"):
            run_incremental_protocol(QuadraticEnergy([1.0, 0.5]),
                                     cfg)

    @pytest.mark.parametrize("scalar_coords", [10**6, -1],
                             ids=["scalar", "numpy"])
    def test_diverging_fused_run_is_silent_on_both_loops(self, monkeypatch,
                                                         scalar_coords):
        # the kernel's scalar loop (Python floats), its numpy loop and the
        # stacked path all overflow without a warning and drop the same
        # chain, with the same bits
        monkeypatch.setattr(kernels, "_SCALAR_COORDS", scalar_coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused = self.diverging_windows("fused", 3860)
            stacked = self.diverging_windows("stacked", 3860)
        self.assert_windows_agree(fused, stacked, dropped=[2])

    def test_diverging_majority_aborts_as_before(self):
        message = ("only 2 of 5 chains survived to sample size 10: "
                   "chain 2 at N=10; chain 3 at N=10; chain 4 at N=10")
        cfg = self.diverging_config(3864)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteState) as err:
                run_incremental_protocol(WrappedQuadratic([1.0, 0.5]), cfg)
            self.assert_windows_agree(self.diverging_windows("fused", 3864),
                                      self.diverging_windows("stacked", 3864),
                                      dropped=[2, 3, 4])
        assert str(err.value) == message
        with pytest.raises(ConfigError, match="N=10, lambda_max=1.0"):
            run_incremental_protocol(QuadraticEnergy([1.0, 0.5]),
                                     cfg)

    @pytest.mark.parametrize("step, refused", [(0.25, True), (0.2499, False)])
    def test_unstable_quadratic_step_is_refused_before_sampling(
            self, monkeypatch, step, refused):
        # h*(N_max*lambda_max + prior_eps) = step * (10*1 + 6) reaches 4 at
        # step 0.25 exactly
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        cfg = SgldConfig(step_size=step, n_schedule=(5, 10), chains=2,
                         equilibration_epochs=2, samples_per_window=3,
                         prior_eps=6.0, heldout_rows=1)
        energy = QuadraticEnergy([0.5, 1.0])
        if refused:
            monkeypatch.setattr(capmeter.sgld, "_window_quadratic", no_sampling)
            monkeypatch.setattr(capmeter.sgld, "_window_stack", no_sampling)
            with pytest.raises(ConfigError) as err:
                run_incremental_protocol(energy, cfg)
            assert str(err.value) == (
                "step 0.25 is unstable at N=10, lambda_max=1.0: "
                "h*(N*lambda_max + prior_eps) = 4.0 must be < 4")
        else:
            result = run_incremental_protocol(energy, cfg)
            assert list(result.curve.record_count) == [2, 2]

    @pytest.mark.parametrize("schedule, chains", [
        ((10, 20), 10),
        ((5, 8), 3),
        ((5, 10, 12, 20), 5),
    ], ids=["equal-shares", "remainders", "two-stacks"])
    def test_chain_pools_are_strided_rows(self, schedule, chains):
        # with every pool inside one batch each epoch steps each chain once
        # on its whole pool, in row order; a schedule point ends with its
        # one held-out readout
        class RowRecording(DifferentiableEnergy):
            def __init__(self):
                self.points = [Counter()]

            @property
            def dim(self):
                return 1

            def value(self, weights, rows):
                return 0.0

            def gradient(self, weights, rows):
                self.points[-1].update(tuple(r) for r in np.asarray(rows).tolist())
                return np.zeros_like(weights)

            def prob_on_rows(self, weights, rows):
                return np.full(np.shape(weights)[:-1] + np.shape(rows)[-1:], 0.5)

            def heldout_means(self, samples, rows):
                self.points.append(Counter())
                return super().heldout_means(samples, rows)

        energy = RowRecording()
        cfg = SgldConfig(step_size=0.01, n_schedule=schedule, chains=chains,
                         equilibration_epochs=1, samples_per_window=2,
                         heldout_rows=1, seed=0)
        run_incremental_protocol(energy, cfg)
        assert energy.points[-1] == Counter()
        assert energy.points[:-1] == [
            Counter({tuple(range(c, n, chains)): 3 for c in range(chains)})
            for n in schedule]

    def test_minibatched_path_runs(self):
        cfg = self.config(batch_size=1, equilibration_epochs=30,
                          samples_per_window=40)
        result = run_incremental_protocol(QuadraticEnergy([1.0]), cfg)
        assert np.all(np.isfinite(result.curve.u_mean))

    def test_quadratic_curve_matches_partition_oracle(self):
        # Unit spectrum in two dimensions with eps = 1: Z(N) = 1/(N+1), so
        # the probability-complement readout is 1 - Z(N+1)/Z(N) = 1/(N+2)
        # and the capacity from log Z differences is
        # -N^2 [log Z(N+delta) - ... ] evaluated stepwise below.
        cfg = SgldConfig(step_size=0.003, n_schedule=(5, 10), chains=4,
                         equilibration_epochs=3_000, samples_per_window=30_000,
                         heldout_rows=1, seed=3)
        result = run_incremental_protocol(QuadraticEnergy([1.0, 1.0]), cfg)
        for n, u in zip(result.curve.n, result.curve.u_mean):
            target = 1.0 / (n + 2.0)
            assert abs(u - target) <= 0.05 * target

        def logz(n):
            return -math.log(n + 1.0)

        u5 = logz(5) - logz(6)
        u10 = logz(10) - logz(11)
        oracle = -25.0 * (u10 - u5) / 5.0
        cap = result.capacities[0]
        assert cap.at_n == 5.0
        assert abs(cap.value - oracle) <= 0.15

    def test_logistic_energy_curve_non_increasing(self):
        ds = gen_synthetic(SyntheticConfig(d=3, kappa=1.0, seed=5), 400)
        energy = LogisticEnergy(ds)
        cfg = SgldConfig(step_size=0.01, n_schedule=(30, 60, 120), chains=3,
                         equilibration_epochs=300, samples_per_window=300,
                         prior_eps=1.0, heldout_rows=280, seed=9)
        result = run_incremental_protocol(energy, cfg)
        u, se = result.curve.u_mean, result.curve.u_stderr
        for i in range(len(u) - 1):
            assert u[i + 1] <= u[i] + math.hypot(se[i], se[i + 1])

    def test_tolerates_minority_chain_failures(self):
        class FailsOnRowZero(DifferentiableEnergy):
            @property
            def dim(self):
                return 1

            def value(self, weights, rows):
                return 0.0

            def gradient(self, weights, rows):
                hit = (np.asarray(rows) == 0).any(axis=-1)
                return np.where(hit[..., None], np.inf, 0.0 * weights)

            def prob_on_rows(self, weights, rows):
                return np.full(np.shape(weights)[:-1] + np.shape(rows)[-1:], 0.5)

        cfg = SgldConfig(step_size=0.01, n_schedule=(4, 8), chains=4,
                         equilibration_epochs=5, samples_per_window=5,
                         heldout_rows=1, seed=0)
        result = run_incremental_protocol(FailsOnRowZero(), cfg)
        assert len(result.failures) == 1
        assert result.failures[0].chain == 0
        assert result.failures[0].sample_size == 4
        assert list(result.curve.record_count) == [3, 3]
        assert all(rec.boot_index != 0 for rec in result.records)

    def test_majority_failure_aborts(self):
        class AlwaysFails(DifferentiableEnergy):
            @property
            def dim(self):
                return 1

            def value(self, weights, rows):
                return 0.0

            def gradient(self, weights, rows):
                return np.full(np.shape(weights), np.inf)

            def prob_on_rows(self, weights, rows):
                return np.full(np.shape(weights)[:-1] + np.shape(rows)[-1:], 0.5)

        cfg = SgldConfig(step_size=0.01, n_schedule=(4,), chains=4,
                         equilibration_epochs=5, samples_per_window=5,
                         heldout_rows=5, seed=0)
        with pytest.raises(NonFiniteState):
            run_incremental_protocol(AlwaysFails(), cfg)


def _reference_heldout_means(energy, samples, rows):
    """The held-out readout one weight sample at a time."""
    return np.array([1.0 - float(energy.prob_on_rows(w, rows).mean())
                     for w in samples])


def _reference_protocol(energy, config, dataset_id="sgld"):
    """run_incremental_protocol for energies outside the fused kernel, one
    sgld_step per minibatch and chain, chain after chain, and one
    prob_on_rows call per held-out sample; its curve aggregates the records
    with estimate_avg_energy."""
    schedule, k = config.n_schedule, config.chains
    batch, m = config.batch_size, config.samples_per_window
    heldout = np.arange(schedule[-1], schedule[-1] + config.heldout_rows)
    pools = [np.empty(0, dtype=np.int64)] * k
    states = [np.zeros(energy.dim) for _ in range(k)]
    noise_rngs = [derive_rng(config.seed, c, 0) for c in range(k)]
    shuffle_rngs = [derive_rng(config.seed, c, 1) for c in range(k)]
    alive = [True] * k
    failures, records, windows = [], [], []
    for j, n in enumerate(schedule):
        pooled = []
        # each schedule step deals its new rows round-robin by row index
        fresh = np.arange(schedule[j - 1] if j else 0, n)
        for c in range(k):
            pools[c] = np.concatenate([pools[c], fresh[fresh % k == c]])
            if not alive[c]:
                continue
            w, samples = states[c], []
            try:
                for epoch in range(config.equilibration_epochs + m):
                    rows = pools[c]
                    if rows.size > batch:
                        rows = rows[shuffle_rngs[c].permutation(rows.size)]
                    for start in range(0, rows.size, batch):
                        w = sgld_step(w, energy, rows[start:start + batch], n,
                                      config.step_size, noise_rngs[c],
                                      config.prior_eps)
                    if epoch >= config.equilibration_epochs:
                        samples.append(w)
            except NonFiniteState as exc:
                alive[c] = False
                failures.append(ChainFailure(chain=c, sample_size=n,
                                             detail=str(exc)))
                continue
            states[c] = w
            e = _reference_heldout_means(energy, np.array(samples), heldout)
            pooled.append(e)
            records.append(EnergyRecord(
                dataset_id=dataset_id, sample_size=n, boot_index=c,
                fold_index=0, seed_index=0,
                nll_sum=float(e.sum() * heldout.size),
                heldout_count=int(e.size * heldout.size)))
        if 2 * sum(alive) < k:
            raise NonFiniteState(
                f"only {sum(alive)} of {k} chains survived to sample size {n}: "
                + "; ".join(f"chain {f.chain} at N={f.sample_size}"
                            for f in failures))
        windows.append(np.concatenate(pooled))
    capacities = tuple(
        capmeter.sgld._capacity_from_window_energies(
            windows[j], windows[j + 1], schedule[j], schedule[j + 1] - schedule[j])
        for j in range(len(schedule) - 1))
    curve = estimate_avg_energy(records, scale="probability-complement")
    return failures, records, curve, capacities


def assert_matches_reference(result, reference):
    failures, records, curve, capacities = reference
    assert result.failures == tuple(failures)
    assert result.records == tuple(records)
    assert result.capacities == capacities
    assert result.curve.points == curve.points
    assert result.curve.scale == curve.scale


def logistic_energy():
    # three classes, so each state is a (2, d+1) weight matrix
    cfg = SyntheticConfig(d=3, kappa=0.5, m_classes=3, seed=2)
    return LogisticEnergy(gen_synthetic(cfg, 110))


def mlp_energy():
    return MlpEnergy(gen_synthetic(SyntheticConfig(d=3, kappa=0.5, seed=4), 110),
                     hidden=4)


class PoisonedLogistic(LogisticEnergy):
    """Logistic energy with an infinite gradient on minibatches that hold
    one of ``bad_rows``, so the chain owning such a row fails part-way
    through the window that admits it."""

    def __init__(self, dataset, bad_rows):
        super().__init__(dataset)
        self.bad_rows = np.asarray(bad_rows)

    def gradient(self, weights, rows):
        g = super().gradient(weights, rows)
        hit = np.isin(np.asarray(rows), self.bad_rows).any(axis=-1)
        return np.where(hit[..., None], np.inf, g)


class TestStackedWindow:
    """The stacked window and readout against the per-step reference."""

    @pytest.mark.parametrize("make_energy", [logistic_energy, mlp_energy],
                             ids=["logistic", "mlp"])
    # prior_eps 0 is the flat (uniform) prior
    @pytest.mark.parametrize("prior_eps", [2.0, 0.0], ids=["GAUSSIAN", "UNIFORM"])
    @pytest.mark.parametrize("schedule, batch", [
        # pools of 14, 13, 13 then 30 rows: minibatched, with a short last
        # minibatch, and two stacks at the first point
        ((40, 90), 7),
        # pools of 4, 3, 3 then 9, 8, 8 rows, each pool one batch
        ((10, 25), 64),
    ], ids=["minibatched", "one-batch"])
    def test_matches_per_step_reference(self, make_energy, prior_eps, schedule,
                                        batch):
        energy = make_energy()
        cfg = SgldConfig(step_size=1e-3, n_schedule=schedule, chains=3,
                         equilibration_epochs=5, samples_per_window=7,
                         batch_size=batch, prior_eps=prior_eps,
                         heldout_rows=110 - schedule[-1], seed=4)
        result = run_incremental_protocol(energy, cfg)
        reference = _reference_protocol(energy, cfg)
        assert_matches_reference(result, reference)
        assert list(result.curve.record_count) == [3, 3]

    def config(self):
        # row 12 reaches chain 0 and row 13 chain 1 at N=24, where each
        # chain's pool holds 8 rows, dealt in minibatches of 4, and all three
        # chains share one stack
        return SgldConfig(step_size=1e-3, n_schedule=(9, 24, 39), chains=3,
                          equilibration_epochs=5, samples_per_window=7,
                          batch_size=4, heldout_rows=71, seed=1)

    def test_chain_going_non_finite_mid_window(self):
        data = logistic_energy().dataset
        energy = PoisonedLogistic(data, [12])
        with np.errstate(invalid="ignore"):
            result = run_incremental_protocol(energy, self.config())
            reference = _reference_protocol(energy, self.config())
        assert result.failures == (ChainFailure(
            chain=0, sample_size=24,
            detail="langevin update produced a non-finite state"),)
        assert list(result.curve.record_count) == [3, 2, 2]
        assert_matches_reference(result, reference)

    def test_majority_going_non_finite_aborts_as_reference(self):
        data = logistic_energy().dataset
        energy = PoisonedLogistic(data, [12, 13])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteState) as got:
                run_incremental_protocol(energy, self.config())
            with pytest.raises(NonFiniteState) as want:
                _reference_protocol(energy, self.config())
        assert str(got.value) == str(want.value) == (
            "only 1 of 3 chains survived to sample size 24: "
            "chain 0 at N=24; chain 1 at N=24")

    @pytest.mark.parametrize("make_energy", [logistic_energy, mlp_energy],
                             ids=["logistic", "mlp"])
    def test_stacked_gradient_matches_per_state_calls(self, make_energy):
        energy = make_energy()
        rng = np.random.default_rng(3)
        weights = rng.standard_normal((5, energy.dim))
        rows = rng.integers(0, 110, size=(5, 9))
        want = np.stack([energy.gradient(w, r) for w, r in zip(weights, rows)])
        np.testing.assert_array_equal(energy.gradient(weights, rows), want)

    @pytest.mark.parametrize("make_energy", [logistic_energy, mlp_energy],
                             ids=["logistic", "mlp"])
    @pytest.mark.parametrize("block", [1 << 16, 50], ids=["one-block", "blocks"])
    def test_stacked_readout_matches_per_sample_loop(self, make_energy, block,
                                                     monkeypatch):
        # a block of 50 sample-rows scores the 23 samples on 20 rows in
        # eleven blocks of two and a last block of one
        monkeypatch.setattr(capmeter.sgld, "_HELDOUT_BLOCK", block)
        energy = make_energy()
        rng = np.random.default_rng(8)
        samples = rng.standard_normal((23, energy.dim))
        rows = np.arange(90, 110)
        np.testing.assert_array_equal(
            energy.heldout_means(samples, rows),
            _reference_heldout_means(energy, samples, rows))


@pytest.mark.parametrize("name", capmeter.sgld.__all__)
def test_public_name_resolves(name):
    assert hasattr(capmeter.sgld, name)
