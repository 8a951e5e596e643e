"""Langevin sampler tests.

Statistical checks run with fixed seeds and budgets sized so the expected
Monte-Carlo error sits well inside the asserted tolerance; closed-form
targets come from the quadratic partition-function module.
"""

import math
import warnings

import numpy as np
import pytest

from capmeter.errors import (
    ConfigError,
    EmptyHeldout,
    EmptyWindow,
    InvalidArgument,
    NonFiniteState,
    ScheduleExhaustsData,
)
import capmeter.sgld
from capmeter import kernels
from capmeter.learners import REGRESSION, Dataset, SyntheticConfig, gen_synthetic
from capmeter.oracle import HessianSpectrum, PriorKind, quad_log_z
from capmeter.protocol import EnergyRecord, derive_rng
from capmeter.sgld import (
    ChainFailure,
    DifferentiableEnergy,
    LogisticEnergy,
    MlpEnergy,
    QuadraticEnergy,
    RowCount,
    SgldConfig,
    run_incremental_protocol,
    schedule_row_blocks,
    sgld_avg_energy,
    sgld_capacity,
    sgld_step,
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
        assert cfg.prior is PriorKind.GAUSSIAN
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

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(10,), chains=0)
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(10,), samples_per_window=0)
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(10,), equilibration_epochs=-1)
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(10,), prior_eps=-0.5)
        with pytest.raises(ConfigError):
            SgldConfig(step_size=0.1, n_schedule=(10,), prior="gaussian")


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
        ds = Dataset(np.ones((4, 1)), np.array([0.1, 0.2, 0.3, 0.4]), REGRESSION)
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

    def test_prob_on_rows_in_unit_interval(self):
        cfg = SyntheticConfig(d=3, kappa=0.0, seed=1)
        ds = gen_synthetic(cfg, 10)
        energy = MlpEnergy(ds, hidden=2)
        p = energy.prob_on_rows(np.random.default_rng(0).standard_normal(energy.dim),
                                np.arange(10))
        assert np.all(p > 0.0) and np.all(p < 1.0)


class TestSgldStep:
    def test_pure_noise_moments(self):
        # Zero gradient and uniform prior leave only the injected noise:
        # increments are Gaussian with per-coordinate variance equal to the
        # step size.
        energy = QuadraticEnergy([0.0, 0.0, 0.0])
        step = 0.04
        rng = np.random.default_rng(11)
        w = np.zeros(3)
        draws = np.empty((10_000, 3))
        for i in range(draws.shape[0]):
            draws[i] = sgld_step(w, energy, np.arange(3), 50, PriorKind.UNIFORM,
                                 step, rng)
        var = draws.reshape(-1).var()
        assert abs(var - step) <= 0.05 * step
        assert abs(draws.mean()) <= 3 * math.sqrt(step / draws.size)

    def test_deterministic_given_rng(self):
        energy = QuadraticEnergy([1.0, 2.0])
        w = np.array([0.3, -0.4])
        a = sgld_step(w, energy, np.arange(2), 10, PriorKind.GAUSSIAN, 0.01,
                      np.random.default_rng(3), prior_eps=1.0)
        b = sgld_step(w, energy, np.arange(2), 10, PriorKind.GAUSSIAN, 0.01,
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
            w = sgld_step(w, energy, np.arange(1), n, PriorKind.GAUSSIAN, step,
                          rng, prior_eps=eps)
            if i >= burn:
                acc[i - burn] = w[0]
        target = 1.0 / (n + eps)
        assert abs(acc.var() - target) <= 0.10 * target

    def test_rejects_empty_rows(self):
        with pytest.raises(InvalidArgument):
            sgld_step(np.zeros(1), QuadraticEnergy([1.0]), np.empty(0, dtype=int),
                      10, PriorKind.UNIFORM, 0.01, np.random.default_rng(0))

    def test_non_finite_state_raises(self):
        energy = QuadraticEnergy([1e300])
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteState):
                sgld_step(np.array([1e300]), energy, np.arange(1), 10,
                          PriorKind.UNIFORM, 1.0, np.random.default_rng(0))


class TestAvgEnergy:
    def test_perfect_predictor_scores_zero(self):
        window = np.array([[1.0], [1.0]])
        assert sgld_avg_energy(window, FixedProbEnergy(), np.arange(3)) == 0.0

    def test_uniform_two_class_scores_half(self):
        window = np.array([[0.5]])
        assert sgld_avg_energy(window, FixedProbEnergy(), np.arange(4)) == 0.5

    def test_averages_over_samples(self):
        window = np.array([[1.0], [0.5]])
        assert sgld_avg_energy(window, FixedProbEnergy(), np.arange(2)) == 0.25

    def test_stays_in_unit_interval(self):
        energy = QuadraticEnergy([1.0, 1.0])
        samples = 3.0 * np.random.default_rng(2).standard_normal((100, 2))
        u = sgld_avg_energy(samples, energy, np.arange(5))
        assert 0.0 <= u <= 1.0

    def test_empty_heldout_rejected(self):
        with pytest.raises(EmptyHeldout):
            sgld_avg_energy(np.ones((1, 1)), FixedProbEnergy(), np.empty(0, dtype=int))

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindow):
            sgld_avg_energy(np.empty((0, 1)), FixedProbEnergy(), np.arange(2))


class TestSgldCapacity:
    def test_identical_windows_give_zero(self):
        window = np.array([[0.7], [0.7], [0.7]])
        est = sgld_capacity(window, window, FixedProbEnergy(), np.arange(2), 10, 1.0)
        assert est.value == 0.0
        assert est.method == "sgld"

    def test_one_over_n_curve_value(self):
        # Average energies 1/10 and 1/11 at N = 10, delta 1:
        # C = -100 * (1/11 - 1/10) = 100/110.
        lo = np.array([[0.9]])
        hi = np.array([[1.0 - 1.0 / 11.0]])
        est = sgld_capacity(lo, hi, FixedProbEnergy(), np.arange(2), 10, 1.0)
        assert est.value == pytest.approx(100.0 / 110.0, rel=1e-12)
        assert est.stderr == 0.0
        assert est.at_n == 10.0

    def test_stderr_from_between_sample_scatter(self):
        lo = np.array([[0.9], [0.7]])   # energies 0.1, 0.3
        hi = np.array([[0.8], [0.8]])   # energies 0.2, 0.2
        est = sgld_capacity(lo, hi, FixedProbEnergy(), np.arange(2), 2, 1.0)
        assert est.value == pytest.approx(0.0, abs=1e-15)
        se_lo = np.std([0.1, 0.3], ddof=1) / math.sqrt(2)
        assert est.stderr == pytest.approx(4 * se_lo, rel=1e-12)

    def test_rejects_bad_arguments(self):
        window = np.ones((1, 1))
        with pytest.raises(EmptyWindow):
            sgld_capacity(np.empty((0, 1)), window, FixedProbEnergy(), np.arange(2), 10, 1.0)
        with pytest.raises(EmptyHeldout):
            sgld_capacity(window, window, FixedProbEnergy(), np.empty(0, dtype=int), 10, 1.0)
        with pytest.raises(InvalidArgument):
            sgld_capacity(window, window, FixedProbEnergy(), np.arange(2), 10, 0.0)


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
            w = sgld_step(w, energy, np.arange(1), n, PriorKind.GAUSSIAN, step,
                          rng, prior_eps=eps)
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
        u_quad = const + (quad_log_z(spectrum, PriorKind.GAUSSIAN, n)
                          - quad_log_z(spectrum, PriorKind.GAUSSIAN, n + 1))
        target = 1.0 - math.exp(-u_quad)

        rng = np.random.default_rng(41)
        w = np.zeros(2)
        burn, keep, thin = 5_000, 30_000, 5
        samples = np.empty((keep // thin, 2))
        for i in range(burn + keep):
            w = sgld_step(w, energy, train, n, PriorKind.GAUSSIAN, step, rng,
                          prior_eps=eps)
            if i >= burn and (i - burn) % thin == 0:
                samples[(i - burn) // thin] = w
        u_sgld = sgld_avg_energy(samples, energy, heldout)
        assert abs(u_sgld - target) <= 0.05 * target


class TestScheduleRowBlocks:
    def test_equal_shares_per_step(self):
        blocks = schedule_row_blocks((10, 20), 10)
        assert len(blocks) == 2
        for per_chain in blocks:
            assert [b.size for b in per_chain] == [1] * 10
        dealt = np.concatenate([b for per_chain in blocks for b in per_chain])
        assert sorted(dealt.tolist()) == list(range(20))

    def test_remainders_spread_round_robin(self):
        blocks = schedule_row_blocks((5, 8), 3)
        assert [b.size for b in blocks[0]] == [2, 2, 1]
        assert [b.size for b in blocks[1]] == [1, 1, 1]
        dealt = np.concatenate([b for per_chain in blocks for b in per_chain])
        assert sorted(dealt.tolist()) == list(range(8))


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
                    equilibration_epochs=200, samples_per_window=400, seed=3)
        base.update(kw)
        return SgldConfig(**base)

    def test_schedule_beyond_dataset_rejected(self):
        with pytest.raises(ScheduleExhaustsData):
            run_incremental_protocol(QuadraticEnergy([1.0]), RowCount(8),
                                     self.config())

    def test_no_heldout_rows_rejected(self):
        with pytest.raises(EmptyHeldout):
            run_incremental_protocol(QuadraticEnergy([1.0]), RowCount(10),
                                     self.config())

    def test_schedule_must_cover_chains(self):
        with pytest.raises(ConfigError):
            run_incremental_protocol(QuadraticEnergy([1.0]), RowCount(30),
                                     self.config(n_schedule=(3, 10)))

    def test_record_layout(self):
        result = run_incremental_protocol(QuadraticEnergy([1.0, 1.0]),
                                          RowCount(11), self.config())
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
        a = run_incremental_protocol(QuadraticEnergy([1.0, 1.0]), RowCount(11),
                                     self.config())
        b = run_incremental_protocol(QuadraticEnergy([1.0, 1.0]), RowCount(11),
                                     self.config())
        np.testing.assert_array_equal(a.curve.u_mean, b.curve.u_mean)
        assert a.records == b.records
        assert [c.value for c in a.capacities] == [c.value for c in b.capacities]

    def test_fused_and_generic_paths_agree_bitwise(self):
        cfg = self.config(equilibration_epochs=50, samples_per_window=60)
        fused = run_incremental_protocol(QuadraticEnergy([1.0, 0.5]),
                                         RowCount(11), cfg)
        generic = run_incremental_protocol(WrappedQuadratic([1.0, 0.5]),
                                           RowCount(11), cfg)
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
        fused = run_incremental_protocol(QuadraticEnergy([1.0, 0.5, 2.0]),
                                         RowCount(21), cfg)
        generic = run_incremental_protocol(WrappedQuadratic([1.0, 0.5, 2.0]),
                                           RowCount(21), cfg)
        assert [b.size for b in schedule_row_blocks(cfg.n_schedule, 5)[2]] == [
            1, 1, 0, 0, 0]
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
                         seed=11)
        result = run_incremental_protocol(QuadraticEnergy([1.0, 0.3]),
                                          RowCount(21), cfg)
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
                          equilibration_epochs=100, samples_per_window=100)
        fused = run_incremental_protocol(QuadraticEnergy(lam), RowCount(17), cfg)
        generic = run_incremental_protocol(WrappedQuadratic(lam), RowCount(17),
                                           cfg)
        np.testing.assert_array_equal(fused.curve.u_mean, generic.curve.u_mean)
        np.testing.assert_array_equal(fused.curve.u_stderr, generic.curve.u_stderr)
        assert fused.records == generic.records
        assert ([(c.value, c.stderr) for c in fused.capacities]
                == [(c.value, c.stderr) for c in generic.capacities])

    def diverging_config(self, equilibration_epochs):
        # at N=10 the update multiplies the lambda=1 coordinate by -1.2 a
        # step, so after ~3860 steps the states reach the overflow edge and
        # whether a chain overflows depends on its noise
        return SgldConfig(step_size=0.4, n_schedule=(5, 10), chains=5,
                          equilibration_epochs=equilibration_epochs,
                          samples_per_window=20, seed=3)

    def test_diverging_chain_is_dropped_as_before(self):
        cfg = self.diverging_config(3860)
        with np.errstate(all="ignore"):
            fused = run_incremental_protocol(QuadraticEnergy([1.0, 0.5]),
                                             RowCount(11), cfg)
            generic = run_incremental_protocol(WrappedQuadratic([1.0, 0.5]),
                                               RowCount(11), cfg)
        expected = (ChainFailure(chain=2, sample_size=10,
                                 detail="langevin update produced a non-finite state"),)
        assert fused.failures == generic.failures == expected
        assert list(fused.curve.record_count) == [5, 4]
        assert fused.records == generic.records

    @pytest.mark.parametrize("scalar_coords", [10**6, -1],
                             ids=["scalar", "numpy"])
    def test_diverging_fused_run_is_silent_on_both_loops(self, monkeypatch,
                                                         scalar_coords):
        # the kernel's scalar loop (Python floats) and its numpy loop both
        # overflow without a warning and report the same dropped chain
        monkeypatch.setattr(kernels, "_SCALAR_COORDS", scalar_coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused = run_incremental_protocol(QuadraticEnergy([1.0, 0.5]),
                                             RowCount(11),
                                             self.diverging_config(3860))
        assert fused.failures == (ChainFailure(
            chain=2, sample_size=10,
            detail="langevin update produced a non-finite state"),)
        assert list(fused.curve.record_count) == [5, 4]

    def test_diverging_majority_aborts_as_before(self):
        message = ("only 2 of 5 chains survived to sample size 10: "
                   "chain 2 at N=10; chain 3 at N=10; chain 4 at N=10")
        for energy in (QuadraticEnergy([1.0, 0.5]), WrappedQuadratic([1.0, 0.5])):
            with np.errstate(all="ignore"), pytest.raises(NonFiniteState) as err:
                run_incremental_protocol(energy, RowCount(11),
                                         self.diverging_config(3864))
            assert str(err.value) == message

    def test_minibatched_path_runs(self):
        cfg = self.config(batch_size=1, equilibration_epochs=30,
                          samples_per_window=40)
        result = run_incremental_protocol(QuadraticEnergy([1.0]), RowCount(11), cfg)
        assert np.all(np.isfinite(result.curve.u_mean))

    def test_quadratic_curve_matches_partition_oracle(self):
        # Unit spectrum in two dimensions with eps = 1: Z(N) = 1/(N+1), so
        # the probability-complement readout is 1 - Z(N+1)/Z(N) = 1/(N+2)
        # and the capacity from log Z differences is
        # -N^2 [log Z(N+delta) - ... ] evaluated stepwise below.
        cfg = SgldConfig(step_size=0.003, n_schedule=(5, 10), chains=4,
                         equilibration_epochs=3_000, samples_per_window=30_000,
                         seed=3)
        result = run_incremental_protocol(QuadraticEnergy([1.0, 1.0]),
                                          RowCount(11), cfg)
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
                         prior_eps=1.0, seed=9)
        result = run_incremental_protocol(energy, ds, cfg)
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
                         equilibration_epochs=5, samples_per_window=5, seed=0)
        result = run_incremental_protocol(FailsOnRowZero(), RowCount(9), cfg)
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
                         equilibration_epochs=5, samples_per_window=5, seed=0)
        with pytest.raises(NonFiniteState):
            run_incremental_protocol(AlwaysFails(), RowCount(9), cfg)


def _reference_heldout_means(energy, samples, rows):
    """The held-out readout one weight sample at a time."""
    return np.array([1.0 - float(energy.prob_on_rows(w, rows).mean())
                     for w in samples])


def _reference_protocol(energy, dataset, config, dataset_id="sgld"):
    """run_incremental_protocol for energies outside the fused kernel, one
    sgld_step per minibatch and chain, chain after chain, and one
    prob_on_rows call per held-out sample."""
    schedule, k = config.n_schedule, config.chains
    batch, m = config.batch_size, config.samples_per_window
    heldout = np.arange(schedule[-1], dataset.n_rows)
    blocks = schedule_row_blocks(schedule, k)
    pools = [np.empty(0, dtype=np.int64)] * k
    states = [np.zeros(energy.dim) for _ in range(k)]
    noise_rngs = [derive_rng(config.seed, c, 0) for c in range(k)]
    shuffle_rngs = [derive_rng(config.seed, c, 1) for c in range(k)]
    alive = [True] * k
    failures, records, u_mean, u_stderr, windows = [], [], [], [], []
    for j, n in enumerate(schedule):
        chain_means, pooled = [], []
        for c in range(k):
            pools[c] = np.concatenate([pools[c], blocks[j][c]])
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
                                      config.prior, config.step_size,
                                      noise_rngs[c], config.prior_eps)
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
            chain_means.append(float(e.mean()))
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
        means = np.asarray(chain_means)
        u_mean.append(means.mean())
        u_stderr.append(means.std(ddof=1) / math.sqrt(means.size)
                        if means.size > 1 else 0.0)
        windows.append(np.concatenate(pooled))
    capacities = tuple(
        capmeter.sgld._capacity_from_window_energies(
            windows[j], windows[j + 1], schedule[j], schedule[j + 1] - schedule[j])
        for j in range(len(schedule) - 1))
    return failures, records, u_mean, u_stderr, capacities


def assert_matches_reference(result, reference):
    failures, records, u_mean, u_stderr, capacities = reference
    assert result.failures == tuple(failures)
    assert result.records == tuple(records)
    assert result.capacities == capacities
    np.testing.assert_array_equal(result.curve.u_mean, u_mean)
    np.testing.assert_array_equal(result.curve.u_stderr, u_stderr)


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
    @pytest.mark.parametrize("prior", list(PriorKind), ids=lambda p: p.name)
    @pytest.mark.parametrize("schedule, batch", [
        # pools of 14, 13, 13 then 30 rows: minibatched, with a short last
        # minibatch, and two stacks at the first point
        ((40, 90), 7),
        # pools of 4, 3, 3 then 9, 8, 8 rows, each pool one batch
        ((10, 25), 64),
    ], ids=["minibatched", "one-batch"])
    def test_matches_per_step_reference(self, make_energy, prior, schedule,
                                        batch):
        energy = make_energy()
        cfg = SgldConfig(step_size=1e-3, n_schedule=schedule, chains=3,
                         equilibration_epochs=5, samples_per_window=7,
                         batch_size=batch, prior=prior, prior_eps=2.0, seed=4)
        result = run_incremental_protocol(energy, energy.dataset, cfg)
        reference = _reference_protocol(energy, energy.dataset, cfg)
        assert_matches_reference(result, reference)
        assert list(result.curve.record_count) == [3, 3]

    def config(self):
        # row 12 reaches chain 0 and row 13 chain 1 at N=24, where each
        # chain's pool holds 8 rows, dealt in minibatches of 4, and all three
        # chains share one stack
        return SgldConfig(step_size=1e-3, n_schedule=(9, 24, 39), chains=3,
                          equilibration_epochs=5, samples_per_window=7,
                          batch_size=4, seed=1)

    def test_chain_going_non_finite_mid_window(self):
        data = logistic_energy().dataset
        energy = PoisonedLogistic(data, [12])
        with np.errstate(invalid="ignore"):
            result = run_incremental_protocol(energy, data, self.config())
            reference = _reference_protocol(energy, data, self.config())
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
                run_incremental_protocol(energy, data, self.config())
            with pytest.raises(NonFiniteState) as want:
                _reference_protocol(energy, data, self.config())
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
