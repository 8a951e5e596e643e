"""Acceptance suite: ten end-to-end checks on the released behavior.

Each test exercises one advertised property — oracle closed forms, the
resampling pipeline, curve-fit recovery, the Langevin sampler, ordering
properties on synthetic data, and bitwise reproducibility — at its stated
tolerance.  The conftest terminal hook prints one PASS/FAIL line per
criterion after the run.

The heavyweight pipelines (criteria 2, 6, 8) are built by plain functions
so the determinism criterion can invoke them a second time and compare
results float for float.
"""

import math
import time
from typing import NamedTuple

import numpy as np
import pytest
from scipy import integrate

from capmeter.estimators import (
    capacity_from_polynomial,
    capacity_from_sigmoid,
    capacity_loss_regression,
    fit_monotone_polynomial,
    fit_sigmoid_capacity,
    kendall_tau,
)
from capmeter.learners import (
    SyntheticConfig,
    gen_synthetic,
    logistic_learner,
    mlp_learner,
)
from capmeter.oracle import (
    HessianSpectrum,
    pacbayes_effective_dim,
    quad_capacity_exact,
    quad_log_z,
    rlct_volume_estimate,
)
from capmeter.protocol import EnergyCurve, ProtocolConfig, estimate_avg_energy, run_protocol
from capmeter.sgld import QuadraticEnergy, SgldConfig, run_incremental_protocol


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def quadpack_sigmoid_energy(a, b, c, u_inf, n):
    """Reference energy via QUADPACK, independent of the package quadrature."""
    val, _ = integrate.quad(lambda u: a / (1.0 + np.exp(b) * u ** c),
                            0.0, 1.0 / n, epsabs=1e-13, epsrel=1e-13,
                            limit=200)
    return u_inf + val


def make_curve(n, u, stderr):
    n = np.asarray(n, dtype=np.float64)
    return EnergyCurve(n=n, u_mean=np.asarray(u, dtype=np.float64),
                      u_stderr=np.asarray(stderr, dtype=np.float64),
                      record_count=np.full(n.size, 10), scale="nll")


def log_grid(lo, hi, count):
    return tuple(int(v) for v in np.unique(np.rint(np.geomspace(lo, hi, count))))


def _quad_energy(w):
    return 0.5 * np.sum(w * w, axis=1)


def _box_sampler(p):
    def draw(rng, m):
        return rng.uniform(-1.0, 1.0, size=(m, p))
    return draw


# ---------------------------------------------------------------------------
# pipeline builders, reused by the determinism criterion
# ---------------------------------------------------------------------------

class PipelineRun(NamedTuple):
    records: tuple
    curve: EnergyCurve
    model: object
    capacity: object


def logistic_pipeline():
    """Full pipeline on noiseless synthetic data with a logistic student.

    21 free parameters: one non-reference class times (20 inputs + bias).
    The simple two-unit teacher keeps the whole grid inside the 1/N
    scaling regime, away from the small-N memorization cliff.
    """
    grid = log_grid(150, 5000, 14)
    config = ProtocolConfig(n_grid=grid, master_seed=0, n_boots=2,
                            k_folds=5, m_seeds=3)
    data = gen_synthetic(SyntheticConfig(d=20, kappa=0.0, teacher_hidden=2,
                                         m_classes=2, seed=2), max(grid))
    learner = logistic_learner(l2=1e-3, epochs=1000)
    result = run_protocol(data, learner, config, dataset_id="logistic-check")
    curve = estimate_avg_energy(result.records)
    model = fit_sigmoid_capacity(curve)
    cap = capacity_from_sigmoid(model, float(max(grid)))
    return PipelineRun(result.records, curve, model, cap)


class KappaRun(NamedTuple):
    records: tuple
    capacity: float
    loss: float


def kappa_sweep():
    """One MLP pipeline per input-decay rate; returns capacity and loss."""
    grid = log_grid(100, 2000, 8)
    config = ProtocolConfig(n_grid=grid, master_seed=0, n_boots=2,
                            k_folds=5, m_seeds=2)
    learner = mlp_learner(hidden=16, epochs=150, lr_max=0.1, batch=64)
    runs = []
    for kappa in (0.1, 1.0, 10.0):
        data = gen_synthetic(SyntheticConfig(d=20, kappa=kappa, m_classes=2,
                                             seed=1), max(grid))
        result = run_protocol(data, learner, config,
                              dataset_id=f"kappa-{kappa:g}")
        curve = estimate_avg_energy(result.records)
        model = fit_sigmoid_capacity(curve)
        cap = capacity_from_sigmoid(model, float(max(grid)))
        runs.append(KappaRun(result.records, cap.value,
                             float(curve.u_mean[-1])))
    return runs


def langevin_run():
    """Incremental Langevin protocol on the two-dimensional unit quadratic."""
    config = SgldConfig(step_size=0.002, n_schedule=(5, 10, 20, 40), chains=5,
                        equilibration_epochs=3000, samples_per_window=100000,
                        batch_size=64, prior_eps=1.0, heldout_rows=1, seed=20)
    energy = QuadraticEnergy((1.0, 1.0))
    start = time.perf_counter()
    result = run_incremental_protocol(energy, config, dataset_id="langevin-check")
    return result, time.perf_counter() - start


def gibbs_average_energy(n):
    """Closed-form heldout mean of 1 - e^{-H} for the unit pair, unit prior."""
    return 1.0 / (n + 2.0)


def gibbs_capacity(n_lo, n_hi):
    """Integer-step capacity between two schedule stops of the same model."""
    return (-n_lo * n_lo
            * (gibbs_average_energy(n_hi) - gibbs_average_energy(n_lo))
            / (n_hi - n_lo))


@pytest.fixture(scope="module")
def logistic_run():
    return logistic_pipeline()


@pytest.fixture(scope="module")
def kappa_runs():
    return kappa_sweep()


@pytest.fixture(scope="module")
def langevin_result():
    return langevin_run()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_capacity_matches_logz_curvature(record_property):
    # exact capacity vs N^2 times the second integer difference of log Z,
    # within 2% on 50 random spectra, in under a second
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(1, 21))
        lam = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=p))
        eps = float(np.exp(rng.uniform(np.log(1e-2), np.log(1.0))))
        spectrum = HessianSpectrum(eigenvalues=tuple(lam), epsilon=eps)
        for n in (10, 100, 1000):
            exact = quad_capacity_exact(spectrum, n)
            curvature = n * n * (
                quad_log_z(spectrum, n + 1)
                - 2.0 * quad_log_z(spectrum, n)
                + quad_log_z(spectrum, n - 1))
            worst = max(worst, abs(curvature - exact) / exact)
    elapsed = time.perf_counter() - start
    record_property("detail", f"worst deviation {worst * 100:.3f}% (cap 2%), "
                              f"{elapsed * 1e3:.0f} ms (cap 1 s)")
    assert worst <= 0.02
    assert elapsed < 1.0


def test_criterion_02_logistic_capacity_near_half_param_count(
        logistic_run, record_property):
    free_params = (2 - 1) * (20 + 1)
    half = free_params / 2.0
    value = logistic_run.capacity.value
    record_property("detail",
                    f"C(5000) = {value:.2f} +- {logistic_run.capacity.stderr:.2f}, "
                    f"window [{0.5 * half:.2f}, {1.5 * half:.2f}]")
    assert 0.5 * half <= value <= 1.5 * half


def test_criterion_03_sigmoid_fit_recovery_rate(record_property):
    a_true, b_true, c_true, u_inf_true = 100.0, 20.0, 3.0, 0.1
    n_star_true = math.exp(b_true / c_true)
    n = np.geomspace(1e2, 1e5, 15)
    u_true = np.array([quadpack_sigmoid_energy(a_true, b_true, c_true,
                                               u_inf_true, nn) for nn in n])
    sigma = 0.005 * u_true
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        curve = make_curve(n, u_true + rng.normal(0.0, sigma), sigma)
        model = fit_sigmoid_capacity(curve)
        n_star = math.exp(model.b / model.c)
        if (abs(model.a - a_true) <= 0.05 * a_true
                and abs(n_star - n_star_true) <= 0.15 * n_star_true):
            wins += 1
    record_property("detail", f"{wins}/20 seeds recovered a within 5% "
                              f"and n* within 15% (need >= 18)")
    assert wins >= 18


def test_criterion_04_poly_and_sigmoid_estimates_agree(
        logistic_run, record_property):
    checks = []

    def check(label, curve, sigmoid_model=None):
        n_max = float(curve.n[-1])
        model = sigmoid_model or fit_sigmoid_capacity(curve)
        sig = capacity_from_sigmoid(model, n_max)
        poly = capacity_from_polynomial(fit_monotone_polynomial(curve), n_max)
        diff = abs(sig.value - poly.value)
        bound = max(sig.stderr, poly.stderr)
        checks.append((label, diff, bound))
        assert diff <= bound, (f"{label}: |{sig.value:.3f} - {poly.value:.3f}|"
                               f" = {diff:.3f} > {bound:.3f}")

    check("pipeline", logistic_run.curve, logistic_run.model)

    spectrum = HessianSpectrum(eigenvalues=(3.0, 1.5, 0.8, 0.3, 0.1, 0.03),
                               epsilon=0.5)

    def quad_energy_curve(n):
        return (quad_log_z(spectrum, n)
                - quad_log_z(spectrum, n + 1))

    synthetic = [
        ("quadratic", log_grid(20, 2000, 12),
         lambda nn: quad_energy_curve(float(nn))),
        ("sigmoid", log_grid(50, 5000, 12),
         lambda nn: quadpack_sigmoid_energy(30.0, 12.0, 2.5, 0.05, nn)),
        ("power-law", log_grid(30, 3000, 12), lambda nn: 0.04 + 2.5 / nn),
    ]
    for label, grid, truth in synthetic:
        rng = np.random.default_rng(0)
        u = np.array([truth(nn) for nn in grid])
        sigma = 0.003 * u
        check(label, make_curve(grid, u + rng.normal(0.0, sigma), sigma))

    summary = "; ".join(f"{label} diff {diff:.2f} <= {bound:.2f}"
                        for label, diff, bound in checks)
    record_property("detail", summary)


def test_criterion_05_effective_dim_matches_brute_force(record_property):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p = int(rng.integers(1, 31))
        lam = np.exp(rng.uniform(np.log(1e-4), np.log(100.0), size=p))
        lam *= rng.choice([-1.0, 1.0], size=p)
        eps = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        n = int(rng.integers(2, 1_000_000))
        spectrum = HessianSpectrum(eigenvalues=tuple(lam), epsilon=eps)
        threshold = eps / (2.0 * (n - 1))
        brute = 0
        for eigenvalue in lam:
            if abs(eigenvalue) >= threshold:
                brute += 1
        assert pacbayes_effective_dim(spectrum, n) == brute
    record_property("detail", "1000 random spectra, exact count match")


def test_criterion_06_langevin_matches_quadratic_closed_form(
        langevin_result, record_property):
    result, elapsed = langevin_result
    worst_rel = 0.0
    for n, u, _, _ in result.curve.points:
        truth = gibbs_average_energy(n)
        worst_rel = max(worst_rel, abs(u - truth) / truth)
    assert worst_rel <= 0.05
    worst_abs = 0.0
    schedule = (5, 10, 20, 40)
    assert len(result.capacities) == 3
    for cap, (n_lo, n_hi) in zip(result.capacities,
                                 zip(schedule, schedule[1:])):
        assert cap.at_n == n_lo
        worst_abs = max(worst_abs, abs(cap.value - gibbs_capacity(n_lo, n_hi)))
    assert worst_abs <= 0.15
    record_property("detail",
                    f"energy within {worst_rel * 100:.2f}% (cap 5%), capacity "
                    f"within {worst_abs:.4f} (cap 0.15), {elapsed:.1f} s "
                    f"(cap 60 s)")
    assert elapsed < 60.0


def test_criterion_07_rlct_estimates_near_half_dimension(record_property):
    details = []
    for p in (1, 2, 4):
        est = rlct_volume_estimate(_quad_energy, _box_sampler(p), eps=0.05,
                                   a=2.0, n_samples=1_000_000, seed=p)
        rel = abs(est.value - p / 2.0) / (p / 2.0)
        details.append(f"p={p}: {est.value:.3f} ({rel * 100:.2f}%)")
        assert rel <= 0.10
    record_property("detail", ", ".join(details) + " vs p/2, cap 10%")


def test_criterion_08_capacity_orders_input_sloppiness(
        kappa_runs, record_property):
    caps = [run.capacity for run in kappa_runs]
    losses = [run.loss for run in kappa_runs]
    record_property("detail",
                    "capacities " + "/".join(f"{c:.2f}" for c in caps)
                    + ", losses " + "/".join(f"{l:.4f}" for l in losses)
                    + f", tau = {kendall_tau(caps, losses):.2f}")
    assert caps[0] > caps[1] > caps[2]
    assert kendall_tau(caps, losses) > 0.0


def test_criterion_09_loss_regresses_positively_on_capacity(record_property):
    grid = log_grid(60, 500, 7)
    config = ProtocolConfig(n_grid=grid, master_seed=0, n_boots=2,
                            k_folds=5, m_seeds=2)
    data = gen_synthetic(SyntheticConfig(d=20, kappa=1.0, teacher_hidden=2,
                                         m_classes=2, seed=1), max(grid))
    points = []
    for width in (4, 8, 16, 32, 64):
        learner = mlp_learner(hidden=width, epochs=150, lr_max=0.1, batch=64)
        result = run_protocol(data, learner, config,
                              dataset_id=f"width-{width}")
        curve = estimate_avg_energy(result.records)
        model = fit_sigmoid_capacity(curve)
        cap = capacity_from_sigmoid(model, float(max(grid)))
        points.append((cap.value, float(curve.u_mean[-1])))
    slope, _, p_value = capacity_loss_regression(points)
    record_property("detail", f"slope {slope:.5f} (want > 0), "
                              f"p = {p_value:.4f} (cap 0.05)")
    assert slope > 0.0
    assert p_value < 0.05


def test_criterion_10_reruns_are_bitwise_identical(
        logistic_run, kappa_runs, langevin_result, record_property):
    again = logistic_pipeline()
    assert again.records == logistic_run.records
    assert again.capacity == logistic_run.capacity

    for first, second in zip(kappa_runs, kappa_sweep()):
        assert second.records == first.records
        assert second.capacity == first.capacity
        assert second.loss == first.loss

    first_langevin, _ = langevin_result
    second_langevin, _ = langevin_run()
    assert second_langevin.records == first_langevin.records
    assert second_langevin.capacities == first_langevin.capacities
    assert np.array_equal(second_langevin.curve.u_mean,
                          first_langevin.curve.u_mean)
    assert np.array_equal(second_langevin.curve.u_stderr,
                          first_langevin.curve.u_stderr)
    record_property("detail", "logistic, decay-sweep, and Langevin pipelines "
                              "reproduce float for float")
