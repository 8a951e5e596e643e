"""Stochastic-gradient Langevin sampling of tempered posteriors.

A chain targets the distribution whose log density is ``-(sample_size *
mean-loss) + log prior``.  Average energy is read out on held-out rows in
probability-complement form, ``mean(1 - p)``, which stays inside [0, 1]
regardless of how confident the sampled weights are; capacity follows from
differencing the readout at two schedule points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    ConfigError,
    EmptyHeldout,
    EmptyWindow,
    InvalidArgument,
    NonFiniteState,
    ScheduleExhaustsData,
)
from .estimators import CapacityEstimate
from .learners import (
    Dataset,
    logistic_grad,
    logistic_log_probs,
    mlp_grad,
    mlp_log_probs,
)
from .oracle import PriorKind
from .protocol import EnergyCurve, EnergyRecord, derive_rng

__all__ = [
    "SgldConfig",
    "DifferentiableEnergy",
    "QuadraticEnergy",
    "LogisticEnergy",
    "MlpEnergy",
    "RowCount",
    "ChainFailure",
    "SgldResult",
    "sgld_step",
    "sgld_avg_energy",
    "sgld_capacity",
    "schedule_row_blocks",
    "run_incremental_protocol",
]


@dataclass(frozen=True)
class SgldConfig:
    """Settings for a Langevin run over a growing sample-size schedule."""

    step_size: float
    n_schedule: tuple
    chains: int = 10
    equilibration_epochs: int = 20
    samples_per_window: int = 10
    batch_size: int = 64
    prior: PriorKind = PriorKind.GAUSSIAN
    prior_eps: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        sched = tuple(int(n) for n in self.n_schedule)
        if len(sched) == 0:
            raise ConfigError("n_schedule must not be empty")
        if sched[0] < 1:
            raise ConfigError(f"schedule sample sizes must be >= 1, got {sched[0]}")
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ConfigError(f"n_schedule must be strictly increasing, got {sched}")
        object.__setattr__(self, "n_schedule", sched)
        if self.chains < 1:
            raise ConfigError(f"chains must be >= 1, got {self.chains}")
        if self.equilibration_epochs < 0:
            raise ConfigError(
                f"equilibration_epochs must be >= 0, got {self.equilibration_epochs}")
        if self.samples_per_window < 1:
            raise ConfigError(
                f"samples_per_window must be >= 1, got {self.samples_per_window}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not isinstance(self.prior, PriorKind):
            raise ConfigError(f"prior must be a PriorKind, got {self.prior!r}")
        if not (math.isfinite(self.prior_eps) and self.prior_eps >= 0):
            raise ConfigError(f"prior_eps must be >= 0, got {self.prior_eps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class DifferentiableEnergy:
    """Mean per-row loss with an analytic gradient.

    ``value`` and ``gradient`` average over the rows they are given, so a
    minibatch gradient is already an unbiased estimate of the full-data
    one and the driver only has to scale by the nominal sample size.
    ``prob_on_rows`` reports per-row predictive probabilities for the
    held-out readout.
    """

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def value(self, weights: np.ndarray, rows: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prob_on_rows(self, weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def heldout_means(self, samples: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Per-sample held-out mean of ``1 - p`` for a stack of weights."""
        out = np.empty(samples.shape[0])
        for i, w in enumerate(samples):
            out[i] = 1.0 - float(self.prob_on_rows(w, rows).mean())
        return out


class QuadraticEnergy(DifferentiableEnergy):
    """Loss ``0.5 * w' diag(eigenvalues) w``, identical for every row.

    The per-row probability is ``exp(-loss)``, so the held-out readout
    does not depend on which rows are held out.
    """

    def __init__(self, eigenvalues):
        lam = np.ascontiguousarray(np.asarray(eigenvalues, dtype=np.float64))
        if lam.ndim != 1 or lam.size == 0:
            raise InvalidArgument(f"eigenvalues must be a 1-d array, got shape {lam.shape}")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise InvalidArgument("eigenvalues must be finite and >= 0")
        lam.setflags(write=False)
        self.eigenvalues = lam

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def value(self, weights, rows) -> float:
        w = np.asarray(weights, dtype=np.float64)
        return 0.5 * float(w @ (self.eigenvalues * w))

    def gradient(self, weights, rows) -> np.ndarray:
        return self.eigenvalues * np.asarray(weights, dtype=np.float64)

    def prob_on_rows(self, weights, rows) -> np.ndarray:
        p = math.exp(-self.value(weights, rows))
        return np.full(np.asarray(rows).size, p)

    def heldout_means(self, samples, rows) -> np.ndarray:
        values = 0.5 * np.einsum("sj,j,sj->s", samples, self.eigenvalues, samples)
        return 1.0 - np.exp(-values)


class LogisticEnergy(DifferentiableEnergy):
    """Mean multinomial-logistic loss over rows of a bound dataset.

    Weights are the flattened (m-1, d+1) reference-class matrix: class 0
    keeps logit zero and the trailing column multiplies a constant 1.
    """

    def __init__(self, dataset: Dataset):
        if not dataset.is_classification:
            raise InvalidArgument("logistic energy needs a classification dataset")
        self.dataset = dataset
        self._shape = (dataset.m_classes - 1, dataset.feature_dim + 1)

    @property
    def dim(self) -> int:
        return self._shape[0] * self._shape[1]

    def _matrix(self, weights) -> np.ndarray:
        w = np.asarray(weights, dtype=np.float64)
        if w.size != self.dim:
            raise InvalidArgument(f"expected {self.dim} weights, got {w.size}")
        return w.reshape(self._shape)

    def value(self, weights, rows) -> float:
        rows = np.asarray(rows, dtype=np.int64)
        lp = logistic_log_probs(self._matrix(weights), self.dataset.inputs[rows])
        return -float(lp[np.arange(rows.size), self.dataset.labels[rows]].mean())

    def gradient(self, weights, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        g = logistic_grad(self._matrix(weights), self.dataset.inputs[rows],
                          self.dataset.labels[rows])
        return g.ravel()

    def prob_on_rows(self, weights, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        lp = logistic_log_probs(self._matrix(weights), self.dataset.inputs[rows])
        return np.exp(lp[np.arange(rows.size), self.dataset.labels[rows]])


class MlpEnergy(DifferentiableEnergy):
    """Mean loss of a one-hidden-layer ReLU classifier on a bound dataset.

    Weights concatenate (w1, b1, w2, b2) in row-major order, matching the
    shapes ``(d, hidden)``, ``(hidden,)``, ``(hidden, m)``, ``(m,)``.
    """

    def __init__(self, dataset: Dataset, hidden: int):
        if not dataset.is_classification:
            raise InvalidArgument("mlp energy needs a classification dataset")
        if hidden < 1:
            raise InvalidArgument(f"hidden must be >= 1, got {hidden}")
        self.dataset = dataset
        self.hidden = int(hidden)
        d, m = dataset.feature_dim, dataset.m_classes
        self._shapes = ((d, hidden), (hidden,), (hidden, m), (m,))
        self._sizes = tuple(int(np.prod(s)) for s in self._shapes)

    @property
    def dim(self) -> int:
        return sum(self._sizes)

    def _unflatten(self, weights):
        w = np.asarray(weights, dtype=np.float64)
        if w.size != self.dim:
            raise InvalidArgument(f"expected {self.dim} weights, got {w.size}")
        parts = []
        start = 0
        for shape, size in zip(self._shapes, self._sizes):
            parts.append(w[start:start + size].reshape(shape))
            start += size
        return tuple(parts)

    def value(self, weights, rows) -> float:
        rows = np.asarray(rows, dtype=np.int64)
        lp = mlp_log_probs(self._unflatten(weights), self.dataset.inputs[rows])
        return -float(lp[np.arange(rows.size), self.dataset.labels[rows]].mean())

    def gradient(self, weights, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        grads = mlp_grad(self._unflatten(weights), self.dataset.inputs[rows],
                         self.dataset.labels[rows])
        return np.concatenate([g.ravel() for g in grads])

    def prob_on_rows(self, weights, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        lp = mlp_log_probs(self._unflatten(weights), self.dataset.inputs[rows])
        return np.exp(lp[np.arange(rows.size), self.dataset.labels[rows]])


def sgld_step(weights, energy: DifferentiableEnergy, rows, sample_size: int,
              prior: PriorKind, step_size: float, rng: np.random.Generator,
              prior_eps: float = 1.0) -> np.ndarray:
    """One Langevin update of the chain state.

    Drifts half a step down the gradient of ``sample_size * mean-loss``
    over the given rows (plus the Gaussian prior's pull ``prior_eps * w``
    when applicable) and adds noise of variance ``step_size`` per
    coordinate.  Raises NonFiniteState if the update leaves the finite
    domain.
    """
    w = np.asarray(weights, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise InvalidArgument("sgld_step needs at least one row")
    if not (math.isfinite(step_size) and step_size > 0):
        raise InvalidArgument(f"step_size must be positive, got {step_size}")
    g = sample_size * energy.gradient(w, rows)
    if prior is PriorKind.GAUSSIAN:
        g = g + prior_eps * w
    new = w - 0.5 * step_size * g + math.sqrt(step_size) * rng.standard_normal(w.size)
    if not np.all(np.isfinite(new)):
        raise NonFiniteState("langevin update produced a non-finite state")
    return new


def sgld_avg_energy(chain_samples, energy: DifferentiableEnergy,
                    heldout_rows) -> float:
    """Average probability-complement energy over a window of samples.

    Mean over samples of the held-out mean of ``1 - p``; always in [0, 1].
    """
    rows = np.asarray(heldout_rows, dtype=np.int64)
    if rows.size == 0:
        raise EmptyHeldout("no held-out rows to evaluate on")
    samples = np.atleast_2d(np.asarray(chain_samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise EmptyWindow("no samples in window")
    return float(energy.heldout_means(samples, rows).mean())


def _capacity_from_window_energies(e_lo: np.ndarray, e_hi: np.ndarray,
                                   sample_size: int, delta_n: float) -> CapacityEstimate:
    """Capacity from per-sample held-out energies of two windows."""
    u_lo = float(e_lo.mean())
    u_hi = float(e_hi.mean())
    value = -sample_size ** 2 * (u_hi - u_lo) / delta_n
    se_lo = float(e_lo.std(ddof=1) / math.sqrt(e_lo.size)) if e_lo.size > 1 else 0.0
    se_hi = float(e_hi.std(ddof=1) / math.sqrt(e_hi.size)) if e_hi.size > 1 else 0.0
    stderr = sample_size ** 2 * math.hypot(se_lo, se_hi) / delta_n
    return CapacityEstimate(value=float(value), stderr=float(stderr),
                            at_n=float(sample_size), method="sgld")


def sgld_capacity(window_lo, window_hi, energy: DifferentiableEnergy,
                  heldout_rows, sample_size: int, delta_n: float) -> CapacityEstimate:
    """Capacity from two sampling windows a schedule step apart.

    ``-sample_size**2`` times the finite difference of the two windows'
    average energies, with a standard error propagated from the
    between-sample scatter inside each window.
    """
    rows = np.asarray(heldout_rows, dtype=np.int64)
    if rows.size == 0:
        raise EmptyHeldout("no held-out rows to evaluate on")
    lo = np.atleast_2d(np.asarray(window_lo, dtype=np.float64))
    hi = np.atleast_2d(np.asarray(window_hi, dtype=np.float64))
    if lo.shape[0] == 0 or hi.shape[0] == 0:
        raise EmptyWindow("capacity needs a non-empty window on both sides")
    if sample_size < 1:
        raise InvalidArgument(f"sample_size must be >= 1, got {sample_size}")
    if delta_n <= 0:
        raise InvalidArgument(f"delta_n must be positive, got {delta_n}")
    return _capacity_from_window_energies(energy.heldout_means(lo, rows),
                                          energy.heldout_means(hi, rows),
                                          sample_size, delta_n)


def schedule_row_blocks(n_schedule, chains: int):
    """Deal dataset rows to chains, one block per schedule point.

    Rows ``0 .. n_schedule[-1]`` are dealt round-robin by row index, so
    each schedule step hands every chain an equal share (within one row)
    of the newly admitted block.  Returns a list with one entry per
    schedule point; each entry is a per-chain list of the new row indices.
    """
    blocks = []
    prev = 0
    for n in n_schedule:
        fresh = np.arange(prev, n)
        blocks.append([fresh[fresh % chains == c] for c in range(chains)])
        prev = n
    return blocks


@dataclass(frozen=True)
class ChainFailure:
    """A chain dropped from the run, with where and why."""

    chain: int
    sample_size: int
    detail: str


@dataclass(frozen=True)
class SgldResult:
    """Curve, capacities, per-chain records and failures from a run."""

    curve: EnergyCurve
    capacities: tuple
    records: tuple
    failures: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class RowCount:
    """Stand-in dataset for energies that ignore row contents."""

    rows: int

    @property
    def n_rows(self) -> int:
        return int(self.rows)


def _window_generic(energy, w, rows, sample_size, config, noise_rng, shuffle_rng):
    """Run equilibration plus sampling epochs with per-step updates."""
    m = config.samples_per_window
    epochs = config.equilibration_epochs + m
    batch = config.batch_size
    samples = np.empty((m, w.size))
    for epoch in range(epochs):
        if rows.size > batch:
            order = shuffle_rng.permutation(rows.size)
            for start in range(0, rows.size, batch):
                mb = rows[order[start:start + batch]]
                w = sgld_step(w, energy, mb, sample_size, config.prior,
                              config.step_size, noise_rng, config.prior_eps)
        else:
            w = sgld_step(w, energy, rows, sample_size, config.prior,
                          config.step_size, noise_rng, config.prior_eps)
        if epoch >= config.equilibration_epochs:
            samples[epoch - config.equilibration_epochs] = w
    return w, samples


def _window_quadratic(energy, w, rows, sample_size, config, noise_rng):
    """Single-batch quadratic windows run through the fused kernel.

    The kernel repeats exactly the arithmetic of sgld_step, with the noise
    drawn up front from the same stream, so the trajectory is bitwise
    identical to the generic path.
    """
    m = config.samples_per_window
    steps = config.equilibration_epochs + m
    eps_eff = config.prior_eps if config.prior is PriorKind.GAUSSIAN else 0.0
    noise = noise_rng.standard_normal((steps, w.size))
    samples = np.empty((m, w.size))
    w = kernels.sgld_chain_diag_quad(
        w, energy.eigenvalues, eps_eff, float(sample_size),
        0.5 * config.step_size, math.sqrt(config.step_size), noise, samples)
    if not (np.all(np.isfinite(samples)) and np.all(np.isfinite(w))):
        raise NonFiniteState("langevin update produced a non-finite state")
    return w, samples


def run_incremental_protocol(energy: DifferentiableEnergy, dataset,
                             config: SgldConfig,
                             dataset_id: str = "sgld") -> SgldResult:
    """Sample each schedule point by growing the chains' training pools.

    The first schedule point's rows are dealt round-robin across chains;
    every later point deals the newly admitted block the same way, so
    chains keep equal shares while the temperature follows the nominal
    sample size.  Rows past ``max(n_schedule)`` form the held-out pool for
    the energy readout.  A chain whose state leaves the finite domain is
    dropped; the run continues while at least half the chains survive.
    """
    schedule = config.n_schedule
    k = config.chains
    if schedule[0] < k:
        raise ConfigError(
            f"first schedule point {schedule[0]} cannot cover {k} chains")
    n_rows = int(dataset.n_rows)
    if schedule[-1] > n_rows:
        raise ScheduleExhaustsData(
            f"schedule needs {schedule[-1]} rows but the dataset has {n_rows}")
    heldout = np.arange(schedule[-1], n_rows)
    if heldout.size == 0:
        raise EmptyHeldout(
            "no rows left beyond the schedule for the held-out readout")

    blocks = schedule_row_blocks(schedule, k)
    pools = [np.empty(0, dtype=np.int64) for _ in range(k)]
    states = [np.zeros(energy.dim) for _ in range(k)]
    noise_rngs = [derive_rng(config.seed, c, 0) for c in range(k)]
    shuffle_rngs = [derive_rng(config.seed, c, 1) for c in range(k)]
    alive = [True] * k
    failures = []

    u_mean = np.empty(len(schedule))
    u_stderr = np.empty(len(schedule))
    record_count = np.empty(len(schedule), dtype=np.int64)
    records = []
    window_energies = []
    for j, n in enumerate(schedule):
        chain_means = []
        pooled = []
        for c in range(k):
            pools[c] = np.concatenate([pools[c], blocks[j][c]])
            if not alive[c]:
                continue
            try:
                if (isinstance(energy, QuadraticEnergy)
                        and pools[c].size <= config.batch_size):
                    states[c], samples = _window_quadratic(
                        energy, states[c], pools[c], n, config, noise_rngs[c])
                else:
                    states[c], samples = _window_generic(
                        energy, states[c], pools[c], n, config,
                        noise_rngs[c], shuffle_rngs[c])
            except NonFiniteState as exc:
                alive[c] = False
                failures.append(ChainFailure(chain=c, sample_size=int(n),
                                             detail=str(exc)))
                continue
            e = energy.heldout_means(samples, heldout)
            pooled.append(e)
            chain_means.append(float(e.mean()))
            records.append(EnergyRecord(
                dataset_id=dataset_id, sample_size=int(n), boot_index=c,
                fold_index=0, seed_index=0,
                nll_sum=float(e.sum() * heldout.size),
                heldout_count=int(e.size * heldout.size)))
        survivors = sum(alive)
        if 2 * survivors < k:
            raise NonFiniteState(
                f"only {survivors} of {k} chains survived to sample size {n}: "
                + "; ".join(f"chain {f.chain} at N={f.sample_size}" for f in failures))
        means = np.asarray(chain_means)
        u_mean[j] = means.mean()
        u_stderr[j] = (means.std(ddof=1) / math.sqrt(means.size)
                       if means.size > 1 else 0.0)
        record_count[j] = means.size
        window_energies.append(np.concatenate(pooled))

    capacities = tuple(
        _capacity_from_window_energies(window_energies[j], window_energies[j + 1],
                                       schedule[j], schedule[j + 1] - schedule[j])
        for j in range(len(schedule) - 1))
    curve = EnergyCurve(n=np.asarray(schedule, dtype=np.float64), u_mean=u_mean,
                        u_stderr=u_stderr, record_count=record_count,
                        scale="probability-complement")
    return SgldResult(curve=curve, capacities=capacities,
                      records=tuple(records), failures=tuple(failures))
