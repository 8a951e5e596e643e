"""Stochastic-gradient Langevin sampling of tempered posteriors.

A chain targets the distribution whose log density is ``-(sample_size *
mean-loss) + log prior``.  Average energy is read out on held-out rows in
probability-complement form, ``mean(1 - p)``, which stays inside [0, 1]
regardless of how confident the sampled weights are; capacity follows from
differencing the readout at two schedule points.

``run_incremental_protocol`` deals rows to ``k`` chains round-robin by row
index: at schedule point N chain c's training pool is ``np.arange(c, N,
k)``, so each schedule step hands every chain an equal share (within one
row) of the newly admitted rows, and the ``heldout_rows`` rows from N_max on
are held out.  It advances the live chains of a schedule point together.
Chains whose pools hold equally many rows form one ``(chains, dim)`` state
that takes one gradient call per minibatch, each chain with its own
minibatch order and its own noise stream, so every trajectory is bitwise
the one a single chain would take under the Langevin update ``w - (h/2) *
(N * grad + prior_eps * w) + sqrt(h) * noise``, one minibatch at a time;
``tests/test_sgld.py`` keeps that single-chain update as the reference.
Quadratic chains whose pool fits one batch run in the fused kernel
instead, which steps a state of up to ``kernels._SCALAR_COORDS``
coordinates in Python floats and a larger one in numpy, with the same bits
either way.  Both loops mark failures one way: a chain that goes
non-finite keeps stepping silently in its stack, since every update adds
to the state and a non-finite coordinate stays so, and a chain whose
final state is not finite is dropped when its window ends.  The held-out
readout scores every sample of every chain at a schedule point in one
``heldout_means`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (
    ConfigError,
    InvalidArgument,
    NonFiniteState,
    ScheduleExhaustsData,
)
from .estimators import CapacityEstimate
from .learners import (
    Dataset,
    logistic_grad_xb,
    logistic_log_probs_xb,
    mlp_grad,
    mlp_log_probs,
    with_bias,
)
from .protocol import EnergyCurve, EnergyRecord, derive_rng, estimate_avg_energy

__all__ = [
    "SgldConfig",
    "DifferentiableEnergy",
    "QuadraticEnergy",
    "LogisticEnergy",
    "MlpEnergy",
    "ChainFailure",
    "SgldResult",
    "run_incremental_protocol",
]


@dataclass(frozen=True)
class SgldConfig:
    """Settings for a Langevin run over a growing sample-size schedule; the
    Gaussian prior pulls by ``prior_eps * w``, and 0 is the flat prior.  The
    ``heldout_rows`` rows from the last schedule point on are held out."""

    step_size: float
    n_schedule: tuple
    chains: int = 10
    equilibration_epochs: int = 20
    samples_per_window: int = 10
    batch_size: int = 64
    prior_eps: float = 1.0
    heldout_rows: int = 256
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        sched = tuple(int(n) for n in self.n_schedule)
        if len(sched) == 0:
            raise ConfigError("n_schedule must not be empty")
        if sched[0] < 2:
            raise ConfigError(f"schedule sample sizes must be >= 2, got {sched[0]}")
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
        if not (math.isfinite(self.prior_eps) and self.prior_eps >= 0):
            raise ConfigError(f"prior_eps must be >= 0, got {self.prior_eps}")
        if self.heldout_rows < 1:
            raise ConfigError(f"heldout_rows must be >= 1, got {self.heldout_rows}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


_NON_FINITE = "langevin update produced a non-finite state"

# samples x held-out rows scored per block of the stacked readout, which
# bounds its (block, rows, width) intermediates
_HELDOUT_BLOCK = 1 << 16


class DifferentiableEnergy:
    """Mean per-row loss with an analytic gradient.

    ``value`` and ``gradient`` average over the rows they are given, so a
    minibatch gradient is already an unbiased estimate of the full-data
    one and the driver only has to scale by the nominal sample size.
    ``prob_on_rows`` reports per-row predictive probabilities for the
    held-out readout.  ``n_rows`` is the number of rows the energy can
    index, None when it ignores row contents.

    ``value`` takes one state ``(dim,)`` with its rows ``(b,)``.
    ``gradient`` and ``prob_on_rows`` take one state or a stack of states
    ``(chains, dim)``, with rows either one set per state ``(chains, b)``
    or shared ``(b,)``, and return one result per state, each bitwise what
    that state's own call returns.  The sampler makes one gradient call
    per minibatch for a whole stack of chains and scores a window in
    blocks of samples.
    """

    n_rows = None

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
        block = max(1, _HELDOUT_BLOCK // max(1, np.size(rows)))
        for start in range(0, out.size, block):
            p = self.prob_on_rows(samples[start:start + block], rows)
            out[start:start + block] = 1.0 - p.mean(axis=1)
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
        w = np.asarray(weights, dtype=np.float64)
        values = 0.5 * np.einsum("...j,j,...j->...", w, self.eigenvalues, w)
        return np.exp(-values)[..., None] * np.ones(np.shape(rows)[-1])

    def heldout_means(self, samples, rows) -> np.ndarray:
        values = 0.5 * np.einsum("sj,j,sj->s", samples, self.eigenvalues, samples)
        return 1.0 - np.exp(-values)


class _ClassifierEnergy(DifferentiableEnergy):
    """Mean negative log-likelihood of a classifier on a bound dataset.

    Subclasses supply ``gradient`` and ``_log_probs(weights, rows)``, the
    class log probabilities of the given rows, shape (..., rows, m).
    """

    def __init__(self, dataset: Dataset):
        if not dataset.is_classification:
            raise InvalidArgument(
                f"{type(self).__name__} needs a classification dataset")
        self.dataset = dataset
        self.n_rows = dataset.n_rows

    def _states(self, weights) -> np.ndarray:
        """The weights as float64 states, checked for ``dim`` per state."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape[-1:] != (self.dim,):
            raise InvalidArgument(
                f"expected {self.dim} weights per state, got shape {w.shape}")
        return w

    def _label_log_probs(self, weights, rows) -> np.ndarray:
        """Each row's log probability of its own label, shape (..., rows)."""
        rows = np.asarray(rows, dtype=np.int64)
        lp = self._log_probs(weights, rows)
        index = np.broadcast_to(self.dataset.labels[rows], lp.shape[:-1])[..., None]
        return np.take_along_axis(lp, index, axis=-1)[..., 0]

    def value(self, weights, rows) -> float:
        return -float(self._label_log_probs(weights, rows).mean())

    def prob_on_rows(self, weights, rows) -> np.ndarray:
        return np.exp(self._label_log_probs(weights, rows))


class LogisticEnergy(_ClassifierEnergy):
    """Mean multinomial-logistic loss over rows of a bound dataset.

    Weights are the flattened (m-1, d+1) reference-class matrix: class 0
    keeps logit zero and the trailing column multiplies a constant 1.
    """

    def __init__(self, dataset: Dataset):
        super().__init__(dataset)
        self._shape = (dataset.m_classes - 1, dataset.feature_dim + 1)
        self._xb = with_bias(dataset.inputs)

    @property
    def dim(self) -> int:
        return self._shape[0] * self._shape[1]

    def _matrix(self, weights) -> np.ndarray:
        w = self._states(weights)
        return w.reshape(w.shape[:-1] + self._shape)

    def _log_probs(self, weights, rows):
        return logistic_log_probs_xb(self._matrix(weights), self._xb[rows])

    def gradient(self, weights, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        w = self._matrix(weights)
        g = logistic_grad_xb(w, self._xb[rows], self.dataset.labels[rows])
        return g.reshape(w.shape[:-2] + (self.dim,))


class MlpEnergy(_ClassifierEnergy):
    """Mean loss of a one-hidden-layer ReLU classifier on a bound dataset.

    Weights concatenate (w1, b1, w2, b2) in row-major order, matching the
    shapes ``(d, hidden)``, ``(hidden,)``, ``(hidden, m)``, ``(m,)``.
    """

    def __init__(self, dataset: Dataset, hidden: int):
        super().__init__(dataset)
        if hidden < 1:
            raise InvalidArgument(f"hidden must be >= 1, got {hidden}")
        self.hidden = int(hidden)
        d, m = dataset.feature_dim, dataset.m_classes
        self._shapes = ((d, hidden), (hidden,), (hidden, m), (m,))
        self._sizes = tuple(int(np.prod(s)) for s in self._shapes)

    @property
    def dim(self) -> int:
        return sum(self._sizes)

    def _unflatten(self, weights):
        w = self._states(weights)
        lead = w.shape[:-1]
        parts = []
        start = 0
        for shape, size in zip(self._shapes, self._sizes):
            parts.append(w[..., start:start + size].reshape(lead + shape))
            start += size
        return tuple(parts)

    def _log_probs(self, weights, rows):
        return mlp_log_probs(self._unflatten(weights), self.dataset.inputs[rows])

    def gradient(self, weights, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        params = self._unflatten(weights)
        grads = mlp_grad(params, self.dataset.inputs[rows],
                         self.dataset.labels[rows])
        lead = params[1].shape[:-1]
        return np.concatenate([g.reshape(lead + (-1,)) for g in grads], axis=-1)


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


def _window_stack(energy, w, pools, sample_size, config, noise_rngs,
                  shuffle_rngs):
    """Equilibration plus sampling epochs of chains with equally large pools.

    ``w`` stacks one state per chain, shape (chains, dim), ``pools`` their
    training rows, shape (chains, rows), and the rng lists hold their
    noise and shuffle streams in the same order.  Each step repeats the
    arithmetic of the single-chain Langevin update (module docstring) on the
    whole stack: one gradient call, each chain on its own minibatch, and
    each chain's noise drawn as the epoch starts from its own stream, so
    every trajectory is bitwise the one that update would take chain by
    chain.  A chain whose state leaves the finite domain stays in the stack,
    silently, as in the fused kernel: the update adds to the state, so a
    non-finite coordinate stays non-finite and the final state tells which
    chains failed.  Returns the final states and the samples, shapes
    (chains, dim) and (samples, chains, dim), and the boolean mask of chains
    that stayed finite; the rows of failed chains are not meaningful.
    """
    m = config.samples_per_window
    size = pools.shape[1]
    batch = config.batch_size
    starts = range(0, size, batch)
    half, scale = 0.5 * config.step_size, math.sqrt(config.step_size)
    eps = config.prior_eps
    samples = np.empty((m,) + w.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.equilibration_epochs + m):
            if size > batch:
                # the swaps of rng.shuffle, applied to the pool, give
                # pool[rng.permutation(size)] from the same draws
                order = pools.copy()
                for row, rng in zip(order, shuffle_rngs):
                    rng.shuffle(row)
            else:
                order = pools
            noise = np.stack([rng.standard_normal((len(starts), w.shape[1]))
                              for rng in noise_rngs], axis=1)
            for step, start in enumerate(starts):
                g = (sample_size * energy.gradient(w, order[:, start:start + batch])
                     + eps * w)
                w = w - half * g + scale * noise[step]
            if epoch >= config.equilibration_epochs:
                samples[epoch - config.equilibration_epochs] = w
    return w, samples, np.isfinite(w).all(axis=1)


def _window_quadratic(energy, w, sample_size, config, noise_rngs):
    """Single-batch quadratic windows of several chains through the fused kernel.

    ``w`` stacks one state per chain, shape (chains, dim), and
    ``noise_rngs`` holds the chains' noise streams in the same order.  The
    kernel repeats exactly the arithmetic of the single-chain Langevin
    update (module docstring), elementwise, with each chain's noise drawn
    up front from its own stream, so every trajectory is bitwise the one
    that update would take chain by chain.  A state of at most
    ``kernels._SCALAR_COORDS`` coordinates (chains x dim) runs each
    coordinate's recursion in Python floats, a larger one in numpy; both do
    the same correctly rounded double operations in the same order, so the
    choice does not change a bit.  A diverging chain overflows silently and
    stays non-finite, so, as in ``_window_stack``, the final state tells
    which chains failed.  Returns the final states and the samples, shapes
    (chains, dim) and (samples, chains, dim), and the boolean mask of chains
    whose final states are finite.
    """
    m = config.samples_per_window
    steps = config.equilibration_epochs + m
    noise = np.empty((steps,) + w.shape)
    for i, rng in enumerate(noise_rngs):
        noise[:, i] = rng.standard_normal((steps, w.shape[1]))
    samples = np.empty((m,) + w.shape)
    w = kernels.sgld_chain_diag_quad(
        w, energy.eigenvalues, config.prior_eps, float(sample_size),
        0.5 * config.step_size, math.sqrt(config.step_size), noise, samples)
    return w, samples, np.isfinite(w).all(axis=1)


def run_incremental_protocol(energy: DifferentiableEnergy, config: SgldConfig,
                             dataset_id: str = "sgld") -> SgldResult:
    """Sample each schedule point by growing the chains' training pools.

    At schedule point N chain c trains on rows c, c+k, c+2k, ... below N
    (k chains), so the chains keep equal shares, within one row, while the
    temperature follows the nominal sample size.  The ``heldout_rows`` rows
    from ``max(n_schedule)`` on form the held-out pool for the energy
    readout; ScheduleExhaustsData if the energy's rows cannot cover them.  A
    chain whose state leaves the finite domain in a window is dropped when
    the window ends, with a ChainFailure; the run continues while at least
    half the chains survive.  The curve is
    ``estimate_avg_energy`` of the records.  A quadratic step scales each
    coordinate by ``1 - h*k/2``, ``k = N*lambda + prior_eps``, which leaves
    (-1, 1) once ``h*k >= 4``: ConfigError, before any sampling.
    """
    schedule = config.n_schedule
    k = config.chains
    if schedule[0] < k:
        raise ConfigError(
            f"first schedule point {schedule[0]} cannot cover {k} chains")
    need = schedule[-1] + config.heldout_rows
    if energy.n_rows is not None and need > energy.n_rows:
        raise ScheduleExhaustsData(
            f"schedule point {schedule[-1]} and {config.heldout_rows} held-out "
            f"rows need {need} rows but the dataset has {energy.n_rows}")
    heldout = np.arange(schedule[-1], need)
    if isinstance(energy, QuadraticEnergy):
        lam_max = float(energy.eigenvalues.max())
        hk = config.step_size * (schedule[-1] * lam_max + config.prior_eps)
        if hk >= 4.0:
            raise ConfigError(
                f"step {config.step_size} is unstable at N={schedule[-1]}, "
                f"lambda_max={lam_max}: h*(N*lambda_max + prior_eps) = {hk} "
                "must be < 4")

    states = np.zeros((k, energy.dim))
    noise_rngs = [derive_rng(config.seed, c, 0) for c in range(k)]
    shuffle_rngs = [derive_rng(config.seed, c, 1) for c in range(k)]
    alive = np.ones(k, dtype=bool)
    failures = []

    records = []
    window_energies = []
    m = config.samples_per_window
    for n in schedule:
        pools = [np.arange(c, n, k) for c in range(k)]
        samples = np.empty((k, m, energy.dim))
        ok = alive.copy()
        # quadratic chains whose whole pool fits one batch advance together
        # through the fused kernel; the others in stacks of chains with
        # equally large pools
        stacks = {}
        for c in np.flatnonzero(alive):
            fused = (isinstance(energy, QuadraticEnergy)
                     and pools[c].size <= config.batch_size)
            stacks.setdefault(None if fused else pools[c].size, []).append(c)
        for size, group in stacks.items():
            if size is None:
                final, part, kept = _window_quadratic(
                    energy, states[group], n, config,
                    [noise_rngs[c] for c in group])
            else:
                final, part, kept = _window_stack(
                    energy, states[group], np.stack([pools[c] for c in group]),
                    n, config, [noise_rngs[c] for c in group],
                    [shuffle_rngs[c] for c in group])
            states[group] = final
            samples[group] = part.transpose(1, 0, 2)
            ok[group] = kept
        done = np.flatnonzero(ok)
        scored = energy.heldout_means(samples[done].reshape(-1, energy.dim),
                                      heldout)
        energies = dict(zip(done, scored.reshape(done.size, m)))
        for c in np.flatnonzero(alive):
            if not ok[c]:
                alive[c] = False
                failures.append(ChainFailure(chain=int(c), sample_size=int(n),
                                             detail=_NON_FINITE))
                continue
            e = energies[c]
            records.append(EnergyRecord(
                dataset_id=dataset_id, sample_size=int(n), boot_index=int(c),
                fold_index=0, seed_index=0,
                nll_sum=float(e.sum() * heldout.size),
                heldout_count=int(e.size * heldout.size)))
        survivors = int(alive.sum())
        if 2 * survivors < k:
            raise NonFiniteState(
                f"only {survivors} of {k} chains survived to sample size {n}: "
                + "; ".join(f"chain {f.chain} at N={f.sample_size}" for f in failures))
        window_energies.append(scored)

    capacities = tuple(
        _capacity_from_window_energies(window_energies[j], window_energies[j + 1],
                                       schedule[j], schedule[j + 1] - schedule[j])
        for j in range(len(schedule) - 1))
    curve = estimate_avg_energy(records, scale="probability-complement")
    return SgldResult(curve=curve, capacities=capacities,
                      records=tuple(records), failures=tuple(failures))
