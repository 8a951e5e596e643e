"""Reference learners and data generation.

Three desk-scale learners share one contract, ``Learner``: each supplies
``fit_many(dataset, jobs)``, which yields one predictive model per protocol
job, in job order, and declares in ``USES_SEED`` whether a fit depends on
the seed.  ``fit(dataset, rows, seed)`` is the one-job case, and
``score_many(dataset, jobs)`` scores each model's held-out rows as it
arrives.  The logistic and MLP learners train many jobs as one stack; the
k-NN's ``fit_many`` fits one job at a time and keeps no model past its job.
The synthetic generator draws Gaussian inputs with geometrically decaying
per-coordinate variances and labels them with a fixed random one-hidden-layer
teacher, so harder (faster-decaying) feature spectra are a one-knob dial.

Training for the logistic and MLP learners runs through the numpy kernels
in the kernels module.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    ConfigError,
    EmptyTrainingSet,
    InvalidArgument,
    MixedTypes,
    NonFiniteLoss,
    ParseError,
    TrainingFailure,
)
from .protocol import Job, derive_rng, read_table


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus labels.

    ``m_classes`` is an integer >= 2 for classification, or None for
    regression, in which case labels are real-valued.
    """

    inputs: np.ndarray
    labels: np.ndarray
    m_classes: object

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.inputs, dtype=np.float64))
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise InvalidArgument(f"inputs must be a non-empty 2-d array, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InvalidArgument("inputs contain non-finite values")
        y = np.asarray(self.labels)
        if y.shape != (x.shape[0],):
            raise InvalidArgument(
                f"labels shape {y.shape} does not match {x.shape[0]} rows")
        if self.m_classes is None:
            y = np.ascontiguousarray(y, dtype=np.float64)
            if not np.all(np.isfinite(y)):
                raise InvalidArgument("regression labels contain non-finite values")
        else:
            m = int(self.m_classes)
            if m < 2:
                raise InvalidArgument(f"m_classes must be >= 2, got {m}")
            yi = np.ascontiguousarray(y, dtype=np.int64)
            if np.any(yi != np.asarray(y)):
                raise InvalidArgument("classification labels must be integers")
            if yi.min() < 0 or yi.max() >= m:
                raise InvalidArgument(
                    f"labels must lie in [0, {m}), got range "
                    f"[{yi.min()}, {yi.max()}]")
            y = yi
            object.__setattr__(self, "m_classes", m)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def n_rows(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.inputs.shape[1])

    @property
    def is_classification(self) -> bool:
        return self.m_classes is not None


@dataclass(frozen=True)
class SyntheticConfig:
    """Teacher-student generator settings.

    Per-coordinate input variances are e^{-kappa*i} for i = 1..d, so
    kappa = 0 gives isotropic inputs and larger kappa concentrates the
    signal in the leading coordinates.
    """

    d: int
    kappa: float = 0.0
    teacher_hidden: int = 1000
    m_classes: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ConfigError(f"kappa must be finite and >= 0, got {self.kappa}")
        if self.teacher_hidden < 1:
            raise ConfigError("teacher_hidden must be >= 1")
        if self.m_classes < 2:
            raise ConfigError("m_classes must be >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


# rng stream tags: teacher weights vs input draws
_STREAM_TEACHER = 0
_STREAM_INPUTS = 1


def _teacher_weights(config: SyntheticConfig):
    rng = derive_rng(config.seed, _STREAM_TEACHER)
    w1 = rng.standard_normal((config.d, config.teacher_hidden)) / np.sqrt(config.d)
    w2 = rng.standard_normal((config.teacher_hidden, config.m_classes)) / np.sqrt(
        config.teacher_hidden)
    return w1, w2


def gen_synthetic(config: SyntheticConfig, n: int) -> Dataset:
    """Draw n rows of teacher-labeled Gaussian data.

    Deterministic in (config, n), and prefix-stable: the first n rows of a
    larger draw with the same config equal the n-row draw, so sweeps over
    sample size reuse identical data.
    """
    n = int(n)
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    w1, w2 = _teacher_weights(config)
    rng = derive_rng(config.seed, _STREAM_INPUTS)
    x = rng.standard_normal((n, config.d))
    scales = np.exp(-config.kappa * np.arange(1, config.d + 1) / 2.0)
    x *= scales
    logits = np.maximum(x @ w1, 0.0) @ w2
    labels = np.argmax(logits, axis=1)
    return Dataset(x, labels, config.m_classes)


# ---------------------------------------------------------------------------
# predictive-model interface
# ---------------------------------------------------------------------------

class PredictiveModel:
    """Base class: subclasses implement class_log_probs or nll_terms."""

    def class_log_probs(self, inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def nll_terms(self, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        lp = self.class_log_probs(dataset.inputs[rows])
        return -lp[np.arange(rows.size), dataset.labels[rows]]


class Learner:
    """What the protocol trains.  A learner supplies ``fit_many(dataset,
    jobs)``, an iterable of one predictive model per job, in job order; a
    training failure names its job in ``job``.

    ``USES_SEED`` declares whether a fit depends on its seed.  When it does
    not, jobs that differ only in the seed train the same model, so the
    protocol scores each distinct (train rows, held-out rows) pair once.
    """

    USES_SEED = True

    def fit(self, dataset: Dataset, rows, seed: int) -> PredictiveModel:
        """The model of the one job that trains on ``rows`` with ``seed``;
        a training failure names that job in its ``job``."""
        rows = np.asarray(rows, dtype=np.int64)
        [model] = self.fit_many(dataset, [Job(rows.size, 0, 0, 0, seed, rows,
                                               rows[:0])])
        return model

    def score_many(self, dataset: Dataset, jobs) -> list:
        """Each job's raw held-out NLL terms, in job order."""
        return [model.nll_terms(dataset, job.heldout_rows)
                for job, model in zip(jobs, self.fit_many(dataset, jobs))]


def _check_jobs(dataset: Dataset, jobs, name: str) -> None:
    """A classifier's checks: class labels, and training rows for each job."""
    if not dataset.is_classification:
        raise InvalidArgument(f"{name} learner requires class labels")
    for job in jobs:
        if job.train_rows.size == 0:
            raise EmptyTrainingSet(f"{name} learner needs training rows",
                                   job=job)


def _check_finite(jobs, bad, unit: str) -> None:
    """Raise for the first job whose kernel reports a non-finite loss at
    ``bad`` (the iteration or epoch; -1 for none)."""
    for job, b in zip(jobs, bad):
        if b >= 0:
            b = int(b)
            raise NonFiniteLoss(b, f"loss became non-finite at {unit} {b}",
                                job=job)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - kernels.class_max(logits)
    lse = kernels.class_sum(np.exp(z))
    np.log(lse, out=lse)
    z -= lse
    return z


def _one_hot(labels: np.ndarray, m: int, start: int = 0) -> np.ndarray:
    """``labels == c`` for the classes ``c = start .. m-1``, on a new last axis."""
    return labels[..., None] == np.arange(start, m)


# ---------------------------------------------------------------------------
# k-nearest-neighbour learner
# ---------------------------------------------------------------------------

def k_nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest entries of each row of ``d2``, ordered by
    (value, column): ``np.argsort(d2, axis=1, kind="stable")[:, :k]``.

    ``np.partition`` gives each row's k-th smallest value; the row keeps
    every column below it and, in column order, as many columns equal to it
    as fill k (a cumulative count over the rows where ties cross the cut),
    so a tie goes to the lowest columns with no sort of the row.  Only the
    k kept columns are stable-sorted by value.  A row whose k-th smallest
    value is NaN, so that fewer than k entries compare, is sorted in full.
    """
    k = min(k, d2.shape[1])
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    nan = np.isnan(kth[:, 0])
    if nan.any():
        nearest = np.empty((d2.shape[0], k), dtype=np.intp)
        nearest[nan] = np.argsort(d2[nan], axis=1, kind="stable")[:, :k]
        nearest[~nan] = k_nearest(d2[~nan], k)
        return nearest
    keep = d2 < kth
    tied = d2 == kth
    room = k - np.count_nonzero(keep, axis=1)
    keep |= tied
    # where the ties cross the cut, drop the tied columns past the first room
    cross = np.flatnonzero(np.count_nonzero(tied, axis=1) > room)
    if cross.size:
        ties = tied[cross]
        keep[cross] ^= ties & (np.cumsum(ties, axis=1) > room[cross, None])
    # flat positions of the k kept entries, row by row in column order
    flat = np.flatnonzero(keep).reshape(-1, k)
    by_value = np.argsort(d2.take(flat), axis=1, kind="stable")
    return np.take_along_axis(flat, by_value, axis=1) % d2.shape[1]


class KnnModel(PredictiveModel):
    def __init__(self, train_x, train_y, m_classes, k, alpha, sigma):
        # rows pre-sorted by original index: ordering neighbours by
        # (distance, column) then breaks exact ties toward the lowest
        # dataset row
        self._x = train_x
        self._y = train_y
        self._m = m_classes
        self._k = min(k, train_x.shape[0])
        self._alpha = alpha
        self._sigma = sigma
        self._sq = np.sum(train_x ** 2, axis=1)

    def _neighbor_labels(self, queries: np.ndarray) -> np.ndarray:
        d2 = (np.sum(queries ** 2, axis=1)[:, None] + self._sq[None, :]
              - 2.0 * queries @ self._x.T)
        return self._y[k_nearest(d2, self._k)]

    def class_log_probs(self, inputs: np.ndarray) -> np.ndarray:
        nb = self._neighbor_labels(inputs)
        # neighbours per (row, class), counted in one bincount
        q, m = nb.shape[0], self._m
        slots = nb + m * np.arange(q)[:, None]
        counts = np.bincount(slots.ravel(), minlength=q * m).reshape(q, m)
        probs = (counts + self._alpha) / (self._k + self._alpha * m)
        return np.log(probs)

    def predict_mean(self, inputs: np.ndarray) -> np.ndarray:
        return np.mean(self._neighbor_labels(inputs), axis=1)

    def regression_nll(self, inputs, targets) -> np.ndarray:
        f = self.predict_mean(inputs)
        s2 = self._sigma ** 2
        return (targets - f) ** 2 / (2.0 * s2) + np.log(
            self._sigma * np.sqrt(2.0 * np.pi))

    def nll_terms(self, dataset, rows):
        rows = np.asarray(rows)
        if self._m is None:
            return self.regression_nll(dataset.inputs[rows], dataset.labels[rows])
        return super().nll_terms(dataset, rows)


class KnnLearner(Learner):
    USES_SEED = False

    def __init__(self, k, alpha, sigma):
        self.k = k
        self.alpha = alpha
        self.sigma = sigma

    def fit_many(self, dataset: Dataset, jobs):
        """Fits one job at a time, as each model is asked for, so no model
        outlives its job."""
        for job in jobs:
            try:
                model = self.fit(dataset, job.train_rows, job.seed)
            except TrainingFailure as exc:
                exc.job = job
                raise
            yield model

    def fit(self, dataset: Dataset, rows, seed: int) -> KnnModel:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            raise EmptyTrainingSet("k-NN needs at least one training row")
        rows = np.sort(rows, kind="stable")
        return KnnModel(dataset.inputs[rows], dataset.labels[rows],
                        dataset.m_classes, self.k, self.alpha, self.sigma)


def knn_learner(k: int = 10, alpha: float = 1.0, sigma: float = 1.0) -> KnnLearner:
    """Smoothed k-NN classifier, or mean-of-neighbours regressor on a
    regression dataset (``m_classes`` None).

    Class probabilities are (count + alpha) / (k + alpha * m); when fewer
    than k training rows exist the counts and denominator both use the
    actual neighbour count so probabilities stay normalized.  Regression
    uses a Gaussian likelihood with scale ``sigma``.  A fit keeps the
    training rows and ignores the seed (``USES_SEED`` is False), so the
    protocol scores jobs that differ only in the seed once.
    """
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    if not alpha > 0:
        raise InvalidArgument(f"alpha must be > 0, got {alpha}")
    if not sigma > 0:
        raise InvalidArgument(f"sigma must be > 0, got {sigma}")
    return KnnLearner(k, alpha, sigma)


# ---------------------------------------------------------------------------
# multinomial logistic regression
# ---------------------------------------------------------------------------

def with_bias(x: np.ndarray) -> np.ndarray:
    """``x`` with a trailing input column of ones, which the bias multiplies."""
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def logistic_log_probs(weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Log class probabilities for reference-class logits.

    ``weights`` has shape (m-1, d+1); class 0 is the reference with logit 0
    and a bias column is appended internally.
    """
    return logistic_log_probs_xb(weights, with_bias(inputs))


def logistic_log_probs_xb(weights: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """``logistic_log_probs`` on inputs that already carry the bias column.

    ``weights`` may be a stack (chains, m-1, d+1), with ``xb`` either shared
    (n, d+1) or one block per chain (chains, n, d+1); the result is then
    (chains, n, m), each chain's block computed as by its own call.
    """
    logits = xb @ np.swapaxes(weights, -1, -2)
    full = np.concatenate([np.zeros(logits.shape[:-1] + (1,)), logits], axis=-1)
    return _log_softmax(full)


def logistic_grad_xb(weights: np.ndarray, xb: np.ndarray,
                     labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean NLL with respect to the weights (no penalty), on
    inputs that already carry the bias column.

    Takes a stack as well: weights (chains, m-1, d+1), inputs (chains, n,
    d+1) and labels (chains, n) give (chains, m-1, d+1), one matmul per
    chain and every mean within its chain, so each chain's gradient is
    bitwise what its own call returns.
    """
    p = np.exp(logistic_log_probs_xb(weights, xb))
    resid = p[..., 1:] - _one_hot(labels, p.shape[-1], start=1)
    return np.swapaxes(resid, -1, -2) @ xb / xb.shape[-2]


class LogisticModel(PredictiveModel):
    def __init__(self, weights, m_classes, iterations):
        self.weights = weights
        self.m_classes = m_classes
        self.iterations = iterations

    def class_log_probs(self, inputs):
        return logistic_log_probs(self.weights, inputs)


class LogisticLearner(Learner):
    GRAD_TOL = 1e-7
    USES_SEED = False

    def __init__(self, l2, epochs):
        self.l2 = l2
        self.epochs = epochs

    def fit_many(self, dataset: Dataset, jobs) -> list:
        """One model per job, in job order, from one stacked Newton solve.

        The jobs' training sets may differ in size: each is padded to the
        longest with zero rows, which add nothing to its gradient, Hessian
        or loss, so a job trains as it would alone.  A training failure is
        raised for the first job, in order, that fails, with that job as its
        ``job``.
        """
        _check_jobs(dataset, jobs, "logistic")
        sizes = np.array([job.train_rows.size for job in jobs])
        rows = np.zeros((len(jobs), sizes.max()), dtype=np.int64)
        real = np.arange(rows.shape[1]) < sizes[:, None]
        rows[real] = np.concatenate([job.train_rows for job in jobs])
        xb = with_bias(dataset.inputs)[rows]
        xb[~real] = 0.0
        y = np.where(real, dataset.labels[rows], 0)
        w, _, iters, bad = kernels.logistic_newton_stack(
            xb, y, sizes, dataset.m_classes, self.l2, self.epochs,
            self.GRAD_TOL)
        _check_finite(jobs, bad, "iteration")
        return [LogisticModel(w[k], dataset.m_classes, int(iters[k]))
                for k in range(len(jobs))]


def logistic_learner(l2: float = 1e-3, epochs: int = 2000) -> LogisticLearner:
    """Multinomial logistic regression, fitted by Newton's method to the
    minimum of the mean NLL plus (l2/2)|w|^2.

    Reference-class parameterization: (m-1)(d+1) weights including biases;
    the ridge penalty l2 applies to all of them and must be > 0, which makes
    the objective strongly convex (at l2 = 0 separable training rows have
    no finite optimum).  ``epochs`` caps the Newton iterations; a fit stops
    earlier once every gradient entry is below ``GRAD_TOL`` in size.
    Training is deterministic (zero init), so the seed argument is ignored
    (``USES_SEED`` is False) and the protocol trains jobs that differ only
    in the seed once.
    """
    if not 0 < l2 < np.inf:
        raise InvalidArgument(f"l2 must be finite and > 0, got {l2}")
    if epochs < 1:
        raise InvalidArgument(f"epochs must be >= 1, got {epochs}")
    return LogisticLearner(l2, epochs)


# ---------------------------------------------------------------------------
# one-hidden-layer MLP
# ---------------------------------------------------------------------------

def mlp_init(d: int, hidden: int, m: int, seed: int):
    """He-scaled Gaussian init for the two weight matrices, zero biases."""
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((d, hidden)) * np.sqrt(2.0 / d)
    b1 = np.zeros(hidden)
    w2 = rng.standard_normal((hidden, m)) * np.sqrt(2.0 / hidden)
    b2 = np.zeros(m)
    return w1, b1, w2, b2


def mlp_log_probs(params, inputs: np.ndarray) -> np.ndarray:
    """Log class probabilities; a stack of parameters as in ``mlp_grad``,
    with ``inputs`` shared (n, d) or one block per chain (chains, n, d)."""
    w1, b1, w2, b2 = params
    h = np.maximum(inputs @ w1 + b1[..., None, :], 0.0)
    return _log_softmax(h @ w2 + b2[..., None, :])


def mlp_grad(params, inputs: np.ndarray, labels: np.ndarray):
    """Mean-NLL gradients for (w1, b1, w2, b2).

    Takes a stack as well: every parameter with a leading chain axis,
    inputs (chains, n, d) and labels (chains, n).  Products run per chain
    and sums within a chain, so each chain's gradients are bitwise what
    its own call returns.
    """
    w1, b1, w2, b2 = params
    n = inputs.shape[-2]
    pre = inputs @ w1 + b1[..., None, :]
    h = np.maximum(pre, 0.0)
    p = np.exp(_log_softmax(h @ w2 + b2[..., None, :]))
    delta = p - _one_hot(labels, p.shape[-1])
    delta /= n
    g_w2 = np.swapaxes(h, -1, -2) @ delta
    g_b2 = kernels.batch_sum(delta)
    back = (delta @ np.swapaxes(w2, -1, -2)) * (pre > 0.0)
    g_w1 = np.swapaxes(inputs, -1, -2) @ back
    g_b1 = kernels.batch_sum(back)
    return g_w1, g_b1, g_w2, g_b2


class MlpModel(PredictiveModel):
    def __init__(self, params, m_classes, final_loss):
        self.params = params
        self.m_classes = m_classes
        self.final_loss = final_loss

    def class_log_probs(self, inputs):
        return mlp_log_probs(self.params, inputs)


class MlpLearner(Learner):
    MOMENTUM = 0.9
    USES_SEED = True

    def __init__(self, hidden, epochs, lr_max, batch):
        self.hidden = hidden
        self.epochs = epochs
        self.lr_max = lr_max
        self.batch = batch

    def fit_many(self, dataset: Dataset, jobs) -> list:
        """One model per job, in job order, each bitwise as it trains alone.

        Jobs with equal minibatch counts share a learning-rate schedule and
        every full minibatch, so each such part of the group trains as one
        stack, ordered by training-set size.  Every job keeps its own init
        and its own generator of epoch shuffles, drawn as each epoch
        starts.  A training failure is raised for the first job, in order,
        that fails, with that job as its ``job``.
        """
        _check_jobs(dataset, jobs, "MLP")
        sizes = np.array([job.train_rows.size for job in jobs])
        parts = {}
        for k in np.argsort(sizes, kind="stable"):
            parts.setdefault(-(-sizes[k] // self.batch), []).append(k)
        m = dataset.m_classes
        models = [None] * len(jobs)
        bad = np.empty(len(jobs), dtype=np.int64)
        for ks in parts.values():
            n_rows = sizes[ks]
            rows = np.zeros((len(ks), n_rows[-1]), dtype=np.int64)
            rows[np.arange(rows.shape[1]) < n_rows[:, None]] = np.concatenate(
                [jobs[k].train_rows for k in ks])
            inits = [mlp_init(dataset.feature_dim, self.hidden, m, jobs[k].seed)
                     for k in ks]
            params = [np.stack(p) for p in zip(*inits)]
            orders = _epoch_orders([jobs[k].seed for k in ks], n_rows,
                                   self.epochs)
            loss, part_bad = kernels.mlp_sgd_stack(
                dataset.inputs[rows], dataset.labels[rows], n_rows, *params,
                orders, self.epochs, self.lr_max, self.MOMENTUM, self.batch)
            bad[ks] = part_bad
            for i, k in enumerate(ks):
                models[k] = MlpModel(tuple(p[i] for p in params), m,
                                     float(loss[i]))
        _check_finite(jobs, bad, "epoch")
        return models


def _epoch_orders(seeds, n_rows, epochs):
    """Yield each epoch's shuffles of a stack, drawn in place into one
    reused (jobs, max(n_rows)) array: row k starts with a permutation of
    range(n_rows[k]) from ``default_rng(seeds[k] + 1)``, the one
    ``permutation(n_rows[k])`` would return from the same stream."""
    rngs = [np.random.default_rng(seed + 1) for seed in seeds]
    order = np.zeros((len(seeds), n_rows.max()), dtype=np.int64)
    heads = [order[k, :n] for k, n in enumerate(n_rows)]
    count = np.arange(order.shape[1])
    for _ in range(epochs):
        for head, rng in zip(heads, rngs):
            head[...] = count[:head.size]
            rng.shuffle(head)
        yield order


def mlp_learner(hidden: int, epochs: int = 150, lr_max: float = 0.1,
                batch: int = 64) -> MlpLearner:
    """One-hidden-layer rectified-linear network.

    Mini-batch SGD with Nesterov momentum 0.9 and a single cosine decay of
    the learning rate from lr_max to 0 across all steps.  Weight init and
    the per-epoch shuffles derive from the fit seed, so training is
    reproducible bit for bit.  ``fit_many`` trains a protocol group's jobs
    as one stack per minibatch count; ``fit`` is its one-job case.
    """
    if hidden < 1:
        raise InvalidArgument(f"hidden must be >= 1, got {hidden}")
    if epochs < 1 or batch < 1:
        raise InvalidArgument("epochs and batch must be >= 1")
    if lr_max <= 0:
        raise InvalidArgument(f"lr_max must be > 0, got {lr_max}")
    return MlpLearner(hidden, epochs, lr_max, batch)


# ---------------------------------------------------------------------------
# tabular files
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(text)
    return value


def load_tabular(path) -> Dataset:
    """Load a comma-separated file of finite numbers with
    :func:`~capmeter.protocol.read_table`; the last column is the label.

    The labels set the task: all-integral labels mean classification
    (remapped to 0..m-1), and all-fractional labels mean regression
    (``m_classes`` None); a mixture raises MixedTypes because the intent
    is ambiguous.

    Raises:
        ParseError: a non-numeric or non-finite field (with line and
            column), ragged rows, a single column, or no data rows.
        MixedTypes: label column mixes integral and fractional values.
    """
    rows = list(read_table(path, _finite))
    if not rows:
        raise ParseError("no data rows", 1)
    lineno, first = rows[0]
    if len(first) < 2:
        raise ParseError("need at least one feature and a label", lineno)
    data = np.array([values for _, values in rows])
    x, y = data[:, :-1], data[:, -1]
    integral = np.equal(np.mod(y, 1.0), 0.0)
    if not np.any(integral):
        return Dataset(x, y, None)
    if not np.all(integral):
        raise MixedTypes(
            "label column mixes integral and fractional values; the labels "
            "must be all integral (class codes) or all fractional "
            "(regression targets)")
    classes = np.unique(y.astype(np.int64))
    if classes.size < 2:
        raise InvalidArgument("classification file needs at least 2 classes")
    remap = {int(c): i for i, c in enumerate(classes)}
    labels = np.array([remap[int(v)] for v in y], dtype=np.int64)
    return Dataset(x, labels, classes.size)
