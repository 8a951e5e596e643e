"""Reference learners and data generation.

Three desk-scale learners share one interface: ``fit(dataset, rows, seed)``
returns an immutable predictive model exposing per-example log-probabilities.
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
)
from .protocol import derive_rng


class _Regression:
    """Marker object used as ``m_classes`` for regression datasets."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Regression"


REGRESSION = _Regression()


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus labels.

    ``m_classes`` is an integer >= 2 for classification or the REGRESSION
    marker, in which case labels are real-valued.
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
        if self.m_classes is REGRESSION:
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
        return self.m_classes is not REGRESSION


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

    def log_prob(self, x: np.ndarray, y: int) -> float:
        lp = self.class_log_probs(np.asarray(x, dtype=np.float64)[None, :])
        return float(lp[0, int(y)])

    def nll_terms(self, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        lp = self.class_log_probs(dataset.inputs[rows])
        return -lp[np.arange(rows.size), dataset.labels[rows]]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    mx = np.max(logits, axis=1, keepdims=True)
    z = logits - mx
    return z - np.log(np.sum(np.exp(z), axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# k-nearest-neighbour learner
# ---------------------------------------------------------------------------

class KnnModel(PredictiveModel):
    def __init__(self, train_x, train_y, m_classes, k, alpha, sigma):
        # rows pre-sorted by original index: stable distance sort then
        # breaks exact ties toward the lowest dataset row
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
        order = np.argsort(d2, axis=1, kind="stable")[:, : self._k]
        return self._y[order]

    def class_log_probs(self, inputs: np.ndarray) -> np.ndarray:
        nb = self._neighbor_labels(inputs)
        counts = np.zeros((inputs.shape[0], self._m))
        np.add.at(counts, (np.arange(inputs.shape[0])[:, None], nb), 1.0)
        probs = (counts + self._alpha) / (self._k + self._alpha * self._m)
        return np.log(probs)

    def predict_mean(self, inputs: np.ndarray) -> np.ndarray:
        return np.mean(self._neighbor_labels(inputs), axis=1)

    def regression_nll(self, inputs, targets) -> np.ndarray:
        f = self.predict_mean(inputs)
        s2 = self._sigma ** 2
        return (targets - f) ** 2 / (2.0 * s2) + np.log(
            self._sigma * np.sqrt(2.0 * np.pi))

    def log_prob(self, x, y):
        if self._m is None:
            return float(-self.regression_nll(
                np.asarray(x, dtype=np.float64)[None, :], np.array([y]))[0])
        return super().log_prob(x, y)

    def nll_terms(self, dataset, rows):
        rows = np.asarray(rows)
        if self._m is None:
            return self.regression_nll(dataset.inputs[rows], dataset.labels[rows])
        return super().nll_terms(dataset, rows)


class KnnLearner:
    def __init__(self, k, alpha, sigma):
        self.k = k
        self.alpha = alpha
        self.sigma = sigma

    def fit(self, dataset: Dataset, rows, seed: int) -> KnnModel:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            raise EmptyTrainingSet("k-NN needs at least one training row")
        rows = np.sort(rows, kind="stable")
        m = dataset.m_classes if dataset.is_classification else None
        return KnnModel(dataset.inputs[rows], dataset.labels[rows], m,
                        self.k, self.alpha, self.sigma)


def knn_learner(k: int = 10, alpha: float = 1.0, sigma: float = 1.0) -> KnnLearner:
    """Smoothed k-NN classifier (or mean-of-neighbours regressor).

    Class probabilities are (count + alpha) / (k + alpha * m); when fewer
    than k training rows exist the counts and denominator both use the
    actual neighbour count so probabilities stay normalized.  Regression
    uses a Gaussian likelihood with scale ``sigma``.
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

def _with_bias(x: np.ndarray) -> np.ndarray:
    return np.hstack([x, np.ones((x.shape[0], 1))])


def logistic_log_probs(weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Log class probabilities for reference-class logits.

    ``weights`` has shape (m-1, d+1); class 0 is the reference with logit 0
    and a bias column is appended internally.
    """
    logits = _with_bias(inputs) @ weights.T
    full = np.hstack([np.zeros((inputs.shape[0], 1)), logits])
    return _log_softmax(full)


def logistic_grad(weights: np.ndarray, inputs: np.ndarray,
                  labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean NLL with respect to the weights (no penalty)."""
    xb = _with_bias(inputs)
    p = np.exp(logistic_log_probs(weights, inputs))
    resid = p[:, 1:].copy()
    resid[np.arange(labels.size), labels - 1] -= labels > 0
    return resid.T @ xb / inputs.shape[0]


class LogisticModel(PredictiveModel):
    def __init__(self, weights, m_classes, iterations):
        self.weights = weights
        self.m_classes = m_classes
        self.iterations = iterations

    @property
    def n_params(self) -> int:
        return int(self.weights.size)

    def class_log_probs(self, inputs):
        return logistic_log_probs(self.weights, inputs)


class LogisticLearner:
    GRAD_TOL = 1e-7

    def __init__(self, l2, epochs, lr):
        self.l2 = l2
        self.epochs = epochs
        self.lr = lr

    def fit(self, dataset: Dataset, rows, seed: int) -> LogisticModel:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            raise EmptyTrainingSet("logistic regression needs training rows")
        if not dataset.is_classification:
            raise InvalidArgument("logistic learner requires class labels")
        xb = _with_bias(dataset.inputs[rows])
        y = dataset.labels[rows]
        w, loss, iters, bad = kernels.logistic_gd(
            xb, y, dataset.m_classes, self.l2, self.lr, self.epochs,
            self.GRAD_TOL)
        if bad >= 0:
            raise NonFiniteLoss(bad, f"loss became non-finite at iteration {bad}")
        return LogisticModel(w, dataset.m_classes, iters)


def logistic_learner(l2: float = 0.0, epochs: int = 2000,
                     lr: float = 1.0) -> LogisticLearner:
    """Multinomial logistic regression by full-batch gradient descent.

    Reference-class parameterization: (m-1)(d+1) weights including biases;
    the ridge penalty l2 applies to all of them.  Training is
    deterministic (zero init), so the seed argument is ignored.
    """
    if l2 < 0:
        raise InvalidArgument(f"l2 must be >= 0, got {l2}")
    if epochs < 1 or lr <= 0:
        raise InvalidArgument("epochs must be >= 1 and lr > 0")
    return LogisticLearner(l2, epochs, lr)


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
    w1, b1, w2, b2 = params
    h = np.maximum(inputs @ w1 + b1, 0.0)
    return _log_softmax(h @ w2 + b2)


def mlp_grad(params, inputs: np.ndarray, labels: np.ndarray):
    """Mean-NLL gradients for (w1, b1, w2, b2)."""
    w1, b1, w2, b2 = params
    n = inputs.shape[0]
    pre = inputs @ w1 + b1
    h = np.maximum(pre, 0.0)
    p = np.exp(_log_softmax(h @ w2 + b2))
    delta = p.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    g_w2 = h.T @ delta
    g_b2 = delta.sum(axis=0)
    back = (delta @ w2.T) * (pre > 0.0)
    g_w1 = inputs.T @ back
    g_b1 = back.sum(axis=0)
    return g_w1, g_b1, g_w2, g_b2


class MlpModel(PredictiveModel):
    def __init__(self, params, m_classes, final_loss):
        self.params = params
        self.m_classes = m_classes
        self.final_loss = final_loss

    @property
    def n_params(self) -> int:
        return int(sum(p.size for p in self.params))

    def class_log_probs(self, inputs):
        return mlp_log_probs(self.params, inputs)


class MlpLearner:
    MOMENTUM = 0.9

    def __init__(self, hidden, epochs, lr_max, batch):
        self.hidden = hidden
        self.epochs = epochs
        self.lr_max = lr_max
        self.batch = batch

    def fit(self, dataset: Dataset, rows, seed: int) -> MlpModel:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            raise EmptyTrainingSet("MLP needs training rows")
        if not dataset.is_classification:
            raise InvalidArgument("MLP learner requires class labels")
        x = dataset.inputs[rows]
        y = dataset.labels[rows]
        w1, b1, w2, b2 = mlp_init(dataset.feature_dim, self.hidden,
                                  dataset.m_classes, seed)
        rng = np.random.default_rng(seed + 1)
        perms = np.empty((self.epochs, rows.size), dtype=np.int64)
        for e in range(self.epochs):
            perms[e] = rng.permutation(rows.size)
        loss, bad = kernels.mlp_sgd(x, y, w1, b1, w2, b2, perms,
                                    self.lr_max, self.MOMENTUM, self.batch)
        if bad >= 0:
            raise NonFiniteLoss(bad, f"loss became non-finite at epoch {bad}")
        return MlpModel((w1, b1, w2, b2), dataset.m_classes, loss)


def mlp_learner(hidden: int, epochs: int = 150, lr_max: float = 0.1,
                batch: int = 64) -> MlpLearner:
    """One-hidden-layer rectified-linear network.

    Mini-batch SGD with Nesterov momentum 0.9 and a single cosine decay of
    the learning rate from lr_max to 0 across all steps.  Weight init and
    the per-epoch shuffles derive from the fit seed, so training is
    reproducible bit for bit.
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

def load_tabular(path, kind: str = "auto") -> Dataset:
    """Load a comma-separated numeric file; last column is the label.

    ``kind`` is "auto", "classification", or "regression".  Under "auto",
    all-integral labels mean classification (remapped to 0..m-1) and
    all-fractional labels mean regression; a mixture raises MixedTypes
    because the intent is ambiguous.

    Raises:
        ParseError: non-numeric field (with row and column), ragged rows,
            or no data rows.
        MixedTypes: ambiguous label column under "auto".
    """
    if kind not in ("auto", "classification", "regression"):
        raise InvalidArgument(f"unknown kind {kind!r}")
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
                if width < 2:
                    raise ParseError("need at least one feature and a label",
                                     lineno)
            elif len(fields) != width:
                raise ParseError(
                    f"expected {width} fields, got {len(fields)}", lineno)
            values = []
            for col, field in enumerate(fields, start=1):
                try:
                    v = float(field)
                except ValueError:
                    raise ParseError(f"non-numeric field {field.strip()!r}",
                                     lineno, column=col) from None
                if not np.isfinite(v):
                    raise ParseError(f"non-finite field {field.strip()!r}",
                                     lineno, column=col)
                values.append(v)
            rows.append(values)
    if not rows:
        raise ParseError("no data rows", 1)
    data = np.asarray(rows, dtype=np.float64)
    x, y = data[:, :-1], data[:, -1]
    integral = np.equal(np.mod(y, 1.0), 0.0)
    if kind == "auto":
        if np.all(integral):
            kind = "classification"
        elif not np.any(integral):
            kind = "regression"
        else:
            raise MixedTypes(
                "label column mixes integral and fractional values; pass "
                "kind='classification' or kind='regression'")
    if kind == "regression":
        return Dataset(x, y, REGRESSION)
    if not np.all(integral):
        raise MixedTypes("classification labels must be integral")
    classes = np.unique(y.astype(np.int64))
    if classes.size < 2:
        raise InvalidArgument("classification file needs at least 2 classes")
    remap = {int(c): i for i, c in enumerate(classes)}
    labels = np.array([remap[int(v)] for v in y], dtype=np.int64)
    return Dataset(x, labels, classes.size)
