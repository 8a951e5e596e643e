"""Exception types raised across the package.

Grouped by the subsystem that raises them.  Everything derives from
:class:`CapmeterError` so callers can catch broadly, and each type carries
its CLI exit code in ``exit_code``: 4 under ``FitFailure``, 3 for training
and chain failures, 2 for the rest.
"""


class CapmeterError(Exception):
    """Base class for all package errors."""

    exit_code = 2


# ---------------------------------------------------------------------------
# closed-form oracles / spectra
# ---------------------------------------------------------------------------

class InvalidSpectrum(CapmeterError):
    """Eigenvalue list violates a precondition (sign, finiteness, shape)."""


class DivergentPartition(CapmeterError):
    """Partition function does not converge for the requested prior."""


class InvalidArgument(CapmeterError):
    """Scalar argument out of its documented domain."""


class InsufficientHits(CapmeterError):
    """Too few Monte-Carlo samples landed below the level set."""


# ---------------------------------------------------------------------------
# experiment protocol / record files
# ---------------------------------------------------------------------------

class ConfigError(CapmeterError):
    """Protocol or sampler configuration fails validation."""


class EmptyGroup(CapmeterError):
    """A requested sample size has no records to aggregate."""


class NonFinite(CapmeterError):
    """A numeric field that must be finite is NaN or infinite."""


class ParseError(CapmeterError):
    """Malformed input file.  Carries a location."""

    def __init__(self, reason: str, line: int, column: int | None = None):
        self.line = line
        self.column = column
        self.reason = reason
        loc = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{loc}: {reason}")


class DuplicateKey(CapmeterError):
    """Two records share the same (dataset, N, boot, fold, seed) key."""


class InvariantViolation(CapmeterError):
    """A structural invariant of a parsed file does not hold."""


# ---------------------------------------------------------------------------
# learners
# ---------------------------------------------------------------------------

class TrainingFailure(CapmeterError):
    """A model could not be trained on the given rows.

    ``job`` is the protocol job whose fit failed (see
    ``protocol.run_protocol``); from a learner's ``fit`` it is the one job
    that ``fit`` trains.  None only from a learner that trains no jobs
    (the k-NN ``fit``) when called outside the protocol.
    """

    exit_code = 3

    def __init__(self, *args, job=None):
        super().__init__(*args)
        self.job = job


class EmptyTrainingSet(TrainingFailure):
    """fit() called with zero rows."""


class NonFiniteLoss(TrainingFailure):
    """Training loss became NaN/inf.  Carries the iteration index."""

    def __init__(self, iteration: int, message: str = "", job=None):
        self.iteration = iteration
        super().__init__(message or f"non-finite training loss at iteration {iteration}",
                         job=job)


class MixedTypes(CapmeterError):
    """Label column mixes integer-coded classes with non-integer reals."""


# ---------------------------------------------------------------------------
# curve estimators
# ---------------------------------------------------------------------------

class FitFailure(CapmeterError):
    """An estimator could not fit or read out a curve."""

    exit_code = 4


class InsufficientPoints(FitFailure):
    """Too few curve points for the requested fit."""


class SolverFailure(FitFailure):
    """Constrained least-squares iteration did not terminate."""


class FitDiverged(FitFailure):
    """Nonlinear fit failed to converge from every start."""


class DegenerateCurve(FitFailure):
    """Curve carries too little structure to identify the model."""


class OutOfRange(FitFailure):
    """Evaluation point far outside the fitted range."""


class QuadratureFailure(FitFailure):
    """Adaptive quadrature could not meet tolerance."""


class UndefinedThreshold(FitFailure):
    """Freezing threshold undefined because the slope parameter is ~0."""


class LengthMismatch(CapmeterError):
    """Paired sequences differ in length."""


class AllTied(FitFailure):
    """Rank correlation undefined: one of the sequences is constant."""


class DegenerateDesign(FitFailure):
    """Regression design has zero variance."""


# ---------------------------------------------------------------------------
# posterior samplers
# ---------------------------------------------------------------------------

class NonFiniteState(CapmeterError):
    """Sampler state left the finite domain."""

    exit_code = 3


class ScheduleExhaustsData(CapmeterError):
    """The schedule and its held-out rows need more rows than the dataset holds."""
