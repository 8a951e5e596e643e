"""Exact reference values for quadratic energy landscapes.

For an energy that is quadratic in the weights, the log partition function,
the average energy, and the learning capacity all have closed forms.  These
serve as ground truth when validating the Monte-Carlo estimators elsewhere
in the package.  The module also provides the PAC-Bayes effective dimension
and bound for a Hessian spectrum, and a volume-ratio estimator for the
learning coefficient of non-quadratic energies.

Conventions: the sample size ``n`` plays the role of inverse temperature,
so derivatives in ``n`` are taken as integer-step finite differences where
an estimator is involved.  ``HessianSpectrum.epsilon`` doubles as the
precision of the isotropic Gaussian prior, and epsilon 0 is the flat prior,
as ``prior_eps`` 0 is in the Langevin sampler.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DivergentPartition,
    InsufficientHits,
    InvalidArgument,
    InvalidSpectrum,
    InvariantViolation,
    ParseError,
)
from .protocol import header_values, read_table

_TWO_PI = 2.0 * np.pi

# weights drawn per chunk by rlct_volume_estimate, which bounds its memory;
# the draws, so the estimate, do not depend on it
_DRAW_BLOCK = 1 << 17


@dataclass(frozen=True)
class HessianSpectrum:
    """Eigenvalues of a quadratic energy's Hessian, with prior precision.

    Attributes:
        eigenvalues: shape (p,), stored sorted non-increasing.
        epsilon: precision of the isotropic Gaussian prior, >= 0; 0 is the
            flat prior.
        offsets: optional shape (p,) displacement of the energy minimum
            from the prior mean, expressed in the Hessian eigenbasis and
            permuted together with the eigenvalues.
    """

    eigenvalues: np.ndarray
    epsilon: float
    offsets: np.ndarray | None = None

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64).ravel()
        if lam.size < 1:
            raise InvalidSpectrum("spectrum needs at least one eigenvalue")
        if not np.all(np.isfinite(lam)):
            raise InvalidSpectrum("eigenvalues must be finite")
        eps = float(self.epsilon)
        if not np.isfinite(eps) or eps < 0.0:
            raise InvalidArgument(f"epsilon must be finite and >= 0, got {eps}")
        off = self.offsets
        if off is not None:
            off = np.asarray(off, dtype=np.float64).ravel()
            if off.size != lam.size:
                raise InvalidSpectrum(
                    f"offsets length {off.size} != spectrum size {lam.size}")
            if not np.all(np.isfinite(off)):
                raise InvalidSpectrum("offsets must be finite")
        order = np.argsort(-lam, kind="stable")
        lam = np.ascontiguousarray(lam[order])
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "epsilon", eps)
        if off is not None:
            off = np.ascontiguousarray(off[order])
            off.setflags(write=False)
        object.__setattr__(self, "offsets", off)

    @property
    def p(self) -> int:
        """Number of eigenvalues (weight-space dimension)."""
        return int(self.eigenvalues.size)


def _check_n(n) -> float:
    n = float(n)
    if not np.isfinite(n) or n <= 0.0:
        raise InvalidArgument(f"sample size must be positive, got {n}")
    return n


def quad_log_z(spectrum: HessianSpectrum, n) -> float:
    """Log partition function of a quadratic energy at sample size ``n``.

    Flat prior (epsilon 0): ``0.5 * sum(log(2*pi / (n * lam_i)))``;
    requires every eigenvalue positive, otherwise the integral diverges.
    Offsets do not matter under the flat prior.

    Gaussian prior with precision ``eps > 0``: ``0.5 * sum(log(eps /
    (n*lam_i + eps)))``; a nonzero displacement ``b`` of the minimum from
    the prior mean contributes ``-eps/2 * sum(b_i^2) + eps^2/2 *
    sum(b_i^2 / (n*lam_i + eps))``.

    Raises:
        DivergentPartition: flat prior with a non-positive eigenvalue.
        InvalidSpectrum: negative eigenvalue under the Gaussian prior.
    """
    n = _check_n(n)
    lam = spectrum.eigenvalues
    eps = spectrum.epsilon
    if eps == 0.0:
        if np.any(lam <= 0.0):
            raise DivergentPartition(
                "flat-prior partition function diverges for eigenvalues <= 0")
        return float(0.5 * np.sum(np.log(_TWO_PI / (n * lam))))
    if np.any(lam < 0.0):
        raise InvalidSpectrum("negative eigenvalue under Gaussian prior")
    denom = n * lam + eps
    out = 0.5 * np.sum(np.log(eps / denom))
    if spectrum.offsets is not None:
        b2 = spectrum.offsets ** 2
        out += -0.5 * eps * np.sum(b2) + 0.5 * eps * eps * np.sum(b2 / denom)
    return float(out)


def quad_capacity_exact(spectrum: HessianSpectrum, n) -> float:
    """Exact capacity ``0.5 * sum((n*lam / (n*lam + eps))^2)``.

    Each eigendirection contributes between 0 (frozen by the prior) and 1/2
    (fully resolved by the data), so the result lies in ``[0, p/2]``.  The
    formula extends to real ``n > 0``.
    """
    n = _check_n(n)
    lam = spectrum.eigenvalues
    eps = spectrum.epsilon
    if np.any(lam < 0.0):
        raise InvalidSpectrum("negative eigenvalue in capacity formula")
    if eps == 0.0 and np.any(lam == 0.0):
        raise InvalidArgument("capacity undefined for lam == 0 with eps == 0")
    ratio = n * lam / (n * lam + eps)
    return float(0.5 * np.sum(ratio * ratio))


def quad_capacity_hm(spectrum: HessianSpectrum) -> float:
    """Large-n capacity via the inverse harmonic mean of the spectrum.

    ``p/2 - eps * (1/p) * sum(1/lam_i)``: the leading correction to the
    saturated value p/2.  Requires strictly positive eigenvalues.
    """
    lam = spectrum.eigenvalues
    if np.any(lam <= 0.0):
        raise InvalidSpectrum("harmonic-mean capacity needs eigenvalues > 0")
    return float(0.5 * spectrum.p - spectrum.epsilon * np.mean(1.0 / lam))


def pacbayes_effective_dim(spectrum: HessianSpectrum, n: int) -> int:
    """Number of eigendirections resolved at sample size ``n``.

    Counts eigenvalues with ``|lam_i| >= eps / (2*(n-1))``.  Monotone
    non-decreasing in ``n``; requires ``n >= 2``.
    """
    n = int(n)
    if n < 2:
        raise InvalidArgument(f"effective dimension needs n >= 2, got {n}")
    threshold = spectrum.epsilon / (2.0 * (n - 1))
    return int(np.count_nonzero(np.abs(spectrum.eigenvalues) >= threshold))


def pacbayes_bound(spectrum: HessianSpectrum, n: int, kappa: float,
                   dist_sq: float) -> float:
    """Generalization-gap bound from the spectrum at sample size ``n``.

    ``[sum_i log(2*(n-1)*|lam_i| + eps) + 2/kappa + eps*dist_sq] /
    (4*(n-1))`` where the sum runs over the eigenvalues counted by
    :func:`pacbayes_effective_dim` (the largest in magnitude).  ``kappa``
    is the confidence parameter, ``dist_sq`` the squared distance of the
    trained weights from the prior mean.
    """
    n = int(n)
    if n < 2:
        raise InvalidArgument(f"bound needs n >= 2, got {n}")
    if not (np.isfinite(kappa) and kappa > 0.0):
        raise InvalidArgument(f"kappa must be positive, got {kappa}")
    if not (np.isfinite(dist_sq) and dist_sq >= 0.0):
        raise InvalidArgument(f"dist_sq must be >= 0, got {dist_sq}")
    eps = spectrum.epsilon
    mag = np.abs(spectrum.eigenvalues)
    keep = mag >= eps / (2.0 * (n - 1))
    log_terms = float(np.sum(np.log(2.0 * (n - 1) * mag[keep] + eps)))
    return (log_terms + 2.0 / kappa + eps * dist_sq) / (4.0 * (n - 1))


class RlctEstimate(NamedTuple):
    value: float
    stderr: float
    hits_low: int
    hits_high: int


def rlct_volume_estimate(energy: Callable[[np.ndarray], np.ndarray],
                         sampler: Callable[[np.random.Generator, int], np.ndarray],
                         eps: float,
                         a: float = 2.0,
                         n_samples: int = 1_000_000,
                         seed: int = 0) -> RlctEstimate:
    """Learning coefficient via the volume-ratio of two sub-level sets.

    Draws ``n_samples`` weights from ``sampler``, counts how many land
    below energy level ``eps`` and below ``a*eps`` (paired counts on the
    same draws), and returns ``log(hits_high/hits_low) / log(a)``.  For a
    quadratic energy in p dimensions this converges to p/2.

    The standard error treats the low count as binomial given the high
    count (the sets are nested), propagated through the log ratio.

    Args:
        energy: vectorized map from an (m, p) batch of weights to (m,)
            energies.
        sampler: draws an (m, p) batch given a Generator.
        eps: level of the inner set, > 0.
        a: level ratio, > 1.
        n_samples: total draws.
        seed: master seed for the draw stream.

    Raises:
        InsufficientHits: fewer than 20 draws landed below ``eps``.
    """
    if not (np.isfinite(eps) and eps > 0.0):
        raise InvalidArgument(f"eps must be positive, got {eps}")
    if not (np.isfinite(a) and a > 1.0):
        raise InvalidArgument(f"level ratio must exceed 1, got {a}")
    if n_samples < 1:
        raise InvalidArgument("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    hits_low = 0
    hits_high = 0
    done = 0
    while done < n_samples:
        m = min(_DRAW_BLOCK, n_samples - done)
        w = sampler(rng, m)
        e = np.asarray(energy(w), dtype=np.float64)
        hits_low += int(np.count_nonzero(e < eps))
        hits_high += int(np.count_nonzero(e < a * eps))
        done += m
    if hits_low < 20:
        raise InsufficientHits(
            f"only {hits_low} of {n_samples} samples below level {eps}")
    value = np.log(hits_high / hits_low) / np.log(a)
    q = hits_low / hits_high
    if q >= 1.0:
        stderr = 0.0
    else:
        stderr = float(np.sqrt((1.0 - q) / (hits_high * q)) / np.log(a))
    return RlctEstimate(float(value), stderr, hits_low, hits_high)


# ---------------------------------------------------------------------------
# spectrum files: one eigenvalue per line, '#' header lines carrying
# key=value pairs (epsilon required, offsets optional, comma-separated)
# ---------------------------------------------------------------------------

def load_spectrum(path) -> HessianSpectrum:
    """Read a spectrum file: its eigenvalues, one per line, with
    :func:`~capmeter.protocol.read_table`.

    Raises:
        ParseError: malformed number or header, with its location.
        InvariantViolation: missing epsilon header or empty spectrum.
    """
    header = header_values(path)
    epsilon = offsets = None
    if "epsilon" in header:
        lineno, val = header["epsilon"]
        try:
            epsilon = float(val)
        except ValueError:
            raise ParseError(f"bad epsilon value {val!r}", lineno) from None
    if "offsets" in header:
        lineno, val = header["offsets"]
        try:
            offsets = np.array([float(tok) for tok in val.split(",")])
        except ValueError:
            raise ParseError(f"bad offsets list {val!r}", lineno) from None
    eigenvalues = [value for _, (value,) in read_table(path, (float,))]
    if epsilon is None:
        raise InvariantViolation(f"{path}: missing 'epsilon' header")
    if not eigenvalues:
        raise InvariantViolation(f"{path}: no eigenvalues")
    return HessianSpectrum(np.array(eigenvalues), epsilon, offsets)

