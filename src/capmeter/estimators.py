"""Capacity estimation from measured energy curves.

Two fitted forms:

* a degree-7 polynomial in log N for the energy, least-squares fitted
  under shape constraints (energy non-increasing, capacity non-decreasing)
  enforced on a dense log grid and solved as a quadratic program through
  its non-negative least-squares (NNLS) dual;
* the four-parameter sigmoid capacity model C(N) = a/(1+exp(-c log N + b)),
  fitted through its integrated energy by Levenberg-Marquardt.

Derived readouts: capacity at a given N, the freezing threshold n* where
C reaches a/2 (with a data-vs-architecture guidance tag), Kendall's tau-b
for cross-model rank agreement, and an ordinary least-squares
capacity-loss regression with a slope p-value.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import (
    AllTied,
    DegenerateCurve,
    DegenerateDesign,
    FitDiverged,
    InsufficientPoints,
    InvalidArgument,
    LengthMismatch,
    OutOfRange,
    SolverFailure,
    UndefinedThreshold,
)
from .protocol import EnergyCurve
# not called here; perfbench/tracing.py traces this binding
from .quadrature import adaptive_gauss_legendre  # noqa: F401

CONSTRAINT_GRID_SIZE = 64
CONSTRAINT_TOL = 1e-9
_ROUNDING = 64.0 * np.finfo(float).eps
_C_MIN = 1e-6


def _weights_from_stderr(stderr: np.ndarray) -> np.ndarray:
    """1/stderr^2 weights; zero stderrs borrow the smallest positive one.

    An all-zero stderr column (noiseless curves) gives uniform weights, and
    scaling every stderr by a constant rescales all weights uniformly, so
    fitted parameters are invariant to that scaling.
    """
    se = np.asarray(stderr, dtype=np.float64)
    positive = se[se > 0]
    if positive.size == 0:
        return np.ones_like(se)
    floor = float(np.min(positive))
    return 1.0 / np.maximum(se, floor) ** 2


# ---------------------------------------------------------------------------
# constrained polynomial energy fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialEnergyModel:
    """Energy as a shape-constrained polynomial in log N.

    Coefficients are for the scaled variable t = (log N - center)/halfwidth,
    lowest order first.  ``covariance`` is the unconstrained-fit parameter
    covariance and is only approximate when any shape constraint is active.
    """

    coeffs: np.ndarray
    center: float
    halfwidth: float
    n_min: float
    n_max: float
    constraint_grid: np.ndarray
    constraints_active: bool
    covariance: np.ndarray
    residual_rms: float
    degree: int = 7

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.size != self.degree + 1:
            raise InvalidArgument("coefficient count must be degree+1")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def _t(self, n):
        return (np.log(n) - self.center) / self.halfwidth

    def energy(self, n):
        return np.polynomial.polynomial.polyval(self._t(n), self.coeffs)


def _poly_deriv_matrix(coeffs_len: int, t: np.ndarray, order: int) -> np.ndarray:
    """Rows map coefficients to the order-th derivative of the poly at t."""
    rows = np.zeros((t.size, coeffs_len))
    for j in range(order, coeffs_len):
        fac = 1.0
        for r in range(order):
            fac *= j - r
        rows[:, j] = fac * t ** (j - order)
    return rows


def _energy_slopes(model: PolynomialEnergyModel, n_values: np.ndarray):
    """Constraint residuals at given N: (energy slope, capacity slope).

    Both are in the scaled variable and must be <= 0:
    pi'(t) <= 0 keeps energy non-increasing in N, and
    halfwidth*pi'(t) + pi''(t) <= 0 keeps capacity non-decreasing.
    """
    t = model._t(np.asarray(n_values, dtype=np.float64))
    k = model.coeffs.size
    d1 = _poly_deriv_matrix(k, t, 1) @ model.coeffs
    d2 = _poly_deriv_matrix(k, t, 2) @ model.coeffs
    return d1, model.halfwidth * d1 + d2


def _nnls(M, d):
    """min ||d - M nu|| over nu >= 0 by Lawson and Hanson's active set.

    Returns (nu, d - M nu), the residual taken as d's projection off the
    span of the positive multipliers' columns, which stays accurate when
    nu is large.  The iteration stops once the gradient M'(d - M nu) at
    every zero multiplier is within its rounding error, and at most
    CONSTRAINT_TOL; a multiplier within rounding of 0 leaves the positive
    set.  Inner and outer steps share one budget of 3 x columns.
    """
    m = M.shape[1]
    tol = min(CONSTRAINT_TOL, _ROUNDING * np.linalg.norm(d)
              * np.max(np.linalg.norm(M, axis=0)))
    nu = np.zeros(m)
    resid = d
    passive = np.zeros(m, dtype=bool)
    budget = 3 * m
    while True:
        w = M.T @ resid
        w[passive] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            return nu, resid
        passive[j] = True
        while True:
            budget -= 1
            if budget < 0:
                raise SolverFailure(
                    f"NNLS did not converge in {3 * m} steps "
                    f"({int(passive.sum())} multipliers positive)")
            u, sv, vt = np.linalg.svd(M[:, passive], full_matrices=False)
            keep = sv > _ROUNDING * sv[0]
            proj = u[:, keep].T @ d
            s = np.zeros(m)
            s[passive] = vt[keep].T @ (proj / sv[keep])
            floor = _ROUNDING * np.max(np.abs(s))
            low = passive & (s <= floor)
            if not low.any():
                nu, resid = s, d - u[:, keep] @ proj
                break
            alpha = np.min(nu[low] / (nu[low] - s[low]))
            nu += alpha * (s - nu)
            passive &= nu > floor
            nu[~passive] = 0.0


def fit_monotone_polynomial(curve: EnergyCurve,
                            degree: int = 7) -> PolynomialEnergyModel:
    """Weighted least-squares polynomial in log N under shape constraints.

    Constraints (energy non-increasing, capacity non-decreasing) are
    enforced at 64 log-spaced N spanning the curve, and the
    inequality-constrained QP is solved through its NNLS dual
    (least-distance programming, Lawson and Hanson 1974, ch. 23).

    Raises:
        InsufficientPoints: fewer than degree+2 points.
        SolverFailure: rank-deficient weighted design, the NNLS dual ran
            out of its step budget, or its solution misses a shape
            constraint by more than CONSTRAINT_TOL.
    """
    if len(curve) < degree + 2:
        raise InsufficientPoints(
            f"need at least {degree + 2} points for degree {degree}, "
            f"got {len(curve)}")
    n = curve.n.astype(np.float64)
    x = np.log(n)
    center = float((x.max() + x.min()) / 2.0)
    halfwidth = float((x.max() - x.min()) / 2.0)
    if halfwidth <= 0:
        raise InvalidArgument("curve spans a single N")
    t = (x - center) / halfwidth
    k = degree + 1
    A = np.vander(t, k, increasing=True)
    root_w = np.sqrt(_weights_from_stderr(curve.u_stderr))
    grid_n = np.geomspace(n.min(), n.max(), CONSTRAINT_GRID_SIZE)
    tg = (np.log(grid_n) - center) / halfwidth
    D1 = _poly_deriv_matrix(k, tg, 1)
    D2 = _poly_deriv_matrix(k, tg, 2)
    G = np.vstack([D1, halfwidth * D1 + D2])
    # With W^1/2 A = QR the weighted misfit is ||b - Rx||^2 + const, where
    # b = Q'W^1/2 u.  In y = Rx the fit under Gx <= 0 is the least-distance
    # program min ||y - b|| subject to M'y <= 0, M = R^-T G'; its dual is
    # the NNLS min ||b - M nu|| over nu >= 0, and y = b - M nu.  Factoring
    # W^1/2 A, not A'WA, keeps the condition number from being squared.
    basis, R = np.linalg.qr(A * root_w[:, None])
    diag = np.abs(np.diag(R))
    if not diag.min() > _ROUNDING * diag.max():
        raise SolverFailure("weighted design matrix is rank deficient")
    R_inv = np.linalg.inv(R)
    M = R_inv.T @ G.T
    nu, y = _nnls(M, basis.T @ (root_w * curve.u_mean))
    coeffs = R_inv @ y
    cov = R_inv @ R_inv.T
    resid = curve.u_mean - A @ coeffs
    model = PolynomialEnergyModel(
        coeffs=coeffs, center=center, halfwidth=halfwidth,
        n_min=float(n.min()), n_max=float(n.max()), constraint_grid=grid_n,
        constraints_active=bool(np.any(nu > 0)), covariance=cov,
        residual_rms=float(np.sqrt(np.mean(resid ** 2))), degree=degree)
    d1, d2 = _energy_slopes(model, grid_n)
    if np.any(d1 > CONSTRAINT_TOL) or np.any(d2 > CONSTRAINT_TOL):
        raise SolverFailure(
            "fitted polynomial violates its shape constraints by "
            f"{max(d1.max(), d2.max()):.3g}")
    return model


@dataclass(frozen=True)
class CapacityEstimate:
    value: float
    stderr: float
    at_n: float
    method: str

    def __post_init__(self):
        if not (np.isfinite(self.value) and np.isfinite(self.stderr)):
            raise InvalidArgument("capacity estimate must be finite")
        if self.stderr < 0:
            raise InvalidArgument("stderr must be >= 0")


def capacity_from_polynomial(model: PolynomialEnergyModel,
                             n: float) -> CapacityEstimate:
    """C(N) = -N^2 dU/dN from the fitted polynomial's analytic derivative."""
    n = float(n)
    if not (model.n_min <= n <= model.n_max):
        raise OutOfRange(
            f"N={n} outside fitted range [{model.n_min}, {model.n_max}]")
    t = (np.log(n) - model.center) / model.halfwidth
    d1_row = _poly_deriv_matrix(model.coeffs.size, np.array([t]), 1)[0]
    # dU/dN = pi'(t) / (halfwidth * N), so C = -N pi'(t) / halfwidth
    grad = -n / model.halfwidth * d1_row
    value = float(grad @ model.coeffs)
    var = float(grad @ model.covariance @ grad)
    return CapacityEstimate(value=value, stderr=float(np.sqrt(max(var, 0.0))),
                            at_n=n, method="polynomial")


# ---------------------------------------------------------------------------
# sigmoid capacity model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmoidCapacityModel:
    """C(N) = a / (1 + exp(-c log N + b)) plus an energy offset u_inf."""

    a: float
    b: float
    c: float
    u_inf: float
    covariance: np.ndarray
    residual_rms: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.a, self.b, self.c, self.u_inf)):
            raise InvalidArgument("sigmoid parameters must be finite")
        if self.a < 0 or self.c < 0:
            raise InvalidArgument("a and c must be non-negative")
        cov = np.asarray(self.covariance, dtype=np.float64)
        if cov.shape != (4, 4) or not np.all(np.isfinite(cov)):
            raise InvalidArgument("covariance must be a finite 4x4 matrix")
        cov = (cov + cov.T) / 2.0
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)

    def capacity(self, n):
        # overflow in exp only drives the result toward the correct limit 0
        with np.errstate(over="ignore"):
            return self.a / (1.0 + np.exp(-self.c * np.log(n) + self.b))


def energy_from_sigmoid(model: SigmoidCapacityModel, n: float) -> float:
    """u_inf plus the capacity tail integral from N to infinity.

    Substituting u = 1/k turns the integral into
    int_0^{1/N} a/(1+e^b u^c) du, which ``_sigmoid_tail`` evaluates in
    closed form.
    """
    n = float(n)
    if n < 1:
        raise InvalidArgument(f"N must be >= 1, got {n}")
    return model.u_inf + float(_sigmoid_tail(model.a, model.b, model.c, n))


# 2F1(1, beta; 1+beta; -z) is summed through Pfaff's transformation up to
# z = 2 and through its expansion in 1/z beyond, whose terms then shrink by
# a factor of at least 2: 56 terms leave less than 2**-56 of the sum.
_LOG_Z_SPLIT = math.log(2.0)
_INVERSE_TERMS = 56


def _sigmoid_tail(a: float, b: float, c: float, n):
    """int_0^{1/N} a / (1 + e^b u^c) du for each N >= 1 in ``n``.

    With u = t/N the integral is (a/N) int_0^1 dt / (1 + z t^c), where
    z = e^b N^-c, and that is (a/N) 2F1(1, 1/c; 1+1/c; -z).  It is
    evaluated from log z, so it stays finite where e^b or N^-c would
    overflow; c = 0 leaves a constant integrand.
    """
    n = np.asarray(n, dtype=np.float64)
    if c == 0.0:
        return a / n * special.expit(-b)
    return a / n * _hyp2f1_tail(b - c * np.log(n), 1.0 / c)


def _hyp2f1_tail(log_z, beta: float) -> np.ndarray:
    """2F1(1, beta; 1+beta; -z) at z = e^log_z, for beta > 0.

    For z <= 2 the Pfaff form 2F1(1, 1; 1+beta; z/(1+z)) / (1+z) keeps
    scipy's argument at or below 2/3.  For z > 2 the 1/z connection
    formula (DLMF 15.8.2) gives

        pi beta z^-beta / sin(pi beta)
            + beta sum_{j>=1} (-1)^j z^-j / (j - beta),

    whose first term has a pole at each integer beta that the j = m term,
    m = round(beta), cancels; that pair is summed in a form with a finite
    limit as beta - m goes to 0.
    """
    log_z = np.asarray(log_z, dtype=np.float64)
    out = np.empty(log_z.shape)
    low = log_z <= _LOG_Z_SPLIT
    x = log_z[low]
    out[low] = (special.hyp2f1(1.0, 1.0, 1.0 + beta, special.expit(x))
                * special.expit(-x))
    x = log_z[~low]
    j = np.arange(1.0, _INVERSE_TERMS + 1.0)
    m = float(np.round(beta))
    eps = beta - m
    # the j = m term is summed with the pole below, so its slot holds 0
    coef = beta * (1.0 - 2.0 * (j % 2.0)) / np.where(j == m, np.inf, j - beta)
    series = np.exp(-np.outer(x, j)) @ coef
    if m == 0.0:
        lead = np.exp(-beta * x) * (np.pi * beta / np.sin(np.pi * beta))
    else:
        # (z^-beta - z^-m) / eps, bounded for either sign of eps
        gap = -x * np.exp(-min(m, beta) * x) * special.exprel(-abs(eps) * x)
        sign = 1.0 - 2.0 * (m % 2.0)
        lead = sign * beta * (gap + np.exp(-beta * x) * _pi_csc_minus_inverse(eps))
    out[~low] = lead + series
    return out


def _pi_csc_minus_inverse(eps: float) -> float:
    """pi / sin(pi eps) - 1/eps for |eps| <= 1/2, by its series near 0."""
    if abs(eps) < 1e-3:
        p2, e2 = math.pi ** 2, eps * eps
        return eps * p2 * (1.0 / 6.0 + e2 * p2 * (7.0 / 360.0
                                                  + e2 * p2 * 31.0 / 15120.0))
    return math.pi / math.sin(math.pi * eps) - 1.0 / eps


def _default_starts(curve: EnergyCurve):
    """Eight deterministic (a, b, c, u_inf) initializations.

    Capacity scale a0 comes from N^2 |dU/dN| at the smallest and largest
    gaps; the sigmoid midpoint is placed at the grid's geometric mean or
    the geometric mean of its upper half, with slope c0 in {0.5, 2}.
    """
    n = curve.n.astype(np.float64)
    u = curve.u_mean
    first = np.sqrt(n[0] * n[1]) ** 2 * abs(u[1] - u[0]) / (n[1] - n[0])
    last = np.sqrt(n[-2] * n[-1]) ** 2 * abs(u[-1] - u[-2]) / (n[-1] - n[-2])
    a_candidates = [max(first, 1e-3), max(last, 1e-3)]
    mid_all = float(np.exp(np.mean(np.log(n))))
    upper = n[n >= np.median(n)]
    mid_upper = float(np.exp(np.mean(np.log(upper))))
    u_inf0 = float(np.min(u))
    starts = []
    for a0 in a_candidates:
        for c0 in (0.5, 2.0):
            for mid in (mid_all, mid_upper):
                starts.append((a0, c0 * np.log(mid), c0, u_inf0))
    return starts


def _lm_single_start(n, y, sigma, theta0, max_iter=500):
    """Levenberg-Marquardt on internal parameters (log a, b, log c, u_inf).

    Returns (theta, cost, jacobian) or None if the start went non-finite.
    """

    def predict(theta):
        alpha, b, gamma, u_inf = theta
        tails = _sigmoid_tail(1.0, b, np.exp(gamma), n)
        return u_inf + np.exp(alpha) * tails, tails

    def jacobian(theta, tails):
        alpha, b, gamma, u_inf = theta
        a, c = np.exp(alpha), np.exp(gamma)
        J = np.empty((n.size, 4))
        J[:, 0] = a * tails  # d/d alpha = a * d/d a
        J[:, 3] = 1.0
        hb = 1e-6 * max(1.0, abs(b))
        tb_hi = _sigmoid_tail(a, b + hb, c, n)
        tb_lo = _sigmoid_tail(a, b - hb, c, n)
        J[:, 1] = (tb_hi - tb_lo) / (2 * hb)
        hg = 1e-6
        tg_hi = _sigmoid_tail(a, b, np.exp(gamma + hg), n)
        tg_lo = _sigmoid_tail(a, b, np.exp(gamma - hg), n)
        J[:, 2] = (tg_hi - tg_lo) / (2 * hg)
        return J

    theta = np.asarray(theta0, dtype=np.float64)
    pred, tails = predict(theta)
    resid = (y - pred) / sigma
    cost = float(resid @ resid)
    if not np.isfinite(cost):
        return None
    mu = None
    J = None
    for _ in range(max_iter):
        J = jacobian(theta, tails) / sigma[:, None]
        H = J.T @ J
        g = J.T @ resid
        if mu is None:
            mu = 1e-3 * max(float(np.max(np.diag(H))), 1e-12)
        accepted = False
        for _ in range(60):
            try:
                delta = np.linalg.solve(H + mu * np.eye(4), g)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(H + mu * np.eye(4), g, rcond=None)[0]
            trial = theta + delta
            # keep exp() parameters in a sane range
            trial[0] = np.clip(trial[0], -50.0, 50.0)
            trial[2] = np.clip(trial[2], -50.0, 50.0)
            pred_t, tails_t = predict(trial)
            resid_t = (y - pred_t) / sigma
            cost_t = float(resid_t @ resid_t)
            if np.isfinite(cost_t) and cost_t <= cost:
                rel = (cost - cost_t) / max(cost, 1e-300)
                theta, pred, tails, resid = trial, pred_t, tails_t, resid_t
                cost = cost_t
                mu = max(mu / 10.0, 1e-15)
                accepted = True
                converged = rel < 1e-10
                break
            mu *= 10.0
            if mu > 1e18:
                break
        if not accepted or converged:
            break
    J = jacobian(theta, tails) / sigma[:, None]
    return theta, cost, J


def fit_sigmoid_capacity(curve: EnergyCurve, init=None) -> SigmoidCapacityModel:
    """Fit (a, b, c, u_inf) through the integrated sigmoid energy.

    Weighted least squares by Levenberg-Marquardt with a x10/div10 damping
    ladder, converging on relative cost change < 1e-10 (500 iteration cap).
    Without an explicit ``init``, 8 deterministic starts are tried and the
    lowest cost wins (ties break toward the earlier start).  Positivity of
    a and c is kept by optimizing their logarithms.  The model energy, its
    finite-difference Jacobian and the final residual are evaluated over
    the whole N grid at once from the closed-form tail (``_sigmoid_tail``).

    Raises:
        DegenerateCurve: fewer than 5 points.
        FitDiverged: every start failed.
    """
    if len(curve) < 5:
        raise DegenerateCurve(
            f"sigmoid fit needs >= 5 points, got {len(curve)}")
    n = curve.n.astype(np.float64)
    y = curve.u_mean
    w = _weights_from_stderr(curve.u_stderr)
    sigma = 1.0 / np.sqrt(w)
    if init is not None:
        a0, b0, c0, u0 = init
        if a0 <= 0 or c0 <= 0:
            raise InvalidArgument("init requires a > 0 and c > 0")
        starts = [(a0, b0, c0, u0)]
    else:
        starts = _default_starts(curve)
    best = None
    for idx, (a0, b0, c0, u0) in enumerate(starts):
        theta0 = (np.log(a0), b0, np.log(c0), u0)
        out = _lm_single_start(n, y, sigma, theta0)
        if out is None:
            continue
        theta, cost, J = out
        if best is None or cost < best[1] - 1e-15 * max(1.0, best[1]):
            best = (theta, cost, J)
    if best is None:
        raise FitDiverged("all sigmoid fit starts failed")
    theta, cost, J = best
    a, b, c, u_inf = np.exp(theta[0]), theta[1], np.exp(theta[2]), theta[3]
    dof = max(n.size - 4, 1)
    H = J.T @ J
    try:
        cov_int = np.linalg.inv(H) * (cost / dof)
    except np.linalg.LinAlgError:
        cov_int = np.linalg.pinv(H) * (cost / dof)
    T = np.diag([a, 1.0, c, 1.0])
    cov = T @ cov_int @ T.T
    pred = u_inf + _sigmoid_tail(a, b, c, n)
    rms = float(np.sqrt(np.mean((y - pred) ** 2)))
    return SigmoidCapacityModel(a=float(a), b=float(b), c=float(c),
                                u_inf=float(u_inf), covariance=cov,
                                residual_rms=rms)


def capacity_from_sigmoid(model: SigmoidCapacityModel,
                          n: float) -> CapacityEstimate:
    """Direct sigmoid evaluation with a delta-method stderr."""
    n = float(n)
    x = np.log(n)
    z = model.b - model.c * x
    s = 1.0 / (1.0 + np.exp(z))
    value = model.a * s
    grad = np.array([s, -model.a * s * (1 - s), model.a * s * (1 - s) * x, 0.0])
    var = float(grad @ model.covariance @ grad)
    return CapacityEstimate(value=float(value),
                            stderr=float(np.sqrt(max(var, 0.0))),
                            at_n=n, method="sigmoid")


class Guidance(enum.Enum):
    PROCURE_MORE_DATA = "procure-more-data"
    TRANSITION = "transition"
    SEARCH_ARCHITECTURES = "search-architectures"


def freezing_threshold(model: SigmoidCapacityModel, n_current=None):
    """Sigmoid midpoint n* = exp(b/c) where capacity reaches a/2.

    With ``n_current`` supplied, also returns a guidance tag: below n*
    more data helps most; beyond 10 n* the capacity has frozen and a
    different architecture is the lever; in between is the transition.

    Raises:
        UndefinedThreshold: c <= 1e-6 (flat capacity, no transition).
    """
    if model.c <= _C_MIN:
        raise UndefinedThreshold(
            f"capacity slope c={model.c} is too small to define a threshold")
    try:
        n_star = float(math.exp(model.b / model.c))
    except OverflowError:
        n_star = math.inf
    if n_current is None:
        return n_star, None
    if n_current < n_star:
        guidance = Guidance.PROCURE_MORE_DATA
    elif n_current > 10.0 * n_star:
        guidance = Guidance.SEARCH_ARCHITECTURES
    else:
        guidance = Guidance.TRANSITION
    return n_star, guidance


# ---------------------------------------------------------------------------
# cross-model statistics
# ---------------------------------------------------------------------------

def kendall_tau(xs, ys) -> float:
    """Tie-corrected (tau-b) Kendall rank correlation."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(
            f"inputs must be equal-length 1-d sequences, got {x.shape} "
            f"and {y.shape}")
    n = x.size
    if n < 2:
        raise InvalidArgument("need at least 2 observations")
    concordant = discordant = 0
    for i in range(n - 1):
        dx = x[i + 1:] - x[i]
        dy = y[i + 1:] - y[i]
        prod = dx * dy
        concordant += int(np.sum(prod > 0))
        discordant += int(np.sum(prod < 0))
    n0 = n * (n - 1) // 2
    tx = sum(c * (c - 1) // 2 for c in np.unique(x, return_counts=True)[1])
    ty = sum(c * (c - 1) // 2 for c in np.unique(y, return_counts=True)[1])
    denom = np.sqrt(float(n0 - tx) * float(n0 - ty))
    if denom == 0:
        raise AllTied("kendall tau undefined when one input is constant")
    return float((concordant - discordant) / denom)


def capacity_loss_regression(points):
    """OLS of test loss on capacity: returns (slope, intercept, p_value).

    The p-value is the two-sided t-test for a non-zero slope.

    Raises:
        InsufficientPoints: fewer than 3 points.
        DegenerateDesign: all capacities identical.
    """
    pts = [(float(c), float(l)) for c, l in points]
    if len(pts) < 3:
        raise InsufficientPoints(f"regression needs >= 3 points, got {len(pts)}")
    cap = np.array([p[0] for p in pts])
    loss = np.array([p[1] for p in pts])
    sxx = float(np.sum((cap - cap.mean()) ** 2))
    if sxx == 0.0:
        raise DegenerateDesign("all capacity values are equal")
    slope = float(np.sum((cap - cap.mean()) * (loss - loss.mean())) / sxx)
    intercept = float(loss.mean() - slope * cap.mean())
    resid = loss - (intercept + slope * cap)
    dof = len(pts) - 2
    s2 = float(resid @ resid) / dof
    se = np.sqrt(s2 / sxx)
    if se == 0.0:
        p_value = 0.0 if slope != 0.0 else 1.0
    else:
        t_stat = slope / se
        p_value = float(2.0 * special.stdtr(dof, -abs(t_stat)))
    return slope, intercept, p_value
