"""Capacity estimation from measured energy curves.

Two fitted forms:

* a degree-7 polynomial in log N for the energy, least-squares fitted
  under shape constraints (energy non-increasing, capacity non-decreasing)
  enforced on a dense log grid and solved as a quadratic program through
  its non-negative least-squares (NNLS) dual;
* the four-parameter sigmoid capacity model C(N) = a/(1+exp(-c log N + b)),
  fitted through its integrated energy by variable projection: (a, u_inf)
  enter linearly and are solved in closed form, and the shape
  (log n*, log c) is searched on a fixed grid, then polished by a damped
  Newton method.

Derived readouts: capacity at a given N, the freezing threshold n* where
C reaches a/2 (with a data-vs-architecture guidance tag, undetermined when
the profile in log n* leaves n* open), Kendall's tau-b for cross-model rank
agreement, and an ordinary least-squares capacity-loss regression with a
slope p-value.

``scipy.special`` is imported inside the functions that call it, so
importing the CLI does not load it and commands that fit no sigmoid start
without it.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

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
    CONSTRAINT_TOL; a multiplier within rounding of 0, relative to the
    largest one, leaves the positive set, and a positive set that empties
    returns to the outer step at nu = 0.  Inner and outer steps share one
    budget of 3 x columns.
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
            passive &= nu > _ROUNDING * np.max(nu)
            nu[~passive] = 0.0
            if not passive.any():
                resid = d
                break


def fit_monotone_polynomial(curve: EnergyCurve,
                            degree: int = 7) -> PolynomialEnergyModel:
    """Weighted least-squares polynomial in log N under shape constraints.

    Constraints (energy non-increasing, capacity non-decreasing) are
    enforced at 64 log-spaced N spanning the curve, and the
    inequality-constrained QP is solved through its NNLS dual
    (least-distance programming, Lawson and Hanson 1974, ch. 23).  A curve
    with no positive stderr has unit weights, and its covariance is scaled
    by the residual variance, cost/dof, as the sigmoid fit's is.

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
    if not np.any(curve.u_stderr > 0):
        # unit weights carry no scale: take it from the residual variance
        cov *= float(resid @ resid) / (n.size - k)
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
    """C(N) = a / (1 + exp(-c log N + b)) plus an energy offset u_inf.

    ``identified`` is False when the data do not place the threshold
    n* = exp(b/c); ``n_star_interval`` is the profile interval for n*, with
    0 or inf at an end the profile leaves open.
    """

    a: float
    b: float
    c: float
    u_inf: float
    covariance: np.ndarray
    residual_rms: float
    identified: bool = True
    n_star_interval: tuple = (0.0, math.inf)

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
        lo, hi = (float(v) for v in self.n_star_interval)
        if not 0.0 <= lo <= hi:
            raise InvalidArgument("n_star_interval must satisfy 0 <= lo <= hi")
        object.__setattr__(self, "n_star_interval", (lo, hi))

    def capacity(self, n):
        from scipy.special import expit

        return self.a * expit(self.c * np.log(n) - self.b)


def energy_from_sigmoid(model: SigmoidCapacityModel, n):
    """u_inf plus the capacity tail integral from N to infinity, at a
    scalar N or at each N of an array.

    Substituting u = 1/k turns the integral into
    int_0^{1/N} a/(1+e^b u^c) du, which ``_sigmoid_tail`` evaluates in
    closed form.
    """
    if np.min(n) < 1:
        raise InvalidArgument(f"N must be >= 1, got {np.min(n)}")
    return model.u_inf + _sigmoid_tail(model.a, model.b, model.c, n)


# 2F1(1, beta; 1+beta; -z) is summed through Pfaff's transformation up to
# z = 2 and through its expansion in 1/z beyond, whose terms then shrink by
# a factor of at least 2: 56 terms leave less than 2**-56 of the sum.
_LOG_Z_SPLIT = math.log(2.0)
_INVERSE_J = np.arange(1.0, 57.0)
_INVERSE_SIGN = 1.0 - 2.0 * (_INVERSE_J % 2.0)


def _sigmoid_tail(a: float, b: float, c: float, n):
    """int_0^{1/N} a / (1 + e^b u^c) du for each N >= 1 in ``n``.

    With u = t/N the integral is (a/N) int_0^1 dt / (1 + z t^c), where
    z = e^b N^-c, and that is (a/N) 2F1(1, 1/c; 1+1/c; -z).  It is
    evaluated from log z, so it stays finite where e^b or N^-c would
    overflow; c = 0 leaves a constant integrand.
    """
    from scipy.special import expit

    n = np.asarray(n, dtype=np.float64)
    if c == 0.0:
        return a / n * expit(-b)
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
    from scipy.special import expit, exprel, hyp2f1

    log_z = np.asarray(log_z, dtype=np.float64)
    out = np.empty(log_z.shape)
    low = log_z <= _LOG_Z_SPLIT
    x = log_z[low]
    out[low] = hyp2f1(1.0, 1.0, 1.0 + beta, expit(x)) * expit(-x)
    x = log_z[~low]
    j = _INVERSE_J
    m = float(round(beta))
    eps = beta - m
    # the j = m term is summed with the pole below, so its slot holds 0
    coef = beta * _INVERSE_SIGN / np.where(j == m, np.inf, j - beta)
    series = np.exp(-x[:, None] * j) @ coef
    if m == 0.0:
        lead = np.exp(-beta * x) * (np.pi * beta / np.sin(np.pi * beta))
    else:
        # (z^-beta - z^-m) / eps, bounded for either sign of eps
        gap = -x * np.exp(-min(m, beta) * x) * exprel(-abs(eps) * x)
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


# The variable-projection fit searches (log n*, log c) on a fixed grid:
# log n* over the curve's log N range widened by _GRID_PAD on each side, and
# log c over [2^-5, 2^7], which holds the c = 45 of a transition inside a
# factor of 1.2 in N.  c stays in that range, the bound of the model: at
# c = 2^-5 the capacity climbs from 12% to 88% of a over a factor of e^128
# in N.  The polish may take log n* off the grid.
_GRID_ROWS = 41
_GRID_PAD = 3.0
_GRID_LOG_C = np.linspace(-5.0, 7.0, 25) * math.log(2.0)
_POLISH_STEPS = 40
# difference steps: in log c for the tail's column, in both shape
# parameters for the Hessian
_LOG_C_STEP = 1e-5
_HESSIAN_STEP = 1e-4
# below z = 1/2 the slope is summed in a form free of cancellation
_LOG_Z_SMALL = -math.log(2.0)
# a tail whose weighted spread is below this fraction of its mean is flat to
# rounding and carries no shape
_FLAT_TAIL = 1e-8
# singular-value ratio of the column-scaled Jacobian below which the normal
# matrix counts as singular
_SINGULAR = 1e-8
_CHI2_1_95 = 3.841458820694124


def _tail_slope(log_z, beta: float, tail) -> np.ndarray:
    """z dF/dz for F = 2F1(1, beta; 1+beta; -z), given ``tail`` = F.

    z dF/dz = beta (1/(1+z) - F).  Where z < 1/2 the two terms nearly
    cancel, and the slope is summed as
    -beta z/(1+beta) 2F1(2, 1+beta; 2+beta; -z) instead.
    """
    from scipy.special import expit, hyp2f1

    log_z = np.asarray(log_z, dtype=np.float64)
    slope = beta * (expit(-log_z) - tail)
    small = log_z < _LOG_Z_SMALL
    z = np.exp(log_z[small])
    slope[small] = (-beta / (1.0 + beta) * z
                    * hyp2f1(2.0, 1.0 + beta, 2.0 + beta, -z))
    return slope


def _linear_profile(t, y, w):
    """Best u_inf + a t with a >= 0, by weighted least squares per row of t.

    Returns (a, u_inf, weighted cost), one entry per row.
    """
    t = np.atleast_2d(t)
    total = w.sum()
    t_bar = t @ w / total
    y_bar = w @ y / total
    dt = t - t_bar[:, None]
    dy = y - y_bar
    stt = (dt * dt) @ w
    shaped = stt > (_FLAT_TAIL * t_bar) ** 2 * total
    a = np.where(shaped, np.maximum(dt @ (w * dy), 0.0)
                 / np.where(shaped, stt, 1.0), 0.0)
    r = dy - a[:, None] * dt
    return a, y_bar - a * t_bar, (r * r) @ w


class _Shape:
    """One shape (log n*, log c) on a curve: the tail t(N) = F/N, the best
    linear pair (a, u_inf) and their weighted cost."""

    def __init__(self, theta, x, y, w):
        self.theta = np.asarray(theta, dtype=np.float64)
        self.x, self.y, self.w = x, y, w
        self.c = math.exp(self.theta[1])
        self.log_z = self.c * (self.theta[0] - x)
        self.tail = _hyp2f1_tail(self.log_z, 1.0 / self.c)
        self.t = self.tail * np.exp(-x)
        a, u_inf, cost = _linear_profile(self.t, y, w)
        self.a, self.u_inf, self.cost = float(a[0]), float(u_inf[0]), float(cost[0])

    def moved(self, theta):
        return _Shape(theta, self.x, self.y, self.w)

    def columns(self):
        """dt/d log n* and dt/d log c, as an (N, 2) array.

        The log n* column is analytic.  For log c, F = 1/(1+z) + E with
        E = -c z dF/dz: the first term is differentiated exactly and E, which
        the small-z slope gives to full relative precision, by a central
        difference.
        """
        from scipy.special import expit

        ell, gamma = self.theta
        x, c = self.x, self.c
        slope = _tail_slope(self.log_z, 1.0 / c, self.tail)

        def excess(g):
            cg = math.exp(g)
            log_z = cg * (ell - x)
            return -cg * _tail_slope(log_z, 1.0 / cg, _hyp2f1_tail(log_z, 1.0 / cg))

        d_excess = (excess(gamma + _LOG_C_STEP)
                    - excess(gamma - _LOG_C_STEP)) / (2.0 * _LOG_C_STEP)
        d_step = -expit(self.log_z) * expit(-self.log_z) * self.log_z
        return (np.column_stack([c * slope, d_step + d_excess])
                * np.exp(-x)[:, None])

    def gradient(self):
        """Gradient of the profiled cost: the residual is orthogonal to
        (1, t), so (a, u_inf) contribute nothing (Golub and Pereyra 1973)."""
        resid = self.y - self.u_inf - self.a * self.t
        return -2.0 * self.a * (self.columns().T @ (self.w * resid))


def _polish(shape, lo, hi, tol=0.0, floor=-math.inf):
    """Damped Newton on the profiled cost over (log n*, log c).

    The shape stays inside the box [lo, hi]; a coordinate with lo == hi is
    held fixed.  The Hessian is a forward difference of the gradient.  A
    step is damped by mu |diag H| until the damped Hessian is
    positive definite and the step lowers the cost.  The polish ends when
    the cost falls by less than max(1e-12 cost, ``tol``), or to ``floor``
    or below, or when no damping finds a lower cost.
    """
    free = np.flatnonzero(lo < hi)
    mu = 0.0
    for _ in range(_POLISH_STEPS):
        if shape.a == 0.0:
            break
        grad = shape.gradient()
        hess = np.empty((free.size, free.size))
        for col, k in enumerate(free):
            theta = shape.theta.copy()
            theta[k] += _HESSIAN_STEP
            hess[:, col] = ((shape.moved(theta).gradient() - grad)[free]
                            / _HESSIAN_STEP)
        hess = (hess + hess.T) / 2.0
        scale = np.diag(np.abs(np.diag(hess)))
        trial = None
        while mu <= 1e8:
            damped = hess + mu * scale
            if np.linalg.eigvalsh(damped)[0] > 1e-12 * abs(damped).max():
                theta = shape.theta.copy()
                theta[free] -= np.linalg.solve(damped, grad[free])
                trial = shape.moved(np.clip(theta, lo, hi))
                if trial.cost <= shape.cost:
                    break
            trial = None
            mu = max(10.0 * mu, 1e-4)
        if trial is None:
            break
        # along a valley of negative curvature the damped step is short:
        # double it while that lowers the cost
        while True:
            far = shape.moved(np.clip(2.0 * trial.theta - shape.theta, lo, hi))
            if not far.cost < trial.cost:
                break
            trial = far
        mu = mu / 10.0 if mu > 1e-3 else 0.0
        done = (shape.cost - trial.cost <= max(1e-12 * shape.cost, tol)
                or trial.cost <= floor)
        shape = trial
        if done:
            break
    return shape


def _n_star_interval(rows, profile, ell_hat, level, best, refine):
    """Profile interval for log n* around the fit at ``ell_hat``.

    ``profile`` holds each grid row's least cost over the log c columns,
    which can only overstate the profile; ``refine(i)`` returns row i's
    profile cost polished over log c.  On each side the end is where the
    profile first crosses ``level`` going out from the fit, interpolated
    linearly; it is -inf or inf when no row on that side exceeds
    ``level``.
    """
    profile = profile.copy()
    ends = []
    for below in (True, False):
        side = rows < ell_hat if below else rows > ell_hat
        candidates = np.flatnonzero(side & (profile > level))
        end = -math.inf if below else math.inf
        for i in (candidates[::-1] if below else candidates):
            profile[i] = refine(i)
            if profile[i] <= level:
                continue
            # the next point toward the fit lies at or below the level
            k = i + 1 if below else i - 1
            if 0 <= k < rows.size and side[k]:
                ell_in, p_in = rows[k], profile[k]
            else:
                ell_in, p_in = np.clip(ell_hat, rows[0], rows[-1]), best
            frac = (profile[i] - level) / (profile[i] - p_in)
            end = float(rows[i] + frac * (ell_in - rows[i]))
            break
        ends.append(end)
    return ends[0], ends[1]


def fit_sigmoid_capacity(curve: EnergyCurve) -> SigmoidCapacityModel:
    """Fit (a, b, c, u_inf) through the integrated sigmoid energy.

    Weighted least squares by variable projection (Golub and Pereyra 1973):
    given the shape, parametrised as (log n*, log c) with b = c log n*, the
    energy u_inf + a T(N) is linear in (a, u_inf), which are solved in
    closed form with a >= 0.  The profiled cost is evaluated on a fixed
    grid of shapes, one vectorised tail call per log c column, and the best
    grid point is polished by a damped Newton method on the two shape
    parameters.

    The minimum over log c in each log n* row is the profile in log n*;
    a row that decides the verdict below is polished over log c within
    the grid's range.  The fit is ``identified`` when that profile rises
    more than chi-square(1, 0.95) = 3.84 residual variances (cost/dof)
    above its minimum on both sides inside the grid, and the parameter
    covariance is not singular; ``n_star_interval`` holds the crossings.
    The covariance comes from the Jacobian at the optimum, scaled by the
    residual variance; where its normal matrix is singular, only the
    (a, u_inf) block of the linear fit at the fitted shape is reported, so
    C(N) keeps a stderr.

    Raises:
        DegenerateCurve: fewer than 5 points, or a singular covariance
            whose (a, u_inf) block is singular too.
        FitDiverged: no grid shape gives a finite cost.
    """
    if len(curve) < 5:
        raise DegenerateCurve(
            f"sigmoid fit needs >= 5 points, got {len(curve)}")
    n = curve.n.astype(np.float64)
    x = np.log(n)
    y = curve.u_mean
    w = _weights_from_stderr(curve.u_stderr)
    rows = np.linspace(x[0] - _GRID_PAD, x[-1] + _GRID_PAD, _GRID_ROWS)
    lo = np.array([-math.inf, _GRID_LOG_C[0]])
    hi = np.array([math.inf, _GRID_LOG_C[-1]])
    grid = np.empty((rows.size, _GRID_LOG_C.size))
    for j, gamma in enumerate(_GRID_LOG_C):
        c = math.exp(gamma)
        t = _hyp2f1_tail(c * (rows[:, None] - x), 1.0 / c) * np.exp(-x)
        grid[:, j] = _linear_profile(t, y, w)[2]
    if not np.isfinite(grid.min()):
        raise FitDiverged("no sigmoid shape gives a finite cost")
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    start = np.array([rows[i], _GRID_LOG_C[j]])
    shape = _polish(_Shape(np.clip(start, lo, hi), x, y, w), lo, hi)

    a, u_inf, cost = shape.a, shape.u_inf, shape.cost
    ell, c = float(shape.theta[0]), shape.c
    b = c * ell
    dof = max(n.size - 4, 1)
    s2 = cost / dof
    sw = np.sqrt(w)
    jac = sw[:, None] * np.column_stack(
        [shape.t, a * shape.columns(), np.ones_like(x)])
    norms = np.linalg.norm(jac, axis=0)
    singular = not norms.min() > 0.0
    if not singular:
        scaled = jac / norms
        sv = np.linalg.svd(scaled, compute_uv=False)
        singular = not sv[-1] > _SINGULAR * sv[0]
    cov = np.zeros((4, 4))
    if singular:
        lin = jac[:, [0, 3]]
        try:
            cov[np.ix_([0, 3], [0, 3])] = np.linalg.inv(lin.T @ lin) * s2
        except np.linalg.LinAlgError:
            raise DegenerateCurve(
                "sigmoid covariance is singular: the weighted curve leaves "
                "(a, u_inf) undetermined") from None
    else:
        cov_int = np.linalg.inv(scaled.T @ scaled) / np.outer(norms, norms) * s2
        # (a, log n*, log c, u_inf) -> (a, b, c, u_inf), with b = c log n*
        m = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, c, b, 0.0],
                      [0.0, 0.0, c, 0.0], [0.0, 0.0, 0.0, 1.0]])
        cov = m @ cov_int @ m.T

    profile = grid.min(axis=1)
    best = min(cost, float(profile.min()))
    syy = float(np.sum(w * (y - w @ y / w.sum()) ** 2))
    level = best + _CHI2_1_95 * best / dof + _ROUNDING * syy

    def refine(i):
        # precise to a thousandth of the margin, and only until the row
        # is seen to lie at or below the level
        row = shape.moved([rows[i], _GRID_LOG_C[np.argmin(grid[i])]])
        return _polish(row, np.array([rows[i], lo[1]]),
                       np.array([rows[i], hi[1]]),
                       tol=1e-3 * (level - best), floor=level).cost

    n_star_lo, n_star_hi = _n_star_interval(rows, profile, ell, level, best,
                                            refine)
    pred = u_inf + _sigmoid_tail(a, b, c, n)
    rms = float(np.sqrt(np.mean((y - pred) ** 2)))
    return SigmoidCapacityModel(
        a=a, b=b, c=c, u_inf=u_inf, covariance=cov, residual_rms=rms,
        identified=bool(np.isfinite(n_star_lo) and np.isfinite(n_star_hi)
                        and not singular),
        n_star_interval=(math.exp(n_star_lo), math.exp(n_star_hi)))


def capacity_from_sigmoid(model: SigmoidCapacityModel,
                          n: float) -> CapacityEstimate:
    """Direct sigmoid evaluation with a delta-method stderr."""
    from scipy.special import expit

    n = float(n)
    x = np.log(n)
    s = expit(model.c * x - model.b)
    grad = np.array([s, -model.a * s * (1 - s), model.a * s * (1 - s) * x, 0.0])
    var = float(grad @ model.covariance @ grad)
    return CapacityEstimate(value=float(model.capacity(n)),
                            stderr=float(np.sqrt(max(var, 0.0))),
                            at_n=n, method="sigmoid")


class Guidance(enum.Enum):
    PROCURE_MORE_DATA = "procure-more-data"
    TRANSITION = "transition"
    SEARCH_ARCHITECTURES = "search-architectures"
    UNDETERMINED = "undetermined"


def freezing_threshold(model: SigmoidCapacityModel, n_current):
    """Sigmoid midpoint n* = exp(b/c) where capacity reaches a/2.

    Also returns a guidance tag for ``n_current``: below n* more data
    helps most; beyond 10 n* the capacity has frozen and a
    different architecture is the lever; in between is the transition.
    For a fit that is not identified the guidance is undetermined, and
    n* is the one bound its profile interval gives (inf when it gives
    none).

    Raises:
        UndefinedThreshold: c <= 1e-6 (flat capacity, no transition).
    """
    if model.c <= _C_MIN:
        raise UndefinedThreshold(
            f"capacity slope c={model.c} is too small to define a threshold")
    lo, hi = model.n_star_interval
    if model.identified or (lo > 0.0 and hi < math.inf):
        try:
            n_star = float(math.exp(model.b / model.c))
        except OverflowError:
            n_star = math.inf
    else:
        n_star = lo if lo > 0.0 else hi
    if not model.identified:
        guidance = Guidance.UNDETERMINED
    elif n_current < n_star:
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
        from scipy.special import stdtr

        p_value = float(2.0 * stdtr(dof, -abs(t_stat)))
    return slope, intercept, p_value
