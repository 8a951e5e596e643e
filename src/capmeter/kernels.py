"""Hot numeric loops, one vectorized numpy implementation each.

``logistic_gd_stack`` trains a stack of logistic fits at once, and
``mlp_sgd_stack`` a stack of MLP fits with one training-set size; one fit
is a stack of one job.  ``sgld_chain_diag_quad`` runs fused Langevin chains
for diagonal quadratic energies: a small state steps each coordinate's
recursion in Python floats, a large one all coordinates at once in numpy,
and both loops give the same bits.  Callers reach them through this
module's attributes (``kernels.logistic_gd_stack(...)``), so a wrapper
bound here sees every call.

Reduction order is part of the contract: every result is bit for bit what
numpy's own reductions give.  numpy reduces a short axis a few elements per
call of its inner loop, so the loops here reduce the class axis with
``class_max`` and ``class_sum``, one elementwise call per class column, and
the batch axis with ``batch_sum``, which adds whole rows of a batch-major
copy; both keep numpy's order of operations.  ``mlp_sgd_stack`` holds its
parameters, velocities and gradients in one flat buffer each, so an update
step is a handful of calls on whole buffers.
"""

import math

import numpy as np

from .errors import InvalidArgument

# perfbench/run.py's machine_facts reads this flag and exits 1 without it.
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# reductions over short axes
# ---------------------------------------------------------------------------
# numpy reduces a row of fewer than _SHORT elements in order: its sum is
# ((0.0 + a0) + a1) + ..., and its max that of a running np.maximum, the
# signs of zeros included.  So one elementwise call per class column gives
# its bits, except that numpy's NaN is always positive.  Wider rows are
# reduced in blocks, so they stay with numpy.
_SHORT = 8


def class_max(a):
    """``np.max(a, axis=-1, keepdims=True)``, one call per class column."""
    m = a.shape[-1]
    if m >= _SHORT:
        return np.max(a, axis=-1, keepdims=True)
    out = a[..., :1].copy()
    for c in range(1, m):
        np.maximum(out, a[..., c:c + 1], out=out)
    return out


def class_sum(a):
    """``np.sum(a, axis=-1, keepdims=True)``, one call per class column."""
    m = a.shape[-1]
    if m >= _SHORT:
        return np.sum(a, axis=-1, keepdims=True)
    out = a[..., :1] + 0.0
    for c in range(1, m):
        out += a[..., c:c + 1]
    return out


def batch_sum(a, out=None):
    """``a.sum(axis=-2)`` for a stack (jobs, rows, width) or one (rows, width).

    numpy sums a stack's rows one at a time into each job's width-long
    output; a batch-major copy, (rows, jobs, width), adds them in the same
    order in one long inner loop per row.  Where numpy sums a row axis
    pairwise instead (width 1) or the stack is one job, its own call stays.
    """
    if a.ndim == 2 or a.shape[0] == 1 or a.shape[-1] == 1:
        return np.sum(a, axis=-2, out=out)
    return np.sum(np.ascontiguousarray(a.transpose(1, 0, 2)), axis=0, out=out)


# ---------------------------------------------------------------------------
# multinomial logistic regression, full-batch gradient descent
# ---------------------------------------------------------------------------
# A stack of jobs at once: Xb is (jobs, n_max, d+1) and y is (jobs, n_max);
# job k trains on its first n_rows[k] rows, and the rows after them must be
# zero (their gradient terms then vanish).  Reference-class weights: job k's
# W[k] has shape (m-1, d+1), with the class 0 logit pinned to 0.  Returns
# per-job arrays (W, last_loss, iterations_run, bad_iteration).  Each job
# stops on its own, at grad_tol or at a non-finite loss; bad_iteration >= 0
# is the iteration where its loss went non-finite.

def logistic_gd_stack(Xb, y, n_rows, n_classes, l2, lr, epochs, grad_tol):
    jobs, n, d1 = Xb.shape
    kk = n_classes - 1
    W = np.zeros((jobs, kk, d1))
    real = np.arange(n) < n_rows[:, None]
    count = n_rows.astype(np.float64)
    onehot = np.zeros((jobs, n, kk))
    pos = y > 0
    onehot[np.nonzero(pos) + (y[pos] - 1,)] = 1.0
    # flat position of each row's own-class logit in Z
    label = np.arange(jobs * n) * kk + np.maximum(y - 1, 0).ravel()
    loss = np.zeros(jobs)
    it = np.zeros(jobs, dtype=np.int64)
    bad = np.full(jobs, -1, dtype=np.int64)
    active = np.ones(jobs, dtype=bool)
    for epoch in range(epochs):
        Z = Xb @ W.transpose(0, 2, 1)
        mx = np.maximum(class_max(Z), 0.0)
        E = np.exp(Z - mx)
        S = np.exp(-mx) + class_sum(E)
        zy = np.where(pos, Z.take(label).reshape(jobs, n), 0.0)
        terms = (np.log(S[..., 0]) + mx[..., 0] - zy) * real
        step_loss = terms.sum(axis=1) / count + 0.5 * l2 * np.sum(W * W, axis=(1, 2))
        loss = np.where(active, step_loss, loss)
        finite = np.isfinite(step_loss)
        bad[active & ~finite] = epoch
        active &= finite
        if not active.any():
            break
        P = E / S
        G = (P - onehot).transpose(0, 2, 1) @ Xb / count[:, None, None] + l2 * W
        it[active] = epoch + 1
        active &= ~(np.abs(G).max(axis=(1, 2)) < grad_tol)
        np.subtract(W, lr * G, out=W, where=active[:, None, None])
        if not active.any():
            break
    return W, loss, it, bad


# ---------------------------------------------------------------------------
# one-hidden-layer ReLU MLP, minibatch SGD with Nesterov momentum and a
# one-cycle cosine learning-rate schedule
# ---------------------------------------------------------------------------
# A stack of equal-size jobs at once: X is (jobs, n, d), y is (jobs, n), and
# the parameters (W1, b1, W2, b2), updated in place, carry a leading jobs
# axis.  orders yields one (jobs, n) array per epoch, row k the permutation
# job k takes in it.  Every product is a per-job matmul and every reduction
# runs within a job, in numpy's own order, so each job's bits are those of
# a stack of that job alone.  A job whose epoch loss is non-finite stops
# after that epoch and the others go on.  Returns per-job arrays
# (last_epoch_loss, bad_epoch).
#
# The parameters live in one flat buffer, each a contiguous (jobs, ...)
# block of it, and so do their velocities and their gradients: the products
# write the gradient blocks in place, and the Nesterov update is six calls
# on whole buffers, not six per parameter.  The forward pass updates its
# hidden, logit and softmax arrays in place.

def _blocks(buf, jobs, shapes):
    """The (jobs, *shape) blocks that a flat buffer holds back to back."""
    views, at = [], 0
    for shape in shapes:
        size = jobs * math.prod(shape)
        views.append(buf[at:at + size].reshape((jobs,) + shape))
        at += size
    return views


def mlp_sgd_stack(X, y, W1, b1, W2, b2, orders, epochs, lr_max, momentum,
                  batch):
    jobs, n, d = X.shape
    m = W2.shape[2]
    nb = (n + batch - 1) // batch
    total = epochs * nb
    Xf = X.reshape(jobs * n, d)
    yf = y.reshape(jobs * n)
    out = (W1, b1, W2, b2)
    shapes = [a.shape[1:] for a in out]
    theta = np.concatenate([a.ravel() for a in out])
    vel = np.zeros_like(theta)
    live = np.arange(jobs)
    loss = np.zeros(jobs)
    bad = np.full(jobs, -1, dtype=np.int64)
    step = 0
    for epoch, order in zip(range(epochs), orders):
        k = live.size
        w1, c1, w2, c2 = _blocks(theta, k, shapes)
        grad = np.empty_like(theta)
        g1, gc1, g2, gc2 = _blocks(grad, k, shapes)
        scratch = np.empty_like(theta)
        flat = order[live] + (live * n)[:, None]
        labels = np.take(yf, flat)
        epoch_loss = np.zeros(k)
        for bi in range(nb):
            cut = slice(bi * batch, (bi + 1) * batch)
            rows = flat[:, cut]
            bs = rows.shape[1]
            xb = np.take(Xf, rows, axis=0)
            # flat position of each row's own-class logit in the batch
            lab = np.arange(0, rows.size * m, m).reshape(k, bs) + labels[:, cut]
            lr = lr_max * 0.5 * (1.0 + np.cos(np.pi * step / total))
            hid = np.matmul(xb, w1)
            hid += c1[:, None]
            np.maximum(hid, 0.0, out=hid)
            logits = np.matmul(hid, w2)
            logits += c2[:, None]
            mx = class_max(logits)
            dlog = logits - mx
            np.exp(dlog, out=dlog)
            S = class_sum(dlog)
            epoch_loss += np.sum(np.log(S[..., 0]) + mx[..., 0]
                                 - logits.take(lab), axis=1)
            dlog /= S
            dlog.reshape(-1)[lab] -= 1.0
            dlog /= bs
            dhid = np.matmul(dlog, w2.transpose(0, 2, 1))
            dhid *= hid > 0.0
            np.matmul(xb.transpose(0, 2, 1), dhid, out=g1)
            batch_sum(dhid, out=gc1)
            np.matmul(hid.transpose(0, 2, 1), dlog, out=g2)
            batch_sum(dlog, out=gc2)
            vel *= momentum
            vel += grad
            np.multiply(vel, momentum, out=scratch)
            scratch += grad
            scratch *= lr
            theta -= scratch
            step += 1
        epoch_loss /= n
        loss[live] = epoch_loss
        failed = ~np.isfinite(epoch_loss)
        if failed.any():
            bad[live[failed]] = epoch
            params = _blocks(theta, k, shapes)
            for o, p in zip(out, params):
                o[live] = p
            theta = np.concatenate([p[~failed].ravel() for p in params])
            vel = np.concatenate([v[~failed].ravel()
                                  for v in _blocks(vel, k, shapes)])
            live = live[~failed]
            if live.size == 0:
                break
    for o, p in zip(out, _blocks(theta, live.size, shapes)):
        o[live] = p
    return loss, bad


# ---------------------------------------------------------------------------
# Langevin chain for a diagonal quadratic energy
# ---------------------------------------------------------------------------
# One step per row of `noise`; the last out.shape[0] states are recorded.
# The input state is not written to; the final state is returned.  w may
# stack several chains, (chains, dim), with noise (steps, chains, dim): the
# update is elementwise, so each chain's trajectory is that of its own call.
#
# A step is w <- w - half*(n*(lam*w) + eps*w) + sqrt_step*noise[t], so every
# coordinate follows its own scalar recursion.  A state of at most
# _SCALAR_COORDS coordinates runs that recursion in Python floats, one
# coordinate at a time; a larger state steps all coordinates at once in
# numpy, a handful of ufunc calls a step.  The scalar loop takes the kicks
# sqrt_step*noise[t] one numpy multiply per block of steps and holds no more
# than a block of one coordinate as Python floats, so its memory does not
# grow with the window.  CPython floats and numpy ufuncs both do correctly
# rounded double operations, here the same ones in the same order and with
# no fused multiply-add, so the two loops give the same bits.  The scalar
# loop costs ~0.15 us per coordinate and step, a numpy step ~5.5 us whatever
# the size of a small state; the crossover is measured in CHANGES.md.
# States that overflow become inf or NaN silently in both.
_SCALAR_COORDS = 40

# steps whose kicks the scalar loop computes in one call
_KICK_BLOCK = 1024


def sgld_chain_diag_quad(w, lam, prior_eps, n_nominal, half_step, sqrt_step,
                         noise, out):
    steps = noise.shape[0]
    if noise.shape[1:] != w.shape or out.shape[1:] != w.shape:
        raise InvalidArgument(
            f"state {w.shape}, noise {noise.shape} and out {out.shape} "
            "must share the state's shape after their leading axis")
    if out.shape[0] > steps:
        raise InvalidArgument(
            f"out records {out.shape[0]} states but noise has {steps} steps")
    try:
        lam = np.broadcast_to(lam, w.shape)
    except ValueError:
        raise InvalidArgument(
            f"eigenvalues {np.shape(lam)} do not fit state {w.shape}") from None
    keep_from = steps - out.shape[0]
    if w.size <= _SCALAR_COORDS:
        return _chain_scalar(w, lam, float(prior_eps), float(n_nominal),
                             float(half_step), sqrt_step, noise, out, keep_from)
    return _chain_numpy(w, lam, prior_eps, n_nominal, half_step, sqrt_step,
                        noise, out, keep_from)


def _step_blocks(steps, keep_from):
    """(lo, hi) step ranges of at most _KICK_BLOCK steps, one edge at keep_from."""
    edges = [0, *range(keep_from % _KICK_BLOCK, steps, _KICK_BLOCK), steps]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


def _chain_scalar(w, lam, eps, n, half, sqrt_step, noise, out, keep_from):
    final = np.empty(w.shape)
    blocks = _step_blocks(noise.shape[0], keep_from)
    for at in np.ndindex(w.shape):
        x, l = float(w[at]), float(lam[at])
        for lo, hi in blocks:
            kicks = (sqrt_step * noise[(slice(lo, hi),) + at]).tolist()
            if hi <= keep_from:
                for k in kicks:
                    x = x - half * (n * (l * x) + eps * x) + k
                continue
            kept = []
            for k in kicks:
                x = x - half * (n * (l * x) + eps * x) + k
                kept.append(x)
            out[(slice(lo - keep_from, hi - keep_from),) + at] = kept
        final[at] = x
    return final


def _chain_numpy(w, lam, eps, n, half, sqrt_step, noise, out, keep_from):
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(noise.shape[0]):
            g = n * (lam * w) + eps * w
            w = w - half * g + sqrt_step * noise[t]
            if t >= keep_from:
                out[t - keep_from] = w
    return w
