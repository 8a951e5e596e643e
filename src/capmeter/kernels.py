"""Hot numeric loops, one vectorized numpy implementation each.

``logistic_newton_stack`` fits a stack of logistic regressions at once by
Newton's method, and ``mlp_sgd_stack`` trains a stack of MLP fits with one
minibatch count; one fit is a stack of one job.
``sgld_chain_diag_quad`` runs fused Langevin chains for diagonal quadratic
energies: a small state steps each coordinate's recursion in Python floats,
a large one all coordinates at once in numpy, and both loops give the same
bits.  Callers reach them through this module's attributes
(``kernels.logistic_newton_stack(...)``), so a wrapper bound here sees
every call.

Reduction order is part of the contract.  numpy reduces a short axis a few
elements per call of its inner loop, so the loops here reduce the class
axis with ``class_max`` and ``class_sum``, one elementwise call per class
column, and the batch axis with ``batch_sum``, which adds whole rows of a
batch-major copy; both give the bits of numpy's own reductions.  The
logistic kernel sums each job's loss terms in row order, so that a job's
loss does not depend on the zero rows that pad it.  ``mlp_sgd_stack`` holds
its parameters, velocities and gradients in one flat buffer each, so an
update step is a handful of calls on whole buffers.
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
# multinomial logistic regression, Newton's method with a line search
# ---------------------------------------------------------------------------
# A stack of jobs at once: Xb is (jobs, n_max, d+1) and y is (jobs, n_max);
# job k trains on its first n_rows[k] rows, and the rows after them must be
# zero (their gradient and Hessian terms then vanish).  Reference-class
# weights: job k's W[k] has shape (m-1, d+1), with the class 0 logit pinned
# to 0.  The objective, the mean NLL plus (l2/2)|W|^2, is strongly convex
# for l2 > 0.  Each iteration forms the gradient G of every running job,
# drops the jobs that have stopped from the stack, forms the others' block
# Hessians Xb^T (diag P - P P^T) Xb / n + l2 I, of size (m-1)(d+1), solves
# them in one batched np.linalg.solve, and halves each job's step (at most
# _HALVINGS times) until its Armijo test holds.  The probabilities of the
# accepted trial give the next gradient, so an iteration costs one logit
# product per trial.
#
# Each job stops on its own: when max|G| < grad_tol at its current W, after
# `iterations` Newton steps, or when its Hessian or step is non-finite or no
# trial of its line search has a finite loss that passes.  Returns per-job
# arrays (W, loss, iterations_run, bad_iteration): loss is taken at the
# returned W, iterations_run counts the steps taken, and bad_iteration >= 0
# is the iteration where the job failed.
#
# The Armijo test compares losses a few ulps apart near the optimum, so a
# job's loss must not depend on its padding: its row terms are summed in
# order (a cumulative sum read at its last row), which zero rows cannot
# change.  Where a step's predicted decrease -G.step lies within rounding of
# the loss, the test says nothing and the full step is taken.
_ARMIJO = 1e-4
_HALVINGS = 30
_TINY_DECREASE = 64 * np.finfo(np.float64).eps


def _logistic_trial(Xb, W, onehot, last, count, l2):
    """Class 1..m-1 probabilities and each job's penalised loss at W."""
    Z = Xb @ W.transpose(0, 2, 1)
    zy = class_sum(Z * onehot)
    mx = np.maximum(class_max(Z), 0.0)
    Z -= mx
    E = np.exp(Z, out=Z)
    S = np.exp(-mx)
    S += class_sum(E)
    terms = np.log(S)
    terms += mx
    terms -= zy
    data = np.cumsum(terms[..., 0], axis=1)[np.arange(last.size), last]
    E /= S
    penalty = np.sum((W * W).reshape(W.shape[0], -1), axis=1)
    return E, data / count + 0.5 * l2 * penalty


def logistic_newton_stack(Xb, y, n_rows, n_classes, l2, iterations, grad_tol):
    jobs, n, d1 = Xb.shape
    kk = n_classes - 1
    p = kk * d1
    onehot = (y[..., None] == np.arange(1, n_classes)).astype(np.float64)
    last = n_rows - 1
    count = n_rows.astype(np.float64)
    W_out = np.zeros((jobs, kk, d1))
    loss_out = np.zeros(jobs)
    it_out = np.full(jobs, iterations, dtype=np.int64)
    bad_out = np.full(jobs, -1, dtype=np.int64)
    live = np.arange(jobs)
    W = np.zeros((jobs, kk, d1))
    P, loss = _logistic_trial(Xb, W, onehot, last, count, l2)
    failed = np.zeros(jobs, dtype=bool)
    for t in range(iterations + 1):
        G = (P - onehot).transpose(0, 2, 1) @ Xb
        G /= count[:, None, None]
        G += l2 * W
        done = np.abs(G).reshape(live.size, p).max(axis=1) < grad_tol
        stop = done | failed
        if stop.any():
            W_out[live[stop]], loss_out[live[stop]] = W[stop], loss[stop]
            it_out[live[done & ~failed]] = t
            keep = ~stop
            live = live[keep]
            if live.size == 0:
                return W_out, loss_out, it_out, bad_out
            Xb, onehot, last, count = Xb[keep], onehot[keep], last[keep], count[keep]
            W, P, loss, G = W[keep], P[keep], loss[keep], G[keep]
        if t == iterations:
            break
        k = live.size
        # block (a, b) is Xb^T diag(P_a (delta_ab - P_b)) Xb: one product
        # for all blocks, with rows (a, b, i) and columns j
        w = P[..., :, None] * -P[..., None, :]
        w.reshape(k, n, kk * kk)[..., ::kk + 1] += P
        Q = (w[..., None] * Xb[:, :, None, None, :]).reshape(k, n, kk * p)
        H = (Q.transpose(0, 2, 1) @ Xb).reshape(k, kk, kk, d1, d1)
        H = H.transpose(0, 1, 3, 2, 4).reshape(k, p, p)
        H /= count[:, None, None]
        H.reshape(k, p * p)[:, ::p + 1] += l2
        ok = np.isfinite(H).reshape(k, p * p).all(axis=1)
        if not ok.all():
            H[~ok] = np.eye(p)
        step = np.linalg.solve(H, -G.reshape(k, p, 1)).reshape(k, kk, d1)
        slope = np.sum((G * step).reshape(k, p), axis=1)
        ok &= np.isfinite(slope)
        full = np.abs(slope) <= _TINY_DECREASE * np.abs(loss)
        pend = ok.copy()
        if not pend.all():
            step[~pend] = 0.0
        scale = np.ones(k)
        for _ in range(_HALVINGS):
            if not pend.any():
                break
            trial = W + scale[:, None, None] * step
            P_t, f_t = _logistic_trial(Xb, trial, onehot, last, count, l2)
            took = pend & np.isfinite(f_t) & (
                full | (f_t <= loss + _ARMIJO * scale * slope))
            if took.all():
                W, P, loss = trial, P_t, f_t
                pend = ~took
                break
            W[took], P[took], loss[took] = trial[took], P_t[took], f_t[took]
            pend &= ~took
            scale[pend] *= 0.5
        failed = ~ok | pend
        it_out[live[failed]] = bad_out[live[failed]] = t
    W_out[live], loss_out[live] = W, loss
    return W_out, loss_out, it_out, bad_out


# ---------------------------------------------------------------------------
# one-hidden-layer ReLU MLP, minibatch SGD with Nesterov momentum and a
# one-cycle cosine learning-rate schedule
# ---------------------------------------------------------------------------
# A stack of jobs with one minibatch count at once: X is (jobs, n_max, d), y
# is (jobs, n_max), and job k trains on its first n_rows[k] rows; the rows
# after them are padding that is never read.  The parameters (W1, b1, W2,
# b2), updated in place, carry a leading jobs axis.  orders yields one
# (jobs, n_max) array per epoch, whose row k starts with the permutation of
# range(n_rows[k]) job k takes in it; the entries after it must be row
# indices below n_max and are not read.  Every job has ceil(n_rows[k] /
# batch) minibatches, the same count, so all share the learning-rate
# schedule and every full minibatch, which runs as one pass of the whole
# stack.  The last minibatch holds n_rows[k] - (count - 1) * batch rows:
# it runs as one pass per run of consecutive jobs with equal row counts
# (so a stack ordered by row count has one pass per distinct count), each
# writing its own slice of the gradient blocks.  Every product is a
# per-job matmul and every reduction runs within a job, in numpy's own
# order, so each job's bits are those of a stack of that job alone.  A job
# whose epoch loss is non-finite stays in the stack and its first such
# epoch is recorded; the loop stops early only once every job has failed.
# Returns per-job arrays (last_epoch_loss, bad_epoch); a failed job's
# parameters and loss are not meaningful.
#
# The parameters live in one flat buffer, each a contiguous (jobs, ...)
# block of it, and so do their velocities and their gradients: the products
# write the gradient blocks in place, and the Nesterov update is six calls
# on whole buffers, once a step, not six per parameter or per pass.  The
# forward pass updates its hidden, logit and softmax arrays in place.

def _blocks(buf, jobs, shapes):
    """The (jobs, *shape) blocks that a flat buffer holds back to back."""
    views, at = [], 0
    for shape in shapes:
        size = jobs * math.prod(shape)
        views.append(buf[at:at + size].reshape((jobs,) + shape))
        at += size
    return views


def _mlp_pass(xb, lab, w1, c1, w2, c2, g1, gc1, g2, gc2):
    """One minibatch of each job of a stack: writes the mean-NLL gradients
    into g1..gc2 and returns each job's summed NLL.  ``lab`` holds the flat
    position of each row's own-class logit."""
    hid = np.matmul(xb, w1)
    hid += c1[:, None]
    np.maximum(hid, 0.0, out=hid)
    logits = np.matmul(hid, w2)
    logits += c2[:, None]
    mx = class_max(logits)
    dlog = logits - mx
    np.exp(dlog, out=dlog)
    S = class_sum(dlog)
    nll = np.sum(np.log(S[..., 0]) + mx[..., 0] - logits.take(lab), axis=1)
    dlog /= S
    dlog.reshape(-1)[lab] -= 1.0
    dlog /= xb.shape[1]
    dhid = np.matmul(dlog, w2.transpose(0, 2, 1))
    dhid *= hid > 0.0
    np.matmul(xb.transpose(0, 2, 1), dhid, out=g1)
    batch_sum(dhid, out=gc1)
    np.matmul(hid.transpose(0, 2, 1), dlog, out=g2)
    batch_sum(dlog, out=gc2)
    return nll


def mlp_sgd_stack(X, y, n_rows, W1, b1, W2, b2, orders, epochs, lr_max,
                  momentum, batch):
    jobs, n_max, d = X.shape
    m = W2.shape[2]
    nb = (n_rows + batch - 1) // batch
    if np.any(nb != nb[0]):
        raise InvalidArgument(
            f"row counts {list(n_rows)} need different minibatch counts at "
            f"batch {batch}")
    nb = int(nb[0])
    total = epochs * nb
    Xf = X.reshape(jobs * n_max, d)
    yf = y.reshape(jobs * n_max)
    out = (W1, b1, W2, b2)
    shapes = [a.shape[1:] for a in out]
    theta = np.concatenate([a.ravel() for a in out])
    vel = np.zeros_like(theta)
    grad = np.empty_like(theta)
    scratch = np.empty_like(theta)
    blocks = _blocks(theta, jobs, shapes) + _blocks(grad, jobs, shapes)

    def piece(s, size):
        # the jobs s with a minibatch of `size` rows: their flat own-class
        # logit offsets and their parameter and gradient blocks
        lab = np.arange(0, (s.stop - s.start) * size * m, m).reshape(-1, size)
        return s, size, lab, [b[s] for b in blocks]

    last = n_rows - (nb - 1) * batch
    cuts = [0, *np.flatnonzero(np.diff(n_rows)) + 1, jobs]
    whole = [piece(slice(0, jobs), batch)]
    ragged = [piece(slice(a, b), int(last[a])) for a, b in zip(cuts, cuts[1:])]
    offset = (np.arange(jobs) * n_max)[:, None]
    count = n_rows.astype(np.float64)
    loss = np.zeros(jobs)
    bad = np.full(jobs, -1, dtype=np.int64)
    step = 0
    for epoch, order in zip(range(epochs), orders):
        flat = order + offset
        labels = np.take(yf, flat)
        loss = np.zeros(jobs)
        for bi in range(nb):
            lr = lr_max * 0.5 * (1.0 + np.cos(np.pi * step / total))
            lo = bi * batch
            for s, size, lab, views in ragged if bi == nb - 1 else whole:
                cut = slice(lo, lo + size)
                xb = np.take(Xf, flat[s, cut], axis=0)
                loss[s] += _mlp_pass(xb, lab + labels[s, cut], *views)
            vel *= momentum
            vel += grad
            np.multiply(vel, momentum, out=scratch)
            scratch += grad
            scratch *= lr
            theta -= scratch
            step += 1
        loss /= count
        bad[(bad < 0) & ~np.isfinite(loss)] = epoch
        if (bad >= 0).all():
            break
    for o, p in zip(out, blocks[:4]):
        o[...] = p
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
