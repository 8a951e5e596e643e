"""Hot numeric loops, one vectorized numpy implementation each.

``logistic_gd_stack`` trains a stack of logistic fits at once, and
``mlp_sgd_stack`` a stack of MLP fits with one training-set size; one fit
is a stack of one job.  ``sgld_chain_diag_quad`` runs fused Langevin chains
for diagonal quadratic energies.  Callers reach them through this module's
attributes (``kernels.logistic_gd_stack(...)``), so a wrapper bound here
sees every call.
"""

import numpy as np

# perfbench/run.py's machine_facts reads this flag and exits 1 without it.
NUMBA_ENABLED = False


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
        mx = np.maximum(Z.max(axis=2), 0.0)
        E = np.exp(Z - mx[..., None])
        S = np.exp(-mx) + E.sum(axis=2)
        zy = np.where(pos, Z.take(label).reshape(jobs, n), 0.0)
        terms = (np.log(S) + mx - zy) * real
        step_loss = terms.sum(axis=1) / count + 0.5 * l2 * np.sum(W * W, axis=(1, 2))
        loss = np.where(active, step_loss, loss)
        finite = np.isfinite(step_loss)
        bad[active & ~finite] = epoch
        active &= finite
        if not active.any():
            break
        P = E / S[..., None]
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
# the parameters, updated in place, carry a leading jobs axis.  orders yields
# one (jobs, n) array per epoch, row k the permutation job k takes in it.
# Every product is a per-job matmul and every reduction runs within a job,
# so each job's bits are those of a stack of that job alone.  A job whose
# epoch loss is non-finite stops after that epoch and the others go on.
# Returns per-job arrays (last_epoch_loss, bad_epoch).

def mlp_sgd_stack(X, y, W1, b1, W2, b2, orders, epochs, lr_max, momentum,
                  batch):
    jobs, n, d = X.shape
    m = W2.shape[2]
    nb = (n + batch - 1) // batch
    total = epochs * nb
    Xf = X.reshape(jobs * n, d)
    yf = y.reshape(jobs * n)
    out = (W1, b1, W2, b2)
    params = list(out)
    vel = [np.zeros_like(a) for a in params]
    live = np.arange(jobs)
    loss = np.zeros(jobs)
    bad = np.full(jobs, -1, dtype=np.int64)
    step = 0
    for epoch, order in zip(range(epochs), orders):
        flat = order[live] + (live * n)[:, None]
        epoch_loss = np.zeros(live.size)
        for bi in range(nb):
            rows = flat[:, bi * batch:(bi + 1) * batch]
            bs = rows.shape[1]
            xb = Xf[rows]
            # flat position of each row's own-class logit in the batch
            lab = np.arange(0, rows.size * m, m).reshape(-1, bs) + yf[rows]
            lr = lr_max * 0.5 * (1.0 + np.cos(np.pi * step / total))
            w1, c1, w2, c2 = params
            hid = np.maximum(xb @ w1 + c1[:, None], 0.0)
            logits = hid @ w2 + c2[:, None]
            mx = logits.max(axis=2, keepdims=True)
            E = np.exp(logits - mx)
            S = E.sum(axis=2, keepdims=True)
            epoch_loss += np.sum(np.log(S[..., 0]) + mx[..., 0]
                                 - logits.take(lab), axis=1)
            dlog = E / S
            dlog.reshape(-1)[lab] -= 1.0
            dlog /= bs
            dhid = (dlog @ w2.transpose(0, 2, 1)) * (hid > 0.0)
            grads = (xb.transpose(0, 2, 1) @ dhid, dhid.sum(axis=1),
                     hid.transpose(0, 2, 1) @ dlog, dlog.sum(axis=1))
            for p, v, g in zip(params, vel, grads):
                v *= momentum
                v += g
                p -= lr * (g + momentum * v)
            step += 1
        epoch_loss /= n
        loss[live] = epoch_loss
        failed = ~np.isfinite(epoch_loss)
        if failed.any():
            bad[live[failed]] = epoch
            for o, p in zip(out, params):
                o[live] = p
            params = [p[~failed] for p in params]
            vel = [v[~failed] for v in vel]
            live = live[~failed]
            if live.size == 0:
                break
    for o, p in zip(out, params):
        o[live] = p
    return loss, bad


# ---------------------------------------------------------------------------
# Langevin chain for a diagonal quadratic energy
# ---------------------------------------------------------------------------
# One step per row of `noise`; the last out.shape[0] states are recorded.
# The input state is not written to; the final state is returned.  w may
# stack several chains, (chains, dim), with noise (steps, chains, dim): the
# update is elementwise, so each chain's trajectory is that of its own call.

def sgld_chain_diag_quad(w, lam, prior_eps, n_nominal, half_step, sqrt_step,
                         noise, out):
    steps = noise.shape[0]
    keep_from = steps - out.shape[0]
    for t in range(steps):
        g = n_nominal * (lam * w) + prior_eps * w
        w = w - half_step * g + sqrt_step * noise[t]
        if t >= keep_from:
            out[t - keep_from] = w
    return w
