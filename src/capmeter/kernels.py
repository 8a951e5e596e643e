"""Hot numeric loops, one vectorized numpy implementation each.

``logistic_gd`` and ``mlp_sgd`` train the logistic and MLP learners;
``sgld_chain_diag_quad`` runs the fused Langevin chain for diagonal
quadratic energies.  Callers reach them through this module's attributes
(``kernels.logistic_gd(...)``), so a wrapper bound here sees every call.
"""

import numpy as np

# perfbench/run.py's machine_facts reads this flag and exits 1 without it.
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# multinomial logistic regression, full-batch gradient descent
# ---------------------------------------------------------------------------
# Reference-class weights W: shape (m-1, d+1); class 0 logit pinned to 0.
# Returns (W, last_loss, iterations_run, bad_iteration).  bad_iteration >= 0
# means the loss went non-finite there and training stopped.

def logistic_gd(Xb, y, n_classes, l2, lr, epochs, grad_tol):
    n, d1 = Xb.shape
    kk = n_classes - 1
    W = np.zeros((kk, d1))
    onehot = np.zeros((n, kk))
    pos = y > 0
    onehot[np.nonzero(pos)[0], y[pos] - 1] = 1.0
    loss = 0.0
    it = 0
    for epoch in range(epochs):
        Z = Xb @ W.T
        mx = np.maximum(Z.max(axis=1), 0.0)
        E = np.exp(Z - mx[:, None])
        S = np.exp(-mx) + E.sum(axis=1)
        zy = np.where(pos, np.take_along_axis(Z, np.maximum(y - 1, 0)[:, None], 1)[:, 0], 0.0)
        loss = float(np.mean(np.log(S) + mx - zy)) + 0.5 * l2 * float(np.sum(W * W))
        if not np.isfinite(loss):
            return W, loss, it, epoch
        P = E / S[:, None]
        G = (P - onehot).T @ Xb / n + l2 * W
        it = epoch + 1
        if np.max(np.abs(G)) < grad_tol:
            break
        W -= lr * G
    return W, loss, it, -1


# ---------------------------------------------------------------------------
# one-hidden-layer ReLU MLP, minibatch SGD with Nesterov momentum and a
# one-cycle cosine learning-rate schedule
# ---------------------------------------------------------------------------
# Parameters are updated in place.  perms holds one row permutation per
# epoch.  Returns (last_epoch_loss, bad_epoch).

def mlp_sgd(X, y, W1, b1, W2, b2, perms, lr_max, momentum, batch):
    n = X.shape[0]
    epochs = perms.shape[0]
    nb = (n + batch - 1) // batch
    total = epochs * nb
    vW1 = np.zeros_like(W1)
    vb1 = np.zeros_like(b1)
    vW2 = np.zeros_like(W2)
    vb2 = np.zeros_like(b2)
    epoch_loss = 0.0
    step = 0
    for epoch in range(epochs):
        order = perms[epoch]
        epoch_loss = 0.0
        for bi in range(nb):
            rows = order[bi * batch:(bi + 1) * batch]
            bs = rows.shape[0]
            lr = lr_max * 0.5 * (1.0 + np.cos(np.pi * step / total))
            xb = X[rows]
            yb = y[rows]
            pre = xb @ W1 + b1
            hid = np.maximum(pre, 0.0)
            logits = hid @ W2 + b2
            mx = logits.max(axis=1, keepdims=True)
            E = np.exp(logits - mx)
            S = E.sum(axis=1, keepdims=True)
            epoch_loss += float(np.sum(np.log(S[:, 0]) + mx[:, 0]
                                       - logits[np.arange(bs), yb]))
            dlog = E / S
            dlog[np.arange(bs), yb] -= 1.0
            dlog /= bs
            dhid = (dlog @ W2.T) * (hid > 0.0)
            gW2 = hid.T @ dlog
            gb2 = dlog.sum(axis=0)
            gW1 = xb.T @ dhid
            gb1 = dhid.sum(axis=0)
            vW2 = momentum * vW2 + gW2
            W2 -= lr * (gW2 + momentum * vW2)
            vb2 = momentum * vb2 + gb2
            b2 -= lr * (gb2 + momentum * vb2)
            vW1 = momentum * vW1 + gW1
            W1 -= lr * (gW1 + momentum * vW1)
            vb1 = momentum * vb1 + gb1
            b1 -= lr * (gb1 + momentum * vb1)
            step += 1
        epoch_loss /= n
        if not np.isfinite(epoch_loss):
            return epoch_loss, epoch
    return epoch_loss, -1


# ---------------------------------------------------------------------------
# Langevin chain for a diagonal quadratic energy
# ---------------------------------------------------------------------------
# One step per row of `noise`; the last out.shape[0] states are recorded.
# The input state is not written to; the final state is returned.

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
