"""Tests for the numpy kernels: semantics, and agreement with scalar loops.

The two training kernels are checked against plain-Python scalar loops
below, which spell out the same arithmetic one element at a time.  They
sum in a different order, so the comparison holds to rounding.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capmeter
from capmeter import kernels

# ---------------------------------------------------------------------------
# scalar reference implementations
# ---------------------------------------------------------------------------

def _reference_logistic_gd(Xb, y, n_classes, l2, lr, epochs, grad_tol):
    n, d1 = Xb.shape
    kk = n_classes - 1
    W = np.zeros((kk, d1))
    G = np.empty((kk, d1))
    logits = np.empty(kk)
    loss = 0.0
    it = 0
    for epoch in range(epochs):
        for a in range(kk):
            for b in range(d1):
                G[a, b] = 0.0
        data_loss = 0.0
        for i in range(n):
            mx = 0.0
            for a in range(kk):
                z = 0.0
                for b in range(d1):
                    z += W[a, b] * Xb[i, b]
                logits[a] = z
                if z > mx:
                    mx = z
            s = np.exp(-mx)
            for a in range(kk):
                s += np.exp(logits[a] - mx)
            zy = 0.0 if y[i] == 0 else logits[y[i] - 1]
            data_loss += np.log(s) + mx - zy
            for a in range(kk):
                p = np.exp(logits[a] - mx) / s
                if y[i] == a + 1:
                    p -= 1.0
                for b in range(d1):
                    G[a, b] += p * Xb[i, b]
        pen = 0.0
        for a in range(kk):
            for b in range(d1):
                G[a, b] = G[a, b] / n + l2 * W[a, b]
                pen += W[a, b] * W[a, b]
        loss = data_loss / n + 0.5 * l2 * pen
        if not np.isfinite(loss):
            return W, loss, it, epoch
        gmax = 0.0
        for a in range(kk):
            for b in range(d1):
                ga = abs(G[a, b])
                if ga > gmax:
                    gmax = ga
        it = epoch + 1
        if gmax < grad_tol:
            break
        for a in range(kk):
            for b in range(d1):
                W[a, b] -= lr * G[a, b]
    return W, loss, it, -1


def _reference_mlp_sgd(X, y, W1, b1, W2, b2, perms, lr_max, momentum, batch):
    n, d = X.shape
    h = W1.shape[1]
    m = W2.shape[1]
    epochs = perms.shape[0]
    nb = (n + batch - 1) // batch
    total = epochs * nb
    vW1 = np.zeros((d, h))
    vb1 = np.zeros(h)
    vW2 = np.zeros((h, m))
    vb2 = np.zeros(m)
    hid = np.empty((batch, h))
    logits = np.empty((batch, m))
    dlog = np.empty((batch, m))
    dhid = np.empty((batch, h))
    epoch_loss = 0.0
    step = 0
    for epoch in range(epochs):
        epoch_loss = 0.0
        for bi in range(nb):
            lo = bi * batch
            hi = min(lo + batch, n)
            bs = hi - lo
            lr = lr_max * 0.5 * (1.0 + np.cos(np.pi * step / total))
            for r in range(bs):
                i = perms[epoch, lo + r]
                for a in range(h):
                    z = b1[a]
                    for b in range(d):
                        z += X[i, b] * W1[b, a]
                    hid[r, a] = z if z > 0.0 else 0.0
                mx = -1e300
                for c in range(m):
                    z = b2[c]
                    for a in range(h):
                        z += hid[r, a] * W2[a, c]
                    logits[r, c] = z
                    if z > mx:
                        mx = z
                s = 0.0
                for c in range(m):
                    s += np.exp(logits[r, c] - mx)
                epoch_loss += np.log(s) + mx - logits[r, y[i]]
                for c in range(m):
                    p = np.exp(logits[r, c] - mx) / s
                    if y[i] == c:
                        p -= 1.0
                    dlog[r, c] = p / bs
            # gradients
            for a in range(h):
                for r in range(bs):
                    zz = 0.0
                    for c in range(m):
                        zz += dlog[r, c] * W2[a, c]
                    dhid[r, a] = zz if hid[r, a] > 0.0 else 0.0
            for a in range(h):
                for c in range(m):
                    g = 0.0
                    for r in range(bs):
                        g += hid[r, a] * dlog[r, c]
                    vW2[a, c] = momentum * vW2[a, c] + g
                    W2[a, c] -= lr * (g + momentum * vW2[a, c])
            for c in range(m):
                g = 0.0
                for r in range(bs):
                    g += dlog[r, c]
                vb2[c] = momentum * vb2[c] + g
                b2[c] -= lr * (g + momentum * vb2[c])
            for b in range(d):
                for a in range(h):
                    g = 0.0
                    for r in range(bs):
                        i = perms[epoch, lo + r]
                        g += X[i, b] * dhid[r, a]
                    vW1[b, a] = momentum * vW1[b, a] + g
                    W1[b, a] -= lr * (g + momentum * vW1[b, a])
            for a in range(h):
                g = 0.0
                for r in range(bs):
                    g += dhid[r, a]
                vb1[a] = momentum * vb1[a] + g
                b1[a] -= lr * (g + momentum * vb1[a])
            step += 1
        epoch_loss /= n
        if not np.isfinite(epoch_loss):
            return epoch_loss, epoch
    return epoch_loss, -1


def logistic_problem(seed=0, n=40, d=3, m=3):
    rng = np.random.default_rng(seed)
    Xb = np.concatenate([rng.normal(size=(n, d)), np.ones((n, 1))], axis=1)
    y = rng.integers(0, m, size=n).astype(np.int64)
    return Xb, y, m


def mlp_problem(seed=1, n=32, d=4, h=5, m=2, epochs=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, m, size=n).astype(np.int64)
    W1 = rng.normal(size=(d, h)) * 0.3
    b1 = rng.normal(size=h) * 0.1
    W2 = rng.normal(size=(h, m)) * 0.3
    b2 = rng.normal(size=m) * 0.1
    perms = np.stack([rng.permutation(n) for _ in range(epochs)]).astype(np.int64)
    return X, y, (W1, b1, W2, b2), perms


class TestSgldChain:
    def chain_args(self, steps=200, p=3, kept=50, seed=5):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=p)
        lam = rng.uniform(0.5, 2.0, size=p)
        noise = rng.standard_normal((steps, p))
        out = np.empty((kept, p))
        return w, lam, noise, out

    def test_numpy_variant_two_steps_by_hand(self):
        # p=1: follow the update w <- w - half*(n*lam*w + eps*w) + sqrt*xi
        # with the same float arithmetic order as the kernel.
        noise = np.array([[1.0], [-1.0]])
        out = np.empty((2, 1))
        w = kernels.sgld_chain_diag_quad(
            np.array([1.0]), np.array([2.0]), 0.5, 3.0, 0.1, 0.2, noise, out)
        w1 = 1.0 - 0.1 * (3.0 * (2.0 * 1.0) + 0.5 * 1.0) + 0.2 * 1.0
        w2 = w1 - 0.1 * (3.0 * (2.0 * w1) + 0.5 * w1) + 0.2 * (-1.0)
        assert out[0, 0] == w1
        assert out[1, 0] == w2
        assert w[0] == w2

    def test_records_only_trailing_states(self):
        w0, lam, noise, _ = self.chain_args(steps=5, p=2, kept=5)
        full = np.empty((5, 2))
        kernels.sgld_chain_diag_quad(w0.copy(), lam, 1.0, 4.0,
                                     0.01, 0.1, noise, full)
        tail = np.empty((2, 2))
        w = kernels.sgld_chain_diag_quad(w0.copy(), lam, 1.0, 4.0,
                                         0.01, 0.1, noise, tail)
        assert np.array_equal(tail, full[-2:])
        assert np.array_equal(w, full[-1])

    def test_input_state_is_not_written(self):
        w0, lam, noise, out = self.chain_args(steps=20, p=2, kept=5)
        before = w0.copy()
        w = kernels.sgld_chain_diag_quad(w0, lam, 1.0, 4.0, 0.01, 0.1, noise, out)
        assert np.array_equal(w0, before)
        assert np.array_equal(w, out[-1])


class TestLogisticKernel:
    def test_variants_agree_to_rounding(self):
        Xb, y, m = logistic_problem()
        args = (m, 0.01, 0.5, 40, 0.0)
        W_np, loss_np, it_np, bad_np = kernels.logistic_gd(Xb, y, *args)
        W_ref, loss_ref, it_ref, bad_ref = _reference_logistic_gd(Xb, y, *args)
        assert (it_np, bad_np) == (it_ref, bad_ref) == (40, -1)
        np.testing.assert_allclose(W_ref, W_np, rtol=1e-7, atol=1e-9)
        assert loss_ref == pytest.approx(loss_np, rel=1e-9)

    def test_deterministic(self):
        Xb, y, m = logistic_problem(seed=2)
        first = kernels.logistic_gd(Xb, y, m, 0.0, 1.0, 30, 0.0)
        second = kernels.logistic_gd(Xb, y, m, 0.0, 1.0, 30, 0.0)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_gradient_tolerance_stops_before_updating(self):
        Xb, y, m = logistic_problem(seed=3)
        W, _, it, bad = kernels.logistic_gd(Xb, y, m, 0.0, 1.0, 50, 1e9)
        assert it == 1
        assert bad == -1
        assert np.all(W == 0.0)

    def test_loss_decreases(self):
        Xb, y, m = logistic_problem(seed=4)
        _, short_loss, _, _ = kernels.logistic_gd(Xb, y, m, 0.0, 0.5, 5, 0.0)
        _, long_loss, _, _ = kernels.logistic_gd(Xb, y, m, 0.0, 0.5, 80, 0.0)
        assert long_loss < short_loss


class TestMlpKernel:
    def test_variants_agree_to_rounding(self):
        X, y, params, perms = mlp_problem()
        p_np = tuple(a.copy() for a in params)
        p_ref = tuple(a.copy() for a in params)
        loss_np, bad_np = kernels.mlp_sgd(X, y, *p_np, perms, 0.05, 0.9, 8)
        loss_ref, bad_ref = _reference_mlp_sgd(X, y, *p_ref, perms, 0.05, 0.9, 8)
        assert bad_np == bad_ref == -1
        assert loss_ref == pytest.approx(loss_np, rel=1e-8)
        for a_np, a_ref in zip(p_np, p_ref):
            np.testing.assert_allclose(a_ref, a_np, rtol=1e-6, atol=1e-9)

    def test_updates_parameters_in_place(self):
        X, y, params, perms = mlp_problem(seed=6)
        originals = tuple(a.copy() for a in params)
        kernels.mlp_sgd(X, y, *params, perms, 0.05, 0.9, 8)
        assert any(not np.array_equal(a, o)
                   for a, o in zip(params, originals))

    def test_training_reduces_loss(self):
        X, y, params, perms = mlp_problem(seed=7, n=64, epochs=2)
        short = tuple(a.copy() for a in params)
        loss_first, _ = kernels.mlp_sgd(X, y, *short, perms[:1], 0.1, 0.9, 16)
        longer = tuple(a.copy() for a in params)
        kernels.mlp_sgd(X, y, *longer, perms[:1], 0.1, 0.9, 16)
        loss_second, _ = kernels.mlp_sgd(X, y, *longer, perms[1:], 0.1, 0.9, 16)
        assert loss_second < loss_first


NO_NUMBA_PROBE = """
import json, sys

class Recorder:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numba":
            self.seen.append(name)
        return None

sys.meta_path.insert(0, Recorder())
import capmeter.cli, capmeter.report
manifest = capmeter.report.build_manifest(["capmeter"], {}, 0)
print(json.dumps({"seen": Recorder.seen, "versions": manifest["versions"]}))
"""


def test_nothing_imports_numba():
    src = str(Path(capmeter.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", NO_NUMBA_PROBE], check=True,
                         capture_output=True, text=True, env=env, timeout=120)
    result = json.loads(out.stdout)
    assert result["seen"] == []
    fields = [pair.partition("=")[0] for pair in result["versions"].split()]
    assert fields == ["capmeter", "numpy", "scipy"]
