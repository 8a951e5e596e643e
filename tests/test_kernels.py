"""Tests for the numpy kernels: semantics, and agreement with references.

The MLP kernel is checked against a plain-Python scalar loop, which spells
out the same arithmetic one element at a time, and the logistic Newton
kernel against a one-job numpy reference that forms its Hessian row by row.
Both sum in a different order, so the comparisons hold to rounding.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import capmeter
from capmeter import kernels
from capmeter.errors import InvalidArgument
from capmeter.learners import LogisticLearner

# ---------------------------------------------------------------------------
# scalar reference implementations
# ---------------------------------------------------------------------------

def _logistic_objective(Xb, y, n_classes, l2, W):
    """One job's class 1..m-1 probabilities, its mean NLL plus
    (l2/2)|W|^2, and that objective's gradient, at W."""
    n = Xb.shape[0]
    logits = np.concatenate([np.zeros((n, 1)), Xb @ W.T], axis=1)
    top = logits.max(axis=1)
    lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    P = np.exp(logits - lse[:, None])[:, 1:]
    loss = math.fsum(lse - logits[np.arange(n), y]) / n + 0.5 * l2 * np.sum(W * W)
    G = (P - np.eye(n_classes)[y][:, 1:]).T @ Xb / n + l2 * W
    return P, loss, G


def _reference_logistic_newton(Xb, y, n_classes, l2, iterations, grad_tol):
    """One job of the Newton kernel, spelled out: the Hessian as a sum of
    per-row Kronecker products, the line search one trial at a time."""
    n, d1 = Xb.shape
    kk = n_classes - 1
    W = np.zeros((kk, d1))
    P, loss, G = _logistic_objective(Xb, y, n_classes, l2, W)
    for t in range(iterations + 1):
        if np.abs(G).max() < grad_tol or t == iterations:
            return W, loss, t, -1
        H = l2 * np.eye(kk * d1)
        for i in range(n):
            D = np.diag(P[i]) - np.outer(P[i], P[i])
            H += np.kron(D, np.outer(Xb[i], Xb[i])) / n
        if not np.all(np.isfinite(H)):
            return W, loss, t, t
        step = np.linalg.solve(H, -G.ravel()).reshape(kk, d1)
        slope = float(G.ravel() @ step.ravel())
        if not np.isfinite(slope):
            return W, loss, t, t
        scale = 1.0
        for _ in range(kernels._HALVINGS):
            trial = W + scale * step
            P_t, loss_t, G_t = _logistic_objective(Xb, y, n_classes, l2, trial)
            if np.isfinite(loss_t) and (
                    abs(slope) <= kernels._TINY_DECREASE * abs(loss)
                    or loss_t <= loss + kernels._ARMIJO * scale * slope):
                break
            scale *= 0.5
        else:
            return W, loss, t, t
        W, P, loss, G = trial, P_t, loss_t, G_t


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


def logistic_alone(Xb, y, *args):
    """One fit as a stack of one job: (W, loss, iterations, bad_iteration)."""
    W, loss, it, bad = kernels.logistic_newton_stack(
        Xb[None], y[None], np.array([Xb.shape[0]]), *args)
    return W[0], float(loss[0]), int(it[0]), int(bad[0])


def mlp_alone(X, y, W1, b1, W2, b2, perms, lr_max, momentum, batch):
    """One fit as a stack of one job, parameters updated in place:
    (loss, bad_epoch)."""
    loss, bad = kernels.mlp_sgd_stack(
        X[None], y[None], np.array([X.shape[0]]), W1[None], b1[None],
        W2[None], b2[None], perms[:, None], perms.shape[0], lr_max, momentum,
        batch)
    return float(loss[0]), int(bad[0])


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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class TestShortReductions:
    """The class and batch helpers against the numpy reductions they
    replace, bit for bit."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_class_helpers_match_numpy(self, m):
        rng = np.random.default_rng(m)
        a = rng.standard_normal((3, 50, m)) * 10.0 ** rng.integers(-8, 9, (3, 50, m))
        a[0, :8] = rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0, 1.5], (8, m))
        a[1, 0] = -0.0
        a[1, 1] = np.inf
        a[1, 2] = -np.inf
        a[1, 3, 0] = np.nan
        with np.errstate(invalid="ignore"):
            for x in (a, a[1], np.asfortranarray(a[2])):
                assert same_bits(kernels.class_max(x),
                                 np.max(x, axis=-1, keepdims=True))
                assert same_bits(kernels.class_sum(x),
                                 np.sum(x, axis=-1, keepdims=True))

    @pytest.mark.parametrize("width", [1, 2, 5, 16])
    @pytest.mark.parametrize("jobs", [1, 10])
    @pytest.mark.parametrize("rows", [7, 64])
    def test_batch_sum_matches_numpy(self, width, jobs, rows):
        rng = np.random.default_rng(width * jobs + rows)
        a = (rng.standard_normal((jobs, rows, width))
             * 10.0 ** rng.integers(-8, 9, (jobs, rows, width)))
        want = a.sum(axis=1)
        assert same_bits(kernels.batch_sum(a), want)
        assert same_bits(kernels.batch_sum(a[0]), a[0].sum(axis=0))
        out = np.empty((jobs, width))
        kernels.batch_sum(a, out=out)
        assert same_bits(out, want)


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

    def test_chain_stack_matches_per_chain_calls(self):
        # the update is elementwise, so a (chains, dim) state with noise laid
        # out (steps, chains, dim) reproduces each chain's own call bitwise
        rng = np.random.default_rng(8)
        chains, p, steps, kept = 4, 3, 300, 40
        w0 = rng.normal(size=(chains, p))
        lam = rng.uniform(0.5, 2.0, size=p)
        noise = rng.standard_normal((steps, chains, p))
        out = np.empty((kept, chains, p))
        w = kernels.sgld_chain_diag_quad(w0, lam, 0.7, 9.0, 0.01, 0.1, noise, out)
        for c in range(chains):
            one = np.empty((kept, p))
            wc = kernels.sgld_chain_diag_quad(w0[c], lam, 0.7, 9.0, 0.01, 0.1,
                                              np.ascontiguousarray(noise[:, c]), one)
            assert np.array_equal(out[:, c], one)
            assert np.array_equal(w[c], wc)


class TestSgldChainLoops:
    """The scalar loop (small states) and the numpy loop (large ones) of
    sgld_chain_diag_quad, each forced through ``_SCALAR_COORDS``, give the
    same bits."""

    LOOPS = {"scalar": 10**6, "numpy": -1}

    def run(self, monkeypatch, loop, w, lam, eps, n, step, noise, kept):
        monkeypatch.setattr(kernels, "_SCALAR_COORDS", self.LOOPS[loop])
        out = np.empty((kept,) + w.shape)
        final = kernels.sgld_chain_diag_quad(w, lam, eps, n, 0.5 * step,
                                             math.sqrt(step), noise, out)
        return final, out

    def both(self, monkeypatch, *args):
        return [self.run(monkeypatch, loop, *args) for loop in self.LOOPS]

    @pytest.mark.parametrize("shape", [(3,), (4, 3)])
    @pytest.mark.parametrize("eps", [0.0, 0.7])
    @pytest.mark.parametrize("kept", [150, 1])
    def test_loops_agree_bitwise(self, monkeypatch, shape, eps, kept):
        rng = np.random.default_rng(len(shape) + kept)
        w0 = rng.normal(size=shape)
        lam = np.array([0.0, 0.3, 1.7])
        noise = rng.standard_normal((150,) + shape)
        args = (w0, lam, eps, 9.0, 0.01, noise, kept)
        (f1, o1), (f2, o2) = self.both(monkeypatch, *args)
        assert same_bits(o1, o2)
        assert same_bits(f1, f2)
        assert same_bits(f1, o1[-1])
        # kicks taken 7 steps at a time, with blocks ending at the first
        # kept step, change no bit either
        monkeypatch.setattr(kernels, "_KICK_BLOCK", 7)
        for f, o in self.both(monkeypatch, *args):
            assert same_bits(o, o1)
            assert same_bits(f, f1)

    def test_overflowing_chains_agree(self, monkeypatch):
        # the lambda=1 coordinate is multiplied by -1.2 a step, so chains
        # started near 1e270 and above overflow to inf within 600 steps and
        # then turn NaN; the others stay finite
        rng = np.random.default_rng(3)
        scale = 10.0 ** np.array([0, 100, 200, 265, 275, 290, 300])
        w0 = rng.normal(size=(7, 2)) * scale[:, None]
        noise = rng.standard_normal((600, 7, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (f1, o1), (f2, o2) = self.both(monkeypatch, w0, [1.0, 0.5], 1.0,
                                           10.0, 0.4, noise, 600)
        for a, b in ((o1, o2), (f1, f2)):
            nan = np.isnan(a)
            assert np.array_equal(nan, np.isnan(b))
            assert same_bits(a[~nan], b[~nan])
        assert np.isinf(o1).any() and np.isnan(f1).any()
        assert np.isfinite(f1[:3]).all()

    @pytest.mark.parametrize("loop", ["scalar", "numpy"])
    def test_input_state_is_never_written(self, monkeypatch, loop):
        rng = np.random.default_rng(4)
        w0 = rng.normal(size=(3, 2))
        before = w0.copy()
        noise = rng.standard_normal((20, 3, 2))
        final, out = self.run(monkeypatch, loop, w0, [1.0, 2.0], 1.0, 4.0,
                              0.02, noise, 5)
        assert same_bits(w0, before)
        assert same_bits(final, out[-1])
        assert not np.shares_memory(final, out)
        assert not np.shares_memory(final, w0)

    @pytest.mark.parametrize("w_shape, lam, noise_shape, out_shape", [
        ((2,), [1.0, 1.0], (5, 2), (6, 2)),        # more kept rows than steps
        ((2,), [1.0, 1.0], (5, 3), (5, 2)),        # noise of another state
        ((2,), [1.0, 1.0], (5, 2), (5, 3)),        # out of another state
        ((4, 2), [1.0, 1.0], (5, 2), (5, 4, 2)),   # noise of one chain
        ((4, 2), [1.0, 1.0], (5, 4, 2), (5, 2)),   # out of one chain
        ((2,), [1.0, 1.0, 1.0], (5, 2), (5, 2)),   # eigenvalues of another dim
    ])
    def test_mismatched_shapes_are_rejected(self, w_shape, lam, noise_shape,
                                            out_shape):
        with pytest.raises(InvalidArgument):
            kernels.sgld_chain_diag_quad(np.zeros(w_shape), np.asarray(lam),
                                         1.0, 4.0, 0.01, 0.1,
                                         np.zeros(noise_shape),
                                         np.empty(out_shape))


GRAD_TOL = LogisticLearner.GRAD_TOL


class TestLogisticKernel:
    def test_variants_agree_to_rounding(self):
        Xb, y, m = logistic_problem()
        args = (m, 0.01, 40, GRAD_TOL)
        W_np, loss_np, it_np, bad_np = logistic_alone(Xb, y, *args)
        W_ref, loss_ref, it_ref, bad_ref = _reference_logistic_newton(Xb, y, *args)
        assert (it_np, bad_np) == (it_ref, bad_ref)
        assert 0 < it_np < 40 and bad_np == -1
        np.testing.assert_allclose(W_ref, W_np, rtol=1e-7, atol=1e-9)
        assert loss_ref == pytest.approx(loss_np, rel=1e-9)

    def test_deterministic(self):
        Xb, y, m = logistic_problem(seed=2)
        first = logistic_alone(Xb, y, m, 1e-3, 30, 0.0)
        second = logistic_alone(Xb, y, m, 1e-3, 30, 0.0)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_gradient_tolerance_stops_before_updating(self):
        Xb, y, m = logistic_problem(seed=3)
        W, _, it, bad = logistic_alone(Xb, y, m, 1e-3, 50, 1e9)
        assert it == 0
        assert bad == -1
        assert np.all(W == 0.0)

    def test_loss_decreases(self):
        Xb, y, m = logistic_problem(seed=4)
        _, short_loss, _, _ = logistic_alone(Xb, y, m, 1e-3, 1, 0.0)
        _, long_loss, _, _ = logistic_alone(Xb, y, m, 1e-3, 10, 0.0)
        assert long_loss < short_loss < math.log(m)

    @pytest.mark.parametrize("m", [2, 3])
    def test_converged_fit_is_the_penalised_optimum(self, m):
        optimize = pytest.importorskip("scipy.optimize")
        Xb, y, _ = logistic_problem(seed=5, n=60, d=4, m=m)
        l2 = 1e-2
        W, loss, it, bad = logistic_alone(Xb, y, m, l2, 50, GRAD_TOL)
        assert 0 < it < 50 and bad == -1
        def f(flat):
            _, value, grad = _logistic_objective(Xb, y, m, l2, flat.reshape(W.shape))
            return value, grad.ravel()

        assert np.abs(f(W.ravel())[1]).max() < GRAD_TOL
        best = optimize.minimize(f, np.zeros(W.size), jac=True, method="BFGS",
                                 options={"gtol": 1e-12, "maxiter": 10_000})
        np.testing.assert_allclose(W.ravel(), best.x, rtol=1e-6,
                                   atol=1e-6 * np.abs(best.x).max())
        assert loss == pytest.approx(best.fun, rel=1e-12)


def padded_stack(problems):
    """Stack (Xb, y) problems into zero-padded kernel arguments."""
    n_rows = np.array([Xb.shape[0] for Xb, _ in problems])
    d1 = problems[0][0].shape[1]
    Xs = np.zeros((len(problems), n_rows.max(), d1))
    ys = np.zeros((len(problems), n_rows.max()), dtype=np.int64)
    for k, (Xb, y) in enumerate(problems):
        Xs[k, :Xb.shape[0]] = Xb
        ys[k, :y.size] = y
    return Xs, ys, n_rows


class TestLogisticStack:
    """Each job of the stacked Newton solve against the one-job reference.

    Padding and the per-job reductions change the summation order, so
    weights agree to rtol 1e-7 (atol 1e-9) and losses to rel 1e-9, the
    tolerances of TestLogisticKernel; iteration counts and failure
    iterations agree exactly.
    """

    def check_jobs(self, problems, m, l2, iterations, grad_tol):
        Xs, ys, n_rows = padded_stack(problems)
        W, loss, it, bad = kernels.logistic_newton_stack(
            Xs, ys, n_rows, m, l2, iterations, grad_tol)
        for k, (Xb, y) in enumerate(problems):
            W_ref, loss_ref, it_ref, bad_ref = _reference_logistic_newton(
                Xb, y, m, l2, iterations, grad_tol)
            assert (it[k], bad[k]) == (it_ref, bad_ref)
            np.testing.assert_allclose(W[k], W_ref, rtol=1e-7, atol=1e-9)
            assert loss[k] == pytest.approx(loss_ref, rel=1e-9)
        return it, bad

    @pytest.mark.parametrize("m", [2, 3])
    def test_ragged_stack(self, m):
        # fold train sizes n and n - 1, as the protocol plans them
        problems = [logistic_problem(seed=s, n=n, m=m)[:2]
                    for s, n in ((0, 40), (1, 39), (2, 40), (3, 39))]
        it, bad = self.check_jobs(problems, m, 0.01, 30, GRAD_TOL)
        assert max(it) < 30 and list(bad) == [-1] * 4

    def test_jobs_stop_at_grad_tol_on_their_own(self):
        problems = [logistic_problem(seed=s, n=n)[:2]
                    for s, n in ((5, 30), (6, 29), (7, 12))]
        args = (3, 1e-3, 50, GRAD_TOL)
        it, bad = self.check_jobs(problems, *args)
        assert len(set(it.tolist())) > 1 and max(it) < 50
        for k, (Xb, y) in enumerate(problems):
            assert it[k] == logistic_alone(Xb, y, *args)[2]

    def test_non_finite_job_stops_alone(self):
        # huge inputs overflow the Hessian at the first iteration
        good = logistic_problem(seed=8, n=20)[:2]
        Xb, y = logistic_problem(seed=9, n=19)[:2]
        wild = (Xb * 1e200, y)
        with np.errstate(all="ignore"):
            it, bad = self.check_jobs([good, wild, good], 3, 1e-3, 10, GRAD_TOL)
            alone = logistic_alone(*wild, 3, 1e-3, 10, GRAD_TOL)
        assert list(bad) == [-1, 0, -1]
        assert (alone[2], alone[3]) == (0, 0)
        assert it[0] == it[2] < 10

    @pytest.mark.parametrize("seed", range(12))
    def test_random_ragged_stacks_count_as_alone(self, seed):
        # the line search reads each job's loss a few ulps apart near the
        # optimum; padding must not move a job's iteration count
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(2, 4))
        d = int(rng.integers(1, 7))
        l2 = 10.0 ** rng.uniform(-4, -1)
        scale = 10.0 ** rng.uniform(-1, 2)
        sizes = rng.integers(3, 70, size=int(rng.integers(2, 7)))
        problems = []
        for k, n in enumerate(sizes):
            Xb, y, _ = logistic_problem(seed=1000 * seed + k, n=int(n), d=d, m=m)
            Xb[:, :-1] *= scale
            problems.append((Xb, y))
        Xs, ys, n_rows = padded_stack(problems)
        W, loss, it, bad = kernels.logistic_newton_stack(
            Xs, ys, n_rows, m, l2, 100, GRAD_TOL)
        assert list(bad) == [-1] * len(problems) and max(it) < 100
        for k, (Xb, y) in enumerate(problems):
            W_k, loss_k, it_k, bad_k = logistic_alone(Xb, y, m, l2, 100, GRAD_TOL)
            assert (it[k], bad[k]) == (it_k, bad_k)
            np.testing.assert_allclose(W[k], W_k, rtol=1e-7, atol=1e-9)
            assert loss[k] == pytest.approx(loss_k, rel=1e-9)


class TestMlpKernel:
    def test_variants_agree_to_rounding(self):
        X, y, params, perms = mlp_problem()
        p_np = tuple(a.copy() for a in params)
        p_ref = tuple(a.copy() for a in params)
        loss_np, bad_np = mlp_alone(X, y, *p_np, perms, 0.05, 0.9, 8)
        loss_ref, bad_ref = _reference_mlp_sgd(X, y, *p_ref, perms, 0.05, 0.9, 8)
        assert bad_np == bad_ref == -1
        assert loss_ref == pytest.approx(loss_np, rel=1e-8)
        for a_np, a_ref in zip(p_np, p_ref):
            np.testing.assert_allclose(a_ref, a_np, rtol=1e-6, atol=1e-9)

    def test_updates_parameters_in_place(self):
        X, y, params, perms = mlp_problem(seed=6)
        originals = tuple(a.copy() for a in params)
        mlp_alone(X, y, *params, perms, 0.05, 0.9, 8)
        assert any(not np.array_equal(a, o)
                   for a, o in zip(params, originals))

    def test_training_reduces_loss(self):
        X, y, params, perms = mlp_problem(seed=7, n=64, epochs=2)
        short = tuple(a.copy() for a in params)
        loss_first, _ = mlp_alone(X, y, *short, perms[:1], 0.1, 0.9, 16)
        longer = tuple(a.copy() for a in params)
        mlp_alone(X, y, *longer, perms[:1], 0.1, 0.9, 16)
        loss_second, _ = mlp_alone(X, y, *longer, perms[1:], 0.1, 0.9, 16)
        assert loss_second < loss_first


def mlp_stack(problems):
    """Stack mlp_problem draws into stacked kernel arguments: X, y and the
    orders padded with zeros to the longest, and the row counts."""
    n_rows = np.array([pr[0].shape[0] for pr in problems])
    X = np.zeros((len(problems), n_rows.max(), problems[0][0].shape[1]))
    y = np.zeros(X.shape[:2], dtype=np.int64)
    orders = np.zeros((problems[0][3].shape[0],) + X.shape[:2], dtype=np.int64)
    for k, (Xk, yk, _, perms) in enumerate(problems):
        X[k, :n_rows[k]], y[k, :n_rows[k]] = Xk, yk
        orders[:, k, :n_rows[k]] = perms
    params = [np.stack([pr[2][i] for pr in problems]) for i in range(4)]
    return X, y, n_rows, params, orders


class TestMlpStack:
    """Each job of the stacked SGD against a stack of that job alone.

    Every product and reduction of the stack runs within one job, in the
    order a stack of one job runs it, so the agreement is bitwise.
    """

    def check_jobs(self, problems, lr_max, batch):
        X, y, n_rows, params, orders = mlp_stack(problems)
        loss, bad = kernels.mlp_sgd_stack(X, y, n_rows, *params, orders,
                                          len(orders), lr_max, 0.9, batch)
        for k, (Xk, yk, pk, perms) in enumerate(problems):
            alone = tuple(a.copy() for a in pk)
            loss_k, bad_k = mlp_alone(Xk, yk, *alone, perms, lr_max, 0.9,
                                            batch)
            assert bad[k] == bad_k
            assert loss[k] == loss_k or (np.isnan(loss_k) and np.isnan(loss[k]))
            for a_stack, a_alone in zip(params, alone):
                assert np.array_equal(a_stack[k], a_alone, equal_nan=True)
        return loss, bad

    @pytest.mark.parametrize("h", [1, 5])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n, batch", [(6, 8), (17, 8), (40, 16)])
    def test_each_job_matches_its_own_call(self, h, m, n, batch):
        # (6, 8): one short minibatch; (17, 8): the last holds one row
        problems = [mlp_problem(seed=s, n=n, h=h, m=m, epochs=4)
                    for s in range(10, 14)]
        _, bad = self.check_jobs(problems, 0.05, batch)
        assert list(bad) == [-1] * 4

    @pytest.mark.parametrize("sizes", [(17, 18), (17, 17, 18, 18), (18, 17, 18)])
    def test_ragged_stack_matches_each_job_alone(self, sizes):
        # 17 and 18 rows at batch 8 both take 3 minibatches, the last of 1
        # and of 2 rows; each run of equal sizes writes its own gradients
        problems = [mlp_problem(seed=50 + k, n=n, m=3, epochs=4)
                    for k, n in enumerate(sizes)]
        _, bad = self.check_jobs(problems, 0.05, 8)
        assert list(bad) == [-1] * len(sizes)

    def test_non_finite_job_in_ragged_stack_stops_alone(self):
        problems = [mlp_problem(seed=s, n=n, epochs=6)
                    for s, n in ((60, 17), (61, 17), (62, 18))]
        problems[1][0][:] *= 1e50
        with np.errstate(all="ignore"):
            loss, bad = self.check_jobs(problems, 0.5, 8)
        assert bad[0] == bad[2] == -1
        assert bad[1] >= 1 and not np.isfinite(loss[1])
        assert np.all(np.isfinite(loss[[0, 2]]))

    def test_rejects_row_counts_with_other_minibatch_counts(self):
        problems = [mlp_problem(seed=s, n=n) for s, n in ((70, 16), (71, 17))]
        X, y, n_rows, params, orders = mlp_stack(problems)
        with pytest.raises(InvalidArgument):
            kernels.mlp_sgd_stack(X, y, n_rows, *params, orders, len(orders),
                                  0.05, 0.9, 8)

    def test_jobs_match_scalar_reference(self):
        # the tolerances of TestMlpKernel.test_variants_agree_to_rounding
        problems = [mlp_problem(seed=s, m=3) for s in (20, 21, 22)]
        X, y, n_rows, params, orders = mlp_stack(problems)
        loss, bad = kernels.mlp_sgd_stack(X, y, n_rows, *params, orders,
                                          len(orders), 0.05, 0.9, 8)
        for k, (Xk, yk, pk, perms) in enumerate(problems):
            ref = tuple(a.copy() for a in pk)
            loss_ref, bad_ref = _reference_mlp_sgd(Xk, yk, *ref, perms, 0.05,
                                                   0.9, 8)
            assert bad[k] == bad_ref == -1
            assert loss_ref == pytest.approx(loss[k], rel=1e-8)
            for a_stack, a_ref in zip(params, ref):
                np.testing.assert_allclose(a_ref, a_stack[k], rtol=1e-6,
                                           atol=1e-9)

    def test_non_finite_job_stops_alone(self):
        # inputs of 1e50 keep the first epoch's loss finite and overflow in
        # the second; the tame jobs train all their epochs
        problems = [mlp_problem(seed=s, n=24, epochs=6) for s in (30, 31, 32)]
        problems[1][0][:] *= 1e50
        with np.errstate(all="ignore"):
            loss, bad = self.check_jobs(problems, 0.5, 8)
        assert bad[0] == bad[2] == -1
        assert bad[1] >= 1 and not np.isfinite(loss[1])
        assert np.all(np.isfinite(loss[[0, 2]]))

    def test_stops_once_every_job_has_failed(self):
        # inputs of 1e50 and 1e30 overflow in the second epoch and 1e20 in
        # the third; no order is drawn after the epoch the last job fails in
        problems = [mlp_problem(seed=s, n=24, epochs=8) for s in (30, 31, 32)]
        for (Xk, *_), scale in zip(problems, (1e50, 1e30, 1e20)):
            Xk *= scale
        X, y, n_rows, params, orders = mlp_stack(problems)
        drawn = []

        def counted():
            for order in orders:
                drawn.append(order)
                yield order

        with np.errstate(all="ignore"):
            loss, bad = kernels.mlp_sgd_stack(X, y, n_rows, *params,
                                              counted(), len(orders), 0.5,
                                              0.9, 8)
        assert list(bad) == [1, 1, 2]
        assert len(drawn) == 3
        assert not np.isfinite(loss).any()

    def test_stops_after_epochs(self):
        # orders may yield more epochs than asked for
        problems = [mlp_problem(seed=s, epochs=5) for s in (40, 41)]
        X, y, n_rows, params, orders = mlp_stack(problems)
        loss, _ = kernels.mlp_sgd_stack(X, y, n_rows, *params, orders, 2, 0.05,
                                        0.9, 8)
        for k, (Xk, yk, pk, perms) in enumerate(problems):
            alone = tuple(a.copy() for a in pk)
            assert mlp_alone(Xk, yk, *alone, perms[:2], 0.05, 0.9,
                                   8)[0] == loss[k]


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
