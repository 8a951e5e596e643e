"""Closed-form oracle checks: worked values, limit laws, and the
finite-difference route that everything else is validated against."""

import math

import numpy as np
import pytest

from capmeter.errors import (
    DivergentPartition,
    InsufficientHits,
    InvalidArgument,
    InvalidSpectrum,
    InvariantViolation,
    ParseError,
)
import capmeter.oracle
from capmeter.oracle import (
    HessianSpectrum,
    load_spectrum,
    pacbayes_bound,
    pacbayes_effective_dim,
    quad_capacity_exact,
    quad_capacity_hm,
    quad_log_z,
    rlct_volume_estimate,
)


def spec(lam, eps, offsets=None):
    return HessianSpectrum(np.asarray(lam, dtype=float), eps, offsets)


class TestSpectrum:
    def test_sorts_non_increasing(self):
        """Eigenvalues are stored sorted, offsets permuted along."""
        s = spec([0.5, 2.0, 1.0], 1.0, offsets=[5.0, 2.0, 3.0])
        np.testing.assert_array_equal(s.eigenvalues, [2.0, 1.0, 0.5])
        np.testing.assert_array_equal(s.offsets, [2.0, 3.0, 5.0])
        assert s.p == 3

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidSpectrum):
            spec([], 1.0)
        with pytest.raises(InvalidSpectrum):
            spec([1.0, np.nan], 1.0)

    def test_rejects_offset_length_mismatch(self):
        with pytest.raises(InvalidSpectrum):
            spec([1.0, 2.0], 1.0, offsets=[1.0])

    def test_rejects_negative_epsilon(self):
        with pytest.raises(InvalidArgument):
            spec([1.0], -0.5)


class TestQuadLogZ:
    def test_gaussian_worked_value(self):
        """Two unit eigenvalues at eps=1, N=10: log Z = -log 11."""
        v = quad_log_z(spec([1.0, 1.0], 1.0), 10)
        np.testing.assert_allclose(v, -math.log(11.0), rtol=1e-12)

    def test_uniform_worked_value(self):
        v = quad_log_z(spec([2.0 * math.pi], 0.0), 1)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_offset_worked_value(self):
        """Unit eigenvalue, unit offset, N=1: frozen from a hand evaluation
        of 0.5*log(1/2) - eps/2 + eps^2/4."""
        v = quad_log_z(spec([1.0], 1.0, offsets=[1.0]), 1)
        np.testing.assert_allclose(v, -0.5965735902799727, rtol=1e-12)

    def test_uniform_ignores_offsets(self):
        a = quad_log_z(spec([3.0], 0.0), 5)
        b = quad_log_z(spec([3.0], 0.0, offsets=[7.0]), 5)
        assert a == b

    def test_uniform_divergent(self):
        with pytest.raises(DivergentPartition):
            quad_log_z(spec([1.0, 0.0], 0.0), 3)

    def test_zero_epsilon_is_the_flat_prior(self):
        # epsilon 0 reads as the flat prior, as prior_eps 0 does in the
        # sampler: 0.5 * sum(log(2*pi / (n*lam))), bitwise
        lam = np.array([3.0, 1.0, 0.25])
        assert quad_log_z(spec(lam, 0.0), 7) == float(
            0.5 * np.sum(np.log(2.0 * np.pi / (7.0 * lam))))

    def test_gaussian_negative_eigenvalue(self):
        with pytest.raises(InvalidSpectrum):
            quad_log_z(spec([-1.0], 1.0), 3)


class TestQuadCapacityExact:
    def test_single_direction_worked_value(self):
        assert quad_capacity_exact(spec([1.0], 1.0), 1) == pytest.approx(0.125)

    def test_saturation_limit(self):
        v = quad_capacity_exact(spec([1.0, 1.0], 1.0), 10**9)
        assert v == pytest.approx(1.0, abs=1e-8)

    def test_two_eigenvalue_worked_value(self):
        """Frozen from the small-step second difference of quad_log_z."""
        v = quad_capacity_exact(spec([1.0, 4.0], 2.0), 3)
        np.testing.assert_allclose(v, 0.5473469387755101, rtol=1e-12)

    def test_matches_second_difference_of_logz(self):
        """N^2 d^2/dN^2 log Z recovers the capacity to 1e-6."""
        s = spec([1.0, 4.0], 2.0)
        for n in (3, 17, 240):
            h = 1e-3 * n
            f = lambda x: quad_log_z(s, x)
            fd = n * n * (f(n - h) - 2.0 * f(n) + f(n + h)) / (h * h)
            np.testing.assert_allclose(fd, quad_capacity_exact(s, n), rtol=1e-6)

    def test_integer_step_difference_within_2pct(self):
        """The integer-step discrete capacity tracks the closed form for
        N >= 10 on random spectra."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = int(rng.integers(1, 21))
            s = spec(rng.uniform(1e-3, 10.0, size=p), float(rng.uniform(1e-2, 1.0)))
            for n in (10, 100, 1000):
                f = lambda x: quad_log_z(s, x)
                fd = n * n * (f(n - 1) - 2.0 * f(n) + f(n + 1))
                np.testing.assert_allclose(fd, quad_capacity_exact(s, n), rtol=0.02)

    def test_limits_and_monotonicity(self):
        s = spec([2.0, 0.3, 0.01], 0.7)
        assert quad_capacity_exact(s, 1e-9) == pytest.approx(0.0, abs=1e-12)
        grid = np.geomspace(0.1, 1e6, 40)
        vals = [quad_capacity_exact(s, n) for n in grid]
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[-1] <= 1.5 + 1e-12

    def test_scale_covariance(self):
        """Scaling eigenvalues and epsilon together changes nothing."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam = rng.uniform(0.01, 5.0, size=4)
            eps = float(rng.uniform(0.1, 2.0))
            k = float(rng.uniform(0.1, 50.0))
            a = quad_capacity_exact(spec(lam, eps), 37)
            b = quad_capacity_exact(spec(k * lam, k * eps), 37)
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(InvalidSpectrum):
            quad_capacity_exact(spec([-0.1, 1.0], 1.0), 5)


class TestQuadCapacityHm:
    def test_no_correction(self):
        assert quad_capacity_hm(spec([1.0, 1.0], 0.0)) == pytest.approx(1.0)

    def test_small_correction(self):
        assert quad_capacity_hm(spec([1.0, 1.0], 0.1)) == pytest.approx(0.9)

    def test_full_correction(self):
        assert quad_capacity_hm(spec([2.0, 2.0], 2.0)) == pytest.approx(0.0)

    def test_never_exceeds_half_p(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(1, 9))
            s = spec(rng.uniform(0.05, 4.0, size=p), float(rng.uniform(0.0, 1.0)))
            assert quad_capacity_hm(s) <= 0.5 * p + 1e-12

    def test_rejects_zero_eigenvalue(self):
        with pytest.raises(InvalidSpectrum):
            quad_capacity_hm(spec([1.0, 0.0], 0.1))


class TestEffectiveDim:
    def test_all_pass(self):
        assert pacbayes_effective_dim(spec([1.0, 0.1, 0.001], 0.2), 101) == 3

    def test_threshold_cuts_smallest(self):
        assert pacbayes_effective_dim(spec([1.0, 0.1, 0.001], 0.4), 101) == 2

    def test_zero_spectrum(self):
        assert pacbayes_effective_dim(spec([0.0, 0.0], 1.0), 10) == 0

    def test_uses_magnitudes(self):
        assert pacbayes_effective_dim(spec([-1.0, 0.5], 1.0), 101) == 2

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = int(rng.integers(1, 12))
            s = spec(rng.uniform(-1.0, 1.0, size=p), float(rng.uniform(0.05, 1.0)))
            dims = [pacbayes_effective_dim(s, n) for n in (2, 5, 20, 200, 5000)]
            assert all(0 <= d <= p for d in dims)
            assert all(a <= b for a, b in zip(dims, dims[1:]))

    def test_scale_covariance(self):
        s1 = spec([0.3, 0.02], 0.4)
        s2 = spec([3.0, 0.2], 4.0)
        for n in (2, 17, 300):
            assert pacbayes_effective_dim(s1, n) == pacbayes_effective_dim(s2, n)

    def test_needs_two_samples(self):
        with pytest.raises(InvalidArgument):
            pacbayes_effective_dim(spec([1.0], 1.0), 1)


class TestPacbayesBound:
    def test_worked_value(self):
        v = pacbayes_bound(spec([1.0], 1.0), 2, kappa=1.0, dist_sq=0.0)
        np.testing.assert_allclose(v, (math.log(3.0) + 2.0) / 4.0, rtol=1e-12)

    def test_empty_eigenvalue_sum(self):
        v = pacbayes_bound(spec([0.0], 1.0), 2, kappa=1.0, dist_sq=0.0)
        assert v == pytest.approx(0.5)

    def test_distance_term(self):
        v = pacbayes_bound(spec([1.0], 1.0), 2, kappa=1.0, dist_sq=4.0)
        np.testing.assert_allclose(v, (math.log(3.0) + 6.0) / 4.0, rtol=1e-12)

    def test_rejects_bad_kappa_and_distance(self):
        with pytest.raises(InvalidArgument):
            pacbayes_bound(spec([1.0], 1.0), 2, kappa=0.0, dist_sq=0.0)
        with pytest.raises(InvalidArgument):
            pacbayes_bound(spec([1.0], 1.0), 2, kappa=1.0, dist_sq=-1.0)


def _quad_energy(w):
    return 0.5 * np.sum(w * w, axis=1)


def _box_sampler(p):
    def draw(rng, m):
        return rng.uniform(-1.0, 1.0, size=(m, p))
    return draw


class TestRlctEstimate:
    def test_two_dim_quadratic(self):
        est = rlct_volume_estimate(_quad_energy, _box_sampler(2), eps=0.01,
                                   a=2.0, n_samples=200_000, seed=5)
        assert est.value == pytest.approx(1.0, rel=0.1)
        assert est.hits_high >= est.hits_low >= 20
        assert est.stderr > 0.0

    def test_one_dim_quadratic(self):
        est = rlct_volume_estimate(_quad_energy, _box_sampler(1), eps=0.01,
                                   a=2.0, n_samples=100_000, seed=6)
        assert est.value == pytest.approx(0.5, rel=0.1)

    def test_insufficient_hits(self):
        with pytest.raises(InsufficientHits):
            rlct_volume_estimate(_quad_energy, _box_sampler(2), eps=1e-9,
                                 a=2.0, n_samples=2_000, seed=7)

    def test_batching_does_not_change_counts(self, monkeypatch):
        counts = []
        for block in (1 << 20, 977):
            monkeypatch.setattr(capmeter.oracle, "_DRAW_BLOCK", block)
            est = rlct_volume_estimate(_quad_energy, _box_sampler(2), eps=0.02,
                                       a=2.0, n_samples=50_000, seed=8)
            counts.append((est.hits_low, est.hits_high))
        assert counts[0] == counts[1]


class TestSpectrumFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("# epsilon=0.25\n# offsets=0.1,-0.3\n2.0\n0.5\n")
        back = load_spectrum(path)
        s = spec([2.0, 0.5], 0.25, offsets=[0.1, -0.3])
        np.testing.assert_array_equal(back.eigenvalues, s.eigenvalues)
        np.testing.assert_array_equal(back.offsets, s.offsets)
        assert back.epsilon == s.epsilon

    def test_missing_epsilon(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(InvariantViolation):
            load_spectrum(path)

    def test_bad_eigenvalue_reports_line(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("# epsilon=1.0\n1.0\nnope\n")
        with pytest.raises(ParseError) as err:
            load_spectrum(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("text, line, message", [
        ("# note\n# epsilon=abc\n1.0\n", 2, "bad epsilon value 'abc'"),
        ("# epsilon=1.0\n2.0\n#  Offsets = 1.0, x\n", 3,
         "bad offsets list '1.0, x'"),
    ], ids=["epsilon", "offsets"])
    def test_bad_value_reports_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "spec.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as err:
            load_spectrum(path)
        assert err.value.line == line

    def test_header_keys_allow_spaces_and_any_case(self, tmp_path):
        # a later header line wins
        path = tmp_path / "spec.txt"
        path.write_text("# epsilon=9\n#EPSILON = 0.5\n# offsets= 1, 2 \n"
                        "1.0\n3.0\n")
        s = load_spectrum(path)
        assert s.epsilon == 0.5
        np.testing.assert_array_equal(s.eigenvalues, [3.0, 1.0])
        np.testing.assert_array_equal(s.offsets, [2.0, 1.0])

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("# epsilon=0.5\n# free-form note\n\n3.0\n\n1.0\n")
        s = load_spectrum(path)
        np.testing.assert_array_equal(s.eigenvalues, [3.0, 1.0])
        assert s.epsilon == 0.5
