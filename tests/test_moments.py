import numpy as np
import pytest

from dwmd.moments import (
    MomentOverflowError,
    central_moments,
    raw_moments,
    standardize_pooled,
    validate_samples,
)


class TestRawMoments:
    def test_two_point_example(self):
        # means of {0,2}, {0,4}, {0,8}
        out = raw_moments([[0.0], [2.0]], 3)
        np.testing.assert_array_equal(out, [[1.0], [2.0], [4.0]])

    def test_first_moment_is_column_mean(self):
        x = np.random.default_rng(0).normal(size=(37, 4))
        np.testing.assert_allclose(raw_moments(x, 1)[0], x.mean(axis=0))

    def test_standard_normal_oracle(self):
        # Known raw moments of N(0,1): 0, 1, 0, 3. Tolerance = 3 * MC
        # standard error, with Var(X^k) = E[X^2k] - (E[X^k])^2.
        m = 10_000
        x = np.random.default_rng(42).standard_normal((m, 1))
        out = raw_moments(x, 4).ravel()
        expected = np.array([0.0, 1.0, 0.0, 3.0])
        variances = np.array([1.0, 2.0, 15.0, 105.0 - 9.0])
        tol = 3.0 * np.sqrt(variances / m)
        assert np.all(np.abs(out - expected) <= tol)

    def test_single_point_exactness(self):
        x = np.array([[1.5, -2.0, 3.0]])
        out = raw_moments(x, 6)
        for k in range(1, 7):
            np.testing.assert_array_equal(out[k - 1], x[0] ** k)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5000, 3))
        shuffled = x[rng.permutation(len(x))]
        np.testing.assert_allclose(raw_moments(x, 8), raw_moments(shuffled, 8), rtol=1e-12)

    def test_consistency_with_sample_size(self):
        # The second raw moment of N(0,1) tightens toward 1 as m grows.
        errs = []
        for m in (100, 10_000):
            draws = [
                np.abs(raw_moments(np.random.default_rng(s).standard_normal((m, 1)), 2)[1, 0] - 1.0)
                for s in range(20)
            ]
            errs.append(np.mean(draws))
        assert errs[1] < errs[0]

    def test_overflow_names_dimension_and_order(self):
        with pytest.raises(MomentOverflowError, match="order 2.*dimension 1"):
            raw_moments([[1.0, 1e200], [2.0, 1e200]], 3)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_order_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            raw_moments([[1.0]], bad)


class TestCentralMoments:
    def test_two_point_example(self):
        out = central_moments([[0.0], [2.0]], 2)
        np.testing.assert_array_equal(out, [[1.0], [1.0]])

    def test_constant_column_has_no_dispersion(self):
        x = np.full((10, 2), 7.0)
        out = central_moments(x, 5)
        np.testing.assert_array_equal(out[0], [7.0, 7.0])
        np.testing.assert_array_equal(out[1:], 0.0)

    def test_standard_normal_oracle(self):
        m = 10_000
        x = np.random.default_rng(7).standard_normal((m, 1))
        out = central_moments(x, 3).ravel()
        expected = np.array([0.0, 1.0, 0.0])
        tol = 3.0 * np.sqrt(np.array([1.0, 2.0, 15.0]) / m)
        assert np.all(np.abs(out - expected) <= tol)


class TestStandardizePooled:
    def test_two_point_example(self):
        s, t = standardize_pooled([[0.0]], [[2.0]])
        np.testing.assert_array_equal(s, [[-1.0]])
        np.testing.assert_array_equal(t, [[1.0]])

    def test_constant_matrices_only_shift(self):
        s, t = standardize_pooled(np.full((3, 2), 5.0), np.full((4, 2), 5.0))
        np.testing.assert_array_equal(s, 0.0)
        np.testing.assert_array_equal(t, 0.0)

    def test_pooled_outputs_are_standardized(self):
        rng = np.random.default_rng(11)
        s, t = standardize_pooled(rng.normal(2, 3, (40, 3)), rng.normal(-1, 0.5, (60, 3)))
        pooled = np.vstack([s, t])
        np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(pooled.std(axis=0), 1.0, rtol=1e-12)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_samples([[1.0, np.nan]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            validate_samples([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_samples(np.empty((0, 3)))


def per_order_power_means(x, n):
    """The per-order running-power loop _power_means replaced: a new array
    per order and one .mean(axis=0) each. Kept as the bit-level oracle."""
    out = np.empty((n, x.shape[1]))
    power = x
    for k in range(1, n + 1):
        if k > 1:
            power = power * x
        out[k - 1] = power.mean(axis=0)
    return out


class TestOneScratchArray:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_bit_identical_to_the_per_order_loop(self, n, d):
        rng = np.random.default_rng(100 + n * d)
        x = rng.normal(0.4, 1.3, size=(1037, d))
        np.testing.assert_array_equal(raw_moments(x, n), per_order_power_means(x, n))
        centred = x - x.mean(axis=0)
        expected = per_order_power_means(centred, n)
        expected[0] = x.mean(axis=0)
        np.testing.assert_array_equal(central_moments(x, n), expected)

    def test_sign_mixed_overflow_names_the_lowest_order(self):
        # Order 1 sums to a finite 1e100; order 2 overflows to +inf; order 3
        # is inf + -inf = nan. The lowest non-finite order is reported.
        x = np.array([[1.0, 1e200], [2.0, -1e200], [3.0, 1e100]])
        with pytest.raises(MomentOverflowError, match="order 2, dimension 1"):
            raw_moments(x, 4)
