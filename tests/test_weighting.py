import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dwmd.weighting import TAU_FLOOR, robust_dim_means, weight_profile


def trimmed_mean_oracle(column, alpha):
    """Independent sort-and-drop reference: drop the ceil(alpha*m) values
    farthest from the median, average the rest."""
    column = list(column)
    med = float(np.median(column))
    n_drop = int(np.ceil(alpha * len(column)))
    kept = sorted(column, key=lambda v: abs(v - med))[: len(column) - n_drop]
    return sum(kept) / len(kept)


class TestRobustDimMeans:
    def test_single_outlier_dropped(self):
        x = [[1.0]] * 9 + [[100.0]]
        np.testing.assert_array_equal(robust_dim_means(x, 0.1), [1.0])

    def test_alpha_zero_is_plain_mean(self):
        x = np.random.default_rng(0).normal(size=(50, 4))
        np.testing.assert_array_equal(robust_dim_means(x, 0.0), x.mean(axis=0))

    def test_contaminated_mixture_oracle(self):
        # 95% N(0,1) + 5% N(50,1); trimming at alpha=0.1 recovers ~0.
        rng = np.random.default_rng(5)
        m = 1000
        n_out = 50
        col = np.concatenate([rng.normal(0, 1, m - n_out), rng.normal(50, 1, n_out)])
        x = col[:, None]
        got = robust_dim_means(x, 0.1)[0]
        assert abs(got) < 0.1
        assert got == pytest.approx(trimmed_mean_oracle(col, 0.1), abs=1e-12)

    def test_matches_oracle_per_dimension(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(123, 3)) * [1.0, 5.0, 0.2]
        got = robust_dim_means(x, 0.2)
        want = [trimmed_mean_oracle(x[:, j], 0.2) for j in range(3)]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_outlier_robustness(self):
        # Up to floor(alpha*m) planted extreme values move the estimate by
        # no more than the inlier spread.
        rng = np.random.default_rng(13)
        inliers = rng.normal(0, 1, (95, 1))
        planted = np.full((5, 1), 1e9)
        clean = robust_dim_means(inliers, 0.1)[0]
        dirty = robust_dim_means(np.vstack([inliers, planted]), 0.1)[0]
        assert abs(dirty - clean) < np.ptp(inliers)

    @pytest.mark.parametrize("alpha", [-0.1, 0.5, 1.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            robust_dim_means([[1.0]] * 10, alpha)

    def test_cannot_discard_everything(self):
        with pytest.raises(ValueError):
            robust_dim_means([[1.0]], 0.4999999)

    def test_tied_distances_keep_the_earliest_row(self):
        # Median 0; rows 3 (+1) and 4 (-1) tie at distance 1 for the last
        # kept place. The earlier row is kept, so the mean is +1/4.
        x = [[0.0], [0.0], [0.0], [1.0], [-1.0]]
        np.testing.assert_array_equal(robust_dim_means(x, 0.1), [0.25])

    @given(
        x=st.integers(2, 30).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=m, max_size=m
            )
        ),
        alpha=st.floats(0.0, 0.5, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_integers_match_oracle(self, x, alpha):
        x = np.array(x, dtype=float)
        want = [trimmed_mean_oracle(x[:, j], alpha) for j in range(x.shape[1])]
        np.testing.assert_allclose(robust_dim_means(x, alpha), want, rtol=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 60),
        alpha=st.floats(0.0, 0.5, exclude_max=True),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_permutation_moves_only_rounding(self, seed, m, alpha, data):
        # Without tied distances the kept set does not depend on row order;
        # only the summation order does.
        x = np.random.default_rng(seed).normal(size=(m, 4)) * [1.0, 10.0, 0.1, 1e3]
        dist = np.abs(x - np.median(x, axis=0))
        assume(all(np.unique(dist[:, j]).size == m for j in range(x.shape[1])))
        order = data.draw(st.permutations(range(m)))
        base = robust_dim_means(x, alpha)
        np.testing.assert_allclose(
            robust_dim_means(x[order], alpha), base, rtol=1e-12, atol=1e-12 * np.abs(x).max()
        )


class TestWeightProfile:
    def test_identical_matrices_degenerate(self):
        x = np.random.default_rng(1).normal(size=(30, 4))
        prof = weight_profile(x, x)
        np.testing.assert_array_equal(prof.tau, 0.0)
        assert prof.tau_max == 0.0
        np.testing.assert_array_equal(prof.tau_normalized, 1.0)

    def test_forced_by_definitions(self):
        # Gaps (1, 2) -> tau_max 2, normalized (0.5, 1).
        source = np.zeros((30, 2))
        target = np.tile([1.0, 2.0], (30, 1))
        prof = weight_profile(source, target)
        np.testing.assert_allclose(prof.tau, [1.0, 2.0])
        assert prof.tau_max == 2.0
        np.testing.assert_allclose(prof.tau_normalized, [0.5, 1.0])

    def test_recovers_planted_offsets(self):
        # 5-D clouds with known offsets and 5% planted outliers.
        rng = np.random.default_rng(21)
        m, offsets = 2000, np.array([0.5, 1.0, 0.0, 2.0, 0.25])
        source = rng.normal(0, 0.3, (m, 5))
        target = rng.normal(0, 0.3, (m, 5)) + offsets
        n_bad = m // 20
        source[:n_bad] += 40.0
        target[:n_bad] -= 40.0
        prof = weight_profile(source, target, alpha=0.1)
        assert np.all(np.abs(prof.tau - offsets) < 0.05)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        s, t = rng.normal(size=(40, 3)), rng.normal(1, 2, (50, 3))
        a, b = weight_profile(s, t), weight_profile(t, s)
        np.testing.assert_array_equal(a.tau, b.tau)
        np.testing.assert_array_equal(a.tau_normalized, b.tau_normalized)
        assert a.tau_max == b.tau_max

    @given(factor=st.floats(0.01, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_covariance(self, factor):
        rng = np.random.default_rng(4)
        s, t = rng.normal(size=(60, 2)), rng.normal(1, 1, (60, 2))
        base = weight_profile(s, t)
        scaled = weight_profile(s * [factor, 1.0], t * [factor, 1.0])
        assert scaled.tau[0] == pytest.approx(base.tau[0] * factor, rel=1e-9)
        assert scaled.tau[1] == pytest.approx(base.tau[1], rel=1e-12)

    def test_normalization_range(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s, t = rng.normal(size=(30, 6)), rng.normal(0.1, 1, (30, 6))
            prof = weight_profile(s, t)
            assert np.all(prof.tau_normalized > 0.0)
            assert np.all(prof.tau_normalized <= 1.0)
            assert np.all(prof.tau_normalized >= TAU_FLOOR)

    def test_c_policies(self):
        source = np.zeros((30, 2))
        target = np.tile([1.0, 2.0], (30, 1))
        assert weight_profile(source, target, c_policy="scalar", c_value=0.3).c_resolved == 0.3
        assert weight_profile(source, target, c_policy="tau_first").c_resolved == 1.0
        np.testing.assert_allclose(
            weight_profile(source, target, c_policy="tau_vector").c_resolved, [1.0, 2.0]
        )

    def test_c_floor_on_zero_tau(self):
        x = np.ones((30, 2))
        prof = weight_profile(x, x, c_policy="tau_first")
        assert prof.c_resolved > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            weight_profile(np.zeros((5, 2)), np.zeros((5, 3)))
