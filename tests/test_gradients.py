"""Finite-difference validation of every analytic gradient.

The series gradients treat the weight profile (and pooled standardization
statistics) as constants, so the finite-difference oracle differentiates the
same fixed-weight function: the profile is computed once at the base point
and frozen for all perturbed evaluations.
"""

import numpy as np
import pytest

from dwmd.discrepancy import (
    DwmdConfig,
    cmd_with_gradient,
    dwmd,
    dwmd_gradient,
    mmd_rbf_with_gradient,
    smd,
    smd_gradient,
)
from dwmd.moments import central_moments, standardize_pooled
from dwmd.weighting import weight_profile

STEP = 1e-6


def central_diff(value_fn, arrays, indices):
    """Central finite differences of value_fn at selected entries."""
    grads = []
    for arr, idx_list in zip(arrays, indices):
        g = []
        for idx in idx_list:
            orig = arr[idx]
            arr[idx] = orig + STEP
            up = value_fn()
            arr[idx] = orig - STEP
            down = value_fn()
            arr[idx] = orig
            g.append((up - down) / (2 * STEP))
        grads.append(np.array(g))
    return grads


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst relative error, skipping entries below the central-difference
    roundoff floor (a ~1e-9 absolute error swamps any tiny derivative)."""
    errs = [
        abs(a - f) / abs(f)
        for a, f in zip(analytic.ravel(), numeric.ravel())
        if abs(f) >= floor
    ]
    assert errs, "all probed derivatives were below the noise floor"
    return max(errs)


def sample_pair(seed=0, m_s=12, m_t=15, d=3, shift=0.6):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m_s, d)), rng.normal(shift, 1.2, (m_t, d))


def spot_indices(shape, count=6, seed=99):
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(shape[0])), int(rng.integers(shape[1]))) for _ in range(count)
    ]


class TestSeriesGradient:
    @pytest.mark.parametrize("beta,tol", [(1.0, 1e-5), (0.8, 1e-4), (0.5, 1e-4)])
    def test_matches_finite_differences(self, beta, tol):
        s, t = sample_pair(seed=1)
        config = DwmdConfig(n=3, beta=beta)
        prof = weight_profile(s, t, config.alpha, config.c_policy, config.c_value)
        g_s, g_t = dwmd_gradient(s, t, config, profile=prof)
        idx_s, idx_t = spot_indices(s.shape), spot_indices(t.shape, seed=7)
        fd_s, fd_t = central_diff(
            lambda: dwmd(s, t, config, profile=prof).total, [s, t], [idx_s, idx_t]
        )
        assert max_rel_err(np.array([g_s[i] for i in idx_s]), fd_s) < tol
        assert max_rel_err(np.array([g_t[i] for i in idx_t]), fd_t) < tol

    def test_smd_matches_finite_differences(self):
        s, t = sample_pair(seed=2)
        config = DwmdConfig(n=3)
        prof = weight_profile(s, t, config.alpha, config.c_policy, config.c_value)
        g_s, g_t = smd_gradient(s, t, config, profile=prof)
        idx_s, idx_t = spot_indices(s.shape), spot_indices(t.shape, seed=5)
        fd_s, fd_t = central_diff(
            lambda: smd(s, t, config, profile=prof).total, [s, t], [idx_s, idx_t]
        )
        assert max_rel_err(np.array([g_s[i] for i in idx_s]), fd_s) < 1e-5
        assert max_rel_err(np.array([g_t[i] for i in idx_t]), fd_t) < 1e-5

    def test_standardized_gradient(self):
        # The pooled statistics are stop-gradiented too: the oracle applies
        # the frozen affine map before evaluating.
        s, t = sample_pair(seed=3, shift=2.0)
        config = DwmdConfig(n=3, standardize=True)
        s0, t0 = standardize_pooled(s, t)
        prof = weight_profile(s0, t0, config.alpha, config.c_policy, config.c_value)
        pooled = np.vstack([s, t])
        mu, sd = pooled.mean(axis=0), pooled.std(axis=0)
        plain = DwmdConfig(n=3)

        def frozen_value():
            return dwmd((s - mu) / sd, (t - mu) / sd, plain, profile=prof).total

        g_s, g_t = dwmd_gradient(s, t, config, profile=prof)
        idx_s, idx_t = spot_indices(s.shape), spot_indices(t.shape, seed=3)
        fd_s, fd_t = central_diff(frozen_value, [s, t], [idx_s, idx_t])
        assert max_rel_err(np.array([g_s[i] for i in idx_s]), fd_s) < 1e-5
        assert max_rel_err(np.array([g_t[i] for i in idx_t]), fd_t) < 1e-5

    def test_identical_inputs_give_zero_gradient(self):
        x = np.random.default_rng(4).normal(size=(20, 3))
        for beta in (1.0, 0.5):
            g_s, g_t = dwmd_gradient(x, x, DwmdConfig(beta=beta))
            np.testing.assert_array_equal(g_s, 0.0)
            np.testing.assert_array_equal(g_t, 0.0)

    def test_role_swap_antisymmetry(self):
        s, t = sample_pair(seed=5)
        config = DwmdConfig(n=3)
        prof = weight_profile(s, t, config.alpha, config.c_policy, config.c_value)
        g_s, g_t = dwmd_gradient(s, t, config, profile=prof)
        g_t2, g_s2 = dwmd_gradient(t, s, config, profile=prof)
        np.testing.assert_allclose(g_s, g_s2, rtol=1e-12)
        np.testing.assert_allclose(g_t, g_t2, rtol=1e-12)

    def test_beta_below_one_finite_at_zero_gap(self):
        # Equal first moments force a zero gap at order 1; the derivative
        # there is defined as 0 and everything stays finite.
        s = np.array([[0.0], [2.0], [4.0]])
        t = np.array([[1.0], [2.0], [3.0]])  # same mean, different spread
        g_s, g_t = dwmd_gradient(s, t, DwmdConfig(n=3, beta=0.5, alpha=0.0))
        assert np.all(np.isfinite(g_s)) and np.all(np.isfinite(g_t))


class TestBaselineGradients:
    def test_cmd_matches_finite_differences(self):
        from dwmd.discrepancy import cmd

        s, t = sample_pair(seed=6)
        _, g_s, g_t = cmd_with_gradient(s, t, 4)

        def interior(arr, seed):
            # Entries at a pooled per-dimension extreme would move the
            # (stop-gradiented) widths when perturbed; skip those.
            pooled = np.vstack([s, t])
            lo, hi = pooled.min(axis=0), pooled.max(axis=0)
            return [
                idx
                for idx in spot_indices(arr.shape, count=10, seed=seed)
                if lo[idx[1]] < arr[idx] < hi[idx[1]]
            ]

        idx_s, idx_t = interior(s, 11), interior(t, 13)
        assert idx_s and idx_t
        fd_s, fd_t = central_diff(lambda: cmd(s, t, 4), [s, t], [idx_s, idx_t])
        assert max_rel_err(np.array([g_s[i] for i in idx_s]), fd_s) < 1e-5
        assert max_rel_err(np.array([g_t[i] for i in idx_t]), fd_t) < 1e-5

    @pytest.mark.parametrize("k", [1, 2])
    def test_cmd_low_orders_match_finite_differences(self, k):
        # Widths frozen at the base point, so no probed entry can move them.
        s, t = sample_pair(seed=10 + k)
        pooled = np.vstack([s, t])
        widths = pooled.max(axis=0) - pooled.min(axis=0)
        _, g_s, g_t = cmd_with_gradient(s, t, k, widths=widths)
        idx_s, idx_t = spot_indices(s.shape), spot_indices(t.shape, seed=17)
        fd_s, fd_t = central_diff(
            lambda: cmd_with_gradient(s, t, k, widths=widths)[0], [s, t], [idx_s, idx_t]
        )
        assert max_rel_err(np.array([g_s[i] for i in idx_s]), fd_s) < 1e-5
        assert max_rel_err(np.array([g_t[i] for i in idx_t]), fd_t) < 1e-5

    def test_mmd_matches_finite_differences(self):
        from dwmd.discrepancy import mmd_rbf

        s, t = sample_pair(seed=8)
        value, g_s, g_t = mmd_rbf_with_gradient(s, t, 0.9)
        assert value == pytest.approx(mmd_rbf(s, t, 0.9))
        idx_s, idx_t = spot_indices(s.shape), spot_indices(t.shape, seed=13)
        fd_s, fd_t = central_diff(lambda: mmd_rbf(s, t, 0.9), [s, t], [idx_s, idx_t])
        assert max_rel_err(np.array([g_s[i] for i in idx_s]), fd_s) < 1e-5
        assert max_rel_err(np.array([g_t[i] for i in idx_t]), fd_t) < 1e-5


def reference_cmd_gradient(s, t, k, widths):
    """The order-by-order CMD gradient: the mean term, then for each order
    o >= 2 the chain (o/m) * ((x - mu)^(o-1) - c_(o-1)) through that order's
    central moment, skipping orders whose gap vanishes."""
    cs, ct = central_moments(s, k), central_moments(t, k)
    m_s, m_t = s.shape[0], t.shape[0]
    grad_s, grad_t = np.zeros_like(s), np.zeros_like(t)
    v = (cs[0] - ct[0]) / widths
    norm = float(np.linalg.norm(v))
    if norm > 0.0:
        dnorm = v / (norm * widths)
        grad_s += dnorm / m_s
        grad_t -= dnorm / m_t
    cen_s, cen_t = s - cs[0], t - ct[0]
    for order in range(2, k + 1):
        w_pow = widths**order
        v = (cs[order - 1] - ct[order - 1]) / w_pow
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            continue
        dnorm = v / (norm * w_pow)
        prev_s = 0.0 if order == 2 else cs[order - 2]
        prev_t = 0.0 if order == 2 else ct[order - 2]
        grad_s += dnorm * (order / m_s) * (cen_s ** (order - 1) - prev_s)
        grad_t -= dnorm * (order / m_t) * (cen_t ** (order - 1) - prev_t)
    return grad_s, grad_t


class TestCmdGradientOracle:
    """The power-series CMD gradient against the order-by-order reference."""

    @staticmethod
    def pairs():
        s, t = sample_pair(seed=21, m_s=30, m_t=25, d=4)
        yield "random", s, t
        rng = np.random.default_rng(22)
        yield "random-wide", rng.normal(size=(40, 6)), rng.gamma(2.0, 1.5, (50, 6))
        # Integers in 16 rows: column means and the shifts below are exact.
        x = np.random.default_rng(23).integers(-8, 9, size=(16, 4)).astype(np.float64)
        mu = x.mean(axis=0)
        # Same column means, doubled spread: the order-1 norm is exactly 0.
        yield "equal-means", x, mu + 2.0 * (x - mu)
        # Shifted copy: identical centred samples, so every norm of order
        # >= 2 is exactly 0 and only the mean term remains.
        yield "shifted-copy", x, x + 0.5

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_reference(self, k):
        for name, s, t in self.pairs():
            pooled = np.vstack([s, t])
            widths = pooled.max(axis=0) - pooled.min(axis=0)
            _, g_s, g_t = cmd_with_gradient(s, t, k)
            ref_s, ref_t = reference_cmd_gradient(s, t, k, widths)
            for got, ref in ((g_s, ref_s), (g_t, ref_t)):
                np.testing.assert_allclose(got, ref, rtol=1e-12, err_msg=name)

    def test_edge_cases_hit_zero_norms(self):
        cases = {name: (s, t) for name, s, t in self.pairs()}
        s, t = cases["equal-means"]
        np.testing.assert_array_equal(central_moments(s, 1), central_moments(t, 1))
        s, t = cases["shifted-copy"]
        np.testing.assert_array_equal(central_moments(s, 5)[1:], central_moments(t, 5)[1:])
        _, g_s, g_t = cmd_with_gradient(s, t, 5)
        # Only the mean term is left: a constant gradient per column.
        np.testing.assert_array_equal(g_s, np.broadcast_to(g_s[0], g_s.shape))
        np.testing.assert_array_equal(g_t, -g_s)


def reference_mmd(s, t, bandwidth):
    """The three-block MMD: source-source, target-target and cross kernel
    blocks, each with its own hand-expanded gradient, and the median taken
    over all off-diagonal pairs of the pooled distances."""

    def sq_dists(a, b):
        aa = (a * a).sum(axis=1)[:, None]
        bb = (b * b).sum(axis=1)[None, :]
        return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)

    if bandwidth == "median":
        pooled = np.vstack([s, t])
        sq = sq_dists(pooled, pooled)
        med = float(np.sqrt(np.median(sq[~np.eye(len(pooled), dtype=bool)])))
        sigma = med if med > 0.0 else 1.0
    else:
        sigma = float(bandwidth)
    gamma = 1.0 / (2.0 * sigma * sigma)
    k_ss = np.exp(-gamma * sq_dists(s, s))
    k_tt = np.exp(-gamma * sq_dists(t, t))
    k_st = np.exp(-gamma * sq_dists(s, t))
    m_s, m_t = s.shape[0], t.shape[0]
    value = float(k_ss.mean() + k_tt.mean() - 2.0 * k_st.mean())
    inv_sq = 1.0 / (sigma * sigma)
    grad_s = (
        -2.0 * inv_sq / (m_s * m_s) * (k_ss.sum(axis=1)[:, None] * s - k_ss @ s)
        + 2.0 * inv_sq / (m_s * m_t) * (k_st.sum(axis=1)[:, None] * s - k_st @ t)
    )
    grad_t = (
        -2.0 * inv_sq / (m_t * m_t) * (k_tt.sum(axis=1)[:, None] * t - k_tt @ t)
        + 2.0 * inv_sq / (m_s * m_t) * (k_st.sum(axis=0)[:, None] * t - k_st.T @ s)
    )
    return value, grad_s, grad_t


class TestMmdOracle:
    """The pooled-matrix MMD against the three-block reference."""

    @staticmethod
    def pairs():
        s, t = sample_pair(seed=31, m_s=30, m_t=25, d=4)
        yield "random", s, t
        rng = np.random.default_rng(32)
        yield "random-wide", rng.normal(size=(40, 6)), rng.gamma(2.0, 1.5, (50, 6))
        yield "one-dim", rng.normal(size=(20, 1)), rng.normal(0.5, 1.0, (35, 1))
        x = rng.integers(-3, 4, size=(24, 3)).astype(np.float64)
        # Integer points: many tied distances, and duplicate rows.
        yield "ties-and-duplicates", x, np.vstack([x[:10], x[5:15] + 1.0])

    @pytest.mark.parametrize("bandwidth", [0.9, 2.5, "median"])
    def test_matches_reference(self, bandwidth):
        for name, s, t in self.pairs():
            value, g_s, g_t = mmd_rbf_with_gradient(s, t, bandwidth)
            ref_value, ref_s, ref_t = reference_mmd(s, t, bandwidth)
            assert value == pytest.approx(ref_value, rel=1e-12), name
            for got, ref in ((g_s, ref_s), (g_t, ref_t)):
                atol = 1e-12 * np.max(np.abs(ref))
                np.testing.assert_allclose(got, ref, rtol=0, atol=atol, err_msg=name)

    def test_upper_triangle_median_matches_all_off_diagonal_pairs(self):
        from dwmd.discrepancy import _sq_dists, median_heuristic_bandwidth

        rng = np.random.default_rng(33)
        grid = rng.integers(-2, 3, size=(30, 2)).astype(np.float64)
        cases = {
            "random": rng.normal(size=(41, 5)),
            "ties": grid,
            "duplicates": np.vstack([grid[:8]] * 3),
            "two-points": np.array([[0.0, 0.0], [3.0, 4.0]]),
        }
        for name, x in cases.items():
            sq = _sq_dists(x)
            off_diag = sq[~np.eye(len(x), dtype=bool)]
            expected = float(np.sqrt(np.median(off_diag)))
            got = median_heuristic_bandwidth(x)
            assert got == pytest.approx(expected, rel=1e-14), name
        assert median_heuristic_bandwidth(np.ones((6, 3))) == 1.0

    def test_value_on_identical_samples_is_nonnegative(self):
        from dwmd.discrepancy import mmd_rbf

        for seed in range(8):
            x = np.random.default_rng(40 + seed).normal(size=(25 + seed, 1 + seed % 4))
            for bandwidth in ("median", 0.3, 4.0):
                value = mmd_rbf(x, x, bandwidth)
                assert 0.0 <= value < 1e-12


class TestBlockMmd:
    """Pairs that span several kernel row blocks, and the bounded median."""

    @pytest.mark.parametrize("bandwidth", [0.9, "median"])
    def test_multi_block_matches_reference(self, bandwidth):
        from dwmd.discrepancy import BLOCK_ENTRIES

        rng = np.random.default_rng(50)
        s, t = rng.normal(size=(700, 5)), rng.normal(0.4, 1.2, (650, 5))
        pooled = s.shape[0] + t.shape[0]
        step = BLOCK_ENTRIES // pooled
        assert step < pooled and pooled % step != 0  # several blocks, the last partial
        value, g_s, g_t = mmd_rbf_with_gradient(s, t, bandwidth)
        ref_value, ref_s, ref_t = reference_mmd(s, t, bandwidth)
        assert value == pytest.approx(ref_value, rel=1e-12)
        for got, ref in ((g_s, ref_s), (g_t, ref_t)):
            atol = 1e-12 * np.max(np.abs(ref))
            np.testing.assert_allclose(got, ref, rtol=0, atol=atol)

    def test_median_is_exact_up_to_median_rows(self):
        from dwmd.discrepancy import (
            BLOCK_ENTRIES, MEDIAN_ROWS, _sq_dists, median_heuristic_bandwidth,
        )

        rng = np.random.default_rng(51)
        # Integer points: tied and zero distances, and 630 pairs (an even
        # count) whose two middle squared distances, 8 and 9, are averaged.
        grid = np.random.default_rng(76).integers(-2, 3, size=(36, 2)).astype(np.float64)
        for m in (2, 3, 41, "grid", 400, MEDIAN_ROWS):
            x = grid if m == "grid" else rng.normal(size=(m, 4))
            sq = _sq_dists(x)
            expected = float(np.sqrt(np.median(sq[~np.tri(len(x), dtype=bool)])))
            assert median_heuristic_bandwidth(x) == expected, m
            if sq.size <= BLOCK_ENTRIES:
                # A held kernel block: its pairs are gathered, it is left as it is.
                held = sq.copy()
                assert median_heuristic_bandwidth(x, sq=held) == expected, m
                assert held.tobytes() == sq.tobytes(), m
        # The MMD itself uses that bandwidth: same bits as passing it.
        s, t = x[: MEDIAN_ROWS // 2], x[MEDIAN_ROWS // 2 :]
        by_median = mmd_rbf_with_gradient(s, t, "median")
        by_value = mmd_rbf_with_gradient(s, t, expected)
        assert by_median[0] == by_value[0]
        assert np.array_equal(by_median[1], by_value[1])
        assert np.array_equal(by_median[2], by_value[2])

    @staticmethod
    def block_pairs(x):
        """The pairs i < j of x as the median's row blocks hold them."""
        from dwmd.discrepancy import MEDIAN_BLOCK_ENTRIES, _sq_dists

        m = x.shape[0]
        norms = np.einsum("ij,ij->i", x, x)
        step = MEDIAN_BLOCK_ENTRIES // m
        pairs = []
        for start in range(0, m - 1, step):
            sq = _sq_dists(x, slice(start, start + step), norms)
            pairs.append(sq[~np.tri(sq.shape[0], m, start, dtype=bool)])
        return np.concatenate(pairs)

    def test_median_over_several_blocks_is_exact(self):
        from dwmd.discrepancy import MEDIAN_ROWS, median_heuristic_bandwidth

        rng = np.random.default_rng(53)
        grid = rng.integers(-3, 4, size=(1200, 3)).astype(np.float64)
        cases = {
            "random, even pair count": rng.normal(size=(1100, 6)),
            "random, odd pair count": rng.normal(size=(1103, 6)),
            "ties, odd pair count": grid[:1538],
            "ties, even pair count": grid,
            "duplicated rows": np.vstack([grid[:300]] * 5)[:1401],
            "wide": rng.gamma(2.0, 1.0, size=(1750, 40)),
            "median rows": rng.normal(size=(MEDIAN_ROWS, 2)),
        }
        for name, x in cases.items():
            pairs = self.block_pairs(x)
            assert pairs.size == x.shape[0] * (x.shape[0] - 1) // 2, name
            expected = float(np.sqrt(np.median(pairs)))
            assert median_heuristic_bandwidth(x) == expected, name
        assert median_heuristic_bandwidth(np.full((1300, 3), 2.5)) == 1.0

    def test_one_block_median_and_kernel_share_their_matrix(self):
        from dwmd.discrepancy import _sq_dists

        rng = np.random.default_rng(54)
        for m_s, m_t in ((200, 200), (3, 2), (600, 424)):
            s, t = rng.normal(size=(m_s, 5)), rng.normal(0.4, 1.1, (m_t, 5))
            sq = _sq_dists(np.vstack([s, t]))
            sigma = float(np.sqrt(np.median(sq[~np.tri(len(sq), dtype=bool)])))
            by_median = mmd_rbf_with_gradient(s, t, "median")
            by_value = mmd_rbf_with_gradient(s, t, sigma)
            assert by_median[0] == by_value[0]
            assert np.array_equal(by_median[1], by_value[1])
            assert np.array_equal(by_median[2], by_value[2])

    def test_held_matrix_above_median_rows_keeps_the_subset(self):
        from dwmd.discrepancy import MEDIAN_ROWS, _sq_dists, median_heuristic_bandwidth

        x = np.random.default_rng(55).normal(size=(MEDIAN_ROWS + 452, 3))
        assert median_heuristic_bandwidth(x, sq=_sq_dists(x)) == median_heuristic_bandwidth(x)

    def test_subset_median_repeats_and_stays_close(self):
        from dwmd.discrepancy import _sq_dists, median_heuristic_bandwidth, mmd_rbf

        rng = np.random.default_rng(52)
        s, t = rng.normal(size=(1500, 5)), rng.normal(0.5, 1.0, (1500, 5))
        x = np.vstack([s, t])
        sigma = median_heuristic_bandwidth(x)
        assert median_heuristic_bandwidth(x.copy()) == sigma
        assert mmd_rbf(s, t, "median") == mmd_rbf(s, t, sigma)
        sq = _sq_dists(x)
        all_pairs = float(np.sqrt(np.median(sq[~np.tri(len(x), dtype=bool)])))
        assert sigma == pytest.approx(all_pairs, rel=0.02)


class TestMmdRowBlocks:
    """One block rule for the MMD kernel: a pool of at most 1,024 rows is
    one held matrix, a larger one is walked in the median's row blocks."""

    @pytest.mark.parametrize(
        "m_s, m_t, d", [(300, 300, 3), (512, 512, 3), (600, 425, 3), (1000, 1000, 3), (4200, 4100, 2)]
    )
    def test_kernel_blocks_cover_each_row_once(self, monkeypatch, m_s, m_t, d):
        from dwmd import discrepancy
        from dwmd.discrepancy import BLOCK_ENTRIES, MEDIAN_BLOCK_ENTRIES

        sq_dists, calls = discrepancy._sq_dists, []

        def recording(x, rows=slice(None), norms=None):
            calls.append(range(x.shape[0])[rows])
            return sq_dists(x, rows, norms)

        monkeypatch.setattr(discrepancy, "_sq_dists", recording)
        rng = np.random.default_rng(57)
        mmd_rbf_with_gradient(rng.normal(size=(m_s, d)), rng.normal(0.4, 1.1, (m_t, d)), 0.9)
        m = m_s + m_t
        if m * m <= BLOCK_ENTRIES:
            assert calls == [range(m)]
            return
        step = max(16, MEDIAN_BLOCK_ENTRIES // m)
        if m > 8192:
            assert step == 16  # the floor, above MEDIAN_BLOCK_ENTRIES // m
        assert all(len(rows) == step for rows in calls[:-1])
        assert 0 < len(calls[-1]) <= step
        assert [i for rows in calls for i in rows] == list(range(m))

    @pytest.mark.parametrize("bandwidth", [0.9, "median"])
    @pytest.mark.parametrize("floor", [False, True])
    def test_row_blocks_match_reference(self, monkeypatch, bandwidth, floor):
        # The cli-csv pair's shape, 1000 + 1000 x 16. The 16-row floor only
        # applies above 8,192 rows, where the three-block reference would
        # hold about 0.4 GB, so it is reached here by a smaller block size
        # (16,384 // 2,010 is 8 rows), which the median's blocks follow too.
        from dwmd import discrepancy

        m_t = 1000
        if floor:
            monkeypatch.setattr(discrepancy, "MEDIAN_BLOCK_ENTRIES", 2**14)
            m_t = 1010  # 2,010 rows: the last 16-row block is partial
        rng = np.random.default_rng(58)
        s, t = rng.normal(size=(1000, 16)), rng.normal(0.3, 1.1, (m_t, 16))
        value, g_s, g_t = mmd_rbf_with_gradient(s, t, bandwidth)
        ref_value, ref_s, ref_t = reference_mmd(s, t, bandwidth)
        assert value == pytest.approx(ref_value, rel=1e-12)
        for got, ref in ((g_s, ref_s), (g_t, ref_t)):
            atol = 1e-12 * np.max(np.abs(ref))
            np.testing.assert_allclose(got, ref, rtol=0, atol=atol)


class TestMmdSquaredNormOverflow:
    """Finite rows whose squared norms could overflow the squared distances
    raise a named MomentOverflowError, not a NaN or a silent bandwidth."""

    @staticmethod
    def pair(scale):
        rng = np.random.default_rng(60)
        return rng.normal(size=(50, 4)) * scale, rng.normal(0.5, 1.0, (50, 4)) * scale

    @pytest.mark.parametrize("bandwidth", ["median", 1.0])
    @pytest.mark.parametrize("with_gradient", [False, True])
    def test_mmd_names_the_side_and_row(self, bandwidth, with_gradient):
        from dwmd.discrepancy import mmd_rbf
        from dwmd.moments import MomentOverflowError

        mmd = mmd_rbf_with_gradient if with_gradient else mmd_rbf
        s, t = self.pair(1e155)
        with pytest.raises(MomentOverflowError, match="squared norm of source row 0 .*; consider"):
            mmd(s, t, bandwidth)
        s, t = self.pair(1.0)
        t[7, 2] = 1e155
        with pytest.raises(MomentOverflowError, match="squared norm of target row 7 "):
            mmd(s, t, bandwidth)

    def test_large_rows_below_the_bound_stay_finite(self):
        from dwmd.discrepancy import mmd_rbf

        s, t = self.pair(1e150)
        value, g_s, g_t = mmd_rbf_with_gradient(s, t, "median")
        assert np.isfinite(value) and value == mmd_rbf(s, t, "median")
        assert np.isfinite(g_s).all() and np.isfinite(g_t).all()

    def test_median_names_the_row(self):
        from dwmd.discrepancy import median_heuristic_bandwidth
        from dwmd.moments import MomentOverflowError

        x = np.vstack(self.pair(1.0))
        x[3, 0] = 1e155
        with pytest.raises(MomentOverflowError, match="squared norm of row 3 .*standardizing"):
            median_heuristic_bandwidth(x)

    def test_median_names_the_callers_row_of_a_subset(self):
        from dwmd.discrepancy import MEDIAN_ROWS, median_heuristic_bandwidth
        from dwmd.moments import MomentOverflowError

        m = MEDIAN_ROWS + 300
        kept = np.sort(np.random.default_rng(0).choice(m, MEDIAN_ROWS, replace=False))
        left_out = np.setdiff1d(np.arange(m), kept)
        x = np.random.default_rng(61).normal(size=(m, 3))
        x[left_out[0]] = 1e155  # no pair of the subset holds it
        assert np.isfinite(median_heuristic_bandwidth(x))
        x[kept[5]] = 1e155
        with pytest.raises(MomentOverflowError, match=f"squared norm of row {kept[5]} "):
            median_heuristic_bandwidth(x)


class TestMmdZeroMedian:
    """A "median" pool where more than half the pairs coincide falls back to
    sigma = 1 on the inputs' scale, whatever the binary exponent k of its
    largest |entry|, so it matches the three-block reference and the fixed
    bandwidth 1.0."""

    @staticmethod
    def pool(m_s, m_t, top, seed):
        # Mostly zero rows (as relu activations are), a few holding `top`.
        rng = np.random.default_rng(seed)
        s, t = np.zeros((m_s, 3)), np.zeros((m_t, 3))
        s[rng.choice(m_s, m_s // 5, replace=False), rng.integers(0, 3)] = top
        t[rng.choice(m_t, m_t // 3, replace=False), 1] = top
        return s, t

    @pytest.mark.parametrize(
        "m_s, m_t, top, k",
        [
            (20, 15, 1.0, 1),  # 0/1 features
            (20, 15, 3.0, 2),
            (20, 15, 0.125, -2),
            (20, 15, 0.75, 0),
            (600, 500, 3.0, 2),  # kernel row blocks, median by leading bits
            (600, 500, 0.125, -2),
        ],
    )
    def test_matches_the_reference_at_sigma_one(self, m_s, m_t, top, k):
        from dwmd.discrepancy import median_heuristic_bandwidth

        s, t = self.pool(m_s, m_t, top, seed=m_s + k)
        assert np.frexp(top)[1] == k
        assert median_heuristic_bandwidth(np.vstack([s, t])) == 1.0
        value, g_s, g_t = mmd_rbf_with_gradient(s, t, "median")
        ref_value, ref_s, ref_t = reference_mmd(s, t, "median")
        assert value == pytest.approx(ref_value, rel=1e-12)
        for got, ref in ((g_s, ref_s), (g_t, ref_t)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
        fixed = mmd_rbf_with_gradient(s, t, 1.0)
        assert value == fixed[0]
        assert g_s.tobytes() == fixed[1].tobytes() and g_t.tobytes() == fixed[2].tobytes()

    def test_a_tiny_pool_keeps_its_gradient(self):
        # At 2^-600 a scaled pool's sigma would be 2^600 and its squared
        # inverse would underflow; the fallback runs on the inputs' scale.
        from dwmd.discrepancy import mmd_rbf

        s, t = (np.ldexp(x, -600) for x in self.pool(20, 15, 1.0, seed=3))
        value, g_s, g_t = mmd_rbf_with_gradient(s, t, "median")
        fixed = mmd_rbf_with_gradient(s, t, 1.0)
        assert value == fixed[0] == mmd_rbf(s, t)
        assert g_s.tobytes() == fixed[1].tobytes() and g_t.tobytes() == fixed[2].tobytes()
        assert np.abs(g_s).max() > 0.0
