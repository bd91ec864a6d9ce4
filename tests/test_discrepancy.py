import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwmd.discrepancy import (
    DwmdConfig,
    cmd,
    dwmd,
    dwmd_from_moments,
    mmd_rbf,
    smd,
    truncation_bound,
)
from dwmd.weighting import WeightProfile, weight_profile


def make_profile(tau, c=0.05, alpha=0.1):
    tau = np.asarray(tau, dtype=np.float64)
    tau_max = float(tau.max())
    tau_norm = np.maximum(tau / tau_max, 1e-6) if tau_max > 0 else np.ones_like(tau)
    return WeightProfile(
        tau=tau, tau_normalized=tau_norm, tau_max=tau_max, c_resolved=c, alpha=alpha
    )


class TestDwmd:
    def test_identical_matrices_are_zero(self):
        x = np.random.default_rng(0).normal(size=(50, 4))
        report = dwmd(x, x)
        assert report.total == 0.0
        np.testing.assert_array_equal(report.per_order_terms, 0.0)

    def test_hand_evaluated_two_term_series(self):
        # d=1, tau=1 (so tau_norm=1), psi=1, beta=1, C=0.05, n=2, moment
        # gaps (1, 1): e^-1/1.05 + e^-2/1.05, recomputed by hand.
        profile = make_profile([1.0])
        config = DwmdConfig(n=2, psi=1.0, beta=1.0)
        report = dwmd_from_moments([[0.0], [1.0]], [[1.0], [2.0]], profile, config)
        expected = math.exp(-1) / 1.05 + math.exp(-2) / 1.05
        assert report.total == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.4792521184838620, rel=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(1)
        s, t = rng.normal(size=(60, 3)), rng.normal(1, 2, (40, 3))
        assert dwmd(s, t).total == dwmd(t, s).total

    def test_report_invariants(self):
        rng = np.random.default_rng(2)
        s, t = rng.normal(size=(60, 3)), rng.normal(0.5, 1.5, (80, 3))
        config = DwmdConfig(n=6, psi=1.3)
        report = dwmd(s, t, config)
        np.testing.assert_allclose(
            report.per_order_totals, report.per_order_terms.sum(axis=1), rtol=1e-15
        )
        assert report.total == pytest.approx(report.per_order_totals.sum(), rel=1e-15)
        orders = np.arange(1, 7)[:, None]
        weights = np.exp(-config.psi * orders / report.weight_profile.tau_normalized)
        assert np.all(report.per_order_terms < weights)
        assert np.all(report.per_order_terms >= 0.0)

    def test_monotone_in_truncation_order(self):
        rng = np.random.default_rng(3)
        s, t = rng.normal(size=(50, 2)), rng.normal(0.3, 1, (50, 2))
        totals = [dwmd(s, t, DwmdConfig(n=n)).total for n in range(1, 8)]
        assert np.all(np.diff(totals) >= 0.0)

    def test_uniform_bound(self):
        rng = np.random.default_rng(4)
        for psi in (0.5, 1.0, 3.0):
            s, t = rng.normal(size=(40, 5)), rng.normal(2, 3, (40, 5))
            report = dwmd(s, t, DwmdConfig(n=10, psi=psi))
            bound = 5 * math.exp(-psi) / (1.0 - math.exp(-psi))
            assert report.total <= bound

    def test_standardize_controls_overflow(self):
        rng = np.random.default_rng(5)
        s, t = rng.normal(0, 50, (40, 2)), rng.normal(10, 60, (40, 2))
        config = DwmdConfig(n=20, standardize=True)
        assert np.isfinite(dwmd(s, t, config).total)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dwmd(np.zeros((5, 2)), np.zeros((5, 3)))


class TestDwmdFromMoments:
    def test_equal_sequences_zero(self):
        m = np.random.default_rng(6).normal(size=(5, 3))
        profile = make_profile([0.2, 1.0, 0.7])
        assert dwmd_from_moments(m, m, profile, DwmdConfig()).total == 0.0

    def test_swap_invariance(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        profile = make_profile([0.2, 1.0, 0.7])
        config = DwmdConfig()
        assert (
            dwmd_from_moments(a, b, profile, config).total
            == dwmd_from_moments(b, a, profile, config).total
        )

    @given(seed=st.integers(0, 10_000), beta=st.sampled_from([0.5, 0.8, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_fixed_weight_triangle_inequality(self, seed, beta):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(scale=2.0, size=(3, 4, 2))
        profile = make_profile(rng.uniform(0.1, 2.0, 2))
        config = DwmdConfig(n=4, beta=beta)
        d_ac = dwmd_from_moments(a, c, profile, config).total
        d_ab = dwmd_from_moments(a, b, profile, config).total
        d_bc = dwmd_from_moments(b, c, profile, config).total
        assert d_ac <= d_ab + d_bc + 1e-12

    def test_shape_mismatch(self):
        profile = make_profile([1.0])
        with pytest.raises(ValueError):
            dwmd_from_moments(np.zeros((5, 1)), np.zeros((4, 1)), profile, DwmdConfig(n=5))
        with pytest.raises(ValueError):
            dwmd_from_moments(np.zeros((4, 1)), np.zeros((4, 1)), profile, DwmdConfig(n=5))


class TestTruncationBound:
    def test_geometric_arithmetic(self):
        # psi=2, tau_max=1, n=1 -> nu=2, tail = 2^-4 / (1 - 2^-2) = 1/12.
        assert truncation_bound(make_profile([1.0]), 2.0, 1) == pytest.approx(1.0 / 12.0)

    def test_divergent_when_nu_zero(self):
        assert truncation_bound(make_profile([1.0]), 0.5, 3) is None

    def test_degenerate_profile_uses_unit_tau(self):
        prof = make_profile([0.0, 0.0])
        assert truncation_bound(prof, 2.0, 1) == pytest.approx(1.0 / 12.0)

    def test_empirical_tail_small(self):
        # High-order evaluation stands in for the infinite series.
        rng = np.random.default_rng(8)
        profile = make_profile([1.0])
        for _ in range(50):
            moments_a = rng.normal(scale=0.5, size=(200, 1))
            moments_b = rng.normal(scale=0.5, size=(200, 1))
            for psi in (1.0, 2.0, 3.0):
                config_hi = DwmdConfig(n=200, psi=psi)
                config_lo = DwmdConfig(n=5, psi=psi)
                hi = dwmd_from_moments(moments_a, moments_b, profile, config_hi).total
                lo = dwmd_from_moments(moments_a[:5], moments_b[:5], profile, config_lo).total
                assert abs(hi - lo) <= truncation_bound(profile, psi, 5)


class TestSmd:
    def test_one_dimensional_coincides_exactly(self):
        rng = np.random.default_rng(9)
        s, t = rng.normal(size=(60, 1)), rng.normal(1, 1, (60, 1))
        assert smd(s, t).total == dwmd(s, t).total

    def test_uniform_weights_coincide(self):
        # Shifting every dimension by the same constant gives a uniform tau.
        rng = np.random.default_rng(10)
        s = rng.normal(size=(60, 3))
        t = s + 1.0
        assert smd(s, t).total == pytest.approx(dwmd(s, t).total, rel=1e-12)

    def test_differs_under_anisotropic_shift(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=(500, 3))
        t = rng.normal(size=(500, 3)) + [2.0, 0.1, 0.5]
        assert smd(s, t).total != dwmd(s, t).total


class TestCmd:
    def test_identical_matrices_zero(self):
        x = np.random.default_rng(12).normal(size=(40, 3))
        assert cmd(x, x) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        s, t = rng.normal(size=(50, 2)), rng.normal(1, 2, (60, 2))
        assert cmd(s, t) == pytest.approx(cmd(t, s), rel=1e-12)

    def test_shifted_normals_analytic_oracle(self):
        # 1-D standard normals shifted by 1: mean gap 1, variance gap 0.
        # With the empirical-range width w the k=2 value is ~ 1/w.
        rng = np.random.default_rng(14)
        m = 10_000
        s = rng.standard_normal((m, 1))
        t = rng.standard_normal((m, 1)) + 1.0
        pooled = np.vstack([s, t])
        width = float(pooled.max() - pooled.min())
        assert cmd(s, t, 2) * width == pytest.approx(1.0, abs=0.1)


class TestMmd:
    def test_identical_matrices_zero(self):
        x = np.random.default_rng(15).normal(size=(30, 2))
        assert mmd_rbf(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(16)
        s, t = rng.normal(size=(25, 2)), rng.normal(1, 1, (35, 2))
        perm_s, perm_t = rng.permutation(25), rng.permutation(35)
        assert mmd_rbf(s, t, 1.0) == pytest.approx(mmd_rbf(s[perm_s], t[perm_t], 1.0), rel=1e-12)

    def test_well_separated_clouds(self):
        # Tight clouds offset by 10 with bandwidth 1: cross kernel ~ 0,
        # within-domain means ~ 1.
        rng = np.random.default_rng(17)
        s = rng.normal(0, 0.05, (500, 2))
        t = rng.normal(0, 0.05, (500, 2)) + [10.0, 0.0]
        assert mmd_rbf(s, t, 1.0) >= 1.9

    def test_direct_kernel_sum_oracle(self):
        rng = np.random.default_rng(18)
        s, t = rng.normal(size=(8, 2)), rng.normal(1, 1, (6, 2))
        sigma = 0.7
        k = lambda a, b: math.exp(-np.sum((a - b) ** 2) / (2 * sigma**2))
        kss = np.mean([[k(a, b) for b in s] for a in s])
        ktt = np.mean([[k(a, b) for b in t] for a in t])
        kst = np.mean([[k(a, b) for b in t] for a in s])
        assert mmd_rbf(s, t, sigma) == pytest.approx(kss + ktt - 2 * kst, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            s, t = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
            assert mmd_rbf(s, t) >= 0.0

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            mmd_rbf(np.zeros((3, 1)), np.zeros((3, 1)), 0.0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"psi": 0.0},
            {"psi": -1.0},
            {"beta": 0.0},
            {"beta": 1.5},
            {"alpha": 0.5},
            {"c_policy": "bogus"},
            {"c_policy": "bogus", "c_value": -1.0},
            {"c_value": 0.0},
            {"c_value": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DwmdConfig(**kwargs)


def test_paper_style_defaults():
    # The canonical configuration: beta=1, n=5, C=0.05, alpha=0.1.
    config = DwmdConfig()
    assert (config.n, config.beta, config.c_value, config.alpha) == (5, 1.0, 0.05, 0.1)


def test_weight_profile_roundtrip_through_dwmd():
    rng = np.random.default_rng(20)
    s, t = rng.normal(size=(50, 3)), rng.normal(1, 1, (50, 3))
    config = DwmdConfig()
    prof = weight_profile(s, t, config.alpha, config.c_policy, config.c_value)
    assert dwmd(s, t, config, profile=prof).total == dwmd(s, t, config).total


@pytest.mark.parametrize("n", [2.5, 5.0, "5", None, True])
def test_config_order_must_be_an_integer(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        DwmdConfig(n=n)


def test_config_order_accepts_numpy_integers():
    assert DwmdConfig(n=np.int32(3)).n == 3


@pytest.mark.parametrize("bandwidth", ["abc", float("inf"), float("nan"), -1.0, 0, None, [1.0]])
def test_mmd_bandwidth_message_names_the_value(bandwidth):
    message = f"bandwidth must be 'median' or a finite number > 0, got {bandwidth!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mmd_rbf(np.zeros((3, 1)), np.ones((3, 1)), bandwidth)


def test_mmd_numeric_bandwidth_strings_read_as_numbers():
    rng = np.random.default_rng(21)
    s, t = rng.normal(size=(20, 2)), rng.normal(1, 1, (20, 2))
    assert mmd_rbf(s, t, "0.7") == mmd_rbf(s, t, 0.7)


@pytest.mark.parametrize("key", ["psi", "beta", "alpha", "c_value"])
@pytest.mark.parametrize("value", ["1", "0.05", True, [0.1]])
def test_config_reals_checked_by_type(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a real number, got {re.escape(repr(value))}$"):
        DwmdConfig(**{key: value})


def test_config_reals_accept_numpy_numbers():
    config = DwmdConfig(psi=np.float32(2.0), beta=np.float64(0.5), alpha=np.int64(0), c_value=np.float64(0.1))
    assert (config.psi, config.beta, config.alpha, config.c_value) == (2.0, 0.5, 0, 0.1)


def test_c_value_may_be_none_off_the_scalar_policy():
    assert DwmdConfig(c_policy="tau_first", c_value=None).c_value is None


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_standardize_must_be_a_bool(value):
    with pytest.raises(ValueError, match="standardize must be a bool"):
        DwmdConfig(standardize=value)


def test_standardize_accepts_numpy_bools():
    assert DwmdConfig(standardize=np.bool_(True)).standardize
