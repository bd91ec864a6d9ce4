"""dwmd_with_gradient: the series report and its gradient from one pass,
bit-identical to the separate value and gradient calls."""

import numpy as np
import pytest

import dwmd as package
from dwmd.discrepancy import (
    DwmdConfig,
    dwmd,
    dwmd_gradient,
    dwmd_with_gradient,
    smd,
    smd_gradient,
)
from dwmd.moments import BLOCK_ROWS
from dwmd.weighting import weight_profile


def assert_reports_equal(got, want):
    np.testing.assert_array_equal(got.per_order_terms, want.per_order_terms)
    np.testing.assert_array_equal(got.per_order_totals, want.per_order_totals)
    assert got.total == want.total
    assert got.truncation_bound == want.truncation_bound
    for name in ("tau", "tau_normalized", "c_resolved"):
        np.testing.assert_array_equal(
            getattr(got.weight_profile, name), getattr(want.weight_profile, name)
        )


def pair(m, d, layout="C"):
    rng = np.random.default_rng(m + d)
    s = rng.normal(0.2, 1.0, (m, d)) * np.exp(rng.normal(size=d))
    t = rng.normal(-0.1, 1.3, (m + 7, d))
    if layout == "F":
        return np.asfortranarray(s), np.asfortranarray(t)
    return s, t


CONFIGS = [
    DwmdConfig(),
    DwmdConfig(standardize=True, beta=0.7, c_policy="tau_vector", c_value=None),
    DwmdConfig(n=3, psi=0.5, alpha=0.0, c_policy="tau_first", c_value=None),
]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("m, d, layout", [(200, 16, "C"), (300, 1, "C"), (250, 3, "F"),
                                          (2 * BLOCK_ROWS + 3, 4, "C")])
class TestOneCallEqualsTwo:
    def test_dwmd(self, m, d, layout, config):
        s, t = pair(m, d, layout)
        report, g_s, g_t = dwmd_with_gradient(s, t, config)
        assert_reports_equal(report, dwmd(s, t, config))
        want_s, want_t = dwmd_gradient(s, t, config)
        np.testing.assert_array_equal(g_s, want_s)
        np.testing.assert_array_equal(g_t, want_t)

    def test_smd(self, m, d, layout, config):
        s, t = pair(m, d, layout)
        report, g_s, g_t = dwmd_with_gradient(s, t, config, uniform=True)
        assert_reports_equal(report, smd(s, t, config))
        want_s, want_t = smd_gradient(s, t, config)
        np.testing.assert_array_equal(g_s, want_s)
        np.testing.assert_array_equal(g_t, want_t)

    def test_frozen_profile(self, m, d, layout, config):
        s, t = pair(m, d, layout)
        profile = weight_profile(s[: m // 2], t[: m // 2], 0.2, "scalar", 0.1)
        for uniform, value, gradient in ((False, dwmd, dwmd_gradient), (True, smd, smd_gradient)):
            report, g_s, g_t = dwmd_with_gradient(s, t, config, profile, uniform)
            assert_reports_equal(report, value(s, t, config, profile))
            for got, want in zip((g_s, g_t), gradient(s, t, config, profile)):
                np.testing.assert_array_equal(got, want)


def test_exported_from_the_package():
    assert package.dwmd_with_gradient is dwmd_with_gradient
    assert "dwmd_with_gradient" in package.__all__


def test_inputs_checked_by_name():
    with pytest.raises(ValueError, match="target: non-finite entry at row 1, column 0"):
        dwmd_with_gradient(np.ones((3, 2)), [[0.0, 1.0], [np.nan, 2.0]])
    with pytest.raises(ValueError, match="feature-dimension mismatch"):
        dwmd_with_gradient(np.ones((3, 2)), np.ones((3, 3)))


def test_builds_the_profile_once(monkeypatch):
    import dwmd.discrepancy as disc

    calls = []
    real = disc._profile
    monkeypatch.setattr(disc, "_profile", lambda *a: calls.append(1) or real(*a))
    s, t = pair(100, 4)
    dwmd_with_gradient(s, t)
    assert len(calls) == 1
