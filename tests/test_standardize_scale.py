"""Standardized series at any input scale.

standardize=True takes each dimension's pooled statistics on the column
times a power of two that brings it into (-1, 1). A pair scaled by 2^e, where
that scaling is exact, therefore gets the report of the unscaled pair bit
for bit, and gradients exactly 2^-e as large; where such a gradient leaves
the float64 range, a named MomentOverflowError is raised instead.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from dwmd.discrepancy import DwmdConfig, dwmd, dwmd_with_gradient, smd
from dwmd.moments import MomentOverflowError, standardize_pooled

EXPONENTS = [-520, -300, 300, 511, 600, 1000]
CONFIG = DwmdConfig(standardize=True)


@pytest.fixture(scope="module", params=[(200, 200), (200, 150)], ids=["short-pair", "per-side"])
def pair(request):
    m_s, m_t = request.param
    rng = np.random.default_rng(22)
    return rng.uniform(2.0**-20, 1.0, (m_s, 16)), rng.uniform(2.0**-20, 1.0, (m_t, 16)) ** 1.3


def scaled(x, e):
    y = np.ldexp(x, e)
    assert np.array_equal(np.ldexp(y, -e), x), "2^e * x is not exact"
    return y


def report_bytes(report):
    """Every field of a report, its weight profile's included, as bytes."""
    values = [getattr(report, f.name) for f in dataclasses.fields(report)]
    return [report_bytes(v) if dataclasses.is_dataclass(v) else np.asarray(v).tobytes()
            for v in values]


def quietly(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args)


@pytest.mark.parametrize("metric", [dwmd, smd])
def test_report_is_the_unit_scale_report(pair, metric):
    s, t = pair
    want = report_bytes(metric(s, t, CONFIG))
    for e in EXPONENTS:
        got = quietly(metric, scaled(s, e), scaled(t, e), CONFIG)
        assert report_bytes(got) == want, f"e = {e}"


@pytest.mark.parametrize("uniform", [False, True])
def test_gradients_scale_by_the_inverse_power_of_two(pair, uniform):
    s, t = pair
    report, g_s, g_t = dwmd_with_gradient(s, t, CONFIG, uniform=uniform)
    want = report_bytes(report)
    for e in EXPONENTS:
        got, h_s, h_t = quietly(dwmd_with_gradient, scaled(s, e), scaled(t, e), CONFIG, None, uniform)
        assert report_bytes(got) == want, f"e = {e}"
        assert h_s.tobytes() == np.ldexp(g_s, -e).tobytes(), f"e = {e}"
        assert h_t.tobytes() == np.ldexp(g_t, -e).tobytes(), f"e = {e}"


def test_standardize_pooled_is_scale_free(pair):
    s, t = pair
    want = standardize_pooled(s, t)
    for e in EXPONENTS:
        got = quietly(standardize_pooled, scaled(s, e), scaled(t, e))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], f"e = {e}"


def test_a_gradient_past_float64_is_a_named_error():
    # Integers times 2^-1074 are exact subnormals: the value is the integer
    # pair's, but the gradient, about 2^1074 times the integer pair's, is not
    # a float64.
    rng = np.random.default_rng(23)
    s, t = rng.integers(1, 2**20, (100, 4)).astype(float), rng.integers(1, 2**21, (100, 4)) * 1.0
    tiny_s, tiny_t = scaled(s, -1074), scaled(t, -1074)
    assert report_bytes(quietly(dwmd, tiny_s, tiny_t, CONFIG)) == report_bytes(dwmd(s, t, CONFIG))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MomentOverflowError, match=r"source gradient at dimension 0"):
            dwmd_with_gradient(tiny_s, tiny_t, CONFIG)
