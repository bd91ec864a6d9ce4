"""MMD at the median bandwidth, and CMD with fixed widths, at any input scale.

A "median" MMD pool whose largest |entry| is below 1/2 runs scaled up by a
power of two, so a pair scaled by 2^e, where that scaling is exact, gets the
unit-scale value bit for bit and gradients exactly 2^-e as large; where such
a gradient leaves the float64 range, a named MomentOverflowError is raised.
A fixed CMD width whose k-th power is not a finite normal float is refused
by name before any numpy warning.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwmd.discrepancy import cmd_with_gradient, mmd_rbf, mmd_rbf_with_gradient
from dwmd.moments import MomentOverflowError


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(7)
    return rng.standard_normal((200, 16)), 1.2 * rng.standard_normal((150, 16)) + 0.3


def scaled(x, e):
    y = np.ldexp(x, e)
    assert np.array_equal(np.ldexp(y, -e), x), "2^e * x is not exact"
    return y


def quietly(call, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args, **kwargs)


@pytest.mark.parametrize("e", [-520, -540, -600, -1000])
def test_mmd_median_value_is_the_unit_scale_value(pair, e):
    s, t = pair
    assert quietly(mmd_rbf, scaled(s, e), scaled(t, e)) == mmd_rbf(s, t)


@pytest.mark.parametrize("e", [-520, -540, -600, -1000])
def test_mmd_median_gradients_scale_by_the_inverse_power_of_two(pair, e):
    s, t = pair
    value, g_s, g_t = mmd_rbf_with_gradient(s, t)
    got, h_s, h_t = quietly(mmd_rbf_with_gradient, scaled(s, e), scaled(t, e))
    assert got == value
    assert h_s.tobytes() == np.ldexp(g_s, -e).tobytes()
    assert h_t.tobytes() == np.ldexp(g_t, -e).tobytes()


def test_mmd_median_gradient_past_float64_is_a_named_error(pair):
    # At 2^-1040 the entries are subnormal and the gradient, about 2^1040
    # times the unit-scale one, has no float64 value.
    s, t = (np.ldexp(x, -1040) for x in pair)
    with pytest.raises(MomentOverflowError, match="^non-finite source gradient at dimension 0: "):
        quietly(mmd_rbf_with_gradient, s, t)


@given(
    e=st.integers(-1000, 1000),
    seed=st.integers(0, 2**32 - 1),
    m_s=st.integers(2, 40),
    m_t=st.integers(2, 40),
    d=st.integers(1, 8),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_mmd_median_at_any_scale_is_exact_or_a_named_error(e, seed, m_s, m_t, d):
    # Magnitudes in [0.5, 2): every entry of the pair times 2^e is a normal
    # float for e in [-1000, 1000].
    rng = np.random.default_rng(seed)
    s, t = (rng.uniform(0.5, 2.0, (m, d)) * rng.choice([-1.0, 1.0], (m, d)) for m in (m_s, m_t))
    value, g_s, g_t = mmd_rbf_with_gradient(s, t)
    try:
        got, h_s, h_t = quietly(mmd_rbf_with_gradient, scaled(s, e), scaled(t, e))
    except MomentOverflowError:
        return
    assert got == value
    assert h_s.tobytes() == np.ldexp(g_s, -e).tobytes()
    assert h_t.tobytes() == np.ldexp(g_t, -e).tobytes()


class TestCmdFixedWidths:
    """A fixed width whose power at order k is not a finite normal float
    returned inf (1e-100) or dropped orders 4 and 5 silently (1e100)."""

    @pytest.mark.parametrize("width", [1e-100, 1e100, 2.0**-205, 2.0**205])
    def test_width_outside_the_range_is_named(self, pair, width):
        s, t = pair
        widths = [1.0] * 15 + [width]
        message = re.escape(
            "widths must be numbers whose power at order k = 5 is a finite normal float, "
            f"got {width} at dimension 15"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            quietly(cmd_with_gradient, s, t, 5, widths=widths)

    def test_order_one_refuses_a_subnormal_width(self, pair):
        s, t = pair
        with pytest.raises(ValueError, match="at order k = 1 .* at dimension 0$"):
            quietly(cmd_with_gradient, s, t, 1, widths=[5e-324] + [1.0] * 15)

    @pytest.mark.parametrize("width", [2.0**-204, 2.0**204])
    def test_the_range_ends_give_a_finite_value_and_gradient(self, width):
        # A pair on the width's scale keeps every normalized gap near 1.
        s = np.array([[0.0], [1.0]]) * width
        value, g_s, g_t = quietly(cmd_with_gradient, s, s + 0.5 * width, 5, widths=[width])
        assert np.isfinite(value) and np.isfinite(g_s).all() and np.isfinite(g_t).all()
