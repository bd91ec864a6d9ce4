"""The blocked moment, power-series and trimming passes against the
single-pass kernels they replaced, bit for bit.

The three reference_* functions are the earlier whole-matrix _power_means,
_power_series and _trimmed_means, kept as bit-level oracles. The cases sit
on both sides of one and several row blocks, with d = 1 (reduced pairwise
by numpy), and in C order, F order and a strided column view (also reduced
pairwise, so they stay one block).
"""

import numpy as np
import pytest

from dwmd.discrepancy import _power_series
from dwmd.moments import BLOCK_ROWS, MomentOverflowError, _power_means
from dwmd.weighting import _median_in_place, _trimmed_means


def reference_power_means(x, n, what):
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    out = np.empty((n, x.shape[1]), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.reduce(x, axis=0, out=out[0])
        power = x
        for k in range(1, n):
            power = np.multiply(power, x, out=None if k == 1 else power)
            np.add.reduce(power, axis=0, out=out[k])
        del power
        out /= x.shape[0]
    if not np.isfinite(out).all():
        k, j = np.argwhere(~np.isfinite(out))[0]
        raise MomentOverflowError(
            f"non-finite {what} moment at order {k + 1}, dimension {j}; "
            "consider standardizing the inputs"
        )
    return out


def reference_power_series(x, coeff):
    out = np.empty_like(x)
    out[...] = coeff[-1]
    for row in coeff[-2::-1]:
        out *= x
        out += row
    return out


def reference_trimmed_means(x, alpha):
    m = x.shape[0]
    n_drop = int(np.ceil(alpha * m))
    n_keep = m - n_drop
    if n_drop == 0:
        return x.mean(axis=0)
    cols = np.ascontiguousarray(x.T)
    dist = cols.copy()
    med = _median_in_place(dist)[:, None]
    np.abs(np.subtract(cols, med, out=dist), out=dist)
    dist.partition(n_keep - 1, axis=1)
    thr = dist[:, n_keep - 1 : n_keep].copy()
    np.abs(np.subtract(cols, med, out=dist), out=dist)
    keep = dist < thr
    tied = dist == thr
    need = n_keep - np.count_nonzero(keep, axis=1)
    surplus = np.flatnonzero(np.count_nonzero(tied, axis=1) > need)
    if surplus.size:
        tied[surplus] &= np.cumsum(tied[surplus], axis=1) <= need[surplus, None]
    keep |= tied
    return cols.sum(axis=1, where=keep) / n_keep


ROWS = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5]
DIMS = [1, 2, 3, 64]
LAYOUTS = ["C", "F", "column view"]


def sample(m, d, layout, integers=False):
    """An (m, d) matrix in the given layout; columns differ in scale and
    location so that the order of the additions shows in the bits."""
    rng = np.random.default_rng(m * 1000 + d)
    if integers:
        x = rng.integers(-3, 4, (m, d + 2)).astype(np.float64)
    else:
        x = rng.normal(0.3, 1.0, (m, d + 2)) * np.exp(rng.normal(size=d + 2))
    if layout == "column view":
        out = x[:, 1 : d + 1]
        assert not out.flags.c_contiguous
        return out
    x = x[:, :d]
    return np.asfortranarray(x) if layout == "F" else np.ascontiguousarray(x)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("m", ROWS)
class TestBitIdenticalToOnePass:
    def test_raw_power_means(self, m, d, layout):
        x = sample(m, d, layout)
        for n in (1, 2, 5):
            np.testing.assert_array_equal(
                _power_means(x, n, "raw"), reference_power_means(x, n, "raw")
            )

    def test_power_means_centred_as_read(self, m, d, layout):
        x = sample(m, d, layout)
        mu = x.mean(axis=0)
        np.testing.assert_array_equal(
            _power_means(x, 6, "central", shift=mu),
            reference_power_means(x - mu, 6, "central"),
        )

    def test_power_series(self, m, d, layout):
        x = sample(m, d, layout)
        coeff = np.random.default_rng(d).normal(size=(5, d))
        got = _power_series(x, coeff)
        assert got.flags.f_contiguous == reference_power_series(x, coeff).flags.f_contiguous
        np.testing.assert_array_equal(got, reference_power_series(x, coeff))
        mu = x.mean(axis=0)
        np.testing.assert_array_equal(
            _power_series(x, coeff, mu), reference_power_series(x - mu, coeff)
        )

    @pytest.mark.parametrize("alpha", [0.1, 0.37])
    @pytest.mark.parametrize("integers", [False, True])
    def test_trimmed_means(self, m, d, layout, alpha, integers):
        x = sample(m, d, layout, integers)
        np.testing.assert_array_equal(_trimmed_means(x, alpha), reference_trimmed_means(x, alpha))


def test_overflow_in_a_later_block_names_the_lowest_order():
    x = np.ones((3 * BLOCK_ROWS + 5, 4))
    x[2 * BLOCK_ROWS + 3, 2] = 1e160
    with pytest.raises(MomentOverflowError, match="raw moment at order 2, dimension 2"):
        _power_means(x, 4, "raw")
    with pytest.raises(MomentOverflowError, match="raw moment at order 2, dimension 2"):
        reference_power_means(x, 4, "raw")
