"""The trimming pass's sort path against the selection oracle, bit for bit,
and the series gradient of a pair in one pass where its moments were.

A trimming row of at most SORT_ROWS entries is sorted once: its median is
the middle, and the cut is selected among its first and last n_drop + 1
entries, since the distances to the median fall and then rise along a
sorted row. A longer row takes two selections. Either way the kept entries
and their sums must be those of reference_trimmed_means. The rows run from 2
to SORT_ROWS + 1 entries, odd and even, in C order, F order and a column
view, with and without integer ties, at trimming fractions whose two tails
overlap (2 (n_drop + 1) > m) and whose tails do not, for one side alone and
for both sides of a pair.

The series reduces the raw moments of a short pair over a side-by-side copy
of its two sides (moments._raw_moment_pair) and evaluates both gradients in
one power-series pass over that copy; a pair whose moments run one side at a
time takes one gradient pass per side.
"""

import numpy as np
import pytest

from dwmd import discrepancy, weighting
from dwmd.discrepancy import dwmd_with_gradient
from dwmd.weighting import SORT_ROWS, _trimmed_means
from test_blocked_passes import LAYOUTS, reference_trimmed_means, sample
from test_short_pairs import first_arguments, in_layout, pair, per_side, training_pair

ROWS = [2, 3, 4, 5, 8, 11, 20, 37, 100, 199, 200, SORT_ROWS - 1, SORT_ROWS, SORT_ROWS + 1]
ALPHAS = [0.1, 0.37, 0.49]


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_the_rows_cover_overlapping_and_separate_tails():
    tails = {
        (m, alpha): 2 * (int(np.ceil(alpha * m)) + 1) > m for m in ROWS for alpha in ALPHAS
    }
    assert any(tails.values()) and not all(tails.values())


@pytest.mark.parametrize("integers", [False, True], ids=["real", "ties"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d", [1, 5])
@pytest.mark.parametrize("m", ROWS)
def test_one_side_matches_the_oracle(m, d, layout, integers):
    x = sample(m, d, layout, integers)
    for alpha in ALPHAS:
        assert_bits_equal(_trimmed_means(x, alpha), reference_trimmed_means(x, alpha))


@pytest.mark.parametrize("integers", [False, True], ids=["real", "ties"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("m", ROWS)
def test_paired_sides_match_the_oracle(m, layout, integers):
    s, t = pair(m, 3, layout, integers)
    for alpha in ALPHAS:
        got = _trimmed_means((s, t), alpha)
        for mean, side in zip(got, (s, t), strict=True):
            assert_bits_equal(mean, reference_trimmed_means(side, alpha))


def test_random_rows_with_ties_and_signed_zeros_match_the_oracle():
    rng = np.random.default_rng(31)
    for _ in range(400):
        m = int(rng.integers(2, SORT_ROWS + 2))
        x = rng.integers(-3, 4, (m, 2)).astype(np.float64)
        x[rng.random(x.shape) < 0.2] = -0.0
        alpha = float(rng.choice(ALPHAS))
        assert_bits_equal(_trimmed_means(x, alpha), reference_trimmed_means(x, alpha))


@pytest.mark.parametrize("m, sorted_rows", [(200, True), (SORT_ROWS, True), (SORT_ROWS + 1, False)])
def test_rows_up_to_sort_rows_take_the_sort_path(m, sorted_rows, monkeypatch):
    selected = first_arguments(monkeypatch, weighting, "_median_in_place")
    x = sample(m, 4, "C")
    _trimmed_means(x, 0.1)
    assert (not selected) == sorted_rows


def gradient_passes(monkeypatch, s, t):
    """The shapes of the matrices the series gradient of s and t passes to
    _power_series, and the two gradients."""
    calls = first_arguments(monkeypatch, discrepancy, "_power_series")
    _, g_s, g_t = dwmd_with_gradient(s, t)
    return [x.shape for x in calls], g_s, g_t


def test_a_training_pair_takes_one_gradient_pass(monkeypatch):
    s, t = training_pair()
    shapes, g_s, g_t = gradient_passes(monkeypatch, s, t)
    assert shapes == [(200, 32)]
    assert g_s.shape == s.shape and g_t.shape == t.shape
    # The gradients are the column halves of that pass's output (README).
    assert g_s.base is g_t.base and g_s.base.shape == (200, 32)
    assert not g_s.flags.c_contiguous and g_s.flags.writeable


def test_the_gradient_follows_the_moment_pass(monkeypatch):
    # Forcing the per-side moments forces the per-side gradient, with the
    # same bits.
    s, t = training_pair()
    _, want_s, want_t = dwmd_with_gradient(s, t)
    per_side(monkeypatch)
    shapes, g_s, g_t = gradient_passes(monkeypatch, s, t)
    assert shapes == [s.shape, t.shape]
    assert_bits_equal(g_s, want_s)
    assert_bits_equal(g_t, want_t)


def test_a_pair_not_summed_row_by_row_takes_a_pass_per_side(monkeypatch):
    # F order: the moments run one pass per side, so the gradient does too.
    s, t = (in_layout(x, "F") for x in training_pair())
    shapes, _, _ = gradient_passes(monkeypatch, s, t)
    assert shapes == [s.shape, t.shape]
