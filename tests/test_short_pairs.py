"""A short equal pair, both sides of one shape with at most BLOCK_ROWS rows,
trimmed and reduced in one pass, against one pass per side, bit for bit.

Every regularized training step pairs two such batches. The weight profile
gathers both sides' columns into one chunk loop, and the series reduces the
raw moments of both sides side by side when numpy sums each side row by row
(C order, d >= 2). The per-side path is what any other pair takes; it is
forced here by making moments._short_pair refuse every pair.
"""

import numpy as np
import pytest

from dwmd import moments, weighting
from dwmd.discrepancy import DwmdConfig, dwmd_with_gradient, smd
from dwmd.moments import BLOCK_ROWS, MomentOverflowError, _power_means, _raw_moment_pair
from dwmd.weighting import _trimmed_means, weight_profile
from test_blocked_passes import LAYOUTS, sample

ROWS = [1, 2, 3, 37, 200, BLOCK_ROWS - 1, BLOCK_ROWS]
DIMS = [1, 2, 3, 16, 64]


def in_layout(x, layout):
    """The C-contiguous matrix x copied into the given layout."""
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "column view":
        wide = np.zeros((x.shape[0], x.shape[1] + 2))
        wide[:, 1:-1] = x
        return wide[:, 1:-1]
    return x


def pair(m, d, layout, integers=False):
    """A source and a shifted, rescaled target in one layout (integer data
    keeps its ties). A column view of one row is C-contiguous, so sample
    refuses it; this one is made the same way, from a wider matrix."""
    s = sample(m, d, "C", integers)
    t = s[::-1] * 1.5 + 0.25
    return in_layout(s, layout), in_layout(t, layout)


def per_side(patch):
    """Make every pair take the per-side path, under the monkeypatch patch."""
    refuse = lambda s, t: False  # noqa: E731
    patch.setattr(moments, "_short_pair", refuse)
    patch.setattr(weighting, "_short_pair", refuse)


@pytest.mark.parametrize("integers", [False, True])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("m", ROWS)
def test_paired_trimmed_means_equal_per_side_calls(m, d, layout, integers):
    s, t = pair(m, d, layout, integers)
    for alpha in (0.0, 0.1, 0.37):
        if m == 1 and alpha > 0.0:
            for x in ((s, t), s):
                with pytest.raises(ValueError, match="would discard all 1 samples"):
                    _trimmed_means(x, alpha)
            continue
        paired = _trimmed_means((s, t), alpha)
        assert len(paired) == 2
        for got, side in zip(paired, (s, t)):
            np.testing.assert_array_equal(got, _trimmed_means(side, alpha))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("m", ROWS)
def test_paired_raw_moments_equal_per_side_passes(m, d, layout):
    s, t = pair(m, d, layout)
    for n in (1, 5):
        got_s, got_t, _ = _raw_moment_pair(s, t, n)
        np.testing.assert_array_equal(got_s, _power_means(s, n, "raw"))
        np.testing.assert_array_equal(got_t, _power_means(t, n, "raw"))


@pytest.mark.parametrize(
    "s_order, t_order, message",
    [
        (None, 2, "raw moment at order 2, dimension 3"),
        (3, 2, "raw moment at order 3, dimension 3"),
        (2, None, "raw moment at order 2, dimension 3"),
    ],
)
def test_paired_overflow_names_the_side_a_per_side_pass_names(
    s_order, t_order, message, monkeypatch
):
    s, t = np.ones((200, 8)), np.ones((200, 8))
    for x, order in ((s, s_order), (t, t_order)):
        if order is not None:
            x[17, 3] = 10.0 ** (310 // order + 1)  # overflows at this order
    with pytest.raises(MomentOverflowError, match=message):
        _raw_moment_pair(s, t, 5)
    per_side(monkeypatch)
    with pytest.raises(MomentOverflowError, match=message):
        _raw_moment_pair(s, t, 5)


def series_outputs(s, t, config):
    out = []
    for uniform in (False, True):
        report, g_s, g_t = dwmd_with_gradient(s, t, config, uniform=uniform)
        profile = report.weight_profile
        out += [report.per_order_terms, report.total, g_s, g_t, profile.tau, profile.c_resolved]
    report = smd(s, t, config)
    return out + [report.per_order_terms, report.total]


CONFIGS = [
    DwmdConfig(),
    DwmdConfig(standardize=True),
    DwmdConfig(beta=0.5, c_policy="tau_vector", c_value=None),
    DwmdConfig(c_policy="tau_vector", c_value=None, standardize=True, alpha=0.37),
    DwmdConfig(c_policy="tau_first", c_value=None, alpha=0.0),
]


@pytest.mark.parametrize("config", CONFIGS, ids=range(len(CONFIGS)))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("m, d", [(2, 1), (37, 3), (200, 16), (BLOCK_ROWS, 64)])
def test_series_reports_and_gradients_equal_the_per_side_path(m, d, layout, config, monkeypatch):
    # Activations in (0, 1), as a sigmoid layer gives them.
    s, t = (1.0 / (1.0 + np.exp(-np.asarray(x, order="C"))) for x in pair(m, d, layout))
    s, t = in_layout(s, layout), in_layout(t, layout)
    paired = series_outputs(s, t, config)
    per_side(monkeypatch)
    expected = series_outputs(s, t, config)
    for got, want in zip(paired, expected, strict=True):
        np.testing.assert_array_equal(got, want)


def first_arguments(monkeypatch, module, name):
    """The list of the first arguments of each later call of module.name,
    which keeps working."""
    calls = []
    wrapped = getattr(module, name)

    def record(first, *args, **kwargs):
        calls.append(first)
        return wrapped(first, *args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


def training_pair():
    rng = np.random.default_rng(3)
    a = 1.0 / (1.0 + np.exp(-rng.normal(size=(400, 16))))
    return a[:200], a[200:]


def test_a_training_pair_is_trimmed_in_one_chunk(monkeypatch):
    calls = first_arguments(monkeypatch, weighting, "_kept_sums")
    weight_profile(*training_pair(), 0.1, "scalar", 0.05)
    assert [cols.shape for cols in calls] == [(32, 200)]


def test_a_training_pair_is_reduced_in_one_moment_pass(monkeypatch):
    calls = first_arguments(monkeypatch, moments, "_power_means")
    dwmd_with_gradient(*training_pair())
    assert [x.shape for x in calls] == [(200, 32)]


@pytest.mark.parametrize(
    "s, t",
    [
        (np.zeros((BLOCK_ROWS + 1, 4)), np.ones((BLOCK_ROWS + 1, 4))),
        (np.zeros((200, 4)), np.ones((199, 4))),
    ],
    ids=["tall", "unequal"],
)
def test_other_pairs_run_one_pass_per_side(s, t, monkeypatch):
    trimmed = first_arguments(monkeypatch, weighting, "_trimmed_means")
    powers = first_arguments(monkeypatch, moments, "_power_means")
    dwmd_with_gradient(s, t)
    # Each side is trimmed alone (as the one-side tuple of itself, too), on
    # either thread.
    singles = [x for x in trimmed if not isinstance(x, tuple)]
    assert len(singles) == 2 and {id(x) for x in singles} == {id(s), id(t)}
    assert sorted(x.shape for x in powers) == sorted([s.shape, t.shape])
