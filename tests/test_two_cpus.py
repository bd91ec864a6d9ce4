"""The two halves of a pair kernel on one thread or two (moments._both).

moments._CPUS is set to 1 and to 2, so both paths run whatever the machine:
the results must be bit-identical, the source's error must win, the worker
must run under the caller's numpy error state and be joined before the call
returns.
"""

import threading
import warnings

import numpy as np
import pytest

from dwmd import discrepancy, moments
from dwmd.discrepancy import DwmdConfig, cmd_with_gradient, dwmd, dwmd_gradient, dwmd_with_gradient
from dwmd.moments import BLOCK_ROWS, MomentOverflowError
from dwmd.weighting import _trimmed_means, weight_profile
from test_blocked_passes import DIMS, LAYOUTS, ROWS, reference_trimmed_means, sample


@pytest.fixture(params=[1, 2], ids=["one CPU", "two CPUs"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(moments, "_CPUS", request.param)
    return request.param


def outputs(s, t):
    """Every array and number the pair kernels return for (s, t)."""
    profile = weight_profile(s, t, 0.1, "tau_vector", None)
    out = [profile.tau, profile.tau_normalized, profile.tau_max, profile.c_resolved]
    for uniform in (False, True):
        report, g_s, g_t = dwmd_with_gradient(s, t, DwmdConfig(standardize=True), uniform=uniform)
        out += [report.per_order_terms, report.total, g_s, g_t]
    out += list(cmd_with_gradient(s, t, 5))
    return out


def on(n_cpus, call):
    """call() with moments._CPUS set to n_cpus, checking that no thread is
    left running afterwards."""
    saved, moments._CPUS = moments._CPUS, n_cpus
    threads = threading.active_count()
    try:
        return call()
    finally:
        moments._CPUS = saved
        assert threading.active_count() == threads


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("m", ROWS)
def test_bit_identical_on_one_and_two_cpus(m, d, layout):
    s = sample(m, d, layout)
    t = sample(m + 7, d, layout) * 1.5 + 0.25
    one = on(1, lambda: outputs(s, t))
    two = on(2, lambda: outputs(s, t))
    for a, b in zip(one, two):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("integers", [False, True])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d", [12, 13, 33])
def test_trimmed_means_over_uneven_column_chunks(cpus, d, layout, integers):
    # Tall enough that a chunk is narrower than d; at d = 13 and 33, d is
    # not a multiple of the chunk width.
    s = sample(9000, d, layout, integers)
    t = s * 1.5 + 0.25
    expected = [reference_trimmed_means(x, 0.1) for x in (s, t)]
    for x, means in zip((s, t), expected):
        np.testing.assert_array_equal(_trimmed_means(x, 0.1), means)
    profile = weight_profile(s, t, 0.1, "scalar", 0.05)
    np.testing.assert_array_equal(profile.tau, np.abs(expected[0] - expected[1]))


def side(rows, *args):
    """The argument tuple of one side of moments._both: a sample matrix of
    rows rows, then args."""
    return (np.empty((rows, 1)), *args)


def thread_of(x):
    return threading.get_ident()


def test_second_runs_on_a_worker_only_above_one_block(cpus):
    same = moments._both(thread_of, side(BLOCK_ROWS), side(BLOCK_ROWS))
    assert same[0] == same[1]
    split = moments._both(thread_of, side(BLOCK_ROWS + 1), side(BLOCK_ROWS + 1))
    assert (split[0] != split[1]) == (cpus == 2)


@pytest.mark.parametrize("rows", [(BLOCK_ROWS, 10 * BLOCK_ROWS), (10 * BLOCK_ROWS, BLOCK_ROWS)])
def test_a_pair_splits_only_when_both_sides_exceed_one_block(cpus, rows):
    first, second = moments._both(thread_of, side(rows[0]), side(rows[1]))
    assert first == second == threading.get_ident()


def test_cmd_gradient_sides_run_on_two_threads(cpus, monkeypatch):
    threads = []
    power_series = discrepancy._power_series

    def recorded(*args):
        threads.append(threading.get_ident())
        return power_series(*args)

    monkeypatch.setattr(discrepancy, "_power_series", recorded)
    x = sample(BLOCK_ROWS + 1, 3, "C")
    cmd_with_gradient(x, x * 1.5 + 0.25)
    assert len(threads) == 2
    assert (threads[0] != threads[1]) == (cpus == 2)


def overflowing_pair():
    """A source whose raw moments overflow at order 2 in dimension 1 and a
    target whose overflow at order 4 in dimension 0."""
    s = np.ones((3 * BLOCK_ROWS, 2))
    t = np.ones((3 * BLOCK_ROWS, 2))
    s[5, 1] = 1e160
    t[7, 0] = 1e80
    return s, t


def test_when_both_sides_overflow_the_source_error_is_raised(cpus):
    s, t = overflowing_pair()
    threads = threading.active_count()
    with pytest.raises(MomentOverflowError, match="raw moment at order 2, dimension 1"):
        dwmd(s, t)
    assert threading.active_count() == threads


def test_a_failure_on_the_target_alone_propagates(cpus):
    s, t = overflowing_pair()
    s[5, 1] = 1.0
    with pytest.raises(MomentOverflowError, match="raw moment at order 4, dimension 0"):
        dwmd(s, t)
    t[7, 0] = 1e160  # overflows the centred moments at order 2
    with pytest.raises(MomentOverflowError, match="central moment at order 2, dimension 0"):
        cmd_with_gradient(s, t)


def test_the_worker_runs_under_the_callers_error_state(cpus):
    def overflow():
        return np.full(3, 1e308) * 10.0

    def call(x, fn):
        return fn()

    first, second = side(BLOCK_ROWS + 1, lambda: None), side(BLOCK_ROWS + 1, overflow)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            _, out = moments._both(call, first, second)
        assert np.isinf(out).all()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            moments._both(call, first, second)
        with pytest.raises(RuntimeWarning, match="overflow"):
            moments._both(call, first, second)


def test_sides_are_told_apart_by_position(cpus):
    x = sample(3 * BLOCK_ROWS + 5, 3, "C")
    y = x * 1.5 + 0.25
    g_s, g_t = dwmd_gradient(x, x)
    np.testing.assert_array_equal(g_t, -g_s)
    forward = dwmd_gradient(x, y)
    backward = dwmd_gradient(y, x)
    np.testing.assert_array_equal(backward[0], forward[1])
    np.testing.assert_array_equal(backward[1], forward[0])
