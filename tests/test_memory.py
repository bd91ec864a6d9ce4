"""Allocation peaks of the weight profile, the gradient kernels and the
CSV reader, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the peak above the
traced memory at entry counts every array a call builds, its outputs
included. The counts are deterministic; nothing here is timed.
"""

import tracemalloc

import numpy as np
import pytest

from dwmd.discrepancy import cmd_with_gradient, dwmd_gradient, mmd_rbf_with_gradient
from dwmd.harness import load_csv, save_csv
from dwmd.moments import raw_moments
from dwmd.weighting import weight_profile


def peak_bytes(call):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def moment_pair():
    rng = np.random.default_rng(7)
    return rng.normal(size=(4000, 16)), rng.normal(0.3, 1.2, (4000, 16))


def test_dwmd_gradient_keeps_one_array_per_side(moment_pair):
    s, t = moment_pair
    profile = weight_profile(s, t, 0.1, "scalar", 0.05)
    peak = peak_bytes(lambda: dwmd_gradient(s, t, profile=profile))
    assert peak < 2.5 * s.nbytes


def test_weight_profile_peak(moment_pair):
    s, t = moment_pair
    peak = peak_bytes(lambda: weight_profile(s, t, 0.1, "scalar", 0.05))
    assert peak < 2.75 * s.nbytes


def test_cmd_gradient_peak(moment_pair):
    s, t = moment_pair
    peak = peak_bytes(lambda: cmd_with_gradient(s, t, 5))
    assert peak < 3.5 * s.nbytes


@pytest.mark.parametrize("bandwidth, limit", [("median", 1.8), (1.0, 1.2)])
def test_mmd_builds_one_pooled_matrix(bandwidth, limit):
    rng = np.random.default_rng(8)
    s, t = rng.normal(size=(300, 16)), rng.normal(0.5, 1.0, (300, 16))
    pooled_matrix = 8 * (s.shape[0] + t.shape[0]) ** 2
    peak = peak_bytes(lambda: mmd_rbf_with_gradient(s, t, bandwidth))
    assert peak < limit * pooled_matrix


def test_mmd_never_builds_the_pooled_matrix():
    rng = np.random.default_rng(9)
    s, t = rng.normal(size=(3000, 16)), rng.normal(0.5, 1.0, (3000, 16))
    pooled_matrix = 8 * (s.shape[0] + t.shape[0]) ** 2
    peak = peak_bytes(lambda: mmd_rbf_with_gradient(s, t, "median"))
    assert peak < pooled_matrix / 6


def test_raw_moments_keep_one_scratch_array(moment_pair):
    s, _ = moment_pair
    peak = peak_bytes(lambda: raw_moments(s, 5))
    assert peak < 1.25 * s.nbytes


@pytest.mark.parametrize("with_labels", [False, True])
def test_load_csv_peak_is_about_twice_the_matrix(tmp_path, with_labels):
    rng = np.random.default_rng(10)
    matrix = rng.normal(size=(10_000, 32))
    labels = rng.integers(0, 2, 10_000) if with_labels else None
    path = tmp_path / "large.csv"
    save_csv(path, matrix, labels)
    peak = peak_bytes(lambda: load_csv(path, "label" if with_labels else None))
    assert peak < 2.5 * matrix.nbytes


def test_load_csv_peak_on_a_small_labelled_file(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "small.csv"
    save_csv(path, rng.normal(size=(1000, 2)), rng.integers(0, 2, 1000))
    peak = peak_bytes(lambda: load_csv(path, "label"))
    assert peak < 0.2e6
