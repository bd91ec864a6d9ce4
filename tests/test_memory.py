"""Allocation peaks of the sample check, the weight profile, the gradient
kernels, the network passes and the CSV reader, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the peak above the
traced memory at entry counts every array a call builds, its outputs
included. The counts are deterministic; nothing here is timed.
"""

import tracemalloc

import numpy as np
import pytest

from dwmd import moments
from dwmd.discrepancy import cmd, cmd_with_gradient, dwmd_gradient, mmd_rbf, mmd_rbf_with_gradient
from dwmd.harness import load_csv, save_csv
from dwmd.moments import raw_moments
from dwmd.nettrain import NetworkSpec, TrainConfig, evaluate, init_model, objective_gradient
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
    assert peak < 1.75 * s.nbytes


def test_weight_profile_holds_no_copy_of_a_tall_side():
    rng = np.random.default_rng(13)
    s, t = rng.normal(size=(20_000, 64)), rng.normal(0.3, 1.2, (20_000, 64))
    peak = peak_bytes(lambda: weight_profile(s, t, 0.1, "scalar", 0.05))
    assert peak < 0.75 * s.nbytes


def test_a_short_pair_shares_one_sides_chunk_budget():
    # One 1000 x 64 side fills the chunk budget of BLOCK_ROWS rows of one side
    # by itself, so the pair is trimmed half its columns per side at a time:
    # a chunk and a distance buffer of one side's size, as when the sides
    # ran one after the other (2.26x). Chunks of both whole sides would
    # peak at about 4.4x.
    rng = np.random.default_rng(18)
    s, t = rng.normal(size=(1000, 64)), rng.normal(0.3, 1.2, (1000, 64))
    peak = peak_bytes(lambda: weight_profile(s, t, 0.1, "scalar", 0.05))
    assert peak < 2.37 * s.nbytes


def test_a_training_pair_is_trimmed_under_a_small_ufunc_buffer():
    # The training regularizer's shape: a 200 x 16 sigmoid pair, trimmed in
    # one 32 x 200 chunk. Its rows are short enough for numpy to buffer the
    # broadcast medians and cuts; under a BLOCK_ROWS buffer the profile peaks
    # at 4.7x one side, and under numpy's default buffer at 6.4x.
    rng = np.random.default_rng(3)
    s, t = 1.0 / (1.0 + np.exp(-rng.normal(size=(2, 200, 16))))
    peak = peak_bytes(lambda: weight_profile(s, t, 0.1, "scalar", 0.05))
    assert peak < 5.5 * s.nbytes


def test_cmd_gradient_peak(moment_pair):
    s, t = moment_pair
    peak = peak_bytes(lambda: cmd_with_gradient(s, t, 5))
    assert peak < 2.75 * s.nbytes


def test_cmd_gradient_holds_one_block_of_centred_rows_on_two_cpus(monkeypatch):
    monkeypatch.setattr(moments, "_CPUS", 2)
    rng = np.random.default_rng(16)
    s, t = rng.normal(size=(20_000, 64)), rng.normal(0.3, 1.2, (20_000, 64))
    peak = peak_bytes(lambda: cmd_with_gradient(s, t, 5))
    # The two gradients, plus one BLOCK_ROWS block of centred rows (0.05x one
    # side) shared by the two threads' half-height blocks.
    assert peak < 2.1 * s.nbytes


# On one CPU the value peaks at the central-moment pass of one side: two
# blocks and a numpy ufunc buffer. On two the passes of both sides may
# overlap. One side's gradient alone would be 1x.
@pytest.mark.parametrize("cpus, limit", [(1, 0.75), (2, 1.5)])
def test_cmd_builds_no_gradient(moment_pair, monkeypatch, cpus, limit):
    monkeypatch.setattr(moments, "_CPUS", cpus)
    s, t = moment_pair
    peak = peak_bytes(lambda: cmd(s, t, 5))
    assert peak < limit * s.nbytes


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


@pytest.mark.parametrize("with_gradient", [False, True])
@pytest.mark.parametrize("bandwidth", ["median", 1.0])
@pytest.mark.parametrize("m_s, m_t, d", [(1000, 1000, 16), (1100, 1000, 4)])
def test_mmd_above_one_block_walks_the_median_blocks(m_s, m_t, d, bandwidth, with_gradient):
    # A pool above 1,024 rows builds its kernel in the median's 1 MB row
    # blocks, so no 8 MB kernel block sets the peak: 4.2 to 4.9 MB at the
    # median, below 2 MB at a fixed bandwidth.
    from dwmd.discrepancy import BLOCK_ENTRIES

    rng = np.random.default_rng(19)
    s, t = rng.normal(size=(m_s, d)), rng.normal(0.5, 1.0, (m_t, d))
    call = mmd_rbf_with_gradient if with_gradient else mmd_rbf
    peak = peak_bytes(lambda: call(s, t, bandwidth))
    assert peak < 0.6 * 8 * BLOCK_ENTRIES


def test_median_bandwidth_holds_no_pooled_matrix():
    from dwmd.discrepancy import MEDIAN_ROWS, median_heuristic_bandwidth

    x = np.random.default_rng(15).normal(size=(MEDIAN_ROWS, 4))
    peak = peak_bytes(lambda: median_heuristic_bandwidth(x))
    assert peak < 0.25 * 8 * MEDIAN_ROWS**2


def test_validate_samples_checks_one_block_at_a_time():
    x = np.random.default_rng(17).normal(size=(20_000, 64))
    peak = peak_bytes(lambda: moments.validate_samples(x))
    assert peak < 0.05 * x.nbytes


def test_raw_moments_keep_one_scratch_array(moment_pair):
    s, _ = moment_pair
    peak = peak_bytes(lambda: raw_moments(s, 5))
    assert peak < 0.5 * s.nbytes


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


@pytest.mark.parametrize("activation", ["sigmoid", "relu"])
def test_network_pass_holds_one_array_per_layer(activation):
    rng = np.random.default_rng(14)
    model = init_model(NetworkSpec((2, 64, 2), (activation,), (0,)))
    x, y = rng.normal(size=(1000, 2)), rng.integers(0, 2, 1000)
    hidden_layer = 8 * 1000 * 64
    peak = peak_bytes(lambda: evaluate(model, x, y))
    assert peak < 1.5 * hidden_layer


def test_a_training_step_drops_the_regularizer_gradients_before_backward():
    # dwmd returns a short pair's two gradients as column halves of one
    # (200, 32) array. The step scales them into new arrays; were the halves
    # kept beside those, the peak would rise by about that pair's bytes.
    rng = np.random.default_rng(15)
    model = init_model(NetworkSpec((2, 16, 2), ("sigmoid",), (0,)))
    x_s, x_t, y_s = rng.normal(size=(200, 2)), rng.normal(size=(200, 2)), rng.integers(0, 2, 200)
    cfg = TrainConfig(regularizer="dwmd")
    peak = peak_bytes(lambda: objective_gradient(model, x_s, y_s, x_t, cfg))
    assert peak < 0.24e6


def _step_peak(sizes, matched, regularizer, rows, seed):
    """objective_gradient's peak on a sigmoid net, in units of one hidden
    layer's activations over the source rows stacked on the target rows."""
    rng = np.random.default_rng(seed)
    model = init_model(NetworkSpec(sizes, ("sigmoid",) * (len(sizes) - 2), matched))
    x_s, x_t = rng.normal(size=(rows, sizes[0])), rng.normal(0.5, 1.0, (rows, sizes[0]))
    y_s = rng.integers(0, sizes[-1], rows)
    cfg = TrainConfig(regularizer=regularizer)
    peak = peak_bytes(lambda: objective_gradient(model, x_s, y_s, x_t, cfg))
    return peak / (8 * 2 * rows * sizes[1])


@pytest.mark.parametrize("regularizer", ["dwmd", "smd", "cmd"])
def test_a_step_adds_and_drops_the_regularizer_gradients_before_the_slope(regularizer):
    # The backward pass pops each λ-scaled pair, adds it into delta and drops
    # it before the sigmoid slope is built. Holding the pair until the pass
    # returned peaked at 4.02x for all three; dropped, the step reads 3.15x
    # (dwmd, smd) and 3.02x (cmd).
    assert _step_peak((2, 256, 2), (0,), regularizer, 512, 19) < 3.5


@pytest.mark.parametrize("regularizer, limit", [("dwmd", 5.75), ("none", 2.5)])
def test_a_deep_step_drops_each_slope_before_the_next_delta(regularizer, limit):
    # Each sigmoid slope is dropped once delta has been multiplied by it,
    # before delta @ W.T builds the next layer's delta. Kept alive into that
    # product, the step peaked at 6.27x (dwmd) and 2.76x (none, which passes
    # the source rows alone); dropped, it reads 5.27x and 2.26x.
    assert _step_peak((2, 256, 256, 2), (0,), regularizer, 512, 20) < limit


def test_a_tall_pair_trims_a_quarter_of_each_side_at_a_time(monkeypatch):
    # At 10k x 32 a chunk has d // 8 = 4 columns: the chunk and its distance
    # buffer hold a quarter of a side's columns, and the two sides run at
    # once on two CPUs, so the profile peaks at about half of one side
    # (0.54x). Chunks of 8 columns, a floor of d // 4, peaked at 1.07x.
    monkeypatch.setattr(moments, "_CPUS", 2)
    rng = np.random.default_rng(1)
    s, t = rng.normal(size=(10_000, 32)), rng.normal(0.3, 1.2, (10_000, 32))
    peak = peak_bytes(lambda: weight_profile(s, t, 0.1, "scalar", 0.05))
    assert peak < 0.6 * s.nbytes


@pytest.mark.parametrize("rows", [1000, 600])
def test_the_mmd_median_holds_one_distance_block_at_a_time(rows):
    # Each 1 MB block of squared distances, its pair mask and the bits taken
    # from it are dropped before the next block is built, and the bucket
    # counts before the middle buckets are gathered: 3.52 MB (1000 rows per
    # side) and 3.39 MB (600). Held into the next block, they read 4.88 and
    # 4.17 MB.
    rng = np.random.default_rng(19)
    s, t = rng.normal(size=(rows, 16)), rng.normal(0.5, 1.0, (rows, 16))
    peak = peak_bytes(lambda: mmd_rbf_with_gradient(s, t, "median"))
    assert peak < 3.8e6
