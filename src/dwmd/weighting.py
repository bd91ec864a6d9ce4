"""Dimensional weighting between two domains.

The weight vector tau holds, per feature dimension, the absolute gap between
outlier-trimmed means of the source and target samples. Its max-normalization
tau_normalized drives the per-order exponential weights of the discrepancy
series; the constant C of the series is resolved here as well.

The trimming estimator: per dimension, drop the ceil(alpha * m) samples
farthest from that dimension's median, then average the rest. A 1-D one-class
decision boundary is an interval, so this matches one-class outlier removal on
each dimension while staying deterministic and dependency-free. The cut is
found by selection (introselect, through np.partition) in expected O(m) time
per dimension, not by sorting; among samples tied at the cut the earliest rows
are kept, so a row permutation moves a trimmed mean only by rounding when no
distances tie. The columns are trimmed in chunks of about as many entries as
BLOCK_ROWS rows (a batch of up to BLOCK_ROWS rows is one chunk), each
gathered BLOCK_ROWS rows at a time into one contiguous row per dimension,
where the median, distances, selections and masked sum run with one distance
buffer of the same size. The two sides of a short pair (one shape, at most
BLOCK_ROWS rows: every regularized training step) are trimmed in one chunk
loop whose chunks gather the same columns of both sides and share one side's
budget of entries, so a training batch pair is one chunk; the sides of any
other pair run as a pair through moments._both. Every row of a chunk is
reduced on its own, so the means are bit-identical either way. numpy buffers
a broadcast operand over rows of at most half its buffer size (4096 entries),
up to a whole chunk of a training pair: the medians are then copied across
the distance buffer, and the threshold is compared under a buffer of
BLOCK_ROWS entries.
"""

from dataclasses import dataclass

import numpy as np

from .moments import (
    BLOCK_ROWS, _both, _check, _check_real, _is_real, _short_pair, _validate_pair,
    validate_samples,
)

__all__ = ["WeightProfile", "robust_dim_means", "weight_profile", "TAU_FLOOR", "C_FLOOR", "C_POLICIES"]

# Floor for normalized weights: a zero-gap dimension gets weight
# exp(-psi*n/TAU_FLOOR) ~ 0 instead of a division by zero.
TAU_FLOOR = 1e-6
# Floor for C under the tau-derived policies (C must stay strictly positive).
C_FLOOR = 1e-8
# The ways the series constant C can be resolved (see resolve_c).
C_POLICIES = ("scalar", "tau_first", "tau_vector")


@dataclass(frozen=True)
class WeightProfile:
    """Per-dimension weighting state shared by the discrepancy functions.

    tau:            d-vector of robust-mean gaps (nonnegative).
    tau_normalized: tau / tau_max, floored at TAU_FLOOR, every entry in (0, 1];
                    all-ones when tau_max == 0 (no dimensional signal).
    tau_max:        max of tau.
    c_resolved:     scalar or d-vector, strictly positive.
    alpha:          trimming fraction used to build tau.
    """

    tau: np.ndarray
    tau_normalized: np.ndarray
    tau_max: float
    c_resolved: float | np.ndarray
    alpha: float

    @property
    def d(self):
        return self.tau.shape[0]


def _median_in_place(buf, skip=0):
    """Median along the last axis of buf[..., skip:], as np.median computes
    it, from one partition of buf in place (buf is reordered).

    The skip leading entries of each row must be no larger than any other
    entry (e.g. -inf padding). The upper middle value is selected; for an even
    count the lower middle is the max of the part below it. The result is a
    copy, so buf may be overwritten afterwards.
    """
    count = buf.shape[-1] - skip
    k = skip + count // 2
    buf.partition(k, axis=-1)
    upper = buf[..., k]
    if count % 2:
        return upper.copy()
    return (buf[..., :k].max(axis=-1) + upper) / 2


def robust_dim_means(samples, alpha):
    """Trimmed column means: per dimension, discard the ceil(alpha*m) samples
    farthest (in absolute distance) from the column median, average the rest.

    The kept samples are those below the (m - ceil(alpha*m))-th smallest
    distance, found by selection in expected O(m) per dimension, plus as many
    of the samples at that distance as still fit, earliest rows first (the
    rule of a stable sort). The sum runs in row order, so permuting rows
    without tied distances changes a mean only by rounding.

    alpha = 0 returns plain column means.
    """
    x = validate_samples(samples)
    _check_alpha(alpha)
    return _trimmed_means(x, alpha)


def _check_alpha(alpha):
    """The trimming fraction's rule: a real number in [0, 0.5)."""
    _check_real("alpha", alpha, lambda a: 0.0 <= a < 0.5, "in [0, 0.5)")


def _trimmed_means(x, alpha):
    """robust_dim_means of an already validated float64 matrix x and a
    checked alpha, or, for a tuple x of equal-shape matrices (the sides of a
    pair), a tuple of one mean vector per side from one chunk loop, whose
    chunks gather the same columns of every side."""
    if not isinstance(x, tuple):
        return _trimmed_means((x,), alpha)[0]
    m, d = x[0].shape
    n_drop = int(np.ceil(alpha * m))
    n_keep = m - n_drop
    if n_keep < 1:
        raise ValueError(f"trimming with alpha={alpha} would discard all {m} samples")
    if n_drop == 0:
        return tuple(side.mean(axis=0) for side in x)
    # Columns per side and chunk: about as many entries in all as BLOCK_ROWS
    # rows of one side, and at least a cache line of 8 once d >= 32.
    width = min(d, max(BLOCK_ROWS * d // (len(x) * m), min(8, d // 4), 1))
    # One contiguous row per dimension: median and partition run along it.
    chunk, dist = np.empty((2, len(x) * width, m))
    sums = np.empty((len(x), d))
    for j in range(0, d, width):
        w = min(width, d - j)
        cols = chunk[: len(x) * w]
        for i, side in enumerate(x):
            for row in range(0, m, BLOCK_ROWS):
                rows = slice(row, row + BLOCK_ROWS)
                cols[i * w : (i + 1) * w, rows] = side[rows, j : j + w].T
        sums[:, j : j + w] = _kept_sums(cols, dist[: cols.shape[0]], n_keep).reshape(-1, w)
    return tuple(sums / n_keep)


def _kept_sums(cols, dist, n_keep):
    """Per row of cols, the sum of the n_keep entries nearest the row's
    median (ties at the cut broken towards the earliest entries), in entry
    order; dist is a scratch array of the same shape."""
    np.copyto(dist, cols)
    med = _median_in_place(dist)[:, None]
    _distances(cols, med, dist)
    # The n_keep-th smallest distance, selected in place. The entries after
    # it are no smaller, so a row has more distances at the cut than places
    # left iff one of them equals it. Recomputing the distances afterwards
    # restores row order without a second buffer.
    dist.partition(n_keep - 1, axis=1)
    thr = dist[:, n_keep - 1 : n_keep].copy()
    surplus = np.flatnonzero(dist[:, n_keep:].min(axis=1) == thr[:, 0])
    _distances(cols, med, dist)
    # thr is broadcast too, and dist holds no room to copy it across: compare
    # under a buffer of BLOCK_ROWS entries (see _distances).
    bufsize = np.setbufsize(BLOCK_ROWS)
    try:
        keep = dist <= thr
    finally:
        np.setbufsize(bufsize)
    if surplus.size:
        # Among distances equal to thr keep the earliest rows, as a stable
        # sort would.
        near, cut = dist[surplus], thr[surplus]
        tied = near == cut
        need = n_keep - np.count_nonzero(near < cut, axis=1)
        keep[surplus] &= ~tied | (np.cumsum(tied, axis=1) <= need[:, None])
    return cols.sum(axis=1, where=keep)


def _distances(cols, med, dist):
    """|cols - med| for a (w, 1) med, in dist. numpy buffers a broadcast
    operand whose rows are at most half its buffer size long, up to a buffer
    (8192 entries) the size of the whole operation, and runs slower so; med
    is then copied across dist first. Longer rows take it as it is."""
    if 2 * cols.shape[1] <= np.getbufsize():
        np.copyto(dist, med)
        med = dist
    np.subtract(cols, med, out=dist)
    np.abs(dist, out=dist)


def _check_c(c_policy, c_value):
    """The C arguments' rule: a known c_policy and a real c_value, which under
    the scalar policy must be finite (an infinite C makes the gradient NaN)
    and > 0, and under the others may be None."""
    _check("c_value", c_value, c_value is None or _is_real(c_value), "a real number")
    if c_policy not in C_POLICIES:
        raise ValueError(f"unknown c_policy {c_policy!r}")
    if c_policy == "scalar":
        ok = c_value is not None and 0.0 < c_value < np.inf
        _check("c_value", c_value, ok, "a finite number > 0 under the scalar C policy", str)


def resolve_c(tau, c_policy, c_value=None):
    """Resolve the series constant C from the weight vector per policy, for
    C arguments _check_c has passed.

    scalar:     the user-supplied constant (> 0).
    tau_first:  the first component of tau, floored at C_FLOOR.
    tau_vector: tau elementwise, floored at C_FLOOR.
    """
    if c_policy == "scalar":
        return float(c_value)
    if c_policy == "tau_first":
        return max(float(tau[0]), C_FLOOR)
    return np.maximum(tau, C_FLOOR)


def weight_profile(source, target, alpha=0.1, c_policy="scalar", c_value=0.05):
    """Build the WeightProfile for a source/target pair.

    Symmetric in its two sample arguments. When all robust-mean gaps are zero
    the normalized vector degenerates to all-ones (uniform weighting). The
    series calls, whose samples and config are checked already, build their
    profile with _profile instead.
    """
    s, t = _validate_pair(source, target)
    _check_alpha(alpha)
    _check_c(c_policy, c_value)
    return _profile(s, t, alpha, c_policy, c_value)


def _profile(s, t, alpha, c_policy, c_value):
    """weight_profile of a validated pair for checked arguments."""
    if _short_pair(s, t):
        means = _trimmed_means((s, t), alpha)
    else:
        rows = min(s.shape[0], t.shape[0])
        means = _both(lambda: _trimmed_means(s, alpha), lambda: _trimmed_means(t, alpha), rows)
    tau = np.abs(means[0] - means[1])
    tau_max = float(tau.max())
    if tau_max > 0.0:
        tau_normalized = np.maximum(tau / tau_max, TAU_FLOOR)
    else:
        tau_normalized = np.ones_like(tau)
    return WeightProfile(
        tau=tau,
        tau_normalized=tau_normalized,
        tau_max=tau_max,
        c_resolved=resolve_c(tau, c_policy, c_value),
        alpha=alpha,
    )
