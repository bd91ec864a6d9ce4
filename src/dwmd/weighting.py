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
distances tie. The samples are first copied to one contiguous row per
dimension, transposed in blocks of TRANSPOSE_ROWS rows so that each block
stays in cache.
"""

from dataclasses import dataclass

import numpy as np

from .moments import _validate_pair, validate_samples

__all__ = ["WeightProfile", "robust_dim_means", "weight_profile", "TAU_FLOOR", "C_FLOOR", "C_POLICIES"]

# Floor for normalized weights: a zero-gap dimension gets weight
# exp(-psi*n/TAU_FLOOR) ~ 0 instead of a division by zero.
TAU_FLOOR = 1e-6
# Floor for C under the tau-derived policies (C must stay strictly positive).
C_FLOOR = 1e-8
# The ways the series constant C can be resolved (see resolve_c).
C_POLICIES = ("scalar", "tau_first", "tau_vector")
# Rows per block of the transpose in the trimmed means: a 1024 x 64 float64
# block is 512 KB, inside a 2 MiB L2 with room for its transposed copy.
TRANSPOSE_ROWS = 1024


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
    return _trimmed_means(validate_samples(samples), alpha)


def _trimmed_means(x, alpha):
    """robust_dim_means of an already validated float64 matrix."""
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"alpha must be in [0, 0.5), got {alpha}")
    m = x.shape[0]
    n_drop = int(np.ceil(alpha * m))
    n_keep = m - n_drop
    if n_keep < 1:
        raise ValueError(f"trimming with alpha={alpha} would discard all {m} samples")
    if n_drop == 0:
        return x.mean(axis=0)
    # One contiguous row per dimension: median and partition run along it.
    cols = np.empty((x.shape[1], m))
    for start in range(0, m, TRANSPOSE_ROWS):
        cols[:, start : start + TRANSPOSE_ROWS] = x[start : start + TRANSPOSE_ROWS].T
    del start  # else the loop's last int object counts in the peak below
    dist = cols.copy()
    med = _median_in_place(dist)[:, None]
    np.abs(np.subtract(cols, med, out=dist), out=dist)
    # The n_keep-th smallest distance, selected in place; recomputing the
    # distances afterwards restores row order without a second m x d buffer.
    dist.partition(n_keep - 1, axis=1)
    thr = dist[:, n_keep - 1 : n_keep].copy()
    np.abs(np.subtract(cols, med, out=dist), out=dist)
    keep = dist < thr
    tied = dist == thr
    del dist
    # Among distances equal to thr keep the earliest rows, as a stable sort
    # would; only dimensions with more ties than places left need the count.
    need = n_keep - np.count_nonzero(keep, axis=1)
    surplus = np.flatnonzero(np.count_nonzero(tied, axis=1) > need)
    if surplus.size:
        tied[surplus] &= np.cumsum(tied[surplus], axis=1) <= need[surplus, None]
    keep |= tied
    return cols.sum(axis=1, where=keep) / n_keep


def resolve_c(tau, c_policy, c_value=None):
    """Resolve the series constant C from the weight vector per policy.

    scalar:     the user-supplied constant (must be > 0).
    tau_first:  the first component of tau, floored at C_FLOOR.
    tau_vector: tau elementwise, floored at C_FLOOR.
    """
    if c_policy == "scalar":
        if c_value is None or not c_value > 0.0:
            raise ValueError(f"scalar C policy needs a positive constant, got {c_value}")
        return float(c_value)
    if c_policy == "tau_first":
        return max(float(tau[0]), C_FLOOR)
    if c_policy == "tau_vector":
        return np.maximum(tau, C_FLOOR)
    raise ValueError(f"unknown c_policy {c_policy!r}")


def weight_profile(source, target, alpha=0.1, c_policy="scalar", c_value=0.05):
    """Build the WeightProfile for a source/target pair.

    Symmetric in its two sample arguments. When all robust-mean gaps are zero
    the normalized vector degenerates to all-ones (uniform weighting).
    """
    s, t = _validate_pair(source, target)
    tau = np.abs(_trimmed_means(s, alpha) - _trimmed_means(t, alpha))
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
