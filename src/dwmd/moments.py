"""Empirical moment sequences of sample matrices.

A sample matrix is an (m, d) array of real feature activations, one row per
sample. All statistics are computed per dimension (per column) in double
precision, whatever the storage dtype of the input.
"""

import numpy as np

__all__ = [
    "MomentOverflowError",
    "validate_samples",
    "raw_moments",
    "central_moments",
    "standardize_pooled",
]


class MomentOverflowError(FloatingPointError):
    """A moment computation produced a non-finite value (overflow at high order)."""


def validate_samples(samples, name="samples"):
    """Coerce to a float64 (m, d) matrix and check the sample-matrix invariants.

    Raises ValueError on wrong rank, empty axes, or non-finite entries.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D (m, d) matrix, got shape {arr.shape}")
    m, d = arr.shape
    if m < 1 or d < 1:
        raise ValueError(f"{name}: need m >= 1 and d >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{name}: non-finite entry at row {i}, column {j}")
    return arr


def _validate_pair(source, target):
    """Validate a source/target pair of sample matrices that must share the
    feature dimension d; returns the two float64 matrices."""
    s = validate_samples(source, "source")
    t = validate_samples(target, "target")
    if s.shape[1] != t.shape[1]:
        raise ValueError(
            f"feature-dimension mismatch: source has d={s.shape[1]}, "
            f"target has d={t.shape[1]}"
        )
    return s, t


def _power_means(x, n, what):
    """Column means of x^k for k = 1..n as an (n, d) array, by running
    powers; a non-finite mean raises MomentOverflowError naming the order."""
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    out = np.empty((n, x.shape[1]), dtype=np.float64)
    power = x
    with np.errstate(over="ignore"):
        for k in range(1, n + 1):
            if k > 1:
                power = power * x
            out[k - 1] = power.mean(axis=0)
            if not np.all(np.isfinite(out[k - 1])):
                j = int(np.argwhere(~np.isfinite(out[k - 1]))[0, 0])
                raise MomentOverflowError(
                    f"non-finite {what} moment at order {k}, dimension {j}; "
                    "consider standardizing the inputs"
                )
    return out


def raw_moments(samples, n):
    """Per-dimension empirical raw moments E[X^k] for k = 1..n.

    Returns an (n, d) array where row k-1 holds the column means of the k-th
    elementwise power. Deterministic and independent of row order (numpy's
    pairwise summation over a fixed-length axis).
    """
    return _power_means(validate_samples(samples), n, "raw")


def central_moments(samples, n):
    """Per-dimension central moments: row 0 is the column mean, row k-1 for
    k >= 2 is the mean of (x - mean)^k."""
    return _central_moments(validate_samples(samples), n)


def _central_moments(x, n):
    """central_moments of an already validated float64 matrix."""
    mu = x.mean(axis=0)
    out = _power_means(x - mu, n, "central")
    out[0] = mu
    return out


def standardize_pooled(source, target):
    """Shift and scale both matrices by the pooled per-dimension mean and
    (population) standard deviation of their union.

    Dimensions with pooled std 0 are shifted only. Returns a new pair; the
    inputs are not modified.
    """
    s, t = _validate_pair(source, target)
    mu, scale = _pooled_mean_scale(s, t)
    return (s - mu) / scale, (t - mu) / scale


def _pooled_mean_scale(source, target):
    """Per-dimension mean and scale of the union of two validated matrices;
    the scale is the population std, or 1 where that std is 0."""
    pooled = np.vstack([source, target])
    sd = pooled.std(axis=0)
    return pooled.mean(axis=0), np.where(sd > 0.0, sd, 1.0)
