"""Empirical moment sequences of sample matrices.

A sample matrix is an (m, d) array of real feature activations, one row per
sample. All statistics are computed per dimension (per column) in double
precision, whatever the storage dtype of the input.

The moments of orders 1..n come from one walk over the rows, BLOCK_ROWS at a
time: every order is reduced from a block while it sits in cache, and the
column sums run on across blocks in the order numpy would add the rows of
the whole matrix, so the result is bit-identical to one pass per order.
Besides its (n, d) result a moment call allocates one block of scratch (two
for central moments, whose blocks are centred as they are read). An input
numpy would sum pairwise (d = 1, F order, a strided view) stays one block,
its scratch in the input's layout, so that numpy adds its rows as in one pass.
"""

import numpy as np

__all__ = [
    "BLOCK_ROWS",
    "MomentOverflowError",
    "validate_samples",
    "raw_moments",
    "central_moments",
    "standardize_pooled",
]

# Rows per block of the moment, power-series and transpose passes: a
# 1024 x 64 float64 block is 512 KB, inside a 2 MiB L2 with room for a
# second block beside it.
BLOCK_ROWS = 1024


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


def _row_blocks(x):
    """Row slices that cover x, for a pass that works one block at a time.

    numpy reduces axis 0 of a C-contiguous matrix with d >= 2 row by row, so
    a column sum carried from one block of BLOCK_ROWS rows to the next keeps
    its bits. Any other matrix (d = 1, F order, a strided view) may be summed
    pairwise, by a rule that depends on m, and stays one block.
    """
    m, d = x.shape
    if d < 2 or not x.flags.c_contiguous:
        return [slice(0, m)]
    return [slice(start, start + BLOCK_ROWS) for start in range(0, m, BLOCK_ROWS)]


def _power_means(x, n, what, shift=None):
    """Column means of (x - shift)^k for k = 1..n as an (n, d) array (of x^k
    when shift is None); a non-finite mean raises MomentOverflowError naming
    the lowest such order.

    Each block of rows is centred as it is read. Each order's column sums run
    on from block to block and all orders are divided by m once at the end.
    That is what .mean(axis=0) does per order, so the result is bit-identical
    to it. The scratch arrays follow the layout of x, so a one-block input is
    reduced in the order numpy reduces x itself.
    """
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    out = np.empty((n, x.shape[1]), dtype=np.float64)
    blocks = _row_blocks(x)
    first = x[blocks[0]]
    scratch = np.empty_like(first, shape=(first.shape[0] + 1, x.shape[1]))
    centred = None if shift is None else np.empty_like(first)
    for i, rows in enumerate(blocks):
        block = x[rows]
        if shift is not None:
            block = np.subtract(block, shift, out=centred[: block.shape[0]])
        _sum_block_powers(block, out, scratch, carry=i > 0)
    out /= x.shape[0]
    if not np.isfinite(out).all():
        k, j = np.argwhere(~np.isfinite(out))[0]
        raise MomentOverflowError(
            f"non-finite {what} moment at order {k + 1}, dimension {j}; "
            "consider standardizing the inputs"
        )
    return out


def _sum_block_powers(block, out, scratch, carry):
    """Column sums of block^k for k = 1..len(out) into the rows of out, the
    powers built in place in scratch[1:b+1] for a block of b rows.

    Without carry, order 1 is reduced from the block itself and the block is
    never copied. With carry, out already holds the sums of the blocks
    before: each order's sum is copied into scratch[0] and reduced with the
    block's powers, which adds the rows to it one by one, as a single
    reduction of the whole matrix would.
    """
    b = block.shape[0]
    power = scratch[1 : b + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(out.shape[0]):
            terms = block
            if k:
                terms = np.multiply(block if k == 1 else power, block, out=power)
            elif carry:
                power[...] = block
            if carry:
                scratch[0] = out[k]
                terms = scratch[: b + 1]
            np.add.reduce(terms, axis=0, out=out[k])


def raw_moments(samples, n):
    """Per-dimension empirical raw moments E[X^k] for k = 1..n.

    Returns an (n, d) array where row k-1 holds the column means of the k-th
    elementwise power. Deterministic; reordering the rows changes it only
    by rounding.
    """
    return _power_means(validate_samples(samples), n, "raw")


def central_moments(samples, n):
    """Per-dimension central moments: row 0 is the column mean, row k-1 for
    k >= 2 is the mean of (x - mean)^k."""
    return _central_moments(validate_samples(samples), n)[0]


def _central_moments(x, n):
    """central_moments of an already validated float64 matrix, and the
    column mean it centres on (CMD's gradient centres with it again)."""
    mu = x.mean(axis=0)
    out = _power_means(x, n, "central", shift=mu)
    out[0] = mu
    return out, mu


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
