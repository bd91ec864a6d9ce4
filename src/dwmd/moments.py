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

The two domains of a pair are reduced apart and meet only where their results
are subtracted, so _both runs a pair's two calls, one per side, on two threads
(numpy releases the interpreter lock in its array loops) when both sides have
more than BLOCK_ROWS rows and the process may run on two CPUs. No per-column
computation changes with the thread, so the results are bit-identical either
way. A short pair, two sides of one shape with at most BLOCK_ROWS rows (every
regularized training step has one), runs on the calling thread, and its raw
moments come from one pass over a copy of its two sides side by side when
numpy sums each side row by row (C order, d >= 2): such a column sum keeps
its bits beside other columns, and the pair pays numpy's per-call and
per-row costs once. Its scratch is then one block of the 2d-wide copy, and
the copy goes back to the caller, whose series gradient of both sides takes
one pass over it too.

The package's argument checks are written here too, all on _check.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "BLOCK_ROWS",
    "MomentOverflowError",
    "validate_samples",
    "raw_moments",
    "central_moments",
    "standardize_pooled",
]

# Rows per block of the moment and trimming passes (the power series takes
# half as many, one half block per thread): a 1024 x 64 float64 block is
# 512 KB, inside a 2 MiB L2 with room for a second block beside it.
BLOCK_ROWS = 1024

# CPUs this process may run on, read once at import (so `taskset -c 0`
# keeps every pass on the calling thread).
_CPUS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


class MomentOverflowError(FloatingPointError):
    """A moment computation produced a non-finite value (overflow at high
    order), or MMD's squared row norms could overflow its squared distances."""


def _check(name, value, ok, what, show=repr):
    """Raise ValueError("<name> must be <what>, got <value>") unless ok. A
    type rule shows the value by repr, a range rule (show=str) by str."""
    if not ok:
        raise ValueError(f"{name} must be {what}, got {show(value)}")


# The number types the checks take (not the numbers ABCs, on which
# isinstance costs about 1 us, a cost paid per training step).
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def _is_real(value, kind=_REALS):
    """Whether value is an instance of kind, real numbers unless given
    (numpy numbers included, bool not)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_count(name, value):
    """Raise ValueError naming the field unless value is an integer >= 1
    (numpy integers included, bool not)."""
    _check(name, value, _is_real(value, _INTEGERS), "an integer")
    _check(name, value, value >= 1, ">= 1", str)


def _check_real(name, value, ok=None, what=None):
    """Raise ValueError naming the field unless value is a real number
    (numpy numbers included, bool not) and ok(value), stated as what, holds."""
    _check(name, value, _is_real(value), "a real number")
    if ok is not None:
        _check(name, value, ok(value), what, str)


def _check_seed(seed):
    """A random seed's rule: an integer >= 0 (numpy integers included, bool
    and None not, so a seeded call never draws fresh entropy)."""
    _check("seed", seed, _is_real(seed, _INTEGERS) and seed >= 0, "an integer >= 0")


def _sequence(name, values, kind=float):
    """values as a tuple of kind (int, float or str); a ValueError names the
    field unless it is a sequence, not a string, of integers, real numbers
    or strings (numpy numbers included, bool not)."""
    types, what = {
        int: (_INTEGERS, "integers"), float: (_REALS, "real numbers"), str: (str, "strings")
    }[kind]
    try:
        items = None if isinstance(values, str) else tuple(values)
    except TypeError:
        items = None
    ok = items is not None and all(_is_real(v, types) for v in items)
    _check(name, values, ok, f"a list of {what}")
    return tuple(kind(v) for v in items)


def _finite_vector(name, values, d):
    """values as a float64 d-vector; a ValueError names the field unless it
    is a list of d finite real numbers."""
    v = np.array(_sequence(name, values))
    ok = v.shape == (d,) and bool(np.isfinite(v).all())
    _check(name, values, ok, f"a list of {d} finite numbers")
    return v


def validate_samples(samples, name="samples"):
    """Coerce to a float64 (m, d) matrix and check the sample-matrix invariants.

    Raises ValueError on wrong rank, empty axes, or non-finite entries; the
    entries are checked BLOCK_ROWS rows at a time.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-D (m, d) matrix, got shape {arr.shape}")
    m, d = arr.shape
    if m < 1 or d < 1:
        raise ValueError(f"{name}: need m >= 1 and d >= 1, got shape {arr.shape}")
    for row in range(0, m, BLOCK_ROWS):
        finite = np.isfinite(arr[row : row + BLOCK_ROWS])
        if not finite.all():
            i, j = np.argwhere(~finite)[0]
            raise ValueError(f"{name}: non-finite entry at row {row + i}, column {j}")
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


def _both(fn, first, second):
    """(fn(*first), fn(*second)), each argument tuple starting with its
    side's sample matrix. The second call runs on a worker thread, joined
    before this returns, when both matrices have more than BLOCK_ROWS rows
    and the process may run on two CPUs.

    The worker runs under the caller's numpy error state. If the first call
    raises, its error is raised once the second has finished, whatever that did.

    fn must be a private kernel that calls no public function of the package.
    The benchmark's span tracer (bench/tracing.py) wraps the public functions
    with one span stack shared by all threads, so a traced call such as
    validate_samples or central_moments made on the worker would be nested
    under whatever the calling thread has open and corrupt the per-function
    self times.
    """
    if min(first[0].shape[0], second[0].shape[0]) <= BLOCK_ROWS or _CPUS < 2:
        return fn(*first), fn(*second)
    errors = np.geterr()

    def run_second():
        with np.errstate(**errors):
            return fn(*second)

    with ThreadPoolExecutor(1) as pool:
        later = pool.submit(run_second)
        # If the first call raises, leaving the block joins the worker and
        # the second's outcome, error or not, is dropped.
        result = fn(*first)
    return result, later.result()


def _short_pair(s, t):
    """Whether s and t have one shape with at most BLOCK_ROWS rows: a pair
    that _both runs inline, and whose two sides a kernel may then take in one
    pass (every regularized training step pairs two equal batches)."""
    return s.shape == t.shape and s.shape[0] <= BLOCK_ROWS


def _row_blocks(x):
    """Row slices that cover x, for a reduction that works one block at a
    time (an elementwise pass may cut any layout into blocks).

    A column sum of a matrix numpy sums row by row (_sums_by_rows) keeps its
    bits when carried from one block of BLOCK_ROWS rows to the next. Any
    other matrix (d = 1, F order, a strided view) may be summed pairwise, by
    a rule that depends on m, and stays one block.
    """
    if not _sums_by_rows(x):
        return [slice(0, x.shape[0])]
    return [slice(start, start + BLOCK_ROWS) for start in range(0, x.shape[0], BLOCK_ROWS)]


def _sums_by_rows(x):
    """Whether numpy reduces axis 0 of the matrix x row by row, adding each
    row to the running column sums: x is C-contiguous with d >= 2. Such a
    column sum keeps its bits however the rows are cut into blocks, and
    whatever columns stand beside it in a wider C-contiguous matrix."""
    return x.shape[1] >= 2 and x.flags.c_contiguous


def _power_means(x, n, what, shift=None, sides=1):
    """Column means of (x - shift)^k for k = 1..n as an (n, d) array (of x^k
    when shift is None), for a checked order n. A non-finite mean raises
    MomentOverflowError naming the lowest such order. x may hold
    sides equal-width matrices side by side; the error then names the first
    side's lowest order and its own column, as one call per side would.

    Each block of rows is centred as it is read. Each order's column sums run
    on from block to block and all orders are divided by m once at the end.
    That is what .mean(axis=0) does per order, so the result is bit-identical
    to it. The scratch arrays follow the layout of x, so a one-block input is
    reduced in the order numpy reduces x itself.
    """
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
        bad = ~np.isfinite(out.reshape(n, sides, -1).swapaxes(0, 1))
        _, k, j = np.argwhere(bad)[0]
        raise MomentOverflowError(
            f"non-finite {what} moment at order {k + 1}, dimension {j}; "
            "consider standardizing the inputs"
        )
    return out


def _raw_moment_pair(s, t, n):
    """The raw moments of orders 1..n of s and of t, and the side-by-side
    copy of both sides they were reduced from (None if there was none). A
    short pair whose sides numpy sums row by row (_short_pair, _sums_by_rows)
    is reduced in one pass over that copy, every column with the bits of its
    own side's pass; any other pair runs one pass per side, through _both."""
    if _short_pair(s, t) and _sums_by_rows(s) and _sums_by_rows(t):
        both = np.concatenate((s, t), axis=1)
        moments = _power_means(both, n, "raw", sides=2)
        return moments[:, : s.shape[1]], moments[:, s.shape[1] :], both
    return *_both(_power_means, (s, n, "raw"), (t, n, "raw")), None


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
    x = validate_samples(samples)
    _check_count("n", n)
    return _power_means(x, n, "raw")


def central_moments(samples, n):
    """Per-dimension central moments: row 0 is the column mean, row k-1 for
    k >= 2 is the mean of (x - mean)^k."""
    x = validate_samples(samples)
    _check_count("n", n)
    return _central_moments(x, n)[0]


def _central_moments(x, n):
    """central_moments of a validated float64 matrix for a checked order n,
    and the column mean it centres on, which CMD's gradient reuses."""
    mu = x.mean(axis=0)
    out = _power_means(x, n, "central", mu)
    out[0] = mu
    return out, mu


def standardize_pooled(source, target):
    """Shift and scale both matrices by the pooled per-dimension mean and
    (population) standard deviation of their union.

    Dimensions with pooled std 0 are shifted only. Returns a new pair; the
    inputs are not modified.
    """
    s, t = _validate_pair(source, target)
    stats = _pooled_mean_scale(s, t)
    return _standardized(s, *stats), _standardized(t, *stats)


def _pooled_mean_scale(source, target):
    """Per-dimension statistics of the union of two validated matrices,
    taken on each column times 2^-k, k the binary exponent of its largest
    |x|. The scaled column lies in (-1, 1), so no sum in the statistics
    overflows, and a pair scaled exactly by a power of two gets the
    statistics, and the standardized values, of the unscaled pair. Returns
    (mean, scale, k): the mean and scale of the scaled columns, the scale
    their population std or 1 where that std is 0, and the exponents k."""
    pooled = np.concatenate((source, target))
    k = np.frexp(np.maximum(pooled.max(axis=0), -pooled.min(axis=0)))[1]
    np.ldexp(pooled, -k, out=pooled)
    sd = pooled.std(axis=0)
    return pooled.mean(axis=0), np.where(sd > 0.0, sd, 1.0), k


def _standardized(x, mean, scale, k):
    """(x * 2^-k - mean) / scale, for the statistics _pooled_mean_scale
    returns, as one new array."""
    z = np.ldexp(x, -k)
    z -= mean
    z /= scale
    return z
