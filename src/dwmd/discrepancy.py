"""Distribution discrepancy metrics between two sample matrices.

The main metric is a truncated series over raw-moment orders: for order k and
dimension j the term is

    exp(-psi * k / tau_normalized[j]) * |dM|^beta / (C + |dM|^beta)

with dM the gap between the empirical k-th raw moments. Terms are summed over
dimensions and orders. The companion functions provide the gradient with
respect to the sample entries (for use as a training regularizer), the
geometric tail bound on the truncation error, and three comparison metrics:
the uniform-weight variant (SMD), central moment discrepancy (CMD), and a
Gaussian-kernel MMD.

Both moment gradients are power series in a sample entry: sum_k c_k x^k with
one (order, dimension) coefficient row per power, in the raw samples for the
series and in the centred samples for CMD (each block of rows is centred as it
is read, for the moments and the gradient alike, so no centred copy of a side
exists). One helper, _power_series, evaluates them by Horner's rule, into one
output array per sample matrix, one block of BLOCK_ROWS // 2 rows at a time,
under a ufunc buffer of BLOCK_ROWS entries: numpy buffers a broadcast
coefficient row over short rows, and that copy is then at most 8 KB, not
its default 64 KB.
The source and target sides of the series moments and gradient, and of the
CMD ranges, central moments and gradient, run on two threads when both sides
have more than BLOCK_ROWS rows and the process may run on two CPUs
(moments._both); the half-height blocks keep CMD's centred rows to one
BLOCK_ROWS block across both threads. The raw moments of a short pair (one
shape, at most BLOCK_ROWS rows, as in every training step) are reduced in one
pass over a copy of its two sides side by side where numpy sums them row by
row (moments._raw_moment_pair), and its profile is trimmed in one chunk loop.
Its gradient follows the moments: where they had that copy, both sides'
gradients come from one power series pass over it, whose coefficient rows
hold the source's and the target's side by side, and they are the two column
halves of its output; else each side has its own pass. Horner's rule works
entry by entry, so the gradients are bit-identical either way. cmd and
mmd_rbf stop at the value and build no gradient. The MMD kernel matrix of a
pool of at most 1,024 rows (BLOCK_ENTRIES entries) is held as one matrix;
any larger pool's value and gradient are accumulated over blocks of rows of
the kernel, about MEDIAN_BLOCK_ENTRIES entries and at least 16 rows each
(_row_step), so the (m_s + m_t)^2 matrix never exists.
Its median bandwidth, median_heuristic_bandwidth, is taken over the pairs
i < j of at most MEDIAN_ROWS pooled rows: a held kernel matrix passes its
pairs, gathered before it is exponentiated as the kernel; without one the
median is selected exactly by counting the pairs' leading bits, over the
same row blocks as the kernel's.
"""

from dataclasses import dataclass, replace

import numpy as np

from .moments import (
    BLOCK_ROWS, MomentOverflowError, _both, _central_moments, _check, _check_count, _check_real,
    _finite_vector, _pooled_mean_scale, _raw_moment_pair, _standardized, _validate_pair,
)
from .weighting import WeightProfile, _check_alpha, _check_c, _profile

__all__ = [
    "DwmdConfig",
    "DiscrepancyReport",
    "dwmd",
    "dwmd_from_moments",
    "dwmd_gradient",
    "dwmd_with_gradient",
    "smd",
    "smd_gradient",
    "truncation_bound",
    "cmd",
    "cmd_with_gradient",
    "mmd_rbf",
    "mmd_rbf_with_gradient",
]

# Moment gaps below double-precision noise are treated as exactly zero.
DELTA_UNDERFLOW = 1e-15
# Magnitude clip for the |z|^beta derivative near z = 0 when beta < 1.
GRAD_CLIP = 1e6
# Floor for the per-dimension widths of the CMD baseline.
CMD_WIDTH_FLOOR = 1e-12
# Entries of the largest MMD pool built as one kernel matrix: 1,024 rows,
# 8 MB.
BLOCK_ENTRIES = 2**20
# Pooled rows the MMD median heuristic runs on; above this a seeded subset
# is used, so its selection runs over at most MEDIAN_ROWS^2 / 2 pairs.
MEDIAN_ROWS = 2048
# Entries of every other block of squared distances, of the median's
# counting selection and of the MMD kernel alike (1 MB), at least 16 rows.
MEDIAN_BLOCK_ENTRIES = BLOCK_ENTRIES // 8


@dataclass(frozen=True)
class DwmdConfig:
    """Hyperparameters of the discrepancy series.

    n: truncation order (>= 1); psi: decay rate of the per-order weights
    (> 0); beta: exponent of the moment gap, in (0, 1]; c_policy/c_value:
    how the series constant C is resolved (see weighting.resolve_c);
    alpha: trimming fraction of the weight vector; standardize: pooled
    per-dimension standardization of both inputs before anything else.
    Without standardize the series is not scale invariant, by design: C and
    DELTA_UNDERFLOW are absolute, while the k-th moment gaps scale as the
    k-th power of the inputs' units.
    """

    n: int = 5
    psi: float = 1.0
    beta: float = 1.0
    c_policy: str = "scalar"
    c_value: float = 0.05
    alpha: float = 0.1
    standardize: bool = False

    def __post_init__(self):
        _check_count("n", self.n)
        _check_psi(self.psi)
        _check_real("beta", self.beta, lambda beta: 0.0 < beta <= 1.0, "in (0, 1]")
        _check_alpha(self.alpha)
        _check_c(self.c_policy, self.c_value)
        ok = isinstance(self.standardize, (bool, np.bool_))
        _check("standardize", self.standardize, ok, "a bool")


def _check_psi(psi):
    """The decay rate's rule: a finite real number > 0 (an infinite psi
    would zero every order weight)."""
    _check_real("psi", psi, lambda v: 0.0 < v < np.inf, "a finite number > 0")


@dataclass
class DiscrepancyReport:
    """Per-order breakdown of a series evaluation.

    per_order_terms[k-1, j] is the weighted-fraction term for order k and
    dimension j; per_order_totals sums each row; total sums everything.
    truncation_bound is the geometric tail bound, or None when the bound
    diverges (decay exponent below 1).
    """

    per_order_terms: np.ndarray
    per_order_totals: np.ndarray
    total: float
    truncation_bound: float | None
    weight_profile: WeightProfile


def _report(delta, profile, config):
    """The per-order report for a moment-gap matrix, plus what the gradient
    reuses: the |gap| matrix (zeroed below DELTA_UNDERFLOW), |gap|^beta, the
    (n, d) order weights and the (n, 1) column of the orders."""
    gap = np.abs(delta)
    gap[gap < DELTA_UNDERFLOW] = 0.0
    powered = gap**config.beta
    orders = np.arange(1, config.n + 1, dtype=np.float64)[:, None]
    weights = np.exp(-config.psi * orders / profile.tau_normalized[None, :])
    terms = weights * powered / (profile.c_resolved + powered)
    per_order_totals = terms.sum(axis=1)
    report = DiscrepancyReport(
        per_order_terms=terms,
        per_order_totals=per_order_totals,
        total=float(per_order_totals.sum()),
        truncation_bound=_tail_bound(profile, config.psi, config.n),
        weight_profile=profile,
    )
    return report, gap, powered, weights, orders


def truncation_bound(profile, psi, n):
    """Closed-form geometric tail bound on the error of stopping at order n.

    With nu = floor(psi / tau_max), the tail sum_{k>n} 2^(-nu*k) equals
    2^(-nu*(n+1)) / (1 - 2^(-nu)) when nu >= 1; for nu < 1 the stated tail
    diverges and None is returned. A degenerate all-zero weight vector uses
    tau_max = 1 (the uniform profile it falls back to).
    """
    _series_config(None, profile)
    _check_psi(psi)
    _check_count("n", n)
    return _tail_bound(profile, psi, n)


def _tail_bound(profile, psi, n):
    """truncation_bound for a checked psi and n."""
    tau_max = profile.tau_max if profile.tau_max > 0.0 else 1.0
    nu = np.floor(psi / tau_max)
    if nu < 1.0:
        return None
    ratio = 2.0 ** (-nu)
    return float(ratio ** (n + 1) / (1.0 - ratio))


def _series_config(config, profile, d=None):
    """config, or DwmdConfig() for None, once config (a DwmdConfig or None)
    and profile are checked: a WeightProfile, or, given the samples' d, a
    frozen WeightProfile of that d or None."""
    ok = config is None or isinstance(config, DwmdConfig)
    _check("config", config, ok, "a DwmdConfig or None")
    if d is None:
        _check("profile", profile, isinstance(profile, WeightProfile), "a WeightProfile")
    elif profile is not None:
        _check("profile", profile, isinstance(profile, WeightProfile), "a WeightProfile or None")
        what = f"a WeightProfile of d = {d}"
        _check("profile", f"d = {profile.d}", profile.d == d, what, str)
    return config or DwmdConfig()


def _series(source, target, config=None, frozen=None, uniform=False, with_gradient=False):
    """The series kernel behind every series call: check the two sample
    matrices (once; no core below checks them again), the config and a
    frozen profile, (optionally) standardize the samples, build the weight
    profile unless a frozen one is given, and evaluate the report.
    uniform replaces the normalized weight vector by its component average
    (SMD). Returns the report, or (report, grad_source, grad_target) when
    with_gradient is set; the gradient holds the weight profile and the
    pooled standardization statistics constant by design. It is not the
    gradient of the data-dependent total: a trimmed mean is linear in the
    entries it keeps, so the profile has a gradient of its own, which is
    left out.
    """
    s, t = _validate_pair(source, target)
    config = _series_config(config, frozen, s.shape[1])
    if config.standardize:
        mu, scale, exps = _pooled_mean_scale(s, t)
        s, t = _standardized(s, mu, scale, exps), _standardized(t, mu, scale, exps)
    profile = frozen
    if profile is None:
        profile = _profile(s, t, config.alpha, config.c_policy, config.c_value)
    if uniform:
        tau_c = float(profile.tau_normalized.mean())
        profile = replace(profile, tau_normalized=np.full(profile.d, tau_c))

    moments_s, moments_t, both = _raw_moment_pair(s, t, config.n)
    delta = moments_s - moments_t
    report, gap, powered, weights, orders = _report(delta, profile, config)
    if not with_gradient:
        return report

    # d(term)/d(gap) = beta * gap^(beta-1) * C / (C + gap^beta)^2, clipped
    # at GRAD_CLIP, and 0 where the gap is.
    with np.errstate(divide="ignore", invalid="ignore"):
        dfrac = (
            config.beta
            * gap ** (config.beta - 1.0)
            * profile.c_resolved
            / (profile.c_resolved + powered) ** 2
        )
    np.minimum(dfrac, GRAD_CLIP, out=dfrac)
    dfrac[gap == 0.0] = 0.0

    # Chain through the empirical raw moments: dE[X^k]/dx_ij = k x_ij^(k-1) / m.
    coeff = weights * dfrac * np.sign(delta) * orders
    if config.standardize:
        coeff /= scale
    coeff_s, coeff_t = coeff / s.shape[0], coeff / -t.shape[0]
    if both is None:
        grads = _both(_power_series, (s, coeff_s), (t, coeff_t))
    else:
        # Both sides in one pass over the copy the moments were reduced from.
        joined = _power_series(both, np.concatenate((coeff_s, coeff_t), axis=1))
        grads = joined[:, : s.shape[1]], joined[:, s.shape[1] :]
    if config.standardize:
        _unscale_gradients(grads, exps)
    return report, *grads


def _unscale_gradients(grads, exps):
    """Multiply each column j of the two gradients by 2^-exps[j] (exps one
    exponent per column, or one for all), in place: the gradients were taken
    with respect to the columns times 2^-exps[j] (see _pooled_mean_scale and
    _mmd_rbf), so each entry is rounded once, at the inputs' scale. A
    gradient past the float64 range raises MomentOverflowError naming its
    side and dimension."""
    with np.errstate(over="ignore"):
        for g in grads:
            np.ldexp(g, -exps, out=g)
    for side, g in zip(("source", "target"), grads):
        finite = np.isfinite(g).all(axis=0)
        if not finite.all():
            raise MomentOverflowError(
                f"non-finite {side} gradient at dimension {int(np.argmin(finite))}: "
                "the inputs are too small in that dimension for a gradient in float64"
            )


def _power_series(x, coeff, shift=None):
    """Elementwise polynomial sum_k coeff[k] * (x - shift)^k for a (K, d)
    coefficient array (in x when shift is None), by Horner's rule in place,
    one block of BLOCK_ROWS // 2 rows at a time, each centred as it is read.
    Both gradients are evaluated here, and the two sides of each, CMD's
    included, may run on two threads (see _both), so CMD's centred blocks
    come to one BLOCK_ROWS block in all. Each entry is computed on its own,
    so the block height does not change a bit, and every layout is walked
    in blocks (the one-block rule of _row_blocks is for reductions)."""
    out = np.empty_like(x)
    step = BLOCK_ROWS // 2
    centred = None if shift is None else np.empty_like(x[:step])
    bufsize = np.setbufsize(BLOCK_ROWS)
    try:
        for start in range(0, x.shape[0], step):
            rows = slice(start, start + step)
            block = x[rows]
            if shift is not None:
                block = np.subtract(block, shift, out=centred[: block.shape[0]])
            acc = out[rows]
            acc[...] = coeff[-1]
            for row in coeff[-2::-1]:
                acc *= block
                acc += row
    finally:
        np.setbufsize(bufsize)
    return out


def dwmd(source, target, config=None, profile=None):
    """Evaluate the dimensionally weighted discrepancy series on two sample
    matrices, returning the full per-order report.

    A caller-supplied profile freezes the weights instead of recomputing
    them from the data (the fixed-weight form the gradient differentiates).
    The value depends on the inputs' units unless config.standardize is set
    (see DwmdConfig).
    """
    return _series(source, target, config, profile)


def dwmd_from_moments(moments_source, moments_target, profile, config):
    """Series evaluation on caller-supplied moment sequences with frozen
    weights. This is the fixed-weight form the metric axioms hold for.
    config is a DwmdConfig or None (the defaults); each moment array must
    be a finite (n, d) array."""
    config = _series_config(config, profile)
    a = np.asarray(moments_source, dtype=np.float64)
    b = np.asarray(moments_target, dtype=np.float64)
    shape = (config.n, profile.d)
    for name, m in (("moments_source", a), ("moments_target", b)):
        _check(name, m.shape, m.shape == shape, f"of shape (n, d) = {shape}", str)
        if not np.isfinite(m).all():
            k, j = np.argwhere(~np.isfinite(m))[0]
            where = f"{m[k, j]} at order {k + 1}, dimension {j}"
            raise ValueError(f"{name} must be finite, got {where}")
    return _report(a - b, profile, config)[0]


def smd(source, target, config=None, profile=None):
    """Uniform-weight variant: the normalized weight vector is replaced by
    the constant vector holding its component average."""
    return _series(source, target, config, profile, uniform=True)


def dwmd_with_gradient(source, target, config=None, profile=None, uniform=False):
    """The series report and its gradient with respect to every source and
    target entry, (report, grad_source, grad_target), from one pass: the
    weight profile and the moments are built once. The gradient holds the
    weight profile constant; uniform gives the uniform-weight variant (SMD).
    For a short pair whose moments came from one side-by-side copy, the two
    gradients are the column halves of one (m, 2d) array: writable views,
    not C-contiguous, each keeping the other alive (np.ascontiguousarray
    gives a side its own copy).
    """
    return _series(source, target, config, profile, uniform, with_gradient=True)


def dwmd_gradient(source, target, config=None, profile=None):
    """Partial derivatives of the series total with respect to every source
    and target entry (weight profile held constant), laid out as
    dwmd_with_gradient returns them."""
    return dwmd_with_gradient(source, target, config, profile)[1:]


def smd_gradient(source, target, config=None, profile=None):
    """Gradient of the uniform-weight variant."""
    return dwmd_with_gradient(source, target, config, profile, uniform=True)[1:]


def _cmd_widths(source, target):
    """Per-dimension width of the pooled range, floored at CMD_WIDTH_FLOOR."""
    tops, bottoms = zip(*_both(lambda x: (x.max(axis=0), x.min(axis=0)), (source,), (target,)))
    return np.maximum(np.maximum(*tops) - np.minimum(*bottoms), CMD_WIDTH_FLOOR)


def cmd(source, target, k=5):
    """Central moment discrepancy baseline.

    Euclidean norm of the mean gap plus the norms of the central-moment gaps
    up to order k, each dimension scaled by the pooled empirical range raised
    to the moment order. The range stands in for the interval width the
    formula assumes; unbounded activations make it unstable by construction.
    """
    return _cmd(source, target, k)


def cmd_with_gradient(source, target, k=5, widths=None):
    """CMD value and its gradient with respect to both sample matrices
    (widths held constant; pass widths, d finite numbers > 0, explicitly to
    freeze them across calls, e.g. for finite-difference checks)."""
    return _cmd(source, target, k, widths, with_gradient=True)


def _cmd(source, target, k, widths=None, with_gradient=False):
    """The CMD kernel: the value, or (value, grad_source, grad_target) when
    with_gradient is set."""
    s, t = _validate_pair(source, target)
    _check_count("k", k)
    orders = np.arange(1, k + 1)[:, None]
    if widths is None:
        widths = _cmd_widths(s, t)
    else:
        d = s.shape[1]
        v = _finite_vector("widths", widths, d)
        _check("widths", widths, (v > 0.0).all(), f"a list of {d} finite numbers > 0")
        # Every power up to k lies between the width and its k-th power.
        with np.errstate(over="ignore"):
            top = v ** orders[-1]
        normal = (np.finfo(np.float64).tiny <= top) & (top < np.inf)
        j = int(np.argmin(normal))
        what = f"numbers whose power at order k = {k} is a finite normal float"
        _check("widths", f"{v[j]} at dimension {j}", normal[j], what, str)
        widths = v
    (cs, mu_s), (ct, mu_t) = _both(_central_moments, (s, k), (t, k))
    w_pow = widths**orders
    v = (cs - ct) / w_pow
    norms = np.array([np.linalg.norm(row) for row in v])
    total = 0.0
    for norm in norms.tolist():  # left to right on every Python version
        total += norm
    if not with_gradient:
        return total
    # d||v_o|| / dc_o, zero for an order whose gap vanishes.
    dnorm = np.divide(
        v, norms[:, None] * w_pow, out=np.zeros_like(v), where=norms[:, None] > 0.0
    )

    # d mu / d x_i = 1/m and, for o >= 2, d c_o / d x_i = (o/m) *
    # ((x_i - mu)^(o-1) - c_(o-1)) with the centred c_1 = 0: each side's
    # gradient is a power series in the centred samples x - mu whose
    # constant row absorbs the c_(o-1) terms.
    grad_s, grad_t = _both(
        _power_series,
        (s, _cmd_coeff(dnorm, cs, orders / s.shape[0]), mu_s),
        (t, _cmd_coeff(dnorm, ct, orders / -t.shape[0]), mu_t),
    )
    return total, grad_s, grad_t


def _cmd_coeff(dnorm, c, scale):
    """Power-series coefficients of one side's CMD gradient, from the value's
    d||v_o||/dc_o, that side's central moments c and its signed o/m."""
    coeff = dnorm * scale
    coeff[0] -= (coeff[2:] * c[1:-1]).sum(axis=0)
    return coeff


def _sq_norms(x, where):
    """The squared row norms of x. The first above a quarter of the float64
    max, where a sum in _sq_dists could overflow (np.einsum overflows without
    a warning), raises MomentOverflowError naming its row i as where(i)."""
    norms = np.einsum("ij,ij->i", x, x)
    ok = norms <= np.finfo(np.float64).max / 4
    if not ok.all():
        raise MomentOverflowError(
            f"squared norm of {where(int(np.argmin(ok)))} is above float64 max / 4; "
            "consider standardizing the inputs"
        )
    return norms


def _sq_dists(x, rows=slice(None), norms=None):
    """Squared Euclidean distances from the rows x[rows] to every row of x, in
    one array: -2 x[rows] x^T plus both row norms, clipped at 0. norms, the
    squared row norms of x, are computed unless passed in."""
    if norms is None:
        norms = np.einsum("ij,ij->i", x, x)
    sq = x[rows] @ x.T
    sq *= -2.0
    sq += norms[rows, None]
    sq += norms[None, :]
    return np.maximum(sq, 0.0, out=sq)


def _row_step(m):
    """Rows of a block of squared distances over m pooled rows that are not
    held as one matrix: MEDIAN_BLOCK_ENTRIES // m, and at least 16 rows, as
    each block's product packs the whole pool, so a huge pool's products
    stay few."""
    return max(16, MEDIAN_BLOCK_ENTRIES // m)


def _pair_blocks(x, norms):
    """Each block of _row_step rows of the pooled rows x, as (its squared
    distances to every row, the mask of its pairs i < j). The last row has no
    pairs and is left out, so no block has one row (a one-row product goes
    through gemv, whose sums may differ from the whole product's). A block
    is dropped here before the next is built, so one exists at a time when
    the caller drops its references to it first."""
    m = x.shape[0]
    step = _row_step(m)
    for start in range(0, m - 1, step):
        sq = _sq_dists(x, slice(start, start + step), norms)
        yield sq, ~np.tri(sq.shape[0], m, start, dtype=bool)
        sq = None  # so the next block is not built beside this one


def median_heuristic_bandwidth(x, norms=None, sq=None, zero=1.0):
    """The median Euclidean distance over the pairs i < j of the pooled rows
    x, or zero (1.0 unless passed) when it is 0 (more than half the pairs
    coincide). norms, the squared row norms of x, are computed by _sq_norms
    unless passed. Above MEDIAN_ROWS rows the pairs are those of MEDIAN_ROWS
    rows drawn without replacement by default_rng(0) and kept in row order.

    sq, the squared distances of x in one matrix when the caller holds them
    (the one kernel block of _mmd_rbf), has its pairs gathered at once and is
    left as it is; above MEDIAN_ROWS rows it is not used. Otherwise the
    median is selected exactly without holding the pairs: nonnegative
    float64 values order as their bit patterns, so one pass over the row
    blocks counts the pairs by their top 16 bits, and a second keeps only the
    pairs in the buckets that hold the two middle ranks.
    """
    if sq is not None and x.shape[0] <= MEDIAN_ROWS:
        pairs = sq[~np.tri(sq.shape[0], dtype=bool)]
        n, below = pairs.size, 0
    else:
        rows = None
        if x.shape[0] > MEDIAN_ROWS:
            rows = np.random.default_rng(0).choice(x.shape[0], MEDIAN_ROWS, replace=False)
            rows.sort()
            x, norms = x[rows], None
        if norms is None:
            norms = _sq_norms(x, lambda i: f"row {i if rows is None else rows[i]}")
        counts = np.zeros(1 << 16, dtype=np.int64)
        for block, mask in _pair_blocks(x, norms):
            top = block.view(np.uint64)[mask]
            top >>= 48
            counts += np.bincount(top.view(np.int64), minlength=1 << 16)
            block = mask = top = None
        n = x.shape[0] * (x.shape[0] - 1) // 2
        ends = np.cumsum(counts)
        low, high = (int(b) for b in np.searchsorted(ends, [(n - 1) // 2, n // 2], side="right"))
        below = int(ends[low] - counts[low])
        counts = ends = None  # 1 MB of bucket counts that pass 2 does not read
        kept = []
        for block, mask in _pair_blocks(x, norms):
            bits = block.view(np.uint64)
            mask &= bits >= low << 48
            mask &= bits < (high + 1) << 48
            kept.append(block[mask])
            block = mask = bits = None
        pairs = np.concatenate(kept)
    # One partition finds the upper middle value, and for an even count the
    # lower one below it, averaged as np.median averages them.
    k = n // 2 - below
    pairs.partition(k)
    med = float(np.sqrt(pairs[k] if n % 2 else (pairs[:k].max() + pairs[k]) / 2))
    return med if med > 0.0 else zero


def _fixed_bandwidth(bandwidth, name="bandwidth"):
    """None for "median", else the fixed MMD bandwidth sigma as a float. The
    rule, stated here only: bandwidth is not a bool, float() makes it a
    finite number > 0, and sigma^2 and 2 sigma^2, by which the gradient and
    the kernel's exponent divide, are finite normal floats, so sigma runs
    from about 1.5e-154 to 9.4e153 (below that the kernel is NaN or its
    division by zero raises; above it the kernel is all ones). A ValueError
    names the field, name, otherwise."""
    if isinstance(bandwidth, str) and bandwidth == "median":
        return None
    try:
        sigma = float(bandwidth)
    except (TypeError, ValueError, OverflowError):
        sigma = np.nan
    ok = not isinstance(bandwidth, (bool, np.bool_)) and 0.0 < sigma < np.inf
    _check(name, bandwidth, ok, "'median' or a finite number > 0")
    ok = np.finfo(np.float64).tiny <= sigma * sigma and 2.0 * sigma * sigma < np.inf
    what = (
        "'median' or a number from 1.5e-154 to 9.4e153, whose square and twice that "
        "are normal floats"
    )
    _check(name, sigma, ok, what, str)
    return sigma


def mmd_rbf(source, target, bandwidth="median"):
    """Biased (V-statistic) Gaussian-kernel MMD: mean kernel within each
    domain minus twice the cross mean. Nonnegative in exact arithmetic; the
    computed value is clamped at 0 against rounding."""
    return _mmd_rbf(source, target, bandwidth)


def mmd_rbf_with_gradient(source, target, bandwidth="median"):
    """MMD value and its gradient with respect to both sample matrices
    (bandwidth held constant)."""
    return _mmd_rbf(source, target, bandwidth, with_gradient=True)


def _mmd_rbf(source, target, bandwidth, with_gradient=False):
    """The MMD kernel: the value, or (value, grad_source, grad_target) when
    with_gradient is set."""
    s, t = _validate_pair(source, target)
    sigma = _fixed_bandwidth(bandwidth)
    m_s, m_t = s.shape[0], t.shape[0]
    x = np.vstack([s, t])
    norms = _sq_norms(x, lambda i: f"source row {i}" if i < m_s else f"target row {i - m_s}")
    # Once the bound is checked on the inputs' scale, every "median" pool runs
    # scaled by 2^-k, k its largest |entry|'s binary exponent; the median scales
    # with it, so the value is bit-equal and the gradient returns by one ldexp.
    k = 0 if sigma is not None else np.frexp(max(x.max(), -x.min()))[1]
    if k:
        np.ldexp(x, -k, out=x)
        norms = np.einsum("ij,ij->i", x, x)
    # A pool that fits one kernel block builds it once, for the median and
    # the kernel alike; a larger one is walked in the median's row blocks.
    m = x.shape[0]
    held = m * m <= BLOCK_ENTRIES
    step = m if held else _row_step(m)
    kernel = _sq_dists(x, norms=norms) if held else None
    if sigma is None:
        sigma = median_heuristic_bandwidth(x, norms, kernel, zero=0.0)
    if not sigma:  # a 0 median falls back to sigma = 1, on the inputs' scale
        sigma, k, x, kernel = 1.0, 0, np.vstack([s, t]), None
        norms = np.einsum("ij,ij->i", x, x)
        kernel = _sq_dists(x, norms=norms) if held else None
    # Over the pooled rows X with signed weights w (1/m_s source, -1/m_t
    # target) the value is w^T K w; since d k(x, y)/dx = -(x - y)/sigma^2
    # k(x, y), the gradient is -(2/sigma^2) w * ((K w) * X - K (w * X)).
    # K w and K (w * X) are accumulated over blocks of rows of K, each
    # rebuilt from the pooled rows and their norms.
    w = np.concatenate([np.full(m_s, 1.0 / m_s), np.full(m_t, -1.0 / m_t)])
    kw = np.empty_like(w)
    if with_gradient:
        wx, kwx = w[:, None] * x, np.empty_like(x)
    for start in range(0, m, step):
        rows = slice(start, start + step)
        if kernel is None:
            kernel = _sq_dists(x, rows, norms)
        kernel *= -1.0 / (2.0 * sigma * sigma)
        np.exp(kernel, out=kernel)
        kw[rows] = kernel @ w
        if with_gradient:
            kwx[rows] = kernel @ wx
        kernel = None  # so the next block is not built beside this one
    value = max(float(w @ kw), 0.0)
    if not with_gradient:
        return value
    grad = kw[:, None] * x
    grad -= kwx
    grad *= (-2.0 / (sigma * sigma)) * w[:, None]
    grads = grad[:m_s], grad[m_s:]
    if k:
        _unscale_gradients(grads, k)
    return value, *grads
