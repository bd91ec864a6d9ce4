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
output array per sample matrix, one block of moments.BLOCK_ROWS rows at a
time. The MMD value
and gradient are accumulated over blocks of rows of the pooled kernel matrix,
at most BLOCK_ENTRIES entries each, so the (m_s + m_t)^2 matrix never exists;
its median bandwidth is taken over at most MEDIAN_ROWS pooled rows.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .moments import (
    _central_moments, _pooled_mean_scale, _power_means, _row_blocks, _validate_pair
)
from .weighting import C_POLICIES, WeightProfile, _median_in_place, weight_profile

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
# Entries of the largest block of MMD kernel rows held at once (8 MB).
BLOCK_ENTRIES = 2**20
# Pooled rows the MMD median heuristic runs on; above this a seeded subset
# is used, so its squared-distance matrix never exceeds 8 * MEDIAN_ROWS^2 bytes.
MEDIAN_ROWS = 2048


def _check_count(name, value):
    """Raise ValueError naming the field unless value is an integer >= 1
    (numpy integers included, bool not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _is_real(value):
    """Whether value is a real number (numpy numbers included, bool not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_real(name, value):
    """Raise ValueError naming the field unless value is a real number
    (numpy numbers included, bool not)."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _sequence(name, values, kind):
    """values as a tuple of kind (int, float or str); a ValueError names the
    field unless it is a sequence, not a string, of integers, real numbers
    or strings (numpy numbers included, bool not)."""
    abstract, what = {
        int: (numbers.Integral, "integers"),
        float: (numbers.Real, "real numbers"),
        str: (str, "strings"),
    }[kind]
    try:
        items = None if isinstance(values, str) else tuple(values)
    except TypeError:
        items = None
    if items is None or any(
        isinstance(v, (bool, np.bool_)) or not isinstance(v, abstract) for v in items
    ):
        raise ValueError(f"{name} must be a list of {what}, got {values!r}")
    return tuple(kind(v) for v in items)


@dataclass(frozen=True)
class DwmdConfig:
    """Hyperparameters of the discrepancy series.

    n: truncation order (>= 1); psi: decay rate of the per-order weights
    (> 0); beta: exponent of the moment gap, in (0, 1]; c_policy/c_value:
    how the series constant C is resolved (see weighting.resolve_c);
    alpha: trimming fraction of the weight vector; standardize: pooled
    per-dimension standardization of both inputs before anything else.
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
        for name in ("psi", "beta", "alpha"):
            _check_real(name, getattr(self, name))
        if self.c_value is not None:
            _check_real("c_value", self.c_value)
        if not isinstance(self.standardize, (bool, np.bool_)):
            raise ValueError(f"standardize must be a bool, got {self.standardize!r}")
        if not self.psi > 0.0:
            raise ValueError(f"psi must be > 0, got {self.psi}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not 0.0 <= self.alpha < 0.5:
            raise ValueError(f"alpha must be in [0, 0.5), got {self.alpha}")
        if self.c_policy not in C_POLICIES:
            raise ValueError(f"unknown c_policy {self.c_policy!r}")
        if self.c_policy == "scalar" and (self.c_value is None or not self.c_value > 0.0):
            raise ValueError(f"scalar C policy needs c_value > 0, got {self.c_value}")


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
    """The per-order report for a moment-gap matrix, plus the |gap| matrix
    (zeroed below DELTA_UNDERFLOW), |gap|^beta and the (n, d) order weights,
    which the gradient reuses."""
    gap = np.abs(delta)
    gap = np.where(gap < DELTA_UNDERFLOW, 0.0, gap)
    powered = gap**config.beta
    orders = np.arange(1, config.n + 1, dtype=np.float64)[:, None]
    weights = np.exp(-config.psi * orders / profile.tau_normalized[None, :])
    terms = weights * powered / (profile.c_resolved + powered)
    per_order_totals = terms.sum(axis=1)
    report = DiscrepancyReport(
        per_order_terms=terms,
        per_order_totals=per_order_totals,
        total=float(per_order_totals.sum()),
        truncation_bound=truncation_bound(profile, config.psi, config.n),
        weight_profile=profile,
    )
    return report, gap, powered, weights


def truncation_bound(profile, psi, n):
    """Closed-form geometric tail bound on the error of stopping at order n.

    With nu = floor(psi / tau_max), the tail sum_{k>n} 2^(-nu*k) equals
    2^(-nu*(n+1)) / (1 - 2^(-nu)) when nu >= 1; for nu < 1 the stated tail
    diverges and None is returned. A degenerate all-zero weight vector uses
    tau_max = 1 (the uniform profile it falls back to).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    tau_max = profile.tau_max if profile.tau_max > 0.0 else 1.0
    nu = np.floor(psi / tau_max)
    if nu < 1.0:
        return None
    ratio = 2.0 ** (-nu)
    return float(ratio ** (n + 1) / (1.0 - ratio))


def _series(s, t, config=None, frozen=None, uniform=False, with_gradient=False):
    """The series kernel on two float64 (m, d) matrices with a common d, which
    it does not check: (optionally) standardize them, build the weight
    profile unless a frozen one is given (weight_profile checks the samples),
    and evaluate the report. uniform replaces the normalized weight vector by
    its component average (SMD). Returns the report, or (report, grad_source,
    grad_target) when with_gradient is set; the gradient holds the weight
    profile and the pooled standardization statistics constant, since the
    trimming estimator is piecewise constant in the samples.
    """
    config = config or DwmdConfig()
    if config.standardize:
        mu, scale = _pooled_mean_scale(s, t)
        s = (s - mu) / scale
        t = (t - mu) / scale
    profile = frozen
    if profile is None:
        profile = weight_profile(s, t, config.alpha, config.c_policy, config.c_value)
    if uniform:
        tau_c = float(profile.tau_normalized.mean())
        profile = replace(profile, tau_normalized=np.full(profile.d, tau_c))

    delta = _power_means(s, config.n, "raw") - _power_means(t, config.n, "raw")
    report, gap, powered, weights = _report(delta, profile, config)
    if not with_gradient:
        return report

    # d(term)/d(gap) = beta * gap^(beta-1) * C / (C + gap^beta)^2
    with np.errstate(divide="ignore", invalid="ignore"):
        dfrac = (
            config.beta
            * gap ** (config.beta - 1.0)
            * profile.c_resolved
            / (profile.c_resolved + powered) ** 2
        )
    dfrac = np.where(gap == 0.0, 0.0, np.clip(dfrac, None, GRAD_CLIP))

    # Chain through the empirical raw moments: dE[X^k]/dx_ij = k x_ij^(k-1) / m.
    coeff = weights * dfrac * np.sign(delta) * np.arange(1, config.n + 1)[:, None]
    if config.standardize:
        coeff = coeff / scale
    grad_s = _power_series(s, coeff / s.shape[0])
    grad_t = _power_series(t, coeff / -t.shape[0])
    return report, grad_s, grad_t


def _power_series(x, coeff, shift=None):
    """Elementwise polynomial sum_k coeff[k] * (x - shift)^k for a (K, d)
    coefficient array (in x when shift is None), by Horner's rule in place,
    one block of rows at a time, each centred as it is read. Both gradients
    are evaluated here."""
    out = np.empty_like(x)
    blocks = _row_blocks(x)
    centred = None if shift is None else np.empty_like(x[blocks[0]])
    for rows in blocks:
        block = x[rows]
        if shift is not None:
            block = np.subtract(block, shift, out=centred[: block.shape[0]])
        acc = out[rows]
        acc[...] = coeff[-1]
        for row in coeff[-2::-1]:
            acc *= block
            acc += row
    return out


def dwmd(source, target, config=None, profile=None):
    """Evaluate the dimensionally weighted discrepancy series on two sample
    matrices, returning the full per-order report.

    A caller-supplied profile freezes the weights instead of recomputing
    them from the data (the fixed-weight form the gradient differentiates).
    """
    return _series(*_validate_pair(source, target), config, profile)


def dwmd_from_moments(moments_source, moments_target, profile, config):
    """Series evaluation on caller-supplied moment sequences with frozen
    weights. This is the fixed-weight form the metric axioms hold for."""
    a = np.asarray(moments_source, dtype=np.float64)
    b = np.asarray(moments_target, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"moment-sequence shape mismatch: {a.shape} vs {b.shape}")
    if a.shape != (config.n, profile.d):
        raise ValueError(
            f"moment sequences of shape {a.shape} do not match n={config.n}, d={profile.d}"
        )
    return _report(a - b, profile, config)[0]


def smd(source, target, config=None, profile=None):
    """Uniform-weight variant: the normalized weight vector is replaced by
    the constant vector holding its component average."""
    return _series(*_validate_pair(source, target), config, profile, uniform=True)


def dwmd_with_gradient(source, target, config=None, profile=None, uniform=False):
    """The series report and its gradient with respect to every source and
    target entry, (report, grad_source, grad_target), from one pass: the
    weight profile and the moments are built once. The gradient holds the
    weight profile constant; uniform gives the uniform-weight variant (SMD).
    """
    s, t = _validate_pair(source, target)
    return _series(s, t, config, profile, uniform, with_gradient=True)


def dwmd_gradient(source, target, config=None, profile=None):
    """Partial derivatives of the series total with respect to every source
    and target entry (weight profile held constant)."""
    return dwmd_with_gradient(source, target, config, profile)[1:]


def smd_gradient(source, target, config=None, profile=None):
    """Gradient of the uniform-weight variant."""
    return dwmd_with_gradient(source, target, config, profile, uniform=True)[1:]


def _cmd_widths(source, target):
    top = np.maximum(source.max(axis=0), target.max(axis=0))
    bottom = np.minimum(source.min(axis=0), target.min(axis=0))
    return np.maximum(top - bottom, CMD_WIDTH_FLOOR)


def cmd(source, target, k=5):
    """Central moment discrepancy baseline.

    Euclidean norm of the mean gap plus the norms of the central-moment gaps
    up to order k, each dimension scaled by the pooled empirical range raised
    to the moment order. The range stands in for the interval width the
    formula assumes; unbounded activations make it unstable by construction.
    """
    return cmd_with_gradient(source, target, k)[0]


def cmd_with_gradient(source, target, k=5, widths=None):
    """CMD value and its gradient with respect to both sample matrices
    (widths held constant; pass widths explicitly to freeze them across
    calls, e.g. for finite-difference checks)."""
    s, t = _validate_pair(source, target)
    if widths is None:
        widths = _cmd_widths(s, t)
    cs, mu_s = _central_moments(s, k)
    ct, mu_t = _central_moments(t, k)
    orders = np.arange(1, k + 1)[:, None]
    w_pow = widths**orders
    v = (cs - ct) / w_pow
    norms = np.array([np.linalg.norm(row) for row in v])
    total = 0.0
    for norm in norms.tolist():  # left to right on every Python version
        total += norm
    # d||v_o|| / dc_o, zero for an order whose gap vanishes.
    dnorm = np.divide(
        v, norms[:, None] * w_pow, out=np.zeros_like(v), where=norms[:, None] > 0.0
    )
    del widths, w_pow, v, norms  # unused below; freed before the m x d gradients

    # d mu / d x_i = 1/m and, for o >= 2, d c_o / d x_i = (o/m) *
    # ((x_i - mu)^(o-1) - c_(o-1)) with the centred c_1 = 0: each side's
    # gradient is a power series in the centred samples x - mu whose
    # constant row absorbs the c_(o-1) terms.
    grad_s = _power_series(s, _cmd_coeff(dnorm, cs, orders / s.shape[0]), mu_s)
    grad_t = _power_series(t, _cmd_coeff(dnorm, ct, orders / -t.shape[0]), mu_t)
    return total, grad_s, grad_t


def _cmd_coeff(dnorm, c, scale):
    """Power-series coefficients of one side's CMD gradient, from the value's
    d||v_o||/dc_o, that side's central moments c and its signed o/m."""
    coeff = dnorm * scale
    coeff[0] -= (coeff[2:] * c[1:-1]).sum(axis=0)
    return coeff


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


def median_heuristic_bandwidth(sq):
    """Median Euclidean distance over the distinct pairs i < j of a pooled
    squared-distance matrix; falls back to 1.0 when all points coincide.

    sq is overwritten: its diagonal and lower triangle are set to -inf, a
    block of rows at a time so that the mask stays within BLOCK_ENTRIES / 8
    bytes, and the whole matrix is partitioned in place, so no copy of the
    pairs is made.
    """
    m = sq.shape[0]
    step = max(1, BLOCK_ENTRIES // (8 * m))
    for start in range(0, m, step):
        rows = sq[start : start + step]
        np.copyto(rows, -np.inf, where=np.tri(rows.shape[0], m, start, dtype=bool))
    med = float(np.sqrt(_median_in_place(sq.reshape(-1), skip=m * (m + 1) // 2)))
    return med if med > 0.0 else 1.0


def _median_bandwidth(x):
    """The median heuristic on the pooled rows x: over every pair when x has
    at most MEDIAN_ROWS rows, else over the pairs of MEDIAN_ROWS rows drawn
    without replacement by default_rng(0) and kept in row order."""
    if x.shape[0] > MEDIAN_ROWS:
        rows = np.random.default_rng(0).choice(x.shape[0], MEDIAN_ROWS, replace=False)
        rows.sort()
        x = x[rows]
    return median_heuristic_bandwidth(_sq_dists(x))


def _fixed_bandwidth(bandwidth):
    """None for "median", else the bandwidth as a float; anything float()
    does not turn into a finite number > 0 raises a ValueError naming it."""
    if isinstance(bandwidth, str) and bandwidth == "median":
        return None
    try:
        sigma = float(bandwidth)
    except (TypeError, ValueError):
        sigma = np.nan
    if not 0.0 < sigma < np.inf:
        raise ValueError(
            f"bandwidth must be 'median' or a finite number > 0, got {bandwidth!r}"
        )
    return sigma


def mmd_rbf(source, target, bandwidth="median"):
    """Biased (V-statistic) Gaussian-kernel MMD: mean kernel within each
    domain minus twice the cross mean. Nonnegative in exact arithmetic; the
    computed value is clamped at 0 against rounding."""
    return mmd_rbf_with_gradient(source, target, bandwidth)[0]


def mmd_rbf_with_gradient(source, target, bandwidth="median"):
    """MMD value and its gradient with respect to both sample matrices
    (bandwidth held constant)."""
    s, t = _validate_pair(source, target)
    sigma = _fixed_bandwidth(bandwidth)
    m_s, m_t = s.shape[0], t.shape[0]
    x = np.vstack([s, t])
    if sigma is None:
        sigma = _median_bandwidth(x)
    # Over the pooled rows X with signed weights w (1/m_s source, -1/m_t
    # target) the value is w^T K w; since d k(x, y)/dx = -(x - y)/sigma^2
    # k(x, y), the gradient is -(2/sigma^2) w * ((K w) * X - K (w * X)).
    # K w and K (w * X) are accumulated over blocks of rows of K, each
    # rebuilt from the pooled rows and their norms.
    w = np.concatenate([np.full(m_s, 1.0 / m_s), np.full(m_t, -1.0 / m_t)])
    wx = w[:, None] * x
    norms = np.einsum("ij,ij->i", x, x)
    kw = np.empty_like(w)
    kwx = np.empty_like(x)
    step = max(1, BLOCK_ENTRIES // x.shape[0])
    for start in range(0, x.shape[0], step):
        rows = slice(start, start + step)
        kernel = _sq_dists(x, rows, norms)
        kernel *= -1.0 / (2.0 * sigma * sigma)
        np.exp(kernel, out=kernel)
        kw[rows] = kernel @ w
        kwx[rows] = kernel @ wx
        del kernel  # so the next block is not built beside this one
    value = max(float(w @ kw), 0.0)
    grad = kw[:, None] * x
    grad -= kwx
    grad *= (-2.0 / (sigma * sigma)) * w[:, None]
    return value, grad[:m_s], grad[m_s:]
