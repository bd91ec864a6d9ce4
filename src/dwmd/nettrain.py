"""Small from-scratch feedforward classifier with hidden-representation
matching.

Training minimizes source cross-entropy plus lambda times a discrepancy
regularizer evaluated on the hidden activations of one or more matched
layers, for a source batch and a target batch drawn each step. All math is
plain numpy; runs are deterministic given the seed.
"""

from dataclasses import dataclass, field

import numpy as np

from . import discrepancy as disc
from .discrepancy import DwmdConfig
from .moments import (
    _check, _check_count, _check_real, _check_seed, _is_real, _sequence, validate_samples
)

__all__ = [
    "NetworkSpec",
    "TrainConfig",
    "TrainedModel",
    "TrainingDiverged",
    "init_model",
    "forward",
    "train_uda",
    "evaluate",
]

REGULARIZERS = ("dwmd", "smd", "cmd", "mmd", "none")
# Trimmed means need enough samples to drop outliers meaningfully.
MIN_TRIMMING_BATCH = 20


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: layer_sizes runs input -> hidden widths -> classes;
    activations names one of {sigmoid, relu} per hidden layer;
    matched_layers lists 0-based hidden-layer indices whose activations feed
    the regularizer."""

    layer_sizes: tuple
    activations: tuple
    matched_layers: tuple

    def __post_init__(self):
        sizes = _sequence("layer_sizes", self.layer_sizes, int)
        acts = _sequence("activations", self.activations, str)
        matched = _sequence("matched_layers", self.matched_layers, int)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "activations", acts)
        object.__setattr__(self, "matched_layers", matched)
        ok = len(sizes) >= 3 and all(v >= 1 for v in sizes)
        _check("layer_sizes", sizes, ok, "at least 3 integers >= 1", str)
        n_hidden = len(sizes) - 2
        ok = len(acts) == n_hidden and all(a in ("sigmoid", "relu") for a in acts)
        _check("activations", acts, ok, "one 'sigmoid' or 'relu' per hidden layer", str)
        ok = bool(matched) and all(0 <= v < n_hidden for v in matched)
        _check("matched_layers", matched, ok, f"non-empty and in [0, {n_hidden})", str)

    @property
    def n_hidden(self):
        return len(self.layer_sizes) - 2

    @property
    def n_classes(self):
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 1.0
    regularizer: str = "dwmd"
    dwmd: DwmdConfig = field(default_factory=DwmdConfig)
    cmd_order: int = 5
    mmd_bandwidth: object = "median"
    epochs: int = 30
    batch_size: int = 50
    learning_rate: float = 0.5
    momentum: float = 0.0
    seed: int = 1

    def __post_init__(self):
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"unknown regularizer {self.regularizer!r}")
        lam, lr, bw = self.lam, self.learning_rate, self.mmd_bandwidth
        _check("lam", lam, _is_real(lam) and 0.0 <= lam < np.inf, "a finite number >= 0")
        _check("learning_rate", lr, _is_real(lr) and 0.0 < lr < np.inf, "a finite number > 0")
        _check_real("momentum", self.momentum, lambda mu: 0.0 <= mu < 1.0, "in [0, 1)")
        for name in ("epochs", "batch_size", "cmd_order"):
            _check_count(name, getattr(self, name))
        _check_seed(self.seed)
        _check("dwmd", self.dwmd, isinstance(self.dwmd, DwmdConfig), "a DwmdConfig")
        ok = (isinstance(bw, str) and bw == "median") or (_is_real(bw) and 0.0 < bw < np.inf)
        _check("mmd_bandwidth", bw, ok, "'median' or a finite number > 0")
        if not isinstance(bw, str):
            disc._check_bandwidth_scale("mmd_bandwidth", bw)
        trims = self.lam > 0.0 and self.regularizer in ("dwmd", "smd")
        ok = not trims or self.batch_size >= MIN_TRIMMING_BATCH
        what = f">= {MIN_TRIMMING_BATCH} per domain for trimmed-mean weighting"
        _check("batch_size", self.batch_size, ok, what, str)


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss, non-finite activations or an
    overflowing moment; the message names the epoch and step."""


@dataclass
class TrainedModel:
    spec: NetworkSpec
    weights: list
    biases: list
    history: dict


def init_model(spec, seed=1):
    """Glorot-uniform weights, zero biases, for a NetworkSpec and an integer
    seed >= 0."""
    _check("spec", spec, isinstance(spec, NetworkSpec), "a NetworkSpec")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return TrainedModel(spec=spec, weights=weights, biases=biases, history={})


def forward(model, batch):
    """Hidden activations per layer plus softmax class probabilities."""
    x = validate_samples(batch, "batch")
    if x.shape[1] != model.spec.layer_sizes[0]:
        raise ValueError(
            f"batch width {x.shape[1]} != input width {model.spec.layer_sizes[0]}"
        )
    return _forward(model, x)


def _forward(model, x):
    """forward on a float64 batch of the input width, which it does not check.
    Each hidden layer is built in the array its matrix product returns. At
    the output, the bias, each row's max and the exponential run along the
    class rows of one class-major (K, rows) copy of the logits, not once per
    K-wide batch row, and the result is copied back into the logits array.
    The normalizing sum and the divide stay row-major: numpy's row sum adds
    eight classes or more in another order than a class-major sum."""
    hiddens = []
    a = x
    for i, name in enumerate(model.spec.activations):
        a = a @ model.weights[i]
        a += model.biases[i]
        if name == "sigmoid":
            # 1 / (1 + exp(-z)); exp overflow for very negative z saturates
            # to the correct limit 0.
            np.negative(a, out=a)
            with np.errstate(over="ignore"):
                np.exp(a, out=a)
            a += 1.0
            np.divide(1.0, a, out=a)
        else:
            np.maximum(a, 0.0, out=a)
        hiddens.append(a)
    probs = a @ model.weights[-1]
    logits = probs.T.copy()
    logits += model.biases[-1][:, None]
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    probs[...] = logits.T
    probs /= probs.sum(axis=1, keepdims=True)
    return hiddens, probs


def _regularizer_terms(cfg, a_s, a_t, frozen=None):
    """Value and activation gradients of the chosen regularizer on one
    matched layer's source/target activations, from one call to its public
    gradient function, which checks them and frozen. frozen pins the
    data-derived constants instead of recomputing them from the batch: a
    WeightProfile for dwmd/smd, a width vector for cmd, a bandwidth for mmd
    (in place of cfg.mmd_bandwidth); gradient-checking tests rely on this."""
    if cfg.regularizer in ("dwmd", "smd"):
        uniform = cfg.regularizer == "smd"
        report, g_s, g_t = disc.dwmd_with_gradient(a_s, a_t, cfg.dwmd, frozen, uniform)
        return report.total, g_s, g_t
    if cfg.regularizer == "cmd":
        return disc.cmd_with_gradient(a_s, a_t, cfg.cmd_order, widths=frozen)
    bandwidth = cfg.mmd_bandwidth if frozen is None else frozen
    return disc.mmd_rbf_with_gradient(a_s, a_t, bandwidth)


def _backward(model, x, hiddens, delta_out, external):
    """Backpropagate delta_out, the gradient at the output pre-activation,
    over the rows of x. external maps a hidden-layer index to the (source,
    target) gradients on its activations, added to the first rows and to the
    rest. It is consumed: each pair is popped and dropped once added, and each
    sigmoid slope once applied, so neither is alive beside the next layer's
    delta. Returns (grad_w, grad_b) lists, summed over every row."""
    grad_w, grad_b = [None] * len(model.weights), [None] * len(model.biases)
    grad_w[-1] = hiddens[-1].T @ delta_out
    grad_b[-1] = delta_out.sum(axis=0)
    delta = delta_out @ model.weights[-1].T
    for i in range(model.spec.n_hidden - 1, -1, -1):
        # delta: the gradient at layer i's activations, then at its pre-activations.
        if i in external:
            g_s, g_t = external.pop(i)
            delta[: g_s.shape[0]] += g_s
            delta[g_s.shape[0] :] += g_t
            del g_s, g_t
        a = hiddens[i]
        if model.spec.activations[i] == "sigmoid":
            slope = 1.0 - a
            slope *= a
            delta *= slope
            del slope
        else:
            delta *= a > 0.0
        below = x if i == 0 else hiddens[i - 1]
        grad_w[i] = below.T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.weights[i].T
    return grad_w, grad_b


def objective_gradient(model, x_s, y_s, x_t, cfg, frozen_profiles=None):
    """Loss, cross-entropy, per-matched-layer regularizer values and full
    parameter gradient for one source/target batch pair.

    The loss is mean source cross-entropy plus lambda times the summed
    regularizer values. A regularized step makes one forward and one backward
    pass over the source rows stacked on the target rows, any other step one
    over the source rows. The weight profile inside the regularizer is
    recomputed from the batch activations and held constant (stop-gradient).
    frozen_profiles maps a matched layer to the constants to pin instead: a
    WeightProfile for dwmd/smd, a width vector for cmd, or a bandwidth for
    mmd. This is the form finite-difference checks differentiate. Each
    matched layer's activations are checked once, by the regularizer's public
    gradient function, frozen constants or not: non-finite ones raise the
    ValueError that names the side, row and column. Each layer's two
    regularizer gradients are scaled by lambda into new contiguous arrays,
    which live only until the backward pass has added them to the source and
    the target rows.
    """
    m_b = x_s.shape[0]
    regularized = cfg.lam > 0.0 and cfg.regularizer != "none"
    x = np.concatenate((x_s, x_t)) if regularized else x_s
    hiddens, probs = _forward(model, x)
    # The flat index of each source row's label entry in the C-contiguous probs.
    n_classes = probs.shape[1]
    picked = np.arange(0, m_b * n_classes, n_classes) + y_s
    ce = float(-(np.add.reduce(np.log(np.maximum(probs.ravel().take(picked), 1e-300))) / m_b))
    delta_out = probs  # (probs - onehot) / m_b on the source rows, 0 on the target rows
    delta_out.ravel()[picked] -= 1.0
    delta_out[:m_b] /= m_b
    delta_out[m_b:] = 0.0
    reg_values, external = dict.fromkeys(model.spec.matched_layers, 0.0), {}
    if regularized:
        for layer in model.spec.matched_layers:
            frozen = frozen_profiles.get(layer) if frozen_profiles else None
            a = hiddens[layer]
            reg_values[layer], g_s, g_t = _regularizer_terms(cfg, a[:m_b], a[m_b:], frozen)
            external[layer] = np.multiply(g_s, cfg.lam), np.multiply(g_t, cfg.lam)
        # g_s and g_t may be the column halves of one (m, 2d) array; dropping
        # them frees it before the backward pass.
        del g_s, g_t
    grad_w, grad_b = _backward(model, x, hiddens, delta_out, external)
    loss = ce + cfg.lam * sum(reg_values.values())
    return loss, ce, reg_values, grad_w, grad_b


def _check_labels(name, labels, rows, n_rows, n_classes):
    """labels as an int64 vector. A ValueError that starts with name refuses
    them unless they have an integer dtype (Python ints do; floats and bools
    do not), one label for each of the n_rows rows, each in [0, n_classes)."""
    y = np.asarray(labels)
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"{name} must be integers, got dtype {y.dtype}")
    if y.shape != (n_rows,):
        raise ValueError(f"{name} must be one integer per {rows} row")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(
            f"{name} must lie in [0, {n_classes}), got range [{y.min()}, {y.max()}]"
        )
    return y.astype(np.int64, copy=False)


def _batch_order(rng, m, batch_size, n_steps):
    """Shuffled indices cycled to cover n_steps batches."""
    idx = rng.permutation(m)
    needed = n_steps * batch_size
    reps = int(np.ceil(needed / m))
    return np.tile(idx, reps)[:needed].reshape(n_steps, batch_size)


def train_uda(source, source_labels, target, spec, cfg, target_labels=None):
    """Minibatch SGD, with heavy-ball momentum cfg.momentum (0 is plain
    SGD), on source cross-entropy plus the domain regularizer.

    Each step pairs one source batch (with labels) and one target batch of
    equal size; the shorter domain cycles. target_labels, when given, are
    used for per-epoch evaluation only and never influence training.
    Deterministic given cfg.seed.
    """
    _check("spec", spec, isinstance(spec, NetworkSpec), "a NetworkSpec")
    _check("cfg", cfg, isinstance(cfg, TrainConfig), "a TrainConfig")
    x_s = validate_samples(source, "source")
    x_t = validate_samples(target, "target")
    y_s = _check_labels("source labels", source_labels, "source", x_s.shape[0], spec.n_classes)
    if target_labels is not None:
        target_labels = _check_labels(
            "target labels", target_labels, "target", x_t.shape[0], spec.n_classes
        )
    if x_s.shape[1] != spec.layer_sizes[0] or x_t.shape[1] != spec.layer_sizes[0]:
        raise ValueError("domain width does not match the network input width")

    model = init_model(spec, seed=cfg.seed)
    rng = np.random.default_rng((cfg.seed, 0x5EED))
    n_steps = max(
        int(np.ceil(x_s.shape[0] / cfg.batch_size)),
        int(np.ceil(x_t.shape[0] / cfg.batch_size)),
    )
    velocity = [np.zeros_like(p) for p in model.weights + model.biases]

    history = {
        "source_loss": [],
        "regularizer": {layer: [] for layer in spec.matched_layers},
        "target_accuracy": [],
    }
    for epoch in range(cfg.epochs):
        src_batches = _batch_order(rng, x_s.shape[0], cfg.batch_size, n_steps)
        tgt_batches = _batch_order(rng, x_t.shape[0], cfg.batch_size, n_steps)
        epoch_ce = 0.0
        epoch_reg = {layer: 0.0 for layer in spec.matched_layers}
        for step in range(n_steps):
            xb_s = x_s.take(src_batches[step], axis=0)
            yb_s = y_s.take(src_batches[step])
            xb_t = x_t.take(tgt_batches[step], axis=0)
            # A diverging step overflows before any check sees it; the checks
            # below report it, so numpy does not warn during the step.
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    loss, ce, reg_values, grad_w, grad_b = objective_gradient(
                        model, xb_s, yb_s, xb_t, cfg
                    )
                except FloatingPointError as exc:
                    raise TrainingDiverged(
                        f"training diverged at epoch {epoch + 1}, step {step + 1}: {exc}"
                    ) from exc
                except ValueError as exc:
                    # The inputs were checked above, so non-finite activations,
                    # which the regularizer refuses, mean the parameters diverged.
                    hiddens = _forward(model, np.concatenate((xb_s, xb_t)))[0]
                    if all(np.isfinite(a).all() for a in hiddens):
                        raise
                    raise TrainingDiverged(
                        f"training diverged at epoch {epoch + 1}, step {step + 1}: the hidden "
                        "activations went non-finite; lower the learning rate"
                    ) from exc
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch + 1}, step {step + 1}; "
                        "lower the learning rate"
                    )
                for p, v, g in zip(model.weights + model.biases, velocity, grad_w + grad_b):
                    v *= cfg.momentum
                    v -= cfg.learning_rate * g
                    p += v
            epoch_ce += ce
            for layer, value in reg_values.items():
                epoch_reg[layer] += value
        history["source_loss"].append(epoch_ce / n_steps)
        for layer in spec.matched_layers:
            history["regularizer"][layer].append(epoch_reg[layer] / n_steps)
        if target_labels is not None:
            history["target_accuracy"].append(evaluate(model, x_t, target_labels))
    model.history = history
    return model


def evaluate(model, samples, labels):
    """Fraction of argmax predictions matching the labels (ties broken
    toward the lowest class index)."""
    _, probs = forward(model, samples)
    y = _check_labels("labels", labels, "sample", probs.shape[0], model.spec.n_classes)
    return float(np.mean(np.argmax(probs, axis=1) == y))
