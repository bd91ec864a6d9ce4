"""Small from-scratch feedforward classifier with hidden-representation
matching.

Training minimizes source cross-entropy plus lambda times a discrepancy
regularizer evaluated on the hidden activations of one or more matched
layers, for a source batch and a target batch drawn each step. All math is
plain numpy; runs are deterministic given the seed.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import discrepancy as disc
from .discrepancy import DwmdConfig, _check_count, _check_real, _is_real, _sequence
from .moments import validate_samples

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
        if len(sizes) < 3:
            raise ValueError("need at least one hidden layer (input, hidden..., output)")
        if any(v < 1 for v in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        n_hidden = len(sizes) - 2
        if len(acts) != n_hidden:
            raise ValueError(f"expected {n_hidden} activation names, got {len(acts)}")
        for a in acts:
            if a not in ("sigmoid", "relu"):
                raise ValueError(f"unknown activation {a!r}")
        if not matched:
            raise ValueError("matched_layers must be non-empty")
        if any(not 0 <= v < n_hidden for v in matched):
            raise ValueError(f"matched_layers {matched} out of range for {n_hidden} hidden layers")

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
        if not (_is_real(self.lam) and 0.0 <= self.lam < np.inf):
            raise ValueError(f"lam must be a finite number >= 0, got {self.lam!r}")
        lr = self.learning_rate
        if not (_is_real(lr) and 0.0 < lr < np.inf):
            raise ValueError(f"learning_rate must be a finite number > 0, got {lr!r}")
        _check_real("momentum", self.momentum)
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        for name in ("epochs", "batch_size", "cmd_order"):
            _check_count(name, getattr(self, name))
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        bw = self.mmd_bandwidth
        if bw != "median" and not (_is_real(bw) and 0.0 < bw < np.inf):
            raise ValueError(f"mmd_bandwidth must be 'median' or a finite number > 0, got {bw!r}")
        needs_trimming = self.lam > 0.0 and self.regularizer in ("dwmd", "smd")
        if needs_trimming and self.batch_size < MIN_TRIMMING_BATCH:
            raise ValueError(
                f"batch_size {self.batch_size} too small for trimmed-mean weighting "
                f"(need >= {MIN_TRIMMING_BATCH} per domain)"
            )


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss, non-finite activations or an
    overflowing moment; the message names the epoch and step."""


@dataclass
class TrainedModel:
    spec: NetworkSpec
    weights: list
    biases: list
    history: dict


def _activate(name, z):
    if name == "sigmoid":
        # exp overflow for very negative z saturates to the correct limit 0.
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-z))
    return np.maximum(z, 0.0)


def _activate_grad(name, a):
    # Derivative expressed through the activation value.
    if name == "sigmoid":
        return a * (1.0 - a)
    return (a > 0.0).astype(np.float64)


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def init_model(spec, seed=1):
    """Glorot-uniform weights, zero biases."""
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
    """forward on a float64 batch of the input width, which it does not check."""
    hiddens = []
    a = x
    for i, name in enumerate(model.spec.activations):
        a = _activate(name, a @ model.weights[i] + model.biases[i])
        hiddens.append(a)
    probs = _softmax(a @ model.weights[-1] + model.biases[-1])
    return hiddens, probs


def _regularizer_terms(cfg, a_s, a_t, frozen=None):
    """Value and activation gradients of the chosen regularizer on one
    matched layer's source/target activations, from one call. frozen pins
    the data-derived constants instead of recomputing them from the batch:
    a WeightProfile for dwmd/smd, a width vector for cmd; gradient-checking
    tests rely on this."""
    if cfg.regularizer in ("dwmd", "smd"):
        uniform = cfg.regularizer == "smd"
        report, g_s, g_t = disc._series(a_s, a_t, cfg.dwmd, frozen, uniform, with_gradient=True)
        return report.total, g_s, g_t
    if cfg.regularizer == "cmd":
        return disc.cmd_with_gradient(a_s, a_t, cfg.cmd_order, widths=frozen)
    return disc.mmd_rbf_with_gradient(a_s, a_t, cfg.mmd_bandwidth)


def _backward(model, x, hiddens, delta_out, external):
    """Backpropagate, injecting extra gradients on hidden activations.

    delta_out: gradient at the output pre-activation (None for a pass with
    no classification loss). external: dict hidden-index -> gradient on that
    layer's activations. Returns (grad_w, grad_b) lists.
    """
    spec = model.spec
    grad_w = [np.zeros_like(w) for w in model.weights]
    grad_b = [np.zeros_like(b) for b in model.biases]
    if delta_out is not None:
        grad_w[-1] = hiddens[-1].T @ delta_out
        grad_b[-1] = delta_out.sum(axis=0)
        delta_a = delta_out @ model.weights[-1].T
    else:
        delta_a = np.zeros_like(hiddens[-1])
    for i in range(spec.n_hidden - 1, -1, -1):
        if i in external:
            delta_a = delta_a + external[i]
        delta_z = delta_a * _activate_grad(spec.activations[i], hiddens[i])
        below = x if i == 0 else hiddens[i - 1]
        grad_w[i] = below.T @ delta_z
        grad_b[i] = delta_z.sum(axis=0)
        if i > 0:
            delta_a = delta_z @ model.weights[i].T
    return grad_w, grad_b


def objective_gradient(model, x_s, y_s, x_t, cfg, frozen_profiles=None):
    """Loss, per-matched-layer regularizer values, and full parameter
    gradient for one source/target batch pair.

    The loss is mean cross-entropy on the source batch plus lambda times the
    summed regularizer values; the weight profile inside the regularizer is
    recomputed from the batch activations and held constant (stop-gradient).
    frozen_profiles maps a matched layer to the constants to pin instead: a
    WeightProfile for dwmd/smd, or a width vector for cmd. This is the form
    finite-difference checks differentiate.
    """
    hid_s, probs = _forward(model, x_s)
    m_b = x_s.shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(m_b), y_s] = 1.0
    ce = float(-np.mean(np.log(np.clip(probs[np.arange(m_b), y_s], 1e-300, None))))
    delta_out = (probs - onehot) / m_b

    reg_values, ext_s, ext_t = {}, {}, {}
    if cfg.lam > 0.0 and cfg.regularizer != "none":
        hid_t, _ = _forward(model, x_t)
        for layer in model.spec.matched_layers:
            frozen = frozen_profiles.get(layer) if frozen_profiles else None
            value, g_s, g_t = _regularizer_terms(cfg, hid_s[layer], hid_t[layer], frozen)
            reg_values[layer] = value
            ext_s[layer] = cfg.lam * g_s
            ext_t[layer] = cfg.lam * g_t
    else:
        reg_values = dict.fromkeys(model.spec.matched_layers, 0.0)

    grad_w, grad_b = _backward(model, x_s, hid_s, delta_out, ext_s)
    if ext_t:
        gtw, gtb = _backward(model, x_t, hid_t, None, ext_t)
        grad_w = [a + b for a, b in zip(grad_w, gtw)]
        grad_b = [a + b for a, b in zip(grad_b, gtb)]
    loss = ce + cfg.lam * sum(reg_values.values())
    return loss, ce, reg_values, grad_w, grad_b


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
    x_s = validate_samples(source, "source")
    x_t = validate_samples(target, "target")
    y_s = np.asarray(source_labels, dtype=np.int64)
    if y_s.shape != (x_s.shape[0],):
        raise ValueError("source labels must be one integer per source row")
    if y_s.min() < 0 or y_s.max() >= spec.n_classes:
        raise ValueError(
            f"source labels must lie in [0, {spec.n_classes}), got range "
            f"[{y_s.min()}, {y_s.max()}]"
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
            xb_s = x_s[src_batches[step]]
            yb_s = y_s[src_batches[step]]
            xb_t = x_t[tgt_batches[step]]
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
                with np.errstate(all="ignore"):
                    hiddens = _forward(model, xb_s)[0] + _forward(model, xb_t)[0]
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
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (probs.shape[0],):
        raise ValueError("labels must be one integer per sample row")
    return float(np.mean(np.argmax(probs, axis=1) == y))
