"""The training step's network passes against whole-array references.

The output layer runs on a class-major copy of the logits, the label terms
index the flat probabilities, and each regularizer gradient is scaled by
lambda into a new array. Each test here pins one of these to the plain
expressions it replaces, bit for bit.
"""

import warnings

import numpy as np
import pytest
from test_nettrain import reference_forward

from dwmd import nettrain
from dwmd.nettrain import NetworkSpec, TrainConfig, init_model, objective_gradient


def output_scaled_model(n_classes, x, reach):
    """A (3, 6, 5, K) relu/sigmoid net whose logits on x reach +-reach."""
    spec = NetworkSpec((3, 6, 5, n_classes), ("relu", "sigmoid"), (0, 1))
    model = init_model(spec, seed=n_classes)
    model.biases[-1][:] = np.linspace(-1.0, 1.0, n_classes)
    hidden = reference_forward(model, x)[0][-1]
    model.weights[-1] *= reach / np.abs(hidden @ model.weights[-1] + model.biases[-1]).max()
    return model


@pytest.mark.parametrize("reach", [2.0, 800.0])
@pytest.mark.parametrize("rows", [1, 7, 400, 1000])
@pytest.mark.parametrize("n_classes", [1, 2, 3, 7, 8, 12])
def test_forward_is_byte_equal_to_whole_array_expressions(n_classes, rows, reach):
    # At +-800 exp overflows and underflows, and no warning may escape. At
    # +-2 every class adds to the normalizer, and eight classes or more pin
    # it to numpy's row sum, which adds a row of eight or more in an order a
    # class-major sum does not.
    x = np.random.default_rng(rows).normal(size=(rows, 3))
    model = output_scaled_model(n_classes, x, reach)
    want_hiddens, want_probs = reference_forward(model, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hiddens, probs = nettrain._forward(model, x)
    assert probs.flags.c_contiguous
    for got, want in zip(hiddens + [probs], want_hiddens + [want_probs]):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def scaled_in_place_step(model, x_s, y_s, x_t, cfg):
    """objective_gradient with the label terms as 2-D fancy indexing and each
    returned regularizer gradient scaled by lambda in place."""
    m = x_s.shape[0]
    x = np.vstack([x_s, x_t])
    hiddens, probs = reference_forward(model, x)
    rows = np.arange(m)
    ce = float(-np.mean(np.log(np.clip(probs[rows, y_s], 1e-300, None))))
    delta_out = probs.copy()
    delta_out[rows, y_s] -= 1.0
    delta_out[:m] /= m
    delta_out[m:] = 0.0
    values, external = {}, {}
    for layer in model.spec.matched_layers:
        a = hiddens[layer]
        values[layer], g_s, g_t = nettrain._regularizer_terms(cfg, a[:m], a[m:])
        g_s *= cfg.lam
        g_t *= cfg.lam
        external[layer] = g_s, g_t
    grad_w, grad_b = nettrain._backward(model, x, hiddens, delta_out, external)
    return ce + cfg.lam * sum(values.values()), ce, values, grad_w, grad_b


def step_inputs(n_classes, m=60):
    rng = np.random.default_rng(n_classes)
    x_s, x_t = rng.normal(size=(m, 3)), rng.normal(0.4, 1.3, (m, 3))
    return x_s, np.arange(m) % n_classes, x_t


@pytest.mark.parametrize("lam", [0.37, 1, 2.5])
@pytest.mark.parametrize("regularizer", ["dwmd", "smd", "cmd", "mmd"])
def test_scaled_regularizer_gradients_are_bit_equal_to_in_place_scaling(regularizer, lam):
    x_s, y_s, x_t = step_inputs(2)
    model = init_model(NetworkSpec((3, 6, 5, 2), ("relu", "sigmoid"), (0, 1)), seed=3)
    cfg = TrainConfig(lam=lam, regularizer=regularizer)
    want = scaled_in_place_step(model, x_s, y_s, x_t, cfg)
    got = objective_gradient(model, x_s, y_s, x_t, cfg)
    assert got[:3] == want[:3]
    for g, w in zip(got[3] + got[4], want[3] + want[4]):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("regularizer", ["none", "cmd"])
def test_label_terms_index_the_flat_probabilities(monkeypatch, regularizer):
    x_s, y_s, x_t = step_inputs(3)
    assert set(y_s) == {0, 1, 2}
    model = init_model(NetworkSpec((3, 6, 5, 3), ("relu", "sigmoid"), (0, 1)), seed=5)
    cfg = TrainConfig(regularizer=regularizer)
    seen = []
    backward = nettrain._backward

    def recording_backward(model, x, hiddens, delta_out, external):
        # ravel() is a view only of a C-contiguous array; of any other, the
        # label term would be subtracted from a copy.
        assert delta_out.flags.c_contiguous
        seen.append(delta_out.copy())
        return backward(model, x, hiddens, delta_out, external)

    monkeypatch.setattr(nettrain, "_backward", recording_backward)
    m = x_s.shape[0]
    x = np.vstack([x_s, x_t]) if regularizer != "none" else x_s
    _, probs = reference_forward(model, x)
    rows = np.arange(m)
    want_ce = float(-np.mean(np.log(np.clip(probs[rows, y_s], 1e-300, None))))
    want_delta = probs.copy()
    want_delta[rows, y_s] -= 1.0
    want_delta[:m] /= m
    want_delta[m:] = 0.0
    ce = objective_gradient(model, x_s, y_s, x_t, cfg)[1]
    assert ce == want_ce
    assert seen[0].tobytes() == want_delta.tobytes()
