from dataclasses import replace

import numpy as np
import pytest

from dwmd.discrepancy import (
    DwmdConfig, cmd_with_gradient, dwmd_with_gradient, mmd_rbf_with_gradient,
)
from dwmd.nettrain import (
    NetworkSpec,
    TrainConfig,
    evaluate,
    forward,
    init_model,
    objective_gradient,
    train_uda,
)


def tiny_spec(**overrides):
    base = dict(layer_sizes=(2, 4, 2), activations=("sigmoid",), matched_layers=(0,))
    base.update(overrides)
    return NetworkSpec(**base)


def blob_task(seed=1, m=80, d=2):
    rng = np.random.default_rng(seed)
    half = m // 2
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    signs = np.where(labels == 0, -1.0, 1.0)[:, None]
    source = signs * [1.5, 0.0] + rng.normal(size=(m, d))
    target = signs * [1.5, 0.0] + rng.normal(size=(m, d)) + [0.5, 0.5]
    return source, labels, target, labels.copy()


def reference_backward(model, x, hiddens, delta_out, external):
    """Backpropagation over one domain's rows, as a loop; external maps a
    hidden layer to the gradient added on its activations. Returns the
    weight gradients followed by the bias gradients."""
    spec = model.spec
    grad_w, grad_b = [hiddens[-1].T @ delta_out], [delta_out.sum(axis=0)]
    delta_a = delta_out @ model.weights[-1].T
    for i in reversed(range(spec.n_hidden)):
        if i in external:
            delta_a = delta_a + external[i]
        a = hiddens[i]
        slope = a * (1.0 - a) if spec.activations[i] == "sigmoid" else (a > 0.0).astype(float)
        delta_z = delta_a * slope
        below = x if i == 0 else hiddens[i - 1]
        grad_w.insert(0, below.T @ delta_z)
        grad_b.insert(0, delta_z.sum(axis=0))
        delta_a = delta_z @ model.weights[i].T
    return grad_w + grad_b


def reference_forward(model, x):
    """The forward pass as whole-array expressions, each step a fresh array."""
    hiddens, a = [], x
    for i, name in enumerate(model.spec.activations):
        z = a @ model.weights[i] + model.biases[i]
        with np.errstate(over="ignore"):
            a = 1.0 / (1.0 + np.exp(-z)) if name == "sigmoid" else np.maximum(z, 0.0)
        hiddens.append(a)
    z = a @ model.weights[-1] + model.biases[-1]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return hiddens, e / e.sum(axis=1, keepdims=True)


def reference_regularizer(cfg, a_s, a_t):
    if cfg.regularizer in ("dwmd", "smd"):
        report, g_s, g_t = dwmd_with_gradient(a_s, a_t, cfg.dwmd, uniform=cfg.regularizer == "smd")
        return report.total, g_s, g_t
    if cfg.regularizer == "cmd":
        return cmd_with_gradient(a_s, a_t, cfg.cmd_order)
    return mmd_rbf_with_gradient(a_s, a_t, cfg.mmd_bandwidth)


def reference_step(model, x_s, y_s, x_t, cfg):
    """One training step as two passes: the source rows forward and backward
    with the cross-entropy and source regularizer gradients, the target rows
    with the target regularizer gradients alone, the two gradients added.
    Returns the loss, cross-entropy, regularizer values, the source pass's
    own gradients and the summed gradients."""
    hid_s, probs = forward(model, x_s)
    hid_t, _ = forward(model, x_t)
    m = x_s.shape[0]
    ce = float(-np.mean(np.log(np.clip(probs[np.arange(m), y_s], 1e-300, None))))
    delta_out = (probs - np.eye(probs.shape[1])[y_s]) / m
    values, ext_s, ext_t = {}, {}, {}
    for layer in model.spec.matched_layers:
        values[layer], g_s, g_t = reference_regularizer(cfg, hid_s[layer], hid_t[layer])
        ext_s[layer], ext_t[layer] = cfg.lam * g_s, cfg.lam * g_t
    source_only = reference_backward(model, x_s, hid_s, delta_out, {})
    source = reference_backward(model, x_s, hid_s, delta_out, ext_s)
    zero_out = np.zeros((x_t.shape[0], probs.shape[1]))
    target = reference_backward(model, x_t, hid_t, zero_out, ext_t)
    grads = [g + h for g, h in zip(source, target)]
    loss = ce + cfg.lam * sum(values.values())
    return loss, ce, values, source_only, grads


class TestSpecValidation:
    def test_needs_hidden_layer(self):
        with pytest.raises(ValueError):
            NetworkSpec((2, 2), (), (0,))

    def test_activation_count(self):
        with pytest.raises(ValueError):
            NetworkSpec((2, 4, 2), ("sigmoid", "relu"), (0,))

    def test_matched_layer_range(self):
        with pytest.raises(ValueError):
            NetworkSpec((2, 4, 2), ("sigmoid",), (1,))

    def test_matched_layers_non_empty(self):
        with pytest.raises(ValueError):
            NetworkSpec((2, 4, 2), ("sigmoid",), ())


class TestForward:
    def test_zero_weights_sigmoid(self):
        model = init_model(tiny_spec())
        for w in model.weights:
            w[:] = 0.0
        hiddens, probs = forward(model, np.array([[3.0, -1.0]]))
        np.testing.assert_array_equal(hiddens[0], 0.5)
        np.testing.assert_allclose(probs, 0.5)

    def test_relu_dead_when_preactivations_negative(self):
        model = init_model(tiny_spec(activations=("relu",)))
        model.weights[0][:] = 0.0
        model.biases[0][:] = -1.0
        hiddens, _ = forward(model, np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(hiddens[0], 0.0)

    def test_probabilities_rows_sum_to_one(self):
        model = init_model(tiny_spec(layer_sizes=(3, 5, 4)), seed=7)
        x = np.random.default_rng(0).normal(size=(20, 3))
        _, probs = forward(model, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_width_mismatch(self):
        model = init_model(tiny_spec())
        with pytest.raises(ValueError, match="width"):
            forward(model, np.zeros((4, 3)))

    @pytest.mark.parametrize("activations", [("relu", "sigmoid"), ("sigmoid", "relu")])
    def test_bit_equal_to_whole_array_expressions(self, activations):
        # Each layer is scaled so that its pre-activations reach +-800, where
        # exp overflows; no warning may escape forward or evaluate, which run
        # outside the training step's errstate.
        model = init_model(tiny_spec(layer_sizes=(2, 12, 8, 3), activations=activations), seed=4)
        x = np.random.default_rng(5).normal(size=(200, 2))
        for i, w in enumerate(model.weights):
            below = x if i == 0 else reference_forward(model, x)[0][i - 1]
            w *= 800.0 / np.abs(below @ w).max()
        want_hiddens, want_probs = reference_forward(model, x)
        sigmoid = activations.index("sigmoid")
        assert (want_hiddens[sigmoid] == 0.0).any() and (want_hiddens[sigmoid] == 1.0).any()
        hiddens, probs = forward(model, x)
        for got, want in zip(hiddens + [probs], want_hiddens + [want_probs]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        labels = np.arange(200) % 3
        assert evaluate(model, x, labels) == np.mean(want_probs.argmax(axis=1) == labels)


class TestObjectiveGradient:
    @pytest.mark.parametrize("regularizer", ["dwmd", "smd", "cmd", "mmd"])
    def test_total_objective_matches_finite_differences(self, regularizer):
        from dwmd.weighting import weight_profile

        spec = tiny_spec()
        cfg = TrainConfig(
            regularizer=regularizer,
            dwmd=DwmdConfig(n=2),
            batch_size=20,
            mmd_bandwidth=1.0,
        )
        x_s, y_s, x_t, _ = blob_task(m=24)
        x_s, y_s, x_t = x_s[:8], y_s[:8], x_t[:8]
        model = init_model(spec, seed=3)

        frozen = None
        if regularizer in ("dwmd", "smd", "cmd"):
            from dwmd.discrepancy import _cmd_widths

            hid_s, _ = forward(model, x_s)
            hid_t, _ = forward(model, x_t)
            if regularizer == "cmd":
                frozen = {0: _cmd_widths(hid_s[0], hid_t[0])}
            else:
                frozen = {
                    0: weight_profile(
                        hid_s[0], hid_t[0], cfg.dwmd.alpha, cfg.dwmd.c_policy, cfg.dwmd.c_value
                    )
                }

        loss, _, _, grad_w, grad_b = objective_gradient(
            model, x_s, y_s, x_t, cfg, frozen_profiles=frozen
        )
        h = 1e-6
        worst = 0.0
        for i in range(len(model.weights)):
            for idx in [(0, 0), (1, 1)]:
                orig = model.weights[i][idx]
                model.weights[i][idx] = orig + h
                up = objective_gradient(model, x_s, y_s, x_t, cfg, frozen_profiles=frozen)[0]
                model.weights[i][idx] = orig - h
                down = objective_gradient(model, x_s, y_s, x_t, cfg, frozen_profiles=frozen)[0]
                model.weights[i][idx] = orig
                fd = (up - down) / (2 * h)
                if abs(fd) > 1e-6:
                    worst = max(worst, abs(grad_w[i][idx] - fd) / abs(fd))
        assert worst < 1e-5

    def test_frozen_mmd_bandwidth_is_used(self):
        from dwmd.weighting import weight_profile

        spec = tiny_spec(layer_sizes=(2, 6, 2))
        model = init_model(spec, seed=5)
        x_s, y_s, x_t, _ = blob_task(m=30)
        frozen = objective_gradient(
            model, x_s, y_s, x_t, TrainConfig(regularizer="mmd"), frozen_profiles={0: 0.5}
        )
        pinned = objective_gradient(
            model, x_s, y_s, x_t, TrainConfig(regularizer="mmd", mmd_bandwidth=0.5)
        )
        assert frozen[0] == pinned[0] and frozen[2] == pinned[2]
        for got, expected in zip(frozen[3] + frozen[4], pinned[3] + pinned[4]):
            assert np.array_equal(got, expected)
        hiddens, _ = forward(model, x_s)
        profile = weight_profile(hiddens[0], hiddens[0], 0.1)
        with pytest.raises(ValueError, match="bandwidth"):
            objective_gradient(
                model, x_s, y_s, x_t, TrainConfig(regularizer="mmd"), frozen_profiles={0: profile}
            )

    @pytest.mark.parametrize("m_t", [40, 25])
    @pytest.mark.parametrize("regularizer", ["dwmd", "smd", "cmd", "mmd"])
    def test_stacked_step_matches_two_passes(self, regularizer, m_t):
        # One forward and one backward pass over the stacked source and
        # target rows give the two-pass values bit for bit and the gradient
        # up to the order of its row sums.
        spec = tiny_spec(layer_sizes=(2, 6, 5, 3), activations=("relu", "sigmoid"),
                         matched_layers=(0, 1))
        model = init_model(spec, seed=4)
        x_s, _, x_t, _ = blob_task(m=40)
        y_s, x_t = np.arange(40) % 3, x_t[:m_t]
        cfg = TrainConfig(regularizer=regularizer, lam=0.8, batch_size=40)
        loss, ce, values, grad_w, grad_b = objective_gradient(model, x_s, y_s, x_t, cfg)
        want_loss, want_ce, want_values, _, want = reference_step(model, x_s, y_s, x_t, cfg)
        assert (loss, ce, values) == (want_loss, want_ce, want_values)
        assert all(v > 0.0 for v in values.values())
        for got, ref in zip(grad_w + grad_b, want):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

        unregularized = replace(cfg, lam=0.0)
        _, ce, values, grad_w, grad_b = objective_gradient(model, x_s, y_s, x_t, unregularized)
        _, want_ce, _, source_only, _ = reference_step(model, x_s, y_s, x_t, unregularized)
        assert ce == want_ce and values == {0: 0.0, 1: 0.0}
        for got, ref in zip(grad_w + grad_b, source_only):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("regularizer", ["dwmd", "smd"])
    def test_one_weight_profile_per_matched_layer(self, regularizer, monkeypatch):
        import dwmd.discrepancy
        from dwmd.weighting import weight_profile

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return weight_profile(*args, **kwargs)

        monkeypatch.setattr(dwmd.discrepancy, "weight_profile", counted)
        spec = tiny_spec(layer_sizes=(2, 4, 3, 2), activations=("sigmoid", "relu"),
                         matched_layers=(0, 1))
        x_s, y_s, x_t, _ = blob_task(m=40)
        cfg = TrainConfig(regularizer=regularizer, batch_size=40)
        objective_gradient(init_model(spec, seed=3), x_s, y_s, x_t, cfg)
        assert len(calls) == 2


class TestTrainUda:
    def test_lambda_zero_equals_source_only(self):
        x_s, y_s, x_t, _ = blob_task()
        spec = tiny_spec()
        kwargs = dict(epochs=3, batch_size=20, learning_rate=0.3, seed=5)
        a = train_uda(x_s, y_s, x_t, spec, TrainConfig(lam=0.0, regularizer="dwmd", **kwargs))
        b = train_uda(x_s, y_s, x_t, spec, TrainConfig(lam=1.0, regularizer="none", **kwargs))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert a.history["source_loss"] == b.history["source_loss"]

    def test_determinism(self):
        x_s, y_s, x_t, y_t = blob_task()
        spec = tiny_spec()
        cfg = TrainConfig(epochs=3, batch_size=20, seed=11)
        a = train_uda(x_s, y_s, x_t, spec, cfg, target_labels=y_t)
        b = train_uda(x_s, y_s, x_t, spec, cfg, target_labels=y_t)
        assert a.history == b.history
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_lambda_continuity_at_zero(self):
        x_s, y_s, x_t, _ = blob_task()
        spec = tiny_spec()
        kwargs = dict(epochs=1, batch_size=20, learning_rate=0.3, seed=2)
        a = train_uda(x_s, y_s, x_t, spec, TrainConfig(lam=0.0, **kwargs))
        b = train_uda(x_s, y_s, x_t, spec, TrainConfig(lam=1e-12, **kwargs))
        for wa, wb in zip(a.weights, b.weights):
            assert np.max(np.abs(wa - wb)) <= 1e-9

    def test_history_lengths_and_finiteness(self):
        x_s, y_s, x_t, y_t = blob_task()
        cfg = TrainConfig(epochs=4, batch_size=20, seed=1)
        model = train_uda(x_s, y_s, x_t, tiny_spec(), cfg, target_labels=y_t)
        assert len(model.history["source_loss"]) == 4
        assert len(model.history["regularizer"][0]) == 4
        assert len(model.history["target_accuracy"]) == 4
        assert np.all(np.isfinite(model.history["source_loss"]))
        assert np.all(np.isfinite(model.history["regularizer"][0]))

    def test_divergence_aborts_with_context(self):
        x_s, y_s, x_t, _ = blob_task()
        cfg = TrainConfig(epochs=5, batch_size=20, learning_rate=1e12, seed=1)
        spec = tiny_spec(activations=("relu",))
        with pytest.raises(RuntimeError, match="epoch"):
            with np.errstate(all="ignore"):
                train_uda(x_s * 100, y_s, x_t * 100, spec, cfg)

    def test_batch_floor_for_trimming(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=10, regularizer="dwmd")

    def test_small_batch_fine_without_trimming(self):
        TrainConfig(batch_size=10, regularizer="none")
        TrainConfig(batch_size=10, regularizer="cmd")

    def test_bad_labels(self):
        x_s, y_s, x_t, _ = blob_task()
        with pytest.raises(ValueError, match="labels"):
            train_uda(x_s, y_s + 5, x_t, tiny_spec(), TrainConfig(epochs=1, batch_size=20))


class TestRegularizerProgress:
    def test_matched_layer_discrepancy_halves_on_rotated_moons(self):
        # Pinned regression: ratio observed at 0.362 for this exact setup.
        from dwmd.harness import gen_moons

        spec = tiny_spec(layer_sizes=(2, 16, 2))
        source, y_s, target, _ = gen_moons(400, 40.0, 0.1, seed=2)
        cfg = TrainConfig(
            lam=1.0,
            regularizer="dwmd",
            epochs=80,
            batch_size=100,
            learning_rate=1.0,
            seed=2,
        )
        model = train_uda(source, y_s, target, spec, cfg)
        trace = model.history["regularizer"][0]
        assert trace[-1] <= 0.5 * trace[0]


class TestEvaluate:
    def test_uniform_model_tie_breaks_to_class_zero(self):
        model = init_model(tiny_spec())
        for w in model.weights:
            w[:] = 0.0
        x = np.random.default_rng(0).normal(size=(10, 2))
        assert evaluate(model, x, np.zeros(10, dtype=int)) == 1.0

    def test_memorizes_separable_points(self):
        rng = np.random.default_rng(6)
        x = np.vstack([rng.normal(-2, 0.3, (25, 2)), rng.normal(2, 0.3, (25, 2))])
        y = np.array([0] * 25 + [1] * 25)
        cfg = TrainConfig(
            lam=0.0, epochs=100, batch_size=50, learning_rate=1.0, seed=1, regularizer="none"
        )
        model = train_uda(x, y, x, tiny_spec(), cfg)
        assert evaluate(model, x, y) == 1.0

    def test_random_labels_near_half(self):
        rng = np.random.default_rng(3)
        model = init_model(tiny_spec(), seed=9)
        x = rng.normal(size=(10_000, 2))
        y = rng.integers(0, 2, 10_000)
        assert abs(evaluate(model, x, y) - 0.5) < 0.02

    def test_length_mismatch(self):
        model = init_model(tiny_spec())
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((5, 2)), np.zeros(4, dtype=int))


class TestMomentum:
    @pytest.mark.parametrize("momentum", [-0.1, 1.0, 1.5, float("nan")])
    def test_rejects_momentum_outside_unit_interval(self, momentum):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig(momentum=momentum)

    def test_heavy_ball_run_is_deterministic_and_differs_from_sgd(self):
        x_s, y_s, x_t, y_t = blob_task()
        spec = tiny_spec()
        kwargs = dict(epochs=3, batch_size=20, learning_rate=0.3, seed=4)
        plain = train_uda(x_s, y_s, x_t, spec, TrainConfig(momentum=0.0, **kwargs))
        runs = [
            train_uda(x_s, y_s, x_t, spec, TrainConfig(momentum=0.9, **kwargs), target_labels=y_t)
            for _ in range(2)
        ]
        assert runs[0].history == runs[1].history
        for wa, wb, wp in zip(runs[0].weights, runs[1].weights, plain.weights):
            np.testing.assert_array_equal(wa, wb)
            assert not np.array_equal(wa, wp)


class TestConfigChecks:
    @pytest.mark.parametrize("order", [0, -1])
    def test_rejects_cmd_order_below_one(self, order):
        with pytest.raises(ValueError, match=f"cmd_order must be >= 1, got {order}"):
            TrainConfig(cmd_order=order)

    @pytest.mark.parametrize(
        "bandwidth", [-1, 0, 0.0, float("nan"), float("inf"), "abc", "", [1.0], None]
    )
    def test_rejects_bad_mmd_bandwidth(self, bandwidth):
        message = "mmd_bandwidth must be 'median' or a finite number > 0"
        with pytest.raises(ValueError, match=message):
            TrainConfig(mmd_bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", ["median", 0.5, 2, np.float64(1e-3)])
    def test_accepts_median_and_positive_numbers(self, bandwidth):
        assert TrainConfig(mmd_bandwidth=bandwidth).mmd_bandwidth == bandwidth


def test_non_finite_loss_aborts_with_epoch_and_step():
    from dwmd.harness import gen_moons
    from dwmd.nettrain import TrainingDiverged

    x_s, y_s, x_t, _ = gen_moons(400, 40.0, 0.1, seed=1)
    spec = NetworkSpec((2, 16, 16, 2), ("relu", "relu"), matched_layers=(0,))
    cfg = TrainConfig(regularizer="none", batch_size=50, learning_rate=1e150)
    with pytest.raises(TrainingDiverged, match="non-finite loss at epoch 1, step 2;"):
        with np.errstate(all="ignore"):
            train_uda(x_s * 100, y_s, x_t * 100, spec, cfg)


class TestConfigTypes:
    @pytest.mark.parametrize("key", ["epochs", "batch_size", "cmd_order"])
    @pytest.mark.parametrize("value", [2.5, 30.0, "30", None, True])
    def test_counts_must_be_integers(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("key", ["epochs", "batch_size", "cmd_order"])
    def test_numpy_integers_accepted(self, key):
        assert getattr(TrainConfig(**{key: np.int64(30)}), key) == 30

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0, "1"])
    def test_lam_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="lam must be a finite number >= 0"):
            TrainConfig(lam=lam)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), "0.5", None])
    def test_learning_rate_must_be_finite(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be a finite number"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("lr", [0, 0.0, -1.0])
    def test_learning_rate_must_be_positive(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be a finite number > 0"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("momentum", ["0.5", None, True])
    def test_momentum_must_be_a_real_number(self, momentum):
        with pytest.raises(ValueError, match="momentum must be a real number"):
            TrainConfig(momentum=momentum)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "1", None, True, -1])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            TrainConfig(seed=seed)

    def test_seed_accepts_zero_and_numpy_integers(self):
        assert TrainConfig(seed=0).seed == 0
        assert TrainConfig(seed=np.int64(7)).seed == 7
