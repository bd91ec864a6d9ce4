import numpy as np
import pytest

from dwmd.discrepancy import DwmdConfig
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
