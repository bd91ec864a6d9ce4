"""End-to-end acceptance checks.

Each test covers one shipped guarantee and prints a single PASS/FAIL line so
the suite output doubles as a checklist. Criteria with runtime budgets assert
them explicitly.
"""

import filecmp
import os
import time

import numpy as np

from dwmd.discrepancy import (
    DwmdConfig,
    dwmd,
    dwmd_from_moments,
    dwmd_gradient,
    smd,
    truncation_bound,
)
from dwmd.harness import (
    UdaExperiment,
    gen_gaussian_shift,
    gen_moons,
    run_experiment,
    write_report,
)
from dwmd.nettrain import (
    NetworkSpec,
    TrainConfig,
    forward,
    init_model,
    objective_gradient,
    train_uda,
)
from dwmd.weighting import WeightProfile, robust_dim_means, weight_profile


def announce(number, name, ok):
    print(f"criterion {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def fixed_profile(rng, d):
    tau = rng.uniform(0.2, 2.0, d)
    return WeightProfile(
        tau=tau,
        tau_normalized=tau / tau.max(),
        tau_max=float(tau.max()),
        c_resolved=0.05,
        alpha=0.1,
    )


class TestMetricAxioms:
    def test_fixed_weight_series_is_a_metric(self):
        start = time.perf_counter()
        rng = np.random.default_rng(10)
        d, triples_per_beta = 3, 3400
        ok = True
        for beta in (0.5, 0.8, 1.0):
            config = DwmdConfig(n=5, beta=beta)
            profile = fixed_profile(rng, d)
            for _ in range(triples_per_beta):
                a, b, c = rng.uniform(-2.0, 2.0, (3, config.n, d))
                d_ab = dwmd_from_moments(a, b, profile, config).total
                d_ba = dwmd_from_moments(b, a, profile, config).total
                d_bc = dwmd_from_moments(b, c, profile, config).total
                d_ac = dwmd_from_moments(a, c, profile, config).total
                d_aa = dwmd_from_moments(a, a, profile, config).total
                ok &= d_ab >= 0.0 and d_bc >= 0.0 and d_ac >= 0.0
                ok &= d_aa == 0.0
                ok &= d_ab == d_ba
                ok &= d_ac - (d_ab + d_bc) <= 1e-12
                if not ok:
                    break
        elapsed = time.perf_counter() - start
        announce(1, "metric axioms", ok and elapsed < 10.0)


class TestTruncationBound:
    def test_tail_never_exceeds_closed_form(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20)
        profile = WeightProfile(
            tau=np.array([1.0]),
            tau_normalized=np.array([1.0]),
            tau_max=1.0,
            c_resolved=0.05,
            alpha=0.1,
        )
        violations = 0
        for _ in range(1000):
            psi = float(rng.choice([1.0, 2.0, 3.0]))
            long_cfg = DwmdConfig(n=200, psi=psi)
            short_cfg = DwmdConfig(n=5, psi=psi)
            moments = rng.uniform(-1.0, 1.0, (2, 200, 1))
            full = dwmd_from_moments(moments[0], moments[1], profile, long_cfg).total
            head = dwmd_from_moments(moments[0, :5], moments[1, :5], profile, short_cfg).total
            bound = truncation_bound(profile, psi, 5)
            if bound is None or abs(full - head) > bound:
                violations += 1
        elapsed = time.perf_counter() - start
        announce(2, "truncation bound", violations == 0 and elapsed < 10.0)


def finite_difference(func, x, indices, h=1e-6):
    out = {}
    for idx in indices:
        orig = x[idx]
        x[idx] = orig + h
        up = func()
        x[idx] = orig - h
        down = func()
        x[idx] = orig
        out[idx] = (up - down) / (2.0 * h)
    return out


class TestGradientCorrectness:
    def test_metric_and_training_step_gradients(self):
        start = time.perf_counter()
        rng = np.random.default_rng(30)
        ok = True

        source = rng.normal(0.0, 1.0, (30, 3))
        target = rng.normal(0.5, 1.2, (30, 3))
        for beta, tol in ((1.0, 1e-5), (0.8, 1e-4), (0.5, 1e-4)):
            config = DwmdConfig(n=4, beta=beta)
            profile = weight_profile(source, target, config.alpha)
            grad_s, grad_t = dwmd_gradient(source, target, config, profile=profile)
            value = lambda: dwmd(source, target, config, profile=profile).total
            probes = [(0, 0), (7, 1), (19, 2)]
            for matrix, grad in ((source, grad_s), (target, grad_t)):
                for idx, fd in finite_difference(value, matrix, probes).items():
                    if abs(fd) > 1e-6:
                        ok &= abs(grad[idx] - fd) / abs(fd) < tol

        spec = NetworkSpec((2, 8, 4, 2), ("sigmoid", "sigmoid"), (0, 1))
        cfg = TrainConfig(regularizer="dwmd", dwmd=DwmdConfig(n=3), batch_size=20)
        x_s = rng.normal(0.0, 1.0, (20, 2))
        y_s = rng.integers(0, 2, 20)
        x_t = rng.normal(0.5, 1.0, (20, 2))
        model = init_model(spec, seed=4)
        hid_s, _ = forward(model, x_s)
        hid_t, _ = forward(model, x_t)
        frozen = {
            layer: weight_profile(hid_s[layer], hid_t[layer], cfg.dwmd.alpha)
            for layer in spec.matched_layers
        }
        loss_fn = lambda: objective_gradient(model, x_s, y_s, x_t, cfg, frozen_profiles=frozen)[0]
        _, _, _, grad_w, _ = objective_gradient(model, x_s, y_s, x_t, cfg, frozen_profiles=frozen)
        for i, weights in enumerate(model.weights):
            for idx, fd in finite_difference(loss_fn, weights, [(0, 0), (1, 1)]).items():
                if abs(fd) > 1e-6:
                    ok &= abs(grad_w[i][idx] - fd) / abs(fd) < 1e-5
        elapsed = time.perf_counter() - start
        announce(3, "gradient correctness", ok and elapsed < 30.0)


class TestUniformWeightDegeneracy:
    def test_uniform_weights_collapse_to_the_average_form(self):
        rng = np.random.default_rng(40)
        source = rng.normal(0.0, 1.0, (50, 4))
        target = rng.normal(1.0, 1.0, (50, 4))
        config = DwmdConfig(n=5)
        uniform = WeightProfile(
            tau=np.full(4, 0.7),
            tau_normalized=np.ones(4),
            tau_max=0.7,
            c_resolved=0.05,
            alpha=0.1,
        )
        weighted = dwmd(source, target, config, profile=uniform).total
        averaged = smd(source, target, config, profile=uniform).total
        rel = abs(weighted - averaged) / averaged
        s1, t1 = source[:, :1], target[:, :1]
        exact = dwmd(s1, t1, config).total == smd(s1, t1, config).total
        announce(4, "uniform-weight degeneracy", rel <= 1e-12 and exact)


class TestDimensionalSignal:
    def test_offset_dimension_carries_the_largest_weight(self):
        offset = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        hits = 0
        for seed in range(100):
            s, _, t, _ = gen_gaussian_shift(1000, 5, offset, np.ones(5), seed)
            tau = np.abs(robust_dim_means(s, 0.1) - robust_dim_means(t, 0.1))
            hits += int(np.argmax(tau) == 0)
        announce(5, "dimensional weighting signal", hits >= 95)


MOONS_SPEC = NetworkSpec((2, 16, 2), ("sigmoid",), (0,))


def moons_accuracies(n, rotation, m, epochs, batch_size, lam=1.0):
    finals, declines = [], []
    for seed in range(1, 6):
        s, y_s, t, y_t = gen_moons(m, rotation, 0.1, seed)
        cfg = TrainConfig(
            lam=lam,
            regularizer="dwmd",
            dwmd=DwmdConfig(n=n),
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=1.0,
            seed=seed,
        )
        model = train_uda(s, y_s, t, MOONS_SPEC, cfg, target_labels=y_t)
        finals.append(model.history["target_accuracy"][-1])
        trace = model.history["regularizer"][0]
        declines.append(trace[-1] < trace[0])
    return float(np.mean(finals)), declines


class TestToyAdaptationDirection:
    def test_regularized_beats_source_only_and_discrepancy_falls(self):
        start = time.perf_counter()
        regularized, declines = moons_accuracies(5, 40.0, 400, 80, 100)
        source_only, _ = moons_accuracies(5, 40.0, 400, 80, 100, lam=0.0)
        elapsed = time.perf_counter() - start
        ok = regularized >= source_only and all(declines) and elapsed < 300.0
        announce(6, "toy adaptation direction", ok)


class TestMomentOrderSensitivity:
    def test_five_orders_beat_two(self):
        acc_5, _ = moons_accuracies(5, 50.0, 1000, 60, 200)
        acc_2, _ = moons_accuracies(2, 50.0, 1000, 60, 200)
        announce(7, "moment-order sensitivity", acc_5 >= acc_2)


class TestUnboundedActivationRobustness:
    def test_weighted_series_survives_where_range_scaling_fails(self):
        def final_values(activations, regularizer, seed):
            spec = NetworkSpec((2, 8, 8, 2), activations, (0, 1))
            s, y_s, t, y_t = gen_gaussian_shift(400, 2, [2.0, 0.0], [1.0, 1.0], seed)
            cfg = TrainConfig(
                lam=1.0,
                regularizer=regularizer,
                epochs=60,
                batch_size=50,
                learning_rate=2.0,
                seed=seed,
            )
            model = train_uda(s, y_s, t, spec, cfg, target_labels=y_t)
            history = model.history
            finite = np.all(np.isfinite(history["source_loss"])) and all(
                np.all(np.isfinite(v)) for v in history["regularizer"].values()
            )
            final = sum(v[-1] for v in history["regularizer"].values())
            return final, bool(finite)

        weighted_finite = all(
            final_values(("relu", "sigmoid"), "dwmd", seed)[1] for seed in range(1, 6)
        )
        blowups = 0
        for seed in range(1, 6):
            unbounded, _ = final_values(("relu", "sigmoid"), "cmd", seed)
            bounded, _ = final_values(("sigmoid", "sigmoid"), "cmd", seed)
            blowups += int(bounded > 0.0 and unbounded > 10.0 * bounded)
        announce(8, "unbounded-activation robustness", weighted_finite and blowups >= 1)


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        experiment = UdaExperiment(
            task={"kind": "moons", "m_per_domain": 200, "rotation_degrees": 40.0, "noise": 0.1},
            spec=NetworkSpec((2, 8, 2), ("sigmoid",), (0,)),
            cfg=TrainConfig(epochs=3, batch_size=40, learning_rate=0.5),
            repeats=3,
            outputs=str(tmp_path),
        )
        first, second = tmp_path / "first", tmp_path / "second"
        write_report(run_experiment(experiment), first)
        write_report(run_experiment(experiment), second)
        names = sorted(os.listdir(first))
        _, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
        identical = names == sorted(os.listdir(second)) and not mismatch and not errors
        announce(9, "determinism", identical)
