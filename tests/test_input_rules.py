"""Each input rule is written once, in dwmd.moments, and every public call
refuses a bad argument with a ValueError that names it; a diverging run, a
CSV row the csv module refuses and a wrong experiment field end the same
way, and the command line builds its parser once."""

import argparse
import csv
import json
import re
from dataclasses import fields

import numpy as np
import pytest

from dwmd import (
    DwmdConfig,
    NetworkSpec,
    TrainConfig,
    TrainingDiverged,
    central_moments,
    cmd,
    cmd_with_gradient,
    dwmd,
    dwmd_from_moments,
    dwmd_gradient,
    dwmd_with_gradient,
    evaluate,
    mmd_rbf,
    raw_moments,
    robust_dim_means,
    smd,
    smd_gradient,
    train_uda,
    truncation_bound,
    weight_profile,
)
from dwmd import nettrain
from dwmd.cli import main
from dwmd.harness import (
    UdaExperiment,
    _materialize_task,
    experiment_from_dict,
    experiment_to_dict,
    gen_gaussian_shift,
    gen_moons,
    load_csv,
    run_experiment,
    write_report,
)


def pair(seed=3, m=40, d=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, d)), rng.normal(0.5, 1.0, size=(m, d))


def profile(d=3):
    return weight_profile(*pair(d=d))


def frozen_step(frozen, regularizer="dwmd"):
    """One objective_gradient step on a (3, 4, 2) net with frozen constants
    for its matched layer, whose activations are 4 wide."""
    s, t = pair()
    model = nettrain.init_model(NetworkSpec((3, 4, 2), ("sigmoid",), (0,)))
    cfg = TrainConfig(regularizer=regularizer, batch_size=40)
    return nettrain.objective_gradient(model, s, np.zeros(40, int), t, cfg, {0: frozen})


def blob_run(y_s=None, y_t=None):
    """One epoch of train_uda on blobs(), with y_s and y_t, where given, in
    place of the blob labels."""
    source, labels, target, _ = blobs()
    spec, cfg = NetworkSpec((2, 4, 2), ("relu",), (0,)), TrainConfig(epochs=1, batch_size=40)
    y_s = labels if y_s is None else y_s
    return train_uda(source, y_s, target, spec, cfg, target_labels=y_t)


def blob_accuracy(labels):
    model = nettrain.init_model(NetworkSpec((2, 4, 2), ("relu",), (0,)))
    return evaluate(model, blobs()[0], labels)


NAMED_ERRORS = [
    ("cmd-k-float", lambda s, t: cmd(s, t, 2.5), "k"),
    ("cmd-k-bool", lambda s, t: cmd(s, t, True), "k"),
    ("cmd-k-str", lambda s, t: cmd(s, t, "3"), "k"),
    ("raw_moments-n", lambda s, t: raw_moments(s, 2.5), "n"),
    ("central_moments-n", lambda s, t: central_moments(s, 2.5), "n"),
    ("robust_dim_means-alpha", lambda s, t: robust_dim_means(s, "0.1"), "alpha"),
    ("weight_profile-alpha", lambda s, t: weight_profile(s, t, "0.1"), "alpha"),
    ("weight_profile-c_value",
     lambda s, t: weight_profile(s, t, 0.1, "scalar", "0.05"), "c_value"),
    ("weight_profile-c_value-0", lambda s, t: weight_profile(s, t, 0.1, "scalar", 0.0), "c_value"),
    ("truncation_bound-n", lambda s, t: truncation_bound(profile(), 1.0, 2.5), "n"),
    ("truncation_bound-n-0", lambda s, t: truncation_bound(profile(), 1.0, 0), "n"),
    ("truncation_bound-psi", lambda s, t: truncation_bound(profile(), "1", 3), "psi"),
    ("truncation_bound-psi-nan",
     lambda s, t: truncation_bound(profile(), float("nan"), 3), "psi"),
    ("weight_profile-c_value-inf",
     lambda s, t: weight_profile(s, t, 0.1, "scalar", float("inf")), "c_value"),
    ("DwmdConfig-c_value-inf", lambda s, t: DwmdConfig(c_value=float("inf")), "c_value"),
    ("dwmd_from_moments-source",
     lambda s, t: dwmd_from_moments(np.zeros((4, 3)), np.zeros((5, 3)), profile(), DwmdConfig()),
     "moments_source"),
    ("dwmd_from_moments-target",
     lambda s, t: dwmd_from_moments(np.zeros((5, 3)), np.zeros((5, 2)), profile(), DwmdConfig()),
     "moments_target"),
    ("mmd_rbf-bandwidth", lambda s, t: mmd_rbf(s, t, True), "bandwidth"),
    ("gen_moons-m", lambda s, t: gen_moons("60", 40.0, 0.1, 1), "m_per_domain"),
    ("gen_moons-noise", lambda s, t: gen_moons(60, 40.0, float("nan"), 1), "noise"),
    ("gen_gaussian_shift-m", lambda s, t: gen_gaussian_shift(2.5, 2, [0, 0], [1, 1], 1), "m"),
    ("gen_gaussian_shift-offset",
     lambda s, t: gen_gaussian_shift(50, 2, [np.nan, 0.0], [1, 1], 1), "offset"),
    ("gen_gaussian_shift-scale",
     lambda s, t: gen_gaussian_shift(50, 2, [0, 0], [1.0, np.nan], 1), "scale"),
    ("gen_gaussian_shift-scale-inf",
     lambda s, t: gen_gaussian_shift(50, 2, [0, 0], [np.inf, 1.0], 1), "scale"),
    ("dwmd-profile-one-column", lambda s, t: dwmd(s, t, profile=profile(d=1)), "profile"),
    ("smd-profile-four-columns", lambda s, t: smd(s, t, profile=profile(d=4)), "profile"),
    ("dwmd_with_gradient-profile-str",
     lambda s, t: dwmd_with_gradient(s, t, profile="x"), "profile"),
    ("dwmd_gradient-profile-one-column",
     lambda s, t: dwmd_gradient(s, t, profile=profile(d=1)), "profile"),
    ("smd_gradient-profile-str", lambda s, t: smd_gradient(s, t, profile="x"), "profile"),
    ("dwmd-config-dict", lambda s, t: dwmd(s, t, {"n": 3}), "config"),
    ("smd-config-dict", lambda s, t: smd(s, t, {"n": 3}), "config"),
    ("dwmd_with_gradient-config-dict",
     lambda s, t: dwmd_with_gradient(s, t, {"n": 3}), "config"),
    ("dwmd_gradient-config-dict", lambda s, t: dwmd_gradient(s, t, {"n": 3}), "config"),
    ("smd_gradient-config-dict", lambda s, t: smd_gradient(s, t, {"n": 3}), "config"),
    ("objective_gradient-frozen-profile-three-columns",
     lambda s, t: frozen_step(profile(d=3)), "profile"),
    ("objective_gradient-frozen-profile-str", lambda s, t: frozen_step("x", "smd"), "profile"),
    ("objective_gradient-frozen-widths-three",
     lambda s, t: frozen_step([1.0] * 3, "cmd"), "widths"),
    ("TrainConfig-dwmd-dict", lambda s, t: TrainConfig(dwmd={"n": 3}), "dwmd"),
    ("cmd_with_gradient-widths-zero",
     lambda s, t: cmd_with_gradient(s, t, widths=np.zeros(3)), "widths"),
    ("cmd_with_gradient-widths-nan",
     lambda s, t: cmd_with_gradient(s, t, widths=[1.0, np.nan, 1.0]), "widths"),
    ("cmd_with_gradient-widths-negative",
     lambda s, t: cmd_with_gradient(s, t, widths=-np.ones(3)), "widths"),
    ("cmd_with_gradient-widths-short",
     lambda s, t: cmd_with_gradient(s, t, widths=np.ones(2)), "widths"),
    ("cmd_with_gradient-widths-str",
     lambda s, t: cmd_with_gradient(s, t, widths="1,1,1"), "widths"),
    ("TrainConfig-mmd_bandwidth-array",
     lambda s, t: TrainConfig(regularizer="mmd", mmd_bandwidth=np.array([1.0, 2.0])),
     "mmd_bandwidth"),
    ("train_uda-source_labels-float",
     lambda s, t: blob_run(y_s=blobs()[1] + 0.6), "source labels"),
    ("train_uda-source_labels-bool",
     lambda s, t: blob_run(y_s=blobs()[1].astype(bool)), "source labels"),
    ("train_uda-target_labels-nan",
     lambda s, t: blob_run(y_t=np.full(80, np.nan)), "target labels"),
    ("train_uda-target_labels-short",
     lambda s, t: blob_run(y_t=blobs()[1][:-1]), "target labels"),
    ("evaluate-labels-float", lambda s, t: blob_accuracy(blobs()[1] + 0.6), "labels"),
    ("evaluate-labels-object", lambda s, t: blob_accuracy([0] * 79 + [2**70]), "labels"),
    ("dwmd_from_moments-profile-str",
     lambda s, t: dwmd_from_moments(np.zeros((5, 3)), np.zeros((5, 3)), "x", None), "profile"),
    ("dwmd_from_moments-profile-None",
     lambda s, t: dwmd_from_moments(np.zeros((5, 3)), np.zeros((5, 3)), None, None), "profile"),
    ("dwmd_from_moments-config-dict",
     lambda s, t: dwmd_from_moments(np.zeros((5, 3)), np.zeros((5, 3)), profile(), {"n": 5}),
     "config"),
    ("dwmd_from_moments-source-nan",
     lambda s, t: dwmd_from_moments(np.full((5, 3), np.nan), np.zeros((5, 3)), profile(), None),
     "moments_source"),
    ("dwmd_from_moments-target-inf",
     lambda s, t: dwmd_from_moments(np.zeros((5, 3)), np.full((5, 3), np.inf), profile(), None),
     "moments_target"),
    ("truncation_bound-profile-str", lambda s, t: truncation_bound("x", 1.0, 5), "profile"),
    ("truncation_bound-profile-None", lambda s, t: truncation_bound(None, 1.0, 5), "profile"),
    ("init_model-seed-None",
     lambda s, t: nettrain.init_model(NetworkSpec((2, 4, 2), ("relu",), (0,)), seed=None), "seed"),
    ("init_model-seed-float",
     lambda s, t: nettrain.init_model(NetworkSpec((2, 4, 2), ("relu",), (0,)), seed=1.0), "seed"),
    ("init_model-spec-str", lambda s, t: nettrain.init_model("x"), "spec"),
    ("train_uda-spec-tuple",
     lambda s, t: train_uda(*blobs()[:3], ((2, 4, 2), ("relu",), (0,)), TrainConfig()), "spec"),
    ("train_uda-cfg-dict",
     lambda s, t: train_uda(*blobs()[:3], NetworkSpec((2, 4, 2), ("relu",), (0,)), {}), "cfg"),
]


@pytest.mark.parametrize(
    "call, name", [case[1:] for case in NAMED_ERRORS], ids=[case[0] for case in NAMED_ERRORS]
)
def test_bad_argument_is_a_value_error_naming_it(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(*pair())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s, t: dwmd(s, t, profile=profile(d=1)),
         "profile must be a WeightProfile of d = 3, got d = 1"),
        (lambda s, t: frozen_step(profile(d=3)),
         "profile must be a WeightProfile of d = 4, got d = 3"),
        (lambda s, t: cmd_with_gradient(s, t, widths=[1.0, 0.0, 2.0]),
         "widths must be a list of 3 finite numbers > 0, got [1.0, 0.0, 2.0]"),
    ],
    ids=["dwmd-profile", "objective_gradient-frozen-profile", "cmd_with_gradient-widths"],
)
def test_frozen_constants_must_fit_the_samples(call, message):
    with pytest.raises(ValueError) as info:
        call(*pair())
    assert str(info.value) == message


def test_moment_series_config_none_is_the_default_config():
    a, b = raw_moments(pair()[0], 5), raw_moments(pair()[1], 5)
    got = dwmd_from_moments(a, b, profile(), None)
    assert got.total == dwmd_from_moments(a, b, profile(), DwmdConfig()).total


def test_non_finite_moments_named_by_order_and_dimension():
    a = np.zeros((5, 3))
    a[2, 1] = -np.inf
    with pytest.raises(ValueError) as info:
        dwmd_from_moments(a, np.zeros((5, 3)), profile(), None)
    assert str(info.value) == "moments_source must be finite, got -inf at order 3, dimension 1"


def test_unknown_c_policy_refused_by_weight_profile():
    with pytest.raises(ValueError, match="^unknown c_policy 'bogus'$"):
        weight_profile(*pair(), c_policy="bogus")


@pytest.mark.parametrize(
    "m, d, message",
    [(1, 2, "^m must be >= 2, got 1$"), (50, 0, "^d must be >= 1, got 0$")],
)
def test_gaussian_shift_needs_two_rows_and_one_dimension(m, d, message):
    with pytest.raises(ValueError, match=message):
        gen_gaussian_shift(m, d, [0.0] * max(d, 1), None, 1)


def test_gaussian_shift_scale_none_is_all_ones():
    want = gen_gaussian_shift(50, 2, [0.5, 0.0], [1.0, 1.0], 4)
    for got, expected in zip(gen_gaussian_shift(50, 2, [0.5, 0.0], None, 4), want):
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize(
    "spec, message",
    [
        (((2, 0, 2), ("relu",), (0,)),
         r"^layer_sizes must be at least 3 integers >= 1, got \(2, 0, 2\)$"),
        (((2, 4, 2), ("tanh",), (0,)),
         "^activations must be one 'sigmoid' or 'relu' per hidden layer"),
    ],
)
def test_network_spec_names_the_field(spec, message):
    with pytest.raises(ValueError, match=message):
        NetworkSpec(*spec)


def test_unknown_regularizer_refused():
    with pytest.raises(ValueError, match="^unknown regularizer 'kmm'$"):
        TrainConfig(regularizer="kmm")


def blobs(m=80, seed=1):
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], m // 2)
    signs = np.where(labels == 0, -1.0, 1.0)[:, None]
    source = signs * [1.5, 0.0] + rng.normal(size=(m, 2))
    target = signs * [1.5, 0.0] + rng.normal(size=(m, 2)) + [0.5, 0.5]
    return source, labels, target, labels.copy()


@pytest.mark.parametrize(
    "regularizer, message",
    [
        ("dwmd", "epoch 1, step 2: the hidden activations"),
        ("smd", "epoch 1, step 2: the hidden activations"),
        ("cmd", "epoch 1, step 2: the hidden activations"),
        ("mmd", "epoch 1, step 2: the hidden activations"),
        ("none", "non-finite loss at epoch 1, step 2;"),
    ],
)
def test_divergence_is_reported_not_warned(regularizer, message):
    # pytest turns RuntimeWarning into an error, so a numpy overflow warning
    # escaping the step would fail this test before TrainingDiverged.
    source, labels, target, _ = blobs()
    spec = NetworkSpec((2, 4, 2), ("relu",), (0,))
    cfg = TrainConfig(regularizer=regularizer, epochs=5, batch_size=40, learning_rate=1e300)
    with pytest.raises(TrainingDiverged, match=message):
        train_uda(source * 1e4, labels, target * 1e4, spec, cfg)


def test_a_regularizer_value_error_on_finite_activations_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("regularizer bug")

    monkeypatch.setattr(nettrain, "_regularizer_terms", broken)
    source, labels, target, _ = blobs()
    cfg = TrainConfig(regularizer="cmd", epochs=1, batch_size=40)
    with pytest.raises(ValueError, match="^regularizer bug$"):
        train_uda(source, labels, target, NetworkSpec((2, 4, 2), ("relu",), (0,)), cfg)


@pytest.mark.parametrize("shift, got", [(-1, "[-1, 0]"), (2, "[2, 3]")])
@pytest.mark.parametrize(
    "call, name",
    [(lambda y: blob_run(y_s=y), "source labels"), (lambda y: blob_run(y_t=y), "target labels"),
     (blob_accuracy, "labels")],
    ids=["train_uda-source", "train_uda-target", "evaluate"],
)
def test_labels_lie_in_the_class_range(call, name, shift, got):
    message = f"{name} must lie in [0, 2), got range {got}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(blobs()[1] + shift)


def test_labels_past_int64_are_out_of_range():
    labels = np.array([0] * 79 + [2**63], dtype=np.uint64)
    message = f"labels must lie in [0, 2), got range [0, {2**63}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        blob_accuracy(labels)


def test_target_labels_are_checked_before_the_first_step(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(nettrain, "objective_gradient", no_step)
    with pytest.raises(ValueError, match="^target labels must lie in"):
        blob_run(y_t=blobs()[1] + 2)


@pytest.mark.parametrize(
    "given", [lambda y: y.tolist(), lambda y: y.astype(np.uint8)], ids=["list", "uint8"]
)
def test_any_integer_labels_train_alike(given):
    labels = blobs()[1]
    want, got = blob_run(y_t=labels), blob_run(given(labels), given(labels))
    for a, b in zip(want.weights + want.biases, got.weights + got.biases):
        np.testing.assert_array_equal(a, b)
    assert got.history == want.history
    assert blob_accuracy(given(labels)) == blob_accuracy(labels)


def test_label_count_must_match_the_rows():
    source, labels, target, _ = blobs()
    with pytest.raises(ValueError, match="source labels must be one integer per source row"):
        train_uda(source, labels[:-1], target, NetworkSpec((2, 4, 2), ("relu",), (0,)),
                  TrainConfig(batch_size=40))


def moons_experiment(tmp_path, **overrides):
    base = dict(
        task={"kind": "moons", "m_per_domain": 60},
        spec=NetworkSpec((2, 8, 2), ("sigmoid",), (0,)),
        cfg=TrainConfig(epochs=1, batch_size=30),
        repeats=2,
        outputs=str(tmp_path / "report"),
    )
    base.update(overrides)
    return UdaExperiment(**base)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("spec", {"layer_sizes": [2, 4, 2]}, "^spec must be a NetworkSpec, got "),
        ("cfg", {"lam": 1.0}, "^cfg must be a TrainConfig, got "),
    ],
)
def test_experiment_needs_a_spec_and_a_config(tmp_path, field, value, message):
    with pytest.raises(ValueError, match=message):
        moons_experiment(tmp_path, **{field: value})


def test_unhashable_task_kind_is_unknown(tmp_path):
    with pytest.raises(ValueError, match=r"^unknown task kind \['moons'\]$"):
        moons_experiment(tmp_path, task={"kind": ["moons"]})


def test_absent_task_keys_take_the_generator_defaults():
    got = _materialize_task({"kind": "moons"}, 2)
    for a, b in zip(got, gen_moons(400, 40.0, 0.1, 2)):
        np.testing.assert_array_equal(a, b)
    got = _materialize_task({"kind": "gaussian_shift", "d": 2, "offset": [1.0, 0.0]}, 2)
    for a, b in zip(got, gen_gaussian_shift(1000, 2, [1.0, 0.0], [1.0, 1.0], 2)):
        np.testing.assert_array_equal(a, b)


def test_absent_experiment_fields_take_the_dataclass_defaults():
    exp = experiment_from_dict(
        {"task": {"kind": "moons"}, "spec": {"layer_sizes": [2, 4, 2], "activations": ["relu"],
                                             "matched_layers": [0]}}
    )
    defaults = {f.name: f.default for f in fields(UdaExperiment)}
    assert (exp.repeats, exp.outputs) == (defaults["repeats"], defaults["outputs"])
    assert exp.cfg == TrainConfig()


def test_failed_seed_row_in_the_report(tmp_path, monkeypatch):
    def diverge_on_seed_1(source, y_s, target, spec, cfg, target_labels=None):
        if cfg.seed == 1:
            raise TrainingDiverged("non-finite loss at epoch 1, step 1")
        return train_uda(source, y_s, target, spec, cfg, target_labels=target_labels)

    monkeypatch.setattr("dwmd.harness.train_uda", diverge_on_seed_1)
    report = run_experiment(moons_experiment(tmp_path))
    write_report(report, tmp_path / "out")
    rows = (tmp_path / "out" / "per_seed.csv").read_text().splitlines()
    assert rows[1] == '1,,"error: non-finite loss at epoch 1, step 1"'
    assert rows[2].startswith("2,") and rows[2].endswith(",ok")
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1]
    assert summary.endswith(",1,2")


LONG_CELL = "1" * 200_000


@pytest.mark.parametrize(
    "text, row",
    [(f"a,b\n1,2\n3,{LONG_CELL}\n", 3), (f"a,{LONG_CELL}\n1,2\n", 1)],
    ids=["body", "header"],
)
def test_cell_over_the_csv_field_limit_exits_2(tmp_path, capsys, text, row):
    source = tmp_path / "s.csv"
    source.write_text(text)
    target = tmp_path / "t.csv"
    target.write_text("a,b\n1,2\n3,4\n")
    code = main(["discrepancy", "--source", str(source), "--target", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"s.csv: row {row}: field larger than field limit" in err
    assert "Traceback" not in err
    with pytest.raises(ValueError) as info:
        load_csv(source)
    assert isinstance(info.value, csv.Error)


def test_main_builds_no_parser_per_call(tmp_path, monkeypatch, capsys):
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert main(["gen", "--m", "40", "--out", str(tmp_path)]) == 0
    assert built == []


def test_sweep_lam_under_a_regularizer(tmp_path, capsys):
    cfg = TrainConfig(regularizer="cmd", epochs=1, batch_size=30)
    exp = moons_experiment(tmp_path, repeats=1, cfg=cfg)
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(experiment_to_dict(exp)))
    code = main(["sweep", "--config", str(config), "--param", "lam", "--values", "0.5,2"])
    assert code == 0
    for lam in ("0.5", "2"):
        snapshot = tmp_path / "report" / f"lam_{lam}" / "config_snapshot.json"
        assert json.loads(snapshot.read_text())["cfg"]["lam"] == float(lam)


@pytest.mark.parametrize("seed", [-1, 1.5, "1", True, None, np.float64(1.0)])
@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: gen_moons(60, 40.0, 0.1, seed),
        lambda seed: gen_gaussian_shift(50, 2, [0.0, 0.0], None, seed),
        lambda seed: TrainConfig(seed=seed),
    ],
    ids=["gen_moons", "gen_gaussian_shift", "TrainConfig"],
)
def test_seed_is_an_integer_at_least_zero(generate, seed):
    # None would draw fresh entropy, so a "seeded" call would not repeat.
    message = f"seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate(seed)


def test_generators_take_numpy_integer_seeds():
    for a, b in zip(gen_moons(60, 40.0, 0.1, np.int64(3)), gen_moons(60, 40.0, 0.1, 3)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("psi", [float("inf"), -float("inf"), float("nan"), 0.0])
@pytest.mark.parametrize(
    "call",
    [lambda psi: DwmdConfig(psi=psi), lambda psi: truncation_bound(profile(), psi, 3)],
    ids=["DwmdConfig", "truncation_bound"],
)
def test_psi_is_a_finite_number_above_zero(call, psi):
    # An infinite psi zeroes every order weight: the series would read 0.
    message = f"psi must be a finite number > 0, got {psi}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(psi)
