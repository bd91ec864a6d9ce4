"""Config fields that used to slip through: bool in numeric TrainConfig
fields, NetworkSpec.activations, the task section, DWMD-only CLI flags under
other metrics, and training divergence reported as a bad input."""

import json
from dataclasses import replace

import numpy as np
import pytest

from dwmd.cli import main
from dwmd.harness import UdaExperiment, experiment_from_dict, experiment_to_dict
from dwmd.nettrain import NetworkSpec, TrainConfig, TrainingDiverged, train_uda


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


def small_experiment(tmp_path, **task):
    return UdaExperiment(
        task={"kind": "moons", "m_per_domain": 60, "rotation_degrees": 40.0, "noise": 0.1, **task},
        spec=NetworkSpec((2, 8, 2), ("sigmoid",), (0,)),
        cfg=TrainConfig(epochs=1, batch_size=30, learning_rate=0.5),
        repeats=1,
        outputs=str(tmp_path / "report"),
    )


@pytest.mark.parametrize(
    "key, message",
    [
        ("lam", "lam must be a finite number >= 0"),
        ("learning_rate", "learning_rate must be a finite number > 0"),
        ("mmd_bandwidth", "mmd_bandwidth must be 'median' or a finite number > 0"),
    ],
)
def test_numeric_fields_refuse_bool(key, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{key: True})
    assert getattr(TrainConfig(**{key: 1}), key) == 1


@pytest.mark.parametrize("activations", [5, None, "sigmoid", ["sigmoid", 3], [True]])
def test_activations_must_be_a_list_of_names(activations):
    with pytest.raises(ValueError, match="activations must be a list of strings"):
        NetworkSpec((2, 8, 2), activations, (0,))


def test_activations_accept_numpy_strings():
    spec = NetworkSpec((2, 8, 2), np.array(["relu"]), (0,))
    assert spec.activations == ("relu",) and type(spec.activations[0]) is str


@pytest.mark.parametrize(
    "task, message",
    [
        ({"m_per_domian": 60}, r"task: unknown keys \['m_per_domian'\] for kind 'moons'"),
        ({"m_per_domain": "100"}, "task.m_per_domain must be an integer, got '100'"),
        ({"m_per_domain": 60.0}, "task.m_per_domain must be an integer"),
        ({"rotation_degrees": None}, "task.rotation_degrees must be a real number, got None"),
        ({"noise": True}, "task.noise must be a real number"),
        ({"kind": "gaussian_shift"}, r"task: unknown keys \['m_per_domain', 'noise', "),
        ({"kind": "csv"}, "task: unknown keys"),
        ({"kind": "blobs"}, "unknown task kind 'blobs'"),
    ],
)
def test_task_keys_and_values_checked_when_built(tmp_path, task, message):
    with pytest.raises(ValueError, match=message):
        small_experiment(tmp_path, **task)


@pytest.mark.parametrize(
    "task, message",
    [
        ({"kind": "gaussian_shift", "d": 2}, r"task: kind 'gaussian_shift' needs the keys \['offset'\]"),
        ({"kind": "gaussian_shift", "d": 2, "offset": [0.5, "0"]},
         "task.offset must be a list of real numbers"),
        ({"kind": "gaussian_shift", "d": 2, "offset": [0.5, 0.0], "scale": 1.0},
         "task.scale must be a list of real numbers"),
        ({"kind": "gaussian_shift", "d": 2.0, "offset": [0.5, 0.0]}, "task.d must be an integer"),
        ({"kind": "csv", "source_path": "s.csv"},
         r"task: kind 'csv' needs the keys \['target_path'\]"),
        ({"kind": "csv", "source_path": "s.csv", "target_path": 3}, "task.target_path must be a path"),
        ({"kind": "csv", "source_path": "s.csv", "target_path": "t.csv", "label_column": 0},
         "task.label_column must be a column name or null"),
    ],
)
def test_other_kinds_checked(tmp_path, task, message):
    with pytest.raises(ValueError, match=message):
        replace(small_experiment(tmp_path), task=task)


def test_task_must_be_a_mapping_when_built(tmp_path):
    with pytest.raises(ValueError, match="task must be a mapping, got 'moons'"):
        replace(small_experiment(tmp_path), task="moons")


def test_valid_tasks_of_every_kind_accepted(tmp_path):
    base = small_experiment(tmp_path)
    for task in (
        {"kind": "moons"},
        {"kind": "gaussian_shift", "m": 100, "d": 2, "offset": np.array([0.5, 0.0]),
         "scale": (1, 2.0)},
        {"kind": "csv", "source_path": tmp_path / "s.csv", "target_path": "t.csv",
         "label_column": None},
    ):
        assert replace(base, task=task).task is task


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("task", "m_per_domian", 60),
        ("task", "m_per_domain", "100"),
        ("task", "rotation_degrees", None),
        ("spec", "activations", 5),
        ("spec", "activations", None),
        ("spec", "activations", "sigmoid"),
        ("cfg", "lam", True),
    ],
)
def test_train_exit_2_naming_the_key(tmp_path, capsys, section, key, value):
    data = experiment_to_dict(small_experiment(tmp_path))
    data[section][key] = value
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=key):
        experiment_from_dict(data)
    code = main(["train", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "report").exists()


@pytest.fixture
def csv_pair(tmp_path):
    paths = []
    for name, rows in (("s.csv", [[0.0, 1.0], [1.0, 2.0], [2.0, 0.5]]),
                       ("t.csv", [[1.0, 1.0], [3.0, 2.5], [2.0, 0.0]])):
        path = tmp_path / name
        path.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in rows))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize(
    "metric, flags",
    [
        ("cmd", ["--alpha", "0.7"]),
        ("mmd", ["--c", "0"]),
        ("cmd", ["--psi", "-1", "--beta", "2"]),
        ("mmd", ["--n", "0"]),
    ],
)
def test_dwmd_only_flags_ignored_by_other_metrics(csv_pair, capsys, metric, flags):
    source, target = csv_pair
    code = main(["discrepancy", "--source", source, "--target", target, "--metric", metric,
                 "--json", *flags])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["metric"] == metric


@pytest.mark.parametrize("metric", ["dwmd", "smd", "cmd"])
def test_order_flag_named_for_the_metrics_that_read_it(csv_pair, capsys, metric):
    source, target = csv_pair
    code = main(["discrepancy", "--source", source, "--target", target, "--metric", metric,
                 "--n", "0"])
    assert code == 2
    assert "n must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("metric", ["dwmd", "smd"])
def test_dwmd_flags_still_checked_for_the_series(csv_pair, capsys, metric):
    source, target = csv_pair
    code = main(["discrepancy", "--source", source, "--target", target, "--metric", metric,
                 "--alpha", "0.7"])
    assert code == 2
    assert "alpha must be in [0, 0.5)" in capsys.readouterr().err


@pytest.mark.parametrize("regularizer", ["dwmd", "smd", "cmd", "mmd"])
def test_divergence_raises_training_diverged(regularizer):
    source, labels, target, _ = blob_task()
    cfg = TrainConfig(regularizer=regularizer, epochs=5, batch_size=20, learning_rate=1e300)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch 1, step 2: the hidden activations"):
            train_uda(source * 1e4, labels, target * 1e4, tiny_spec(activations=("relu",)), cfg)


def test_a_bad_input_is_still_a_value_error():
    source, labels, target, _ = blob_task()
    with pytest.raises(ValueError, match="source labels must lie in"):
        train_uda(source, labels + 5, target, tiny_spec(), TrainConfig(batch_size=20))

