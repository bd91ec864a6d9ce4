import filecmp
import os
from dataclasses import replace

import numpy as np
import pytest

from dwmd.discrepancy import DwmdConfig, dwmd
from dwmd.harness import (
    ExperimentReport,
    UdaExperiment,
    experiment_from_dict,
    experiment_to_dict,
    gen_gaussian_shift,
    gen_moons,
    load_csv,
    run_experiment,
    save_csv,
    write_report,
)
from dwmd.nettrain import NetworkSpec, TrainConfig, evaluate, train_uda
from dwmd.weighting import robust_dim_means


def small_experiment(out_dir, regularizer="dwmd", lam=1.0, repeats=2):
    return UdaExperiment(
        task={"kind": "moons", "m_per_domain": 120, "rotation_degrees": 40.0, "noise": 0.1},
        spec=NetworkSpec((2, 8, 2), ("sigmoid",), (0,)),
        cfg=TrainConfig(
            lam=lam, regularizer=regularizer, epochs=3, batch_size=40, learning_rate=0.5
        ),
        repeats=repeats,
        outputs=out_dir,
    )


class TestGenMoons:
    def test_deterministic_per_seed(self):
        a = gen_moons(100, 30.0, 0.1, seed=5)
        b = gen_moons(100, 30.0, 0.1, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_zero_rotation_zero_noise_identical_domains(self):
        source, _, target, _ = gen_moons(100, 0.0, 0.0, seed=1)
        np.testing.assert_array_equal(source, target)

    def test_labels_balanced(self):
        _, labels, _, t_labels = gen_moons(200, 20.0, 0.1, seed=2)
        assert np.sum(labels == 0) == np.sum(labels == 1) == 100
        np.testing.assert_array_equal(labels, t_labels)

    def test_rotation_increases_discrepancy(self):
        config = DwmdConfig()
        totals = {}
        for rotation in (0.0, 45.0):
            s, _, t, _ = gen_moons(10_000, rotation, 0.1, seed=3)
            totals[rotation] = dwmd(s, t, config).total
        assert totals[0.0] < totals[45.0]

    @pytest.mark.parametrize("kwargs", [{"m_per_domain": 30}, {"m_per_domain": 41},
                                        {"rotation_degrees": 120.0}, {"noise": -1.0}])
    def test_invalid_arguments(self, kwargs):
        base = dict(m_per_domain=100, rotation_degrees=10.0, noise=0.1, seed=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            gen_moons(base["m_per_domain"], base["rotation_degrees"], base["noise"], 1)


class TestGenGaussianShift:
    def test_no_shift_gives_tiny_tau(self):
        s, _, t, _ = gen_gaussian_shift(10_000, 3, np.zeros(3), np.ones(3), seed=4)
        tau = np.abs(robust_dim_means(s, 0.1) - robust_dim_means(t, 0.1))
        assert np.all(tau < 0.1)

    def test_offset_dimension_dominates(self):
        offset = np.array([2.0, 0.0, 0.0, 0.0])
        hits = 0
        for seed in range(20):
            s, _, t, _ = gen_gaussian_shift(1000, 4, offset, np.ones(4), seed=seed)
            tau = np.abs(robust_dim_means(s, 0.1) - robust_dim_means(t, 0.1))
            hits += int(np.argmax(tau) == 0)
        assert hits >= 19

    def test_standard_error_shrinks_with_m(self):
        # tau estimates should tighten roughly like 1/sqrt(m).
        def spread(m):
            taus = [
                np.abs(
                    robust_dim_means(s, 0.1) - robust_dim_means(t, 0.1)
                )[0]
                for seed in range(30)
                for s, _, t, _ in [gen_gaussian_shift(m, 2, [1.0, 0.0], [1.0, 1.0], seed)]
            ]
            return np.std(taus)

        ratio = spread(200) / spread(800)
        assert 2.0 / 1.5 < ratio < 2.0 * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_gaussian_shift(100, 2, [0.0, 0.0], [1.0, -1.0], seed=1)
        with pytest.raises(ValueError):
            gen_gaussian_shift(100, 2, [0.0], [1.0, 1.0], seed=1)


class TestCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        matrix, labels = load_csv(path)
        np.testing.assert_array_equal(matrix, [[1, 2], [3, 4], [5, 6]])
        assert labels is None

    def test_label_column_extracted(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,label,f1\n1.5,0,2.5\n-1,1,0.25\n")
        matrix, labels = load_csv(path, "label")
        np.testing.assert_array_equal(matrix, [[1.5, 2.5], [-1.0, 0.25]])
        np.testing.assert_array_equal(labels, [0, 1])

    def test_ragged_row_names_coordinates(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell_names_coordinates(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 3, column 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_file_and_coordinates(self, tmp_path, cell):
        path = tmp_path / "x.csv"
        path.write_text(f"f0,label,f1\n1,0,2\n3,1,{cell}\n")
        with pytest.raises(ValueError, match=f"x.csv: row 3, column 3: '{cell}' is not finite"):
            load_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named"):
            load_csv(path, "label")

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(10, 3))
        labels = rng.integers(0, 2, 10)
        path = tmp_path / "rt.csv"
        save_csv(path, matrix, labels)
        back, back_labels = load_csv(path, "label")
        np.testing.assert_array_equal(back, matrix)
        np.testing.assert_array_equal(back_labels, labels)


class TestExperiment:
    def test_config_roundtrip(self, tmp_path):
        exp = small_experiment(str(tmp_path))
        again = experiment_from_dict(experiment_to_dict(exp))
        assert again == exp

    def test_unknown_keys_rejected(self, tmp_path):
        data = experiment_to_dict(small_experiment(str(tmp_path)))
        data["cfg"]["bogus"] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            experiment_from_dict(data)

    def test_single_repeat_zero_std(self, tmp_path):
        report = run_experiment(small_experiment(str(tmp_path), repeats=1))
        assert report.std_accuracy == 0.0
        assert len(report.per_seed) == 1

    def test_all_seeds_failing_raises(self, tmp_path):
        exp = small_experiment(str(tmp_path))
        bad = experiment_to_dict(exp)
        bad["cfg"]["learning_rate"] = -1.0  # negative lr still runs; use width mismatch instead
        bad["spec"]["layer_sizes"] = [3, 8, 2]  # input width 3 vs 2-D moons
        with pytest.raises(RuntimeError, match="all seeds failed"):
            run_experiment(experiment_from_dict(bad))

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        # Only data errors and divergence are recorded as failed seeds; any
        # other RuntimeError is a bug and must reach the caller.
        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr("dwmd.harness.train_uda", broken)
        with pytest.raises(RuntimeError, match="^bug$"):
            run_experiment(small_experiment(str(tmp_path)))

    def test_divergence_recorded_as_failed_seed(self, tmp_path, monkeypatch):
        from dwmd.nettrain import TrainingDiverged, train_uda

        def diverge_on_seed_1(source, y_s, target, spec, cfg, target_labels=None):
            if cfg.seed == 1:
                raise TrainingDiverged("non-finite loss at epoch 1, step 1")
            return train_uda(source, y_s, target, spec, cfg, target_labels=target_labels)

        monkeypatch.setattr("dwmd.harness.train_uda", diverge_on_seed_1)
        report = run_experiment(small_experiment(str(tmp_path)))
        assert report.per_seed[0] == {"seed": 1, "error": "non-finite loss at epoch 1, step 1"}
        assert "accuracy" in report.per_seed[1]

    def test_report_files(self, tmp_path):
        out = tmp_path / "rep"
        report = run_experiment(small_experiment(str(out)))
        write_report(report, out)
        assert sorted(os.listdir(out)) == [
            "config_snapshot.json",
            "per_seed.csv",
            "summary.csv",
            "trace_seed1.csv",
            "trace_seed2.csv",
        ]
        per_seed = (out / "per_seed.csv").read_text().strip().splitlines()
        accs = [float(line.split(",")[1]) for line in per_seed[1:]]
        summary = (out / "summary.csv").read_text().strip().splitlines()[1].split(",")
        assert float(summary[0]) == pytest.approx(np.mean(accs), rel=1e-15)
        assert float(summary[1]) == pytest.approx(np.std(accs), rel=1e-15)

    def test_write_report_deterministic(self, tmp_path):
        report = run_experiment(small_experiment(str(tmp_path), repeats=1))
        a, b = tmp_path / "a", tmp_path / "b"
        write_report(report, a)
        write_report(report, b)
        for name in os.listdir(a):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_empty_trace_header_only(self, tmp_path):
        report = ExperimentReport(
            per_seed=[{"seed": 1, "accuracy": 0.5}],
            mean_accuracy=0.5,
            std_accuracy=0.0,
            traces={1: {"source_loss": [], "regularizer": {0: []}, "target_accuracy": []}},
            config_snapshot={},
        )
        write_report(report, tmp_path / "r")
        lines = (tmp_path / "r" / "trace_seed1.csv").read_text().strip().splitlines()
        assert lines == ["epoch,source_loss,regularizer_layer0"]


def test_optimizer_key_is_unknown(tmp_path):
    # Heavy-ball momentum is chosen by cfg.momentum > 0 alone.
    data = experiment_to_dict(small_experiment(str(tmp_path)))
    data["cfg"]["optimizer"] = "sgd-momentum"
    with pytest.raises(ValueError, match=r"cfg: unknown keys \['optimizer'\]"):
        experiment_from_dict(data)


class TestTaskKinds:
    def csv_task(self, tmp_path, **extra):
        source, y_s, target, y_t = gen_moons(120, 40.0, 0.1, seed=3)
        save_csv(tmp_path / "source.csv", source, y_s)
        save_csv(tmp_path / "target.csv", target, y_t)
        task = {
            "kind": "csv",
            "source_path": str(tmp_path / "source.csv"),
            "target_path": str(tmp_path / "target.csv"),
            **extra,
        }
        return task, (source, y_s, target, y_t)

    def run(self, tmp_path, task):
        exp = replace(small_experiment(str(tmp_path)), task=task)
        return exp, run_experiment(exp)

    def test_csv_task_accuracy_is_the_last_epoch_evaluation(self, tmp_path):
        task, (source, y_s, target, y_t) = self.csv_task(tmp_path)
        exp, report = self.run(tmp_path, task)
        for row in report.per_seed:
            model = train_uda(source, y_s, target, exp.spec, replace(exp.cfg, seed=row["seed"]))
            assert row["accuracy"] == evaluate(model, target, y_t)
            assert row["accuracy"] == report.traces[row["seed"]]["target_accuracy"][-1]

    def test_gaussian_shift_task_resamples_per_seed(self, tmp_path):
        task = {"kind": "gaussian_shift", "m": 100, "d": 2, "offset": [0.5, 0.0]}
        exp, report = self.run(tmp_path, task)
        for row in report.per_seed:
            source, y_s, target, y_t = gen_gaussian_shift(
                100, 2, [0.5, 0.0], [1.0, 1.0], row["seed"]
            )
            model = train_uda(source, y_s, target, exp.spec, replace(exp.cfg, seed=row["seed"]))
            assert row["accuracy"] == evaluate(model, target, y_t)

    def test_csv_task_without_label_column_fails_every_seed(self, tmp_path):
        task, _ = self.csv_task(tmp_path, label_column=None)
        with pytest.raises(RuntimeError, match="source.csv: source file needs a label column"):
            self.run(tmp_path, task)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("cmd_order", 0, "cmd_order must be >= 1"),
        ("mmd_bandwidth", -1.0, "mmd_bandwidth"),
        ("mmd_bandwidth", "abc", "mmd_bandwidth"),
    ],
)
def test_bad_config_values_rejected_on_load(tmp_path, key, value, message):
    data = experiment_to_dict(small_experiment(str(tmp_path)))
    data["cfg"][key] = value
    with pytest.raises(ValueError, match=message):
        experiment_from_dict(data)
