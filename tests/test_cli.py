import json
import os

import numpy as np
import pytest

from dwmd.cli import main
from dwmd.discrepancy import DwmdConfig
from dwmd.harness import experiment_to_dict, UdaExperiment
from dwmd.nettrain import NetworkSpec, TrainConfig


def write_csv(path, column):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("f0\n")
        for v in column:
            fh.write(f"{v}\n")


@pytest.fixture
def one_dim_pair(tmp_path):
    source = tmp_path / "source.csv"
    target = tmp_path / "target.csv"
    write_csv(source, [-1.0, 1.0])
    write_csv(target, [0.0, 2.0])
    return str(source), str(target)


class TestDiscrepancy:
    def test_same_file_total_zero(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        code = main(["discrepancy", "--source", str(path), "--target", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "total 0\n" in out

    def test_width_mismatch_exit_2_names_both(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("x,y\n1,2\n3,4\n")
        b.write_text("x,y,z\n1,2,3\n4,5,6\n")
        code = main(["discrepancy", "--source", str(a), "--target", str(b)])
        err = capsys.readouterr().err
        assert code == 2
        assert "d=2" in err and "d=3" in err

    def test_one_dim_two_term_series(self, one_dim_pair, capsys):
        source, target = one_dim_pair
        code = main(
            ["discrepancy", "--source", source, "--target", target, "--alpha", "0", "--n", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        total = float(out.split("total ")[1].split("\n")[0])
        assert total == pytest.approx(0.4792521184838620, rel=1e-6)

    def test_json_full_precision(self, one_dim_pair, capsys):
        source, target = one_dim_pair
        code = main(
            [
                "discrepancy", "--source", source, "--target", target,
                "--alpha", "0", "--n", "2", "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metric"] == "dwmd"
        assert data["total"] == pytest.approx(0.4792521184838620, rel=1e-12)
        assert data["tau_normalized"] == [1.0]

    def test_smd_equals_dwmd_in_one_dimension(self, one_dim_pair, capsys):
        source, target = one_dim_pair
        totals = {}
        for metric in ("dwmd", "smd"):
            main(
                [
                    "discrepancy", "--source", source, "--target", target,
                    "--metric", metric, "--alpha", "0", "--n", "2", "--json",
                ]
            )
            totals[metric] = json.loads(capsys.readouterr().out)["total"]
        assert totals["dwmd"] == totals["smd"]

    @pytest.mark.parametrize("metric", ["cmd", "mmd"])
    def test_baseline_metrics_run(self, one_dim_pair, metric, capsys):
        source, target = one_dim_pair
        code = main(["discrepancy", "--source", source, "--target", target, "--metric", metric])
        out = capsys.readouterr().out
        assert code == 0
        assert f"metric {metric}" in out
        assert np.isfinite(float(out.split("total ")[1]))

    def test_label_column_dropped(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("f0,label\n1,0\n2,1\n")
        code = main(
            ["discrepancy", "--source", str(a), "--target", str(a), "--label-column", "label"]
        )
        assert code == 0
        assert "total 0\n" in capsys.readouterr().out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(
            ["discrepancy", "--source", str(tmp_path / "no.csv"), "--target", str(tmp_path / "no.csv")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_out_of_memory_exit_2(self, one_dim_pair, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.9 GiB")

        monkeypatch.setattr("dwmd.cli.mmd_rbf", exhausted)
        source, target = one_dim_pair
        code = main(["discrepancy", "--source", source, "--target", target, "--metric", "mmd"])
        assert code == 2
        assert "dwmd: error: out of memory: Unable to allocate 11.9 GiB" in capsys.readouterr().err


# Every line `discrepancy` prints on the one-dimensional pair. Text mode
# prints six significant digits and is pinned byte for byte; --json prints
# full precision, whose last digit may differ between numpy builds for the
# exp-derived values, so its keys are pinned in order and its values to 1e-12.
SERIES_TEXT = (
    "total 0.553327\n"
    "per_order_totals 0.350361 0.128891 0.0491724 0.0181857 0.00671696\n"
    "truncation_bound 0.03125\n"
)
SERIES_RECORD = {
    "total": 0.5533272289372694,
    "per_order_totals": [
        0.3503613725442308, 0.12889074593963115, 0.04917241320282859,
        0.01818574074058713, 0.006716956509991743,
    ],
    "truncation_bound": 0.03125,
    "tau": [1.0],
    "tau_normalized": [1.0],
}
PINNED_OUTPUT = [
    (["--metric", "dwmd"], "metric dwmd\n" + SERIES_TEXT, {"metric": "dwmd", **SERIES_RECORD}),
    (["--metric", "smd"], "metric smd\n" + SERIES_TEXT, {"metric": "smd", **SERIES_RECORD}),
    (
        ["--metric", "cmd"],
        "metric cmd\ntotal 0.333333\n",
        {"metric": "cmd", "total": 0.3333333333333333},
    ),
    (
        ["--metric", "mmd"],
        "metric mmd\ntotal 0.138583\n",
        {"metric": "mmd", "total": 0.13858339038945547},
    ),
    # psi 0.5 < tau_max = 1, so nu = 0 and the stated tail diverges.
    (
        ["--psi", "0.5"],
        "metric dwmd\ntotal 1.36459\n"
        "per_order_totals 0.577648 0.350361 0.220375 0.134375 0.0818293\n"
        "truncation_bound bound-divergent\n",
        {
            "metric": "dwmd",
            "total": 1.3645898273529493,
            "per_order_totals": [
                0.5776482473453651, 0.3503613725442308, 0.22037546681326403,
                0.13437545853280694, 0.08182928211728228,
            ],
            "truncation_bound": None,
            "tau": [1.0],
            "tau_normalized": [1.0],
        },
    ),
]


class TestDiscrepancyOutput:
    @pytest.mark.parametrize("flags, text, record", PINNED_OUTPUT)
    def test_text_lines(self, one_dim_pair, capsys, flags, text, record):
        source, target = one_dim_pair
        code = main(["discrepancy", "--source", source, "--target", target, *flags])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == text
        assert captured.err == ""

    @pytest.mark.parametrize("flags, text, record", PINNED_OUTPUT)
    def test_json_record(self, one_dim_pair, capsys, flags, text, record):
        source, target = one_dim_pair
        code = main(["discrepancy", "--source", source, "--target", target, *flags, "--json"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out.count("\n") == 1 and captured.out.endswith("}\n")
        data = json.loads(captured.out)
        assert list(data) == list(record)
        for key, expected in record.items():
            if isinstance(expected, str) or expected is None:
                assert data[key] == expected
            else:
                assert data[key] == pytest.approx(expected, rel=1e-12)


class TestUsageErrors:
    def test_unknown_flag_exit_1(self):
        with pytest.raises(SystemExit) as info:
            main(["discrepancy", "--source", "a", "--target", "b", "--bogus"])
        assert info.value.code == 1

    def test_missing_subcommand_exit_1(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_bad_metric_choice_exit_1(self):
        with pytest.raises(SystemExit) as info:
            main(["discrepancy", "--source", "a", "--target", "b", "--metric", "nope"])
        assert info.value.code == 1


class TestGen:
    def test_moons_files_written(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["gen", "--task", "moons", "--m", "60", "--out", str(out)])
        assert code == 0
        assert sorted(os.listdir(out)) == ["source.csv", "target.csv"]
        header = (out / "source.csv").read_text().splitlines()[0]
        assert header == "f0,f1,label"

    def test_gaussian_shift_with_offsets(self, tmp_path):
        out = tmp_path / "data"
        code = main(
            [
                "gen", "--task", "gaussian_shift", "--m", "50", "--d", "3",
                "--offset", "2,0,0", "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "target.csv").exists()

    def test_bad_offset_length_exit_2(self, tmp_path, capsys):
        code = main(
            ["gen", "--task", "gaussian_shift", "--d", "3", "--offset", "1,2", "--out", str(tmp_path / "d")]
        )
        assert code == 2
        assert "expected 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args", [["--task", "gaussian_shift", "--d", "0"], ["--m", "-4"],
                 ["--task", "gaussian_shift", "--m", "1"]]
    )
    def test_bad_arguments_exit_2_before_the_directory_is_made(self, tmp_path, capsys, args):
        out = tmp_path / "d"
        assert main(["gen", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("dwmd: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--offset", "--scale"])
    def test_unparsable_vector_exit_2_names_the_flag(self, tmp_path, capsys, flag):
        out = str(tmp_path / "d")
        code = main(["gen", "--task", "gaussian_shift", "--d", "2", flag, "1,abc", "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"dwmd: error: {flag}: could not convert string to float: 'abc'\n"


def experiment_config(tmp_path):
    exp = UdaExperiment(
        task={"kind": "moons", "m_per_domain": 120, "rotation_degrees": 40.0, "noise": 0.1},
        spec=NetworkSpec((2, 8, 2), ("sigmoid",), (0,)),
        cfg=TrainConfig(epochs=2, batch_size=40, learning_rate=0.5),
        repeats=2,
        outputs=str(tmp_path / "report"),
    )
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(experiment_to_dict(exp)))
    return str(path), str(tmp_path / "report")


class TestTrainAndSweep:
    def test_train_writes_report(self, tmp_path, capsys):
        config, report_dir = experiment_config(tmp_path)
        code = main(["train", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean_accuracy" in out
        assert os.path.exists(os.path.join(report_dir, "per_seed.csv"))

    def test_train_malformed_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main(["train", "--config", str(path)])
        assert code == 2

    def test_sweep_summary(self, tmp_path, capsys):
        config, report_dir = experiment_config(tmp_path)
        code = main(["sweep", "--config", config, "--param", "n", "--values", "2,3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "n=2" in out and "n=3" in out
        summary = os.path.join(report_dir, "sweep_summary.csv")
        lines = open(summary, encoding="utf-8").read().strip().splitlines()
        assert lines[0] == "n,mean_accuracy,std_accuracy"
        assert len(lines) == 3

    def test_sweep_empty_values_exit_2(self, tmp_path, capsys):
        config, _ = experiment_config(tmp_path)
        code = main(["sweep", "--config", config, "--param", "c", "--values", ","])
        assert code == 2
        assert "no sweep values" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, message",
        [
            ("2,2.5", "--values: invalid literal for int() with base 10: '2.5'"),
            ("2,0", "n must be >= 1, got 0"),
            ("2,2", "--values: 2 repeats the point 2"),
            ("2,3,02", "--values: 02 repeats the point 2"),
        ],
    )
    def test_sweep_bad_value_exit_2_before_any_run(self, tmp_path, capsys, values, message):
        config, report_dir = experiment_config(tmp_path)
        code = main(["sweep", "--config", config, "--param", "n", "--values", values])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"dwmd: error: {message}\n"
        assert captured.out == ""
        assert not os.path.exists(report_dir)


def regularizer_config(tmp_path, regularizer, c_policy="scalar"):
    cfg = TrainConfig(
        regularizer=regularizer,
        epochs=1,
        batch_size=30,
        learning_rate=0.5,
        dwmd=DwmdConfig(c_policy=c_policy),
    )
    exp = UdaExperiment(
        task={"kind": "moons", "m_per_domain": 60, "rotation_degrees": 40.0, "noise": 0.1},
        spec=NetworkSpec((2, 8, 2), ("sigmoid",), (0,)),
        cfg=cfg,
        repeats=1,
        outputs=str(tmp_path / "report"),
    )
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(experiment_to_dict(exp)))
    return str(path), str(tmp_path / "report")


class TestSweepParameters:
    def test_n_sets_cmd_order_under_cmd(self, tmp_path, capsys):
        config, report_dir = regularizer_config(tmp_path, "cmd")
        code = main(["sweep", "--config", config, "--param", "n", "--values", "2,4"])
        assert code == 0
        for n in (2, 4):
            snapshot = os.path.join(report_dir, f"n_{n}", "config_snapshot.json")
            with open(snapshot, encoding="utf-8") as fh:
                cfg = json.load(fh)["cfg"]
            assert cfg["cmd_order"] == n
            assert cfg["dwmd"]["n"] == TrainConfig().dwmd.n

    @pytest.mark.parametrize(
        "regularizer, c_policy, param",
        [
            ("cmd", "scalar", "c"),
            ("mmd", "scalar", "beta"),
            ("none", "scalar", "c"),
            ("mmd", "scalar", "n"),
            ("none", "scalar", "n"),
            ("none", "scalar", "lam"),
            ("dwmd", "tau_first", "c"),
            ("smd", "tau_vector", "c"),
        ],
    )
    def test_unread_param_exit_2_names_regularizer(
        self, tmp_path, capsys, regularizer, c_policy, param
    ):
        config, report_dir = regularizer_config(tmp_path, regularizer, c_policy)
        code = main(["sweep", "--config", config, "--param", param, "--values", "1,2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{regularizer}' regularizer" in err and f"--param {param}" in err
        assert not os.path.exists(report_dir)


class TestConfigValuesCheckedOnLoad:
    @pytest.mark.parametrize(
        "key, value", [("cmd_order", 0), ("mmd_bandwidth", -1), ("mmd_bandwidth", "abc")]
    )
    def test_train_exit_2_before_any_seed_runs(self, tmp_path, capsys, key, value):
        config, report_dir = experiment_config(tmp_path)
        with open(config, encoding="utf-8") as fh:
            data = json.load(fh)
        data["cfg"][key] = value
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code = main(["train", "--config", config])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err and "all seeds failed" not in err
        assert not os.path.exists(report_dir)


class TestConfigTypesCheckedOnLoad:
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("cfg", "epochs", 2.5),
            ("cfg", "batch_size", 40.5),
            ("cfg", "lam", float("nan")),
            ("cfg", "learning_rate", float("inf")),
            ("dwmd", "n", 2.5),
        ],
    )
    def test_train_exit_2_naming_the_field(self, tmp_path, capsys, section, key, value):
        config, report_dir = experiment_config(tmp_path)
        with open(config, encoding="utf-8") as fh:
            data = json.load(fh)
        (data["cfg"] if section == "cfg" else data["cfg"]["dwmd"])[key] = value
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(data, fh)  # nan and inf as the NaN and Infinity literals
        code = main(["train", "--config", config])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{key} must be" in err and "all seeds failed" not in err
        assert not os.path.exists(report_dir)



class TestRemainingConfigTypesCheckedOnLoad:
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("dwmd", "psi", "1"),
            ("dwmd", "beta", "0.5"),
            ("dwmd", "alpha", None),
            ("dwmd", "c_value", "0.05"),
            ("dwmd", "standardize", "false"),
            ("cfg", "momentum", "0.5"),
            ("cfg", "seed", 1.5),
            ("cfg", "learning_rate", -1.0),
            ("experiment", "repeats", 1.5),
            ("experiment", "outputs", 5),
        ],
    )
    def test_train_exit_2_naming_the_field(self, tmp_path, capsys, section, key, value):
        config, report_dir = experiment_config(tmp_path)
        with open(config, encoding="utf-8") as fh:
            data = json.load(fh)
        where = {"experiment": data, "cfg": data["cfg"], "dwmd": data["cfg"]["dwmd"]}[section]
        where[key] = value
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code = main(["train", "--config", config])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{key} must be" in err and "Traceback" not in err
        assert not os.path.exists(report_dir)

class TestConfigSectionsAndLayerListsNamedOnLoad:
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("experiment", "task", "moons"),
            ("experiment", "spec", [2, 8, 2]),
            ("spec", "layer_sizes", [2, "x", 2]),
            ("spec", "matched_layers", 0),
        ],
    )
    def test_train_exit_2_naming_the_field(self, tmp_path, capsys, section, key, value):
        config, report_dir = experiment_config(tmp_path)
        with open(config, encoding="utf-8") as fh:
            data = json.load(fh)
        {"experiment": data, "spec": data["spec"]}[section][key] = value
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code = main(["train", "--config", config])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{key} must be" in err and "Traceback" not in err
        assert not os.path.exists(report_dir)


def test_discrepancy_bad_bandwidth_exit_2(one_dim_pair, capsys):
    source, target = one_dim_pair
    code = main(
        ["discrepancy", "--source", source, "--target", target, "--metric", "mmd", "--bandwidth", "abc"]
    )
    assert code == 2
    assert "bandwidth must be 'median' or a finite number > 0, got 'abc'" in capsys.readouterr().err


def test_label_past_int64_exit_2(tmp_path, capsys):
    # load_csv names a label outside the int64 range by its file, row and
    # column; the command line reports it as a runtime error.
    source, target = tmp_path / "s.csv", tmp_path / "t.csv"
    source.write_text(f"f0,label\n0.5,0\n1.5,{2**63}\n")
    target.write_text("f0,label\n0.5,0\n1.5,1\n")
    exp = UdaExperiment(
        task={"kind": "csv", "source_path": str(source), "target_path": str(target)},
        spec=NetworkSpec((1, 4, 2), ("sigmoid",), (0,)),
        cfg=TrainConfig(regularizer="none", epochs=1, batch_size=2),
        repeats=1,
        outputs=str(tmp_path / "report"),
    )
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(experiment_to_dict(exp)))
    discrepancy = ["discrepancy", "--source", str(source), "--target", str(target)]
    for argv in (discrepancy + ["--label-column", "label"], ["train", "--config", str(config)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("dwmd: error: ")
        assert f"row 3, column 2: label '{2**63}' is outside the int64 range" in err


@pytest.mark.parametrize("metric, kind", [("dwmd", "raw"), ("smd", "raw"), ("cmd", "central")])
def test_moment_overflow_exit_2(tmp_path, capsys, metric, kind):
    source, target = tmp_path / "s.csv", tmp_path / "t.csv"
    write_csv(source, [1e100, 1.0, 2.0, 3.0, 4.0])
    write_csv(target, [1.0, 2.0, 3.0, 4.0, 5.0])
    argv = ["discrepancy", "--source", str(source), "--target", str(target), "--metric", metric]
    code = main(argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"dwmd: error: non-finite {kind} moment at order 4, dimension 0; ")


def test_discrepancy_underflowing_bandwidth_exit_2(one_dim_pair, capsys):
    source, target = one_dim_pair
    code = main(
        ["discrepancy", "--source", source, "--target", target, "--metric", "mmd", "--bandwidth", "1e-160"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "bandwidth must be 'median' or a number from 1.5e-154 to 9.4e153" in err
    assert "got 1e-160" in err and "Traceback" not in err
