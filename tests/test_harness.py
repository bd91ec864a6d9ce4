import csv
import filecmp
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestCsvErrorBranches:
    def test_non_integer_label_names_row_and_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,label\n1,0\n2,x\n")
        with pytest.raises(ValueError, match="row 3, column 2: label 'x' is not an integer"):
            load_csv(path, "label")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_bad_cell_right_of_the_label_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,label,f1,f2\n1,0,2,3\n4,1,5,oops\n")
        with pytest.raises(ValueError, match="row 3, column 4: 'oops' is not numeric"):
            load_csv(path, "label")


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("cfg", "epochs", 2.5, "epochs must be an integer"),
        ("cfg", "batch_size", 40.0, "batch_size must be an integer"),
        ("cfg", "cmd_order", "5", "cmd_order must be an integer"),
        ("cfg", "lam", float("nan"), "lam must be a finite number >= 0"),
        ("cfg", "learning_rate", float("inf"), "learning_rate must be a finite number"),
        ("dwmd", "n", 2.5, "n must be an integer"),
    ],
)
def test_config_types_rejected_on_load(tmp_path, section, key, value, message):
    data = experiment_to_dict(small_experiment(str(tmp_path)))
    (data["cfg"] if section == "cfg" else data["cfg"]["dwmd"])[key] = value
    with pytest.raises(ValueError, match=message):
        experiment_from_dict(data)


# load_csv as it read every file cell by cell: the oracle for the loadtxt path.
def reference_load_csv(path, label_column=None):
    """Read a rectangular numeric CSV with a header row.

    Returns (matrix, labels) where labels is None unless label_column names a
    column, which is then parsed as integers and excluded from the features.
    Non-numeric and non-finite (nan, inf) feature cells are rejected. Errors
    carry row/column coordinates (1-based, header = row 1).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        label_idx = None
        if label_column is not None:
            if label_column not in header:
                raise ValueError(f"{path}: no column named {label_column!r} in header")
            label_idx = header.index(label_column)
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
                )
            feats = []
            for col, cell in enumerate(row):
                if col == label_idx:
                    try:
                        label = int(cell)
                    except ValueError:
                        raise ValueError(
                            f"{path}: row {lineno}, column {col + 1}: "
                            f"label {cell!r} is not an integer"
                        ) from None
                    if not -(2**63) <= label < 2**63:
                        raise ValueError(
                            f"{path}: row {lineno}, column {col + 1}: "
                            f"label {cell!r} is outside the int64 range"
                        )
                    labels.append(label)
                else:
                    try:
                        feats.append(float(cell))
                    except ValueError:
                        raise ValueError(
                            f"{path}: row {lineno}, column {col + 1}: "
                            f"{cell!r} is not numeric"
                        ) from None
            rows.append(feats)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    matrix = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(matrix).all():
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        col = j + 1 if label_idx is None or j < label_idx else j + 2
        raise ValueError(
            f"{path}: row {i + 2}, column {col}: {str(matrix[i, j])!r} is not finite"
        )
    return matrix, (np.asarray(labels, dtype=np.int64) if label_idx is not None else None)


def loaded(reader, path, label_column):
    """What reader makes of the file: its arrays as bytes, shapes and
    dtypes, or the type and text of the exception it raises."""
    try:
        matrix, labels = reader(path, label_column)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = [matrix] if labels is None else [matrix, labels]
    return [(a.tobytes(), a.shape, a.dtype, a.flags.c_contiguous) for a in arrays]


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr), st.integers(-9, 9).map(str)
)
_CELL_BASES = st.one_of(
    _NUMBERS,
    _NUMBERS,
    st.floats().map(repr),  # nan and +-inf included
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(
        ["", "0", "-0", "1.0", "1e5", "#", "#1", "1_0", "٣", "nan", "+nan",
         "inf", "-inf", "Infinity", "x", "0x10", '"', '1"2"', '"1"2', '""1', " "]
    ),
)
_LABELS = st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64)).map(str)
_PADS = st.sampled_from(["", "", " ", "\t", "\xa0"])
_ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _cells(draw):
    cell = draw(_PADS) + draw(_CELL_BASES) + draw(_PADS)
    return f'"{cell}"' if draw(st.integers(0, 4)) == 0 else cell


@st.composite
def csv_texts(draw):
    """A CSV text with a header row, and the label column to ask for: mostly
    numeric rows, some of them padded, quoted, ragged or blank, ended by a
    mix of line endings, with or without a final one."""
    n_cols = draw(st.integers(1, 4))
    label = draw(st.one_of(st.none(), st.integers(0, n_cols - 1)))
    lines = [",".join(f"c{j}" for j in range(n_cols))]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["numeric"] * 5 + ["mixed"] * 5 + ["blank", "ragged"]))
        width = n_cols + (draw(st.sampled_from([-1, 1])) if shape == "ragged" else 0)
        cells = [
            draw(_cells() if shape == "mixed" else _LABELS if j == label else _NUMBERS)
            for j in range(width)
        ]
        lines.append("" if shape == "blank" else ",".join(cells))
    endings = draw(st.lists(_ENDINGS, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, None if label is None else f"c{label}"


class TestLoadCsvMatchesTheCellLoop:
    @given(case=csv_texts())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_arrays_or_same_error(self, tmp_path_factory, case):
        text, label_column = case
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_bytes(text.encode("utf-8"))
        assert loaded(load_csv, path, label_column) == loaded(reference_load_csv, path, label_column)

    @pytest.mark.parametrize("label", [2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, 2**63])
    def test_labels_are_never_rounded_through_float64(self, tmp_path, label):
        path = tmp_path / "x.csv"
        path.write_text(f"f0,label\n0.5,{label}\n1.5,1\n")
        assert loaded(load_csv, path, "label") == loaded(reference_load_csv, path, "label")

    @pytest.mark.parametrize("label", [2**63, -(2**63) - 1])
    def test_a_label_outside_int64_is_named(self, tmp_path, label):
        path = tmp_path / "x.csv"
        path.write_text(f"f0,label\n0.5,0\n1.5,{label}\n")
        message = f"row 3, column 2: label '{label}' is outside the int64 range"
        with pytest.raises(ValueError, match=message):
            load_csv(path, "label")

    def test_label_range_is_checked_before_the_features(self, tmp_path):
        # Both loaders stop at the label in the cell loop, before the
        # finiteness check of the features.
        path = tmp_path / "x.csv"
        path.write_text("f0,label\nnan,9223372036854775808\n1.5,1\n")
        result = loaded(load_csv, path, "label")
        assert result == loaded(reference_load_csv, path, "label")
        label = "label '9223372036854775808' is outside the int64 range"
        assert result == (ValueError, f"{path}: row 2, column 2: {label}")

    def test_float_label_refused(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("f0,label\n0.5,0\n1.5,1.0\n")
        with pytest.raises(ValueError, match="row 3, column 2: label '1.0' is not an integer"):
            load_csv(path, "label")

    def test_blank_line_is_a_row_of_no_cells(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n\n3,4\n")
        with pytest.raises(ValueError, match="row 3 has 0 cells, expected 2"):
            load_csv(path)

    def test_rows_wider_than_the_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="row 2 has 3 cells, expected 2"):
            load_csv(path)

    def test_field_size_limit_still_applies(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1.25,2.5,3\n1.0000000001,2,3\n")
        old = csv.field_size_limit(10)
        try:
            short_fields = tmp_path / "short.csv"
            short_fields.write_text("a,b,c\n1.25,2.5,3\n")  # the row is longer than 10
            assert loaded(load_csv, short_fields, None) == loaded(reference_load_csv, short_fields, None)
            with pytest.raises(csv.Error, match="field larger than field limit"):
                load_csv(path)
        finally:
            csv.field_size_limit(old)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize(
        "text, expected",
        [("a,b\n1,2\n3,4\n", None), ("a,b\n1,2\n3\n", "row 3 has 1 cells, expected 2")],
    )
    def test_pipe_is_read_once(self, text, expected):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text.encode())
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            if expected is None:
                matrix, _ = load_csv(path)
                np.testing.assert_array_equal(matrix, [[1, 2], [3, 4]])
            else:
                with pytest.raises(ValueError, match=expected):
                    load_csv(path)
        finally:
            os.close(read_end)


@pytest.mark.parametrize("repeats, message", [
    (1.5, "repeats must be an integer"),
    ("2", "repeats must be an integer"),
    (True, "repeats must be an integer"),
    (0, "repeats must be >= 1"),
])
def test_repeats_must_be_a_count(tmp_path, repeats, message):
    with pytest.raises(ValueError, match=message):
        replace(small_experiment(str(tmp_path)), repeats=repeats)


@pytest.mark.parametrize("outputs", [5, None, ["reports"]])
def test_outputs_must_be_a_path(tmp_path, outputs):
    with pytest.raises(ValueError, match="outputs must be a path"):
        replace(small_experiment(str(tmp_path)), outputs=outputs)


def test_outputs_may_be_a_path_object(tmp_path):
    assert replace(small_experiment(str(tmp_path)), outputs=tmp_path).outputs == tmp_path


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("dwmd", "psi", "1", "psi must be a real number"),
        ("dwmd", "beta", "0.5", "beta must be a real number"),
        ("dwmd", "alpha", None, "alpha must be a real number"),
        ("dwmd", "c_value", "0.05", "c_value must be a real number"),
        ("dwmd", "standardize", "false", "standardize must be a bool"),
        ("cfg", "momentum", "0.5", "momentum must be a real number"),
        ("cfg", "seed", 1.5, "seed must be an integer >= 0"),
        ("cfg", "seed", -1, "seed must be an integer >= 0"),
        ("cfg", "learning_rate", 0.0, "learning_rate must be a finite number > 0"),
        ("cfg", "learning_rate", -1.0, "learning_rate must be a finite number > 0"),
        ("experiment", "repeats", 1.5, "repeats must be an integer"),
        ("experiment", "outputs", 5, "outputs must be a path"),
    ],
)
def test_remaining_config_types_rejected_on_load(tmp_path, section, key, value, message):
    data = experiment_to_dict(small_experiment(str(tmp_path)))
    {"experiment": data, "cfg": data["cfg"], "dwmd": data["cfg"]["dwmd"]}[section][key] = value
    with pytest.raises(ValueError, match=message):
        experiment_from_dict(data)


BAD_SECTIONS_AND_LAYER_LISTS = [
    ("experiment", "task", "moons", "task must be a mapping"),
    ("experiment", "spec", [2, 8, 2], "spec must be a mapping"),
    ("experiment", "cfg", None, "cfg must be a mapping"),
    ("cfg", "dwmd", "default", "cfg.dwmd must be a mapping"),
    ("spec", "layer_sizes", [2, "x", 2], "layer_sizes must be a list of integers"),
    ("spec", "layer_sizes", [2, 8.0, 2], "layer_sizes must be a list of integers"),
    ("spec", "layer_sizes", 8, "layer_sizes must be a list of integers"),
    ("spec", "matched_layers", 0, "matched_layers must be a list of integers"),
    ("spec", "matched_layers", [True], "matched_layers must be a list of integers"),
]


@pytest.mark.parametrize("section, key, value, message", BAD_SECTIONS_AND_LAYER_LISTS)
def test_config_sections_and_layer_lists_named_on_load(tmp_path, section, key, value, message):
    data = experiment_to_dict(small_experiment(str(tmp_path)))
    {"experiment": data, "cfg": data["cfg"], "spec": data["spec"]}[section][key] = value
    with pytest.raises(ValueError, match=message):
        experiment_from_dict(data)


def test_config_must_be_a_mapping():
    with pytest.raises(ValueError, match="experiment must be a mapping"):
        experiment_from_dict([1, 2])


class TestCsvTaskLoadedOnce:
    """A CSV task is loaded once per experiment; every seed trains from the
    same arrays, which no seed may write to."""

    def run_counting_loads(self, tmp_path, monkeypatch, read_only):
        import dwmd.harness as harness

        task, _ = TestTaskKinds().csv_task(tmp_path)
        loads = []
        load = harness.load_csv

        def counted(path, label_column=None):
            matrix, labels = load(path, label_column)
            if read_only:
                matrix.flags.writeable = False
                labels.flags.writeable = False
            loads.append(path)
            return matrix, labels

        monkeypatch.setattr(harness, "load_csv", counted)
        exp = replace(small_experiment(str(tmp_path), repeats=3), task=task)
        return run_experiment(exp), loads

    def test_each_file_is_loaded_once_for_three_seeds(self, tmp_path, monkeypatch):
        report, loads = self.run_counting_loads(tmp_path, monkeypatch, read_only=False)
        assert len(loads) == 2 and len(report.per_seed) == 3

    def test_seeds_train_from_read_only_arrays(self, tmp_path, monkeypatch):
        shared, _ = self.run_counting_loads(tmp_path, monkeypatch, read_only=True)
        monkeypatch.undo()
        writable, _ = self.run_counting_loads(tmp_path, monkeypatch, read_only=False)
        assert all("accuracy" in row for row in shared.per_seed)
        assert shared.per_seed == writable.per_seed
        assert shared.traces == writable.traces

    def test_a_load_error_is_recorded_for_every_seed(self, tmp_path):
        task, _ = TestTaskKinds().csv_task(tmp_path, label_column=None)
        exp = replace(small_experiment(str(tmp_path), repeats=3), task=task)
        message = f"{tmp_path / 'source.csv'}: source file needs a label column"
        with pytest.raises(RuntimeError) as failed:
            run_experiment(exp)
        assert str(failed.value) == "all seeds failed: " + "; ".join([message] * 3)


class TestSaveCsvChecksItsInput:
    """save_csv refuses, before it opens the file, what it wrote wrongly or
    in part: float labels truncated to integers, too few or too many labels,
    bool labels written as 1 and 0, a 1-D matrix, and a NaN that load_csv
    then refused."""

    MATRIX = np.arange(6.0).reshape(3, 2)

    @pytest.mark.parametrize(
        "labels, got",
        [
            ([0.7, 1.2, 2.9], "dtype float64, shape (3,)"),
            ([0, 1], "dtype int64, shape (2,)"),
            ([0, 1, 2, 3], "dtype int64, shape (4,)"),
            ([True, False, True], "dtype bool, shape (3,)"),
            (np.array([0, 2**63, 1], dtype=np.uint64), "dtype uint64, shape (3,)"),
            ([[0], [1], [2]], "dtype int64, shape (3, 1)"),
        ],
    )
    def test_labels_are_one_int64_integer_per_row(self, tmp_path, labels, got):
        path = tmp_path / "x.csv"
        message = f"labels must be one integer within int64 per matrix row (3), got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_csv(path, self.MATRIX, labels)
        assert not path.exists()

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.arange(3.0), "matrix: expected a 2-D (m, d) matrix, got shape (3,)"),
            (np.zeros((0, 2)), "matrix: need m >= 1 and d >= 1, got shape (0, 2)"),
            (np.zeros((2, 0)), "matrix: need m >= 1 and d >= 1, got shape (2, 0)"),
            ([[1.0, 2.0], [3.0, np.nan]], "matrix: non-finite entry at row 1, column 1"),
            ([[1.0, -np.inf]], "matrix: non-finite entry at row 0, column 1"),
        ],
    )
    def test_matrix_follows_the_sample_matrix_rule(self, tmp_path, matrix, message):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_csv(path, matrix)
        assert not path.exists()

    def test_a_refused_call_leaves_an_existing_file_intact(self, tmp_path):
        path = tmp_path / "x.csv"
        save_csv(path, self.MATRIX, [0, 1, 2])
        before = path.read_bytes()
        with pytest.raises(ValueError, match="^labels must be one integer"):
            save_csv(path, self.MATRIX, [0, 1])
        with pytest.raises(ValueError, match="^matrix: non-finite entry"):
            save_csv(path, [[np.nan, 0.0]])
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "labels",
        [
            [-(2**63), 0, 2**63 - 1],
            np.array([0, 1, 2], dtype=np.uint64),
            np.array([5, 6, 7], dtype=np.int8),
        ],
    )
    def test_any_int64_labels_round_trip(self, tmp_path, labels):
        path = tmp_path / "x.csv"
        save_csv(path, self.MATRIX, labels)
        matrix, back = load_csv(path, "label")
        np.testing.assert_array_equal(matrix, self.MATRIX)
        assert back.dtype == np.int64 and back.tolist() == np.asarray(labels).tolist()
