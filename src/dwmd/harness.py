"""Synthetic tasks, CSV ingestion, experiment orchestration, and reports.

Experiments train `repeats` models with seeds 1..repeats, evaluate target
accuracy for each, and aggregate mean and standard deviation. Reports are
written as plain CSV plus a JSON config snapshot, byte-identical across
re-runs.
"""

import csv
import json
import math
import os
import warnings
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .discrepancy import DwmdConfig
from .moments import _check, _check_count, _check_real, _check_seed, _finite_vector, _sequence
from .nettrain import NetworkSpec, TrainConfig, TrainingDiverged, train_uda

__all__ = [
    "UdaExperiment",
    "ExperimentReport",
    "gen_moons",
    "gen_gaussian_shift",
    "load_csv",
    "save_csv",
    "run_experiment",
    "write_report",
    "experiment_from_dict",
    "experiment_to_dict",
]


def _check_path(name, value):
    _check(name, value, isinstance(value, (str, os.PathLike)), "a path")


def _check_label_column(name, value):
    _check(name, value, value is None or isinstance(value, str), "a column name or null")


NEEDED = object()  # the default of a task key a kind cannot do without
# Per task kind, each key it reads, with its check and its default (a scale
# of None is all ones), under the name its generator or loader takes.
TASK_KEYS = {
    "moons": {
        "m_per_domain": (_check_count, 400), "rotation_degrees": (_check_real, 40.0),
        "noise": (_check_real, 0.1),
    },
    "gaussian_shift": {
        "m": (_check_count, 1000), "d": (_check_count, NEEDED),
        "offset": (_sequence, NEEDED), "scale": (_sequence, None),
    },
    "csv": {
        "source_path": (_check_path, NEEDED), "target_path": (_check_path, NEEDED),
        "label_column": (_check_label_column, "label"),
    },
}


def _check_task(task):
    """Raise ValueError naming the key unless task is a mapping that names a
    known kind and holds every key that kind needs, no key it does not read,
    and values of the types it reads."""
    kind = _section(task, "task").get("kind")
    if not isinstance(kind, str) or kind not in TASK_KEYS:
        raise ValueError(f"unknown task kind {kind!r}")
    keys = TASK_KEYS[kind]
    unknown = set(task) - set(keys) - {"kind"}
    if unknown:
        raise ValueError(f"task: unknown keys {sorted(unknown)} for kind {kind!r}")
    missing = [key for key, (_, default) in keys.items() if default is NEEDED and key not in task]
    if missing:
        raise ValueError(f"task: kind {kind!r} needs the keys {missing}")
    for key, (check, _) in keys.items():
        if key in task:
            check(f"task.{key}", task[key])


@dataclass(frozen=True)
class UdaExperiment:
    """One experiment: a task description, a network, a training config,
    a number of seeded repeats, and an output directory."""

    task: dict
    spec: NetworkSpec
    cfg: TrainConfig
    repeats: int = 5
    outputs: str = "reports"

    def __post_init__(self):
        _check("spec", self.spec, isinstance(self.spec, NetworkSpec), "a NetworkSpec")
        _check("cfg", self.cfg, isinstance(self.cfg, TrainConfig), "a TrainConfig")
        _check_count("repeats", self.repeats)
        _check_path("outputs", self.outputs)
        _check_task(self.task)


@dataclass
class ExperimentReport:
    """Per-seed accuracies, their aggregate, per-epoch traces, and the
    resolved configuration snapshot."""

    per_seed: list  # [{"seed", "accuracy" or "error"}]
    mean_accuracy: float
    std_accuracy: float
    traces: dict  # seed -> {"source_loss": [...], "regularizer": {layer: [...]}, "target_accuracy": [...]}
    config_snapshot: dict


def gen_moons(m_per_domain, rotation_degrees, noise, seed):
    """Two interleaved half-circles per domain; the target cloud is the same
    construction rotated about the origin.

    Base point positions are deterministic (evenly spaced arc angles); only
    the additive noise is random, so rotation 0 with noise 0 gives identical
    domains. Labels are exactly balanced. Returns
    (source, source_labels, target, target_labels); target labels are for
    evaluation only.
    """
    _check_count("m_per_domain", m_per_domain)
    ok = m_per_domain >= 40 and m_per_domain % 2 == 0
    _check("m_per_domain", m_per_domain, ok, "even and >= 40", str)
    _check_real("rotation_degrees", rotation_degrees, lambda r: 0.0 <= r <= 90.0, "in [0, 90]")
    _check_real("noise", noise, lambda sd: 0.0 <= sd < np.inf, "finite and >= 0")
    _check_seed(seed)
    half = m_per_domain // 2
    angles = np.linspace(0.0, np.pi, half)
    outer = np.column_stack([np.cos(angles), np.sin(angles)])
    inner = np.column_stack([1.0 - np.cos(angles), -np.sin(angles) + 0.5])
    base = np.vstack([outer, inner])
    base = base - base.mean(axis=0)
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])

    rng = np.random.default_rng(seed)
    source = base + noise * rng.standard_normal(base.shape)
    target = base + noise * rng.standard_normal(base.shape)
    theta = math.radians(rotation_degrees)
    rot = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )
    target = target @ rot
    return source, labels, target, labels.copy()


def gen_gaussian_shift(m, d, offset, scale, seed):
    """Two-class Gaussian blobs; target samples are scaled then offset per
    dimension.

    Classes are separated along the last dimension symmetrically about 0, so
    each dimension's overall mean is ~0 in the source and ~offset[j] in the
    target, making the robust-mean gap track |offset|. A scale of None is
    all ones. Returns (source, source_labels, target, target_labels).
    """
    _check_count("m", m)
    _check("m", m, m >= 2, ">= 2", str)
    _check_count("d", d)
    offset = _finite_vector("offset", offset, d)
    scale = np.ones(d) if scale is None else _finite_vector("scale", scale, d)
    _check("scale", scale, bool((scale > 0.0).all()), "> 0", str)
    _check_seed(seed)
    half = m // 2
    centers = np.zeros(d)
    sep = np.zeros(d)
    sep[-1] = 1.0
    labels = np.concatenate(
        [np.zeros(half, dtype=np.int64), np.ones(m - half, dtype=np.int64)]
    )
    signs = np.where(labels == 0, -1.0, 1.0)[:, None]

    rng = np.random.default_rng(seed)
    source = centers + signs * sep + rng.standard_normal((m, d))
    target_base = centers + signs * sep + rng.standard_normal((m, d))
    target = target_base * scale + offset
    return source, labels, target, labels.copy()


def load_csv(path, label_column=None):
    """Read a rectangular numeric CSV with a header row.

    Returns (matrix, labels) where labels is None unless label_column names a
    column, which is then parsed as integers (by int(), so "1.0" is refused)
    and excluded from the features. Non-numeric and non-finite (nan, inf)
    feature cells are rejected. Errors carry row/column coordinates (1-based,
    header = row 1).

    The body is parsed by numpy's C reader, np.loadtxt, which takes what
    float() takes in ASCII: surrounding whitespace, csv quoting, exponents,
    nan and inf. Where it fails, or could read a file differently from the
    csv module (a ragged, blank or over-long row, a bad cell or label, "1_0"
    or non-ASCII digits, a label of magnitude 2**53 or more), the body is read
    again cell by cell with csv.reader: that gives the same result, or the
    error naming the first bad cell. A pipe, which cannot be read twice, is
    always read cell by cell. Peak memory is about twice the matrix.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise _CsvRowError(f"{path}: row 1: {exc}") from None
        label_idx = None
        if label_column is not None:
            if label_column not in header:
                raise ValueError(f"{path}: no column named {label_column!r} in header")
            label_idx = header.index(label_column)
        parsed = None
        if fh.seekable():  # a pipe cannot be read a second time
            parsed = _loadtxt_body(fh, len(header), label_idx)
            if parsed is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
        if parsed is None:
            parsed = _csv_body(path, reader, header, label_idx)
    matrix, labels = parsed
    _check_finite(path, matrix, label_idx)
    return matrix, labels


def _loadtxt_body(fh, n_cols, label_idx):
    """(matrix, labels) for the rest of fh, parsed by np.loadtxt; None where
    that fails or could differ from _csv_body."""
    limit = csv.field_size_limit()
    n_lines = 0

    def lines():
        nonlocal n_lines
        for line in fh:
            n_lines += 1
            # csv.reader refuses a field longer than its limit, loadtxt does
            # not: stopping here leaves loadtxt a row short of n_lines.
            if len(line) > limit and max(map(len, line.split(","))) > limit:
                return
            yield line

    # encoding=None hands the converter str, not bytes, on numpy < 2 too.
    converters = None if label_idx is None else {label_idx: int}
    try:
        with warnings.catch_warnings():
            # "input contained no data": the count below sends that to the loop.
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(
                lines(), delimiter=",", quotechar='"', comments=None, ndmin=2,
                dtype=np.float64, converters=converters, encoding=None,
            )
    except ValueError:
        return None
    # loadtxt skips blank lines, where the loop stops, and takes the width
    # from the first row, not the header.
    if n_lines == 0 or data.shape != (n_lines, n_cols):
        return None
    if label_idx is None:
        return data, None
    labels = data[:, label_idx]
    # Each label went through int() and then float64, which is exact below 2**53.
    if np.abs(labels).max() >= 2.0**53:
        return None
    return np.delete(data, label_idx, axis=1), labels.astype(np.int64)


class _CsvRowError(ValueError, csv.Error):
    """A row the csv module cannot read (a field over csv.field_size_limit(),
    for one), named by file and row. A ValueError like every other bad
    file, and still a csv.Error for callers that catch that."""


def _csv_body(path, reader, header, label_idx):
    """(matrix, labels) for the rows left in reader, cell by cell: the
    reading that names a malformed cell."""
    rows, labels = [], []
    lineno = 1
    try:
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
    except csv.Error as exc:
        raise _CsvRowError(f"{path}: row {lineno + 1}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    matrix = np.asarray(rows, dtype=np.float64)
    return matrix, (np.asarray(labels, dtype=np.int64) if label_idx is not None else None)


def _check_finite(path, matrix, label_idx):
    """Raise ValueError naming the file coordinates of the first non-finite
    cell of matrix, if any."""
    if not np.isfinite(matrix).all():
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        col = j + 1 if label_idx is None or j < label_idx else j + 2
        raise ValueError(
            f"{path}: row {i + 2}, column {col}: {str(matrix[i, j])!r} is not finite"
        )


def save_csv(path, matrix, labels=None):
    """Write a sample matrix (optionally with an integer label column named
    "label") in the format load_csv reads back."""
    matrix = np.asarray(matrix, dtype=np.float64)
    header = [f"f{j}" for j in range(matrix.shape[1])]
    if labels is not None:
        header.append("label")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        # A float's repr never needs quoting, so rows are joined directly, in
        # the csv module's default \r\n line ending.
        for i, row in enumerate(matrix):
            cells = list(map(repr, row.tolist()))
            if labels is not None:
                cells.append(str(int(labels[i])))
            fh.write(",".join(cells) + "\r\n")


def _materialize_task(task, seed):
    """The four arrays of a checked task, absent keys taken from TASK_KEYS."""
    kind = task["kind"]
    args = {key: task.get(key, default) for key, (_, default) in TASK_KEYS[kind].items()}
    if kind == "moons":
        return gen_moons(**args, seed=seed)
    if kind == "gaussian_shift":
        return gen_gaussian_shift(**args, seed=seed)
    source, s_labels = load_csv(args["source_path"], args["label_column"])
    target, t_labels = load_csv(args["target_path"], args["label_column"])
    if s_labels is None:
        raise ValueError(f"{args['source_path']}: source file needs a label column")
    return source, s_labels, target, t_labels


def run_experiment(exp):
    """Train one model per seed 1..repeats and aggregate target accuracy.

    Each seed trains with that seed; a synthetic task is resampled per seed,
    a CSV task is loaded once and every seed reads the same arrays (training
    never writes to its inputs). Per-seed failures, a CSV task's load error
    included, are recorded and excluded from aggregates; the run errors only
    when every seed fails.
    """
    per_seed, traces = [], {}
    arrays = error = None
    if exp.task["kind"] == "csv":
        try:
            arrays = _materialize_task(exp.task, None)
        except ValueError as exc:
            error = str(exc)
    for seed in range(1, exp.repeats + 1):
        if error is not None:
            per_seed.append({"seed": seed, "error": error})
            continue
        try:
            source, y_s, target, y_t = arrays or _materialize_task(exp.task, seed)
            cfg = replace(exp.cfg, seed=seed)
            model = train_uda(source, y_s, target, exp.spec, cfg, target_labels=y_t)
            per_seed.append({"seed": seed, "accuracy": model.history["target_accuracy"][-1]})
            traces[seed] = model.history
        except (ValueError, TrainingDiverged) as exc:
            per_seed.append({"seed": seed, "error": str(exc)})
    accs = [r["accuracy"] for r in per_seed if "accuracy" in r]
    if not accs:
        raise RuntimeError(
            "all seeds failed: " + "; ".join(r["error"] for r in per_seed)
        )
    return ExperimentReport(
        per_seed=per_seed,
        mean_accuracy=float(np.mean(accs)),
        std_accuracy=float(np.std(accs)),
        traces=traces,
        config_snapshot=experiment_to_dict(exp),
    )


def write_report(report, out_dir):
    """Emit per_seed.csv, summary.csv, trace_seed<k>.csv, and
    config_snapshot.json into out_dir. Deterministic byte-for-byte."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "per_seed.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "target_accuracy", "status"])
        for row in report.per_seed:
            if "accuracy" in row:
                writer.writerow([row["seed"], repr(row["accuracy"]), "ok"])
            else:
                writer.writerow([row["seed"], "", "error: " + row["error"]])
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mean_accuracy", "std_accuracy", "n_seeds_ok", "n_seeds_total"])
        n_ok = sum(1 for r in report.per_seed if "accuracy" in r)
        writer.writerow(
            [repr(report.mean_accuracy), repr(report.std_accuracy), n_ok, len(report.per_seed)]
        )
    for seed in sorted(report.traces):
        trace = report.traces[seed]
        layers = sorted(trace["regularizer"])
        with open(
            os.path.join(out_dir, f"trace_seed{seed}.csv"), "w", newline="", encoding="utf-8"
        ) as fh:
            writer = csv.writer(fh)
            header = ["epoch", "source_loss"]
            header += [f"regularizer_layer{layer}" for layer in layers]
            if trace["target_accuracy"]:
                header.append("target_accuracy")
            writer.writerow(header)
            for epoch in range(len(trace["source_loss"])):
                row = [epoch + 1, repr(trace["source_loss"][epoch])]
                row += [repr(trace["regularizer"][layer][epoch]) for layer in layers]
                if trace["target_accuracy"]:
                    row.append(repr(trace["target_accuracy"][epoch]))
                writer.writerow(row)
    with open(os.path.join(out_dir, "config_snapshot.json"), "w", encoding="utf-8") as fh:
        json.dump(report.config_snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def experiment_to_dict(exp):
    """Lossless mapping of an experiment onto JSON-able types (lists as tuples)."""
    return asdict(exp)


def _section(value, name, schema=None):
    """value as a new dict; a ValueError names the section unless it is a
    mapping whose keys all name fields of the dataclass schema (if given)."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping, got {value!r}")
    unknown = set(value) - {f.name for f in fields(schema)} if schema else set()
    if unknown:
        raise ValueError(f"{name}: unknown keys {sorted(unknown)}")
    return dict(value)


def experiment_from_dict(data):
    """Inverse of experiment_to_dict; unknown keys anywhere are errors."""
    data = _section(data, "experiment", UdaExperiment)
    spec_data = _section(data.get("spec"), "spec", NetworkSpec)
    cfg_data = _section(data.get("cfg", {}), "cfg")
    dwmd_data = _section(cfg_data.pop("dwmd", {}), "cfg.dwmd", DwmdConfig)
    cfg_data = _section(cfg_data, "cfg", TrainConfig)
    data["task"] = _section(data.get("task"), "task")
    data["spec"] = NetworkSpec(**spec_data)
    data["cfg"] = TrainConfig(dwmd=DwmdConfig(**dwmd_data), **cfg_data)
    return UdaExperiment(**data)
