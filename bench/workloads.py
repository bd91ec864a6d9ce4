"""The three benchmark workloads.

Each workload makes its inputs with numpy from the workload seed (never with
`harness.gen_*`, so a change to those generators cannot change the inputs),
runs one operation at a time in a closed loop (one caller; the next operation
starts when the last has finished), and checks the outputs.

A workload object has:
  prepare(seed)        build the inputs (timed as set-up, repeated);
  inputs()             [(name, array)] of the inputs, for the environment record;
  op()                 one operation; returns a dict with "s" (wall seconds),
                       optional phase times and the outputs the checks need;
  check(outcome)       list of problems with one operation's outputs;
  final_checks()       [(name, check)], extra checks run once; check() returns
                       a list of problems;
  csv_bytes_per_op()   bytes of CSV that one operation reads through load_csv;
  details(outcomes)    the workload's own end-to-end figures, by name.
All dwmd functions are looked up through their module at call time, so the
tracer's wrappers see the benchmark's calls as well as the package's own.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import statistics
import time

import numpy as np

from dwmd import cli, discrepancy, harness, weighting


def _shifted_pair(rng, m, d):
    """Source N(0, 1); target scaled and shifted per dimension."""
    source = rng.standard_normal((m, d))
    shift = rng.uniform(0.1, 0.6, d)
    scale = rng.uniform(0.8, 1.25, d)
    target = rng.standard_normal((m, d)) * scale + shift
    return source, target


def _run_cli(argv):
    """Call dwmd.cli.main in process; return (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _digest(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).data)
    return h.hexdigest()


class TrainMoons:
    """`dwmd train` on a CSV-task config: rotated moons, 1000 rows per
    domain, 50 degrees, (2,16,2) sigmoid net matched at layer 0, dwmd n=5,
    60 epochs, batch 200, 3 repeats. The regularizer sees 200x16 matrices."""

    name = "train-moons"
    M_PER_DOMAIN = 1000
    ROTATION = 50.0
    NOISE = 0.1
    EPOCHS = 60
    BATCH = 200
    REPEATS = 3

    def __init__(self, work_dir):
        self.dir = os.path.join(work_dir, "train-moons")
        self.steps_per_op = (
            self.REPEATS * self.EPOCHS * math.ceil(self.M_PER_DOMAIN / self.BATCH)
        )
        self._first_accuracy = None

    def _moons(self, rng):
        half = self.M_PER_DOMAIN // 2

        def domain():
            a = rng.uniform(0.0, np.pi, half)
            b = rng.uniform(0.0, np.pi, half)
            outer = np.column_stack([np.cos(a), np.sin(a)])
            inner = np.column_stack([1.0 - np.cos(b), 0.5 - np.sin(b)])
            x = np.vstack([outer, inner]) - np.array([0.5, 0.25])
            return x + self.NOISE * rng.standard_normal(x.shape)

        theta = math.radians(self.ROTATION)
        rot = np.array([[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]])
        labels = np.repeat([0, 1], half)
        return domain(), labels, domain() @ rot, labels

    @staticmethod
    def _write_csv(path, x, labels):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{j}" for j in range(x.shape[1])] + ["label"])
            for row, label in zip(x.tolist(), labels.tolist()):
                writer.writerow([repr(v) for v in row] + [str(label)])

    def prepare(self, seed):
        os.makedirs(self.dir, exist_ok=True)
        self.source, y_s, self.target, y_t = self._moons(np.random.default_rng(seed))
        paths = [os.path.join(self.dir, f) for f in ("source.csv", "target.csv")]
        self._write_csv(paths[0], self.source, y_s)
        self._write_csv(paths[1], self.target, y_t)
        self.report_dir = os.path.join(self.dir, "report")
        self.config_path = os.path.join(self.dir, "config.json")
        config = {
            "task": {"kind": "csv", "source_path": paths[0], "target_path": paths[1],
                     "label_column": "label"},
            "spec": {"layer_sizes": [2, 16, 2], "activations": ["sigmoid"],
                     "matched_layers": [0]},
            "cfg": {"lam": 1.0, "regularizer": "dwmd", "dwmd": {"n": 5},
                    "epochs": self.EPOCHS, "batch_size": self.BATCH,
                    "learning_rate": 1.0, "seed": 1},
            "repeats": self.REPEATS,
            "outputs": self.report_dir,
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        self.csv_bytes = sum(os.path.getsize(p) for p in paths)

    def inputs(self):
        return [("source", self.source), ("target", self.target)]

    def csv_bytes_per_op(self):
        return self.REPEATS * self.csv_bytes

    def op(self):
        start = time.perf_counter()
        code, out = _run_cli(["train", "--config", self.config_path, "--out", self.report_dir])
        elapsed = time.perf_counter() - start
        with open(os.path.join(self.report_dir, "per_seed.csv"), encoding="utf-8") as fh:
            statuses = [row["status"] for row in csv.DictReader(fh)]
        with open(os.path.join(self.report_dir, "summary.csv"), encoding="utf-8") as fh:
            summary = next(csv.DictReader(fh))
        return {
            "s": elapsed,
            "code": code,
            "error_rows": sum(1 for s in statuses if s != "ok"),
            "seeds": len(statuses),
            "accuracy": float(summary["mean_accuracy"]),
        }

    def check(self, outcome):
        problems = []
        if outcome["code"] != 0:
            problems.append(f"dwmd train exited {outcome['code']}")
        if outcome["error_rows"] or outcome["seeds"] != self.REPEATS:
            problems.append(
                f"{outcome['error_rows']} error rows in per_seed.csv "
                f"({outcome['seeds']} seeds)"
            )
        if not 0.0 <= outcome["accuracy"] <= 1.0:
            problems.append(f"accuracy {outcome['accuracy']} outside [0, 1]")
        if self._first_accuracy is None:
            self._first_accuracy = outcome["accuracy"]
        elif outcome["accuracy"] != self._first_accuracy:
            problems.append(
                f"accuracy {outcome['accuracy']!r} differs from {self._first_accuracy!r}"
            )
        return problems

    def final_checks(self):
        return []

    def details(self, outcomes):
        op_s = statistics.median(o["s"] for o in outcomes)
        return {
            "train_steps_per_s": (self.steps_per_op / op_s, "1/s"),
            "train_target_accuracy": (outcomes[0]["accuracy"], "ratio"),
            "train_seed_s": (op_s / self.REPEATS, "s"),
        }


class MetricBulk:
    """Library calls on one 50k x 64 pair: dwmd (profile and value),
    dwmd_gradient and cmd_with_gradient."""

    name = "metric-bulk"
    M, D = 50_000, 64
    FD_ENTRIES = 4  # per domain
    FD_STEP = 1e-3
    FD_RTOL = 1e-4

    def __init__(self, work_dir):
        self.config = discrepancy.DwmdConfig()
        self._first = None

    def prepare(self, seed):
        self.seed = seed
        self.source, self.target = _shifted_pair(np.random.default_rng(seed), self.M, self.D)

    def inputs(self):
        return [("source", self.source), ("target", self.target)]

    def csv_bytes_per_op(self):
        return 0

    def op(self):
        s, t = self.source, self.target
        t0 = time.perf_counter()
        report = discrepancy.dwmd(s, t, self.config)
        t1 = time.perf_counter()
        g_s, g_t = discrepancy.dwmd_gradient(s, t, self.config)
        t2 = time.perf_counter()
        cmd_value, c_s, c_t = discrepancy.cmd_with_gradient(s, t)
        t3 = time.perf_counter()
        return {
            "s": t3 - t0,
            "dwmd_s": t1 - t0,
            "dwmd_gradient_s": t2 - t1,
            "cmd_with_gradient_s": t3 - t2,
            "total": report.total,
            "cmd": cmd_value,
            "digest": _digest(report.per_order_terms, g_s, g_t, c_s, c_t),
        }

    def check(self, outcome):
        problems = []
        for key in ("total", "cmd"):
            if not (math.isfinite(outcome[key]) and outcome[key] > 0.0):
                problems.append(f"{key} = {outcome[key]!r}, expected finite and > 0")
        key = (outcome["total"], outcome["cmd"], outcome["digest"])
        if self._first is None:
            self._first = key
        elif key != self._first:
            problems.append("outputs differ from the first operation's")
        return problems

    def _finite_difference_problems(self):
        s, t = self.source, self.target
        cfg = self.config
        profile = weighting.weight_profile(s, t, cfg.alpha, cfg.c_policy, cfg.c_value)
        g_s, g_t = discrepancy.dwmd_gradient(s, t, cfg, profile=profile)
        rng = np.random.default_rng((self.seed, 0xFD))
        problems = []
        for x, g, side in ((s, g_s, "source"), (t, g_t, "target")):
            scale = float(np.abs(g).max())
            for _ in range(self.FD_ENTRIES):
                i, j = int(rng.integers(self.M)), int(rng.integers(self.D))
                keep = x[i, j]
                try:
                    x[i, j] = keep + self.FD_STEP
                    up = discrepancy.dwmd(s, t, cfg, profile=profile).total
                    x[i, j] = keep - self.FD_STEP
                    down = discrepancy.dwmd(s, t, cfg, profile=profile).total
                finally:
                    x[i, j] = keep
                fd = (up - down) / (2.0 * self.FD_STEP)
                if abs(fd - g[i, j]) > self.FD_RTOL * max(abs(fd), 1e-3 * scale):
                    problems.append(
                        f"{side}[{i},{j}]: gradient {g[i, j]!r} vs finite difference {fd!r}"
                    )
        return problems

    def _self_distance_problems(self):
        zero = discrepancy.dwmd(self.source, self.source, self.config).total
        return [] if zero == 0.0 else [f"dwmd(x, x) = {zero!r}"]

    def final_checks(self):
        return [
            ("dwmd_gradient_vs_finite_difference", self._finite_difference_problems),
            ("dwmd_self_is_zero", self._self_distance_problems),
        ]

    def details(self, outcomes):
        out = {"metric_eval_s": (statistics.median(o["s"] for o in outcomes), "s")}
        for key in ("dwmd_s", "dwmd_gradient_s", "cmd_with_gradient_s"):
            out[key] = (statistics.median(o[key] for o in outcomes), "s")
        return out


class CliCsv:
    """save_csv writes a 10k x 32 pair and a 1k x 16 pair; then
    `dwmd discrepancy --json` runs dwmd and cmd on the large pair and mmd on
    the small pair. MMD stays on the small pair: its dense (2m)^2 matrices
    would need 3 GiB each at 10k. The pairs have 10k and 1k rows rather than
    20k and 2k so that a 25 s run holds enough operations for a steady
    median."""

    name = "cli-csv"
    LARGE = (10_000, 32)
    SMALL = (1_000, 16)

    def __init__(self, work_dir):
        self.dir = os.path.join(work_dir, "cli-csv")
        os.makedirs(self.dir, exist_ok=True)
        self.paths = {
            key: os.path.join(self.dir, f"{key}.csv")
            for key in ("large_source", "large_target", "small_source", "small_target")
        }
        p = self.paths
        self.invocations = [
            ("dwmd", ["--source", p["large_source"], "--target", p["large_target"],
                      "--metric", "dwmd"]),
            ("cmd", ["--source", p["large_source"], "--target", p["large_target"],
                     "--metric", "cmd"]),
            ("mmd", ["--source", p["small_source"], "--target", p["small_target"],
                     "--metric", "mmd"]),
        ]
        self._ref = None

    def prepare(self, seed):
        rng = np.random.default_rng(seed)
        large = _shifted_pair(rng, *self.LARGE)
        small = _shifted_pair(rng, *self.SMALL)
        self.arrays = {
            "large_source": large[0], "large_target": large[1],
            "small_source": small[0], "small_target": small[1],
        }

    def inputs(self):
        return list(self.arrays.items())

    def csv_bytes_per_op(self):
        sizes = {k: os.path.getsize(p) for k, p in self.paths.items()}
        return 2 * (sizes["large_source"] + sizes["large_target"]) + (
            sizes["small_source"] + sizes["small_target"]
        )

    def op(self):
        t0 = time.perf_counter()
        for key, path in self.paths.items():
            harness.save_csv(path, self.arrays[key])
        t1 = time.perf_counter()
        results = {}
        for metric, args in self.invocations:
            results[metric] = _run_cli(["discrepancy", *args, "--json"])
        t2 = time.perf_counter()
        return {"s": t2 - t0, "csv_write_s": t1 - t0, "cli_discrepancy_s": t2 - t1,
                "results": results}

    def _reference(self):
        if self._ref is None:
            a = self.arrays
            self._ref = {
                "dwmd": discrepancy.dwmd(a["large_source"], a["large_target"],
                                         discrepancy.DwmdConfig()).total,
                "cmd": discrepancy.cmd(a["large_source"], a["large_target"], 5),
                "mmd": discrepancy.mmd_rbf(a["small_source"], a["small_target"]),
            }
        return self._ref

    def check(self, outcome):
        problems = []
        reference = self._reference()
        for metric, (code, out) in outcome["results"].items():
            if code != 0:
                problems.append(f"dwmd discrepancy --metric {metric} exited {code}")
                continue
            total = json.loads(out)["total"]
            if total != reference[metric]:
                problems.append(
                    f"{metric}: CLI total {total!r} != library {reference[metric]!r}"
                )
        return problems

    def final_checks(self):
        return []

    def details(self, outcomes):
        return {
            key: (statistics.median(o[key] for o in outcomes), "s")
            for key in ("cli_discrepancy_s", "csv_write_s")
        }


WORKLOADS = {w.name: w for w in (TrainMoons, MetricBulk, CliCsv)}
