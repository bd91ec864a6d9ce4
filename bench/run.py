"""Benchmark of the dwmd library and CLI, run from the root of a source tree.

    python3 bench/run.py --workload train-moons --seed 1 --seconds 20 --trace 0

--trace 0 times the workload's operations with no instrumentation and
reports the end-to-end metrics of BENCHMARK.json (set-up time, peak traced
memory, seconds per operation). --trace 1 wraps dwmd's public functions
(see tracing.py), alternates traced and untraced operations, and reports
the per-layer metrics: calls, self time and allocation peaks per function,
plus the tracing overhead. --workload all runs every workload in turn.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give the environment
and each workload's own figures. Spans and the full result are written to
bench/out/. The exit code is 0 when every output check passed, 1 when one
failed, and 2 when the dwmd sources are not found.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import TRACED_NAMES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("train-moons", "metric-bulk", "cli-csv")

MIN_TIMED_OPS = 3
MIN_TRACED_OPS = 2
# Per-layer figures that get an allocation peak, and those reported per
# training step (steps = objective_gradient calls).
PEAK_FUNCTIONS = (
    "discrepancy.dwmd_gradient",
    "discrepancy.cmd_with_gradient",
    "discrepancy.mmd_rbf_with_gradient",
)
PER_STEP_FUNCTIONS = ("moments.validate_samples", "moments.raw_moments", "weighting.weight_profile")
STEP_FUNCTION = "nettrain.objective_gradient"


def pin_blas_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may run on. Must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        limit = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(limit)
    return nproc


def git_sha():
    """Commit of the tree, read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def cache_bytes(level):
    # glibc's _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE, which Python
    # does not name.
    try:
        return os.sysconf({2: 191, 3: 194}[level]) or None
    except (ValueError, OSError):
        return None


def environment(nproc, import_s, workload):
    import numpy as np

    l2, l3 = cache_bytes(2), cache_bytes(3)
    inputs = []
    for name, array in workload.inputs():
        entry = {"name": name, "shape": list(array.shape), "bytes": int(array.nbytes)}
        entry["x_l2"] = array.nbytes / l2 if l2 else None
        entry["x_l3"] = array.nbytes / l3 if l3 else None
        inputs.append(entry)
    return {
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "l2_bytes": l2,
        "l3_bytes": l3,
        "dwmd_import_s": import_s,
        "inputs": inputs,
    }


class Ledger:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def attempt(workload, ledger, label):
    """Run one operation; return its outcome, or None when it raised."""
    try:
        return workload.op()
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        ledger.record(label, [f"raised {type(exc).__name__}: {exc}"])
        return None


def checked(check, *args):
    """The problems check(*args) finds; an exception is one problem."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - a failed check is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return [f"check raised {type(exc).__name__}: {exc}"]


def check_all(workload, ledger, outcomes):
    for label, outcome in outcomes:
        ledger.record(label, checked(workload.check, outcome))
    for name, check in workload.final_checks():
        ledger.record(name, checked(check))


def high_percentile(samples):
    """The guide's tail figure: the highest percentile with at least ten
    samples beyond it, or None with fewer than 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(samples, n=100)[pct - 1]


def closed_loop(prepare, run_op, seconds, minimum):
    """Run prepare() then run_op(i), back to back: at least `minimum` times,
    then while the next round, at the median duration so far, ends within
    `seconds`. Repeating the set-up between operations samples its time
    across the whole run, as the operations are."""
    durations = []
    start = time.perf_counter()
    while len(durations) < minimum or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        prepare()
        run_op(len(durations))
        durations.append(time.perf_counter() - t0)


def run_ops(workload, prepare, seconds, ledger, trace):
    """One operation under the memory tracer (which is also the warm-up),
    then the closed loop. With trace, odd operations run under the span
    tracer and even ones untraced."""
    outcomes = []
    memory = Tracer(memory=True)
    with memory:
        outcome = attempt(workload, ledger, "memory-pass")
    if outcome is not None:
        outcomes.append(("memory-pass", outcome))
    tracer = Tracer()
    timed, traced = [], []

    def run_op(i):
        if trace and i % 2:
            tracer.begin_op(i)
            with tracer:
                outcome = attempt(workload, ledger, f"op{i}")
            if outcome is not None:
                traced.append((i, outcome))
        else:
            outcome = attempt(workload, ledger, f"op{i}")
            if outcome is not None:
                timed.append(outcome)
        if outcome is not None:
            outcomes.append((f"op{i}", outcome))

    closed_loop(prepare, run_op, seconds, 2 * MIN_TRACED_OPS if trace else MIN_TIMED_OPS)
    return outcomes, timed, traced, tracer, memory


def per_layer_metrics(workload, tracer, memory, untraced_s, traced, ledger):
    ops = [op_id for op_id, _ in traced]
    calls = [tracer.calls[op] for op in ops]
    diff = {n: [c[n] for c in calls] for n in TRACED_NAMES if len({c[n] for c in calls}) > 1}
    problems = [f"traced operations disagree on call counts: {diff}"] if diff else []
    ledger.record("call-counts", problems)
    first = calls[0] if calls else {}
    metrics = {}
    for name in TRACED_NAMES:
        self_s = [tracer.self_ns[op][name] / 1e9 for op in ops]
        metrics[f"{name}.calls"] = (first.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (statistics.median(self_s) if self_s else 0.0, "s")
    for name in PEAK_FUNCTIONS:
        metrics[f"{name}.peak_mb"] = (memory.peak_bytes[name] / 1e6, "MB")
    steps = first.get(STEP_FUNCTION, 0)
    for name in PER_STEP_FUNCTIONS:
        metrics[f"{name}.calls_per_step"] = (first.get(name, 0) / steps if steps else 0.0,
                                             "calls/step")
    load_s = metrics["harness.load_csv.self_s"][0]
    csv_mb = workload.csv_bytes_per_op() / 1e6
    metrics["harness.load_csv.mb_per_s"] = (csv_mb / load_s if load_s > 0 else 0.0, "MB/s")
    metrics["harness.run_experiment.failed_seeds"] = (
        sum(o.get("error_rows", 0) for _, o in traced), "count")
    traced_s = statistics.median(o["s"] for _, o in traced) if traced else float("nan")
    metrics["trace_overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics


def run_workload(name, seed, seconds, trace, nproc, import_s, work_dir):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](str(work_dir))
    setup = []

    def prepare():
        t0 = time.perf_counter()
        workload.prepare(seed)
        setup.append(time.perf_counter() - t0)

    prepare()
    ledger = Ledger()
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": environment(nproc, import_s, workload)}
    outcomes, timed, traced, tracer, memory = run_ops(workload, prepare, seconds, ledger, trace)
    peak_mb = memory.root_peak_bytes / 1e6
    check_all(workload, ledger, outcomes)
    op_times = [o["s"] for o in timed]
    op_s = statistics.median(op_times) if op_times else float("nan")
    setup_s = statistics.median(setup)
    if trace:
        metrics = per_layer_metrics(workload, tracer, memory, op_s, traced, ledger)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.csv"
        tracer.write_spans(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {"setup_s": (setup_s, "s"), "peak_mem_mb": (peak_mb, "MB"), "op_s": (op_s, "s")}
    figures = {
        "setup_s": (setup_s, "s"),
        "peak_mem_mb": (peak_mb, "MB"),
        "error_rate": (ledger.failed / ledger.attempted, "ratio"),
    }
    if timed:
        figures.update(workload.details(timed))
    report.update(
        setup_samples_s=setup,
        op_samples_s=op_times,
        op_tail=high_percentile(op_times),
        figures={k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        problems=ledger.problems,
    )
    return ledger, metrics, report


def print_figures(report):
    name = report["workload"]
    times = report["op_samples_s"]
    if times:
        tail = report["op_tail"]
        tail_text = f"p{tail[0]} {tail[1]:.6g} s" if tail else "no tail percentile (n < 20)"
        print(f"{name}: op median {statistics.median(times):.6g} s, {tail_text}, n={len(times)}")
    for key, fig in report["figures"].items():
        print(f"{name:12s} {key:22s} {fig['value']:.6g} {fig['unit']}")
    for problem in report["problems"]:
        print(f"{name}: FAILED {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dwmd" / "__init__.py").is_file():
        print(f"bench: no dwmd sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import dwmd
    import_s = time.perf_counter() - t0
    if Path(dwmd.__file__).resolve().parent != SRC / "dwmd":
        print(f"bench: imported dwmd from {dwmd.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        work_dir = OUT_DIR / f"work-{name}-seed{args.seed}-{os.getpid()}"
        try:
            ledger, wl_metrics, report = run_workload(
                name, args.seed, args.seconds, args.trace, nproc, import_s, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(f"env {name} " + json.dumps(report["env"]))
        print_figures(report)
        with open(OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({**report, "metrics": wl_metrics}, fh, indent=1)
        correct = correct and not ledger.problems
        attempted += ledger.attempted
        failed += ledger.failed
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": v if math.isfinite(v) else None, "unit": u}
                        for k, (v, u) in wl_metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
