"""Command-line entry point.

Subcommands:
  discrepancy  compute a metric between two CSV feature files
  train        run a configured experiment and write its report
  sweep        repeat an experiment over a hyperparameter grid
  gen          emit a synthetic dataset as CSV

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import harness
from .discrepancy import DwmdConfig, _check_count, cmd, dwmd, mmd_rbf, smd
from .weighting import C_POLICIES


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="dwmd", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_disc = sub.add_parser("discrepancy", help="metric between two CSV files")
    p_disc.add_argument("--source", required=True)
    p_disc.add_argument("--target", required=True)
    p_disc.add_argument("--metric", choices=["dwmd", "smd", "cmd", "mmd"], default="dwmd")
    p_disc.add_argument("--label-column", default=None, help="drop this column before measuring")
    p_disc.add_argument(
        "--n", type=int, default=5, help="moment truncation order (CMD's order for --metric cmd)"
    )
    p_disc.add_argument("--psi", type=float, default=1.0)
    p_disc.add_argument("--beta", type=float, default=1.0)
    p_disc.add_argument("--c", type=float, default=0.05)
    p_disc.add_argument("--c-policy", choices=C_POLICIES, default="scalar")
    p_disc.add_argument("--alpha", type=float, default=0.1)
    p_disc.add_argument("--standardize", action="store_true")
    p_disc.add_argument("--bandwidth", default="median", help="mmd bandwidth or 'median'")
    p_disc.add_argument("--json", action="store_true", help="full-precision JSON dump")

    p_train = sub.add_parser("train", help="run an experiment from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None, help="override the report directory")

    p_sweep = sub.add_parser("sweep", help="sweep one hyperparameter over values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", choices=["c", "beta", "n", "lam"], required=True)
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated values, e.g. 0.01,0.05,0.1"
    )
    p_sweep.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen", help="emit a synthetic dataset as CSV")
    p_gen.add_argument("--task", choices=["moons", "gaussian_shift"], default="moons")
    p_gen.add_argument("--m", type=int, default=400, help="samples per domain")
    p_gen.add_argument("--rotation", type=float, default=40.0)
    p_gen.add_argument("--noise", type=float, default=0.1)
    p_gen.add_argument("--d", type=int, default=2)
    p_gen.add_argument("--offset", default=None, help="comma-separated per-dimension offsets")
    p_gen.add_argument("--scale", default=None, help="comma-separated per-dimension scales")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_discrepancy(args):
    source, _ = harness.load_csv(args.source, args.label_column)
    target, _ = harness.load_csv(args.target, args.label_column)
    if args.metric in ("dwmd", "smd"):
        # Only the series reads these flags, so only the series checks them.
        config = DwmdConfig(
            n=args.n,
            psi=args.psi,
            beta=args.beta,
            c_policy=args.c_policy,
            c_value=args.c,
            alpha=args.alpha,
            standardize=args.standardize,
        )
        report = (dwmd if args.metric == "dwmd" else smd)(source, target, config)
        bound = report.truncation_bound
        if args.json:
            print(
                json.dumps(
                    {
                        "metric": args.metric,
                        "total": report.total,
                        "per_order_totals": report.per_order_totals.tolist(),
                        "truncation_bound": bound,
                        "tau": report.weight_profile.tau.tolist(),
                        "tau_normalized": report.weight_profile.tau_normalized.tolist(),
                    }
                )
            )
        else:
            print(f"metric {args.metric}")
            print(f"total {report.total:.6g}")
            per_order = " ".join(f"{v:.6g}" for v in report.per_order_totals)
            print(f"per_order_totals {per_order}")
            print(
                "truncation_bound "
                + ("bound-divergent" if bound is None else f"{bound:.6g}")
            )
    else:
        if args.metric == "cmd":
            _check_count("n", args.n)
            value = cmd(source, target, args.n)
        else:
            value = mmd_rbf(source, target, args.bandwidth)
        if args.json:
            print(json.dumps({"metric": args.metric, "total": value}))
        else:
            print(f"metric {args.metric}")
            print(f"total {value:.6g}")
    return 0


def _load_experiment(path):
    with open(path, encoding="utf-8") as fh:
        return harness.experiment_from_dict(json.load(fh))


def _cmd_train(args):
    exp = _load_experiment(args.config)
    out_dir = args.out or exp.outputs
    report = harness.run_experiment(exp)
    harness.write_report(report, out_dir)
    print(f"mean_accuracy {report.mean_accuracy:.6g}")
    print(f"std_accuracy {report.std_accuracy:.6g}")
    print(f"report {out_dir}")
    return 0


def _cmd_sweep(args):
    exp = _load_experiment(args.config)
    reg, policy = exp.cfg.regularizer, exp.cfg.dwmd.c_policy
    if args.param == "lam" and reg != "none":
        section, key = None, "lam"
    elif args.param == "n" and reg == "cmd":
        section, key = None, "cmd_order"
    elif reg in ("dwmd", "smd") and (args.param != "c" or policy == "scalar"):
        section, key = "dwmd", {"c": "c_value", "beta": "beta", "n": "n"}[args.param]
    else:
        where = f"{reg!r} regularizer"
        if reg in ("dwmd", "smd"):
            where += f" with c_policy {policy!r}"
        raise ValueError(f"the {where} does not read --param {args.param}")
    parse = int if args.param == "n" else float
    out_dir = args.out or exp.outputs
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError("no sweep values given")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for raw in values:
        data = harness.experiment_to_dict(exp)
        cfg = data["cfg"]
        (cfg[section] if section else cfg)[key] = parse(raw)
        point = harness.experiment_from_dict(data)
        report = harness.run_experiment(point)
        sub_dir = os.path.join(out_dir, f"{args.param}_{raw}")
        harness.write_report(report, sub_dir)
        rows.append((raw, report.mean_accuracy, report.std_accuracy))
        print(f"{args.param}={raw} mean_accuracy {report.mean_accuracy:.6g}")
    with open(os.path.join(out_dir, "sweep_summary.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write(f"{args.param},mean_accuracy,std_accuracy\n")
        for raw, mean, std in rows:
            fh.write(f"{raw},{mean!r},{std!r}\n")
    return 0


def _parse_vector(text, d, default):
    if text is None:
        return np.full(d, default)
    parts = [float(v) for v in text.split(",")]
    if len(parts) != d:
        raise ValueError(f"expected {d} comma-separated values, got {len(parts)}")
    return np.asarray(parts)


def _cmd_gen(args):
    os.makedirs(args.out, exist_ok=True)
    if args.task == "moons":
        source, y_s, target, y_t = harness.gen_moons(
            args.m, args.rotation, args.noise, args.seed
        )
    else:
        offset = _parse_vector(args.offset, args.d, 0.0)
        scale = _parse_vector(args.scale, args.d, 1.0)
        source, y_s, target, y_t = harness.gen_gaussian_shift(
            args.m, args.d, offset, scale, args.seed
        )
    harness.save_csv(os.path.join(args.out, "source.csv"), source, y_s)
    harness.save_csv(os.path.join(args.out, "target.csv"), target, y_t)
    print(f"wrote {args.out}/source.csv and {args.out}/target.csv")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "discrepancy": _cmd_discrepancy,
        "train": _cmd_train,
        "sweep": _cmd_sweep,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"dwmd: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"dwmd: error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
