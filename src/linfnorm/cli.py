"""Command-line interface: norm computation, oracle sweeps, and the delay
scaling benchmark."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .errors import LinfNormError
from .greedy import DOMINANT, FULL, KEEP_ALL, LAST_TWO, RunConfig, run
from .inner import InnerConfig
from .oracle import grid_norm, sweep_csv
from .problems import load_problem, make_delay_fixture

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNINGS = 2

#: defaults matching the published delay benchmark setup
DELAY_OMEGA_MAX = 50.0
DELAY_GAMMA = -100.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linfnorm",
        description="L-infinity norm of structured transfer functions "
                    "via greedy subspace projection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="solve a manifest problem")
    p_norm.add_argument("manifest")
    p_norm.add_argument("--r0", type=int, default=None)
    p_norm.add_argument("--omega-max", type=float, default=None)
    p_norm.add_argument("--eps", type=float, default=None)
    p_norm.add_argument("--rmax", type=int, default=None)
    p_norm.add_argument("--mode", choices=[FULL, DOMINANT], default=None)
    p_norm.add_argument("--policy", choices=[KEEP_ALL, LAST_TWO], default=None)
    p_norm.add_argument("--gamma", type=float, default=None)
    p_norm.add_argument("--interval", nargs=2, type=float, metavar=("LO", "HI"),
                        default=None)
    p_norm.add_argument("--max-inner-iters", type=int, default=None)
    p_norm.add_argument("--report", default=None,
                        help="write the JSON report to this path")

    p_oracle = sub.add_parser("oracle", help="brute-force frequency sweep")
    p_oracle.add_argument("manifest")
    p_oracle.add_argument("--interval", nargs=2, type=float,
                          metavar=("LO", "HI"), required=True)
    p_oracle.add_argument("--npoints", type=int, required=True)
    p_oracle.add_argument("--refine-tol", type=float, default=1e-9)
    p_oracle.add_argument("--csv", default=None,
                          help="also write the full omega,sigma sweep here")

    p_bench = sub.add_parser("bench", help="built-in scaling benchmarks")
    bench_sub = p_bench.add_subparsers(dest="bench_name", required=True)
    p_delay = bench_sub.add_parser("delay", help="single-delay system family")
    p_delay.add_argument("--n", type=int, nargs="+", required=True)
    p_delay.add_argument("--r0", type=int, default=10)
    p_delay.add_argument("--omega-max", type=float, default=DELAY_OMEGA_MAX)
    p_delay.add_argument("--gamma", type=float, default=DELAY_GAMMA)
    p_delay.add_argument("--max-inner-iters", type=int, default=200)
    p_delay.add_argument("--csv", default=None)
    return parser


def _run_config_from(config: dict, args) -> RunConfig:
    """Merge manifest defaults with command-line overrides."""
    def pick(cli_val, key, fallback):
        if cli_val is not None:
            return cli_val
        return config.get(key, fallback)

    omega_max = pick(args.omega_max, "omega_max", None)
    if omega_max is None:
        raise LinfNormError(
            "omega_max is required (set --omega-max or the manifest config)")
    interval = pick(list(args.interval) if args.interval else None,
                    "interval", [0.0, omega_max])
    inner = InnerConfig(
        interval=tuple(float(x) for x in interval),
        curvature_bound=pick(args.gamma, "gamma", -100.0),
        max_inner_iters=pick(args.max_inner_iters, "max_inner_iters", 200),
    )
    return RunConfig(
        omega_max=float(omega_max),
        r0=int(pick(args.r0, "r0", 10)),
        eps=float(pick(args.eps, "eps", 1e-6)),
        r_max=int(pick(args.rmax, "r_max", 30)),
        expansion_mode=pick(args.mode, "expansion_mode", FULL),
        subspace_policy=pick(args.policy, "subspace_policy", KEEP_ALL),
        inner=inner,
    )


def _cmd_norm(args) -> int:
    tf, config = load_problem(args.manifest)
    cfg = _run_config_from(config, args)
    result = run(tf, cfg)
    report = result.to_dict()
    text = json.dumps(report, indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK if result.converged else EXIT_WARNINGS


def _cmd_oracle(args) -> int:
    tf, _ = load_problem(args.manifest)
    interval = tuple(args.interval)
    result = grid_norm(tf, interval, args.npoints, refine_tol=args.refine_tol)
    if args.csv:
        sweep_csv(tf, interval, args.npoints, args.csv)
    print(json.dumps({
        "norm": result.best_sigma,
        "omega_opt": result.best_omega,
        "refinement_iters": result.refinement_iters,
        "skipped": result.skipped,
    }, indent=2))
    return EXIT_OK


def bench_delay(sizes, r0=10, omega_max=DELAY_OMEGA_MAX, gamma=DELAY_GAMMA,
                max_inner_iters=200):
    """Solves the delay family for each order; yields per-size rows."""
    rows = []
    for n in sizes:
        tf = make_delay_fixture(n)
        cfg = RunConfig(
            omega_max=omega_max, r0=r0,
            inner=InnerConfig(interval=(0.0, omega_max),
                              curvature_bound=gamma,
                              max_inner_iters=max_inner_iters))
        t0 = time.perf_counter()
        result = run(tf, cfg)
        rows.append({
            "n": n,
            "norm": result.norm,
            "omega": result.omega_opt,
            "seconds": time.perf_counter() - t0,
            "iterations": result.iterations,
        })
    return rows


def _cmd_bench(args) -> int:
    rows = bench_delay(args.n, r0=args.r0, omega_max=args.omega_max,
                       gamma=args.gamma, max_inner_iters=args.max_inner_iters)
    fieldnames = ["n", "norm", "omega", "seconds", "iterations"]
    writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=fieldnames)
            w.writeheader()
            for row in rows:
                w.writerow(row)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_ERROR if err.code else EXIT_OK
    try:
        if args.command == "norm":
            return _cmd_norm(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_bench(args)
    except LinfNormError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
