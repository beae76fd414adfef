"""Command-line interface: norm computation, oracle sweeps, and the delay
scaling benchmark."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .errors import LinfNormError, ParseError
from .greedy import CONVERGED, RunConfig, default_interval, run
from .inner import InnerConfig
from .oracle import grid_norm, sweep_csv
from .problems import _number, load_problem, make_delay_fixture

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNINGS = 2

#: defaults matching the published delay benchmark setup
DELAY_OMEGA_MAX = 50.0
DELAY_GAMMA = -100.0

#: the manifest config keys that `norm` reads; any other key is an error
MANIFEST_CONFIG_KEYS = {"omega_max", "interval", "gamma", "max_inner_iters",
                        "r0", "eps", "r_max"}


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


def _run_config_from(tf, config: dict, args) -> RunConfig:
    """Command-line values over manifest values; RunConfig and InnerConfig
    default the rest, and default_interval the interval for tf.  An unknown
    manifest key, or a value of the wrong type, raises ParseError naming
    it."""
    def integer(value):
        return _number(value) and isinstance(value, int)

    def pair(value):
        return (isinstance(value, list) and len(value) == 2
                and all(map(_number, value)))

    def pick(cli_val, key, valid, what):
        if cli_val is not None:
            return cli_val
        value = config.get(key)
        if key in config and not valid(value):
            raise ParseError(
                f"manifest config {key!r} must be {what}, got {value!r}")
        return value

    def given(**settings):
        return {k: v for k, v in settings.items() if v is not None}

    for key in config:
        if key not in MANIFEST_CONFIG_KEYS:
            raise ParseError(f"unknown manifest config key {key!r}")
    if args.omega_max is None and config.get("omega_max") is None:
        raise LinfNormError(
            "omega_max is required (set --omega-max or the manifest config)")
    omega_max = float(pick(args.omega_max, "omega_max", _number, "a number"))
    interval = pick(args.interval, "interval", pair, "a list of two numbers")
    inner = InnerConfig(
        interval=tuple(float(x) for x in
                       interval or default_interval(tf, omega_max)),
        **given(curvature_bound=pick(args.gamma, "gamma", _number, "a number"),
                max_inner_iters=pick(args.max_inner_iters, "max_inner_iters",
                                     integer, "an integer")))
    return RunConfig(omega_max=omega_max, inner=inner, **given(
        r0=pick(args.r0, "r0", integer, "an integer"),
        eps=pick(args.eps, "eps", _number, "a number"),
        r_max=pick(args.rmax, "r_max", integer, "an integer")))


def _cmd_norm(args) -> int:
    tf, config = load_problem(args.manifest)
    cfg = _run_config_from(tf, config, args)
    result = run(tf, cfg)
    report = result.to_dict()
    text = json.dumps(report, indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK if result.stop_reason == CONVERGED else EXIT_WARNINGS


def _cmd_oracle(args) -> int:
    tf, _ = load_problem(args.manifest)
    interval = tuple(args.interval)
    result = grid_norm(tf, interval, args.npoints, refine_tol=args.refine_tol)
    if args.csv:
        sweep_csv(result.grid, args.csv)
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
            inner=InnerConfig(interval=default_interval(tf, omega_max),
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


def _write_bench_csv(fh, rows) -> None:
    """The bench_delay rows as CSV under a header line."""
    writer = csv.DictWriter(
        fh, fieldnames=["n", "norm", "omega", "seconds", "iterations"])
    writer.writeheader()
    writer.writerows(rows)


def _cmd_bench(args) -> int:
    rows = bench_delay(args.n, r0=args.r0, omega_max=args.omega_max,
                       gamma=args.gamma, max_inner_iters=args.max_inner_iters)
    _write_bench_csv(sys.stdout, rows)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            _write_bench_csv(fh, rows)
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
    except (LinfNormError, ValueError) as err:
        # ValueError: an option out of range for the problem or settings
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
