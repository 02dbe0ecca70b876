"""Command line entry points.

Subcommands: ``run`` (one replicated experiment), ``sweep`` (a parameter
grid), ``oracle`` (crude Monte Carlo reference), ``tune`` (step-size and
trajectory-length pilot), ``list-benchmarks``.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .benchmarks import benchmark_ids, make_benchmark, resolve_spec
from .errors import (ConfigurationError, EstimationError, InvalidInputError,
                     NumericalError, SusConvergenceError, TuningError)
from .harness import parse_config, run_experiment, sweep
from .hmc import tune_trajectory
from .model import McConfig, crude_monte_carlo
from .pipeline import AstpaConfig, check_sigma
from .target import SmoothedTarget

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _flat_from_args(args):
    """Merge --config file contents with command line overrides."""
    flat = {}
    if args.config:
        with open(args.config) as fh:
            flat.update(json.load(fh))
    given = {"problem": args.problem, "method": args.method,
             "replications": args.replications, "master_seed": args.seed}
    flat.update({k: v for k, v in given.items() if v is not None})
    for item in args.set or []:
        if "=" not in item:
            raise ConfigurationError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        flat[key.strip()] = _parse_literal(raw.strip())
    for key, path in (("csv", args.csv), ("json", args.json_out),
                      ("plot", args.plot_csv)):
        if path:
            flat[f"output.{key}"] = path
    return flat


def _parse_literal(raw):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def cmd_run(args):
    config = parse_config(_flat_from_args(args))
    report = run_experiment(config)
    print(json.dumps(report.summary(), indent=2))
    return 0


def cmd_sweep(args):
    config = parse_config(_flat_from_args(args))
    values = [_parse_literal(v) for v in args.values.split(",")]
    reports, errors = sweep(config, args.param, values)
    for value, rep in reports:
        print(f"{args.param}={value}: {json.dumps(rep.summary())}")
    for err in errors:
        print(f"{args.param}={err['value']}: ERROR {err['error']}",
              file=sys.stderr)
    return 0


def _check_seed(seed):
    # run and sweep check master_seed in RunConfig
    if seed is not None and seed < 0:
        raise ConfigurationError(f"--seed must be an integer >= 0, got {seed}")


def cmd_oracle(args):
    _check_seed(args.seed)
    spec = resolve_spec(args.problem)
    model = make_benchmark(spec)
    est = crude_monte_carlo(model, McConfig(args.n, args.force), args.seed)
    out = {"problem": args.problem, "p_hat": est.p_hat, "n": est.n_samples,
           "cov": est.cov, "seed": args.seed, "p_f_ref": spec.p_f_ref}
    print(json.dumps(out, indent=2))
    return 0


def cmd_tune(args):
    _check_seed(args.seed)
    spec = resolve_spec(args.problem)
    model = make_benchmark(spec)
    sigma = args.sigma if args.sigma is not None \
        else spec.astpa_defaults.get("sigma", AstpaConfig.sigma)
    check_sigma(sigma)
    target = SmoothedTarget(model, sigma=sigma, p=AstpaConfig.p)
    try:
        candidates = [float(v) for v in args.candidates.split(",")]
    except ValueError as exc:
        raise ConfigurationError(f"--candidates: {exc}") from exc
    if not all(math.isfinite(t) and t > 0.0 for t in candidates):
        raise ConfigurationError(
            f"--candidates must be finite and > 0, got {args.candidates!r}")
    if args.pilot_iters < 1:
        raise ConfigurationError(
            f"--pilot-iters must be >= 1, got {args.pilot_iters}")
    tau, eps = tune_trajectory(target, candidates, args.pilot_iters,
                               args.seed or 0)
    print(json.dumps({"problem": args.problem, "tau": tau, "epsilon": eps,
                      "pilot_model_calls": model.call_count}, indent=2))
    return 0


def cmd_list_benchmarks(args):
    for bid in benchmark_ids():
        spec = resolve_spec(bid)
        model = make_benchmark(spec)
        ref = "n/a" if spec.p_f_ref is None else f"{spec.p_f_ref:.3g}"
        params = ", ".join(f"{k}={v}" for k, v in spec.params.items()) or "-"
        print(f"{bid:<10s} d={model.dim:<4d} ref_pf={ref:<10s} "
              f"source={spec.ref_source:<12s} params: {params}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rareprob",
        description="Rare-event failure probability estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # the experiment options that run and sweep share
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--config", help="flat JSON config file")
    experiment.add_argument("--problem")
    experiment.add_argument("--method")
    experiment.add_argument("--replications", type=int)
    experiment.add_argument("--seed", type=int, help="overrides master_seed")
    experiment.add_argument("--set", action="append", metavar="KEY=VALUE",
                            help="override any config key (e.g. method.sigma=0.4)")

    run_p = sub.add_parser("run", parents=[experiment],
                           help="run one replicated experiment")
    run_p.add_argument("--csv", help="per-replication CSV path")
    run_p.add_argument("--json", dest="json_out", help="aggregate JSON path")
    run_p.set_defaults(func=cmd_run, plot_csv=None)

    sweep_p = sub.add_parser("sweep", parents=[experiment],
                             help="grid over one parameter")
    sweep_p.add_argument("--param", required=True,
                         help="dotted key, e.g. problem.beta")
    sweep_p.add_argument("--values", required=True,
                         help="comma separated grid, e.g. 4,5,6,7")
    sweep_p.add_argument("--plot-csv", help="plot-data CSV path")
    sweep_p.set_defaults(func=cmd_sweep, csv=None, json_out=None)

    oracle_p = sub.add_parser("oracle", help="crude Monte Carlo reference")
    oracle_p.add_argument("--problem", required=True)
    oracle_p.add_argument("--n", type=int, required=True)
    oracle_p.add_argument("--seed", type=int, default=0)
    oracle_p.add_argument("--force", action="store_true",
                          help="allow n too small to resolve the reference")
    oracle_p.set_defaults(func=cmd_oracle)

    tune_p = sub.add_parser("tune", help="trajectory/step-size pilot")
    tune_p.add_argument("--problem", required=True)
    tune_p.add_argument("--sigma", type=float)
    tune_p.add_argument("--candidates", default="0.3,0.7,1.0,1.5")
    tune_p.add_argument("--pilot-iters", type=int, default=200)
    tune_p.add_argument("--seed", type=int)
    tune_p.set_defaults(func=cmd_tune)

    list_p = sub.add_parser("list-benchmarks", help="print the registry")
    list_p.set_defaults(func=cmd_list_benchmarks)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, InvalidInputError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, EstimationError, TuningError,
            SusConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
