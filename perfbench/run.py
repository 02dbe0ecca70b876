#!/usr/bin/env python3
"""rareprob benchmark: replicated estimation runs through the public harness.

Usage, from the repository root:

    python3 perfbench/run.py --workload qnp-2d-bimodal --seed 1 --seconds 30 --trace 0

Each workload is one benchmark problem and one method with the registry
defaults (see ``workloads.json``).  ``--seed`` is the harness master seed;
replications 0, 1, 2, ... of that seed are run one at a time through
``rareprob.harness.run_replication`` until ``--seconds`` have passed, and
the rows are aggregated with ``rareprob.harness.AggregateReport``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
replication twice, untraced and traced (order alternating), and prints the
per-layer metrics from spans taken by wrappers around public functions
(``spans.py``); the untraced code path is left untouched.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when a correctness check fails or the rareprob sources are missing.
"""

import os

# one BLAS/OpenMP thread: the workloads are many small linear-algebra calls
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WARMUP_REP = 10 ** 9          # replication index outside every timed set
SETUP_SAMPLES = 5             # set-up is timed this many times per run
PF_SANITY_FACTOR = 3.0        # mean p_hat must lie within this factor of p_f_ref

sys.dont_write_bytecode = True

# the traced time segments that together make up one replication
QNP_PARTS = ("pipeline.burnin.share", "pipeline.calibration.share", "pipeline.main.share",
             "iis.fit.share", "iis.estimator.share", "harness.overhead.share")
SUS_PARTS = ("model.evaluate_batch.share", "sus.bookkeeping.share", "harness.overhead.share")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def setup(workload):
    """Import the package and build the spec, model and run configuration."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import rareprob
    import rareprob.harness as harness
    spec = rareprob.resolve_spec(workload["problem"])
    rareprob.make_benchmark(spec)
    config = harness.RunConfig(problem=workload["problem"], method=workload["method"],
                               replications=0, n_jobs=1)
    return rareprob, spec, config, time.perf_counter() - t0


def setup_seconds(workload_name, first_sample):
    """Median set-up time over this process and fresh interpreter probes."""
    samples = [first_sample]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name],
            capture_output=True, text=True, env=env, timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def environment(rareprob):
    import numpy as np
    import scipy
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "rareprob": rareprob.__version__,
           "nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            env["cpu"] = models[0]
    except OSError:
        pass
    env["git_commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():   # never report the commit of an enclosing repository
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rareprob").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    env["blas_threads"] = os.environ["OPENBLAS_NUM_THREADS"]
    return env


class Replications:
    """Timed replications of one master seed, with any failure recorded."""

    def __init__(self, harness, config, fault=None):
        self.harness = harness
        self.config = config
        self.fault = fault
        self.rows, self.failures, self.walls = [], [], []

    def run(self, rep):
        t0 = time.perf_counter()
        try:
            if self.fault == "raise" and rep == 1:
                raise RuntimeError("injected replication fault")
            row = self.harness.run_replication(self.config, rep)
        except Exception as exc:  # one bad replication must not stop the run
            wall = time.perf_counter() - t0
            self.failures.append({"rep": rep, "error": f"{type(exc).__name__}: {exc}",
                                  "where": traceback.format_exc(limit=-1).strip()})
            self.walls.append(wall)
            return
        wall = time.perf_counter() - t0
        row["bench_wall_s"] = wall
        self.rows.append(row)
        self.walls.append(wall)

    @property
    def attempted(self):
        return len(self.walls)


def keep_going(start, seconds, done, max_reps):
    if max_reps:
        return done < max_reps
    return done < 2 or time.perf_counter() - start < seconds


def end_to_end(reps, workload, setup_s):
    walls = reps.walls
    pct = workload["tail_pct"]
    tail = statistics.quantiles(walls, n=100, method="inclusive")[pct - 1] \
        if len(walls) > 1 else walls[0]
    calls = sum(r["model_calls"] for r in reps.rows)
    row_wall = sum(r["bench_wall_s"] for r in reps.rows)
    return {
        "rep_wall_s.p50": statistics.median(walls),
        "rep_wall_s.tail": tail,
        "us_per_call": row_wall / calls * 1e6 if calls else 0.0,
        "model_calls_per_rep": calls / len(reps.rows) if reps.rows else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def accuracy(harness, reps, spec, bad):
    """Accuracy from AggregateReport; rows failing a check count as failed."""
    rows = [r for r in reps.rows if r["rep"] not in bad]
    agg = harness.AggregateReport(config=reps.config, rows=rows,
                                  failures=reps.failures, p_f_ref=spec.p_f_ref)
    out = {"eff": agg.eff or 0.0,
           "abs_rel_bias": abs(agg.mean_pf / spec.p_f_ref - 1.0) if rows else 0.0,
           "cov_calib_err": 0.0,
           "rep_fail_frac": (len(reps.failures) + len(bad)) / reps.attempted}
    if agg.mean_analytic_cov and agg.empirical_cov:
        out["cov_calib_err"] = abs(math.log(agg.mean_analytic_cov / agg.empirical_cov))
    return out, agg.summary()


def check_rows(reps, spec):
    """Finite positive p_hat for every replication, and a sane mean."""
    checks = {}
    bad = [r["rep"] for r in reps.rows
           if not (math.isfinite(r["pf_hat"]) and r["pf_hat"] > 0.0)]
    checks["finite_positive_p_hat"] = {"ok": not bad, "bad_reps": bad}
    good = [r["pf_hat"] for r in reps.rows if r["rep"] not in bad]
    if good and spec.p_f_ref:
        ratio = statistics.fmean(good) / spec.p_f_ref
        ok = 1.0 / PF_SANITY_FACTOR < ratio < PF_SANITY_FACTOR
    else:
        ratio, ok = None, False
    checks["mean_p_hat_within_factor_3_of_ref"] = {"ok": ok, "ratio": ratio}
    return checks, set(bad)


def check_repeatable(harness, config, rows):
    """Re-running the first replication gives a bit-identical estimate."""
    if not rows:
        return {"ok": False, "reason": "no successful replication"}
    first = rows[0]
    again = harness.run_replication(config, first["rep"])
    ok = (again["pf_hat"] == first["pf_hat"]
          and again["model_calls"] == first["model_calls"])
    return {"ok": ok, "rep": first["rep"], "p_hat": first["pf_hat"],
            "p_hat_again": again["pf_hat"]}


def run_untraced(harness, config, seconds, max_reps, fault):
    reps = Replications(harness, config, fault)
    start = time.perf_counter()
    rep = 0
    while keep_going(start, seconds, rep, max_reps):
        reps.run(rep)
        rep += 1
    return reps


def run_traced(rareprob, harness, config, seconds, max_reps, fault):
    """Every replication untraced and traced, in alternating order."""
    import spans

    plain = Replications(harness, config, fault)
    traced = Replications(harness, config, fault)
    rec = spans.Recorder()
    start = time.perf_counter()
    rep = 0
    while keep_going(start, seconds, rep, max_reps):
        order = (False, True) if rep % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                plain.run(rep)
                continue
            rec.current_rep = rep
            with spans.installed(rec, rareprob), rec.span("replication"):
                traced.run(rep)
        rep += 1
    return plain, traced, rec


def format_table(metrics, units):
    width = max(len(k) for k in metrics)
    return "\n".join(f"  {k:<{width}}  {v:>14.6g} {units.get(k, '')}"
                     for k, v in metrics.items())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=0,
                        help="run exactly this many replications instead of --seconds")
    parser.add_argument("--fault", choices=("nan", "raise"),
                        help="checker self-test: corrupt the first p_hat, or make "
                             "replication 1 raise")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rareprob" / "__init__.py").is_file():
        print(f"rareprob sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = load_json(HERE / "workloads.json")["workloads"]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    rareprob, spec, config, first_setup = setup(workload)
    if args.setup_probe:
        print(repr(first_setup))
        return 0
    import rareprob.harness as harness
    if args.trace:
        import spans

    config.master_seed = args.seed
    setup_s, setup_samples = setup_seconds(args.workload, first_setup)
    harness.run_replication(config, WARMUP_REP)    # untimed warm-up

    if args.trace:
        reps, traced, rec = run_traced(rareprob, harness, config, args.seconds,
                                       args.reps, args.fault)
    else:
        reps = run_untraced(harness, config, args.seconds, args.reps, args.fault)
    if args.fault == "nan" and reps.rows:
        reps.rows[0]["pf_hat"] = math.nan

    checks, bad = check_rows(reps, spec)
    if not args.trace:   # the traced run repeats every replication anyway
        checks["repeatable_p_hat"] = check_repeatable(harness, config, reps.rows)
    acc, summary = accuracy(harness, reps, spec, bad)
    e2e = end_to_end(reps, workload, setup_s)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "problem": spec.benchmark_id, "method": config.method,
              "p_f_ref": spec.p_f_ref, "ref_source": spec.ref_source,
              "effective_defaults": (spec.sus_defaults if config.method.startswith("sus")
                                     else spec.astpa_defaults),
              "tail_percentile": workload["tail_pct"],
              "replications": reps.attempted, "failures": reps.failures,
              "rep_walls_s": reps.walls,
              "setup_samples_s": setup_samples, "aggregate": summary,
              "env": environment(rareprob)}
    if args.trace:
        budget = spec.astpa_defaults.get("budget")
        layers, violations = spans.layer_metrics(
            rec, budget, sum(r["bench_wall_s"] for r in reps.rows),
            sum(r["bench_wall_s"] for r in traced.rows))
        checks["zero_model_calls_in_iis"] = {"ok": violations == 0,
                                             "model_calls_inside": violations}
        same = [a["pf_hat"] == b["pf_hat"] and a["model_calls"] == b["model_calls"]
                for a, b in zip(reps.rows, traced.rows)]
        checks["repeatable_p_hat"] = {
            "ok": len(reps.rows) == len(traced.rows) and all(same),
            "how": "each replication run untraced and traced"}
        parts = SUS_PARTS if config.method.startswith("sus") else QNP_PARTS
        share_sum = sum(layers[k] for k in parts)
        checks["shares_cover_wall"] = {
            "ok": abs(1.0 - share_sum) <= max(abs(layers["trace.overhead_frac"]), 0.02),
            "parts": parts, "sum": share_sum}
        layers.update(acc)
        metrics = {m["name"]: layers[m["name"]] for m in bench["per_layer"]}
        OUT.mkdir(exist_ok=True)
        rec.save(OUT / f"{args.workload}.spans.npz")
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}

    correct = all(c["ok"] for c in checks.values())
    result.update({"correct": correct, "checks": checks, "end_to_end": e2e,
                   "accuracy": acc, "metrics": metrics})
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
        fh.write("\n")

    print(f"workload {args.workload}: {spec.benchmark_id} / {config.method}, "
          f"master_seed {args.seed}, {reps.attempted} replications, "
          f"p_f_ref {spec.p_f_ref:g} ({spec.ref_source})")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"end-to-end (rep_wall_s.tail is p{workload['tail_pct']}):")
    print(format_table({**e2e, **acc}, units))
    if args.trace:
        print(f"per-layer ({len(traced.rows)} traced replications):")
        print(format_table(metrics, units))
        print(f"  {' + '.join(checks['shares_cover_wall']['parts'])} = "
              f"{checks['shares_cover_wall']['sum']:.4f}")
    for name, check in checks.items():
        print(f"check {name}: {'ok' if check['ok'] else 'FAILED'}")
    print(json.dumps({
        "correct": correct, "attempted": reps.attempted,
        "failed": len(reps.failures) + len(bad),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
