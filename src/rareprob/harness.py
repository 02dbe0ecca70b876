"""Replicated experiments: configuration, deterministic seeding, aggregation
and report emission.

A run configuration names a benchmark (or registered user problem), a
method, and method parameters; every replication gets an independent seed
derived by a counter-based split of the master seed, so results do not
depend on scheduling or worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .benchmarks import make_benchmark, resolve_spec
from .errors import ConfigurationError, RareprobError
from .model import BenchmarkSpec, McConfig, check_resolvable, crude_monte_carlo
from .pipeline import METHODS as ASTPA_METHODS, AstpaConfig, run_astpa
from .sus import SusConfig, subset_simulation

SUS_METHODS = ("sus-uniform", "sus-normal")
METHODS = ASTPA_METHODS + SUS_METHODS + ("crude-mc",)

_TOP_KEYS = {"problem", "method", "replications", "master_seed", "n_jobs"}
_OUTPUT_KEYS = {"csv", "json", "plot"}


@dataclass
class RunConfig:
    problem: str
    method: str
    problem_params: dict = field(default_factory=dict)
    method_params: dict = field(default_factory=dict)
    replications: int = 100
    master_seed: int = 0
    outputs: dict = field(default_factory=dict)
    n_jobs: int = 1
    spec: BenchmarkSpec = field(init=False, repr=False, compare=False)
    method_config: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; one of {METHODS}")
        for name, low in (("replications", 0), ("master_seed", 0), ("n_jobs", 1)):
            value = getattr(self, name)          # an int, not a bool
            if type(value) is not int or value < low:
                raise ConfigurationError(
                    f"{name} must be an integer >= {low}, got {value!r}")
        for key, path in self.outputs.items():
            if key not in _OUTPUT_KEYS:
                raise ConfigurationError(f"unknown output key {key!r}")
            _check_output_path(f"output.{key}", path)
        # validates the problem and method values once, before any replication
        self.spec = resolve_spec(self.problem, **self.problem_params)
        self.method_config = _method_config(self.method, self.spec, self.method_params)

    def to_dict(self):
        flat = {"problem": self.problem, "method": self.method,
                "replications": self.replications,
                "master_seed": self.master_seed, "n_jobs": self.n_jobs}
        flat.update({f"problem.{k}": v for k, v in self.problem_params.items()})
        flat.update({f"method.{k}": v for k, v in self.method_params.items()})
        flat.update({f"output.{k}": v for k, v in self.outputs.items()})
        return flat


def _check_output_path(what, path):
    """Fail before any replication on a report path that cannot be written:
    a directory, or a file whose directory is missing or read-only.  The
    file itself is created only when the report is written."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(parent):
        reason = f"directory {parent!r} does not exist"
    elif not os.access(parent, os.W_OK) or (os.path.exists(path)
                                            and not os.access(path, os.W_OK)):
        reason = "not writable"
    else:
        return
    raise ConfigurationError(f"cannot write {what} {path!r}: {reason}")


def _method_config(method, spec, params):
    """The method's Astpa, Sus or Mc config: registry defaults, overrides on top."""
    fixed = {}                    # what the method name sets: the SuS proposal
    if method in ASTPA_METHODS:
        cls, defaults = AstpaConfig, spec.astpa_defaults
    elif method in SUS_METHODS:
        cls, defaults = SusConfig, spec.sus_defaults
        fixed = {"proposal": method.split("-", 1)[1]}
    else:
        cls, defaults = McConfig, {}
    for key in params:            # the settable keys are the config's fields
        if key in fixed or key not in {f.name for f in fields(cls)}:
            raise ConfigurationError(f"unknown method key {key!r} for {method}")
    try:
        config = cls(**{**defaults, **params, **fixed})
    except TypeError as exc:      # a value of the wrong type, e.g. a string
        raise ConfigurationError(f"bad {method} setting: {exc}") from exc
    if cls is McConfig:
        check_resolvable(spec.p_f_ref, config)
    return config


def parse_config(flat):
    """Build a RunConfig from a flat mapping with dotted section keys.

    Unknown keys are rejected outright so typos cannot silently fall back
    to defaults.
    """
    problem_params, method_params, outputs, top = {}, {}, {}, {}
    for key, value in flat.items():
        if key in _TOP_KEYS:
            top[key] = value
        elif key.startswith("problem."):
            problem_params[key[len("problem."):]] = value
        elif key.startswith("method."):
            method_params[key[len("method."):]] = value
        elif key.startswith("output."):
            outputs[key[len("output."):]] = value
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    if "problem" not in top or "method" not in top:
        raise ConfigurationError("config requires 'problem' and 'method'")
    return RunConfig(
        problem=top["problem"], method=top["method"],
        problem_params=problem_params, method_params=method_params,
        replications=top.get("replications", 100),
        master_seed=top.get("master_seed", 0),
        outputs=outputs, n_jobs=top.get("n_jobs", 1))


def replication_seed(master_seed, rep):
    """Counter-based split: a 63-bit seed that is a pure function of
    (master_seed, replication index)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(rep,))
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


@dataclass
class AggregateReport:
    """Replication rows plus derived summary statistics."""

    config: RunConfig
    rows: list
    failures: list = field(default_factory=list)
    p_f_ref: float | None = None

    @property
    def n_success(self):
        return len(self.rows)

    @property
    def mean_pf(self):
        if not self.rows:
            return None
        return float(np.mean([r["pf_hat"] for r in self.rows]))

    @property
    def empirical_cov(self):
        """Spread of the replication estimates: std / mean."""
        if len(self.rows) < 2:
            return 0.0 if self.rows else None
        vals = np.array([r["pf_hat"] for r in self.rows])
        mean = vals.mean()
        if mean == 0:
            return None
        return float(vals.std(ddof=1) / mean)

    @property
    def mean_model_calls(self):
        if not self.rows:
            return None
        return float(np.mean([r["model_calls"] for r in self.rows]))

    @property
    def mean_analytic_cov(self):
        vals = [r["cov_analytic"] for r in self.rows
                if r.get("cov_analytic") is not None]
        return float(np.mean(vals)) if vals else None

    @property
    def eff(self):
        """Unit coefficient of variation: cov * sqrt(mean model calls)."""
        cov = self.empirical_cov
        calls = self.mean_model_calls
        if cov is None or calls is None:
            return None
        return cov * math.sqrt(calls)

    def summary(self):
        return {
            "mean_pf": self.mean_pf,
            "empirical_cov": self.empirical_cov,
            "mean_model_calls": self.mean_model_calls,
            "mean_analytic_cov": self.mean_analytic_cov,
            "eff": self.eff,
            "n_replications": self.n_success,
            "n_failures": len(self.failures),
            "p_f_ref": self.p_f_ref,
        }


def run_replication(config, rep):
    """One fully independent estimation; returns a report row."""
    seed = replication_seed(config.master_seed, rep)
    model = make_benchmark(config.spec)
    t0 = time.perf_counter()

    if config.method in ASTPA_METHODS:
        report, _ = run_astpa(model, config.method_config, seed,
                              method=config.method)
        row = {"rep": rep, "seed": seed, "pf_hat": report.p_hat,
               "model_calls": report.model_calls,
               "cov_analytic": report.cov_analytic,
               "accept_rate": report.accept_rate}
    elif config.method in SUS_METHODS:
        result = subset_simulation(model, config.method_config, seed)
        row = {"rep": rep, "seed": seed, "pf_hat": result.p_hat,
               "model_calls": result.model_calls,
               "cov_analytic": None, "accept_rate": None}
    else:  # crude-mc
        est = crude_monte_carlo(model, config.method_config, seed)
        row = {"rep": rep, "seed": seed, "pf_hat": est.p_hat,
               "model_calls": est.n_samples, "cov_analytic": est.cov,
               "accept_rate": None}
    row["wall_ms"] = (time.perf_counter() - t0) * 1e3
    return row


def _replication_worker(args):
    config, rep = args
    try:
        return rep, run_replication(config, rep), None
    except Exception as exc:   # one bad replication never stops the experiment
        return rep, None, f"{type(exc).__name__}: {exc}"


def _refuse_unwritten_outputs(config, written, command):
    """An output key the command does not write is an error, never ignored."""
    if unwritten := sorted(config.outputs.keys() - written):
        raise ConfigurationError(f"{command} does not write output.{unwritten[0]}")


def run_experiment(config):
    """Run all replications and aggregate; deterministic given the config."""
    _refuse_unwritten_outputs(config, {"csv", "json"}, "run")
    jobs = [(config, rep) for rep in range(config.replications)]
    if config.n_jobs > 1 and len(jobs) > 1:
        # deferred: importing the process pool costs a serial run ~20 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.n_jobs) as pool:
            results = list(pool.map(_replication_worker, jobs, chunksize=1))
    else:
        results = [_replication_worker(job) for job in jobs]
    results.sort(key=lambda item: item[0])

    rows, failures = [], []
    for rep, row, error in results:
        if error is None:
            rows.append(row)
        else:
            failures.append({"rep": rep, "error": error})
    report = AggregateReport(config=config, rows=rows, failures=failures,
                             p_f_ref=config.spec.p_f_ref)
    emit_reports(report, config.outputs)
    return report


CSV_HEADER = ["rep", "seed", "pf_hat", "model_calls", "cov_analytic",
              "accept_rate", "wall_ms"]


def emit_reports(report, paths):
    """Write the per-replication CSV and the aggregate JSON."""
    if not paths:
        return
    csv_path = paths.get("csv")
    if csv_path:
        _write_csv(csv_path, CSV_HEADER,
                   ([_csv_cell(row[k]) for k in CSV_HEADER] for row in report.rows))
    json_path = paths.get("json")
    if json_path:
        payload = {
            "aggregate": report.summary(),
            "config": report.config.to_dict(),
            "failures": report.failures,
            "version": __version__,
        }
        try:
            with open(json_path, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ConfigurationError(f"cannot write JSON {json_path!r}: {exc}") from exc


def _write_csv(path, header, rows):
    """Write a header and rows; a path that cannot be written is a
    configuration error."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigurationError(f"cannot write CSV {path!r}: {exc}") from exc


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def sweep(config, param, values):
    """One experiment per grid value of a problem or method parameter.

    ``param`` uses the dotted config form (e.g. ``problem.beta``).  A failing
    grid point is recorded and the sweep continues.  The plot-data CSV goes
    to ``output.plot`` when the config sets it.
    """
    if not values:
        raise ConfigurationError("sweep grid is empty")
    _refuse_unwritten_outputs(config, {"plot"}, "sweep")
    plot_path = config.outputs.get("plot")
    reports = []
    errors = []
    for value in values:
        flat = config.to_dict()
        flat.pop("output.plot", None)
        flat[param] = value
        try:
            point = parse_config(flat)
            reports.append((value, run_experiment(point)))
        except RareprobError as exc:
            errors.append({"value": value, "error": f"{type(exc).__name__}: {exc}"})
    if plot_path:
        columns = ("mean_pf", "empirical_cov", "mean_model_calls", "eff")
        _write_csv(plot_path, [param, *columns],
                   ([value] + [_csv_cell(getattr(rep, c)) for c in columns]
                    for value, rep in reports))
    return reports, errors
