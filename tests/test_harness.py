import csv
import json
import math

import numpy as np
import pytest

import rareprob
from rareprob import (ConfigurationError, RunConfig, benchmark_ids,
                      parse_config, run_experiment, sweep)
from rareprob.harness import CSV_HEADER, emit_reports, replication_seed


@pytest.fixture(scope="module")
def always_fail_id():
    name = "harness-always-fails"
    if name not in benchmark_ids():
        rareprob.register_model(
            name, 2, lambda th: (-1.0, np.zeros(2)),
            batch_value=lambda ths: np.full(ths.shape[0], -1.0), p_f_ref=1.0)
    return name


def qnp_config(tmp_path=None, **kw):
    flat = {
        "problem": "example1",
        "method": "qnp-hmcmc",
        "method.n_burnin": 40,
        "method.budget": 300,
        "replications": 3,
        "master_seed": 123,
    }
    flat.update(kw)
    if tmp_path is not None:
        flat["output.csv"] = str(tmp_path / "rows.csv")
        flat["output.json"] = str(tmp_path / "agg.json")
    return parse_config(flat)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_parse_config_dotted_keys():
    config = parse_config({
        "problem": "example6", "problem.beta": 5, "problem.d": 50,
        "method": "qnp-hmcmc", "method.sigma": 0.3, "method.budget": 1000,
        "replications": 2, "master_seed": 9, "output.csv": "x.csv",
    })
    assert config.problem_params == {"beta": 5, "d": 50}
    assert config.method_params["sigma"] == 0.3
    assert config.outputs == {"csv": "x.csv"}


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        parse_config({"problem": "example1", "method": "hmcmc",
                      "bogus": 1})
    for key in ("method.sigm", "method.gmm_dim_limit", "method.k_max",
                "method.epsilon", "method.n_iter", "method.target_accept",
                "method.max_delta_h", "method.max_leapfrog_steps"):
        with pytest.raises(ConfigurationError, match="unknown method key"):
            parse_config({"problem": "example1", "method": "hmcmc", key: 0.4})
    with pytest.raises(ConfigurationError, match="no parameter"):
        parse_config({"problem": "example1", "method": "hmcmc",
                      "problem.beta": 4})
    with pytest.raises(ConfigurationError):
        parse_config({"problem": "example1"})
    with pytest.raises(ConfigurationError, match="unknown method"):
        RunConfig(problem="example1", method="form")


def test_replication_seed_is_pure_function():
    assert replication_seed(5, 3) == replication_seed(5, 3)
    seeds = {replication_seed(5, i) for i in range(100)}
    assert len(seeds) == 100
    assert replication_seed(6, 3) != replication_seed(5, 3)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_crude_mc_degenerate_run(always_fail_id):
    config = parse_config({
        "problem": always_fail_id, "method": "crude-mc", "method.n": 100,
        "replications": 1, "master_seed": 0,
    })
    report = run_experiment(config)
    assert report.mean_pf == 1.0
    assert report.eff == 0.0
    assert report.empirical_cov == 0.0


def test_run_experiment_deterministic_and_csv_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir(); out2.mkdir()
    r1 = run_experiment(qnp_config(out1))
    r2 = run_experiment(qnp_config(out2))

    def result_columns(path):
        # every column except the trailing wall-clock one is reproducible
        return [line.rsplit(",", 1)[0]
                for line in path.read_text().splitlines()]

    assert result_columns(out1 / "rows.csv") == result_columns(out2 / "rows.csv")
    assert r1.mean_pf == r2.mean_pf
    payload = json.loads((out1 / "agg.json").read_text())
    assert payload["aggregate"]["mean_pf"] == r1.mean_pf
    assert payload["config"]["problem"] == "example1"
    assert "version" in payload


def test_parallel_matches_serial(tmp_path):
    serial = run_experiment(qnp_config(None))
    parallel = run_experiment(qnp_config(None, n_jobs=2))
    assert [r["pf_hat"] for r in serial.rows] == \
        [r["pf_hat"] for r in parallel.rows]


def test_csv_row_count(tmp_path):
    config = qnp_config(tmp_path)
    run_experiment(config)
    lines = (tmp_path / "rows.csv").read_text().strip().splitlines()
    assert len(lines) == 4            # header + 3 replications
    assert lines[0] == ",".join(CSV_HEADER)


def test_empty_replication_set(tmp_path):
    config = qnp_config(tmp_path, replications=0)
    report = run_experiment(config)
    assert report.mean_pf is None and report.eff is None
    lines = (tmp_path / "rows.csv").read_text().strip().splitlines()
    assert lines == [",".join(CSV_HEADER)]
    payload = json.loads((tmp_path / "agg.json").read_text())
    assert payload["aggregate"]["mean_pf"] is None


def test_failed_replication_recorded():
    # a budget below the burn-in cost hard-errors every replication
    config = parse_config({
        "problem": "example1", "method": "qnp-hmcmc",
        "method.n_burnin": 100, "method.budget": 120,
        "replications": 2, "master_seed": 4,
    })
    report = run_experiment(config)
    assert report.n_success == 0
    assert len(report.failures) == 2
    assert "EstimationError" in report.failures[0]["error"]


def test_foreign_exception_recorded_and_other_rows_kept(monkeypatch):
    # an error type the library does not define (e.g. from a user model)
    original = rareprob.harness.run_replication

    def flaky(config, rep):
        if rep == 1:
            raise ValueError("user model broke")
        return original(config, rep)

    monkeypatch.setattr(rareprob.harness, "run_replication", flaky)
    report = run_experiment(qnp_config(None, n_jobs=1))
    assert [row["rep"] for row in report.rows] == [0, 2]
    assert report.failures == [{"rep": 1, "error": "ValueError: user model broke"}]


def test_run_experiment_resolves_its_spec_once(monkeypatch):
    calls = []
    original = rareprob.benchmarks.resolve_spec

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (rareprob.benchmarks, rareprob.harness):
        monkeypatch.setattr(module, "resolve_spec", counting)
    report = run_experiment(qnp_config(None))
    assert report.n_success == 3
    assert len(calls) == 1


def test_eff_identity():
    report = run_experiment(qnp_config(None, replications=4))
    assert report.eff == pytest.approx(
        report.empirical_cov * math.sqrt(report.mean_model_calls), rel=1e-12)


def test_model_call_conservation():
    report = run_experiment(qnp_config(None))
    assert report.mean_model_calls == pytest.approx(
        np.mean([row["model_calls"] for row in report.rows]))
    assert all(row["model_calls"] >= 300 for row in report.rows)


def test_sus_through_harness():
    config = parse_config({
        "problem": "example1", "method": "sus-uniform", "method.n_s": 500,
        "replications": 2, "master_seed": 11,
    })
    report = run_experiment(config)
    assert report.n_success == 2
    assert all(row["cov_analytic"] is None for row in report.rows)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_singleton_matches_run(tmp_path):
    config = parse_config({
        "problem": "example6", "method": "crude-mc", "method.n": 20_000,
        "method.force": True, "replications": 2, "master_seed": 3,
    })
    single = run_experiment(config)
    reports, errors = sweep(config, "problem.beta", [4.0])
    assert not errors
    assert reports[0][1].mean_pf == single.mean_pf


def test_sweep_plot_csv_and_error_isolation(tmp_path):
    plot = tmp_path / "plot.csv"
    config = parse_config({
        "problem": "example6", "method": "crude-mc", "method.n": 20_000,
        "method.force": True, "replications": 1, "master_seed": 3,
        "output.plot": str(plot),
    })
    reports, errors = sweep(config, "problem.beta", [1.0, 2.0, "bogus"])
    assert len(reports) == 2
    assert len(errors) == 1 and errors[0]["value"] == "bogus"
    with open(plot) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "problem.beta"
    assert len(rows) == 3             # header + 2 successful points
    # eff column recomputed from its definition
    for value, rep in reports:
        row = next(r for r in rows[1:] if float(r[0]) == value)
        assert float(row[4]) == pytest.approx(
            rep.empirical_cov * math.sqrt(rep.mean_model_calls), rel=1e-9)


def test_sweep_empty_grid():
    config = qnp_config(None)
    with pytest.raises(ConfigurationError):
        sweep(config, "problem.beta", [])


def test_emit_reports_bad_path(tmp_path):
    report = run_experiment(qnp_config(None, replications=1))
    with pytest.raises(ConfigurationError, match="cannot write"):
        emit_reports(report, {"csv": str(tmp_path / "no-dir" / "x.csv")})
