import csv
import json
import math

import numpy as np
import pytest

from rareprob import benchmark_ids, harness, register_model
from rareprob.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_benchmarks(capsys):
    code, out, _ = run_cli(capsys, "list-benchmarks")
    assert code == 0
    assert "example1" in out and "example9" in out
    assert "ref_pf" in out


def test_run_from_config_file(tmp_path, capsys):
    cfg = {
        "problem": "example1", "method": "qnp-hmcmc",
        "method.n_burnin": 40, "method.budget": 300,
        "replications": 2, "master_seed": 7,
        "output.csv": str(tmp_path / "rows.csv"),
        "output.json": str(tmp_path / "agg.json"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    summary = json.loads(out)
    assert summary["n_replications"] == 2
    assert (tmp_path / "rows.csv").exists()
    assert (tmp_path / "agg.json").exists()


def test_run_with_flag_overrides(capsys):
    code, out, _ = run_cli(capsys, "run", "--problem", "example1",
                           "--method", "sus-uniform", "--replications", "2",
                           "--seed", "3", "--set", "method.n_s=400")
    assert code == 0
    summary = json.loads(out)
    assert summary["n_replications"] == 2
    assert summary["mean_pf"] > 0


def test_unknown_key_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"problem": "example1", "method": "hmcmc",
                                "typo_key": 1}))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "configuration error" in err


@pytest.mark.parametrize("method,setting", [
    ("qnp-hmcmc", "method.sigma=2"), ("sus-uniform", "method.p0=1.5"),
    ("hmcmc", "method.sigma=abc"), ("crude-mc", "method.n=abc"),
    ("crude-mc", "method.n=0"), ("crude-mc", "method.n=1000"),
    ("hmcmc", "method.budget=abc"), ("hmcmc", "method.budget=-10"),
    ("hmcmc", "method.budget=5.5"), ("hmcmc", "method.budget=true"),
    ("hmcmc", "method.tau=-1"), ("qnp-hmcmc", "method.tau=inf"),
    ("hmcmc", "method.n_burnin=-3"), ("sus-uniform", "method.n_s=0"),
    ("sus-uniform", "method.max_levels=0")])
def test_invalid_method_value_exit_code(capsys, method, setting):
    # rejected before any replication runs, not counted as failed replications
    code, out, err = run_cli(capsys, "run", "--problem", "example1",
                             "--method", method, "--replications", "2",
                             "--set", setting)
    assert code == 2 and out == ""
    assert "configuration error" in err


def test_sweep_lists_out_of_range_method_value_as_error(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--problem", "example1", "--method", "sus-uniform",
        "--replications", "1", "--seed", "2", "--set", "method.n_s=200",
        "--param", "method.p0", "--values", "0.1,1.5")
    assert code == 0
    assert out.startswith("method.p0=0.1: ")
    assert err.startswith("method.p0=1.5: ERROR ConfigurationError")


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/nonexistent.json")
    assert code == 2


def test_numerical_failure_exit_code(capsys):
    # budget below the burn-in cost: every replication errors, but the
    # aggregate run still completes; a direct oracle misuse is a config error
    code, _, err = run_cli(capsys, "oracle", "--problem", "example1",
                           "--n", "100")
    assert code == 2
    assert "configuration error" in err


def test_oracle_force(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--problem", "example4",
                           "--n", "20000", "--seed", "5", "--force")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_f_ref"] == 2.20e-3
    assert 0 <= payload["p_hat"] <= 1


def test_sweep_cli(tmp_path, capsys):
    plot = tmp_path / "plot.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--problem", "example6", "--method", "crude-mc",
        "--replications", "1", "--seed", "2", "--set", "method.n=20000",
        "--set", "method.force=true", "--param", "problem.beta",
        "--values", "1.0,1.5", "--plot-csv", str(plot))
    assert code == 0
    with open(plot) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3


def test_tuning_failure_exit_code(capsys):
    # a model that is finite only at the origin: every pilot trajectory
    # diverges, so every candidate is unusable -> numerical exit
    name = "cli-finite-only-at-origin"
    if name not in benchmark_ids():
        register_model(name, 2, lambda th: (1.0 if not th.any() else math.inf,
                                            np.zeros(2)))
    code, _, err = run_cli(capsys, "tune", "--problem", name,
                           "--candidates", "0.7", "--pilot-iters", "5")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--problem", "example6", "--method", "crude-mc",
     "--replications", "1", "--set", "method.n=20000", "--set",
     "method.force=true", "--param", "problem.beta", "--values", "1.0",
     "--plot-csv", "/"),
    ("tune", "--problem", "example1", "--candidates", "abc"),
    ("tune", "--problem", "example1", "--candidates", ""),
    ("tune", "--problem", "example1", "--candidates", "0.7,0"),
    ("tune", "--problem", "example1", "--pilot-iters", "0"),
    ("tune", "--problem", "example1", "--sigma", "5", "--candidates", "0.7",
     "--pilot-iters", "5"),
    ("oracle", "--problem", "example4", "--n", "20000", "--force",
     "--seed", "-1"),
    ("tune", "--problem", "example1", "--candidates", "0.7",
     "--pilot-iters", "5", "--seed", "-1"),
    *(("run", "--problem", "example1", "--method", "qnp-hmcmc",
       "--replications", "2", *extra)
      for extra in (("--set", "replications=abc"), ("--set", "n_jobs=abc"),
                    ("--set", "replications=2.7"),
                    ("--set", "replications=true"), ("--seed", "-1"),
                    ("--set", "n_jobs=0")))],
    ids=["plot-csv-is-a-directory", "candidates-unparsable",
         "candidates-empty", "candidate-zero", "pilot-iters-zero",
         "sigma-out-of-range", "oracle-seed-negative", "tune-seed-negative",
         "replications-not-a-number",
         "n-jobs-not-a-number", "replications-not-an-integer",
         "replications-a-bool", "seed-negative", "n-jobs-zero"])
def test_bad_cli_input_is_a_configuration_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "configuration error" in err


@pytest.mark.parametrize("argv", [
    ("run", "--csv", "/"),
    ("run", "--json", "{tmp}/missing/agg.json"),
    ("sweep", "--param", "method.n_s", "--values", "200", "--plot-csv", "/"),
    # each command writes only its own output keys and refuses the others
    ("sweep", "--param", "method.n_s", "--values", "200",
     "--set", "output.csv={tmp}/rows.csv"),
    ("run", "--set", "output.plot={tmp}/plot.csv")],
    ids=["run-csv-is-a-directory", "run-json-dir-missing",
         "sweep-plot-csv-is-a-directory", "sweep-refuses-output-csv",
         "run-refuses-output-plot"])
def test_bad_output_path_fails_before_any_replication(tmp_path, monkeypatch,
                                                      capsys, argv):
    reps = []
    real = harness.run_replication
    monkeypatch.setattr(harness, "run_replication",
                        lambda config, rep: reps.append(rep) or real(config, rep))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--problem", "example1",
                             "--method", "sus-uniform", "--replications", "2",
                             "--set", "method.n_s=200")
    assert code == 2 and out == "" and reps == []
    assert "configuration error" in err
    assert not (tmp_path / "missing").exists()


def test_tune_cli(capsys):
    code, out, _ = run_cli(capsys, "tune", "--problem", "example1",
                           "--candidates", "0.7", "--pilot-iters", "20",
                           "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == 0.7
    assert payload["epsilon"] > 0
