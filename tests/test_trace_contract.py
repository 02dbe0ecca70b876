"""The traced benchmark wraps library functions by name at run time.

``perfbench/spans.py`` replaces ``owner.__dict__[attr]`` for a fixed list of
names and relies on the pipeline resolving them at call time.  Renaming one
of them breaks the traced run with a KeyError; binding a step function early
(a module-level table, a default argument) silently drops its spans.  These
tests load the span module as it is and check both halves of that contract,
and that the per-layer metrics can be read from what a replication returns.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import rareprob
from rareprob import AstpaConfig, make_benchmark, run_astpa
from rareprob.harness import RunConfig, run_replication

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(spans):
    for owner, attr, name in spans._targets(rareprob):
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is missing"


def test_traced_run_records_every_phase(spans):
    n_burnin = 50
    config = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=n_burnin, budget=400)
    recorder = spans.Recorder()
    with spans.installed(recorder, rareprob):
        _, art = run_astpa(make_benchmark("example1"), config, seed=3,
                           method="qnp-hmcmc")
    # the wrappers are gone again after the block
    assert not hasattr(rareprob.qnp.hmc_transition, "__wrapped__")

    arrays = recorder.arrays()
    counts = {str(n): int(np.sum(arrays["name"] == i))
              for i, n in enumerate(arrays["names"])}
    window = max(10, min(50, n_burnin // 5))
    assert counts.get("pipeline.qnp_burnin_iteration") == n_burnin
    assert counts.get("pipeline.finalize_mass") == 1
    assert counts.get("pipeline.qnp_main_iteration") == window + art.main.n
    # every sampler transition, extra SPD iterations included, runs through
    # the traced qnp.hmc_transition
    extra = art.mass.extra_iterations
    assert counts.get("hmc.transition") == n_burnin + extra + window + art.main.n
    # one density fit per run, whatever the dimension, with the mixture fit
    # inside it, so the fit spans mean the same on every workload
    assert counts.get("iis.fit_subspace_density") == 1
    assert counts.get("iis.fit_gmm") == 1
    names = list(arrays["names"])
    fit, gmm = (np.flatnonzero(arrays["name"] == names.index(n))[0]
                for n in ("iis.fit_subspace_density", "iis.fit_gmm"))
    assert arrays["parent"][gmm] == fit
    # the per-step layers stay behind their traced names: every model call
    # but the origin's goes through the traced logp_grad, one BFGS update at
    # most per burn-in leapfrog step, one rollback at most per burn-in
    # iteration (extra SPD iterations run inside finalize_mass)
    assert counts["model.evaluate"] == counts["target.logp_grad"] + 1
    burnin_parents = {names.index(n) for n in ("pipeline.qnp_burnin_iteration",
                                               "pipeline.finalize_mass")}
    burnin_steps = sum(
        recorder.extra[sid] for sid in np.flatnonzero(
            arrays["name"] == names.index("hmc.transition"))
        if arrays["name"][arrays["parent"][sid]] in burnin_parents)
    assert 0 < counts.get("qnp.bfgs_update", 0) <= burnin_steps
    assert 0 < counts.get("qnp.bfgs.restore", 0) <= n_burnin + extra


@pytest.mark.parametrize("problem,method,counted", [
    ("example1", "qnp-hmcmc", ("pipeline.main.samples", "iis.thinning_lag",
                               "iis.chosen_k", "qnp.bfgs_update.calls")),
    ("example9", "sus-uniform", ("sus.levels", "sus.calls_per_level"))])
def test_layer_metrics_of_a_traced_replication(spans, problem, method, counted):
    # one harness replication under a "replication" root span, as the traced
    # bench runs it: every per-layer metric is a finite number, the run-level
    # counts read from the report and artifacts are there, and no model call
    # happens inside the IIS stage
    config = RunConfig(problem, method, master_seed=0)
    recorder = spans.Recorder()
    recorder.current_rep = 0
    with spans.installed(recorder, rareprob), recorder.span("replication"):
        row = run_replication(config, 0)
    wall = row["wall_ms"] * 1e-3
    metrics, violations = spans.layer_metrics(
        recorder, config.spec.astpa_defaults.get("budget"), wall, wall)
    assert violations == 0
    assert [k for k, v in metrics.items() if not math.isfinite(v)] == []
    assert all(metrics[k] > 0 for k in counted)
