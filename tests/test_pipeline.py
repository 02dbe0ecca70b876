import math
import warnings

import numpy as np
import pytest

from rareprob import (AstpaConfig, ConfigurationError, EstimationError,
                      fit_gmm, fit_single_gaussian, estimate_pf,
                      make_benchmark, normalizing_constant, run_astpa)

from rareprob.harness import RunConfig, run_replication

from conftest import make_linear_model, phi


def small_config(**kw):
    base = dict(sigma=0.4, tau=0.7, n_burnin=50, budget=400,
                max_leapfrog_steps=30)
    base.update(kw)
    return AstpaConfig(**base)


def test_post_processing_makes_no_model_calls():
    model = make_benchmark("example1")
    report, art = run_astpa(model, small_config(), seed=1)
    assert report.model_calls == model.call_count
    # re-running the whole estimation stage on the stored samples is free
    before = model.call_count
    c_h = normalizing_constant(art.main, art.importance_density)
    estimate_pf(art.main, c_h)
    assert model.call_count == before


def test_deterministic_given_seed():
    a, _ = run_astpa(make_benchmark("example1"), small_config(), seed=7)
    b, _ = run_astpa(make_benchmark("example1"), small_config(), seed=7)
    assert a.p_hat == b.p_hat
    assert a.model_calls == b.model_calls
    assert a.c_h == b.c_h
    c, _ = run_astpa(make_benchmark("example1"), small_config(), seed=8)
    assert c.p_hat != a.p_hat


def test_sample_records_consistent_with_final_parameters():
    model = make_benchmark("example1")
    report, art = run_astpa(model, small_config(), seed=3)
    target = art.target
    for sample_set in (art.main, art.burnin):
        g = np.array([model._func(th)[0] for th in sample_set.theta])
        np.testing.assert_allclose(sample_set.g, g, rtol=1e-12)
        log_ell = target.log_likelihood(g)
        np.testing.assert_allclose(sample_set.log_ell, log_ell, rtol=1e-12)
        log_h = log_ell - math.log(2 * math.pi) - 0.5 * (sample_set.theta ** 2).sum(axis=1)
        np.testing.assert_allclose(sample_set.log_h, log_h, rtol=1e-12,
                                   atol=1e-12)
        np.testing.assert_array_equal(sample_set.is_failure, g <= 0.0)


def test_burnin_excluded_from_estimation():
    model = make_benchmark("example1")
    report, art = run_astpa(model, small_config(), seed=5)
    assert art.main.phase == "main"
    assert art.burnin.phase == "burn-in"
    assert report.n_used == art.main.n
    # burn-in count: annealed iterations plus the adaptation epilogue
    assert art.burnin.n >= 50


def test_budget_exhausted_raises():
    model = make_benchmark("example1")
    with pytest.raises(EstimationError):
        run_astpa(model, AstpaConfig(sigma=0.4, n_burnin=200, budget=150),
                  seed=0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AstpaConfig(sigma=0.4)           # neither budget nor n_iter
    with pytest.raises(ConfigurationError):
        AstpaConfig(sigma=1.5, budget=100)
    with pytest.raises(ConfigurationError):
        AstpaConfig(sigma=0.4, p=1.0, budget=100)
    with pytest.raises(ConfigurationError):
        run_astpa(make_benchmark("example1"), small_config(), 0,
                  method="nuts")


def test_n_iter_mode():
    model = make_benchmark("example1")
    report, art = run_astpa(model, AstpaConfig(sigma=0.4, n_burnin=20,
                                               n_iter=30), seed=2)
    assert art.main.n == 30


def test_full_pipeline_consistency_oracle():
    # 1-D linear limit state: the estimator mean must agree with the exact
    # failure probability within 3 empirical standard errors
    ref = phi(-3.0)
    pf = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(200):
            model = make_linear_model(beta=3.0)
            cfg = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=60, budget=450,
                              max_leapfrog_steps=30)
            report, _ = run_astpa(model, cfg, seed=4000 + rep,
                                  method="qnp-hmcmc")
            pf.append(report.p_hat)
    pf = np.array(pf)
    se = pf.std(ddof=1) / math.sqrt(pf.size)
    assert abs(pf.mean() - ref) <= 3 * se


def test_q_route_independence_on_benchmark1():
    # two valid importance densities on the same samples give estimates
    # closer than the analytic uncertainty
    model = make_benchmark("example1")
    cfg = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=200, budget=5600,
                      max_leapfrog_steps=30)
    report, art = run_astpa(model, cfg, seed=11)
    assert art.main.n >= 4000
    from rareprob.iis import add_defensive_component
    q_mix = add_defensive_component(fit_gmm(art.main, k_max=5, seed=2),
                                    art.main)
    q_one = add_defensive_component(fit_single_gaussian(art.main), art.main)
    estimates = []
    for q in (q_mix, q_one):
        c_h = normalizing_constant(art.main, q)
        estimates.append(estimate_pf(art.main, c_h))
    spread = abs(estimates[0] - estimates[1])
    # statistical agreement: within two analytic standard deviations
    assert spread < 2.0 * report.cov_analytic * max(estimates)


def test_subspace_density_used_in_high_dimensions():
    model = make_benchmark("example6")
    cfg = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=150, budget=2500,
                      max_leapfrog_steps=30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report, art = run_astpa(model, cfg, seed=21)
    assert art.importance_density.__class__.__name__ == "SubspaceDensity"
    assert report.thinning_lag <= 50


def test_origin_in_failure_domain_is_flagged():
    model = make_linear_model(beta=-0.5)   # g(0) = -0.5: degenerate origin
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report, _ = run_astpa(model, small_config(sigma=0.5), seed=1)
    assert any("failure domain" in w for w in report.warnings)


def test_divergent_burnin_trajectory_raises_no_warning():
    # replication 1 of example8 under master seed 5 runs a divergent burn-in
    # trajectory: its curvature pair and its kinetic energy overflow, the
    # pair is skipped and the trajectory counts as divergent
    config = RunConfig(problem="example8", method="qnp-hmcmc", master_seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = run_replication(config, 1)
    assert math.isfinite(row["pf_hat"]) and row["pf_hat"] > 0.0
