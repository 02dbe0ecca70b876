import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rareprob import (AstpaConfig, ConfigurationError, EstimationError,
                      fit_gmm, fit_single_gaussian, estimate_pf,
                      make_benchmark, normalizing_constant, run_astpa)

from rareprob import pipeline
from rareprob.harness import RunConfig, run_replication

from conftest import make_linear_model, phi


def small_config(**kw):
    base = dict(sigma=0.4, tau=0.7, n_burnin=50, budget=400)
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
    main = art.main
    g = np.array([model._func(th)[0] for th in main.theta])
    np.testing.assert_allclose(main.g, g, rtol=1e-12)
    log_ell = target.log_likelihood(g)
    np.testing.assert_allclose(main.log_ell, log_ell, rtol=1e-12)
    log_h = log_ell - math.log(2 * math.pi) - 0.5 * (main.theta ** 2).sum(axis=1)
    np.testing.assert_allclose(main.log_h, log_h, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(main.is_failure, g <= 0.0)
    # the burn-in record keeps each state's model response
    g_burnin = np.array([model._func(th)[0] for th in art.burnin.theta])
    np.testing.assert_allclose(art.burnin.g, g_burnin, rtol=1e-12)


@pytest.mark.parametrize("method", ["hmcmc", "qnp-hmcmc"])
def test_budget_overshoot_is_bounded(method):
    # the last main-phase trajectory starts below the budget and finishes
    config = small_config()
    for seed in (1, 2, 3, 4):
        report, _ = run_astpa(make_benchmark("example1"), config, seed=seed,
                              method=method)
        assert config.budget <= report.model_calls \
            <= config.budget + pipeline.MAX_LEAPFROG_STEPS - 1


def test_burnin_excluded_from_estimation():
    model = make_benchmark("example1")
    report, art = run_astpa(model, small_config(), seed=5)
    # the estimate is the main samples' alone, bit for bit
    assert estimate_pf(art.main, report.c_h) == report.p_hat
    # burn-in count: annealed iterations plus the adaptation epilogue
    assert art.burnin.n >= 50


def test_budget_exhausted_raises():
    model = make_benchmark("example1")
    with pytest.raises(EstimationError):
        run_astpa(model, AstpaConfig(sigma=0.4, n_burnin=200, budget=150),
                  seed=0)


def test_too_few_main_samples_for_a_high_dimensional_fit_raise():
    # five main samples cannot support a 100-dim density fit (d + 2 needed)
    model = make_benchmark("example6")
    with pytest.raises(EstimationError, match="5 main samples cannot support"):
        run_astpa(model, AstpaConfig(sigma=0.4, n_burnin=20, budget=50),
                  seed=0, method="hmcmc")


def test_burnin_length_follows_the_budget_when_unset(monkeypatch):
    # n_burnin unset: about 10% of the budget, counted in trajectories of
    # tau / eps0 steps, eps0 being what the first step-size search returns
    found, counted = [], []
    search = pipeline.find_reasonable_epsilon
    burnin_step = pipeline.qnp_burnin_iteration

    def find(*args, **kwargs):
        found.append(search(*args, **kwargs))
        return found[-1]

    def step(*args, **kwargs):
        counted.append(1)
        return burnin_step(*args, **kwargs)

    monkeypatch.setattr(pipeline, "find_reasonable_epsilon", find)
    monkeypatch.setattr(pipeline, "qnp_burnin_iteration", step)
    run_astpa(make_benchmark("example1"),
              AstpaConfig(sigma=0.4, tau=0.7, budget=600), seed=3)
    assert len(counted) == max(2, round(0.1 * 600 / max(1, round(0.7 / found[0]))))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AstpaConfig(sigma=0.4)           # no budget
    with pytest.raises(ConfigurationError):
        AstpaConfig(sigma=1.5, budget=100)
    with pytest.raises(ConfigurationError):
        AstpaConfig(sigma=0.4, p=1.0, budget=100)
    # counts are ints, not bools; tau is finite and positive
    for bad in ({"budget": 0}, {"budget": -10}, {"budget": 5.5},
                {"budget": True}, {"budget": "abc"}, {"n_burnin": -3},
                {"n_burnin": 2.0}, {"tau": -1.0}, {"tau": 0.0},
                {"tau": math.inf}, {"tau": math.nan}):
        with pytest.raises(ConfigurationError):
            AstpaConfig(**{"budget": 100, **bad})
    with pytest.raises(ConfigurationError):
        run_astpa(make_benchmark("example1"), small_config(), 0,
                  method="nuts")


@pytest.mark.parametrize("sigma", [5e-324, 1e-310])
def test_subnormal_sigma_is_a_configuration_error(sigma):
    # the burn-in schedule cannot anneal down to a subnormal dispersion
    with pytest.raises(ConfigurationError, match="too small to anneal"):
        run_astpa(make_benchmark("example1"),
                  AstpaConfig(sigma=sigma, n_burnin=20, budget=200), 1)


def test_full_pipeline_consistency_oracle():
    # 1-D linear limit state: the estimator mean must agree with the exact
    # failure probability within 3 empirical standard errors
    ref = phi(-3.0)
    pf = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(200):
            model = make_linear_model(beta=3.0)
            cfg = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=60, budget=450)
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
    cfg = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=200, budget=5600)
    report, art = run_astpa(model, cfg, seed=11)
    assert art.main.n >= 4000
    from rareprob.iis import add_defensive_component
    q_mix = add_defensive_component(fit_gmm(art.main.theta, k_max=5, seed=2),
                                    art.main.theta)
    q_one = add_defensive_component(fit_single_gaussian(art.main.theta),
                                    art.main.theta)
    estimates = []
    for q in (q_mix, q_one):
        c_h = normalizing_constant(art.main, q)
        estimates.append(estimate_pf(art.main, c_h))
    spread = abs(estimates[0] - estimates[1])
    # statistical agreement: within two analytic standard deviations
    assert spread < 2.0 * report.cov_analytic * max(estimates)


def test_subspace_density_used_in_high_dimensions():
    model = make_benchmark("example6")
    cfg = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=150, budget=2500)
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


@pytest.mark.parametrize("problem,master_seed,rep", [
    ("example8", 5, 1), ("example3", 131, 1)])
def test_divergent_burnin_trajectory_raises_no_warning(problem, master_seed, rep):
    # each replication runs a divergent burn-in trajectory.  On example8 its
    # curvature pair and its kinetic energy overflow, the pair is skipped and
    # the trajectory counts as divergent; on example3 the gradient holds an
    # inf, which ends the trajectory before the momentum step
    config = RunConfig(problem=problem, method="qnp-hmcmc",
                       master_seed=master_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = run_replication(config, rep)
    assert math.isfinite(row["pf_hat"]) and row["pf_hat"] > 0.0


def test_phase_record_growth_keeps_rows_in_order():
    # a record that outgrows its capacity holds what a plain list of the
    # same states holds, row for row
    rng = np.random.default_rng(4)
    states = [(pipeline.ChainState(rng.standard_normal(3), 0.0, None,
                                   (float(rng.standard_normal()), None, None)),
               {"accepted": bool(i % 3), "diverged": i % 5 == 0})
              for i in range(11)]
    record = pipeline.PhaseRecord(2, 3)
    for state, info in states:
        record.append(state, info)
    assert record.n == 11
    assert np.array_equal(record.theta, np.array([s.theta for s, _ in states]))
    assert np.array_equal(record.g, [s.aux[0] for s, _ in states])
    assert record.accepted.tolist() == [i["accepted"] for _, i in states]
    assert record.diverged.tolist() == [i["diverged"] for _, i in states]
    assert record.theta.shape == (11, 3) and record.theta.base is not None


def test_main_samples_are_written_in_place():
    # the main record is sized from the budget left and the sample set is a
    # view of it: no restacked copy and no (n, d) squared temporary, so the
    # traced peak of a d=100 run stays within three theta blocks
    import scipy.linalg  # noqa: F401  (the deferred import is not the run's)
    model = make_benchmark("example8")
    config = AstpaConfig(sigma=0.5, tau=0.7, n_burnin=100, budget=3000)
    tracemalloc.start()
    try:
        _, art = run_astpa(model, config, seed=0, method="qnp-hmcmc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert art.main.theta.base is not None
    assert peak <= 3.0 * art.main.theta.nbytes
