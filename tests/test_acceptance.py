"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Set ``RAREPROB_TEST_PROFILE=fast`` to skip the two
very-low-probability reference-budget checks.
"""

import math
import time
import warnings

import numpy as np
import pytest

from rareprob import (bfgs_update, finite_difference_gradient, leapfrog,
                      make_benchmark, parse_config, run_experiment,
                      subset_simulation, SusConfig)
from rareprob.harness import replication_seed
from rareprob.pipeline import AstpaConfig, run_astpa

from conftest import GaussianTarget, fast_profile, make_linear_model, phi

N_JOBS = 2


def check(name, passed, detail):
    print(f"\n{name}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{name}: {detail}"


def run_qnp(problem, replications, seed, problem_params=None, **method):
    flat = {"problem": problem, "method": "qnp-hmcmc",
            "replications": replications, "master_seed": seed,
            "n_jobs": N_JOBS}
    flat.update({f"problem.{k}": v for k, v in (problem_params or {}).items()})
    flat.update({f"method.{k}": v for k, v in method.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        report = run_experiment(parse_config(flat))
        elapsed = time.perf_counter() - t0
    return report, elapsed


@pytest.fixture(scope="module")
def criterion1_run():
    return run_qnp("example1", 100, 101, sigma=0.4, tau=0.7, n_burnin=100,
                   budget=600)


@pytest.fixture(scope="module")
def criterion3_run():
    return run_qnp("example6", 50, 103, sigma=0.4, tau=0.7, n_burnin=500,
                   budget=6000)


def test_criterion_1_convex_low_probability(criterion1_run):
    report, elapsed = criterion1_run
    ref = 4.73e-6
    ok = (abs(report.mean_pf - ref) <= 0.25 * ref
          and report.empirical_cov <= 0.5 and elapsed < 30.0
          and report.n_success == 100)
    check("CRITERION 1", ok,
          f"mean={report.mean_pf:.3e} (ref {ref:.2e}, "
          f"dev {abs(report.mean_pf - ref) / ref:+.1%}), "
          f"cov={report.empirical_cov:.3f}, calls={report.mean_model_calls:.0f}, "
          f"runtime={elapsed:.1f}s")


def test_criterion_2_four_branch_system():
    report, elapsed = run_qnp("example4", 100, 102, sigma=0.8, tau=1.0,
                              n_burnin=200, budget=2000)
    ref = 2.20e-3
    ok = (abs(report.mean_pf - ref) <= 0.15 * ref
          and report.empirical_cov <= 0.3 and elapsed < 60.0
          and report.n_success == 100)
    check("CRITERION 2", ok,
          f"mean={report.mean_pf:.3e} (ref {ref:.2e}, "
          f"dev {abs(report.mean_pf - ref) / ref:+.1%}), "
          f"cov={report.empirical_cov:.3f}, runtime={elapsed:.1f}s")


def test_criterion_3_high_dim_linear(criterion3_run):
    report, elapsed = criterion3_run
    ref = 0.5 * math.erfc(4.0 / math.sqrt(2.0))   # Phi(-4)
    ok = (abs(report.mean_pf - ref) <= 0.25 * ref and elapsed < 300.0
          and report.n_success == 50)
    check("CRITERION 3", ok,
          f"mean={report.mean_pf:.3e} (ref {ref:.3e}, "
          f"dev {abs(report.mean_pf - ref) / ref:+.1%}), "
          f"cov={report.empirical_cov:.3f}, calls={report.mean_model_calls:.0f}, "
          f"runtime={elapsed:.1f}s")


def test_criterion_4_high_dim_quadratic():
    report, elapsed = run_qnp("example7", 50, 104, sigma=0.4, tau=0.7,
                              n_burnin=500, budget=8000)
    ref = 4.73e-6
    ok = (abs(report.mean_pf - ref) <= 0.30 * ref
          and report.empirical_cov <= 0.6 and report.n_success == 50)
    check("CRITERION 4", ok,
          f"mean={report.mean_pf:.3e} (ref {ref:.2e}, "
          f"dev {abs(report.mean_pf - ref) / ref:+.1%}), "
          f"cov={report.empirical_cov:.3f}, runtime={elapsed:.1f}s")


def test_criterion_5_analytic_vs_empirical_cov(criterion1_run, criterion3_run):
    details = []
    ok = True
    for label, (report, _) in (("crit1", criterion1_run),
                               ("crit3", criterion3_run)):
        ratio = report.mean_analytic_cov / report.empirical_cov
        ok = ok and 0.5 <= ratio <= 2.0
        details.append(f"{label}: analytic={report.mean_analytic_cov:.3f} "
                       f"empirical={report.empirical_cov:.3f} (x{ratio:.2f})")
    check("CRITERION 5", ok, "; ".join(details))


def test_criterion_6_subset_simulation_baseline(criterion1_run):
    ref = phi(-3.0)
    pf = []
    for rep in range(500):
        model = make_linear_model(beta=3.0)
        res = subset_simulation(model, SusConfig(
            n_s=1000, p0=0.1, proposal="uniform"), replication_seed(606, rep))
        pf.append(res.p_hat)
    mean = float(np.mean(pf))
    ok_1d = abs(mean - ref) <= 0.15 * ref

    sus_pf, sus_calls = [], []
    for rep in range(200):
        res = subset_simulation(make_benchmark("example1"), SusConfig(
            n_s=1000, p0=0.1, proposal="uniform"), replication_seed(607, rep))
        sus_pf.append(res.p_hat)
        sus_calls.append(res.model_calls)
    sus_pf = np.array(sus_pf)
    sus_cov = sus_pf.std(ddof=1) / sus_pf.mean()
    qnp_report, _ = criterion1_run
    ok_directional = (qnp_report.mean_model_calls < np.mean(sus_calls)
                      and qnp_report.empirical_cov < sus_cov)
    check("CRITERION 6", ok_1d and ok_directional,
          f"1-D mean={mean:.4e} (ref {ref:.4e}, dev "
          f"{abs(mean - ref) / ref:+.1%}); qnp {qnp_report.mean_model_calls:.0f} "
          f"calls/cov {qnp_report.empirical_cov:.2f} vs sus "
          f"{np.mean(sus_calls):.0f} calls/cov {sus_cov:.2f}")


def test_criterion_7_property_suites():
    results = {}

    # leapfrog reversibility <= 1e-10
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    target = GaussianTarget(a @ a.T + np.eye(3))
    th0, z0 = rng.standard_normal(3), rng.standard_normal(3)
    g0 = target.logp_grad(th0)[1]
    th, z, _, g, _, _ = leapfrog(th0, z0, g0, 0.1, 8, target.logp_grad)
    th_b, _, _, _, _, _ = leapfrog(th, -z, g, 0.1, 8, target.logp_grad)
    results["reversibility"] = np.abs(th_b - th0).max() <= 1e-10

    # energy-error scaling in [3.5, 4.5]
    def max_dh(eps):
        h0 = -target.logp_grad(th0)[0] + 0.5 * z0 @ z0
        th, z, g = th0.copy(), z0.copy(), g0.copy()
        worst = 0.0
        for _ in range(int(round(1.0 / eps))):
            th, z, logp, g, _, _ = leapfrog(th, z, g, eps, 1, target.logp_grad)
            worst = max(worst, abs(-logp + 0.5 * z @ z - h0))
        return worst
    ratio = max_dh(0.04) / max_dh(0.02)
    results["energy-scaling"] = 3.5 <= ratio <= 4.5

    # BFGS secant and fixed point
    s = np.array([0.4, -1.2, 0.3])
    results["bfgs-fixed-point"] = np.allclose(
        bfgs_update(np.eye(3), s, s), np.eye(3), atol=1e-12)
    w = np.eye(3)
    ok_secant = True
    for _ in range(200):
        sv = rng.standard_normal(3)
        yv = (a @ a.T + np.eye(3)) @ sv
        w = bfgs_update(w, sv, yv)
        ok_secant = ok_secant and (
            np.linalg.norm(w @ yv - sv) <= 1e-8 * np.linalg.norm(sv))
    results["bfgs-secant"] = ok_secant

    # gradients vs finite differences on all nine benchmarks
    ok_grad = True
    for bid in ("example1", "example2", "example3", "example4", "example5",
                "example6", "example7", "example8", "example9"):
        model = make_benchmark(bid)
        rng_b = np.random.default_rng(7)
        for _ in range(10):
            theta = rng_b.standard_normal(model.dim)
            _, grad = model.evaluate(theta)
            fd = finite_difference_gradient(model, theta)
            ok_grad = ok_grad and (np.linalg.norm(grad - fd)
                                   <= 1e-5 * max(np.linalg.norm(grad), 1e-8))
    results["gradient-fd"] = ok_grad

    # likelihood-scale invariance of the estimate to 1e-12
    from rareprob import estimate_pf, fit_gmm, normalizing_constant, SampleSet
    thetas = rng.standard_normal(300)
    g = 1.0 - thetas
    from rareprob.target import SCALE_RATIO, log_weight_omega, softplus
    c = SCALE_RATIO * 0.4
    mu = -c * math.log(1.0 / 9.0)
    log_ell = log_weight_omega(mu, 0.4) - softplus((g + mu) / c)
    log_h = log_ell - 0.5 * math.log(2 * math.pi) - 0.5 * thetas ** 2
    ss = SampleSet(theta=thetas[:, None], g=g, log_ell=log_ell, log_h=log_h)
    q = fit_gmm(ss.theta, k_max=2, seed=0)
    p1 = estimate_pf(ss, normalizing_constant(ss, q))
    ss2 = SampleSet(theta=thetas[:, None], g=g, log_ell=log_ell + math.log(7.0),
                    log_h=log_h + math.log(7.0))
    p2 = estimate_pf(ss2, normalizing_constant(ss2, q))
    results["scale-invariance"] = abs(p1 - p2) <= 1e-12 * p1

    # zero extra model calls in the post-processing stage
    model = make_benchmark("example1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report, _ = run_astpa(model, AstpaConfig(
            sigma=0.4, n_burnin=40, budget=300), seed=5)
    results["zero-extra-calls"] = report.model_calls == model.call_count

    # annealing endpoints
    from rareprob import AnnealSchedule, mu_from_percentile
    ok_anneal = True
    for nbi in (2, 10, 100, 500):
        mu_f = mu_from_percentile(0.1, 0.4)
        sched = AnnealSchedule(sigma_final=0.4, mu_final=mu_f, n_burnin=nbi)
        s1, m1 = sched.at(1)
        send, mend = sched.at(nbi)
        ok_anneal = ok_anneal and abs(s1 - 1.0) < 1e-12 \
            and abs(send - 0.4) < 1e-12 * 0.4 \
            and abs(m1 - 1e-4) < 1e-9 and abs(mend - mu_f) < 1e-9 * mu_f
    results["annealing-endpoints"] = ok_anneal

    # determinism: bit-identical reruns
    r1, _ = run_astpa(make_benchmark("example1"), AstpaConfig(
        sigma=0.4, n_burnin=40, budget=300), seed=9)
    r2, _ = run_astpa(make_benchmark("example1"), AstpaConfig(
        sigma=0.4, n_burnin=40, budget=300), seed=9)
    results["determinism"] = (r1.p_hat == r2.p_hat and r1.c_h == r2.c_h)

    failed = [k for k, v in results.items() if not v]
    check("CRITERION 7", not failed,
          "all property suites hold" if not failed
          else f"failing: {', '.join(failed)}")


@pytest.mark.skipif(fast_profile(), reason="reference-budget check (fast profile)")
def test_reference_budget_nonlinearity_sweep():
    # grid over the quadratic-coupling width on the d=100 problem; every
    # point must land within +-30% of its tabulated reference
    from rareprob import sweep

    refs = {2: 4.73e-6, 5: 2.54e-6, 8: 1.57e-6, 10: 1.15e-6}
    flat = {"problem": "example7", "method": "qnp-hmcmc",
            "method.budget": 8000, "method.n_burnin": 500,
            "replications": 12, "master_seed": 110, "n_jobs": N_JOBS}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        reports, errors = sweep(parse_config(flat), "problem.gamma",
                                list(refs))
        elapsed = time.perf_counter() - t0
    assert not errors
    details = []
    ok = True
    for value, report in reports:
        ref = refs[value]
        dev = (report.mean_pf - ref) / ref
        ok = ok and abs(dev) <= 0.30
        details.append(f"gamma={value}: {report.mean_pf:.2e} ({dev:+.0%})")
    check("REFERENCE-BUDGET example7 sweep", ok,
          "; ".join(details) + f"; runtime={elapsed:.0f}s")


@pytest.mark.skipif(fast_profile(), reason="reference-budget check (fast profile)")
def test_reference_budget_quartic_bimodal():
    report, elapsed = run_qnp("example3", 30, 108, sigma=0.5, tau=0.7,
                              n_burnin=200, budget=4000)
    ref = 5.90e-8
    ok = abs(report.mean_pf - ref) <= 0.40 * ref
    check("REFERENCE-BUDGET example3", ok,
          f"mean={report.mean_pf:.3e} (ref {ref:.2e}, "
          f"dev {abs(report.mean_pf - ref) / ref:+.1%}), runtime={elapsed:.0f}s")


@pytest.mark.skipif(fast_profile(), reason="reference-budget check (fast profile)")
def test_reference_budget_beta_seven():
    report, elapsed = run_qnp("example6", 30, 109,
                              problem_params={"beta": 7.0}, sigma=0.4,
                              tau=0.7, n_burnin=500, budget=8639)
    ref = 1.28e-12
    ok = abs(report.mean_pf - ref) <= 0.40 * ref
    check("REFERENCE-BUDGET example6 beta=7", ok,
          f"mean={report.mean_pf:.3e} (ref {ref:.2e}, "
          f"dev {abs(report.mean_pf - ref) / ref:+.1%}), runtime={elapsed:.0f}s")
