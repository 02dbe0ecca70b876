import math
import warnings

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.linalg import solve_triangular

from rareprob import (AstpaConfig, EstimateReport, GmmModel,
                      InvalidInputError, NumericalError, SampleSet,
                      choose_thinning, cov_analytic, estimate_pf, fit_gmm,
                      fit_single_gaussian, make_benchmark,
                      normalizing_constant, resolve_spec, run_astpa)
from rareprob.iis import (add_defensive_component, estimate_thinning_lag,
                          fit_subspace_density)
from rareprob.pipeline import _fit_q
from rareprob.target import SCALE_RATIO, log_weight_omega, softplus


def logistic_weighted_normal(g_fn, sigma, p, thetas):
    """log h~ for a 1-D limit state under the smoothed-target construction."""
    c = SCALE_RATIO * sigma
    mu = -c * math.log(p / (1 - p))
    u = (g_fn(thetas) + mu) / c
    log_ell = log_weight_omega(mu, sigma) - softplus(u)
    return log_ell, log_ell - 0.5 * math.log(2 * math.pi) - 0.5 * thetas ** 2


def build_sample_set(thetas, g, log_ell, log_h, phase="main"):
    return SampleSet(theta=np.atleast_2d(thetas).T if np.ndim(thetas) == 1
                     else thetas, g=g, log_ell=log_ell, log_h=log_h,
                     phase=phase)


# ---------------------------------------------------------------------------
# thinning
# ---------------------------------------------------------------------------

def test_choose_thinning():
    assert choose_thinning(2) == 5
    assert choose_thinning(100) == 50
    assert choose_thinning(20) == 50
    assert choose_thinning(19) == 5
    with pytest.raises(InvalidInputError):
        choose_thinning(0)


def test_estimate_thinning_lag():
    rng = np.random.default_rng(0)
    iid = rng.standard_normal(5000)
    assert estimate_thinning_lag(iid, 50) <= 2
    # strongly correlated: each value repeated 10 times
    blocky = np.repeat(rng.standard_normal(500), 10)
    assert estimate_thinning_lag(blocky, 50) >= 8
    assert estimate_thinning_lag(np.ones(100), 50) == 1


# ---------------------------------------------------------------------------
# mixture fitting
# ---------------------------------------------------------------------------

def test_gmm_identical_samples_fail_then_noise_recovers():
    theta = np.ones((60, 2))
    with pytest.raises(NumericalError):
        fit_gmm(theta, k_max=2, seed=0)
    rng = np.random.default_rng(1)
    theta = np.ones((200, 2)) + 1e-6 * rng.standard_normal((200, 2))
    q = fit_gmm(theta, k_max=3, seed=0)
    assert q.n_components == 1
    np.testing.assert_allclose(q.means[0], theta.mean(axis=0), atol=1e-7)


def test_gmm_recovers_two_component_mixture():
    rng = np.random.default_rng(3)
    n = 5000
    labels = rng.uniform(size=n) < 0.5
    theta = np.where(labels[:, None], 3.0, -3.0) + rng.standard_normal((n, 2))
    q = fit_gmm(theta, k_max=4, seed=1)
    assert q.n_components == 2
    means = q.means[np.argsort(q.means[:, 0])]
    np.testing.assert_allclose(means[0], [-3.0, -3.0], atol=0.1)
    np.testing.assert_allclose(means[1], [3.0, 3.0], atol=0.1)


def test_gmm_kmax_one_is_moment_match():
    rng = np.random.default_rng(4)
    theta = rng.standard_normal((400, 2)) * np.array([2.0, 0.5]) + 1.0
    q = fit_gmm(theta, k_max=1, seed=0)
    np.testing.assert_allclose(q.means[0], theta.mean(axis=0), atol=1e-6)
    np.testing.assert_allclose(q.covs[0], np.cov(theta.T, ddof=0), rtol=0.01)


def test_gmm_sample_size_gate():
    with pytest.raises(InvalidInputError):
        fit_gmm(np.random.default_rng(0).standard_normal((15, 2)), seed=0)


def test_gmm_deterministic_given_seed():
    rng = np.random.default_rng(5)
    theta = rng.standard_normal((300, 2))
    a = fit_gmm(theta, k_max=3, seed=9)
    b = fit_gmm(theta, k_max=3, seed=9)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_gmm_density_normalized_low_dim():
    rng = np.random.default_rng(6)
    theta = np.concatenate([rng.standard_normal((150, 1)) - 2,
                            0.5 * rng.standard_normal((150, 1)) + 1.5])
    q = fit_gmm(theta, k_max=3, seed=2)
    assert abs(q.weights.sum() - 1.0) < 1e-12
    x = np.linspace(-12, 12, 20001)[:, None]
    mass = trapezoid(np.exp(q.log_density(x)), x[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-4)


# Pinned fits.  The chosen K and the normalizing constant were recorded
# with the per-component reference kernel (one triangular solve per
# component and EM iteration); the batched kernel must reproduce both.

def _three_clusters_2d():
    rng = np.random.default_rng(101)
    return np.concatenate([
        rng.standard_normal((1000, 2)) * [1.0, 0.5] + [-4.0, 0.0],
        rng.standard_normal((900, 2)) @ [[1.0, 0.6], [0.0, 0.8]] + [3.0, 3.0],
        rng.standard_normal((600, 2)) * 0.7 + [2.0, -4.0]])


def _two_clusters_8d():
    rng = np.random.default_rng(102)
    return np.concatenate([
        rng.standard_normal((3500, 8)) * np.linspace(0.5, 2.0, 8),
        rng.standard_normal((2500, 8)) + np.r_[4.0, -3.0, np.zeros(6)]])


@pytest.mark.parametrize("make, k, c_h", [
    (_three_clusters_2d, 3, 5.600005778374117),
    (_two_clusters_8d, 2, 1552.7598505096466),
], ids=["2d-three-clusters", "8d-two-clusters"])
def test_fit_gmm_pinned_k_and_normalizing_constant(make, k, c_h):
    theta = make()
    n = theta.shape[0]
    samples = build_sample_set(theta, np.ones(n), np.zeros(n),
                               -0.5 * (theta ** 2).sum(axis=1))
    q = fit_gmm(samples, k_max=5, seed=7)
    assert q.n_components == k
    assert normalizing_constant(samples, q) == pytest.approx(c_h, rel=1e-9)


def test_fit_q_pinned_on_example2_run():
    spec = resolve_spec("example2")
    defaults = dict(spec.astpa_defaults)
    config = AstpaConfig(sigma=defaults.pop("sigma"), **defaults)
    _, art = run_astpa(make_benchmark(spec), config, seed=3)
    q = _fit_q(art.main, config, seed=5)
    assert q.n_components == 6          # five fitted plus the defensive one
    c_h = normalizing_constant(art.main, q)
    assert c_h == pytest.approx(0.00014896177127257963, rel=1e-9)
    assert estimate_pf(art.main, c_h) == pytest.approx(4.48155983962844e-05,
                                                       rel=1e-9)


def test_component_log_density_matches_triangular_solve():
    rng = np.random.default_rng(16)
    k, d = 4, 3
    a = rng.standard_normal((k, d, d))
    covs = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d)
    means = rng.standard_normal((k, d))
    q = GmmModel(np.full(k, 1.0 / k), means, covs)
    theta = 2.0 * rng.standard_normal((500, d))
    ref = np.empty((k, theta.shape[0]))
    for j in range(k):
        chol = np.linalg.cholesky(covs[j])
        sol = solve_triangular(chol, (theta - means[j]).T, lower=True)
        ref[j] = (-0.5 * d * math.log(2 * math.pi)
                  - np.log(np.diag(chol)).sum() - 0.5 * (sol ** 2).sum(axis=0))
    np.testing.assert_allclose(q.component_log_density(theta), ref,
                               rtol=1e-12)


def test_component_log_density_overflow_is_neg_inf_without_warning():
    q = GmmModel(np.array([0.5, 0.5]), np.array([[0.0, 0.0], [1.0, -1.0]]),
                 np.stack([np.eye(2), [[2.0, 0.3], [0.3, 1.0]]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp = q.component_log_density(np.array([[1e200, 1e200]]))
        log_q = q.log_density(np.array([[1e200, 1e200]]))
    assert np.isneginf(comp).all()
    assert np.isneginf(log_q).all()


def test_single_gaussian_moments():
    rng = np.random.default_rng(7)
    theta = rng.standard_normal((100_000, 10))
    q = fit_single_gaussian(theta)
    assert np.abs(q.means[0]).max() < 0.02
    assert np.linalg.norm(q.covs[0] - np.eye(10), 2) < 0.05


def test_single_gaussian_minimum_n():
    rng = np.random.default_rng(8)
    theta = rng.standard_normal((7, 5))
    q = fit_single_gaussian(theta)   # n = d + 2 boundary
    assert q.n_components == 1
    with pytest.raises(InvalidInputError):
        fit_single_gaussian(theta[:6])


def test_single_gaussian_spans_separated_clusters():
    rng = np.random.default_rng(9)
    theta = np.concatenate([rng.standard_normal((200, 2)) + [6, 0],
                            rng.standard_normal((200, 2)) - [6, 0]])
    q = fit_single_gaussian(theta)
    assert q.covs[0][0, 0] > 30.0
    assert q.covs[0][1, 1] < 2.0


def test_defensive_component_bounds_ratios():
    rng = np.random.default_rng(10)
    theta = rng.standard_normal((500, 2))
    q = fit_gmm(theta, k_max=2, seed=0)
    q_def = add_defensive_component(q, build_sample_set(
        theta, np.zeros(500), np.zeros(500), np.zeros(500)), weight=0.05)
    assert q_def.n_components == q.n_components + 1
    assert abs(q_def.weights.sum() - 1.0) < 1e-12
    far = np.array([[5.0, -5.0]])
    assert q_def.log_density(far)[0] > q.log_density(far)[0]


def test_subspace_density_matches_full_gaussian():
    # samples deformed along one axis only: subspace fit is a 1-D problem
    rng = np.random.default_rng(11)
    d, n = 30, 4000
    theta = rng.standard_normal((n, d))
    theta[:, 0] = 0.3 * theta[:, 0] + 2.5
    q = fit_subspace_density(build_sample_set(
        theta, np.zeros(n), np.zeros(n), np.zeros(n)), seed=0,
        defensive_weight=0.0)
    pts = rng.standard_normal((200, d))
    pts[:, 0] = pts[:, 0] * 0.3 + 2.5
    exact = (-0.5 * d * math.log(2 * math.pi) - math.log(0.3)
             - 0.5 * ((pts[:, 0] - 2.5) / 0.3) ** 2
             - 0.5 * (pts[:, 1:] ** 2).sum(axis=1))
    est = q.log_density(pts)
    assert np.abs(est - exact).mean() < 0.1


def test_subspace_density_far_point_is_neg_inf():
    # both squared norms of the far row overflow (inf - inf); the density
    # must still vanish there, quietly, and the estimator must say so
    rng = np.random.default_rng(17)
    d, n = 30, 3000
    theta = rng.standard_normal((n, d))
    theta[:, 0] = 0.5 * theta[:, 0] + 2.0
    q = fit_subspace_density(theta, seed=0)
    far = np.zeros((2, d))
    far[1, 5] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_q = q.log_density(far)
    assert np.isfinite(log_q[0])
    assert np.isneginf(log_q[1])
    samples = build_sample_set(far, np.zeros(2), np.zeros(2), np.zeros(2))
    with pytest.raises(NumericalError, match=r"index 1 \(log Q = -inf\)"):
        normalizing_constant(samples, q)


# ---------------------------------------------------------------------------
# normalizing constant
# ---------------------------------------------------------------------------

def test_normalizing_constant_proportional_targets():
    rng = np.random.default_rng(12)
    theta = rng.standard_normal((2000, 2))
    q = fit_gmm(theta, k_max=1, seed=0)
    log_q = q.log_density(theta)
    samples = build_sample_set(theta, np.zeros(2000), np.zeros(2000), log_q)
    assert normalizing_constant(samples, q) == pytest.approx(1.0, rel=1e-12)
    samples2 = build_sample_set(theta, np.zeros(2000), np.zeros(2000),
                                log_q + math.log(2.0))
    assert normalizing_constant(samples2, q) == pytest.approx(2.0, rel=1e-12)


def test_normalizing_constant_quadrature_oracle():
    # 1-D smoothed target for g = 2 - theta, sigma = 0.4, p = 0.1:
    # iid samples drawn by inverse-CDF on a fine grid, fully independent of
    # any sampler; the estimate must match trapezoid quadrature within 1%
    sigma, p = 0.4, 0.1
    g_fn = lambda th: 2.0 - th
    x = np.linspace(-10.0, 10.0, 1_000_001)
    _, log_h = logistic_weighted_normal(g_fn, sigma, p, x)
    h = np.exp(log_h)
    c_true = trapezoid(h, x)

    cdf = np.cumsum(h)
    cdf /= cdf[-1]
    rng = np.random.default_rng(13)
    u = rng.uniform(size=20_000)
    thetas = np.interp(u, cdf, x)
    log_ell_s, log_h_s = logistic_weighted_normal(g_fn, sigma, p, thetas)
    samples = build_sample_set(thetas, g_fn(thetas), log_ell_s, log_h_s)
    q = fit_gmm(samples, k_max=3, seed=3)
    c_est = normalizing_constant(samples, q)
    assert c_est == pytest.approx(c_true, rel=0.01)


def test_normalizing_constant_rejects_vanishing_density():
    # the squared Mahalanobis distance of the far point overflows, so its
    # log density is -inf in floating point, not merely very negative
    theta = np.array([[0.0, 0.0], [1e200, 1e200]])
    q = GmmModel(np.array([1.0]), np.zeros((1, 2)), np.eye(2)[None, :, :])
    samples = build_sample_set(theta, np.zeros(2), np.zeros(2),
                               np.zeros(2))
    assert np.isneginf(q.log_density(theta)).tolist() == [False, True]
    with pytest.raises(NumericalError, match="index 1"):
        normalizing_constant(samples, q)


def test_normalizing_constant_rejects_nan_log_density():
    class NanAtSecond:
        def log_density(self, thetas):
            return np.array([0.0, np.nan, 0.0])

    samples = build_sample_set(np.zeros(3), np.zeros(3), np.zeros(3),
                               np.zeros(3))
    with pytest.raises(NumericalError, match="index 1"):
        normalizing_constant(samples, NanAtSecond())


# ---------------------------------------------------------------------------
# estimator, variance, thinning
# ---------------------------------------------------------------------------

def test_estimate_pf_collapses_for_unit_likelihood():
    n = 100
    samples = build_sample_set(np.linspace(-1, 1, n), -np.ones(n),
                               np.zeros(n), np.zeros(n))
    assert estimate_pf(samples, c_h=0.37) == pytest.approx(0.37, rel=1e-12)


def test_estimate_pf_no_failures_warns():
    n = 50
    samples = build_sample_set(np.linspace(-1, 1, n), np.ones(n),
                               np.zeros(n), np.zeros(n))
    with pytest.warns(UserWarning, match="no failure samples"):
        assert estimate_pf(samples, c_h=1.0) == 0.0


def test_likelihood_scale_invariance():
    rng = np.random.default_rng(14)
    n = 400
    thetas = rng.standard_normal(n)
    g = 1.0 - thetas
    log_ell, log_h = logistic_weighted_normal(lambda t: 1.0 - t, 0.4, 0.1,
                                              thetas)
    samples = build_sample_set(thetas, g, log_ell, log_h)
    q = fit_gmm(samples, k_max=2, seed=4)
    c1 = normalizing_constant(samples, q)
    p1 = estimate_pf(samples, c1)
    k = 173.25
    scaled = build_sample_set(thetas, g, log_ell + math.log(k),
                              log_h + math.log(k))
    c2 = normalizing_constant(scaled, q)
    p2 = estimate_pf(scaled, c2)
    assert c2 == pytest.approx(k * c1, rel=1e-12)
    assert p2 == pytest.approx(p1, rel=1e-12)


def test_cov_analytic_constant_terms():
    n = 100
    samples = build_sample_set(np.linspace(-1, 1, n), -np.ones(n),
                               np.full(n, 0.3), np.zeros(n))
    c_h = 2.0
    p_hat = estimate_pf(samples, c_h)
    variance, cov = cov_analytic(samples, c_h, p_hat, lag=1)
    assert variance == pytest.approx(0.0, abs=1e-25)
    assert cov == pytest.approx(0.0, abs=1e-12)


def test_cov_analytic_thinning_counts():
    n = 100
    rng = np.random.default_rng(15)
    g = rng.choice([-1.0, 1.0], size=n)
    samples = build_sample_set(rng.standard_normal(n), g, np.zeros(n),
                               np.zeros(n))
    p_hat = estimate_pf(samples, 1.0)
    var1, _ = cov_analytic(samples, 1.0, p_hat, lag=1)      # N_s = N
    var5, _ = cov_analytic(samples, 1.0, p_hat, lag=5)      # N_s = 20
    assert var1 >= 0 and var5 >= 0
    assert var5 > var1  # fewer thinned samples, larger variance estimate


def test_cov_analytic_zero_p_hat():
    n = 60
    samples = build_sample_set(np.linspace(-1, 1, n), np.ones(n),
                               np.zeros(n), np.zeros(n))
    variance, cov = cov_analytic(samples, 1.0, 0.0, lag=5)
    assert cov is None
    assert variance >= 0.0


def test_estimate_report_invariant():
    rep = EstimateReport(p_hat=2e-6, c_h=0.1, variance=1e-13,
                         cov_analytic=math.sqrt(1e-13) / 2e-6, n_used=100,
                         thinning_lag=5, model_calls=600, accept_rate=0.7,
                         seed=1, wall_time=0.1)
    assert rep.cov_analytic == pytest.approx(math.sqrt(rep.variance) / rep.p_hat)
    d = rep.to_dict()
    assert d["p_hat"] == 2e-6 and d["model_calls"] == 600
