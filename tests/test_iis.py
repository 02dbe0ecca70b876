import math
import warnings

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.linalg import solve_triangular

from rareprob import (AstpaConfig, GmmModel,
                      InvalidInputError, NumericalError, SampleSet,
                      choose_thinning, cov_analytic, estimate_pf, fit_gmm,
                      fit_single_gaussian, make_benchmark,
                      normalizing_constant, resolve_spec, run_astpa)
from rareprob.iis import (SubspaceDensity, _distinct_rows, _em_fit, _FitRows,
                          _kmeans_start, _split_start, add_defensive_component,
                          deformed_subspace, estimate_thinning_lag,
                          fit_subspace_density, row_sq_norms, ROW_BLOCK)
from rareprob.target import SCALE_RATIO, log_weight_omega, softplus


def logistic_weighted_normal(g_fn, sigma, p, thetas):
    """log h~ for a 1-D limit state under the smoothed-target construction."""
    c = SCALE_RATIO * sigma
    mu = -c * math.log(p / (1 - p))
    u = (g_fn(thetas) + mu) / c
    log_ell = log_weight_omega(mu, sigma) - softplus(u)
    return log_ell, log_ell - 0.5 * math.log(2 * math.pi) - 0.5 * thetas ** 2


def build_sample_set(thetas, g, log_ell, log_h):
    return SampleSet(theta=np.atleast_2d(thetas).T if np.ndim(thetas) == 1
                     else thetas, g=g, log_ell=log_ell, log_h=log_h)


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
# with the warm-started K sweep over the distinct rows; a change to the
# fit's starts, weighting or kernel shows up here.

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
    (_three_clusters_2d, 3, 5.599991029368984),
    (_two_clusters_8d, 2, 1552.7510076923863),
], ids=["2d-three-clusters", "8d-two-clusters"])
def test_fit_gmm_pinned_k_and_normalizing_constant(make, k, c_h):
    theta = make()
    n = theta.shape[0]
    samples = build_sample_set(theta, np.ones(n), np.zeros(n),
                               -0.5 * (theta ** 2).sum(axis=1))
    q = fit_gmm(samples.theta, k_max=5, seed=7)
    assert q.n_components == k
    assert normalizing_constant(samples, q) == pytest.approx(c_h, rel=1e-9)


def test_fit_q_pinned_on_example2_run():
    spec = resolve_spec("example2")
    defaults = dict(spec.astpa_defaults)
    config = AstpaConfig(sigma=defaults.pop("sigma"), **defaults)
    _, art = run_astpa(make_benchmark(spec), config, seed=3)
    q = fit_subspace_density(art.main.theta, seed=5)
    assert q.n_components == 6          # five fitted plus the defensive one
    c_h = normalizing_constant(art.main, q)
    assert c_h == pytest.approx(0.0001489593083049333, rel=1e-9)
    assert estimate_pf(art.main, c_h) == pytest.approx(4.481485740503573e-05,
                                                       rel=1e-9)


def test_low_dimensional_q_is_the_mixture_on_an_identity_basis():
    # up to GMM_DIM_LIMIT dimensions with 10 samples per dimension the basis
    # is the identity and the complement empty, so Q is bit for bit the
    # full-space mixture plus its defensive component
    theta = _three_clusters_2d()
    q = fit_subspace_density(theta, seed=7)
    np.testing.assert_array_equal(q.basis, np.eye(2))
    ref = add_defensive_component(fit_gmm(theta, k_max=5, seed=7), theta)
    pts = np.concatenate([theta, [[0.0, 0.0], [25.0, -30.0]]])
    assert np.array_equal(q.log_density(pts), ref.log_density(pts))


def test_small_low_dimensional_set_keeps_the_deformed_subspace():
    # fewer than 10 samples per dimension cannot support a full covariance,
    # so Q keeps the few deformed directions and the exact prior on the rest
    rng = np.random.default_rng(4)
    theta = rng.standard_normal((30, 5))
    theta[:, 0] = 0.3 * theta[:, 0] + 2.0
    q = fit_subspace_density(theta, seed=0)
    np.testing.assert_array_equal(q.basis, deformed_subspace(theta))
    assert q.basis.shape[1] < 5


def test_distinct_rows_folds_only_adjacent_repeats():
    a, b, c = [0.0, 1.0], [2.0, -1.0], [0.0, 1.5]
    theta = np.array([a, a, a, b, c, c, a, b, b])
    rows, counts = _distinct_rows(theta)
    np.testing.assert_array_equal(rows, [a, b, c, a, b])
    np.testing.assert_array_equal(counts, [3, 1, 2, 1, 2])
    assert counts.sum() == theta.shape[0]


def test_em_on_counted_rows_matches_em_on_repeated_rows():
    rng = np.random.default_rng(21)
    rows = np.concatenate([rng.standard_normal((150, 2)) + [-2.0, 0.0],
                           rng.standard_normal((100, 2)) * 0.6 + [2.0, 1.0]])
    counts = rng.integers(1, 6, size=rows.shape[0])
    expanded = np.repeat(rows, counts, axis=0)
    start = _kmeans_start(_FitRows.of(rows, counts), 3, np.random.default_rng(4))
    q_rows, ll_rows = _em_fit(_FitRows.of(rows, counts), start)
    q_full, ll_full = _em_fit(
        _FitRows.of(expanded, np.ones(expanded.shape[0], dtype=int)), start)
    assert ll_rows == pytest.approx(ll_full, rel=1e-10)
    for attr in ("weights", "means", "covs"):
        np.testing.assert_allclose(getattr(q_rows, attr), getattr(q_full, attr),
                                   rtol=1e-10)


def test_component_collapsing_onto_a_stuck_state_stays_nonsingular():
    # a stuck chain repeats one state; EM on the folded rows drives the
    # component that captures it to an exactly zero covariance, which the
    # collapse floor keeps a sharp, converged spike instead of a failed start
    rng = np.random.default_rng(23)
    stuck = np.array([0.7, -0.3])
    theta = np.concatenate([rng.standard_normal((300, 2)),
                            np.tile(stuck, (400, 1)),
                            rng.standard_normal((300, 2))])
    rows, counts = _distinct_rows(theta)
    spike = GmmModel([0.5, 0.5], [[0.0, 0.0], stuck], [np.eye(2), 0.01 * np.eye(2)])
    q, loglik = _em_fit(_FitRows.of(rows, counts), spike)
    assert math.isfinite(loglik)
    assert q.weights[1] == pytest.approx(0.4, abs=1e-6)
    np.testing.assert_allclose(q.means[1], stuck, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(q.covs[1]) > 0.0)
    assert fit_gmm(theta, k_max=3, seed=0).n_components >= 2


def test_split_start_keeps_weights_and_component_mean():
    weights = np.array([0.3, 0.7])
    means = np.array([[0.0, 0.0], [1.0, -2.0]])
    covs = np.array([np.eye(2), [[2.0, 0.5], [0.5, 1.0]]])
    q = _split_start(GmmModel(weights, means, covs))
    assert q.n_components == 3
    assert q.weights.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(q.weights, [0.3, 0.35, 0.35])
    np.testing.assert_allclose(q.weights[1] * q.means[1] + q.weights[2] * q.means[2],
                               0.7 * means[1], atol=1e-14)
    lam, vec = np.linalg.eigh(covs[1])
    np.testing.assert_allclose(np.abs((q.means[2] - q.means[1]) @ vec[:, -1]),
                               2.0 * math.sqrt(lam[-1]), rtol=1e-12)
    np.testing.assert_array_equal(q.covs[1], covs[1])
    np.testing.assert_array_equal(q.covs[2], covs[1])


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
    np.testing.assert_allclose(q.component_log_density(theta.T.copy()), ref,
                               rtol=1e-12)


def test_component_log_density_overflow_is_neg_inf_without_warning():
    q = GmmModel(np.array([0.5, 0.5]), np.array([[0.0, 0.0], [1.0, -1.0]]),
                 np.stack([np.eye(2), [[2.0, 0.3], [0.3, 1.0]]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comp = q.component_log_density(np.array([[1e200], [1e200]]))
        log_q = q.log_density(np.array([[1e200, 1e200]]))
    assert np.isneginf(comp).all()
    assert np.isneginf(log_q).all()


@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, 2 * ROW_BLOCK + 3])
@pytest.mark.parametrize("d", [1, 2, 100])
def test_row_sq_norms_match_the_whole_array_sum_bit_for_bit(n, d):
    # the golden chain hashes rest on log_h, so blocking must not move a bit;
    # a row slice of a wider block is what the pipeline passes
    rng = np.random.default_rng(n + d)
    theta = (rng.standard_normal((n + 7, d)) * rng.exponential(size=(n + 7, 1)))[:n]
    assert row_sq_norms(theta).tobytes() == (theta ** 2).sum(axis=1).tobytes()


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
    q_def = add_defensive_component(q, theta)
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
    q = fit_subspace_density(theta, seed=0)
    # compare the fitted mixture without its defensive (last) component
    mix = q.subspace_model
    w = mix.weights[:-1]
    q = SubspaceDensity(q.basis, GmmModel(w / w.sum(), mix.means[:-1],
                                          mix.covs[:-1]))
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
    q = fit_gmm(samples.theta, k_max=3, seed=3)
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
    q = fit_gmm(samples.theta, k_max=2, seed=4)
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
    # the reported CoV of a real run is the reported standard error over p_hat
    spec = resolve_spec("example1")
    report, _ = run_astpa(make_benchmark(spec), AstpaConfig(**spec.astpa_defaults),
                          seed=4)
    assert report.p_hat > 0.0
    assert report.cov_analytic == math.sqrt(report.variance) / report.p_hat
