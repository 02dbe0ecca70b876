import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from rareprob import (AnnealSchedule, ConfigurationError, InvalidInputError,
                      SmoothedTarget, compute_g_c,
                      make_benchmark, mu_from_percentile)
from rareprob.target import (MU0, SCALE_RATIO, SIGMA0, LikelihoodParams,
                             log_weight_omega, softplus)

from rareprob import LimitStateModel

from conftest import PROPERTY, make_constant_model


# ---------------------------------------------------------------------------
# g_c case rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g0,expected", [
    (4.0, 1.0), (9.0, 9.0), (0.5, 0.5), (8.0, 1.0), (1.0, 1.0),
    (8.0001, 8.0001), (0.0, 1.0), (-3.0, 1.0),
])
def test_compute_g_c(g0, expected):
    assert compute_g_c(g0) == expected


def test_compute_g_c_nonfinite():
    with pytest.raises(InvalidInputError):
        compute_g_c(math.nan)


# ---------------------------------------------------------------------------
# percentile location and weight
# ---------------------------------------------------------------------------

def test_mu_from_percentile_median_is_zero():
    assert mu_from_percentile(0.5, 0.3) == 0.0


def test_mu_from_percentile_p10():
    # frozen from 50-digit evaluation of (sqrt(3)/pi) * 0.4 * ln(9)
    with mpmath.workdps(50):
        expected = float(mpmath.sqrt(3) / mpmath.pi * mpmath.mpf("0.4")
                         * mpmath.log(9))
    assert expected == pytest.approx(0.48455, abs=1e-5)
    assert mu_from_percentile(0.1, 0.4) == pytest.approx(expected, abs=1e-5)


def test_mu_from_percentile_antisymmetry():
    assert mu_from_percentile(0.9, 0.4) == pytest.approx(
        -mu_from_percentile(0.1, 0.4), rel=1e-12)


def test_mu_from_percentile_domain():
    with pytest.raises(InvalidInputError):
        mu_from_percentile(0.0, 0.4)
    with pytest.raises(InvalidInputError):
        mu_from_percentile(1.0, 0.4)


def test_weight_omega_values():
    def omega(mu, sigma):
        return math.exp(log_weight_omega(mu, sigma))

    assert omega(0.0, 0.5) == pytest.approx(math.pi / math.sqrt(3), rel=1e-12)
    assert omega(0.0, 0.25) == pytest.approx(2 * math.pi / math.sqrt(3),
                                             rel=1e-12)
    # exp term vanishes for mu -> -inf: limit 1/(4c)
    c = SCALE_RATIO * 0.5
    assert omega(-200.0, 0.5) == pytest.approx(1.0 / (4 * c), rel=1e-12)


def test_omega_matches_pdf_cdf_at_zero():
    # Omega * F(0 | mu=0, sigma) must equal the logistic density peak 1/(4c)
    for sigma in (0.1, 0.4, 0.8):
        c = SCALE_RATIO * sigma
        log_f0 = log_weight_omega(0.0, sigma) - softplus(0.0)
        assert math.exp(log_f0) == pytest.approx(1.0 / (4 * c), rel=1e-12)


def test_softplus_large_argument():
    assert 50.0 <= softplus(50.0) <= 50.0 + 1e-20
    assert softplus(-800.0) == 0.0
    assert softplus(800.0) == 800.0


def test_softplus_float_path_matches_array_path_bit_for_bit():
    # a float skips the array round trip; a 0-d array takes the array path
    rng = np.random.default_rng(5)
    edges = [sign * v for v in (0.0, 1e-300, 700.0, 750.0, 1e308, math.inf)
             for sign in (1.0, -1.0)] + [math.nan]
    normals = [float(x) for scale in (0.1, 1.0, 10.0, 100.0, 1000.0)
               for x in scale * rng.standard_normal(2000)]
    for u in edges + normals:
        fast = softplus(u)
        assert type(fast) is float
        assert fast.hex() == softplus(np.array(u)).hex(), u


@pytest.mark.parametrize("sigma,mu_g", [(SIGMA0, MU0), (0.4, 0.5), (0.05, -0.3),
                                        (1e-6, 2.0)])
def test_likelihood_params_derived_values_are_exact(sigma, mu_g):
    params = LikelihoodParams(sigma=sigma, mu_g=mu_g, g_c=1.0)
    for _ in range(2):    # computed on first use, read back after
        assert params.c == SCALE_RATIO * sigma
        assert params.log_omega == log_weight_omega(mu_g, sigma)


# ---------------------------------------------------------------------------
# log-density and gradient
# ---------------------------------------------------------------------------

def test_log_target_trivial_case():
    # g == 0 everywhere, mu_g = 0 (p = 0.5), g_c = 1, theta = 0, d = 2
    model = make_constant_model(0.0, dim=2)
    target = SmoothedTarget(model, sigma=0.4, p=0.5)
    logp, _, aux = target.logp_grad(np.zeros(2))
    expected = log_weight_omega(0.0, 0.4) + math.log(0.5) - math.log(2 * math.pi)
    assert logp == pytest.approx(expected, rel=1e-12)
    assert aux[0] == 0.0


def test_log_target_against_arbitrary_precision():
    # benchmark 1 at theta = (3, 3), sigma = 0.4, p = 0.1
    model = make_benchmark("example1")
    target = SmoothedTarget(model, sigma=0.4, p=0.1)
    theta = np.array([3.0, 3.0])
    logp, _, _ = target.logp_grad(theta)

    with mpmath.workdps(60):
        sigma = mpmath.mpf("0.4")
        c = mpmath.sqrt(3) / mpmath.pi * sigma
        mu = -c * mpmath.log(mpmath.mpf("0.1") / mpmath.mpf("0.9"))
        g = 4 - (theta[0] + theta[1]) / mpmath.sqrt(2) \
            + mpmath.mpf("2.5") * (theta[0] - theta[1]) ** 2
        omega = (1 + mpmath.e ** (mu / c)) / (4 * c)
        h = omega / (1 + mpmath.e ** ((g + mu) / c)) \
            * mpmath.e ** (-(theta[0] ** 2 + theta[1] ** 2) / 2) / (2 * mpmath.pi)
        expected = float(mpmath.log(h))
    assert logp == pytest.approx(expected, rel=1e-10)


def test_grad_zero_at_origin_for_flat_gradient_model():
    # g = |theta|^2 + 1 has zero model gradient at the origin
    model = LimitStateModel("bowl", 2,
                            lambda th: (float(th @ th) + 1.0, 2.0 * th))
    target = SmoothedTarget(model, sigma=0.5, p=0.5)
    _, grad, _ = target.logp_grad(np.zeros(2))
    np.testing.assert_allclose(grad, np.zeros(2), atol=1e-15)


@pytest.mark.parametrize("benchmark_id", ["example1", "example2", "example4",
                                          "example7"])
def test_grad_matches_finite_difference_of_log_target(benchmark_id):
    model = make_benchmark(benchmark_id)
    target = SmoothedTarget(model, sigma=0.4, p=0.1)
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.standard_normal(model.dim)
        _, grad, _ = target.logp_grad(theta)
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            hi, lo = theta.copy(), theta.copy()
            hi[i] += 1e-6
            lo[i] -= 1e-6
            fd[i] = (target.logp_grad(hi)[0] - target.logp_grad(lo)[0]) / 2e-6
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(grad), 1e-6)


def test_gradient_prior_limit():
    # deep inside the failure domain the sigmoid term vanishes: grad -> -theta
    model = make_benchmark("example1")
    target = SmoothedTarget(model, sigma=0.1, p=0.5)
    theta = np.array([8.0, 8.0])    # g = 4 - 16/sqrt(2), far below zero
    _, grad, _ = target.logp_grad(theta)
    np.testing.assert_allclose(grad, -theta, atol=1e-6)


def test_view_of_divergent_point_is_minus_inf_without_warning():
    # |theta|^2 overflows far out on a runaway trajectory
    target = SmoothedTarget(make_benchmark("example8"), sigma=0.4, p=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logp, _ = target.view(np.full(100, 1e160), 5.0, np.zeros(100))
    assert logp == -math.inf


def test_view_of_a_huge_model_gradient_is_non_finite_without_warning():
    # the likelihood term of the gradient overflows for a huge but finite
    # grad g; the leapfrog counts the non-finite gradient as a divergence
    target = SmoothedTarget(make_benchmark("example8"), sigma=0.4, p=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, grad = target.view(np.zeros(100), 5.0, np.full(100, 1e308))
    assert not np.isfinite(grad).any()


def _points_and_slopes(theta_bound, slope_bound):
    """(theta_i, a_i) pairs of a 1- to 5-dim point and linear-model slope."""
    pair = st.tuples(st.floats(-theta_bound, theta_bound),
                     st.floats(-slope_bound, slope_bound))
    return st.integers(1, 5).flatmap(lambda d: st.tuples(*[pair] * d))


def _linear_target(a, b, sigma, p):
    model = LimitStateModel("affine", a.size, lambda th: (float(a @ th) + b, a))
    return SmoothedTarget(model, sigma=sigma, p=p)


# g = a.theta + b with g_c = 1 (b <= 0 or 1 <= b <= 8) and sigma >= 0.1, so
# the likelihood is smooth enough for a finite-difference check
@PROPERTY
@given(theta_a=_points_and_slopes(5.0, 3.0),
       b=st.floats(-4.0, 0.0) | st.floats(1.0, 8.0),
       sigma=st.floats(0.1, 1.0), p=st.floats(0.01, 0.99),
       dg=st.floats(0.0, 50.0))
def test_view_properties_on_a_linear_model(theta_a, b, sigma, p, dg):
    theta, a = (np.array(v) for v in zip(*theta_a))
    target = _linear_target(a, b, sigma, p)
    g = float(a @ theta) + b
    logp, grad = target.view(theta, g, a)
    # the log density is ln ell plus the standard normal prior's
    assert logp == (target.log_likelihood(g) - 0.5 * theta.size * math.log(2.0 * math.pi)
                    - 0.5 * float(theta @ theta))
    # a larger g (further into the safe domain) never raises the density
    assert target.view(theta, g + dg, a)[0] <= logp

    def logp_at(th):
        return target.view(th, float(a @ th) + b, a)[0]

    h = 1e-6
    fd = np.array([(logp_at(theta + h * e) - logp_at(theta - h * e)) / (2 * h)
                   for e in np.eye(theta.size)])
    assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(grad), 1.0)


@PROPERTY
@given(theta_a=_points_and_slopes(1e3, 1e3), b=st.floats(-1e3, 1e3),
       sigma=st.floats(1e-3, 1.0), p=st.floats(1e-6, 1.0 - 1e-6))
def test_view_is_finite_for_finite_inputs(theta_a, b, sigma, p):
    theta, a = (np.array(v) for v in zip(*theta_a))
    target = _linear_target(a, b, sigma, p)
    logp, grad = target.view(theta, float(a @ theta) + b, a)
    log_ell = target.log_likelihood(float(a @ theta) + b)
    assert math.isfinite(logp) and math.isfinite(log_ell)
    assert np.all(np.isfinite(grad))


def test_log_target_monotone_in_g():
    # for fixed |theta|, larger g means smaller likelihood and density
    model = make_constant_model(0.0, dim=2)
    target = SmoothedTarget(model, sigma=0.4, p=0.1)
    gs = np.linspace(-5, 10, 50)
    vals = target.log_likelihood(gs)
    assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# annealing schedules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_burnin", [2, 10, 100, 500])
def test_annealing_endpoints(n_burnin):
    sigma_final = 0.4
    mu_final = mu_from_percentile(0.1, sigma_final)
    sched = AnnealSchedule(sigma_final=sigma_final, mu_final=mu_final,
                           n_burnin=n_burnin)
    s1, m1 = sched.at(1)
    assert s1 == pytest.approx(1.0, rel=1e-12)
    assert m1 == pytest.approx(1e-4, rel=1e-9)
    send, mend = sched.at(n_burnin)
    assert send == pytest.approx(sigma_final, rel=1e-12)
    assert mend == pytest.approx(mu_final, rel=1e-9)
    # past the burn-in horizon the schedule stays at the final constants
    assert sched.at(n_burnin + 100) == (send, mend)


# a subnormal sigma_final overflows SIGMA0 / sigma_final; 1e-6 is far below
# any dispersion in use
@PROPERTY
@given(sigma_final=st.floats(1e-6, 1.0),
       p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       n_burnin=st.integers(2, 2000))
def test_annealing_schedule_properties(sigma_final, p, n_burnin):
    mu_final = mu_from_percentile(p, sigma_final)
    sched = AnnealSchedule(sigma_final=sigma_final, mu_final=mu_final,
                           n_burnin=n_burnin)
    sigmas, mus = np.array([sched.at(i) for i in range(1, n_burnin + 1)]).T
    assert sigmas[0] == pytest.approx(SIGMA0, rel=1e-12)
    # a location at or below zero (percentile >= 0.5) is not annealed
    assert mus[0] == pytest.approx(MU0 if mu_final > 0 else mu_final, rel=1e-9)
    assert sigmas[-1] == pytest.approx(sigma_final, rel=1e-9)
    assert mus[-1] == pytest.approx(mu_final, rel=1e-9)
    assert np.all(np.diff(sigmas) <= 0.0)
    assert sched.at(n_burnin + 1) == sched.at(10 * n_burnin) == (sigmas[-1], mus[-1])


def test_sigma_strictly_decreasing():
    sched = AnnealSchedule(sigma_final=0.3, mu_final=0.4, n_burnin=50)
    sigmas = [sched.at(i)[0] for i in range(1, 51)]
    assert np.all(np.diff(sigmas) < 0)


@pytest.mark.parametrize("sigma_final", [5e-324, 1e-310])
def test_annealing_to_a_subnormal_sigma_is_a_configuration_error(sigma_final):
    # SIGMA0 / sigma_final overflows: the schedule would divide by zero
    with pytest.raises(ConfigurationError, match="sigma_final"):
        AnnealSchedule(sigma_final=sigma_final,
                       mu_final=mu_from_percentile(0.1, sigma_final), n_burnin=20)
    # MU0 / mu_final overflows below about 5.6e-313
    with pytest.raises(ConfigurationError, match="mu_final"):
        AnnealSchedule(sigma_final=0.4, mu_final=min(sigma_final, 1e-313),
                       n_burnin=20)


def test_annealing_to_the_smallest_normal_sigma_still_works():
    tiny = sys.float_info.min
    sched = AnnealSchedule(sigma_final=tiny, mu_final=mu_from_percentile(0.1, tiny),
                           n_burnin=20)
    assert sched.at(1)[0] == pytest.approx(SIGMA0, rel=1e-12)
    assert sched.at(20)[0] == pytest.approx(tiny, rel=1e-9)


def test_annealing_requires_two_iterations():
    with pytest.raises(ConfigurationError):
        AnnealSchedule(sigma_final=0.4, mu_final=0.3, n_burnin=1)


def test_params_at_follows_the_schedule():
    target = SmoothedTarget(make_constant_model(9.0, dim=2), sigma=0.4, p=0.1)
    assert target.params_at(1) is target.final_params    # not annealed yet
    target.anneal(20)
    params = target.params_at(1)
    assert params.sigma == pytest.approx(1.0)
    assert params.g_c == 9.0
    assert (params.sigma, params.mu_g) == target.schedule.at(1)
    assert target.params_at(25) == target.params_at(20)
    with pytest.raises(InvalidInputError):
        target.params_at(0)
