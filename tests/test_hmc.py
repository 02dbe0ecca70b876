import math
import warnings

import numpy as np
import pytest

from rareprob import (ChainState, DualAveraging, SmoothedTarget, TuningError,
                      find_reasonable_epsilon, hmc_iteration, jitter_tau,
                      leapfrog, make_benchmark, tune_trajectory)
from rareprob.hmc import hmc_transition, n_leapfrog_steps

from conftest import GaussianTarget


def make_state(target, theta):
    logp, grad, aux = target.logp_grad(np.asarray(theta, dtype=float))
    return ChainState(theta=np.asarray(theta, dtype=float), logp=logp,
                      grad=grad, aux=aux)


# ---------------------------------------------------------------------------
# leapfrog integrator
# ---------------------------------------------------------------------------

def test_leapfrog_single_step_harmonic_oscillator():
    # U = theta^2/2: one step from (1, 0) gives the exact recursion values
    target = GaussianTarget(np.eye(1))
    for eps in (0.3, 0.1, 0.05):
        theta, z, logp, grad, aux, ok = leapfrog(
            np.array([1.0]), np.array([0.0]), np.array([-1.0]), eps, 1,
            target.logp_grad)
        assert ok
        assert theta[0] == pytest.approx(1 - eps ** 2 / 2, rel=1e-12)
        assert z[0] == pytest.approx(-eps + eps ** 3 / 4, rel=1e-12)


def test_leapfrog_zero_step():
    target = GaussianTarget(np.eye(3))
    theta0 = np.array([0.3, -1.0, 2.0])
    z0 = np.array([0.5, 0.5, -0.5])
    theta, z, *_ = leapfrog(theta0, z0, -theta0, 0.0, 5, target.logp_grad)
    np.testing.assert_array_equal(theta, theta0)
    np.testing.assert_array_equal(z, z0)


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_leapfrog_reversibility(eps):
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.standard_normal((3, 3))
        target = GaussianTarget(a @ a.T + np.eye(3))
        theta0 = rng.standard_normal(3)
        z0 = rng.standard_normal(3)
        grad0 = target.logp_grad(theta0)[1]
        th, z, _, grad, _, ok = leapfrog(theta0, z0, grad0, eps, 7,
                                         target.logp_grad)
        assert ok
        th_b, z_b, *_ = leapfrog(th, -z, grad, eps, 7, target.logp_grad)
        np.testing.assert_allclose(th_b, theta0, atol=1e-10)
        np.testing.assert_allclose(-z_b, z0, atol=1e-10)


def test_leapfrog_reversibility_on_smoothed_target():
    model = make_benchmark("example1")
    target = SmoothedTarget(model, sigma=0.4, p=0.1)
    rng = np.random.default_rng(3)
    for eps in (0.1, 0.01):
        theta0 = rng.standard_normal(2)
        z0 = rng.standard_normal(2)
        grad0 = target.logp_grad(theta0)[1]
        th, z, _, grad, _, ok = leapfrog(theta0, z0, grad0, eps, 5,
                                         target.logp_grad)
        assert ok
        th_b, z_b, *_ = leapfrog(th, -z, grad, eps, 5, target.logp_grad)
        np.testing.assert_allclose(th_b, theta0, atol=1e-10)


def test_energy_error_second_order_scaling():
    # halving eps over a fixed trajectory length shrinks max |dH| ~4x
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    target = GaussianTarget(a @ a.T + 2 * np.eye(4))
    theta0 = rng.standard_normal(4)
    z0 = rng.standard_normal(4)
    tau = 1.0

    def max_dh(eps):
        n = int(round(tau / eps))
        h0 = -target.logp_grad(theta0)[0] + 0.5 * z0 @ z0
        th, z, grad = theta0.copy(), z0.copy(), target.logp_grad(theta0)[1]
        worst = 0.0
        for _ in range(n):
            th, z, logp, grad, _, ok = leapfrog(th, z, grad, eps, 1,
                                                target.logp_grad)
            assert ok
            worst = max(worst, abs(-logp + 0.5 * z @ z - h0))
        return worst

    ratio = max_dh(0.05) / max_dh(0.025)
    assert 3.5 <= ratio <= 4.5


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------

def test_zero_energy_change_always_accepts():
    target = GaussianTarget(np.eye(2))
    state = make_state(target, [0.5, -0.5])
    rng = np.random.default_rng(0)
    # eps = 0 keeps the Hamiltonian exactly: alpha = 1, always accepted
    for _ in range(10):
        new, info = hmc_transition(state, target.logp_grad, 0.0, 3, rng)
        assert info["alpha"] == 1.0
        assert info["accepted"]


def test_standard_normal_moments():
    target = GaussianTarget(np.eye(2))
    rng = np.random.default_rng(99)
    state = make_state(target, np.zeros(2))
    draws = np.empty((10_000, 2))
    for i in range(draws.shape[0]):
        state, _ = hmc_iteration(state, target.logp_grad, 0.6, 1.5, rng)
        draws[i] = state.theta
    se = 1.0 / math.sqrt(draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0)) < 3 * se * math.sqrt(10))
    assert np.all((0.9 < draws.var(axis=0)) & (draws.var(axis=0) < 1.1))


def test_detailed_balance_two_cell():
    # asymmetric 1-D target: visit frequency of theta < 0 matches quadrature
    class Skewed:
        d = 1

        def logp_grad(self, theta, params=None):
            t = float(theta[0])
            return -0.5 * t * t + 0.5 * t, np.array([-t + 0.5]), None

    target = Skewed()
    x = np.linspace(-9, 9, 200_001)
    dens = np.exp(-0.5 * x ** 2 + 0.5 * x)
    mass_below = dens[x < 0].sum() / dens.sum()

    rng = np.random.default_rng(12)
    state = make_state(target, np.zeros(1))
    hits = 0
    n = 30_000
    for _ in range(n):
        state, _ = hmc_iteration(state, target.logp_grad, 0.7, 1.2, rng)
        hits += state.theta[0] < 0
    assert abs(hits / n - mass_below) < 0.02


def test_alpha_in_unit_interval():
    target = GaussianTarget(np.eye(2))
    rng = np.random.default_rng(4)
    state = make_state(target, np.zeros(2))
    for _ in range(200):
        state, info = hmc_iteration(state, target.logp_grad, 1.5, 1.0, rng)
        assert 0.0 <= info["alpha"] <= 1.0


def test_model_call_accounting_per_iteration():
    model = make_benchmark("example1")
    target = SmoothedTarget(model, sigma=0.4, p=0.1)
    state = make_state(target, np.zeros(2))
    rng = np.random.default_rng(1)
    before = model.call_count
    _, info = hmc_transition(state, target.logp_grad, 0.2, 4, rng)
    assert model.call_count - before == info["n_steps"] == 4


def test_divergence_flag_on_huge_step():
    target = GaussianTarget(np.eye(2) * 1e6)
    state = make_state(target, np.array([1.0, 1.0]))
    rng = np.random.default_rng(2)
    _, info = hmc_transition(state, target.logp_grad, 10.0, 10, rng)
    assert info["diverged"]
    assert not info["accepted"]


def test_runaway_momentum_diverges_without_warning():
    # a huge finite gradient keeps theta and z finite but overflows z'z in
    # the identity kinetic energy; that is a divergence, not a warning
    big = np.full(2, 1e160)
    state = ChainState(theta=np.zeros(2), logp=0.0, grad=big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, info = hmc_transition(state, lambda th: (0.0, big, None), 1.0, 1,
                                 np.random.default_rng(3))
    assert info["diverged"]
    assert not info["accepted"]


# ---------------------------------------------------------------------------
# dual averaging
# ---------------------------------------------------------------------------

def test_dual_averaging_fixed_point():
    da = DualAveraging(0.25, target_accept=0.65)
    for _ in range(200):
        da.update(0.65)
    assert da.frozen_eps == pytest.approx(math.exp(da.mu), rel=1e-9)


def test_dual_averaging_monotone_shrink_and_grow():
    da = DualAveraging(0.25)
    vals = [da.update(0.0) for _ in range(50)]
    assert np.all(np.diff(vals) < 0)
    da = DualAveraging(0.25)
    vals = [da.update(1.0) for _ in range(50)]
    assert np.all(np.diff(vals) > 0)


def test_find_reasonable_epsilon_scale():
    # tight Gaussian needs a small step; wide Gaussian tolerates a big one
    rng = np.random.default_rng(0)
    tight = GaussianTarget(np.eye(2) * 400.0)
    eps_tight = find_reasonable_epsilon(make_state(tight, np.array([0.2, 0.1])),
                                        tight.logp_grad, rng)
    wide = GaussianTarget(np.eye(2))
    eps_wide = find_reasonable_epsilon(make_state(wide, np.array([0.2, 0.1])),
                                       wide.logp_grad,
                                       np.random.default_rng(0))
    assert eps_tight < eps_wide
    assert eps_tight < 0.5


# ---------------------------------------------------------------------------
# trajectory length
# ---------------------------------------------------------------------------

def test_jitter_support_and_mean():
    rng = np.random.default_rng(7)
    draws = np.array([jitter_tau(1.0, rng) for _ in range(100_000)])
    assert draws.min() >= 0.9 and draws.max() <= 1.1
    se = (0.2 / math.sqrt(12.0)) / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) < 3 * se
    d7 = jitter_tau(0.7, rng)
    assert 0.63 <= d7 <= 0.77


def test_jitter_midpoint_stub():
    class MidRng:
        def uniform(self, lo, hi):
            return 0.5 * (lo + hi)

    assert jitter_tau(0.7, MidRng()) == pytest.approx(0.7, rel=1e-15)


def test_n_leapfrog_steps():
    assert n_leapfrog_steps(0.8, 0.2) == 4
    assert n_leapfrog_steps(0.7, 0.35) == 2
    assert n_leapfrog_steps(0.1, 5.0) == 1
    assert n_leapfrog_steps(10.0, 0.01, max_steps=30) == 30


def test_tune_trajectory_singleton():
    target = GaussianTarget(np.eye(2))
    assert tune_trajectory(target, [0.7], pilot_iters=5, seed=0) == 0.7


def test_tune_trajectory_prefers_long_jumps():
    target = GaussianTarget(np.eye(2))
    tau = tune_trajectory(target, [0.01, 0.7], pilot_iters=200, seed=1)
    assert tau == 0.7


def test_tune_trajectory_all_divergent():
    class Broken:
        d = 2

        def logp_grad(self, theta, params=None):
            return math.nan, np.full(2, math.nan), None

    with pytest.raises(TuningError):
        tune_trajectory(Broken(), [0.5, 1.0], pilot_iters=5, seed=0)
    with pytest.raises(TuningError):
        tune_trajectory(GaussianTarget(np.eye(2)), [], pilot_iters=5, seed=0)


# ---------------------------------------------------------------------------
# acceptance level at the published benchmark settings
# ---------------------------------------------------------------------------

def test_mean_acceptance_band_on_benchmark1():
    # Dual averaging drives the adaptive-phase acceptance to ~65%; the
    # frozen averaged step then lands the sampling phase on the stable side
    # of that target, inside the 60-80% band considered optimal.
    from rareprob import AstpaConfig, run_astpa

    adaptive, main = [], []
    for seed in range(10):
        model = make_benchmark("example1")
        cfg = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=100, budget=1600,
                          max_leapfrog_steps=30)
        report, art = run_astpa(model, cfg, seed=600 + seed, method="hmcmc")
        adaptive.append(art.burnin_accept_rate)
        main.append(report.accept_rate)
    assert 0.55 <= float(np.mean(adaptive)) <= 0.75
    assert 0.55 <= float(np.mean(main)) <= 0.85
