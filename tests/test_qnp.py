import math
import warnings

import numpy as np
import pytest

from rareprob import hmc, qnp
from rareprob import (BfgsState, MassState, NumericalError, bfgs_update,
                      ensure_spd, finalize_mass, hmc_iteration,
                      make_benchmark, qnp_burnin_iteration, qnp_main_iteration,
                      SmoothedTarget)
from rareprob.hmc import ChainState, leapfrog
from rareprob.qnp import is_spd

from conftest import GaussianTarget


def make_state(target, theta):
    logp, grad, aux = target.logp_grad(np.asarray(theta, dtype=float))
    return ChainState(theta=np.asarray(theta, dtype=float), logp=logp,
                      grad=grad, aux=aux)


# ---------------------------------------------------------------------------
# rank-two update
# ---------------------------------------------------------------------------

def test_update_identity_fixed_point():
    s = np.array([0.3, -0.7, 1.1])
    w = bfgs_update(np.eye(3), s, s)
    np.testing.assert_allclose(w, np.eye(3), atol=1e-12)


def test_update_secant_by_direct_arithmetic():
    w = bfgs_update(np.eye(2), np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    np.testing.assert_allclose(w, [[0.5, 0.0], [0.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose(w @ np.array([2.0, 0.0]), [1.0, 0.0], atol=1e-14)


def test_update_skips_degenerate_pair():
    assert bfgs_update(np.eye(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])) is None
    state = BfgsState(2)
    assert not state.update(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert state.n_updates == 0 and state.n_skipped == 1


def test_update_skips_overflowing_pair_without_warning():
    # a pair from a divergent step: y.s and both norms overflow
    big = np.full(3, 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bfgs_update(np.eye(3), big, -big) is None


def _textbook_bfgs_update(w, s, y, gate=1e-12, norm_cap=1e3):
    ys = float(y @ s)
    if abs(ys) <= gate * np.linalg.norm(y) * np.linalg.norm(s):
        return None
    rho = 1.0 / ys
    v = np.eye(s.size) - rho * np.outer(s, y)
    w_new = v @ w @ v.T + rho * np.outer(s, s)
    if np.linalg.norm(w_new) > norm_cap:
        return None
    return 0.5 * (w_new + w_new.T)


@pytest.mark.parametrize("d", [2, 10, 100])
def test_update_equals_the_textbook_expression_bit_for_bit(d):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) / math.sqrt(d)
    hessian = a @ a.T + np.eye(d)
    pairs = []
    for _ in range(30):
        s = 0.3 * rng.standard_normal(d)
        pairs.append((s, hessian @ s))                       # curvature pair
        pairs.append((s, rng.standard_normal(d)))            # noisy pair
    e = np.eye(d)
    pairs.append((e[0], e[1]))                               # skipped: y.s = 0
    pairs.append((np.full(d, 100.0), np.full(d, 1e-3)))      # capped norm
    w = np.eye(d)
    outcomes = []
    for s, y in pairs:
        got, want = bfgs_update(w, s, y), _textbook_bfgs_update(w, s, y)
        outcomes.append(want is not None)
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, want)
            w = got
    assert outcomes[-2:] == [False, False] and sum(outcomes) > 30


def test_secant_and_spd_preservation_random():
    rng = np.random.default_rng(21)
    w = np.eye(4)
    applied = 0
    for _ in range(1000):
        a = rng.standard_normal((4, 4)) * 0.3
        w_true = a @ a.T + np.eye(4)
        s = rng.standard_normal(4)
        y = w_true @ s  # guarantees y's > 0
        w_new = bfgs_update(w, s, y)
        if w_new is None:
            continue
        applied += 1
        assert np.linalg.norm(w_new @ y - s) <= 1e-8 * np.linalg.norm(s)
        assert np.linalg.norm(w_new - w_new.T) <= 1e-12
        assert is_spd(w_new + 1e-14 * np.eye(4))
        w = w_new
    assert applied == 1000


# ---------------------------------------------------------------------------
# positive-definite repair
# ---------------------------------------------------------------------------

def test_ensure_spd_passthrough():
    w, delta = ensure_spd(np.eye(3))
    np.testing.assert_array_equal(w, np.eye(3))
    assert delta == 0.0


def test_ensure_spd_negative_eigenvalue():
    w, delta = ensure_spd(np.diag([1.0, -0.5]))
    assert delta == pytest.approx(0.505 + 1e-8, rel=1e-9)
    np.testing.assert_allclose(np.diag(w), [1.505 + 1e-8, 0.005 + 1e-8],
                               rtol=1e-7)
    assert is_spd(w)


def test_ensure_spd_semidefinite_boundary():
    w, delta = ensure_spd(np.diag([1.0, 0.0]))
    assert delta == pytest.approx(1e-8, rel=1e-6)
    assert is_spd(w)


# ---------------------------------------------------------------------------
# burn-in kernel
# ---------------------------------------------------------------------------

def test_burnin_kernel_reduces_to_standard_with_identity():
    target = GaussianTarget(np.array([[2.0, 0.3], [0.3, 1.0]]))
    theta0 = np.array([0.4, -0.2])
    z0 = np.array([1.0, 0.5])
    grad0 = target.logp_grad(theta0)[1]
    a = leapfrog(theta0, z0, grad0, 0.2, 5, target.logp_grad)
    apply_eye = lambda v: np.eye(2) @ v
    b = leapfrog(theta0, z0, grad0, 0.2, 5, target.logp_grad,
                 velocity=apply_eye, force=apply_eye)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_burnin_zero_step_no_update():
    target = GaussianTarget(np.eye(2))
    state = make_state(target, np.array([1.0, 0.0]))
    bfgs = BfgsState(2)
    pairs = []
    apply_w = lambda v: bfgs.w @ v
    leapfrog(state.theta, np.array([0.1, 0.1]), state.grad, 0.0, 3,
             target.logp_grad, velocity=apply_w, force=apply_w,
             on_step=lambda s, y: pairs.append((s, y)))
    for s, y in pairs:
        assert not bfgs.update(s, y)   # zero displacement pairs are skipped
    np.testing.assert_array_equal(bfgs.w, np.eye(2))


def test_burnin_learns_inverse_hessian_on_quadratic():
    # L = -theta' A theta / 2: W should approach inv(A)
    a = np.array([[3.0, 0.8], [0.8, 1.5]])
    target = GaussianTarget(a)
    a_inv = np.linalg.inv(a)
    rng = np.random.default_rng(2)
    bfgs = BfgsState(2)
    state = make_state(target, rng.standard_normal(2))
    errs = []
    for _ in range(50):
        state, _ = qnp_burnin_iteration(state, target.logp_grad, 0.25, 0.8,
                                        rng, bfgs)
        errs.append(np.linalg.norm(bfgs.w - a_inv))
    assert np.mean(errs[-10:]) < np.mean(errs[:10])
    assert errs[-1] < 0.65 * errs[0]


def test_rejection_restores_w_bit_exact():
    target = GaussianTarget(np.eye(2))

    class NeverAccept:
        def __init__(self):
            self.inner = np.random.default_rng(5)

        def uniform(self, *a, **k):
            if a or k:
                return self.inner.uniform(*a, **k)
            return 1.0  # the accept draw: 1.0 < alpha never holds

        def standard_normal(self, *a, **k):
            return self.inner.standard_normal(*a, **k)

    rng = NeverAccept()
    bfgs = BfgsState(2)
    state = make_state(target, np.array([0.5, 0.5]))
    for _ in range(20):
        state, info = qnp_burnin_iteration(state, target.logp_grad, 0.4, 0.8,
                                           rng, bfgs)
        assert not info["accepted"]
    np.testing.assert_array_equal(bfgs.w, np.eye(2))
    np.testing.assert_array_equal(state.theta, [0.5, 0.5])


def _update_then_rollback_iteration(state, logp_grad, eps, tau, rng, w, pairs):
    """The burn-in iteration that updates W at every leapfrog step and
    restores the start W on rejection; returns (state, info, W)."""
    n_steps, eps_eff = hmc.trajectory_discretization(hmc.jitter_tau(tau, rng), eps)
    w_start = w

    def on_step(s, y):
        nonlocal w
        pairs.append((s, -y))
        w_new = bfgs_update(w, s, -y)
        if w_new is not None:
            w = w_new

    new_state, info = hmc.hmc_transition(state, logp_grad, eps_eff, n_steps, rng,
                                         b_matrix=w_start, on_step=on_step)
    return new_state, info, (w if info["accepted"] else w_start)


def test_burnin_applies_pairs_in_step_order_only_on_acceptance(monkeypatch):
    # every call of the module-level bfgs_update is counted: a rejected
    # iteration makes none, an accepted one makes one per leapfrog step with
    # that step's pair, and W follows the update-then-rollback loop bit for bit
    target = GaussianTarget(np.array([[3.0, 0.8, 0.0], [0.8, 1.5, 0.4],
                                      [0.0, 0.4, 0.7]]))
    calls = []
    monkeypatch.setattr(qnp, "bfgs_update",
                        lambda w, s, y: calls.append((s, y)) or bfgs_update(w, s, y))
    rng_new, rng_old = np.random.default_rng(41), np.random.default_rng(41)
    bfgs, w_old = BfgsState(3), np.eye(3)
    s_new = s_old = make_state(target, [0.6, -0.3, 0.2])
    n_accepted = 0
    for _ in range(30):
        calls.clear()
        pairs = []
        s_new, info = qnp_burnin_iteration(s_new, target.logp_grad, 1.2, 3.6,
                                           rng_new, bfgs)
        s_old, info_old, w_old = _update_then_rollback_iteration(
            s_old, target.logp_grad, 1.2, 3.6, rng_old, w_old, pairs)
        assert info == info_old
        np.testing.assert_array_equal(s_new.theta, s_old.theta)
        if info["accepted"]:
            n_accepted += 1
            assert len(calls) == len(pairs) == info["n_steps"]
            for (s, y), (s_ref, y_ref) in zip(calls, pairs):
                np.testing.assert_array_equal(s, s_ref)
                np.testing.assert_array_equal(y, y_ref)
        else:
            assert calls == []
        np.testing.assert_array_equal(bfgs.w, w_old)
    assert 5 <= n_accepted <= 25     # both branches are exercised


def test_constant_density_behaves_as_free_particle():
    class Flat:
        d = 2

        def logp_grad(self, theta, params=None):
            return 0.0, np.zeros(2), None

    target = Flat()
    bfgs = BfgsState(2)
    state = make_state(target, np.zeros(2))
    rng = np.random.default_rng(3)
    state, info = qnp_burnin_iteration(state, target.logp_grad, 0.3, 0.9,
                                       rng, bfgs)
    assert info["accepted"]          # zero potential: dH = 0 exactly
    assert bfgs.n_updates == 0       # y = 0 pairs all skipped
    np.testing.assert_array_equal(bfgs.w, np.eye(2))


# ---------------------------------------------------------------------------
# mass finalization
# ---------------------------------------------------------------------------

def test_finalize_fast_path_and_scalar_matrix():
    target = GaussianTarget(np.eye(2))
    state = make_state(target, np.zeros(2))
    bfgs = BfgsState(2)
    bfgs.w = 2.0 * np.eye(2)
    mass, _ = finalize_mass(bfgs, state, target.logp_grad, 0.3, 0.8,
                            np.random.default_rng(0), record=lambda st, info: None)
    assert mass.extra_iterations == 0
    np.testing.assert_allclose(mass.m, 0.5 * np.eye(2), atol=1e-14)
    np.testing.assert_allclose(mass.chol_m, math.sqrt(0.5) * np.eye(2),
                               atol=1e-14)


def test_finalize_runs_extra_iterations_until_spd():
    model = make_benchmark("example1")
    target = SmoothedTarget(model, sigma=0.4, p=0.1)
    state = make_state(target, np.zeros(2))
    bfgs = BfgsState(2)
    bfgs.w = np.diag([1.0, -0.4])    # not SPD: needs extra adaptation
    mass, _ = finalize_mass(bfgs, state, target.logp_grad, 0.3, 0.7,
                            np.random.default_rng(8), record=lambda st, info: None)
    assert is_spd(mass.w)
    assert mass.extra_iterations > 0 or mass.delta > 0


def test_finalize_extra_iterations_keep_the_cost_guards(monkeypatch):
    model = make_benchmark("example1")
    target = SmoothedTarget(model, sigma=0.4, p=0.1)
    state = make_state(target, np.zeros(2))
    bfgs = BfgsState(2)
    bfgs.w = np.diag([1.0, -0.4])    # not SPD: needs extra adaptation
    infos = []
    # tau / eps = 5 steps without the cap; a negative threshold marks every
    # trajectory divergent, so W is rolled back and all 5 extras run
    monkeypatch.setattr(hmc, "MAX_DELTA_H", -1.0)
    monkeypatch.setattr(qnp, "SPD_EXTRA_CAP", 5)
    monkeypatch.setattr(hmc, "MAX_LEAPFROG_STEPS", 2)
    mass, _ = finalize_mass(bfgs, state, target.logp_grad, 0.3, 1.5,
                            np.random.default_rng(8),
                            record=lambda st, info: infos.append(info))
    assert mass.extra_iterations == len(infos) == 5
    assert all(info["n_steps"] <= 2 for info in infos)
    assert all(info["diverged"] for info in infos)


def test_mass_state_invariants_random_spd():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        w = a @ a.T + 0.5 * np.eye(5)
        mass = MassState.from_w(w)
        resid = np.linalg.norm(mass.m @ mass.w - np.eye(5), 2)
        assert resid <= 1e-8
        np.testing.assert_allclose(mass.chol_m @ mass.chol_m.T, mass.m,
                                   atol=1e-10)


def test_momentum_draw_covariance():
    mass = MassState.from_w(np.diag([0.25, 1.0]))  # M = diag(4, 1)
    rng = np.random.default_rng(10)
    draws = np.array([mass.sample_momentum(rng) for _ in range(100_000)])
    assert draws[:, 0].var() == pytest.approx(4.0, rel=0.02)
    assert draws[:, 1].var() == pytest.approx(1.0, rel=0.02)


# ---------------------------------------------------------------------------
# main-phase iterations
# ---------------------------------------------------------------------------

def test_identity_mass_reduces_to_plain_iteration():
    target = GaussianTarget(np.array([[1.5, 0.2], [0.2, 0.8]]))
    mass = MassState.from_w(np.eye(2))
    s_a = make_state(target, np.array([0.3, 0.4]))
    s_b = make_state(target, np.array([0.3, 0.4]))
    rng_a = np.random.default_rng(77)
    rng_b = np.random.default_rng(77)
    for _ in range(50):
        s_a, info_a = qnp_main_iteration(s_a, target.logp_grad, 0.3, 0.9,
                                         rng_a, mass)
        s_b, info_b = hmc_iteration(s_b, target.logp_grad, 0.3, 0.9, rng_b)
        np.testing.assert_array_equal(s_a.theta, s_b.theta)
        assert info_a["accepted"] == info_b["accepted"]


def test_frozen_identity_w_matches_standard_chain():
    # burn-in iterations with W frozen at I replicate the plain sampler
    target = GaussianTarget(np.array([[2.0, 0.5], [0.5, 1.0]]))

    class FrozenBfgs(BfgsState):
        def update(self, s, y):
            self.n_skipped += 1
            return False

    s_a = make_state(target, np.zeros(2))
    s_b = make_state(target, np.zeros(2))
    rng_a = np.random.default_rng(31)
    rng_b = np.random.default_rng(31)
    frozen = FrozenBfgs(2)
    for _ in range(50):
        s_a, _ = qnp_burnin_iteration(s_a, target.logp_grad, 0.35, 0.8,
                                      rng_a, frozen)
        s_b, _ = hmc_iteration(s_b, target.logp_grad, 0.35, 0.8, rng_b)
        np.testing.assert_array_equal(s_a.theta, s_b.theta)


def test_preconditioning_raises_acceptance_on_correlated_target():
    cov = np.array([[1.0, 0.95], [0.95, 1.0]])
    precision = np.linalg.inv(cov)
    target = GaussianTarget(precision)
    eps, tau, n = 0.35, 1.2, 2000

    def run(mass, seed):
        rng = np.random.default_rng(seed)
        state = make_state(target, np.zeros(2))
        acc = 0
        for _ in range(n):
            state, info = qnp_main_iteration(state, target.logp_grad, eps,
                                             tau, rng, mass)
            acc += info["accepted"]
        return acc / n

    rate_identity = run(MassState.from_w(np.eye(2)), 4)
    rate_precond = run(MassState.from_w(cov), 4)
    assert rate_precond > rate_identity


def test_preconditioned_energy_error_scaling():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 3))
    precision = a @ a.T + np.eye(3)
    target = GaussianTarget(precision)
    mass = MassState.from_w(np.linalg.inv(precision))
    theta0 = rng.standard_normal(3)
    z0 = mass.sample_momentum(rng)
    tau = 1.2

    def max_dh(eps):
        h0 = -target.logp_grad(theta0)[0] + mass.kinetic(z0)
        th, z, grad = theta0.copy(), z0.copy(), target.logp_grad(theta0)[1]
        worst = 0.0
        for _ in range(int(round(tau / eps))):
            th, z, logp, grad, _, ok = leapfrog(th, z, grad, eps, 1,
                                                target.logp_grad,
                                                velocity=mass.velocity)
            worst = max(worst, abs(-logp + mass.kinetic(z) - h0))
        return worst

    ratio = max_dh(0.06) / max_dh(0.03)
    assert 3.5 <= ratio <= 4.5


def test_mass_finalization_failure_raises():
    # cho_factor's LinAlgError is numpy's class, caught as np.linalg.LinAlgError
    with pytest.raises(NumericalError, match="mass finalization failed"):
        MassState.from_w(np.diag([1.0, -1.0]))


def test_preconditioning_efficiency_on_high_dim_quadratic():
    # comparative pilot on the d=100 quadratic problem: the preconditioned
    # sampler must buy at least 1.5x squared jumping distance per model call,
    # with a mass matrix clearly away from identity
    import warnings
    from rareprob import AstpaConfig, run_astpa

    def esjd_per_call(method):
        model = make_benchmark("example7")
        cfg = AstpaConfig(sigma=0.4, tau=0.7, n_burnin=500, budget=8000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report, art = run_astpa(model, cfg, seed=1, method=method)
        th = art.main.theta
        jumps = ((th[1:] - th[:-1]) ** 2).sum(axis=1)
        return jumps.sum() / report.model_calls, art.mass

    qnp_esjd, mass = esjd_per_call("qnp-hmcmc")
    hmc_esjd, _ = esjd_per_call("hmcmc")
    assert np.linalg.cond(mass.w) > np.linalg.cond(np.eye(100))
    assert qnp_esjd >= 1.5 * hmc_esjd
