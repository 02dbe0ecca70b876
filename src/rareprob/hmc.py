"""Hamiltonian MCMC: leapfrog integration, Metropolis step, step-size and
trajectory-length tuning.

The transition driver is shared by the plain sampler and the quasi-Newton
preconditioned variant: the two differ only in which leapfrog kernel runs
and where the momentum covariance comes from.  Random draws always happen
in the same order (trajectory jitter, momentum, accept uniform), so two
samplers fed the same generator and equivalent settings produce identical
chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TuningError

LOG_HALF = math.log(0.5)
LOG2 = math.log(2.0)


@dataclass
class ChainState:
    """Position with its cached log-density, gradient and model response."""

    theta: np.ndarray
    logp: float
    grad: np.ndarray
    aux: tuple | None = None      # (g, grad_g, log_ell) for smoothed targets
    z: np.ndarray | None = None   # momentum stored after the last accept


def n_leapfrog_steps(tau, eps, max_steps=None):
    n = max(1, int(round(tau / eps)))
    return n if max_steps is None else min(n, int(max_steps))


def trajectory_discretization(tau_m, eps, max_steps=None):
    """Step count and effective step size for one trajectory.

    The step count follows max(1, round(tau/eps)) with the tuned step size
    taken literally, so a step size settling above the trajectory length
    still yields the single full-size jump that mixing wants.  The step is
    only clamped at twice the trajectory length: past that point the
    rounding floor would otherwise decouple the move size from tau entirely
    (a near-zero trajectory length must produce a near-zero move).
    """
    eps_eff = min(eps, 2.0 * tau_m)
    n = n_leapfrog_steps(tau_m, eps_eff, max_steps)
    return n, eps_eff


def jitter_tau(tau, rng, lo=0.9, hi=1.1):
    """Uniform perturbation of the trajectory length to break periodicity."""
    return rng.uniform(lo * tau, hi * tau)


def leapfrog(theta, z, grad, eps, n_steps, logp_grad, m_inv=None):
    """Standard leapfrog: n_steps symmetric steps, one model call each.

    ``m_inv`` maps momentum to velocity (identity when None).  Returns the
    final (theta, z, logp, grad, aux) plus a finite-ness flag.
    """
    theta = np.array(theta, dtype=float)
    z = np.array(z, dtype=float)
    logp = None
    aux = None
    for _ in range(n_steps):
        z = z + 0.5 * eps * grad
        theta = theta + eps * (z if m_inv is None else m_inv(z))
        if not np.all(np.isfinite(theta)):
            return theta, z, -math.inf, grad, aux, False
        logp, grad, aux = logp_grad(theta)
        z = z + 0.5 * eps * grad
        if not (math.isfinite(logp) and np.all(np.isfinite(z))):
            return theta, z, logp, grad, aux, False
    return theta, z, logp, grad, aux, True


def leapfrog_burnin(theta, z, grad, eps, n_steps, logp_grad, b_matrix,
                    on_step=None):
    """Burn-in leapfrog with the curvature matrix B on both updates.

    Momentum gains (eps/2) B grad, position gains eps B z.  With B = I this
    reduces to the standard kernel.  ``on_step`` receives
    (step_theta, step_grad) displacements after every completed step so the
    caller can accumulate curvature pairs.
    """
    theta = np.array(theta, dtype=float)
    z = np.array(z, dtype=float)
    logp = None
    aux = None
    for _ in range(n_steps):
        theta_prev, grad_prev = theta, grad
        z = z + 0.5 * eps * (b_matrix @ grad)
        theta = theta + eps * (b_matrix @ z)
        if not np.all(np.isfinite(theta)):
            return theta, z, -math.inf, grad, aux, False
        logp, grad, aux = logp_grad(theta)
        z = z + 0.5 * eps * (b_matrix @ grad)
        if not (math.isfinite(logp) and np.all(np.isfinite(z))):
            return theta, z, logp, grad, aux, False
        if on_step is not None:
            on_step(theta - theta_prev, grad - grad_prev)
    return theta, z, logp, grad, aux, True


def hmc_transition(state, logp_grad, eps, n_steps, rng, *, mass=None,
                   b_matrix=None, on_step=None, max_delta_h=1000.0):
    """One momentum-resample / integrate / Metropolis step.

    mass : optional preconditioned mass (momentum ~ N(0, M), kinetic
        0.5 z' M^-1 z, velocity M^-1 z).  Identity when None.
    b_matrix : when given, run the burn-in kernel with this matrix and
        identity-mass momentum/kinetic (the adaptive phase semantics).

    Returns (new_state, info) where info carries accepted/alpha/diverged.
    """
    d = state.theta.size
    if mass is not None and b_matrix is None:
        z0 = mass.sample_momentum(rng)
        kinetic = mass.kinetic
        m_inv = mass.velocity
    else:
        z0 = rng.standard_normal(d)
        kinetic = lambda z: 0.5 * float(z @ z)
        m_inv = None

    h0 = -state.logp + kinetic(z0)
    if b_matrix is not None:
        theta, z, logp, grad, aux, ok = leapfrog_burnin(
            state.theta, z0, state.grad, eps, n_steps, logp_grad, b_matrix,
            on_step=on_step)
    else:
        theta, z, logp, grad, aux, ok = leapfrog(
            state.theta, z0, state.grad, eps, n_steps, logp_grad, m_inv=m_inv)

    diverged = not ok
    if ok:
        # the kinetic energy of a runaway momentum may overflow; the
        # non-finite delta_h below counts it as a divergence
        with np.errstate(over="ignore"):
            h1 = -logp + kinetic(z)
        delta_h = h1 - h0
        if not math.isfinite(delta_h) or abs(delta_h) > max_delta_h:
            diverged = True
            alpha = 0.0
        else:
            alpha = min(1.0, math.exp(min(0.0, -delta_h)))
    else:
        alpha = 0.0

    u = rng.uniform()  # always drawn, keeps streams aligned across variants
    accepted = (not diverged) and (u < alpha)
    if accepted:
        new_state = ChainState(theta=theta, logp=logp, grad=grad, aux=aux, z=-z)
    else:
        new_state = state
    info = {"accepted": accepted, "alpha": alpha, "diverged": diverged,
            "n_steps": n_steps}
    return new_state, info


def hmc_iteration(state, target_logp_grad, eps, tau, rng, mass=None,
                  jitter=(0.9, 1.1), max_delta_h=1000.0, max_steps=None):
    """Full iteration: jittered trajectory length, then one transition."""
    tau_m = jitter_tau(tau, rng, *jitter)
    n_steps, eps_eff = trajectory_discretization(tau_m, eps, max_steps)
    return hmc_transition(state, target_logp_grad, eps_eff, n_steps, rng,
                          mass=mass, max_delta_h=max_delta_h)


# ---------------------------------------------------------------------------
# step-size adaptation
# ---------------------------------------------------------------------------

@dataclass
class DualAveraging:
    """Burn-in step-size controller driving acceptance toward a target rate.

    The running statistic pulls log(eps) around the anchor mu; the averaged
    iterate is the frozen step size used after burn-in.  Hyperparameters are
    the published defaults of the scheme (gamma=0.05, t0=10, kappa=0.75).
    """

    eps0: float
    target_accept: float = 0.65
    gamma: float = 0.05
    t0: float = 10.0
    kappa: float = 0.75
    anchor_scale: float = 10.0   # anchor at log(anchor_scale * eps0)
    mu: float = field(init=False)
    log_eps: float = field(init=False)
    log_eps_bar: float = field(init=False)
    h_bar: float = 0.0
    t: int = 0

    def __post_init__(self):
        self.mu = math.log(self.anchor_scale * self.eps0)
        self.log_eps = math.log(self.eps0)
        self.log_eps_bar = math.log(self.eps0)

    def update(self, accept_prob):
        """Feed one acceptance probability; returns the next step size."""
        self.t += 1
        m = self.t
        eta = 1.0 / (m + self.t0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (self.target_accept - accept_prob)
        self.log_eps = self.mu - math.sqrt(m) / self.gamma * self.h_bar
        w = m ** (-self.kappa)
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar
        return math.exp(self.log_eps)

    @property
    def current_eps(self):
        return math.exp(self.log_eps)

    @property
    def frozen_eps(self):
        """Averaged step size, used unchanged after burn-in."""
        return math.exp(self.log_eps_bar)


def find_reasonable_epsilon(state, logp_grad, rng, mass=None, b_matrix=None,
                            max_doublings=60):
    """Doubling/halving search for a step size with joint-density ratio ~ 1/2.

    One leapfrog step per trial, so one model call per trial.
    """
    d = state.theta.size
    if mass is not None and b_matrix is None:
        z0 = mass.sample_momentum(rng)
        kinetic = mass.kinetic
        m_inv = mass.velocity
    else:
        z0 = rng.standard_normal(d)
        kinetic = lambda z: 0.5 * float(z @ z)
        m_inv = None
    h0 = -state.logp + kinetic(z0)

    def log_ratio(eps):
        if b_matrix is not None:
            _, z, logp, _, _, ok = leapfrog_burnin(
                state.theta, z0, state.grad, eps, 1, logp_grad, b_matrix)
        else:
            _, z, logp, _, _, ok = leapfrog(
                state.theta, z0, state.grad, eps, 1, logp_grad, m_inv=m_inv)
        if not ok:
            return -math.inf
        r = -(-logp + kinetic(z)) + h0
        return r if math.isfinite(r) else -math.inf

    eps = 1.0
    r = log_ratio(eps)
    while not math.isfinite(r) and eps > 1e-8:
        eps *= 0.5
        r = log_ratio(eps)
    a = 1.0 if r > LOG_HALF else -1.0
    for _ in range(max_doublings):
        if not (a * r > -a * LOG2):
            break
        eps *= 2.0 ** a
        if not 1e-8 < eps < 1e4:
            break
        r = log_ratio(eps)
        if not math.isfinite(r):
            if a > 0:
                eps *= 0.5
                break
            continue
    return eps


# ---------------------------------------------------------------------------
# trajectory-length selection
# ---------------------------------------------------------------------------

def tune_trajectory(target, candidate_taus, pilot_iters, seed, theta0=None,
                    target_accept=0.65, jitter=(0.9, 1.1)):
    """Pick the trajectory length maximizing the normalized expected square
    jumping distance, mean ||theta_{m+1} - theta_m||^2 / sqrt(tau).

    Runs a fresh pilot chain per candidate; ties break toward the smaller
    (cheaper) candidate.  ``target`` needs a ``logp_grad(theta)`` method.
    """
    candidates = sorted(set(float(t) for t in candidate_taus))
    if not candidates:
        raise TuningError("empty trajectory candidate list")

    best_tau = None
    best_esjd = -math.inf
    ss = np.random.SeedSequence(seed)
    for tau, child in zip(candidates, ss.spawn(len(candidates))):
        rng = np.random.default_rng(child)
        th0 = np.zeros(_target_dim(target)) if theta0 is None else np.asarray(theta0, float)
        logp, grad, aux = target.logp_grad(th0)
        state = ChainState(theta=th0, logp=logp, grad=grad, aux=aux)
        da = DualAveraging(find_reasonable_epsilon(state, target.logp_grad, rng),
                           target_accept=target_accept)
        eps = da.current_eps
        total = 0.0
        n_ok = 0
        for _ in range(pilot_iters):
            prev = state.theta
            state, info = hmc_iteration(state, target.logp_grad, eps, tau, rng,
                                        jitter=jitter)
            eps = da.update(info["alpha"])
            if not info["diverged"]:
                n_ok += 1
                jump = state.theta - prev
                total += float(jump @ jump)
        if n_ok == 0:
            continue
        esjd = (total / pilot_iters) / math.sqrt(tau)
        if esjd > best_esjd:
            best_esjd = esjd
            best_tau = tau
    if best_tau is None:
        raise TuningError("all trajectory candidates diverged")
    return best_tau


def _target_dim(target):
    d = getattr(target, "d", None)
    if d is None:
        d = getattr(target, "dim", None)
    if d is None:
        raise TuningError("target must expose d or dim")
    return int(d)
